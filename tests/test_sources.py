import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp

from mmselab import sources
from mmselab.numerics import (
    TAIL_WIDTH,
    NonConvergence,
    NumericsError,
    QuadratureConfig,
    integrate,
)
from mmselab.sources import (
    AmplitudeLaw,
    ScalarSource,
    ZeroVariance,
    builtin_sources,
    expstd,
    from_atoms,
    gaussian,
    gaussian_mixture,
    magnitude_law,
    parse_amplitude,
    parse_source,
    rademacher,
    standardize,
    uniform,
    unit_amplitude,
)


def test_moment_examples():
    assert rademacher().moment(4) == pytest.approx(1.0)
    assert gaussian().moment(4) == pytest.approx(3.0)
    assert uniform().moment(4) == pytest.approx(9.0 / 5.0)
    assert expstd().moment(3) == pytest.approx(2.0)
    assert expstd().moment(4) == pytest.approx(9.0)


def test_moment_rejects_bad_order():
    with pytest.raises(ValueError):
        gaussian().moment(5)


def test_all_registered_sources_standardized():
    for src in builtin_sources():
        assert abs(src.moment(1)) <= 1e-12, src.name
        assert abs(src.moment(2) - 1.0) <= 1e-12, src.name


def test_standardize_gaussian():
    raw = ScalarSource(kind="mixture", name="raw", components=((1.0, 5.0, 2.0),))
    std = standardize(raw)
    assert std.components == ((1.0, 0.0, 1.0),)


def test_standardize_atoms():
    raw = ScalarSource(kind="mixture", name="raw", components=((0.5, 0.0, 0.0), (0.5, 2.0, 0.0)))
    std = standardize(raw)
    values = sorted(v for _, v, _ in std.components)
    assert values == pytest.approx([-1.0, 1.0])


def test_standardize_exponential_moments():
    raw = ScalarSource(kind="exponential", name="raw", params=(0.0, 1.0))
    std = standardize(raw)
    assert std.moment(3) == pytest.approx(2.0, abs=1e-12)
    assert std.moment(4) == pytest.approx(9.0, abs=1e-12)
    # quadrature oracle for the standardized moments
    for k, expected in ((3, 2.0), (4, 9.0)):
        val, _ = integrate(
            lambda x, k=k: (x**k) * np.exp(-(x + 1.0)), (-1.0, 120.0)
        )
        assert val == pytest.approx(expected, abs=1e-8)


def test_standardize_idempotent():
    for src in builtin_sources():
        again = standardize(src)
        assert again.moment(3) == pytest.approx(src.moment(3), abs=1e-12)
        assert again.moment(4) == pytest.approx(src.moment(4), abs=1e-12)


def test_standardize_rejects_degenerate():
    raw = ScalarSource(kind="mixture", name="point", components=((1.0, 3.0, 0.0),))
    with pytest.raises(ZeroVariance):
        standardize(raw)


def test_mixture_standardization_moments():
    mix = gaussian_mixture(0.3, -1.0, 0.5, 2.0, 1.2)
    # frozen from a 40-digit computation of the standardized component moments
    assert mix.moment(3) == pytest.approx(-0.003686968611927, abs=1e-13)
    assert mix.moment(4) == pytest.approx(1.9898664163139, abs=1e-12)


def test_sampling_reproducible():
    for src in builtin_sources():
        a = src.sample(np.random.default_rng(123), 64)
        b = src.sample(np.random.default_rng(123), 64)
        np.testing.assert_array_equal(a, b)


def test_rademacher_sample_values():
    draws = rademacher().sample(np.random.default_rng(7), 4)
    assert set(np.unique(draws)).issubset({-1.0, 1.0})


def test_gaussian_sample_variance():
    draws = gaussian().sample(np.random.default_rng(11), 10**6)
    # 3 sigma bound on the sample variance of 1e6 standard normals
    assert abs(np.var(draws) - 1.0) < 0.01


def test_sample_statistics_all_sources():
    rng = np.random.default_rng(2024)
    for src in builtin_sources():
        draws = src.sample(rng, 200_000)
        assert abs(draws.mean()) < 0.02, src.name
        assert abs(draws.var() - 1.0) < 0.04, src.name


def test_mixture_sampler_draws_the_stream_of_rng_choice():
    # the categorical draw replaces rng.choice(len(w), n, p=w) bit for bit,
    # zero weights included, and leaves the generator in the same state
    laws = [
        ((1.0, 0.0, 1.0),),
        ((0.3, -1.0, 0.5), (0.7, 2.0, 1.2)),
        ((0.0, -1.0, 0.0), (0.5, 0.0, 0.0), (0.5, 2.0, 0.0)),
        ((0.5, -1.0, 0.0), (0.5, 0.0, 0.0), (0.0, 2.0, 0.0)),
        tuple((0.1, float(i), 0.1) for i in range(10)),
    ]
    for comps in laws:
        w, mu, s = np.array(comps).T
        # 70 001 draws: more than two 2^15-draw blocks, as earlier versions drew them
        for seed, n in ((0, 1), (1, 7), (2, 4099), (3, 70_001)):
            rng = np.random.default_rng(seed)
            x = ScalarSource(kind="mixture", name="m", components=comps).sample(rng, n)
            ref = np.random.default_rng(seed)
            idx = ref.choice(len(w), size=n, p=w)
            expected = ref.standard_normal(n) * s[idx] + mu[idx]
            assert x.tobytes() == expected.tobytes()
            assert rng.random() == ref.random()


def _four_call_ndtr_diff(v1, v2):
    return np.where(v1 >= 0.0, sp.ndtr(-v1) - sp.ndtr(-v2), sp.ndtr(v2) - sp.ndtr(v1))


def test_ndtr_diff_is_the_four_call_form_bit_for_bit():
    v = np.concatenate((np.linspace(-40.0, 40.0, 401), [-8.3e-17, -0.0, 0.0, 1e-300, 37.5]))
    v1, v2 = np.meshgrid(v, v)
    v1, v2 = np.minimum(v1, v2).ravel(), np.maximum(v1, v2).ravel()
    assert sources._ndtr_diff(v1, v2).tobytes() == _four_call_ndtr_diff(v1, v2).tobytes()


def _two_branch_exponential_density(src, y, q):
    loc, s = src.params
    sq = math.sqrt(q)
    ssq = s * sq
    u = y - sq * loc
    w = (1.0 / ssq - u) / math.sqrt(2.0)
    pos = w >= 0.0
    head = sp.erfcx(np.where(pos, w, 0.0)) * np.exp(-0.5 * np.square(u)) / (2.0 * ssq)
    tail = np.exp(np.where(pos, -1.0, 0.5 / (ssq * ssq) - u / ssq)) * sp.ndtr(u - 1.0 / ssq) / ssq
    return np.where(pos, head, tail)


@pytest.mark.parametrize("q", [1e-4, 0.5, 3.0, 1e3, 1e6])
def test_exponential_density_per_branch_is_the_two_branch_form(q):
    y = np.random.default_rng(5).permutation(np.linspace(-80.0, 300.0, 20011))
    for src in (expstd(), standardize(ScalarSource(kind="exponential", name="e", params=(2.0, 0.3)))):
        got = src.output_density(y, q)
        assert got.tobytes() == _two_branch_exponential_density(src, y, q).tobytes()
        point = src.output_density(1.25, q)
        assert np.shape(point) == () and point == _two_branch_exponential_density(src, 1.25, q)


def test_output_density_matches_sampling_free_quadrature():
    # generic check: closed-form kernels agree with direct x-integration
    y_probe = np.array([-1.7, -0.3, 0.0, 0.8, 2.4])
    q = 0.7
    sq = math.sqrt(q)
    for src in builtin_sources():
        dens = src.output_density(y_probe, q)
        cross = src.cross_density(y_probe, q)
        for yi, d, c in zip(y_probe, dens, cross):
            if src.kind == "mixture" and all(s == 0.0 for _, _, s in src.components):
                probs, vals, _ = np.array(src.components).T
                phi = np.exp(-0.5 * (yi - sq * vals) ** 2) / math.sqrt(2 * math.pi)
                d_ref, c_ref = float(probs @ phi), float((probs * vals) @ phi)
            else:
                rng_draws = src.sample(np.random.default_rng(5), 400_000)
                phi = np.exp(-0.5 * (yi - sq * rng_draws) ** 2) / math.sqrt(2 * math.pi)
                d_ref, c_ref = float(phi.mean()), float((rng_draws * phi).mean())
                assert d == pytest.approx(d_ref, abs=4e-3)
                assert c == pytest.approx(c_ref, abs=4e-3)
                continue
            assert d == pytest.approx(d_ref, rel=1e-12)
            assert c == pytest.approx(c_ref, rel=1e-12)


def test_custom_source_roundtrip():
    # triangular density on [-sqrt(6), sqrt(6)] is already standardized
    b = math.sqrt(6.0)
    tri = sources.custom_source(
        lambda x: max(0.0, (1.0 - abs(x) / b) / b), (-b, b), name="triangle"
    )
    assert abs(tri.moment(1)) < 1e-9
    assert tri.moment(4) == pytest.approx(2.4, abs=1e-6)  # 6*b^4/15/b... = 12/5
    dens = tri.output_density(np.array([0.0, 1.0]), 0.5)
    assert np.all(dens > 0)
    with pytest.raises(ValueError):
        tri.sample(np.random.default_rng(0), 8)


def test_custom_pdf_must_integrate_to_one():
    # a density off by a factor is no law: its moments would standardize another
    b = math.sqrt(3.0)
    with pytest.raises(NumericsError, match=r"law 'double': the pdf integrates to 2\.0"):
        sources.custom_source(lambda x: 1.0 / b, (-b, b), name="double")
    off = 1.0 + 1e-8
    with pytest.raises(NumericsError, match="not to 1 within 1e-09"):
        sources.custom_source(lambda x: off * 0.5 / b, (-b, b))
    assert sources.custom_source(lambda x: (1.0 + 1e-10) * 0.5 / b, (-b, b)).is_standard


def test_custom_finite_support_gets_the_uniform_panels():
    # the ends of a finite support are output steps, as the ends of `uniform`
    b = math.sqrt(3.0)
    flat = sources.custom_source(lambda x: 0.5 / b if abs(x) <= b else 0.0, (-b, b))
    for q in (1e-2, 1.0, 1e6, 1e7):
        assert flat.output_panels(q) == uniform().output_panels(q)
    r2 = math.sqrt(2.0)
    laplace = sources.custom_source(lambda x: math.exp(-r2 * abs(x)) / r2, (-40.0, 40.0))
    assert laplace.support == (-40.0, 40.0)
    domain, breakpoints = laplace.output_panels(1e6)
    radius = TAIL_WIDTH * math.sqrt(1.0 + 1e6) + 1e3 * 40.0
    assert domain == (-radius, radius)
    assert breakpoints == [1e3 * v + d for v in (-40.0, 40.0) for d in (-8.0, 0.0, 8.0)]


@pytest.mark.parametrize(
    "fields",
    [
        {"support": (-1.0, 1.0)},
        {"pdf": 0.5, "support": (-1.0, 1.0)},
        {"pdf": lambda x: 0.5},
        {"pdf": lambda x: 0.5, "support": (-1.0,)},
        {"pdf": lambda x: 0.5, "support": (1.0, -1.0)},
        {"pdf": lambda x: 0.5, "support": (-1.0, 1.0, 2.0)},
        {"pdf": lambda x: 0.5, "support": (-math.inf, 1.0)},
        {"pdf": lambda x: 0.5, "support": (-1.0, math.nan)},
    ],
    ids=["no-pdf", "pdf-not-callable", "no-support", "one-end", "reversed", "three-ends",
         "infinite-end", "nan-end"],
)
def test_malformed_custom_law_raises_value_error(fields):
    # with no pdf or a one-end support these raised TypeError and IndexError
    # from deep in the moment quadrature
    with pytest.raises(ValueError, match="custom law 'bad' needs a callable pdf on a finite"):
        ScalarSource(kind="custom", name="bad", **fields)


def test_custom_support_must_be_finite():
    # an infinite support is cut by the user, where the mass outside is negligible
    with pytest.raises(ValueError, match="custom law 'normal' needs a callable pdf on a finite"):
        sources.custom_source(
            lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
            (-math.inf, math.inf),
            name="normal",
        )


def test_negative_pdf_raises():
    # mass 1 on (-sqrt 3, sqrt 3), but negative near +-sqrt(3)/2: no law, and
    # its mmse at q = 2 read 0.3186 without raising
    b = math.sqrt(3.0)

    def pdf(x):
        return (1.0 + 1.5 * math.cos(2.0 * math.pi * x / b)) / (2.0 * b)

    assert integrate(np.vectorize(pdf), (-b, b)).value == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match=r"law 'lobes': the pdf is -[0-9.e-]+ < 0 at x=") as exc:
        sources.custom_source(pdf, (-b, b), name="lobes")
    assert pdf(float(str(exc.value).rpartition("x=")[2])) < 0.0


def _bench_custom_laws():
    # the custom laws of the benchmark's scalar-sweep, built as its workload
    # process builds them: the pdf of bench/reference.py behind a float()
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import reference
    finally:
        sys.path.remove(bench)
    return [
        (lambda law=law: sources.custom_source(lambda x: float(law.pdf(x)), law.support, law.name))
        for law in (reference.CUSTOM_UNIFORM, reference.CUSTOM_TRIANGULAR)
    ]


@pytest.mark.parametrize("make", _bench_custom_laws(), ids=("uniform", "triangular"))
def test_custom_memos_keep_every_value_bit_for_bit(make):
    # mmse then D at each q on one law, both memos filling as they go, give
    # the values of a fresh law per call, whose memos start empty
    from mmselab.scalar_channel import ScalarChannel, mmse, nongaussianity

    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-15, max_subdivisions=400)
    shared = make()
    for q in (0.3, 2.0, 8.0):
        for quantity in (mmse, nongaussianity):
            kept = quantity(ScalarChannel(shared, q), cfg)
            assert kept.hex() == quantity(ScalarChannel(make(), q), cfg).hex(), (q, quantity)
    assert shared._density_memo and shared._pdf_memo


def test_custom_pdf_is_called_once_per_distinct_node(monkeypatch):
    from mmselab.scalar_channel import ScalarChannel, mmse, nongaussianity

    b = math.sqrt(6.0)
    nodes = []

    def pdf(x):
        nodes.append(x.hex())  # the bits: -0.0 and 0.0 are two nodes
        return max(0.0, (1.0 - abs(x) / b) / b)

    tri = sources.custom_source(pdf, (-b, b), name="counted")
    lookups = []
    lookup = sources._pdf_values
    monkeypatch.setattr(
        sources, "_pdf_values", lambda src, x: lookups.append(x.size) or lookup(src, x)
    )
    for q in (0.5, 4.0):
        ch = ScalarChannel(tri, q)
        mmse(ch), nongaussianity(ch)
    tri.cross_density(np.linspace(-3.0, 3.0, 9), 4.0)
    assert len(nodes) == len(set(nodes)) == len(tri._pdf_memo)
    assert sum(lookups) > 2 * len(nodes)  # the kernels met most nodes more than once


def test_custom_memos_stay_within_their_bounds():
    from mmselab.scalar_channel import ScalarChannel, mmse, nongaussianity

    b = math.sqrt(6.0)
    tri = sources.custom_source(lambda x: max(0.0, (1.0 - abs(x) / b) / b), (-b, b))
    sizes = []
    for q in np.geomspace(1e-2, 1e2, 100).tolist():
        ch = ScalarChannel(tri, q)
        mmse(ch), nongaussianity(ch)
        stored = sum(len(key[2]) // 8 + p.size for key, p in tri._density_memo)
        assert 0 < stored <= sources._DENSITY_MEMO_VALUES
        sizes.append(len(tri._pdf_memo))
    assert max(sizes) <= sources._PDF_MEMO_NODES
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))  # it started over


_SPIKE_MASS = 2.0 * (math.sqrt(2.3) + math.sqrt(1.7))


def _spiky(x):
    # an integrable spike at 0.3: no panel budget reaches 1e-12 on it
    return abs(x - 0.3) ** -0.5 / _SPIKE_MASS if x != 0.3 else 0.0


def test_custom_moment_failure_names_the_law():
    message = r"^moments of law 'spiky': quadrature error .* \(component 8\) on \(-2, 2\)$"
    with pytest.raises(NonConvergence, match=message) as info:
        sources.custom_source(_spiky, (-2.0, 2.0), name="spiky")
    assert info.value.component == 8  # the mass


@pytest.mark.parametrize("cross", [False, True], ids=("output", "cross"))
def test_custom_kernel_failure_names_the_law_and_q_of_its_first_chunk(cross):
    # moments given, so the kernels meet the spike first; 40 points make two
    # chunks, of 32 and 8 points, and both integrals fail
    spiky = ScalarSource(
        kind="custom", name="spiky", pdf=_spiky, support=(-2.0, 2.0), _moments=(0.0, 1.0, 0.0, 3.0)
    )
    kernel = spiky.cross_density if cross else spiky.output_density
    y = np.linspace(-1.0, 1.0, 40)
    density = "cross density" if cross else "output density"
    with pytest.raises(NonConvergence, match=rf"^{density} of law 'spiky' at q=2\.0: quadrature"):
        kernel(y, 2.0)
    failures = []
    for part in (y, y[:32], y[32:]):
        with pytest.raises(NonConvergence) as info:
            kernel(part, 2.0)
        failures.append(str(info.value))
    assert failures[0] == failures[1] != failures[2]


# the distinct q of a derivative stencil and of the scalar grid, as columns,
# and one-row columns, which the exponential kernel takes down its scalar path
Q_COLUMNS = (
    np.array([[0.0015625], [0.05], [0.2]]),
    np.array([[1e-2], [1.0], [1e4], [1e6]]),
    np.array([[1e-3]]),
    np.array([[1e6]]),
)


@pytest.mark.parametrize("qcol", Q_COLUMNS, ids=("stencil", "grid", "row-low", "row-high"))
@pytest.mark.parametrize("src", builtin_sources(), ids=lambda src: src.name)
def test_q_column_kernels_are_the_per_q_calls_bit_for_bit(src, qcol):
    y = np.concatenate((np.linspace(-40.0, 40.0, 57), [-1e3, 0.0, 1e3]))
    for kernel in (src.output_density, src.cross_density):
        rows = kernel(y, qcol)
        assert rows.shape == (len(qcol), y.size)
        for row, q in zip(rows, qcol[:, 0]):
            assert row.tobytes() == kernel(y, float(q)).tobytes(), (kernel.__name__, q)


def test_q_column_custom_kernels_match_the_per_q_calls():
    b = math.sqrt(6.0)
    tri = sources.custom_source(lambda x: max(0.0, (1.0 - abs(x) / b) / b), (-b, b))
    y, qcol = np.linspace(-8.0, 8.0, 21), Q_COLUMNS[0]
    for kernel in (tri.output_density, tri.cross_density):
        rows = kernel(y, qcol)
        assert rows.shape == (len(qcol), y.size)
        for row, q in zip(rows, qcol[:, 0]):
            assert row.tobytes() == kernel(y, float(q)).tobytes(), (kernel.__name__, q)


_TRIANGLE = sources.custom_source(
    lambda x: max(0.0, (1.0 - abs(x) / math.sqrt(6.0)) / math.sqrt(6.0)),
    (-math.sqrt(6.0), math.sqrt(6.0)),
    name="triangle",
)


@pytest.mark.parametrize(
    "src", builtin_sources() + (_TRIANGLE,), ids=lambda src: f"{src.kind}-{src.name}"
)
def test_per_point_q_kernels_are_the_one_q_calls_bit_for_bit(src):
    # one q per point, the form of the scalar grid's integral batches: each
    # run of points that share a q has the values of the call with that q
    # on that run alone (a mixture's BLAS sum rounds the last few points
    # of a product its own way, so a run is a product of its own)
    rng = np.random.default_rng(7)
    y = np.concatenate((np.linspace(-40.0, 40.0, 61), [-1e3, 0.0, 1e3]))
    runs = np.cumsum(rng.integers(1, 12, size=12))
    runs = [0, *runs[runs < y.size].tolist(), y.size]
    qs = [1e-3, 0.05, 1.0, 1e4, 1e6, 0.05, 3.0]  # neighbours differ
    q = np.concatenate([np.full(j - i, qs[k % 7]) for k, (i, j) in enumerate(zip(runs, runs[1:]))])
    p, a = src._kernel(y, q, cross=True)
    assert p.shape == a.shape == y.shape
    assert src.output_density(y, q).tobytes() == p.tobytes()
    assert src.cross_density(y, q).tobytes() == a.tobytes()
    for i, j in zip(runs, runs[1:]):
        for got, kernel in ((p, src.output_density), (a, src.cross_density)):
            lone = kernel(y[i:j], float(q[i]))
            assert got[i:j].tobytes() == lone.tobytes(), (kernel.__name__, q[i], i, j)
    # a 2-D y takes a q of its shape, point by point in its flat order
    n = runs[4]  # the first four runs, 36 points
    grid = y[:n].reshape(6, -1)
    assert src.output_density(grid, q[:n].reshape(6, -1)).tobytes() == p[:n].tobytes()


def test_exponential_end_is_an_output_step():
    # the finite end loc of loc + s Exp(1) gets the breakpoints of a uniform end
    src = expstd()
    loc = src.params[0]
    for q in (1e-2, 1.0, 1e6):
        sq = math.sqrt(q)
        assert src.output_panels(q)[1] == [sq * loc - 8.0, sq * loc, sq * loc + 8.0]


def test_custom_triangular_law_is_standard():
    # triangular density on [0, 1] with mode c
    c = 0.35

    def pdf(x):
        if 0.0 <= x <= c:
            return 2.0 * x / c
        return 2.0 * (1.0 - x) / (1.0 - c) if c < x <= 1.0 else 0.0

    assert sources.custom_source(pdf, (0.0, 1.0)).is_standard


def test_parse_source_specs():
    assert parse_source("rademacher").name == "rademacher"
    assert parse_source("expstd").kind == "exponential"
    mix = parse_source("mix:0.3,-1,0.5,2,1.2")
    assert mix.is_standard
    atoms = parse_source("atoms:0,0.5,2,0.5")
    assert sorted(v for _, v, _ in atoms.components) == pytest.approx([-1.0, 1.0])
    with pytest.raises(ValueError):
        parse_source("cauchy")
    with pytest.raises(ValueError):
        parse_source("mix:1,2")


def test_amplitude_laws():
    assert unit_amplitude().magnitudes == ((1.0, 1.0),)
    mags = magnitude_law([0.5, math.sqrt(1.75)], [0.5, 0.5])
    a = np.array([v for v, _ in mags.magnitudes])
    p = np.array([w for _, w in mags.magnitudes])
    assert float(p @ a**2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        magnitude_law([1.0, 2.0], [0.5, 0.5])  # E a^2 = 2.5 != 1
    with pytest.raises(ValueError):
        AmplitudeLaw(kind="nope", name="x")


def test_unknown_source_kind_rejected():
    # with moments given, nothing else reads the kind at construction
    with pytest.raises(ValueError, match="unknown source kind 'bogus'"):
        ScalarSource(kind="bogus", name="x", _moments=(0.0, 1.0, 0.0, 3.0))


@pytest.mark.parametrize("spec", ["unit", "mags:0.2,0.8,2.2,0.2"])
@pytest.mark.parametrize("x", [1e-3, 1.0, 1e6])
def test_amplitude_output_panels_rings(spec, x):
    # the largest ring plus TAIL_WIDTH deviations of the matched Gaussian,
    # and a breakpoint 8 on either side of each ring a sqrt(x), none at it
    law = parse_amplitude(spec)
    sq = math.sqrt(x)
    a_max = max(a for a, _ in law.magnitudes)
    domain, breakpoints = law.output_panels(x)
    assert domain == (0.0, sq * a_max + TAIL_WIDTH * math.sqrt(1.0 + 0.5 * x))
    assert breakpoints == [a * sq + d for a, _ in law.magnitudes for d in (-8.0, 8.0)]


def test_parse_amplitude():
    assert parse_amplitude("unit").magnitudes == ((1.0, 1.0),)
    assert parse_amplitude("gaussian").kind == "gaussian-pair"
    assert parse_amplitude("mags:0.5,0.5,1.3228756555322954,0.5").kind == "magnitudes"
    with pytest.raises(ValueError):
        parse_amplitude("rayleigh")
