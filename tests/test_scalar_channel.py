import math

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from mmselab import scalar_channel, sources
from mmselab.numerics import (
    DIVERGENCE_QUADRATURE,
    NonConvergence,
    NumericsError,
    QuadratureConfig,
    ValueWithError,
    derivative_nodes,
    integrate,
)
from mmselab.scalar_channel import (
    ScalarChannel,
    conditional_mean,
    d4_at_zero_from_moments,
    divergence_derivatives_at_zero,
    gaussian_mmse,
    mmse,
    mmse_taylor3,
    nongaussianity,
)
from mmselab.sources import (
    ScalarSource,
    builtin_sources,
    custom_source,
    expstd,
    from_atoms,
    gaussian,
    gaussian_mixture,
    parse_source,
    rademacher,
    standardize,
    uniform,
)

_PHI = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)

# frozen 40-digit quadrature values
RAD_MMSE = {
    0.025: 0.975600517488969134,
    0.05: 0.952314841769760685,
    0.1: 0.908659398795122119,
    0.2: 0.830905985530560907,
    0.5: 0.649886595324869186,
    2.0: 0.231018221929295619,
}
RAD_DIV_1 = 0.0097427699331410427
UNIF_MMSE = {0.5: 0.6616263262955741, 2.0: 0.3157835569330359}
# E Var[X|Y] over the truncated-normal posterior, composite Gauss-Legendre
UNIF_MMSE.update({1e6: 9.994785388041e-07, 1e8: 9.9994785388e-09})
EXP_MMSE = {0.5: 0.584192204429272894, 2.0: 0.265372547008808828}


def test_channel_validation():
    with pytest.raises(ValueError):
        ScalarChannel(gaussian(), -0.5)
    with pytest.raises(ValueError):
        ScalarChannel(gaussian(), math.inf)
    raw = ScalarSource(kind="mixture", name="raw", components=((1.0, 1.0, 2.0),))
    with pytest.raises(ValueError):
        ScalarChannel(raw, 1.0)
    # the derivative set takes no ScalarChannel; unchecked, this raw law's
    # D'(0) came back as 0.5, where every standardized law has 0
    raw = ScalarSource(kind="mixture", name="raw", components=((0.5, 0.0, 0.0), (0.5, 2.0, 0.0)))
    with pytest.raises(ValueError, match="source 'raw' is not standardized"):
        divergence_derivatives_at_zero(raw)
    with pytest.raises(ValueError, match="source 'raw' is not standardized"):
        scalar_channel._channel_integrals(raw, [("mmse", 0.0)], QuadratureConfig())


def test_output_density_examples():
    # gaussian input at q=1: output is N(0,2)
    assert gaussian().output_density(0.0, 1.0) == pytest.approx(
        1.0 / math.sqrt(4 * math.pi), rel=1e-12
    )
    # at q=0 the output is the noise for any source
    for y in (-1.3, 0.0, 2.2):
        assert rademacher().output_density(y, 0.0) == pytest.approx(_PHI(y), rel=1e-12)
    # two-atom mixture arithmetic
    assert rademacher().output_density(0.0, 1.0) == pytest.approx(_PHI(1.0), rel=1e-12)


def test_conditional_mean_closed_forms():
    # rademacher posterior mean is tanh(sqrt(q) y)
    q = 0.3
    ch = ScalarChannel(rademacher(), q)
    ys = np.linspace(-4, 4, 17)
    np.testing.assert_allclose(
        conditional_mean(ch, ys), np.tanh(math.sqrt(q) * ys), rtol=1e-12
    )
    # jointly Gaussian estimator is linear
    chg = ScalarChannel(gaussian(), 0.8)
    np.testing.assert_allclose(
        conditional_mean(chg, ys), math.sqrt(0.8) / 1.8 * ys, rtol=1e-12
    )
    # independent at q=0
    ch0 = ScalarChannel(uniform(), 0.0)
    np.testing.assert_allclose(conditional_mean(ch0, ys), 0.0, atol=1e-15)


@pytest.mark.parametrize("blocks,extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
def test_conditional_mean_blocks_change_no_bit(blocks, extra):
    # the pair of one kernel evaluation is the lone calls' ratio, bit for
    # bit, at q = 0 as elsewhere, for a 0-d y and for a custom law, at sizes
    # around multiples of 2^15 points, the blocks of earlier versions
    def one_pass(src, y, q):
        p, a = src.output_density(y, q), src.cross_density(y, q)
        return np.divide(a, p, out=np.zeros_like(p), where=p > 1e-300)

    size = blocks * 2**15 + extra
    laws = [(src, size) for src in builtin_sources()] + [(TRIANGULAR, min(size, 40))]
    for i, (src, n) in enumerate(laws):
        y = 4.0 * np.random.default_rng(i).standard_normal(n)
        for q in (0.0, 2.5):
            ch = ScalarChannel(src, q)
            got = conditional_mean(ch, y)
            assert got.tobytes() == one_pass(src, y, q).tobytes(), (src.name, q)
            y0 = np.array(y[0])
            assert conditional_mean(ch, y0) == float(one_pass(src, y0, q)), (src.name, q)


def test_conditional_mean_evaluates_the_kernel_once(monkeypatch):
    calls = []
    kernel = ScalarSource._kernel

    def counted(src, y, *args, **kwargs):
        calls.append(np.size(y))
        return kernel(src, y, *args, **kwargs)

    monkeypatch.setattr(ScalarSource, "_kernel", counted)
    size = 2 * 2**15 + 3
    y = np.linspace(-5.0, 5.0, size)
    for src in builtin_sources():
        calls.clear()
        conditional_mean(ScalarChannel(src, 2.0), y)
        assert calls == [size], src.name


def test_custom_law_integrates_only_the_densities_it_returns(monkeypatch):
    # a custom law's p is a tensor rule of its own: the mmse integrand's
    # lone cross density must not pay for it again
    rules = []
    rule = sources._custom_kernel

    def counted(src, y, q, cross):
        rules.append(cross)
        return rule(src, y, q, cross)

    monkeypatch.setattr(sources, "_custom_kernel", counted)
    y = np.linspace(-3.0, 3.0, 7)
    TRIANGULAR.cross_density(y, 2.0)
    TRIANGULAR.output_density(y, 2.0)
    assert rules == [True, False]
    rules.clear()
    conditional_mean(ScalarChannel(TRIANGULAR, 2.0), y)
    assert rules == [False, True]


@pytest.mark.parametrize("q,expected", sorted(RAD_MMSE.items()))
def test_rademacher_mmse_frozen(q, expected):
    assert mmse(ScalarChannel(rademacher(), q)) == pytest.approx(expected, abs=1e-11)


def test_rademacher_mmse_against_tanh_oracle():
    # independent oracle: 1 - E tanh^2(sqrt(q) Y) by direct quadrature
    q = 0.1
    s = math.sqrt(q)

    def integrand(y):
        p = 0.5 * (_PHI(y - s) + _PHI(y + s))
        return p * math.tanh(s * y) ** 2

    val, _ = quad(integrand, -30, 30, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert mmse(ScalarChannel(rademacher(), q)) == pytest.approx(1.0 - val, abs=1e-11)
    # low-snr expansion used as a sanity anchor
    assert 1.0 - val == pytest.approx(1 - q + q * q - (5.0 / 3.0) * q**3, abs=4e-4)


def test_gaussian_mmse_closed_form():
    assert gaussian_mmse(0.0) == 1.0
    assert gaussian_mmse(1.0) == 0.5
    assert gaussian_mmse(3.0) == 0.25
    assert mmse(ScalarChannel(gaussian(), 2.0)) == pytest.approx(1.0 / 3.0, abs=1e-11)
    with pytest.raises(ValueError):
        gaussian_mmse(-1.0)


def test_mmse_at_zero_snr():
    for src in builtin_sources():
        assert mmse(ScalarChannel(src, 0.0)) == 1.0


@pytest.mark.parametrize("q,expected", sorted(UNIF_MMSE.items()))
def test_uniform_mmse_frozen(q, expected):
    assert mmse(ScalarChannel(uniform(), q)) == pytest.approx(expected, abs=1e-11)


@pytest.mark.parametrize("q,expected", sorted(EXP_MMSE.items()))
def test_expstd_mmse_frozen(q, expected):
    assert mmse(ScalarChannel(expstd(), q)) == pytest.approx(expected, abs=1e-11)


def test_mmse_taylor3_values():
    rad = rademacher()
    for q in (0.0, 0.05, 0.3):
        assert mmse_taylor3(rad, q) == pytest.approx(
            1 - q + q * q - (5.0 / 3.0) * q**3, rel=1e-14
        )
    g = gaussian()
    for q in (0.0, 0.05, 0.3):
        assert mmse_taylor3(g, q) == pytest.approx(1 - q + q * q - q**3, rel=1e-14)


def test_d4_moment_formula_values():
    assert d4_at_zero_from_moments(rademacher()) == pytest.approx(2.0)
    assert d4_at_zero_from_moments(gaussian()) == pytest.approx(0.0)
    assert d4_at_zero_from_moments(uniform()) == pytest.approx(18.0 / 25.0)


def test_nongaussianity_gaussian_is_zero():
    for q in (0.1, 1.0, 4.0):
        assert nongaussianity(ScalarChannel(gaussian(), q)) <= 1e-12


def test_nongaussianity_zero_snr():
    assert nongaussianity(ScalarChannel(expstd(), 0.0)) == 0.0


def test_nongaussianity_rademacher_against_plain_quadrature():
    # independent path: plain p*ln(p/g) integrand, absolute-tolerance quad
    q = 1.0
    var = 1 + q

    def integrand(y):
        p = 0.5 * (_PHI(y - 1.0) + _PHI(y + 1.0))
        g = math.exp(-0.5 * y * y / var) / math.sqrt(2 * math.pi * var)
        return p * math.log(p / g) if p > 0 else 0.0

    val, _ = quad(integrand, -14, 14, epsabs=1e-14, epsrel=1e-12, limit=300)
    d = nongaussianity(ScalarChannel(rademacher(), q))
    assert d == pytest.approx(val, abs=1e-12)
    assert d == pytest.approx(RAD_DIV_1, abs=1e-13)
    assert d > 0


def test_divergence_derivatives_symmetric_sources():
    for src, d4_target in ((rademacher(), 2.0), (uniform(), 0.72)):
        ests = divergence_derivatives_at_zero(src)
        by_order = {e.order: e for e in ests}
        for k in (1, 2, 3):
            assert abs(by_order[k].value) <= max(1e-4, 10 * by_order[k].error_estimate)
        assert by_order[4].value == pytest.approx(d4_target, rel=0.05)
        assert by_order[4].value == pytest.approx(
            d4_at_zero_from_moments(src), rel=0.05
        )


def test_divergence_derivatives_gaussian_all_zero():
    ests = divergence_derivatives_at_zero(gaussian())
    for e in ests:
        assert abs(e.value) <= max(1e-6, 10 * e.error_estimate)


def test_mmse_dominated_by_gaussian_and_monotone():
    # Gaussian input is the hardest to estimate; error shrinks with snr
    grid = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0)
    for src in builtin_sources():
        prev = 1.0
        for q in grid:
            val = mmse(ScalarChannel(src, q))
            assert 0.0 <= val <= gaussian_mmse(q) + 1e-10, (src.name, q)
            assert val <= prev + 1e-10, (src.name, q)
            prev = val


def _divergence_slope(src, q, h=0.02):
    # five-point central difference of the divergence curve
    d = [nongaussianity(ScalarChannel(src, q + k * h)) for k in (-2, -1, 1, 2)]
    return (d[0] - 8 * d[1] + 8 * d[2] - d[3]) / (12 * h)


def test_error_gap_equals_twice_divergence_slope():
    # gap identity: gaussian_mmse - mmse = 2 dD/dq, checked by differences
    src = rademacher()
    for q in (0.25, 0.5, 1.0, 2.0):
        gap = gaussian_mmse(q) - mmse(ScalarChannel(src, q))
        assert gap == pytest.approx(2.0 * _divergence_slope(src, q), abs=1e-5)


def test_low_snr_quartic_law_rademacher():
    # D(q)/q^4 -> d4/24 = 1/12, via Richardson on three grid points
    src = rademacher()
    r = {q: nongaussianity(ScalarChannel(src, q)) / q**4 for q in (0.2, 0.1, 0.05)}
    e1 = 2 * r[0.05] - r[0.1]
    e2 = 2 * r[0.1] - r[0.2]
    extrapolated = (4 * e1 - e2) / 3
    assert extrapolated == pytest.approx(1.0 / 12.0, rel=0.03)


def test_taylor3_residual_is_quartic():
    src = rademacher()
    ratios = [
        abs(mmse(ScalarChannel(src, q)) - mmse_taylor3(src, q)) / q**4
        for q in (0.2, 0.1, 0.05, 0.025)
    ]
    assert max(ratios) / min(ratios) <= 2.0


def test_skewed_source_expansion_discrepancy_measured():
    # For skewed laws the stated moment formulas are provably incomplete:
    # the third divergence derivative converges to (EX^3)^2/2, not 0, and
    # the measured mmse disagrees with the third-order formula accordingly.
    src = expstd()
    est3 = divergence_derivatives_at_zero(src, orders=(3,))[0]
    m3 = src.moment(3)
    assert est3.value == pytest.approx(0.5 * m3 * m3, rel=0.02)
    # the reported error must cover the real one; a stencil that reaches
    # past the low-snr regime makes the tableau indicator overconfident
    assert abs(est3.value - 0.5 * m3 * m3) <= est3.error_estimate
    # the q^2 coefficient of the true mmse is 1 - m3^2/2 = -1 here
    q = 0.004
    measured_c2 = (mmse(ScalarChannel(src, q)) - 1 + q) / (q * q)
    assert measured_c2 < 0.0
    assert measured_c2 == pytest.approx(1.0 - 0.5 * m3 * m3, abs=0.1)


_R2 = math.sqrt(2.0)
_R6 = math.sqrt(6.0)
# on (-40, 40) the Laplace law leaves out mass exp(-40 sqrt 2) = 2.6e-25
LAPLACE = custom_source(lambda x: math.exp(-_R2 * abs(x)) / _R2, (-40.0, 40.0), name="laplace")
LAPLACE_PIECES = ((-25.0, 0.0), (0.0, 25.0))
# no kink is declared: the kernels put a breakpoint at x = 0 anyway
TRIANGULAR = custom_source(
    lambda x: max(_R6 - abs(x), 0.0) / 6.0, (-_R6, _R6), name="triangular"
)
TRIANGULAR_PIECES = ((-_R6, 0.0), (0.0, _R6))


ATOM_LAWS = (
    from_atoms([-1.0, 0.0, 2.0], [0.2, 0.5, 0.3], name="atoms-3"),
    from_atoms([-3.0, -1.0, 1.0, 3.0], [0.25] * 4, name="pam-4"),
    from_atoms([0.0, 1.0], [0.8, 0.2], name="bernoulli-0.2"),
    # two pairs of close atoms: one breakpoint per atom gave D = 3.80 at q = 1e5, not 4.39
    from_atoms(
        [-1.0104234632663414, -1.216773582774118, 0.8374264084823348, 0.9513358540799922],
        [0.26408080544184714, 0.18846474359204418, 0.21649376174674503, 0.33096068921936367],
        name="close-pairs",
    ),
)
# an atom at 0 and N(0, 2), each of weight 1/2: standardized as it stands
HALF_ATOM = ScalarSource(
    kind="mixture", name="half-atom", components=((0.5, 0.0, 0.0), (0.5, 0.0, math.sqrt(2.0)))
)
# two narrow Gaussian components: output peaks of width sqrt(1 + q sigma^2)
NARROW_MIXTURES = tuple(
    gaussian_mixture(0.5, -1.0, s, 1.0, s, name=f"narrow-{s}") for s in (0.01, 0.001)
)


@pytest.mark.parametrize(
    "src",
    builtin_sources() + ATOM_LAWS + (HALF_ATOM,) + NARROW_MIXTURES + (LAPLACE, TRIANGULAR),
    ids=lambda src: src.name,
)
def test_error_and_divergence_bounds_over_snr(src):
    # a custom law's kernels take about 0.7 s per q from q = 1e4 on (Laplace)
    top = 1e4 if src.kind == "custom" else 1e8
    for q in (q for q in (1e-2, 1.0, 1e2, 1e4, 1e5, 1e6, 1e8) if q <= top):
        ch = ScalarChannel(src, q)
        m, d = mmse(ch), nongaussianity(ch)
        assert 0.0 <= m <= 1.0 / (1.0 + q) + 1e-9, (q, m)
        assert 0.0 <= d <= 0.5 * math.log1p(q), (q, d)


@pytest.mark.parametrize("src", [gaussian(), uniform(), expstd()], ids=lambda src: src.name)
@pytest.mark.parametrize("q", [0.1, 1e16, 1e20])
def test_mmse_never_exceeds_the_gaussian_error(src, q):
    # a value within its error bound of 1/(1+q) comes back clamped to it
    assert 0.0 <= mmse(ScalarChannel(src, q)) <= gaussian_mmse(q)


@pytest.mark.parametrize("value", [1.5, -0.5])
def test_out_of_range_integral_raises(monkeypatch, value):
    # each value puts both mmse = 1 - value and D = value outside their bounds
    # at q = 1, [0, 1/2] and [0, ln(2)/2], by far more than the error 1e-12
    # the batch form of integrate: one result per domain
    result = ValueWithError(np.array([value]), np.array([1e-12]))
    fake = lambda f, domains, *args, **kwargs: [result] * len(domains)  # noqa: E731
    monkeypatch.setattr(scalar_channel, "integrate", fake)
    ch = ScalarChannel(rademacher(), 1.0)
    with pytest.raises(NumericsError, match=r"mmse .* law 'rademacher' at q=1\.0"):
        mmse(ch)
    with pytest.raises(NumericsError, match=r"nongaussianity .* law 'rademacher' at q=1\.0"):
        nongaussianity(ch)


# the skewed atom law of the low-snr benchmark workload, and seeded laws
SKEWED = parse_source("atoms:1.36,0.03,1.22,0.95,-0.51,0.02")
_RNG = np.random.default_rng(20260413)
_MIX_LOW, _MIX_HIGH = (0.2, -2.0, 0.3, -2.0, 0.3), (0.8, 2.0, 1.5, 2.0, 1.5)
SEEDED_LAWS = tuple(
    gaussian_mixture(*_RNG.uniform(_MIX_LOW, _MIX_HIGH), name=f"mix-{i}") for i in range(5)
) + tuple(
    from_atoms(_RNG.uniform(-2.0, 2.0, 3), _RNG.dirichlet(np.ones(3)), name=f"atoms-{i}")
    for i in range(5)
)


@pytest.mark.parametrize(
    "src", builtin_sources() + (SKEWED,) + SEEDED_LAWS, ids=lambda src: src.name
)
def test_stencil_divergences_match_lone_calls(src):
    # the stencil's one vector integral holds each divergence to its own
    # tolerance; a lone call at the same q lands within a tenth of it
    cfg = DIVERGENCE_QUADRATURE
    qs = derivative_nodes((1, 2, 3, 4), scalar_channel._DERIVATIVE_STEP)
    stencil = scalar_channel._channel_integrals(src, [("nongaussianity", q) for q in qs], cfg)
    for q, d in zip(qs, stencil):
        lone = nongaussianity(ScalarChannel(src, q))
        assert abs(d - lone) <= 0.1 * max(cfg.abs_tol, cfg.rel_tol * lone), (q, d, lone)


def test_scalar_point_pair_matches_lone_calls():
    # mmse and D of one q share a panel set, each to its own tolerance
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-15, max_subdivisions=400)
    for src in builtin_sources() + (SKEWED,):
        for q in (0.0, 1e-2, 1.0, 1e3, 1e6):
            ch = ScalarChannel(src, q)
            m, d = scalar_channel._channel_integrals(src, [("mmse", q), ("nongaussianity", q)], cfg)
            lone_m, lone_d = mmse(ch, cfg), nongaussianity(ch, cfg)
            assert abs(m - lone_m) <= max(cfg.abs_tol, cfg.rel_tol * (1.0 - lone_m)), (src.name, q)
            assert abs(d - lone_d) <= max(cfg.abs_tol, cfg.rel_tol * lone_d), (src.name, q)


@pytest.mark.parametrize("src", builtin_sources(), ids=lambda src: src.name)
def test_derivatives_make_one_integral(monkeypatch, src):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(scalar_channel, "integrate", counted)
    divergence_derivatives_at_zero(src)
    assert len(calls) == 1
    # a batch of one, on the domain of the largest stencil q
    assert calls[0] == (src.output_panels(4 * scalar_channel._DERIVATIVE_STEP)[0],)


def test_stencil_nonconvergence_names_the_law_and_the_q(monkeypatch):
    tight = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-18, max_subdivisions=2)
    monkeypatch.setattr(scalar_channel, "DIVERGENCE_QUADRATURE", tight)
    qs = derivative_nodes((1, 2, 3, 4), scalar_channel._DERIVATIVE_STEP)
    with pytest.raises(NonConvergence, match=r"nongaussianity of law 'rademacher' at q=") as info:
        divergence_derivatives_at_zero(rademacher())
    named = float(str(info.value).split("at q=")[1].split(":")[0])
    assert named in qs


@pytest.mark.parametrize("src", (rademacher(),) + ATOM_LAWS, ids=lambda src: src.name)
def test_atom_law_divergence_high_snr_limit(src):
    # atoms sqrt(q) apart and more: I(X; Y) = H(X) up to terms far below 1e-9
    entropy = -sum(w * math.log(w) for w, _, _ in src.components)
    for q in (1e5, 1e6, 1e8):
        d = nongaussianity(ScalarChannel(src, q))
        assert d == pytest.approx(0.5 * math.log1p(q) - entropy, rel=1e-9), q


def test_mixed_atom_gaussian_kernels_closed_form():
    # only the N(0, 2) half carries X: its posterior mean is 2 sqrt(q) y / (1 + 2q)
    ys = np.linspace(-30.0, 30.0, 61)
    for q in (0.5, 1e4):
        var = 1.0 + 2.0 * q
        g = np.exp(-0.5 * ys * ys / var) / math.sqrt(2.0 * math.pi * var)
        phi = np.exp(-0.5 * ys * ys) / math.sqrt(2.0 * math.pi)
        np.testing.assert_allclose(HALF_ATOM.output_density(ys, q), 0.5 * phi + 0.5 * g, rtol=1e-13)
        np.testing.assert_allclose(
            HALF_ATOM.cross_density(ys, q), g * math.sqrt(q) * ys / var, rtol=1e-13, atol=0.0
        )


def _composite_rule(a, b, width):
    gx, gw = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(a, b, math.ceil((b - a) / width) + 1)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * gx).ravel(), (half[:, None] * gw).ravel()


def _tensor_reference(pdf, pieces, q):
    """(mmse, D) by a tensor Gauss-Legendre rule over (x, y).

    ``pdf`` takes arrays; ``pieces`` are x intervals, split at the kinks of
    the density.  The y rule covers sqrt(q) x -+ 12 for every x node.
    """
    sq = math.sqrt(q)
    rules = [_composite_rule(a, b, 0.2) for a, b in pieces]
    x = np.concatenate([r[0] for r in rules])
    fx = np.concatenate([r[1] for r in rules]) * pdf(x) / math.sqrt(2.0 * math.pi)
    y, wy = _composite_rule(sq * pieces[0][0] - 12.0, sq * pieces[-1][1] + 12.0, 1.0)
    ref_mmse = ref_d = 0.0
    for start in range(0, y.size, 256):
        block = slice(start, start + 256)
        kern = np.exp(-0.5 * (y[block, None] - sq * x) ** 2) * fx
        m0, m1, m2 = kern.sum(axis=1), kern @ x, kern @ (x * x)
        log_g = -0.5 * y[block] ** 2 / (1.0 + q) - 0.5 * math.log(2.0 * math.pi * (1.0 + q))
        ref_mmse += float(np.dot(wy[block], m2 - m1 * m1 / m0))
        ref_d += float(np.dot(wy[block], m0 * (np.log(m0) - log_g)))
    return ref_mmse, ref_d




def _laplace_pdf(x):
    return np.exp(-_R2 * np.abs(x)) / _R2


def _triangular_pdf(x):
    return np.maximum(_R6 - np.abs(x), 0.0) / 6.0


# the bench's configuration of custom-law points: `mmselab scalar` at its default --tol
CUSTOM_CFG = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-15, max_subdivisions=400)


def test_laplace_custom_law_is_standard_and_usable():
    # a window wide enough that the law is standard as given
    src = LAPLACE
    assert src.is_standard
    assert [src.moment(k) for k in (1, 2, 3, 4)] == pytest.approx([0.0, 1.0, 0.0, 6.0], abs=1e-12)
    q = 8.0
    got = mmse(ScalarChannel(src, q), CUSTOM_CFG)
    # reference: a tensor Gauss-Legendre rule over (x, y), split at the kink x = 0
    ref = _tensor_reference(_laplace_pdf, LAPLACE_PIECES, q)[0]
    assert 0.0 < got < 1.0 / (1.0 + q)
    assert got == pytest.approx(ref, abs=1e-9)


def test_laplace_custom_law_divergence_meets_its_tolerance():
    q = 2.0
    got = nongaussianity(ScalarChannel(LAPLACE, q), CUSTOM_CFG)
    ref = _tensor_reference(_laplace_pdf, LAPLACE_PIECES, q)[1]
    assert ref == pytest.approx(0.016249140718631594, rel=1e-11)
    assert got == pytest.approx(ref, rel=CUSTOM_CFG.rel_tol)


@pytest.mark.parametrize(
    "src, pdf, pieces, q",
    [
        (LAPLACE, _laplace_pdf, LAPLACE_PIECES, 8.0),
        (TRIANGULAR, _triangular_pdf, TRIANGULAR_PIECES, 0.3),
        (TRIANGULAR, _triangular_pdf, TRIANGULAR_PIECES, 8.0),
    ],
    ids=["laplace-8", "triangular-0.3", "triangular-8"],
)
def test_custom_laws_match_a_tensor_reference(src, pdf, pieces, q):
    # the kernels' inner integrals hold each output point to 1e-12 relative,
    # so both values meet the outer tolerance against the reference
    ref_mmse, ref_d = _tensor_reference(pdf, pieces, q)
    ch = ScalarChannel(src, q)
    assert mmse(ch, CUSTOM_CFG) == pytest.approx(ref_mmse, rel=0.0, abs=CUSTOM_CFG.rel_tol)
    assert nongaussianity(ch, CUSTOM_CFG) == pytest.approx(ref_d, rel=CUSTOM_CFG.rel_tol)
    if src is LAPLACE:
        assert ref_d == pytest.approx(0.043261395474105, rel=1e-11)


def test_heavy_tailed_custom_law_on_a_window_matches_a_tensor_reference():
    # Student's t with 5 degrees of freedom, standardized, on |x| < 100 and
    # normalized there (it leaves out mass 5.3e-10); on (-inf, inf) its
    # moments and its channel integrals stopped at different ends, and the
    # mmse at q = 1 read 0.4794872 against 0.4794538 without raising
    w = 100.0
    mass = 2.0 * scipy.special.stdtr(5, w * math.sqrt(5.0 / 3.0)) - 1.0
    c = 8.0 / (3.0 * math.pi * math.sqrt(3.0)) / mass
    src = custom_source(lambda x: c * (1.0 + x * x / 3.0) ** -3, (-w, w), name="t5")
    lo, hi = src.support
    ref_mmse, ref_d = _tensor_reference(np.vectorize(src.pdf), ((lo, 0.0), (0.0, hi)), 1.0)
    # the window moves the mmse of the whole line, 0.47945381, by 2e-6
    assert ref_mmse == pytest.approx(0.479455883, rel=1e-9)
    ch = ScalarChannel(src, 1.0)
    assert mmse(ch, CUSTOM_CFG) == pytest.approx(ref_mmse, rel=0.0, abs=CUSTOM_CFG.rel_tol)
    assert nongaussianity(ch, CUSTOM_CFG) == pytest.approx(ref_d, rel=CUSTOM_CFG.rel_tol)


@pytest.mark.parametrize("q", [1e6, 1e7])
def test_custom_uniform_law_matches_uniform_at_high_snr(q):
    # the support ends give the custom law the breakpoints of `uniform`;
    # without them its mmse came out 1 at q = 1e6 and 1e7 and raised
    b = math.sqrt(3.0)
    src = custom_source(lambda x: 0.5 / b if abs(x) <= b else 0.0, (-b, b))
    custom_ch, uniform_ch = ScalarChannel(src, q), ScalarChannel(uniform(), q)
    assert mmse(custom_ch) == pytest.approx(mmse(uniform_ch), rel=0.0, abs=1e-12)
    assert nongaussianity(custom_ch) == pytest.approx(nongaussianity(uniform_ch), rel=1e-9)


# a narrow bulk with two rare far components, past |x| = 50 once standardized
_FAR_COMPONENTS = ((0.9998, 0.0, 0.3), (1e-4, -65.0, 0.5), (1e-4, 65.0, 0.5))


def _far_pdf(x):
    return sum(
        w * math.exp(-0.5 * ((x - mu) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        for w, mu, s in _FAR_COMPONENTS
    )


@pytest.mark.parametrize(
    "support",
    [
        pytest.param((-100.0, 100.0), id="finite"),
    ],
)
def test_custom_law_matches_its_mixture_twin(support):
    # the custom law's integration domain reaches its farthest finite end:
    # capped at |x| = 50, D at q = 1 read 0.0753 against 0.2986 with exit 0
    src = custom_source(_far_pdf, support)
    twin = standardize(ScalarSource(kind="mixture", name="twin", components=_FAR_COMPONENTS))
    for q in (0.5, 1.0, 4.0):
        ch, twin_ch = ScalarChannel(src, q), ScalarChannel(twin, q)
        assert mmse(ch, CUSTOM_CFG) == pytest.approx(mmse(twin_ch, CUSTOM_CFG), rel=1e-10), q
        assert nongaussianity(ch, CUSTOM_CFG) == pytest.approx(
            nongaussianity(twin_ch, CUSTOM_CFG), rel=1e-10
        ), q


def test_custom_law_missing_mass_raises():
    # a support that cuts the far components would standardize another law
    with pytest.raises(NumericsError, match=r"law 'far': the pdf integrates to 0\.9998"):
        custom_source(_far_pdf, (-50.0, 50.0), name="far")
