import math

import numpy as np
import pytest
from scipy.integrate import quad

from mmselab.numerics import QuadratureConfig
from mmselab.scalar_channel import (
    ScalarChannel,
    conditional_mean,
    d4_at_zero_from_moments,
    divergence_derivatives_at_zero,
    gaussian_mmse,
    mmse,
    mmse_taylor3,
    nongaussianity,
    output_density,
)
from mmselab.sources import (
    ScalarSource,
    builtin_sources,
    custom_source,
    expstd,
    from_atoms,
    gaussian,
    gaussian_mixture,
    rademacher,
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


def test_output_density_examples():
    # gaussian input at q=1: output is N(0,2)
    ch = ScalarChannel(gaussian(), 1.0)
    assert output_density(ch, 0.0) == pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-12)
    # at q=0 the output is the noise for any source
    ch0 = ScalarChannel(rademacher(), 0.0)
    for y in (-1.3, 0.0, 2.2):
        assert output_density(ch0, y) == pytest.approx(_PHI(y), rel=1e-12)
    # two-atom mixture arithmetic
    ch1 = ScalarChannel(rademacher(), 1.0)
    assert output_density(ch1, 0.0) == pytest.approx(_PHI(1.0), rel=1e-12)


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
    builtin_sources() + ATOM_LAWS + (HALF_ATOM,) + NARROW_MIXTURES,
    ids=lambda src: src.name,
)
def test_error_and_divergence_bounds_over_snr(src):
    for q in (1e-2, 1.0, 1e2, 1e4, 1e5, 1e6, 1e8):
        ch = ScalarChannel(src, q)
        m, d = mmse(ch), nongaussianity(ch)
        assert 0.0 <= m <= 1.0 / (1.0 + q) + 1e-9, (q, m)
        assert 0.0 <= d <= 0.5 * math.log1p(q), (q, d)


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


def test_laplace_custom_law_is_standard_and_usable():
    # an infinite support: the moments come from QUADPACK's infinite-range rule
    r2 = math.sqrt(2.0)
    src = custom_source(lambda x: math.exp(-r2 * abs(x)) / r2, (-math.inf, math.inf))
    assert src.is_standard
    assert [src.moment(k) for k in (1, 2, 3, 4)] == pytest.approx([0.0, 1.0, 0.0, 6.0], abs=1e-12)
    q, sq = 8.0, math.sqrt(8.0)
    got = mmse(ScalarChannel(src, q), QuadratureConfig(rel_tol=1e-9, abs_tol=1e-15, max_subdivisions=400))
    # reference: a tensor Gauss-Legendre rule over (x, y), split at the kink x = 0
    xl, wl = _composite_rule(-25.0, 0.0, 0.2)
    xr, wr = _composite_rule(0.0, 25.0, 0.2)
    x = np.concatenate([xl, xr])
    fx = np.concatenate([wl, wr]) * np.exp(-r2 * np.abs(x)) / r2
    y, wy = _composite_rule(-25.0 * sq - 12.0, 25.0 * sq + 12.0, 1.0)
    ref = 0.0
    for start in range(0, y.size, 256):
        block = slice(start, start + 256)
        kern = np.exp(-0.5 * (y[block, None] - sq * x) ** 2) * fx
        m0, m1, m2 = kern.sum(axis=1), kern @ x, kern @ (x * x)
        ref += float(np.dot(wy[block], m2 - m1 * m1 / m0)) / math.sqrt(2.0 * math.pi)
    assert 0.0 < got < 1.0 / (1.0 + q)
    assert got == pytest.approx(ref, abs=1e-9)
