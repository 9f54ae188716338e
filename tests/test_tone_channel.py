import math

import numpy as np
import pytest

from mmselab import tone_channel
from mmselab.numerics import (
    DIVERGENCE_QUADRATURE,
    NonConvergence,
    NumericsError,
    QuadratureConfig,
    ValueWithError,
    derivative_at_zero,
    integrate,
)
from mmselab.sources import (
    gaussian_pair_amplitude,
    magnitude_law,
    parse_amplitude,
    unit_amplitude,
)
from mmselab.tone_channel import (
    cmmse_asymptotic,
    cmmse_exact,
    gaussian_cmmse,
    gaussian_mmse_tone,
    mmse_asymptotic,
    mmse_exact,
    tone_divergence,
    tone_errors,
)

# frozen 40-digit radial quadrature values (independently matched by a
# two-dimensional tensor-grid computation to 2e-18)
TONE_DIV_1 = 0.001989589200950376

# two magnitudes with E a^2 = 1, one of them small
TWO_MAGNITUDES = magnitude_law([0.2, 2.2], [0.8, 0.2])


def test_snr_validation():
    # every tone function takes the per-tone snr x = q/N alone (the CLI's
    # parse_n_list checks N >= 1), and rejects a negative or non-finite x
    law = unit_amplitude()
    for x in (-1.0, math.inf, math.nan):
        for call in (
            lambda: tone_divergence(law, x),
            lambda: cmmse_exact(law, x),
            lambda: mmse_exact(law, x),
            lambda: tone_errors(law, x),
            lambda: gaussian_cmmse(x),
            lambda: gaussian_mmse_tone(x),
            lambda: cmmse_asymptotic(x),
            lambda: mmse_asymptotic(x),
        ):
            with pytest.raises(ValueError):
                call()
    assert cmmse_exact(law, 0) == 1.0


def test_tone_divergence_trivial_cases():
    assert tone_divergence(unit_amplitude(), 0.0) == 0.0
    for q in (0.3, 1.0, 5.0):
        assert tone_divergence(gaussian_pair_amplitude(), q) == 0.0


def test_tone_divergence_frozen_value():
    assert tone_divergence(unit_amplitude(), 1.0) == pytest.approx(TONE_DIV_1, abs=1e-14)


def test_tone_divergence_against_2d_tensor_grid():
    # independent oracle: theta-trapezoid for the 2-D output density plus a
    # Gauss-Legendre tensor grid, no radial reduction and no Bessel kernel
    q = 1.0
    sq = math.sqrt(q)
    half_var = 1.0 + 0.5 * q
    n_theta = 64
    theta = 2 * math.pi * np.arange(n_theta) / n_theta
    cx, cy = sq * np.cos(theta), -sq * np.sin(theta)

    L = 9.0 * math.sqrt(half_var) + sq
    nodes, weights = np.polynomial.legendre.leggauss(220)
    y = 0.5 * L * (nodes + 1.0)  # [0, L]; integrand symmetric in both axes
    w = 0.5 * L * weights
    yy1, yy2 = np.meshgrid(y, y, indexing="ij")

    p = np.zeros_like(yy1)
    for a, b in zip(cx, cy):
        p += np.exp(-0.5 * ((yy1 - a) ** 2 + (yy2 - b) ** 2))
    p /= n_theta * 2 * math.pi
    g = np.exp(-0.5 * (yy1**2 + yy2**2) / half_var) / (2 * math.pi * half_var)
    term = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0) / g) - p + g, g)
    d_grid = 4.0 * float(w @ term @ w)

    assert tone_divergence(unit_amplitude(), q) == pytest.approx(d_grid, abs=1e-9)


def test_tone_divergence_magnitude_mixture():
    # a two-magnitude law straddling 1 stays close to the unit-amplitude
    # divergence and must be a valid nonnegative divergence
    law = magnitude_law([0.8, math.sqrt(2 - 0.64)], [0.5, 0.5])
    d = tone_divergence(law, 1.0)
    assert d > 0
    assert d == pytest.approx(TONE_DIV_1, rel=0.5)


@pytest.mark.parametrize("x", [1e5, 1e6, 1e7])
def test_unit_divergence_high_snr_limit(x):
    # a ring of radius sqrt(x), unit radial width and uniform angle against
    # the Gaussian of variance 1 + x/2: D tends to this limit, from above by 9/(4x)
    limit = 0.5 * math.log(x) + 0.5 - math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
    assert tone_divergence(unit_amplitude(), x) - limit == pytest.approx(9.0 / (4.0 * x), rel=1e-4)


@pytest.mark.parametrize("law", [unit_amplitude(), TWO_MAGNITUDES], ids=["unit", "two-mag"])
def test_divergence_bounds_up_to_high_snr(law):
    for x in 10.0 ** np.arange(11):
        assert 0.0 <= tone_divergence(law, x) <= math.log1p(x / 2.0)


def test_separated_rings_divergence_gap():
    # far-apart rings: D(two) - D(unit) -> -H(a) - E ln a, up to O(1/(a^2 x))
    a, p = np.array(TWO_MAGNITUDES.magnitudes).T
    entropy = -float(p @ np.log(p))
    gap = -entropy - float(p @ np.log(a))
    x = 1e10
    got = tone_divergence(TWO_MAGNITUDES, x) - tone_divergence(unit_amplitude(), x)
    assert got == pytest.approx(gap, abs=1e-7)


def test_remainder_scaling_bounded():
    # N * |N D(q/N) - d2 q^2 / (2N)| stays bounded as N grows (d2 = 0 here,
    # and the remainder actually shrinks like 1/N^2 after scaling)
    law = unit_amplitude()
    q = 1.0
    scaled = [n * (n * tone_divergence(law, q / n)) for n in (4, 8, 16, 32, 64)]
    assert all(s >= 0 for s in scaled)
    assert max(scaled) == scaled[0]
    assert scaled[-1] < scaled[0]


def test_cmmse_exact_examples():
    # gaussian amplitudes: divergence vanishes, closed form remains
    assert cmmse_exact(gaussian_pair_amplitude(), 2.0) == pytest.approx(math.log(2.0), rel=1e-12)
    # x -> 0 limit is the signal energy
    assert cmmse_exact(unit_amplitude(), 0.0) == 1.0
    # unit amplitude at x = 1: closed form minus the frozen divergence
    val = cmmse_exact(unit_amplitude(), 1.0)
    assert val == pytest.approx(2 * math.log(1.5) - 2 * TONE_DIV_1, abs=1e-12)


def test_mmse_exact_examples():
    assert mmse_exact(gaussian_pair_amplitude(), 2.0) == pytest.approx(0.5, rel=1e-12)
    assert mmse_exact(unit_amplitude(), 0.0) == 1.0
    # the independent Rician radial integral of bench/reference.py
    val = mmse_exact(unit_amplitude(), 1.0)
    assert val == pytest.approx(0.6548511969369811, abs=1e-12)
    assert val < gaussian_mmse_tone(1.0)


def _richardson_dprime(law, x):
    """D'(x) from five-point central stencils at h = x/8 and x/16, extrapolated."""

    def stencil(h):
        d = [tone_divergence(law, x + k * h) for k in (-2, -1, 1, 2)]
        return (d[0] - 8.0 * d[1] + 8.0 * d[2] - d[3]) / (12.0 * h)

    coarse, fine = stencil(x / 8.0), stencil(x / 16.0)
    return fine + (fine - coarse) / 15.0


@pytest.mark.parametrize("law", [unit_amplitude(), TWO_MAGNITUDES], ids=["unit", "two-mag"])
@pytest.mark.parametrize("x", [0.25, 1.0, 4.0])
def test_mmse_exact_matches_divergence_slope(law, x):
    # I-MMSE: mmse = 1/(1 + x/2) - 2 D'(x) for one tone at snr x
    mm = mmse_exact(law, x)
    assert (1.0 / (1.0 + 0.5 * x) - mm) / 2.0 == pytest.approx(
        _richardson_dprime(law, x), abs=1e-8
    )


def test_gaussian_closed_forms():
    assert gaussian_cmmse(1.0) == pytest.approx(2 * math.log(1.5), rel=1e-14)
    assert gaussian_mmse_tone(1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert gaussian_cmmse(2.0) == pytest.approx(math.log(2.0), rel=1e-14)
    assert gaussian_mmse_tone(2.0) == pytest.approx(0.5, rel=1e-14)
    assert gaussian_cmmse(0.0) == 1.0
    assert gaussian_mmse_tone(0.0) == 1.0


def test_asymptotic_formulas():
    assert cmmse_asymptotic(1.0 / 4) == pytest.approx(1 - 0.25 / 4)
    assert mmse_asymptotic(1.0 / 4) == pytest.approx(1 - 0.5 / 4)
    assert cmmse_asymptotic(3.0 / 10**9) == pytest.approx(1.0, abs=1e-8)
    # D''(0) = 0 for every amplitude law: the Gaussian-amplitude rates
    assert cmmse_asymptotic(2.0 / 8) == 1 - 2.0 / (4 * 8)
    assert mmse_asymptotic(2.0 / 8) == 1 - 2.0 / (2 * 8)


def test_error_ordering_invariants():
    for law in (unit_amplitude(), gaussian_pair_amplitude(), TWO_MAGNITUDES):
        for n in (1, 3):
            for q in (0.25, 1.0, 4.0):
                mm = mmse_exact(law, q / n)
                cm = cmmse_exact(law, q / n)
                assert 0.0 <= mm <= cm <= 1.0 + 1e-12, (law.name, n, q)
                assert cm <= gaussian_cmmse(q / n) + 1e-12
                assert mm <= gaussian_mmse_tone(q / n) + 1e-12


def test_single_tone_low_snr_is_subquadratic():
    # cmmse_asymptotic and mmse_asymptotic assume D''(0) = 0 for every
    # amplitude law; measure that zero.  D(q)/q^2 falls like q^2 (it would
    # level off at D''(0)/2 otherwise), and the tableau agrees.
    for law, cap in ((unit_amplitude(), 1e-5), (TWO_MAGNITUDES, 1e-4)):
        ratios = [tone_divergence(law, q) / q**2 for q in (0.1, 0.05, 0.025)]
        assert ratios[0] > 3.0 * ratios[1] > 9.0 * ratios[2], law.name
        d2 = derivative_at_zero(
            lambda x: tone_divergence(law, x), order=2, cfg=DIVERGENCE_QUADRATURE
        )
        assert abs(d2.value) <= 1e-6, law.name
        assert abs(d2.value) <= d2.error_estimate, law.name
        assert ratios[-1] <= cap, law.name  # consistent with d2/2 = 0


@pytest.mark.parametrize(
    "spec", ["unit", "mags:0.5,0.5,1.3228756555322954,0.5", "mags:0.2,0.8,2.2,0.2"]
)
def test_excess_over_closed_forms_decays_like_inverse_cube(spec):
    # D(0) = D'(0) = D''(0) = D'''(0) = 0, so (2N/q) N D(q/N) and 2 D'(q/N)
    # lead with 1/N^3: each excess falls by about 8 per doubling of N
    # (criterion 8's window).  From N = 4 the mmse ratio is still about 6
    law, q = parse_amplitude(spec), 1.0
    excess = []
    for n in (8, 16, 32, 64):
        cm, mm = tone_errors(law, q / n)
        excess.append((gaussian_cmmse(q / n) - cm, gaussian_mmse_tone(q / n) - mm))
    for coarse, fine in zip(excess, excess[1:]):
        for c, f in zip(coarse, fine):
            assert 6.4 <= c / f <= 10.0, (spec, excess)


@pytest.mark.parametrize("value", [1.5, -0.5])
def test_out_of_range_integral_raises(monkeypatch, value):
    # at per-tone snr x = 1 the bounds are D in [0, ln(3/2)] and mmse in
    # [0, 2/3]; value puts D = value and mmse = 1 - value far outside both
    fake = lambda *args, **kwargs: ValueWithError(value, 1e-12)  # noqa: E731
    monkeypatch.setattr(tone_channel, "integrate", fake)
    with pytest.raises(NumericsError, match=r"tone divergence .* law 'unit' at x=1\.0"):
        tone_divergence(unit_amplitude(), 1.0)
    with pytest.raises(NumericsError, match=r"tone mmse .* law 'unit' at x=1\.0"):
        mmse_exact(unit_amplitude(), 1.0)


def test_nonconvergence_names_law_and_snr():
    # one panel cannot hold the rings' breakpoints, so both integrals fail
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=1)
    with pytest.raises(NonConvergence, match=r"tone divergence of law 'unit' at x=1\.0: "):
        tone_divergence(unit_amplitude(), 1.0, cfg)
    with pytest.raises(NonConvergence, match=r"tone mmse of law 'unit' at x=1\.0: "):
        mmse_exact(unit_amplitude(), 1.0, cfg)


@pytest.mark.parametrize("law", [unit_amplitude(), TWO_MAGNITUDES], ids=lambda law: law.name)
@pytest.mark.parametrize("x", [1e-3, 1.0, 1e6])
def test_one_radial_integral_per_call(monkeypatch, law, x):
    domains = []

    def counted(f, domain, *args, **kwargs):
        domains.append(domain)
        return integrate(f, domain, *args, **kwargs)

    monkeypatch.setattr(tone_channel, "integrate", counted)
    tone_divergence(law, x)
    mmse_exact(law, x)
    assert domains == [law.output_panels(x)[0]] * 2


def _recorded(monkeypatch):
    """The (value, error bound) pairs that ``tone_channel.integrate`` returns, in order."""
    results = []

    def recording(*args, **kwargs):
        results.append(integrate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(tone_channel, "integrate", recording)
    return results


@pytest.mark.parametrize(
    "spec", ["unit", "mags:0.5,0.5,1.3228756555322954,0.5", "mags:0.2,0.8,2.2,0.2"]
)
@pytest.mark.parametrize("x", [1e-4, 1e-2, 0.3, 1.0, 16.0, 1e3, 1e6, 1e10])
def test_tone_errors_match_the_one_quantity_calls(monkeypatch, spec, x):
    # D and the mmse on one shared panel set against one integral each: the
    # two estimates of each quantity differ by at most the sum of their
    # error bounds (plus the rounding of 1 - I and of the cmmse formula)
    law = parse_amplitude(spec)
    results = _recorded(monkeypatch)
    cm, mm = tone_errors(law, x)
    cm_one, mm_one = cmmse_exact(law, x), mmse_exact(law, x)
    (fused, fused_err), (_, d_err), (_, i_err) = results
    assert len(fused) == 2
    rounding = 4.0 * math.ulp(1.0)
    assert abs(cm - cm_one) <= 2.0 / x * (fused_err[0] + d_err) + rounding
    assert abs(mm - mm_one) <= fused_err[1] + i_err + rounding


def test_tone_errors_closed_forms():
    pair = gaussian_pair_amplitude()
    assert tone_errors(pair, 2.0 / 3) == (gaussian_cmmse(2.0 / 3), 1.0 / (1.0 + 2.0 / 6.0))
    assert tone_errors(unit_amplitude(), 0.0) == (1.0, 1.0)
    # the Gaussian pair's output is the matched Gaussian: D = 0 bit for bit
    for n in (4, 8, 16, 32, 64):
        for q in (1e-3, 1.0, 2.0, 1e4):
            x = q / n
            assert tone_errors(pair, x) == (gaussian_cmmse(x), gaussian_mmse_tone(x)), (n, q)


@pytest.mark.parametrize("x, quantity", [(1.0, "divergence"), (100.0, "mmse")])
def test_tone_errors_nonconvergence_names_the_failing_quantity(x, quantity):
    # one panel holds neither component; which one is worst depends on x
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=1)
    for law in (unit_amplitude(), TWO_MAGNITUDES):
        with pytest.raises(NonConvergence) as info:
            tone_errors(law, x, cfg)
        assert str(info.value).startswith(f"tone {quantity} of law {law.name!r} at x={x!r}: ")
        assert ("divergence", "mmse")[info.value.__cause__.component] == quantity


@pytest.mark.parametrize("q", [5e-324, 1e-320, 1e-310, 1e-300, 1e-30])
def test_gaussian_cmmse_rounds_to_one_at_tiny_q(q):
    # (2N/q) ln(1 + q/(2N)) = 1 - q/(4N) + ..., which rounds to 1 here; the
    # product form gave nan at 5e-324, inf at 1e-320 and 1e-310, and
    # 0.9999999999999999 at 1e-300
    for n in (1, 2, 512):
        assert gaussian_cmmse(q / n) == 1.0
        for law in (unit_amplitude(), TWO_MAGNITUDES, gaussian_pair_amplitude()):
            assert tone_errors(law, q / n) == (1.0, 1.0)
            assert cmmse_exact(law, q / n) == 1.0
