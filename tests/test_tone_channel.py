import math

import numpy as np
import pytest

from mmselab.numerics import DIVERGENCE_QUADRATURE, derivative_at_zero
from mmselab.sources import gaussian_pair_amplitude, magnitude_law, unit_amplitude
from mmselab.tone_channel import (
    ToneModel,
    cmmse_asymptotic,
    cmmse_exact,
    convergence_rate_fit,
    dn_divergence,
    gaussian_cmmse,
    gaussian_mmse_tone,
    mmse_asymptotic,
    mmse_exact,
    tone_divergence,
)

# frozen 40-digit radial quadrature values (independently matched by a
# two-dimensional tensor-grid computation to 2e-18)
TONE_DIV_1 = 0.001989589200950376

# two magnitudes with E a^2 = 1, one of them small
TWO_MAGNITUDES = magnitude_law([0.2, 2.2], [0.8, 0.2])


def test_model_validation():
    with pytest.raises(ValueError):
        ToneModel(n_tones=0, q=1.0)
    with pytest.raises(ValueError):
        ToneModel(n_tones=2, q=-1.0)
    with pytest.raises(ValueError):
        ToneModel(n_tones=2, q=math.inf)
    assert ToneModel(n_tones=3, q=1).q == 1.0


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


def test_dn_divergence_identity_and_gaussian():
    law = unit_amplitude()
    q = 1.3
    single = tone_divergence(law, q)
    assert dn_divergence(ToneModel(n_tones=1, q=q)) == pytest.approx(single, rel=1e-12)
    for n in (2, 8):
        model = ToneModel(n_tones=n, q=q)
        assert dn_divergence(model) == pytest.approx(
            n * tone_divergence(law, q / n), rel=1e-12
        )
    assert dn_divergence(ToneModel(n_tones=4, q=2.0, amplitude_law=gaussian_pair_amplitude())) == 0.0


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
    model = ToneModel(n_tones=1, q=2.0, amplitude_law=gaussian_pair_amplitude())
    assert cmmse_exact(model) == pytest.approx(math.log(2.0), rel=1e-12)
    # q -> 0 limit is the signal energy
    assert cmmse_exact(ToneModel(n_tones=3, q=0.0)) == 1.0
    # unit amplitude at N=1, q=1: closed form minus the frozen divergence
    val = cmmse_exact(ToneModel(n_tones=1, q=1.0))
    assert val == pytest.approx(2 * math.log(1.5) - 2 * TONE_DIV_1, abs=1e-12)


def test_mmse_exact_examples():
    model = ToneModel(n_tones=1, q=2.0, amplitude_law=gaussian_pair_amplitude())
    assert mmse_exact(model) == pytest.approx(0.5, rel=1e-12)
    assert mmse_exact(ToneModel(n_tones=2, q=0.0)) == 1.0
    # the independent Rician radial integral of bench/reference.py
    val = mmse_exact(ToneModel(n_tones=1, q=1.0))
    assert val == pytest.approx(0.6548511969369811, abs=1e-12)
    assert val < gaussian_mmse_tone(1, 1.0)


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
    mm = mmse_exact(ToneModel(n_tones=1, q=x, amplitude_law=law))
    assert (1.0 / (1.0 + 0.5 * x) - mm) / 2.0 == pytest.approx(
        _richardson_dprime(law, x), abs=1e-8
    )


def test_gaussian_closed_forms():
    assert gaussian_cmmse(2, 2.0) == pytest.approx(2 * math.log(1.5), rel=1e-14)
    assert gaussian_mmse_tone(2, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert gaussian_cmmse(1, 2.0) == pytest.approx(math.log(2.0), rel=1e-14)
    assert gaussian_mmse_tone(1, 2.0) == pytest.approx(0.5, rel=1e-14)
    assert gaussian_cmmse(5, 0.0) == 1.0
    assert gaussian_mmse_tone(5, 0.0) == 1.0


def test_asymptotic_formulas():
    assert cmmse_asymptotic(4, 1.0) == pytest.approx(1 - 0.25 / 4)
    assert mmse_asymptotic(4, 1.0) == pytest.approx(1 - 0.5 / 4)
    assert cmmse_asymptotic(10**9, 3.0) == pytest.approx(1.0, abs=1e-8)
    # D''(0) = 0 for every amplitude law: the Gaussian-amplitude rates
    assert cmmse_asymptotic(8, 2.0) == 1 - 2.0 / (4 * 8)
    assert mmse_asymptotic(8, 2.0) == 1 - 2.0 / (2 * 8)


def test_error_ordering_invariants():
    for law in (unit_amplitude(), gaussian_pair_amplitude(), TWO_MAGNITUDES):
        for n in (1, 3):
            for q in (0.25, 1.0, 4.0):
                model = ToneModel(n_tones=n, q=q, amplitude_law=law)
                mm = mmse_exact(model)
                cm = cmmse_exact(model)
                assert 0.0 <= mm <= cm <= 1.0 + 1e-12, (law.name, n, q)
                assert cm <= gaussian_cmmse(n, q) + 1e-12
                assert mm <= gaussian_mmse_tone(n, q) + 1e-12


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


def test_convergence_rate_fit_gaussian():
    g = gaussian_pair_amplitude()
    fit_cm = convergence_rate_fit(g, (4, 8, 16, 32, 64), 1.0, "cmmse")
    assert fit_cm.coefficient == pytest.approx(0.25, rel=0.01)
    fit_mm = convergence_rate_fit(g, (4, 8, 16, 32, 64), 1.0, "mmse")
    assert fit_mm.coefficient == pytest.approx(0.5, rel=0.01)


def test_convergence_rate_fit_unit_amplitude():
    fit = convergence_rate_fit(unit_amplitude(), (4, 8, 16, 32, 64), 1.0, "cmmse")
    assert fit.predicted == 0.25
    assert fit.relative_mismatch <= 0.03
    assert fit.residual_norm < 1e-3


def test_convergence_rate_fit_validation():
    g = gaussian_pair_amplitude()
    with pytest.raises(ValueError):
        convergence_rate_fit(g, (4, 8, 16), 1.0, "cmmse")
    with pytest.raises(ValueError):
        convergence_rate_fit(g, (4, 8, 16, 32), 1.0, "cmmse")  # span < decade
    with pytest.raises(ValueError):
        convergence_rate_fit(g, (4, 8, 16, 64), 1.0, "median")
