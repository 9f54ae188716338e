"""Acceptance suite: one test per verification criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Two criteria check the exact low-snr behavior that the paper and the
literature support (see README, "Known limits of the moment formulas"):

- criterion 2 compares each low-order divergence derivative at zero snr
  with its exact value: 0 at orders 1 and 2, and (EX^3)^2/2 at order 3
  (Guo, Wu, Shamai, Verdu, "Estimation in Gaussian noise: properties of the
  MMSE", IEEE Trans. IT 2011).  The third derivative vanishes only for laws
  with EX^3 = 0; the standardized exponential has D3(0) = 2.
- criterion 8 checks the 1/N^3 decay (doubling ratios near 8) of the
  rescaled-divergence remainder N D(q/N) - D2(0) q^2 / (2N) for the
  unit-amplitude tone.  The paper shows that D3(0) = 0 for phase-uniform
  narrowband waves, so there is no 1/N^2 term and the remainder leads with
  D4(0) q^4 / (24 N^3).
"""

import math

import numpy as np
import pytest

from mmselab.ct_verify import KalmanSetup, McConfig, kalman_cmmse, kalman_mmse, mc_scalar_mmse
from mmselab.numerics import DIVERGENCE_QUADRATURE, derivative_at_zero
from mmselab.scalar_channel import (
    ScalarChannel,
    d4_at_zero_from_moments,
    divergence_derivatives_at_zero,
    gaussian_mmse,
    mmse,
    mmse_taylor3,
    nongaussianity,
)
from mmselab.sources import builtin_sources, expstd, gaussian, rademacher, uniform, unit_amplitude
from mmselab.tone_channel import (
    ToneModel,
    gaussian_cmmse,
    gaussian_mmse_tone,
    tone_divergence,
    tone_errors,
)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_gaussian_null():
    src = gaussian()
    worst_d = worst_m = 0.0
    for q in (0.1, 0.5, 1.0, 2.0, 5.0):
        ch = ScalarChannel(src, q)
        worst_d = max(worst_d, nongaussianity(ch))
        worst_m = max(worst_m, abs(mmse(ch) - 1.0 / (1.0 + q)))
    ok = worst_d <= 1e-9 and worst_m <= 1e-9
    assert report(
        "criterion 1 (gaussian null)",
        ok,
        f"max divergence {worst_d:.2e}, max mmse gap {worst_m:.2e}, tol 1e-9",
    )


@pytest.mark.parametrize(
    "source_fn", [rademacher, uniform, expstd], ids=["rademacher", "uniform", "expstd"]
)
def test_criterion_2_low_order_derivatives_vanish(source_fn):
    src = source_fn()
    estimates = divergence_derivatives_at_zero(src, orders=(1, 2, 3))
    exact = {1: 0.0, 2: 0.0, 3: 0.5 * src.moment(3) ** 2}
    worst = max(
        abs(e.value - exact[e.order]) / max(1e-4, 10.0 * e.error_estimate)
        for e in estimates
    )
    detail = ", ".join(
        f"|D{e.order} - {exact[e.order]:g}|={abs(e.value - exact[e.order]):.2e} "
        f"(cap {max(1e-4, 10 * e.error_estimate):.1e})"
        for e in estimates
    )
    ok = worst <= 1.0
    report(f"criterion 2 (D1, D2 = 0 and D3 = (EX^3)^2/2, {src.name})", ok, detail)
    assert ok, (
        f"{src.name}: divergence derivatives at zero snr are off their exact "
        f"values 0, 0 and (EX^3)^2/2 = {exact[3]:.4f} by more than the cap "
        f"({detail})"
    )


def test_criterion_3_fourth_derivative_matches_moments():
    results = {}
    for src in (rademacher(), uniform()):
        est = divergence_derivatives_at_zero(src, orders=(4,))[0]
        target = d4_at_zero_from_moments(src)
        results[src.name] = (est.value, target, abs(est.value - target) / target)
    ok = all(rel <= 0.05 for _, _, rel in results.values())
    detail = "; ".join(
        f"{name}: fd {fd:.4f} vs formula {tg:.4f} ({rel:.1%})"
        for name, (fd, tg, rel) in results.items()
    )
    # skewed-source report (no pass/fail: the stated formula is symmetric-only)
    skew = expstd()
    est4 = divergence_derivatives_at_zero(skew, orders=(4,))[0]
    formula = d4_at_zero_from_moments(skew)
    m3, m4 = skew.moment(3), skew.moment(4)
    measured_reference = 0.5 * (m4 * m4 - 6 * m4 - 12 * m3 * m3 + 9)
    print(
        f"[acceptance] criterion 3 skewed-source report: expstd fd D4(0) = "
        f"{est4.value:.3f} +- {est4.error_estimate:.3f}; moment formula gives "
        f"{formula:.1f}; measured behavior is consistent with "
        f"(1/2)[m4^2 - 6 m4 - 12 m3^2 + 9] = {measured_reference:.1f} "
        f"(mismatch documented, formula left as stated)"
    )
    assert report("criterion 3 (fourth derivative vs moments, 5%)", ok, detail)


def test_criterion_4_taylor_residual_quartic():
    src = rademacher()
    ratios = {
        q: abs(mmse(ScalarChannel(src, q)) - mmse_taylor3(src, q)) / q**4
        for q in (0.2, 0.1, 0.05, 0.025)
    }
    spread = max(ratios.values()) / min(ratios.values())
    ok = spread <= 2.0
    assert report(
        "criterion 4 (third-order residual is O(q^4))",
        ok,
        f"residual/q^4 in [{min(ratios.values()):.3f}, {max(ratios.values()):.3f}], spread {spread:.2f}x <= 2x",
    )


def test_criterion_5_gap_identity():
    src = rademacher()
    worst = 0.0
    h = 0.02
    for q in (0.25, 0.5, 1.0, 2.0):
        d = [nongaussianity(ScalarChannel(src, q + k * h)) for k in (-2, -1, 1, 2)]
        slope = (d[0] - 8 * d[1] + 8 * d[2] - d[3]) / (12 * h)
        gap = gaussian_mmse(q) - mmse(ScalarChannel(src, q))
        worst = max(worst, abs(gap - 2.0 * slope))
    ok = worst <= 1e-4
    assert report(
        "criterion 5 (error gap equals twice the divergence slope)",
        ok,
        f"max |gap - 2 dD/dq| = {worst:.2e}, tol 1e-4",
    )


def test_criterion_6_kalman_reproduces_closed_forms():
    worst = 0.0
    details = []
    for n, q in ((1, 2.0), (2, 2.0), (4, 1.0)):
        coarse = KalmanSetup(n, q, 4096)
        fine = KalmanSetup(n, q, 8192)
        cm = 2 * kalman_cmmse(fine) - kalman_cmmse(coarse)
        mm = 2 * kalman_mmse(fine) - kalman_mmse(coarse)
        gap_cm = abs(cm - gaussian_cmmse(n, q))
        gap_mm = abs(mm - gaussian_mmse_tone(n, q))
        worst = max(worst, gap_cm, gap_mm)
        details.append(f"(N={n},q={q}): {max(gap_cm, gap_mm):.1e}")
    ok = worst <= 1e-3
    assert report(
        "criterion 6 (Kalman oracle vs closed forms)",
        ok,
        "extrapolated gaps " + ", ".join(details) + ", tol 1e-3",
    )


def test_criterion_7_convergence_rate_coefficients():
    law = unit_amplitude()
    q = 1.0
    # the predicted rates take the exact D''(0) = 0; the measured value is reported
    d2 = derivative_at_zero(
        lambda x: tone_divergence(law, x), order=2, cfg=DIVERGENCE_QUADRATURE
    ).value
    # each error minus its Gaussian closed form is O(1/N^3), so the
    # coefficient of q/N is the Gaussian one plus N/q times that excess
    rows = []
    for n in (4, 8, 16, 32, 64):
        cm, mm = tone_errors(ToneModel(n_tones=n, q=q, amplitude_law=law))
        cm_rate = 0.25 + n * (gaussian_cmmse(n, q) - cm) / q
        mm_rate = 0.5 + n * (gaussian_mmse_tone(n, q) - mm) / q
        rows.append((n, cm_rate, mm_rate))
    worst = max(max(abs(c / 0.25 - 1.0), abs(m / 0.5 - 1.0)) for _, c, m in rows)
    ok = worst <= 0.03
    detail = (
        "cmmse, mmse vs 0.25, 0.5: "
        + ", ".join(f"N={n} {c:.6f} {m:.6f}" for n, c, m in rows)
        + f"; worst {worst:.2%}; D''(0) = {d2:.2e}"
    )
    assert report("criterion 7 (deficit rate coefficients, 3%)", ok, detail)


def test_criterion_8_remainder_ratio_window():
    law = unit_amplitude()
    q = 1.0
    d2 = derivative_at_zero(
        lambda x: tone_divergence(law, x), order=2, cfg=DIVERGENCE_QUADRATURE
    ).value
    n_values = (4, 8, 16, 32, 64)
    remainders = [
        abs(n * tone_divergence(law, q / n) - 0.5 * d2 * q * q / n) for n in n_values
    ]
    ratios = [remainders[i] / remainders[i + 1] for i in range(len(remainders) - 1)]
    ok = all(6.4 <= r <= 10.0 for r in ratios)
    detail = "ratios " + ", ".join(f"{r:.2f}" for r in ratios)
    report("criterion 8 (remainder halving ratios in [6.4, 10.0], 1/N^3)", ok, detail)
    assert ok, (
        "the single-tone divergence has vanishing second and third derivatives "
        "at zero snr, so the remainder should decay like 1/N^3 (doubling "
        f"ratios near 8); {detail}"
    )


def test_criterion_9_monte_carlo_oracle_agreement():
    worst = 0.0
    worst_case = ""
    for i, src in enumerate(builtin_sources()):
        for j, q in enumerate((0.5, 2.0)):
            quad_val = mmse(ScalarChannel(src, q))
            est = mc_scalar_mmse(
                src, q, McConfig(sample_count=10**6, seed=1000 + 10 * i + j)
            )
            sigmas = abs(est.value - quad_val) / est.std_error
            if sigmas > worst:
                worst, worst_case = sigmas, f"{src.name}@q={q}"
    ok = worst <= 3.0
    assert report(
        "criterion 9 (Monte Carlo within 3 standard errors)",
        ok,
        f"worst {worst:.2f} sigma at {worst_case}",
    )
