#!/usr/bin/env python3
"""Kalman-oracle check of the Gaussian tone error formulas.

The Gaussian-amplitude tone signal makes the channel linear-Gaussian, so
its filtering/smoothing error energies follow deterministically from the
information matrices of the 2N static Fourier coefficients: the prior's
N I plus a running sum of the measurements' outer products, whose inverse
is the error covariance.  No sampling is involved.
Halving dt shows clean first-order convergence to the closed forms
(2/x) ln(1 + x/2) and 1/(1 + x/2) at the per-tone snr x = q/N.
"""

from mmselab import KalmanSetup, gaussian_cmmse, gaussian_mmse_tone, kalman_cmmse, kalman_mmse

for n, q in ((1, 2.0), (2, 2.0), (4, 1.0)):
    target_cm = gaussian_cmmse(q / n)
    target_mm = gaussian_mmse_tone(q / n)
    print("=" * 72)
    print(f"N={n}, q={q}: targets cmmse={target_cm:.9f}  mmse={target_mm:.9f}")
    print("=" * 72)
    print(f"  {'steps':>6s} {'dt':>12s} {'cmmse':>14s} {'gap':>11s} {'mmse':>14s} {'gap':>11s}")
    history = []
    for steps in (1024, 2048, 4096, 8192):
        setup = KalmanSetup(n, q, steps)
        cm, mm = kalman_cmmse(setup), kalman_mmse(setup)
        history.append((cm, mm))
        print(
            f"  {steps:6d} {setup.dt:12.3e} {cm:14.9f} {cm - target_cm:+11.2e} "
            f"{mm:14.9f} {mm - target_mm:+11.2e}"
        )
    cm_x = 2 * history[-1][0] - history[-2][0]
    mm_x = 2 * history[-1][1] - history[-2][1]
    print(
        f"  {'extrap':>6s} {'0':>12s} {cm_x:14.9f} {cm_x - target_cm:+11.2e} "
        f"{mm_x:14.9f} {mm_x - target_mm:+11.2e}"
    )
    print()

print("The causal gap halves with dt (first order); the smoothing error is")
print("exact at every dt because the accumulated information matrix is a")
print("full-period trigonometric sum, which the uniform grid integrates exactly.")
