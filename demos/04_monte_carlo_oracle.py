#!/usr/bin/env python3
"""Monte Carlo oracle vs quadrature for the scalar-channel error.

Draws paired (X, W) samples, forms Y = W + sqrt(q) X, scores the Bayes
estimate, and compares the sample mean of (X - E[X|Y])^2 with the
quadrature value for every registered law.  Agreement is reported in
standard errors.
"""

from mmselab import McConfig, ScalarChannel, builtin_sources, mc_scalar_mmse, mmse

print("=" * 76)
print("Monte Carlo (10^6 paired draws) against quadrature")
print("=" * 76)
print(f"  {'source':<12s}{'q':>5s}{'monte carlo':>16s}{'std err':>11s}{'quadrature':>14s}{'sigmas':>8s}")
for i, src in enumerate(builtin_sources()):
    for j, q in enumerate((0.5, 2.0)):
        cfg = McConfig(sample_count=10**6, seed=7000 + 10 * i + j)
        est = mc_scalar_mmse(src, q, cfg)
        ref = mmse(ScalarChannel(src, q))
        sig = abs(est.value - ref) / est.std_error
        print(
            f"  {src.name:<12s}{q:5.1f}{est.value:16.6f}{est.std_error:11.1e}"
            f"{ref:14.6f}{sig:8.2f}"
        )
