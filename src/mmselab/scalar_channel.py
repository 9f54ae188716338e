"""Scalar additive-noise channel Y = W + sqrt(q) X and its estimation errors.

W is standard normal, X a standardized law from :mod:`mmselab.sources`, and
q >= 0 the signal-to-noise parameter.  The module provides the Bayes
estimator E[X|Y], the minimum mean-square error

    mmse(q) = 1 - int (E_X[X phi(y - sqrt(q) X)])^2 / p_Y(y) dy,

the output's non-Gaussianity (divergence of the output law from the
Gaussian law of identical variance 1 + q)

    D(q) = int p_Y ln(p_Y / phi_{1+q}),

one-sided derivatives of D at q = 0, and the moment-based low-snr
expansions

    mmse(q) ~ 1 - q + q^2 - (1/6) [ (EX^4)^2 - 6 EX^4 - 2 (EX^3)^2 + 15 ] q^3
    D''''(0) = (1/2) [ (EX^4)^2 - 6 EX^4 - 2 (EX^3)^2 + 9 ].

Caution: the two expansion formulas above are exact for symmetric laws but
demonstrably incomplete when EX^3 != 0 (the measured q^2 coefficient of the
mmse is 1 - (EX^3)^2/2, which feeds a nonzero third derivative of D).  They
are kept in the stated form deliberately; the verification suite measures
and reports the discrepancy for skewed laws instead of silently patching it
(README, "Known limits of the moment formulas", gives the complete terms;
``divergence_derivatives_from_moments`` returns the complete derivatives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DEFAULT_QUADRATURE,
    DIVERGENCE_QUADRATURE,
    DerivativeEstimate,
    QuadratureConfig,
    _check_snr,
    derivative_at_zero,
    integrate,
    kl_integrand_from_logs,
)
from .sources import ScalarSource

__all__ = [
    "ScalarChannel",
    "output_density",
    "conditional_mean",
    "mmse",
    "gaussian_mmse",
    "mmse_taylor3",
    "d4_at_zero_from_moments",
    "divergence_derivatives_from_moments",
    "nongaussianity",
    "divergence_derivatives_at_zero",
]

_P_FLOOR = 1e-300


@dataclass(frozen=True)
class ScalarChannel:
    """A standardized source observed through unit Gaussian noise at snr q."""

    source: ScalarSource
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _check_snr(self.q))
        if not self.source.is_standard:
            raise ValueError(f"source {self.source.name!r} is not standardized")


def output_density(ch: ScalarChannel, y):
    """Density of Y = W + sqrt(q) X at y (vectorized)."""
    return ch.source.output_density(y, ch.q)


def conditional_mean(ch: ScalarChannel, y):
    """Bayes estimate E[X | Y = y] (vectorized); 0 where the density underflows."""
    p = ch.source.output_density(y, ch.q)
    a = ch.source.cross_density(y, ch.q)
    p_arr = np.asarray(p, dtype=float)
    out = np.divide(a, p_arr, out=np.zeros_like(p_arr), where=p_arr > _P_FLOOR)
    return float(out) if np.ndim(y) == 0 else out


def _domain_radius(src: ScalarSource, q: float, tail: float) -> float:
    return tail * math.sqrt(1.0 + q) + math.sqrt(q) * src.bulk_radius(tail)


def _panel_breakpoints(src: ScalarSource, q: float):
    """Panel breakpoints around the sharp features of the output density.

    A mixture component (w, mu, sigma) puts a Gaussian bump of width
    sqrt(1 + q sigma^2) at sqrt(q) mu into the output density (an atom,
    sigma = 0, a unit-width one), and each end v of a uniform law a
    unit-width step.  At high q these features are far narrower than the
    domain, and a panel that merely ends at one can miss it (a uniform law
    from q = 1e7 on, where the first Gauss-Kronrod rule samples only the
    flat top and the tails); breakpoints at 0 and +-8 widths around each
    feature keep it inside two panels.  Other laws get no breakpoints.
    """
    if src.kind == "uniform":
        features = [(v, 0.0) for v in src.params]
    else:
        features = [(mu, s) for _, mu, s in src.components]
    sq = math.sqrt(q)
    return sorted(
        {sq * mu + d * math.sqrt(1.0 + q * s * s) for mu, s in features for d in (-8.0, 0.0, 8.0)}
    ) or None


def mmse(ch: ScalarChannel, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Minimum mean-square error of estimating X from Y, in [0, 1].

    Uses the conditional-mean identity
    ``mmse = EX^2 - E[(E[X|Y])^2] = 1 - int cross^2 / p dy``
    so only a single one-dimensional integral is needed.
    """
    q = ch.q
    if q == 0.0:
        return 1.0
    src = ch.source

    def integrand(y: float) -> float:
        p = float(src.output_density(y, q))
        if p < _P_FLOOR:
            return 0.0
        a = float(src.cross_density(y, q))
        return a * a / p

    radius = _domain_radius(src, q, cfg.tail_width)
    est, _ = integrate(integrand, (-radius, radius), cfg, breakpoints=_panel_breakpoints(src, q))
    return min(1.0, max(0.0, 1.0 - est))


def gaussian_mmse(q: float) -> float:
    """Error of the Gaussian input of unit variance: 1 / (1 + q), exactly."""
    q = _check_snr(q)
    return 1.0 / (1.0 + q)


def mmse_taylor3(src: ScalarSource, q: float) -> float:
    """Third-order low-snr expansion of the mmse from the moments of X."""
    q = _check_snr(q)
    m3 = src.moment(3)
    m4 = src.moment(4)
    c3 = (m4 * m4 - 6.0 * m4 - 2.0 * m3 * m3 + 15.0) / 6.0
    return 1.0 - q + q * q - c3 * q**3


def d4_at_zero_from_moments(src: ScalarSource) -> float:
    """Moment formula for the fourth divergence derivative at q = 0."""
    m3 = src.moment(3)
    m4 = src.moment(4)
    return 0.5 * (m4 * m4 - 6.0 * m4 - 2.0 * m3 * m3 + 9.0)


def divergence_derivatives_from_moments(src: ScalarSource) -> tuple:
    """Exact (D'(0), D''(0), D'''(0), D''''(0)) for any law, skewed or not.

    The complete values (Guo, Wu, Shamai, Verdu 2011): 0, 0, (EX^3)^2 / 2
    and (1/2) [ (EX^4)^2 - 6 EX^4 - 12 (EX^3)^2 + 9 ].
    """
    m3 = src.moment(3)
    m4 = src.moment(4)
    return 0.0, 0.0, 0.5 * m3 * m3, 0.5 * (m4 * m4 - 6.0 * m4 - 12.0 * m3 * m3 + 9.0)


def nongaussianity(ch: ScalarChannel, cfg: QuadratureConfig = DIVERGENCE_QUADRATURE) -> float:
    """Divergence of the output law from the Gaussian of the same variance.

    Integrates the pointwise-nonnegative form ``p ln(p/g) - p + g`` (equal
    in value because both densities are normalized), so the requested
    relative tolerance applies to the divergence itself even when it is
    orders of magnitude smaller than either density.
    """
    q = ch.q
    if q == 0.0:
        return 0.0
    src = ch.source
    var = 1.0 + q
    log_norm = -0.5 * math.log(2.0 * math.pi * var)

    def integrand(y: float) -> float:
        # log-ratio form: the matched Gaussian may underflow on the wide
        # domains needed for slowly decaying output tails
        log_g = log_norm - 0.5 * y * y / var
        g = math.exp(log_g)
        p = float(src.output_density(y, q))
        if p < _P_FLOOR:
            return g
        return kl_integrand_from_logs(math.log(p), log_g)

    radius = _domain_radius(src, q, cfg.tail_width)
    est, _ = integrate(integrand, (-radius, radius), cfg, breakpoints=_panel_breakpoints(src, q))
    return max(0.0, est)


def divergence_derivatives_at_zero(
    src: ScalarSource,
    orders=(1, 2, 3, 4),
    cfg: QuadratureConfig = DIVERGENCE_QUADRATURE,
    *,
    initial_step: float = 0.05,
    levels: int = 6,
) -> list[DerivativeEstimate]:
    """One-sided derivatives of q -> nongaussianity(src, q) at q = 0.

    The order-k stencil reaches q = k * initial_step, and all of it must lie
    where the low-snr series of D is already asymptotic: coarse tableau rows
    built outside that regime can agree by accident, which the tableau's
    error indicator mistakes for convergence.  Laws with fast-growing
    moments (the standardized exponential) leave the regime early, hence
    the start at 0.05 rather than the generic 0.2 of
    :func:`~mmselab.numerics.derivative_at_zero`.

    Divergence evaluations are shared across the requested orders through a
    memo on the step schedule (the halving grids overlap heavily).
    """
    cache: dict[float, float] = {}

    def curve(q: float) -> float:
        if q not in cache:
            cache[q] = nongaussianity(ScalarChannel(src, q), cfg)
        return cache[q]

    return [
        derivative_at_zero(curve, order, cfg, initial_step=initial_step, levels=levels)
        for order in orders
    ]
