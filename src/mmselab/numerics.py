"""Deterministic quadrature and one-sided differentiation kernels.

All routines are pure functions of their arguments: no global state, no
randomness, bit-identical outputs for identical inputs.  Integration is
adaptive subdivision with a fixed 21-point Gauss-Kronrod rule per panel
(QUADPACK); differentiation at the left endpoint of ``[0, q_max]`` uses
one-sided finite differences on a geometric step schedule with a
Richardson/Ridders extrapolation tableau.

Infinite integration limits go to QUADPACK's infinite-range rule.  The
channel integrals pass finite domains instead, cut ``tail_width`` noise
standard deviations beyond the output's bulk: their integrands are
Gaussian-tailed, so the truncation error is far below the requested
tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from scipy import integrate as _sci_integrate

__all__ = [
    "NumericsError",
    "NonConvergence",
    "NonFinite",
    "StepUnderflow",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "DIVERGENCE_QUADRATURE",
    "ValueWithError",
    "DerivativeEstimate",
    "integrate",
    "derivative_at_zero",
    "kl_integrand",
    "kl_integrand_from_logs",
]


class NumericsError(Exception):
    """Base class for numerical failures in this package."""


class NonConvergence(NumericsError):
    """Requested quadrature tolerance not reached within max subdivisions."""


class NonFinite(NumericsError):
    """Integrand returned NaN or infinity at an evaluation point."""


class StepUnderflow(NumericsError):
    """Difference steps hit the noise floor of the integrand before converging."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance and truncation policy for :func:`integrate`.

    Parameters
    ----------
    rel_tol, abs_tol : float
        The integral's error bound must satisfy
        ``err <= max(abs_tol, rel_tol * |value|)``.
    max_subdivisions : int
        Adaptive panel budget.
    tail_width : float
        Number of noise standard deviations beyond the output's bulk at
        which the channel integrals cut their domains.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 200
    tail_width: float = 10.0

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.tail_width < 6:
            raise ValueError("tail_width must be >= 6")


DEFAULT_QUADRATURE = QuadratureConfig()

# Divergence values feed fourth-order difference quotients, which amplify
# relative noise by the stencil weights; they need the tight budget.
DIVERGENCE_QUADRATURE = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-18, max_subdivisions=400)


class ValueWithError(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class DerivativeEstimate:
    """A one-sided derivative at zero with its extrapolation error estimate."""

    order: int
    value: float
    step_used: float
    error_estimate: float

    def __post_init__(self) -> None:
        if self.order not in (1, 2, 3, 4):
            raise ValueError("order must be in 1..4")
        if not self.step_used > 0:
            raise ValueError("step_used must be positive")
        if not self.error_estimate >= 0:
            raise ValueError("error_estimate must be nonnegative")


def _check_snr(q: float) -> float:
    q = float(q)
    if not (math.isfinite(q) and q >= 0.0):
        raise ValueError(f"snr must be finite and >= 0, got {q!r}")
    return q


def integrate(
    f: Callable[[float], float],
    domain: tuple,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    *,
    breakpoints: Sequence[float] | None = None,
) -> ValueWithError:
    """Integrate ``f`` over ``domain`` to the tolerances in ``cfg``.

    Parameters
    ----------
    f : callable
        Scalar integrand, finite on the domain interior.
    domain : (a, b) tuple
        Either endpoint may be infinite; QUADPACK then maps the infinite
        range onto a finite one.
    breakpoints : sequence of float, optional
        Known peak locations; passed to the subdivision as fixed panel
        boundaries (helps sharply peaked mixtures).  Finite domains only.

    Returns
    -------
    ValueWithError
        Integral estimate and an error bound satisfying the tolerance.

    Raises
    ------
    NonConvergence
        If the error bound exceeds ``max(abs_tol, rel_tol * |value|)``.
    NonFinite
        If ``f`` evaluates to NaN or +-inf anywhere it is sampled.
    """
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise ValueError(f"empty integration domain ({a}, {b})")

    def guarded(x: float) -> float:
        v = f(x)
        if not math.isfinite(v):
            raise NonFinite(f"integrand returned {v!r} at x={x!r}")
        return v

    pts = None
    if breakpoints is not None:
        pts = sorted(p for p in breakpoints if a < p < b)
        if not pts:
            pts = None

    result = _sci_integrate.quad(
        guarded,
        a,
        b,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions,
        points=pts,
        full_output=1,
    )
    value, err = float(result[0]), float(result[1])
    if len(result) > 3 or err > max(cfg.abs_tol, cfg.rel_tol * abs(value)) * (1 + 1e-12):
        raise NonConvergence(
            f"quadrature error {err:.3e} exceeds tolerance for value {value:.6e}"
            f" on ({a:.6g}, {b:.6g})"
        )
    return ValueWithError(value, err)


_FORWARD_STENCILS = {
    1: (-1.0, 1.0),
    2: (1.0, -2.0, 1.0),
    3: (-1.0, 3.0, -3.0, 1.0),
    4: (1.0, -4.0, 6.0, -4.0, 1.0),
}


def derivative_at_zero(
    g: Callable[[float], float],
    order: int,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    *,
    initial_step: float = 0.2,
    levels: int = 6,
    value_at_zero: float = 0.0,
) -> DerivativeEstimate:
    """One-sided k-th derivative of ``g`` at 0, for ``g`` defined on ``q >= 0``.

    Forward differences on nodes ``0, h, .., k*h`` (with ``g(0)`` supplied
    exactly through ``value_at_zero``) are first-order accurate with a full
    integer error series, so a Richardson tableau over the halving schedule
    ``h, h/2, h/4, ..`` gains one order per column.  The entry with the
    smallest Ridders-style error indicator is returned.

    The reported ``error_estimate`` is the maximum of the tableau indicator
    and the noise amplification bound ``sum|c_j| * noise(g(j h)) / h^k``
    where ``noise`` is taken from ``cfg`` (the quadrature tolerance that the
    evaluations of ``g`` were computed to).  The indicator only measures how
    well neighbouring tableau entries agree, so pre-asymptotic coarse rows
    (a stencil reach ``order * initial_step`` beyond where ``g``'s Taylor
    series is accurate) can fool it into reporting far less than the real
    error.

    Raises
    ------
    StepUnderflow
        If the noise bound alone dwarfs everything the tableau achieved,
        i.e. the step schedule descended into ``g``'s own quadrature noise
        before the extrapolation could converge.
    """
    if order not in _FORWARD_STENCILS:
        raise ValueError("order must be in 1..4")
    if not initial_step > 0:
        raise ValueError("initial_step must be positive")
    if levels < 2:
        raise ValueError("need at least 2 levels to extrapolate")

    coeffs = _FORWARD_STENCILS[order]
    cache: dict[float, float] = {0.0: float(value_at_zero)}

    def eval_g(x: float) -> float:
        if x not in cache:
            v = float(g(x))
            if not math.isfinite(v):
                raise NonFinite(f"g returned {v!r} at q={x!r}")
            cache[x] = v
        return cache[x]

    steps = [initial_step / 2.0**i for i in range(levels)]
    tableau: list[list[float]] = []
    best_value = math.nan
    best_err = math.inf
    best_step = steps[0]

    for i, h in enumerate(steps):
        fd = sum(c * eval_g(j * h) for j, c in enumerate(coeffs)) / h**order
        row = [fd]
        prev_row = tableau[-1] if tableau else None
        if prev_row is not None:
            for m in range(1, i + 1):
                factor = 2.0**m
                extrap = row[m - 1] + (row[m - 1] - prev_row[m - 1]) / (factor - 1.0)
                row.append(extrap)
                # Coarse-step rows can agree with each other while still far
                # from the asymptotic regime, so only the two deepest rows
                # compete for the returned entry.
                if i >= levels - 2:
                    err = max(abs(row[m] - row[m - 1]), abs(row[m] - prev_row[m - 1]))
                    if err < best_err:
                        best_err = err
                        best_value = row[m]
                        best_step = h
        tableau.append(row)

    if not math.isfinite(best_err):
        raise StepUnderflow("extrapolation tableau produced no finite error estimate")

    noise = sum(
        abs(c) * (cfg.rel_tol * abs(eval_g(j * best_step)) + cfg.abs_tol)
        for j, c in enumerate(coeffs)
    ) / best_step**order
    # Underflow = the tableau settled on a confidently nonzero value that
    # the declared evaluation noise nevertheless swamps.  A value that is
    # zero to within its own error indicator is a legitimate "0 +- noise"
    # answer (identically vanishing curves reduce to rounding dust).
    if abs(best_value) > 1e3 * best_err and noise > abs(best_value):
        raise StepUnderflow(
            f"difference noise bound {noise:.3e} swamps the extrapolated "
            f"value {best_value:.3e} (tableau accuracy {best_err:.3e}) "
            f"at step {best_step:.3e}"
        )

    return DerivativeEstimate(
        order=order,
        value=best_value,
        step_used=best_step,
        error_estimate=max(best_err, noise),
    )


def kl_integrand(p: float, g: float) -> float:
    """Pointwise term ``p*ln(p/g) - p + g`` of a divergence integral.

    Nonnegative for all ``p, g >= 0`` and identical in integral to
    ``p*ln(p/g)`` whenever both densities are normalized, which is what
    makes relative-tolerance quadrature of divergences possible.  Densities
    below the double underflow floor contribute ``g`` (the limit as
    ``p -> 0``); a vanishing reference density makes the term infinite.
    """
    if p < 1e-300:
        return g
    if g < 1e-300:
        return math.inf
    return kl_integrand_from_logs(math.log(p), math.log(g))


def kl_integrand_from_logs(log_p: float, log_g: float) -> float:
    """Same as :func:`kl_integrand` with both densities given in log form.

    Preferred whenever the caller can form the logs without exponentiating
    first (Bessel kernels, mixtures in log space, far tails): the
    near-cancellation at ``p ~ g`` then happens in the well-conditioned
    ``delta = expm1(log_p - log_g)`` and the series below, and either
    density may underflow harmlessly.
    """
    g = math.exp(log_g) if log_g > -745.0 else 0.0
    log_ratio = log_p - log_g
    if log_ratio > 30.0:
        p = math.exp(log_p)
        return p * log_ratio - p + g
    delta = math.expm1(log_ratio)
    if delta <= -1.0:
        # p/g underflowed entirely; the p -> 0 limit of the term is g
        return g
    if abs(delta) < 1e-2:
        # (1+d)ln(1+d) - d = sum_{k>=2} (-1)^k d^k / (k(k-1))
        return g * (
            delta * delta * (1.0 / 2.0
                             + delta * (-1.0 / 6.0
                                        + delta * (1.0 / 12.0
                                                   + delta * (-1.0 / 20.0
                                                              + delta * (1.0 / 30.0
                                                                         + delta * (-1.0 / 42.0
                                                                                    + delta / 56.0))))))
        )
    return g * ((1.0 + delta) * math.log1p(delta) - delta)
