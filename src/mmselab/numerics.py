"""Deterministic quadrature and one-sided differentiation kernels.

All routines are pure functions of their arguments: no global state, no
randomness, bit-identical outputs for identical inputs.  Integration is
globally adaptive bisection with the 21-point Gauss-Kronrod rule and error
estimate of QUADPACK (Piessens et al., 1983) per panel, on array
integrands, scalar or vector-valued (one panel set for all components).
Differentiation at the left endpoint of ``[0, q_max]`` uses one-sided
finite differences on a geometric step schedule with a Richardson/Ridders
extrapolation tableau.

Infinite integration limits are mapped onto finite ones by a rational
substitution.  The channel integrals pass finite domains instead, cut
``TAIL_WIDTH`` noise standard deviations beyond the output's bulk: their
integrands are Gaussian-tailed, so the truncation error is far below the
requested tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "NonConvergence",
    "NonFinite",
    "StepUnderflow",
    "QuadratureConfig",
    "TAIL_WIDTH",
    "TABLEAU_LEVELS",
    "DEFAULT_QUADRATURE",
    "DIVERGENCE_QUADRATURE",
    "ValueWithError",
    "DerivativeEstimate",
    "integrate",
    "derivative_at_zero",
    "derivative_nodes",
    "kl_integrand_from_logs",
]


class NumericsError(Exception):
    """Base class for numerical failures in this package."""


class NonConvergence(NumericsError):
    """Requested quadrature tolerance not reached within max subdivisions.

    ``component`` is the index of the worst component of a vector
    integrand, and None for a scalar one.
    """

    def __init__(self, message: str, component: int | None = None) -> None:
        super().__init__(message)
        self.component = component


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
        The integral's error bound (each component's, for a vector
        integrand) must satisfy ``err <= max(abs_tol, rel_tol * |value|)``.
    max_subdivisions : int
        Adaptive panel budget.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureConfig()

# Noise standard deviations beyond the output's bulk at which the channel
# integrals cut their domains.
TAIL_WIDTH = 10.0

# Rows of the Richardson tableau of derivative_at_zero: the halving
# schedule h, h/2, .., h/32.
TABLEAU_LEVELS = 6

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


def _in_range(quantity: str, value: float, err: float, law: str, q: float, hi: float) -> float:
    """``value``, checked to lie in [0, hi] within its error bound ``err`` plus 4 ulp.

    The channel quantities are bounded for every law (an mmse by the
    Gaussian input's error, a divergence by the entropy gap of the noise),
    so a value beyond the slack is a failed integral.  A value inside the
    slack is rounding and comes back clamped to [0, hi], nearer the truth.
    """
    slack = err + 4.0 * math.ulp(max(hi, 1.0))
    if not -slack <= value <= hi + slack:
        raise NumericsError(
            f"{quantity} {value:.17g} of law {law!r} at q={q!r} lies outside"
            f" [0, {hi:.17g}] by more than its error bound {err:.3e}"
        )
    return min(max(0.0, value), hi)


# The 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK dqk21), one half of
# it: (abscissa, Kronrod weight, weight in the embedded 10-point Gauss rule).
_GK21_HALF = np.array([
    (0.9956571630258081, 0.011694638867371874, 0.0),
    (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
    (0.9301574913557082, 0.054755896574351995, 0.0),
    (0.8650633666889845, 0.07503967481091996, 0.1494513491505806),
    (0.7808177265864169, 0.0931254545836976, 0.0),
    (0.6794095682990244, 0.10938715880229764, 0.21908636251598204),
    (0.5627571346686047, 0.12349197626206584, 0.0),
    (0.4333953941292472, 0.13470921731147334, 0.26926671930999635),
    (0.2943928627014602, 0.14277593857706009, 0.0),
    (0.14887433898163122, 0.14773910490133849, 0.29552422471475287),
    (0.0, 0.1494455540029169, 0.0),
])
_NODES = np.concatenate((-_GK21_HALF[:-1, 0], _GK21_HALF[::-1, 0]))
_WEIGHTS = np.concatenate((_GK21_HALF[:-1, 1:], _GK21_HALF[::-1, 1:]))  # (21, 2): Kronrod, Gauss


def _to_finite(f: Callable, a: float, b: float):
    """``(g, lo, hi, x_of, t_of)``: ``g`` on (lo, hi) integrates to ``f`` on (a, b).

    x = x_of(t) maps the nodes, and t = t_of(x) the breakpoints.
    """
    if math.isfinite(a) and math.isfinite(b):
        return f, a, b, float, float
    if math.isinf(a) and math.isinf(b):
        x_of = lambda t: t / (1.0 - t * t)  # noqa: E731
        t_of = lambda x: 2.0 * x / (1.0 + math.sqrt(1.0 + 4.0 * x * x))  # noqa: E731
        return (lambda t: f(x_of(t)) * (1.0 + t * t) / (1.0 - t * t) ** 2), -1.0, 1.0, x_of, t_of
    origin, sign = (a, 1.0) if math.isfinite(a) else (b, -1.0)
    x_of = lambda t: origin + sign * t / (1.0 - t)  # noqa: E731
    t_of = lambda x: sign * (x - origin) / (1.0 + sign * (x - origin))  # noqa: E731
    return (lambda t: f(x_of(t)) / (1.0 - t) ** 2), 0.0, 1.0, x_of, t_of


def _panels(f: Callable, lo: np.ndarray, hi: np.ndarray, x_of: Callable) -> tuple:
    """``(vector, rows)`` of the panels (lo, hi), from one call of ``f`` on all their nodes.

    ``rows`` stacks lo, hi, then the k values and the k error bounds of
    each panel: k = 1 unless ``f`` is a vector integrand (``vector``).  The
    value is the Kronrod one; the error is QUADPACK's estimate
    ``resasc * min(1, (200 |K - G| / resasc)^1.5)``, floored at 50 eps of
    the panel's integral of ``|f|``.  A ``NonFinite`` names the node mapped
    back to x by ``x_of``.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    fx = np.asarray(f(x.ravel()), dtype=float)
    vector = fx.ndim == 2
    fx = fx.reshape(-1, _NODES.size)  # one row per component and panel
    bad = ~np.isfinite(fx)
    if bad.any():
        row, node = np.argwhere(bad)[0]
        at = x_of(float(x[row % len(lo), node]))
        raise NonFinite(f"integrand returned {float(fx[row, node])!r} at x={at!r}")
    kronrod, gauss = (fx @ _WEIGHTS).T
    dev = fx - 0.5 * kronrod[:, None]
    np.abs(dev, out=dev)
    resasc = dev @ _WEIGHTS[:, 0]
    np.abs(fx, out=dev)
    resabs = dev @ _WEIGHTS[:, 0]
    diff = np.abs(kronrod - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(resasc > 0, resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5), diff)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
    rows = np.concatenate((lo, hi, kronrod, err)).reshape(-1, len(lo))
    rows[2:] *= half
    return vector, rows


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    domain: tuple,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    *,
    breakpoints: Sequence[float] | None = None,
) -> ValueWithError:
    """Integral of ``f`` over ``domain`` and its error bound, to the tolerances in ``cfg``.

    ``f`` maps a 1-D array of n points to the array of its n values there,
    and the integral and its error bound are floats.  A vector integrand
    maps them to a (k, n) array of k components, and the integral and its
    error bound are arrays of k values.  Globally adaptive 21-point
    Gauss-Kronrod quadrature on one set of panels shared by the components:
    each pass calls ``f`` once, on the nodes of every panel the previous
    pass opened, then bisects every panel where some component's error
    exceeds its share ``tol / panels`` of that component's
    ``tol = max(abs_tol, rel_tol * |value|)``.  An infinite endpoint is
    mapped to a finite one by x = t/(1-t^2), a + t/(1-t) or b - t/(1-t).
    ``breakpoints`` are fixed panel edges from the first pass on, for known
    sharp peaks or kinks; those outside the open domain are ignored.

    Raises
    ------
    NonConvergence
        If some component's error still exceeds its ``tol`` with
        ``cfg.max_subdivisions`` panels in use.
    NonFinite
        If ``f`` evaluates to NaN or +-inf anywhere it is sampled.
    """
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise ValueError(f"empty integration domain ({a}, {b})")
    g, t0, t1, x_of, t_of = _to_finite(f, a, b)
    inner = sorted(t_of(p) for p in set(breakpoints or ()) if a < p < b)
    vector, panels = _panels(g, np.array([t0, *inner]), np.array([*inner, t1]), x_of)
    k = (len(panels) - 2) // 2
    while True:
        value, err = panels[2 : 2 + k].sum(axis=1), panels[2 + k :].sum(axis=1)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
        if (err <= tol).all():
            if vector:
                return ValueWithError(value, err)
            return ValueWithError(float(value[0]), float(err[0]))
        count = panels.shape[1]
        room = cfg.max_subdivisions - count
        if room <= 0:
            worst = int(np.argmax(err / tol))
            raise NonConvergence(
                f"quadrature error {err[worst]:.3e} exceeds tolerance for value {value[worst]:.6e}"
                + (f" (component {worst})" if vector else "")
                + f" on ({a:.6g}, {b:.6g})",
                worst if vector else None,
            )
        over = panels[2 + k :] > (tol / count)[:, None]
        split = np.flatnonzero(over.any(axis=0))
        # past the panel budget, the worst panels (relative to tol) go first
        worst = (panels[2 + k :, split] / tol[:, None]).max(axis=0)
        split = split[np.argsort(-worst, kind="stable")[:room]]
        lo, hi = panels[0, split], panels[1, split]
        mid = 0.5 * (lo + hi)
        new = _panels(g, np.concatenate((lo, mid)), np.concatenate((mid, hi)), x_of)[1]
        panels = np.concatenate((np.delete(panels, split, axis=1), new), axis=1)


_FORWARD_STENCILS = {
    1: (-1.0, 1.0),
    2: (1.0, -2.0, 1.0),
    3: (-1.0, 3.0, -3.0, 1.0),
    4: (1.0, -4.0, 6.0, -4.0, 1.0),
}


def _steps(initial_step: float) -> list:
    """The halving schedule h, h/2, .. of the tableau's ``TABLEAU_LEVELS`` rows."""
    return [initial_step / 2.0**i for i in range(TABLEAU_LEVELS)]


def derivative_nodes(orders: Sequence[int], initial_step: float = 0.2) -> tuple:
    """The q > 0, ascending, at which :func:`derivative_at_zero` evaluates ``g`` for ``orders``.

    Order k needs j h for j = 1..k at every step h of the schedule; a
    caller that can evaluate ``g`` at many q at once computes these first.
    """
    if any(order not in _FORWARD_STENCILS for order in orders):
        raise ValueError("order must be in 1..4")
    if not initial_step > 0:
        raise ValueError("initial_step must be positive")
    steps = _steps(initial_step)
    return tuple(sorted({j * h for order in orders for h in steps for j in range(1, order + 1)}))


def derivative_at_zero(
    g: Callable[[float], float],
    order: int,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    *,
    initial_step: float = 0.2,
    value_at_zero: float = 0.0,
) -> DerivativeEstimate:
    """One-sided k-th derivative of ``g`` at 0, for ``g`` defined on ``q >= 0``.

    Forward differences on nodes ``0, h, .., k*h`` (with ``g(0)`` supplied
    exactly through ``value_at_zero``) are first-order accurate with a full
    integer error series, so a Richardson tableau over the ``TABLEAU_LEVELS``
    halving steps ``h, h/2, h/4, ..`` gains one order per column.  The entry
    with the smallest error indicator is returned: the larger of its
    Ridders-style distances to its two parents and twice its distances to
    the entries that extrapolate further.

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
    values = {0.0: float(value_at_zero)}
    for x in derivative_nodes((order,), initial_step):
        v = values[x] = float(g(x))
        if not math.isfinite(v):
            raise NonFinite(f"g returned {v!r} at q={x!r}")
    coeffs = _FORWARD_STENCILS[order]

    steps = _steps(initial_step)
    tableau: list[list[float]] = []
    for h in steps:
        row = [sum(c * values[j * h] for j, c in enumerate(coeffs)) / h**order]
        for m in range(1, len(tableau) + 1):
            row.append(row[m - 1] + (row[m - 1] - tableau[-1][m - 1]) / (2.0**m - 1.0))
        tableau.append(row)

    # Coarse-step rows can agree with each other while still far from the
    # asymptotic regime, so only the two deepest rows compete for the
    # returned entry.  Its two parents can agree by accident, so an entry's
    # error is also at least twice its distance to each entry that is at
    # least twice as accurate: the deeper columns of its row and, for a
    # diagonal entry, the same column one step finer.
    best_value = math.nan
    best_err = math.inf
    best_step = steps[0]
    for i in range(TABLEAU_LEVELS - 2, TABLEAU_LEVELS):
        row, prev = tableau[i], tableau[i - 1]
        for m in range(1, i + 1):
            v = row[m]
            err = max(abs(v - row[m - 1]), abs(v - prev[m - 1]))
            further = row[m + 1 :]
            if m == i and i + 1 < TABLEAU_LEVELS:
                further = [tableau[i + 1][m]]
            if further:
                err = max(err, 2.0 * (max(further) - v), 2.0 * (v - min(further)))
            if err < best_err:
                best_err = err
                best_value = v
                best_step = steps[i]

    if not math.isfinite(best_err):
        raise StepUnderflow("extrapolation tableau produced no finite error estimate")

    noise = sum(
        abs(c) * (cfg.rel_tol * abs(values[j * best_step]) + cfg.abs_tol)
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


def kl_integrand_from_logs(log_p, log_g) -> np.ndarray:
    """Pointwise divergence term ``p*ln(p/g) - p + g`` from ``ln p`` and ``ln g``, elementwise.

    Nonnegative for all ``p, g >= 0`` and identical in integral to
    ``p*ln(p/g)`` whenever both densities are normalized, which is what
    makes relative-tolerance quadrature of divergences possible.  Taking
    the logs lets the caller skip exponentiating first (Bessel kernels,
    mixtures in log space, far tails): the near-cancellation at ``p ~ g``
    then happens in the well-conditioned ``delta = expm1(log_p - log_g)``
    and the series below, and either density may underflow harmlessly (a
    vanished ``p`` contributes ``g``, the limit as ``p -> 0``).
    """
    log_p, log_g = np.broadcast_arrays(
        np.asarray(log_p, dtype=float), np.asarray(log_g, dtype=float)
    )
    log_ratio = log_p - log_g
    # g, which is the whole term where p/g underflowed entirely (delta = -1,
    # the p -> 0 limit); each other case replaces or scales it on its own
    # nodes only, and a NaN delta (both logs -inf) falls to the last case
    out = np.exp(log_g, out=np.empty(log_ratio.shape))
    delta = np.expm1(np.minimum(log_ratio, 30.0))
    large = log_ratio > 30.0
    near = np.abs(delta) < 1e-2
    rest = ~(large | near | (delta <= -1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.exp(log_p[large])
        out[large] = p * log_ratio[large] - p + out[large]
        # (1+d)ln(1+d) - d = sum_{k>=2} (-1)^k d^k / (k(k-1)), through k = 8
        d = delta[near]
        series = np.zeros_like(d)
        for k in range(8, 1, -1):
            series = series * d + (-1) ** k / (k * (k - 1))
        out[near] = out[near] * d * d * series
        d = delta[rest]
        out[rest] *= (1.0 + d) * np.log1p(d) - d
    return out
