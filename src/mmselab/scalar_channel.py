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
    NonConvergence,
    NumericsError,
    QuadratureConfig,
    _check_snr,
    _in_range,
    derivative_at_zero,
    derivative_nodes,
    integrate,
    kl_integrand_from_logs,
)
from .sources import ScalarSource

__all__ = [
    "ScalarChannel",
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
# First step h0 of the divergence derivative schedule (see
# divergence_derivatives_at_zero).
_DERIVATIVE_STEP = 0.05


@dataclass(frozen=True)
class ScalarChannel:
    """A standardized source observed through unit Gaussian noise at snr q."""

    source: ScalarSource
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _check_snr(self.q))
        if not self.source.is_standard:
            raise ValueError(f"source {self.source.name!r} is not standardized")


def conditional_mean(ch: ScalarChannel, y):
    """Bayes estimate E[X | Y = y] (vectorized); 0 where the density underflows.

    The ratio cross / p of the output and cross densities, both from one
    kernel evaluation over all of y.  Its temporaries grow with y.size:
    bulk callers pass y in blocks, as the Monte Carlo oracle does.
    """
    y = np.asarray(y, dtype=float)
    p, a = ch.source._kernel(y.ravel(), ch.q, cross=True)
    out = np.divide(a, p, out=np.zeros_like(p), where=p > _P_FLOOR)
    return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)


def _channel_integrals(src: ScalarSource, parts, cfg: QuadratureConfig, *, per_q=False) -> list:
    """Values of ``parts``, (quantity, q) pairs of one law, from one batch of integrals over y.

    A quantity is ``"mmse"`` or ``"nongaussianity"``.  Parts at q = 0 take
    their exact values 1 and 0.  The rest are the components of vector
    integrals, run as one :func:`~mmselab.numerics.integrate` batch, each
    integral on the domain and breakpoints of its largest q: one integral
    for all of them, or with ``per_q`` one for each distinct q, with the
    panels, and the values, of its lone call.  Each pass gives the kernels
    the one integral's nodes with its q as a column, or with ``per_q`` the
    nodes of every open integral at once, one q per node, so each output
    density is evaluated once per node and q for both quantities.  The
    mmse integrand is cross^2 / p, and the divergence integrand the
    pointwise-nonnegative ``p ln(p/g) - p + g`` of :func:`nongaussianity`.

    Raises
    ------
    ValueError
        If the law is not standardized, whatever the q.
    NumericsError
        Once every integral has closed, for the first part, in order, whose
        integral failed or whose value lies outside [0, 1/(1+q)] (mmse) or
        [0, ln(1+q)/2] (divergence) by more than its error bound; a
        ``NonConvergence`` names the law and the q of its integral's worst
        component.
    """
    if not src.is_standard:
        raise ValueError(f"source {src.name!r} is not standardized")
    values = [1.0 if quantity == "mmse" else 0.0 for quantity, _ in parts]
    integrals = {}  # integral key -> indices of its parts, in order
    for i, (_, q) in enumerate(parts):
        if q > 0.0:
            integrals.setdefault(q if per_q else None, []).append(i)
    if not integrals:
        return values
    members = list(integrals.values())
    qs = [sorted({parts[i][1] for i in member}) for member in members]
    live = {parts[i][0] for member in members for i in member}
    kinds = [kind for kind in ("mmse", "nongaussianity") if kind in live]
    picks = [  # the (quantity, q) rows of each integral's components in its block of terms
        (
            np.array([kinds.index(parts[i][0]) for i in member]),
            np.array([rows.index(parts[i][1]) for i in member]),
        )
        for member, rows in zip(members, qs)
    ]
    row_q = np.array([q for rows in qs for q in rows])  # one q per integral with per_q
    row_log_norm = np.array([-0.5 * math.log(2.0 * math.pi * (1.0 + q)) for q in row_q.tolist()])

    def integrand(ys: list) -> list:
        if per_q:  # every open integral's nodes, one q per node
            sizes = [y.size for y in ys]
            y = np.concatenate(ys)
            q, log_norm = np.repeat(row_q, sizes), np.repeat(row_log_norm, sizes)
        else:  # the one integral's nodes at each of its q
            (y,) = ys
            q, log_norm = row_q[:, None], row_log_norm[:, None]
        p = src.output_density(y, q)
        terms = []
        if "mmse" in kinds:
            a = src.cross_density(y, q)
            terms.append(np.divide(a * a, p, out=np.zeros_like(p), where=p >= _P_FLOOR))
        if "nongaussianity" in kinds:
            # log-ratio form: the matched Gaussian may underflow on the wide
            # domains needed for slowly decaying output tails; where p is
            # below the floor, ln p = -inf makes the term g
            log_p = np.log(p, out=np.full_like(p, -np.inf), where=p >= _P_FLOOR)
            terms.append(kl_integrand_from_logs(log_p, log_norm - 0.5 * y * y / (1.0 + q)))
        terms = np.stack(terms).reshape(len(kinds), -1)  # node by node, q row by q row
        out, start = [], 0
        for node, rows, pick in zip(ys, qs, picks):
            stop = start + len(rows) * node.size
            out.append(terms[:, start:stop].reshape(len(kinds), len(rows), node.size)[pick])
            start = stop
        return out

    domains, breakpoints = zip(*(src.output_panels(rows[-1]) for rows in qs))
    results = integrate(integrand, domains, cfg, breakpoints=breakpoints)
    at = {i: (j, c) for j, member in enumerate(members) for c, i in enumerate(member)}
    for i, (quantity, q) in enumerate(parts):
        if i not in at:
            continue
        j, c = at[i]
        result = results[j]
        if isinstance(result, NonConvergence):
            quantity, q = parts[members[j][result.component]]
            raise NonConvergence(f"{quantity} of law {src.name!r} at q={q!r}: {result}") from result
        if isinstance(result, NumericsError):
            raise result
        v, e = result.value[c], result.error[c]
        if quantity == "mmse":
            values[i] = _in_range("mmse", 1.0 - v, e, src.name, f"q={q!r}", gaussian_mmse(q))
        else:
            values[i] = _in_range("nongaussianity", v, e, src.name, f"q={q!r}", 0.5 * math.log1p(q))
    return values


def mmse(ch: ScalarChannel, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Minimum mean-square error of estimating X from Y, in [0, 1/(1+q)].

    Uses the conditional-mean identity
    ``mmse = EX^2 - E[(E[X|Y])^2] = 1 - int cross^2 / p dy``
    so only a single one-dimensional integral is needed.

    Raises
    ------
    NumericsError
        If the value lies outside [0, 1/(1+q)] by more than the integral's
        error bound, besides the failures of
        :func:`~mmselab.numerics.integrate`.
    """
    return _channel_integrals(ch.source, [("mmse", ch.q)], cfg)[0]


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
    try:
        return 1.0 - q + q * q - c3 * q**3
    except OverflowError:  # q**3 past the float range: the cubic's limit
        return -math.copysign(math.inf, c3)


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

    Raises
    ------
    NumericsError
        If the value lies outside [0, ln(1+q)/2] by more than the
        integral's error bound, besides the failures of
        :func:`~mmselab.numerics.integrate`.
    """
    return _channel_integrals(ch.source, [("nongaussianity", ch.q)], cfg)[0]


def divergence_derivatives_at_zero(
    src: ScalarSource, orders=(1, 2, 3, 4)
) -> list[DerivativeEstimate]:
    """One-sided derivatives of q -> nongaussianity(src, q) at q = 0.

    The order-k stencil reaches q = k * h0 with h0 = ``_DERIVATIVE_STEP``,
    and all of it must lie where the low-snr series of D is already
    asymptotic: coarse tableau rows built outside that regime can agree by
    accident, which the tableau's error indicator mistakes for
    convergence.  Laws with fast-growing moments (the standardized
    exponential) leave the regime early, hence the start at 0.05 rather
    than the generic 0.2 of :func:`~mmselab.numerics.derivative_at_zero`.

    The divergences at every q of the requested orders' stencils (up to
    14) are one vector integral at ``DIVERGENCE_QUADRATURE``, each held to
    its own tolerance, on the panels of the largest q; the tableaux read
    them.
    """
    qs = derivative_nodes(orders, _DERIVATIVE_STEP)
    parts = [("nongaussianity", q) for q in qs]
    curve = dict(zip(qs, _channel_integrals(src, parts, DIVERGENCE_QUADRATURE)))
    return [
        derivative_at_zero(
            curve.__getitem__, order, DIVERGENCE_QUADRATURE, initial_step=_DERIVATIVE_STEP
        )
        for order in orders
    ]
