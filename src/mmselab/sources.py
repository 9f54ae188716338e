"""Input-law registry: standardized scalar laws and tone amplitude laws.

Every registered scalar law X satisfies EX = 0, EX^2 = 1 (within 1e-12) and
carries closed-form third/fourth moments, a seeded sampler, and vectorized
kernels for the additive-noise channel Y = W + sqrt(q) X:

    output_density(y, q) = E_X[ phi(y - sqrt(q) X) ]
    cross_density(y, q)  = E_X[ X * phi(y - sqrt(q) X) ]

with phi the standard normal density, both from one per-kind body.
Discrete, Gaussian and Gaussian mixture laws are one ``mixture`` kind:
components (w, mu, sigma) with sigma >= 0, where sigma = 0 is an atom.
Closed forms are used for every built-in kind; ``custom`` laws take their
kernels from a tensor rule, one vector-valued quadrature over x for each
chunk of nearby output points, and keep bounded memos of their pdf values
and latest output densities.

scipy.special is imported inside the two kernels that evaluate it, the
``uniform`` (``ndtr``) and ``exponential`` (``erfcx``, ``ndtr``) branches,
not at module level: importing this module, and every other law, loads
numpy alone.

The sampler and the kernels work in one pass over their input, with
temporaries in proportion to it; a bulk caller passes blocks, as the
Monte Carlo oracle of :mod:`mmselab.ct_verify` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numerics import TAIL_WIDTH, NonConvergence, NumericsError, QuadratureConfig, integrate

__all__ = [
    "ZeroVariance",
    "ScalarSource",
    "AmplitudeLaw",
    "rademacher",
    "gaussian",
    "uniform",
    "expstd",
    "gaussian_mixture",
    "from_atoms",
    "custom_source",
    "standardize",
    "builtin_sources",
    "parse_source",
    "unit_amplitude",
    "gaussian_pair_amplitude",
    "magnitude_law",
    "parse_amplitude",
]

_STD_TOL = 1e-12
# How far a custom law's pdf may integrate from 1, past its quadrature error bound.
_MASS_TOL = 1e-9
# Inner quadrature of the custom-law kernels and moments: every component
# to 1e-12 relative, down to the underflow floor of the output tails.
_KERNEL_QUADRATURE = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=1000)
# Output points per inner integral of a custom-law kernel.  It bounds the
# (2 x 32, nodes) arrays of a pass; 64 took as long and raised the peak
# memory of a scalar sweep by 0.5 MB.
_CHUNK_POINTS = 32
# Bounds of a custom law's two memos: its pdf's values at this many
# distinct nodes (about 0.1 KB each), and its latest output densities, this
# many floats of points and values.  The pdf memo starts over where it
# would pass its bound; the density memo drops its oldest results.
_PDF_MEMO_NODES = 1 << 13
_DENSITY_MEMO_VALUES = 1 << 15
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class ZeroVariance(ValueError):
    """Raised when a law with zero spread is asked to be standardized."""


def _phi(t):
    return np.exp(-0.5 * np.square(t)) / _SQRT_2PI


def _ndtr_diff(v1, v2):
    """Phi(v2) - Phi(v1) for v1 <= v2, accurate in both tails.

    When both arguments are positive the difference is formed from the
    complementary tail (mirrored), where the terms are far apart in
    magnitude and no cancellation occurs.  With s = -1 there and 1
    elsewhere, s (Phi(s v2) - Phi(s v1)) is both branches in two ``ndtr``
    calls, bit for bit: negation is exact, a - b = -(b - a), and adding
    0.0 turns the -0.0 of equal terms into +0.0.
    """
    import scipy.special as _sp  # here, not at module level: only uniform laws pay for it

    s = np.where(np.asarray(v1) >= 0.0, -1.0, 1.0)
    return s * (_sp.ndtr(s * v2) - _sp.ndtr(s * v1)) + 0.0


@dataclass(frozen=True)
class ScalarSource:
    """A scalar input law.

    kind is one of ``mixture``, ``uniform``, ``exponential``, ``custom``.
    Parameter fields by kind:

    - mixture:     ``components`` = ((weight, mean, sigma), ...) with
      sigma >= 0; a component with sigma = 0 is an atom at its mean
    - uniform:     ``params`` = (lo, hi)
    - exponential: ``params`` = (loc, scale), law of loc + scale * Exp(1)
    - custom:      ``pdf`` (a callable of one point) on a finite ``support``
      (lo, hi), outside which its mass is below the 1e-9 of the mass check
    """

    kind: str
    name: str
    params: tuple = ()
    components: tuple = ()
    pdf: Callable | None = None
    support: tuple = ()
    _moments: tuple = field(default=(), repr=False)
    # a mixture's (3, components) table of weights, means and sigmas, and
    # its normalized cumulative weights, built once for the kernel and sampler
    _mix: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _cdf: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # a custom law's memos: its pdf's values by the bits of their nodes, and
    # its recent output densities by the bits of their (q, y)
    _pdf_memo: dict | None = field(default=None, init=False, repr=False, compare=False)
    _density_memo: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("mixture", "uniform", "exponential", "custom"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "mixture":
            w = np.array([c[0] for c in self.components])
            if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("mixture weights must be >= 0 and sum to 1")
            if any(c[2] < 0 for c in self.components):
                raise ValueError("mixture sigmas must be >= 0")
            table = np.array(self.components).T
            cdf = np.cumsum(table[0])
            cdf /= cdf[-1]
            object.__setattr__(self, "_mix", table)
            object.__setattr__(self, "_cdf", cdf)
        if self.kind == "custom":
            lo, hi = self.support if len(self.support) == 2 else (math.nan, math.nan)
            if not (callable(self.pdf) and -math.inf < lo < hi < math.inf):
                raise ValueError(
                    f"custom law {self.name!r} needs a callable pdf on a finite support"
                    f" (lo, hi) with lo < hi, got pdf {self.pdf!r}, support {self.support!r}"
                )
            object.__setattr__(self, "_pdf_memo", {})
            object.__setattr__(self, "_density_memo", [])
        if not self._moments:
            object.__setattr__(self, "_moments", self._raw_moments())

    # -- moments ---------------------------------------------------------

    def _raw_moments(self) -> tuple:
        """(EX, EX^2, EX^3, EX^4) from closed forms (quadrature for custom)."""
        if self.kind == "mixture":
            acc = [0.0] * 4
            for w, mu, s in self.components:
                v = s * s  # raw moments of N(mu, v)
                g = (mu, mu * mu + v, mu**3 + 3 * mu * v, mu**4 + 6 * mu * mu * v + 3 * v * v)
                for i in range(4):
                    acc[i] += w * g[i]
            return tuple(acc)
        if self.kind == "uniform":
            lo, hi = self.params
            # E X^k = (hi^{k+1} - lo^{k+1}) / ((k+1)(hi - lo))
            return tuple(
                (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo)) for k in (1, 2, 3, 4)
            )
        if self.kind == "exponential":
            # raw moments of Exp(1): 1, 2, 6, 24
            return _affine_moments(*self.params, (1.0, 1.0, 2.0, 6.0, 24.0))
        # custom: x^k = (x+)^k + (-1)^k (x-)^k, nonnegative components, each
        # to its own relative tolerance, however small the moment; last, the
        # pdf's own integral, which must be 1; a negative value is no law's
        powers = np.arange(1, 5)[:, None]

        def f(x):
            p = _pdf_values(self, x)
            if (p < 0.0).any():
                i = int(np.argmax(p < 0.0))
                raise ValueError(f"law {self.name!r}: the pdf is {p[i]:.6g} < 0 at x={x[i]:.17g}")
            halves = np.maximum(np.stack((x, -x)), 0.0)[:, None]  # x+ and x-
            return np.vstack(((halves**powers * p).reshape(8, x.size), p))

        try:
            parts, err = integrate(f, self.support, _KERNEL_QUADRATURE, breakpoints=(0.0,))
        except NumericsError as exc:
            raise _named(exc, f"moments of law {self.name!r}") from exc
        mass = float(parts[8])
        if abs(mass - 1.0) > _MASS_TOL + err[8]:
            raise NumericsError(
                f"law {self.name!r}: the pdf integrates to {mass!r} +- {err[8]:.1e} "
                f"on {self.support}, not to 1 within {_MASS_TOL:.0e}"
            )
        return tuple(float(v) for v in parts[:4] + (-1.0) ** powers[:, 0] * parts[4:8])

    def moment(self, k: int) -> float:
        """Raw moment E X^k for k in 1..4."""
        if k not in (1, 2, 3, 4):
            raise ValueError("k must be in 1..4")
        return self._moments[k - 1]

    @property
    def is_standard(self) -> bool:
        m1, m2 = self._moments[0], self._moments[1]
        return abs(m1) <= _STD_TOL and abs(m2 - 1.0) <= _STD_TOL

    # -- sampling --------------------------------------------------------

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. draws using the supplied generator.

        One pass over n, four float64 a draw at the peak for a mixture:
        bulk callers draw in blocks, as the Monte Carlo oracle does.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "mixture":
            # the components as rng.choice(len(w), n, p=w) draws them, one
            # uniform per draw against the normalized cdf, with a comparison
            # per component in place of its binary search: the same stream
            _, mu, s = self._mix
            u = rng.random(n)
            idx = np.zeros(n, dtype=np.intp)
            for edge in self._cdf[:-1]:
                idx += u >= edge
            x = rng.standard_normal(n)
            x *= s[idx]
            x += mu[idx]
            return x
        if self.kind == "uniform":
            lo, hi = self.params
            return rng.uniform(lo, hi, size=n)
        if self.kind == "exponential":
            loc, s = self.params
            x = rng.standard_exponential(n)
            x *= s
            x += loc
            return x
        raise ValueError("custom sources cannot be sampled")

    # -- channel kernels --------------------------------------------------

    def output_density(self, y, q):
        """E_X[ phi(y - sqrt(q) X) ], vectorized over y.

        q is a float, or an (m, 1) array of positive values with a 1-D y,
        which gives an (m, y.size) array: row i is the call with q[i, 0]
        alone, to rounding.  Or q is an array of positive values with the
        shape of y, one q per point: each run of consecutive points with
        one q has the values, bit for bit, of the call with that q on that
        run alone.  This and :meth:`cross_density` are entry points of one
        per-kind body, in which a float q is a one-row column and one
        evaluation gives both densities.
        """
        return self._kernel(y, q, cross=False)

    def cross_density(self, y, q):
        """E_X[ X * phi(y - sqrt(q) X) ], vectorized over y; q as in :meth:`output_density`.

        The second density of the kernel body, without the output density
        that the body forms on the way (a custom law does not form it).
        """
        return self._kernel(y, q, cross=True, with_p=False)

    def _kernel(self, y, q, cross: bool, with_p: bool = True):
        """The output density p at y, or with ``cross`` the pair (p, cross density), for each q.

        q is as in :meth:`output_density`.  One evaluation gives both
        densities, each bit for bit the value of its lone call; with
        ``with_p`` false it gives the cross density alone.  At q = 0 every
        kind gives phi(y), and EX phi(y) for the cross density.  Otherwise
        each kind forms p on the grid of q rows and points (one row, with
        one q per point), and the cross density from the values behind it:
        a mixture weights each Gaussian component's density by its
        posterior mean, the uniform law reuses its ``ndtr`` difference and
        the exponential law takes p's score identity.  A custom law
        integrates each density by tensor rules of its own, and p's only
        when it is returned.  A run of points that share a per-point q is
        a call of its own: a mixture sums its components in one BLAS
        product per run, as such a product may round its last few points
        its own way, and a custom law takes one tensor rule per run.
        """
        y = np.asarray(y, dtype=float)
        q = np.asarray(q, dtype=float)
        if q.ndim and q.shape == y.shape:  # a row of one q per point
            shape = y.shape
            q = q.reshape(1, -1)
        else:
            shape = y.shape if q.ndim == 0 else (len(q),) + y.shape
            q = q.reshape(-1, 1)
            if q.size == 1 and q[0, 0] == 0.0:
                p = _phi(y).reshape(shape)
                a = self._moments[0] * p
                return (p, a) if cross and with_p else (a if cross else p)
        sq = np.sqrt(q)
        y = y.reshape(-1)
        if self.kind == "mixture":
            # one (m, y.size) slab per component, formed in place, so a bulk
            # call holds one value per point, q and component
            w, mu, s = self._mix[:, :, None, None]
            var = 1.0 + q * s * s
            t = sq * mu - y  # squared below: the sign does not matter
            np.square(t, t)
            np.divide(t, -2.0 * var, t)
            np.exp(t, t)
            np.divide(t, np.sqrt(2.0 * math.pi * var), t)
            runs = _runs(q)
            p = _component_sum(w[:, 0, 0], t, runs)
            if cross:  # times the posterior mean (mu + sqrt(q) sigma^2 y) / var
                post = (sq * s * s) * y
                np.add(post, mu, post)
                np.divide(post, var, post)
                np.multiply(post, t, post)  # into post: into t took 20% longer
                a = _component_sum(w[:, 0, 0], post, runs)
        elif self.kind == "uniform":
            lo, hi = self.params
            v1, v2 = y - sq * hi, y - sq * lo
            d = _ndtr_diff(v1, v2)
            p = d / ((hi - lo) * sq)
            if cross:
                a = y * d + _phi(v2) - _phi(v1)
                a /= (hi - lo) * q
        elif self.kind == "exponential":
            # For X = loc + s*E:  p(y) = erfcx((1/(s*sq) - u)/sqrt2) exp(-u^2/2) / (2 s sq)
            # with u = y - sq*loc.  Past the crossover u > 1/(s*sq) the erfcx
            # form overflows; there the equivalent exponential-tail form
            # exp(1/(2 ssq^2) - u/ssq) Phi(u - 1/ssq) / ssq has a negative
            # exponent and is the stable one.
            # Each point is evaluated in its own branch only.
            import scipy.special as _sp  # here, not at module level: only this law pays for it

            loc, s = self.params
            ssq = s * sq
            u = y - sq * loc
            pos = (1.0 / ssq - u) / math.sqrt(2.0) >= 0.0
            head, tail = u[pos], u[~pos]
            if ssq.size == 1:  # one q: a scalar k spares two gathers of a broadcast one
                k_head = k_tail = ssq.item()
            else:  # each point's own s * sqrt(q)
                k = np.broadcast_to(ssq, u.shape)
                k_head, k_tail = k[pos], k[~pos]
            p = np.empty_like(u)
            p[pos] = (
                _sp.erfcx((1.0 / k_head - head) / math.sqrt(2.0))
                * np.exp(-0.5 * np.square(head))
                / (2.0 * k_head)
            )
            p[~pos] = (
                np.exp(0.5 / (k_tail * k_tail) - tail / k_tail) * _sp.ndtr(tail - 1.0 / k_tail)
                / k_tail
            )
            if cross:
                # score identity: E[X phi] = (p'(y) + y p(y)) / sq with
                # p'(y) = (phi(u) - p)/(s*sq) for the shifted/scaled exponential.
                a = ((_phi(u) - p) / ssq + y * p) / sq
        else:
            p = _custom_density(self, y, q) if with_p else None
            if cross:
                a = _custom_kernel(self, y, q, True)
        if cross and with_p:
            return p.reshape(shape), a.reshape(shape)
        return (a if cross else p).reshape(shape)

    def output_panels(self, q: float) -> tuple:
        """Domain (-R, R) and panel breakpoints of the channel integrals at snr q.

        R = TAIL_WIDTH sqrt(1 + q) + sqrt(q) B, with B a bulk radius of the
        law: P(|X| > B) is negligible at the ``TAIL_WIDTH`` scale.  For a
        custom law B is its farthest end, so its support is covered however
        wide.

        The breakpoints sit at the sharp features of the output density.  A
        feature (mu, sigma) of the law puts a bump or step of width
        sqrt(1 + q sigma^2) at sqrt(q) mu: each mixture component
        (w, mu, sigma) is one (an atom, sigma = 0, a unit-width one), and so
        is each finite end v of a uniform, exponential or custom law, a
        unit-width step.  At high q these features are far narrower than the
        domain, and a panel that merely ends at one can miss it (a uniform
        law from q = 1e7 on, where the first Gauss-Kronrod rule samples only
        the flat top and the tails); breakpoints at 0 and +-8 widths around
        each feature keep it inside two panels.
        """
        if self.kind == "mixture":
            features = [(mu, s) for _, mu, s in self.components]
            bulk = max(abs(mu) + TAIL_WIDTH * s for mu, s in features)
        elif self.kind == "uniform":
            features = [(v, 0.0) for v in self.params]
            bulk = max(abs(v) for v in self.params)
        elif self.kind == "exponential":
            loc, s = self.params
            features = [(loc, 0.0)]
            bulk = abs(loc) + s * (0.5 * TAIL_WIDTH**2 + TAIL_WIDTH)
        else:
            features = [(v, 0.0) for v in self.support]
            bulk = max(abs(v) for v in self.support)
        sq = math.sqrt(q)
        radius = TAIL_WIDTH * math.sqrt(1.0 + q) + sq * bulk
        breakpoints = {
            sq * mu + d * math.sqrt(1.0 + q * s * s) for mu, s in features for d in (-8.0, 0.0, 8.0)
        }
        return (-radius, radius), sorted(breakpoints)


def _affine_moments(loc: float, scale: float, raw: tuple) -> tuple:
    """(EZ, EZ^2, EZ^3, EZ^4) of Z = loc + scale X, from raw = (1, EX, .., EX^4), binomially."""
    return tuple(
        sum(math.comb(k, j) * loc ** (k - j) * scale**j * raw[j] for j in range(k + 1))
        for k in (1, 2, 3, 4)
    )


def _pdf_values(src: ScalarSource, x: np.ndarray) -> np.ndarray:
    """A custom law's density at the points of x, its pdf called once per distinct node.

    The pdf takes one point at a time.  The law keeps its values at up to
    ``_PDF_MEMO_NODES`` distinct nodes, by the bits of the node, and calls
    the pdf only at the nodes of x not among them, so its moments and all
    its kernel calls share them.  Each value is the one a call at that
    point gives: the pdf must be a function of its argument alone.
    """
    memo = src._pdf_memo
    keys = np.ascontiguousarray(x, dtype=float).view(np.int64).tolist()
    distinct = dict.fromkeys(keys)
    new = [key for key in distinct if key not in memo]
    if new:
        if len(memo) + len(new) > _PDF_MEMO_NODES:  # start over, from this call's nodes
            memo.clear()
            new = list(distinct)
        points = np.array(new, dtype=np.int64).view(float).tolist()
        memo.update(zip(new, np.array([src.pdf(v) for v in points], dtype=float).tolist()))
    values = np.fromiter(map(memo.__getitem__, keys), float, len(keys))
    if len(memo) > _PDF_MEMO_NODES:  # this call's nodes alone
        memo.clear()
    return values


def _custom_density(src: ScalarSource, y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """A custom law's output density at the 1-D y for the q of :func:`_custom_kernel`.

    The law keeps its latest results, up to ``_DENSITY_MEMO_VALUES`` floats
    of points and values, oldest dropped first, and a call with the bits of
    a kept (q, y) returns a copy of the kept values: a divergence at the q
    of an mmse just computed repeats the mmse's first pass, and often all.
    """
    key = (q.shape, q.tobytes(), y.tobytes())
    memo = src._density_memo
    for kept, p in memo:
        if kept == key:
            return p.copy()
    p = _custom_kernel(src, y, q, False)
    if y.size + p.size <= _DENSITY_MEMO_VALUES:
        memo.append((key, p.copy()))
        while sum(len(kept[2]) // 8 + values.size for kept, values in memo) > _DENSITY_MEMO_VALUES:
            memo.pop(0)
    return p


def _runs(q: np.ndarray) -> list | None:
    """(start, stop) of each run of points that share a q in a (1, n) row of per-point q.

    None for an (m, 1) column, each of whose q takes every point.
    """
    if q.shape[0] > 1 or q.size == 1:
        return None
    cuts = (np.flatnonzero(q[0, 1:] != q[0, :-1]) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, q.size]))


def _component_sum(w: np.ndarray, slabs: np.ndarray, runs: list | None) -> np.ndarray:
    """The weighted sum of the (components, ...) ``slabs``: one product, or one per run."""
    slabs = slabs.reshape(w.size, -1)
    if runs is None:
        return np.dot(w, slabs)
    return np.concatenate([np.dot(w, slabs[:, i:j]) for i, j in runs])


def _custom_kernel(src: ScalarSource, y: np.ndarray, q: np.ndarray, cross: bool) -> np.ndarray:
    """A custom law's output density (cross density with ``cross``) at the 1-D y, for each q.

    The kernel body's ``custom`` case: q is an (m, 1) column of positive
    values, each taking every point (an (m, y.size) result), or a (1,
    y.size) row of one positive q per point (a y.size result).  Each row
    of a column, and each run of points that share a q in a row, is a
    tensor rule of its own.  Its sorted points go in
    chunks at most 8 TAIL_WIDTH wide and ``_CHUNK_POINTS`` long.  Each
    chunk takes one vector integral over the x window its points see, the
    support cut to [y_min - TAIL_WIDTH, y_max + TAIL_WIDTH] / sqrt(q), with
    the support ends and 0 as breakpoints.  The components are pdf phi for
    every point, or (x+) pdf phi and (x-) pdf phi, whose difference is the
    cross density.  All are nonnegative, so ``_KERNEL_QUADRATURE`` gives
    each point relative accuracy, in the output tails and where the cross
    density changes sign.  The width cap keeps the window narrow at high
    q, where phi(y - sqrt(q) x) is a spike in x; the length cap bounds the
    (components, nodes) block of a pass.

    The chunk integrals of the call run as one :func:`integrate` batch,
    each with the values of its lone call, and each pass looks the pdf up
    once for the nodes of every open chunk.  A failed chunk integral, the
    first in chunk order, is raised naming the law and its q.
    """
    lo, hi = src.support
    runs = _runs(q)
    if runs is None:  # each q of a column at every point
        pieces = [(qv, y, i * y.size) for i, qv in enumerate(q[:, 0].tolist())]
    else:
        qs = q[0].tolist()
        pieces = [(qs[i], y[i:j], i) for i, j in runs]
    out = np.zeros((2 if cross else 1, len(q) * y.size if runs is None else y.size))
    chunks = []  # (q, sqrt(q), slots in out, points as a column, x window)
    for qv, points, offset in pieces:
        sq = math.sqrt(qv)
        order = np.argsort(points, kind="stable")
        ends = np.searchsorted(points[order], points[order] + 8.0 * TAIL_WIDTH, side="right")
        ends = np.minimum(ends, np.arange(points.size) + _CHUNK_POINTS)
        start = 0
        while start < points.size:
            chunk = order[start : ends[start]]
            start = ends[start]
            a = max(lo, (points[chunk[0]] - TAIL_WIDTH) / sq)
            b = min(hi, (points[chunk[-1]] + TAIL_WIDTH) / sq)
            if a < b:
                chunks.append((qv, sq, offset + chunk, points[chunk, None], (a, b)))

    def f(xs: list) -> list:
        p = _pdf_values(src, np.concatenate(xs))
        values, start = [], 0
        for (_, sq, _, yc, _), x in zip(chunks, xs):
            if not x.size:  # a closed chunk
                values.append(None)
                continue
            v = _phi(yc - sq * x) * p[start : start + x.size]
            start += x.size
            if cross:
                v = np.concatenate((v * np.maximum(x, 0.0), v * np.maximum(-x, 0.0)))
            values.append(v)
        return values

    domains = [window for *_, window in chunks]
    results = integrate(f, domains, _KERNEL_QUADRATURE, breakpoints=[(lo, 0.0, hi)] * len(chunks))
    for (qv, _, slots, _, _), result in zip(chunks, results):
        if isinstance(result, NumericsError):
            density = "cross density" if cross else "output density"
            raise _named(result, f"{density} of law {src.name!r} at q={qv!r}") from result
        out[:, slots] = result.value.reshape(len(out), slots.size)
    return (out[0] - out[1] if cross else out[0]).reshape(len(q), -1)


def _named(exc: NumericsError, what: str) -> NumericsError:
    """A copy of the quadrature failure ``exc`` whose message starts with ``what``."""
    message = f"{what}: {exc}"
    if isinstance(exc, NonConvergence):
        return NonConvergence(message, exc.component)
    return type(exc)(message)


# -- constructors ---------------------------------------------------------


def rademacher() -> ScalarSource:
    return ScalarSource(
        kind="mixture", name="rademacher", components=((0.5, -1.0, 0.0), (0.5, 1.0, 0.0))
    )


def gaussian() -> ScalarSource:
    return ScalarSource(kind="mixture", name="gaussian", components=((1.0, 0.0, 1.0),))


def uniform() -> ScalarSource:
    b = math.sqrt(3.0)
    return ScalarSource(kind="uniform", name="uniform", params=(-b, b))


def expstd() -> ScalarSource:
    """Standardized (shifted) exponential: Exp(1) - 1.  EX^3 = 2, EX^4 = 9."""
    return ScalarSource(kind="exponential", name="expstd", params=(-1.0, 1.0))


def from_atoms(values, probs, name: str = "atoms") -> ScalarSource:
    """Discrete law on the given atoms, standardized automatically."""
    raw = ScalarSource(
        kind="mixture",
        name=name,
        components=tuple((float(p), float(v), 0.0) for v, p in zip(values, probs)),
    )
    return standardize(raw)


def gaussian_mixture(weight, mu1, sigma1, mu2, sigma2, name: str = "mixture") -> ScalarSource:
    """Two-component Gaussian mixture, standardized automatically."""
    raw = ScalarSource(
        kind="mixture",
        name=name,
        components=(
            (float(weight), float(mu1), float(sigma1)),
            (1.0 - float(weight), float(mu2), float(sigma2)),
        ),
    )
    return standardize(raw)


def custom_source(pdf, support, name: str = "custom") -> ScalarSource:
    """Standardized law from an arbitrary density (moments by quadrature).

    ``pdf`` takes one point and returns a float >= 0, and must be a
    function of that point alone.  ``support`` is a finite (lo, hi): a
    heavy-tailed density is cut where the mass outside is below the 1e-9
    of the mass check.  The law calls the pdf once per distinct node of
    its quadratures in x, moments and kernels together, keeping up to
    ``_PDF_MEMO_NODES`` (8192) values, and keeps its latest output
    densities, up to ``_DENSITY_MEMO_VALUES`` (32768) floats of points and
    values, for kernel calls that repeat them.  A kernel shares each pdf
    value among a whole chunk of output points.
    """
    raw = ScalarSource(kind="custom", name=name, pdf=pdf, support=tuple(support))
    return standardize(raw)


def standardize(src: ScalarSource) -> ScalarSource:
    """Affinely transformed copy of ``src`` with EX = 0, EX^2 = 1.

    Idempotent: already-standard laws come back unchanged.
    """
    m1 = src._moments[0]
    if src.kind == "mixture":
        # two passes: EX^2 - (EX)^2 cancels for nearly coincident atoms
        var = sum(w * ((mu - m1) ** 2 + sg * sg) for w, mu, sg in src.components)
    else:
        var = src._moments[1] - m1 * m1
    if var <= _STD_TOL:
        raise ZeroVariance(f"law {src.name!r} has vanishing variance {var:.3e}")
    if abs(m1) <= _STD_TOL and abs(var - 1.0) <= _STD_TOL:
        return src
    s = math.sqrt(var)
    if src.kind == "mixture":
        return ScalarSource(
            kind="mixture",
            name=src.name,
            components=tuple((w, (mu - m1) / s, sg / s) for w, mu, sg in src.components),
        )
    if src.kind == "uniform":
        lo, hi = src.params
        return ScalarSource(kind="uniform", name=src.name, params=((lo - m1) / s, (hi - m1) / s))
    if src.kind == "exponential":
        loc, sc = src.params
        return ScalarSource(
            kind="exponential", name=src.name, params=((loc - m1) / s, sc / s)
        )
    base_pdf, (lo, hi) = src.pdf, src.support  # custom
    pdf = lambda x: base_pdf(m1 + s * x) * s
    # the moments of (X - m1)/s from the raw ones, with no second quadrature
    moments = _affine_moments(-m1 / s, 1.0 / s, (1.0, *src._moments))
    return ScalarSource(
        kind="custom",
        name=src.name,
        pdf=pdf,
        support=((lo - m1) / s, (hi - m1) / s),
        _moments=moments,
    )


def builtin_sources() -> tuple:
    """The registered laws used throughout the verification suites."""
    return (
        rademacher(),
        gaussian(),
        uniform(),
        expstd(),
        gaussian_mixture(0.3, -1.0, 0.5, 2.0, 1.2, name="mix-skew"),
        gaussian_mixture(0.5, -1.0, 0.6, 1.0, 0.6, name="mix-sym"),
    )


def parse_source(spec: str) -> ScalarSource:
    """Source from a CLI spec string.

    Accepted: ``rademacher``, ``gaussian``, ``uniform``, ``expstd``,
    ``mix:w,mu1,sigma1,mu2,sigma2``, ``atoms:v1,p1,v2,p2[,...]``.
    Parametric forms are standardized automatically.
    """
    spec = spec.strip()
    simple = {
        "rademacher": rademacher,
        "gaussian": gaussian,
        "uniform": uniform,
        "expstd": expstd,
    }
    if spec in simple:
        return simple[spec]()
    if spec.startswith("mix:"):
        parts = [float(t) for t in spec[4:].split(",")]
        if len(parts) != 5:
            raise ValueError(f"mix spec needs 5 numbers, got {spec!r}")
        return gaussian_mixture(*parts)
    if spec.startswith("atoms:"):
        parts = [float(t) for t in spec[6:].split(",")]
        if len(parts) < 4 or len(parts) % 2:
            raise ValueError(f"atoms spec needs value,prob pairs, got {spec!r}")
        return from_atoms(parts[0::2], parts[1::2])
    raise ValueError(f"unknown source spec {spec!r}")


# -- tone amplitude laws ---------------------------------------------------


@dataclass(frozen=True)
class AmplitudeLaw:
    """Per-tone amplitude law with E a^2 = 1.

    ``magnitudes`` is a discrete law on |a| values, given as (|a|, prob)
    pairs; magnitudes of probability 0 are dropped.  The deterministic
    amplitude a = 1 is the law ((1.0, 1.0),) (the mean-zero condition holds
    for the tone signal itself through its uniform phase, not for a).
    ``gaussian-pair`` is the jointly Gaussian cosine/sine coefficient pair,
    whose channel output is exactly Gaussian.
    """

    kind: str
    name: str
    magnitudes: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian-pair", "magnitudes"):
            raise ValueError(f"unknown amplitude kind {self.kind!r}")
        if self.kind == "magnitudes":
            a = np.array([v for v, _ in self.magnitudes])
            p = np.array([w for _, w in self.magnitudes])
            if np.any(a < 0) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
                raise ValueError("magnitudes must be >= 0 with probabilities summing to 1")
            if abs(float(p @ a**2) - 1.0) > 1e-12:
                raise ValueError("amplitude law must satisfy E a^2 = 1")
            kept = tuple((v, w) for v, w in self.magnitudes if w > 0)
            object.__setattr__(self, "magnitudes", kept)

    def output_panels(self, x: float) -> tuple:
        """Domain (0, R) and ring breakpoints of the radial integrals at per-tone snr x.

        R = sqrt(x) a_max + TAIL_WIDTH sqrt(1 + x/2).  The radial density of
        magnitude a is a unit-width ring at r = a sqrt(x), at high snr far
        narrower than the domain; breakpoints at a sqrt(x) -+ 8 keep each
        ring inside two panels.  Unlike :meth:`ScalarSource.output_panels`
        there is none at the ring itself, which cost the tone derivative
        sets 8% (``unit``) to 21% (two magnitudes) more nodes.
        """
        sq = math.sqrt(x)
        a_max = max((a for a, _ in self.magnitudes), default=0.0)
        domain = (0.0, sq * a_max + TAIL_WIDTH * math.sqrt(1.0 + 0.5 * x))
        return domain, [a * sq + d for a, _ in self.magnitudes for d in (-8.0, 8.0)]


def unit_amplitude() -> AmplitudeLaw:
    return AmplitudeLaw(kind="magnitudes", name="unit", magnitudes=((1.0, 1.0),))


def gaussian_pair_amplitude() -> AmplitudeLaw:
    return AmplitudeLaw(kind="gaussian-pair", name="gaussian")


def magnitude_law(values, probs, name: str = "magnitudes") -> AmplitudeLaw:
    return AmplitudeLaw(
        kind="magnitudes",
        name=name,
        magnitudes=tuple((float(v), float(p)) for v, p in zip(values, probs)),
    )


def parse_amplitude(spec: str) -> AmplitudeLaw:
    """Amplitude law from ``unit``, ``gaussian``, or ``mags:a1,p1,a2,p2[,...]``."""
    spec = spec.strip()
    if spec == "unit":
        return unit_amplitude()
    if spec == "gaussian":
        return gaussian_pair_amplitude()
    if spec.startswith("mags:"):
        parts = [float(t) for t in spec[5:].split(",")]
        if len(parts) < 2 or len(parts) % 2:
            raise ValueError(f"mags spec needs value,prob pairs, got {spec!r}")
        return magnitude_law(parts[0::2], parts[1::2])
    raise ValueError(f"unknown amplitude spec {spec!r}")
