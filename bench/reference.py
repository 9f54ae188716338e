"""Reference values computed apart from mmselab.

Nothing here imports the program.  Every value comes from the benchmark's
own composite Gauss-Legendre rules over closed-form posteriors, so a check
never compares the program with a copy of itself:

- scalar laws that are Gaussian mixtures (atoms are components of zero
  width): Y given a component is Gaussian, so p(y), E[X|y] and Var[X|y]
  are closed forms and mmse = E Var[X|Y] has no cancellation;
- the uniform law and the standardized exponential: X given Y is a
  truncated normal with closed-form moments;
- any other finite-support density: a two-dimensional tensor rule;
- the single-tone channel: the Rician radial density with
  ``scipy.special.i0e``/``i1e``;
- low-snr derivatives from the law's moments (Guo, Wu, Shamai, Verdu,
  IEEE Trans. IT 2011) and, for a tone, from the Edgeworth term
  kappa_4^2/48 of a rotation-invariant planar law.

The divergence uses D = E ln p(Y) + (1/2) ln(2 pi e (1 + q)), which holds
because E Y^2 = 1 + q for every standardized law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

_GL_X, _GL_W = leggauss(16)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Beyond 14 standard deviations a Gaussian factor is below 3e-43.
_WINDOW = 14.0


def _panels(a: float, b: float, width: float) -> tuple:
    """Nodes and weights of a composite 16-point Gauss-Legendre rule."""
    count = max(1, math.ceil((b - a) / width))
    edges = np.linspace(a, b, count + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_X).ravel()
    weights = (half[:, None] * _GL_W).ravel()
    return nodes, weights


def _rule(pieces) -> tuple:
    """Concatenate composite rules on (a, b, width) pieces."""
    parts = [_panels(a, b, w) for a, b, w in pieces if b > a]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _merge(windows) -> list:
    windows = sorted(windows)
    merged = [list(windows[0])]
    for a, b in windows[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def _divergence(log_p: np.ndarray, weights: np.ndarray, q: float) -> float:
    p = np.exp(log_p)
    return float(np.dot(weights, p * log_p)) + _HALF_LOG_2PI + 0.5 + 0.5 * math.log1p(q)


# -- scalar laws ------------------------------------------------------------


@dataclass(frozen=True)
class MixtureLaw:
    """Standardized law sum_j w_j N(mu_j, s_j^2); s_j = 0 is an atom.

    ``spec`` is the string the mmselab CLI parses for the same law.
    """

    name: str
    spec: str
    components: tuple

    @classmethod
    def atoms(cls, values, probs, name: str = "", spec: str | None = None) -> "MixtureLaw":
        v = np.asarray(values, dtype=float)
        p = np.asarray(probs, dtype=float)
        m1 = float(p @ v)
        s = math.sqrt(float(p @ v**2) - m1 * m1)
        comps = tuple((float(w), (float(x) - m1) / s, 0.0) for x, w in zip(v, p))
        if spec is None:
            # the standardized values, so that the CLI's standardization
            # keeps them (CHANGES.md, FOUND: nearly coincident atoms)
            spec = "atoms:" + ",".join(f"{x!r},{w!r}" for w, x, _ in comps)
        return cls(name or spec, spec, comps)

    @classmethod
    def two_gaussians(cls, w, mu1, s1, mu2, s2, name: str = "") -> "MixtureLaw":
        comps = ((w, mu1, s1), (1.0 - w, mu2, s2))
        m1 = sum(c[0] * c[1] for c in comps)
        m2 = sum(c[0] * (c[1] ** 2 + c[2] ** 2) for c in comps)
        s = math.sqrt(m2 - m1 * m1)
        spec = "mix:" + ",".join(repr(float(t)) for t in (w, mu1, s1, mu2, s2))
        std = tuple((float(a), (b - m1) / s, c / s) for a, b, c in comps)
        return cls(name or spec, spec, std)

    def moments(self) -> tuple:
        """(EX^3, EX^4) of the standardized law."""
        m3 = sum(w * (mu**3 + 3 * mu * s * s) for w, mu, s in self.components)
        m4 = sum(w * (mu**4 + 6 * mu * mu * s * s + 3 * s**4) for w, mu, s in self.components)
        return m3, m4

    def reference(self, q: float) -> tuple:
        """(mmse, D) at snr q."""
        if q == 0.0:
            return 1.0, 0.0
        sq = math.sqrt(q)
        w = np.array([c[0] for c in self.components])
        mu = np.array([c[1] for c in self.components])
        s2 = np.array([c[2] ** 2 for c in self.components])
        center = sq * mu
        var_y = 1.0 + q * s2
        sd_y = np.sqrt(var_y)
        width = 0.1 * float(sd_y.min())
        windows = _merge([(c - _WINDOW * d, c + _WINDOW * d) for c, d in zip(center, sd_y)])
        y, wt = _rule([(a, b, width) for a, b in windows])
        # log of w_j N(y; c_j, var_j) for every node and component
        dev = y[:, None] - center
        log_terms = np.log(w) - 0.5 * np.log(var_y) - _HALF_LOG_2PI - 0.5 * dev**2 / var_y
        top = log_terms.max(axis=1, keepdims=True)
        post = np.exp(log_terms - top)
        norm = post.sum(axis=1, keepdims=True)
        log_p = (top + np.log(norm))[:, 0]
        post /= norm
        cmean = mu + sq * s2 * dev / var_y
        cvar = s2 / var_y
        mean = (post * cmean).sum(axis=1)
        var = (post * (cvar + (cmean - mean[:, None]) ** 2)).sum(axis=1)
        p = np.exp(log_p)
        return float(np.dot(wt, p * var)), _divergence(log_p, wt, q)


def _truncated_normal_var(alpha, beta):
    """Variance of N(0, 1) truncated to [alpha, beta] (alpha may be -inf)."""
    # standardize each interval to the side where the mass is not in a tail
    flip = alpha > 0
    a = np.where(flip, -beta, alpha)
    b = np.where(flip, -alpha, beta)
    log_mass = special.log_ndtr(b) + np.log(-np.expm1(special.log_ndtr(a) - special.log_ndtr(b)))
    phi_a = np.exp(-0.5 * a * a - _HALF_LOG_2PI - log_mass)
    phi_b = np.exp(-0.5 * b * b - _HALF_LOG_2PI - log_mass)
    a_term = np.where(np.isfinite(a), a, 0.0) * phi_a
    b_term = np.where(np.isfinite(b), b, 0.0) * phi_b
    return 1.0 + a_term - b_term - (phi_a - phi_b) ** 2, log_mass


@dataclass(frozen=True)
class UniformLaw:
    """Standardized uniform law on [-sqrt 3, sqrt 3]."""

    name: str = "uniform"
    spec: str = "uniform"

    def moments(self) -> tuple:
        return 0.0, 9.0 / 5.0

    def reference(self, q: float) -> tuple:
        if q == 0.0:
            return 1.0, 0.0
        sq = math.sqrt(q)
        b = math.sqrt(3.0)
        y, wt = _rule([(-sq * b - _WINDOW, sq * b + _WINDOW, 0.1)])
        # X | y is N(y / sq, 1 / q) truncated to [-b, b]
        var, log_mass = _truncated_normal_var(-sq * b - y, sq * b - y)
        log_p = log_mass - math.log(2.0 * b * sq)
        p = np.exp(log_p)
        return float(np.dot(wt, p * var)) / q, _divergence(log_p, wt, q)


@dataclass(frozen=True)
class ExponentialLaw:
    """Standardized exponential law Exp(1) - 1."""

    name: str = "expstd"
    spec: str = "expstd"

    def moments(self) -> tuple:
        return 2.0, 9.0

    def reference(self, q: float) -> tuple:
        if q == 0.0:
            return 1.0, 0.0
        sq = math.sqrt(q)
        edge = -sq
        y, wt = _rule(
            [
                (edge - _WINDOW, edge + _WINDOW, 0.1),
                (edge + _WINDOW, sq * 50.0 + _WINDOW, max(0.1, 0.05 * sq)),
            ]
        )
        # X | y is N(mu, 1 / q) truncated to [-1, inf), mu = (sq y - 1) / q
        t = y - 1.0 / sq + sq
        var, log_mass = _truncated_normal_var(-t, np.full_like(t, np.inf))
        log_p = -y / sq + 0.5 / q - 1.0 - 0.5 * math.log(q) + log_mass
        p = np.exp(log_p)
        return float(np.dot(wt, p * var)) / q, _divergence(log_p, wt, q)


@dataclass(frozen=True)
class DensityLaw:
    """Standardized law with density ``pdf`` on the finite ``support``.

    ``kinks`` are the points where the density is not smooth.  With a
    ``closed_form`` law the reference comes from it instead of the tensor
    rule.
    """

    name: str
    pdf: object
    support: tuple
    kinks: tuple = ()
    closed_form: object = None

    def _x_rule(self, q: float) -> tuple:
        lo, hi = self.support
        cuts = [lo, *sorted(self.kinks), hi]
        width = min(0.05, 0.1 / math.sqrt(max(q, 1.0)))
        return _rule([(a, b, width) for a, b in zip(cuts[:-1], cuts[1:])])

    def reference(self, q: float) -> tuple:
        if self.closed_form is not None:
            return self.closed_form.reference(q)
        if q == 0.0:
            return 1.0, 0.0
        sq = math.sqrt(q)
        lo, hi = self.support
        x, wx = self._x_rule(q)
        fx = wx * self.pdf(x)
        y, wy = _rule([(sq * lo - 12.0, sq * hi + 12.0, 0.25)])
        m0, m1, m2 = (np.empty_like(y) for _ in range(3))
        for start in range(0, y.size, 512):
            chunk = slice(start, start + 512)
            kern = np.exp(-0.5 * (y[chunk, None] - sq * x) ** 2 - _HALF_LOG_2PI) * fx
            m0[chunk] = kern.sum(axis=1)
            m1[chunk] = kern @ x
            m2[chunk] = kern @ (x * x)
        mean = m1 / m0
        var = np.maximum(m2 / m0 - mean * mean, 0.0)
        return float(np.dot(wy, m0 * var)), _divergence(np.log(m0), wy, q)


def uniform_pdf(x):
    b = math.sqrt(3.0)
    return np.where(np.abs(x) <= b, 0.5 / b, 0.0)


def triangular_pdf(x):
    c = math.sqrt(6.0)
    return np.maximum(c - np.abs(x), 0.0) / (c * c)


CUSTOM_UNIFORM = DensityLaw(
    "custom-uniform", uniform_pdf, (-math.sqrt(3.0), math.sqrt(3.0)), closed_form=UniformLaw()
)
CUSTOM_TRIANGULAR = DensityLaw(
    "custom-triangular", triangular_pdf, (-math.sqrt(6.0), math.sqrt(6.0)), kinks=(0.0,)
)


def derivatives_at_zero(m3: float, m4: float) -> tuple:
    """D'(0), D''(0), D'''(0), D''''(0) of a standardized scalar law."""
    return 0.0, 0.0, 0.5 * m3 * m3, 0.5 * (m4 * m4 - 6.0 * m4 - 12.0 * m3 * m3 + 9.0)


# -- tones --------------------------------------------------------------------


@dataclass(frozen=True)
class MagnitudeLaw:
    """Per-tone amplitude law on magnitudes ``a`` with E a^2 = 1."""

    spec: str
    magnitudes: tuple

    @classmethod
    def two(cls, a1: float, p1: float) -> "MagnitudeLaw":
        a2 = math.sqrt((1.0 - p1 * a1 * a1) / (1.0 - p1))
        mags = ((a1, p1), (a2, 1.0 - p1))
        return cls("mags:" + ",".join(f"{a!r},{p!r}" for a, p in mags), mags)

    def fourth_derivative_at_zero(self) -> float:
        """D''''(0) = (3/16)(E a^4 - 2)^2.

        A rotation-invariant planar law with E|S|^2 = 1 has cumulant tensor
        kappa_ijkl = (E a^4 / 8 - 1/4)(d_ij d_kl + d_ik d_jl + d_il d_jk), so
        the Edgeworth term sum kappa^2 / 48 gives D = (E a^4 - 2)^2 q^4 / 128
        + O(q^5); odd cumulants vanish with the uniform phase.
        """
        a4 = sum(p * a**4 for a, p in self.magnitudes)
        return 3.0 / 16.0 * (a4 - 2.0) ** 2

    def reference(self, x: float) -> tuple:
        """(mmse, D) of one tone at per-tone snr x."""
        if x == 0.0:
            return 1.0, 0.0
        a = np.array([m[0] for m in self.magnitudes])
        p = np.array([m[1] for m in self.magnitudes])
        sx = math.sqrt(x)
        r, wt = _rule([(0.0, sx * float(a.max()) + _WINDOW, 0.25)])
        arg = r[:, None] * a * sx
        # log of p_k exp(-(r - a_k sx)^2 / 2) I0(a_k sx r), without the factor r
        log_terms = np.log(p) - 0.5 * (r[:, None] - a * sx) ** 2 + np.log(special.i0e(arg))
        top = log_terms.max(axis=1, keepdims=True)
        post = np.exp(log_terms - top)
        norm = post.sum(axis=1, keepdims=True)
        log_f = (top + np.log(norm))[:, 0]
        post /= norm
        ratio = special.i1e(arg) / special.i0e(arg)
        est = (post * a * ratio).sum(axis=1)
        f = r * np.exp(log_f)
        half_var = 1.0 + 0.5 * x
        mmse = 1.0 - float(np.dot(wt, f * est * est))
        div = float(np.dot(wt, f * (log_f + math.log(half_var) + r * r / (2.0 * half_var))))
        return mmse, div


UNIT = MagnitudeLaw("unit", ((1.0, 1.0),))


def gaussian_tone_errors(n: int, q: float) -> tuple:
    """(cmmse, mmse) of the Gaussian-amplitude N-tone signal."""
    x = q / (2.0 * n)
    return math.log1p(x) / x, 1.0 / (1.0 + x)
