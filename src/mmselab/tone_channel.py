"""N-tone interference channel: divergences, exact and asymptotic errors.

The signal is a normalized sum of N orthogonal tones with i.i.d. amplitudes
(E a^2 = 1) and independent uniform phases, observed through white Gaussian
noise at total snr q.  In the Fourier coefficient domain each tone
contributes an independent two-dimensional channel at per-tone snr x = q/N
with input on a circle of radius |a|, so

    dn_divergence(N, q) = N * D(q/N)

where D is the single-tone divergence from the matched Gaussian
N(0, (1+x/2) I_2).  The output law is rotation invariant with radial
density f(r) = E_a[ r exp(-(r^2 + x a^2)/2) I_0(r a sqrt(x)) ] (Rician),
which reduces every single-tone quantity to a one-dimensional radial
integral.  The errors are

    cmmse = (2N/q) ln(1 + q/(2N)) - (2/q) N D(q/N)
    mmse  = 1 - int f(r) E[a I_1/I_0 (r a sqrt(x)) | r]^2 dr

where the mmse integrand is the squared posterior mean of the tone's
coefficient pair.  By the I-MMSE relation (Guo, Shamai, Verdu 2005) the
mmse equals 1/(1 + q/(2N)) - 2 D'(q/N), so both errors reduce to the
Gaussian-amplitude closed forms when D == 0.  Since D(0) = D'(0) = D''(0)
= 0 for every amplitude law (Guo, Wu, Shamai, Verdu 2011), the large-N
expansions are those of the Gaussian amplitude: 1 - q/(4N) and
1 - q/(2N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .numerics import (
    DIVERGENCE_QUADRATURE,
    QuadratureConfig,
    _check_snr,
    integrate,
    kl_integrand_from_logs,
)
from .sources import AmplitudeLaw, unit_amplitude

__all__ = [
    "ToneModel",
    "tone_divergence",
    "dn_divergence",
    "cmmse_exact",
    "mmse_exact",
    "gaussian_cmmse",
    "gaussian_mmse_tone",
    "cmmse_asymptotic",
    "mmse_asymptotic",
    "RateFit",
    "convergence_rate_fit",
]


@dataclass(frozen=True)
class ToneModel:
    """Tone count, total snr and amplitude law.

    The error formulas depend on N and q only: the tones' frequencies
    guarantee orthogonality and never enter them.
    """

    n_tones: int
    q: float
    amplitude_law: AmplitudeLaw = unit_amplitude()

    def __post_init__(self) -> None:
        if self.n_tones < 1:
            raise ValueError("n_tones must be >= 1")
        object.__setattr__(self, "q", _check_snr(self.q))


def _radial_mixture(mags, sq: float, r: float) -> tuple:
    """ln(f(r)/r) and the posterior weights of the magnitudes at radius r.

    Each magnitude contributes p exp(-(r - a sq)^2 / 2) i0e(r a sq) to
    f(r)/r (I0 enters exponentially scaled); the sum is taken in log form.
    """
    terms = [
        math.log(p) - 0.5 * (r - a * sq) ** 2 + math.log(_sp.i0e(r * a * sq))
        for a, p in mags
    ]
    m = max(terms)
    scaled = [math.exp(t - m) for t in terms]
    total = sum(scaled)
    return m + math.log(total), [s / total for s in scaled]


def tone_divergence(
    law: AmplitudeLaw, q: float, cfg: QuadratureConfig = DIVERGENCE_QUADRATURE
) -> float:
    """Single-tone divergence from the matched Gaussian at snr q."""
    q = _check_snr(q)
    if q == 0.0 or law.kind == "gaussian-pair":
        # Gaussian coefficient pair: the output law *is* the matched Gaussian.
        return 0.0

    mags = law.magnitudes
    sq = math.sqrt(q)
    half_var = 1.0 + 0.5 * q
    log_g_norm = -math.log(half_var)

    def integrand(r: float) -> float:
        log_r = math.log(r)
        log_p = log_r + _radial_mixture(mags, sq, r)[0]
        log_g = log_r + log_g_norm - 0.5 * r * r / half_var
        return kl_integrand_from_logs(log_p, log_g)

    a_max = max(a for a, _ in mags)
    domain = (0.0, sq * a_max + cfg.tail_width * math.sqrt(half_var))
    return max(0.0, integrate(integrand, domain, cfg).value)


def dn_divergence(model: ToneModel, cfg: QuadratureConfig = DIVERGENCE_QUADRATURE) -> float:
    """Total output divergence of the N-tone channel: N * D(q/N)."""
    n = model.n_tones
    return n * tone_divergence(model.amplitude_law, model.q / n, cfg)


def cmmse_exact(model: ToneModel, cfg: QuadratureConfig = DIVERGENCE_QUADRATURE) -> float:
    """Causal error of the N-tone signal; 1 at q = 0 (limit value)."""
    q = model.q
    if q == 0.0:
        return 1.0
    n = model.n_tones
    return (2.0 * n / q) * math.log1p(q / (2.0 * n)) - (2.0 / q) * dn_divergence(model, cfg)


def mmse_exact(model: ToneModel, cfg: QuadratureConfig = DIVERGENCE_QUADRATURE) -> float:
    """Non-causal error of the N-tone signal.

    Every tone sees the same channel at per-tone snr x = q/N, so the error
    is the single-tone one: 1 - int f(r) E[a I_1/I_0 (r a sqrt(x)) | r]^2 dr,
    one radial integral of the squared posterior mean (the Gaussian pair
    keeps its closed form 1/(1 + x/2)).

    Raises
    ------
    NonConvergence, NonFinite
        From the radial quadrature, as in :func:`~mmselab.numerics.integrate`.
    """
    law = model.amplitude_law
    x = model.q / model.n_tones
    if x == 0.0 or law.kind == "gaussian-pair":
        return 1.0 / (1.0 + 0.5 * x)

    mags = law.magnitudes
    sq = math.sqrt(x)

    def integrand(r: float) -> float:
        log_f, weights = _radial_mixture(mags, sq, r)
        est = sum(
            w * a * _sp.i1e(r * a * sq) / _sp.i0e(r * a * sq)
            for w, (a, _) in zip(weights, mags)
        )
        return r * math.exp(log_f) * est * est

    a_max = max(a for a, _ in mags)
    return 1.0 - integrate(integrand, (0.0, sq * a_max + cfg.tail_width), cfg).value


def gaussian_cmmse(n: int, q: float) -> float:
    """Causal error of the Gaussian-amplitude signal; 1 at q = 0 (limit)."""
    q = _check_snr(q)
    if q == 0.0:
        return 1.0
    return (2.0 * n / q) * math.log1p(q / (2.0 * n))


def gaussian_mmse_tone(n: int, q: float) -> float:
    """Non-causal error of the Gaussian-amplitude signal: 1/(1 + q/(2N))."""
    q = _check_snr(q)
    return 1.0 / (1.0 + q / (2.0 * n))


def cmmse_asymptotic(n: int, q: float) -> float:
    """Leading large-N behavior of the causal error: 1 - q/(4N)."""
    return 1.0 - 0.25 * q / n


def mmse_asymptotic(n: int, q: float) -> float:
    """Leading large-N behavior of the non-causal error: 1 - q/(2N)."""
    return 1.0 - 0.5 * q / n


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of the error deficit against q/N."""

    kind: str
    coefficient: float
    quadratic: float
    predicted: float
    relative_mismatch: float
    residual_norm: float
    n_values: tuple
    deficits: tuple


def convergence_rate_fit(
    law: AmplitudeLaw,
    n_values,
    q: float,
    kind: str,
    cfg: QuadratureConfig = DIVERGENCE_QUADRATURE,
) -> RateFit:
    """Fit (1 - error) ~ c1 (q/N) + c2 (q/N)^2 over an N sweep.

    The quadratic regressor absorbs the known second-order term of the
    deficit so that ``coefficient`` estimates the leading rate, to be
    compared against 1/4 (cmmse) or 1/2 (mmse), the rates that D''(0) = 0
    gives every amplitude law.  The residual norm reports what is left
    beyond both fitted terms.
    """
    n_values = tuple(int(n) for n in n_values)
    if len(n_values) < 4:
        raise ValueError("need at least 4 tone counts")
    if max(n_values) < 10 * min(n_values):
        raise ValueError("tone counts must span at least one decade")
    if kind not in ("cmmse", "mmse"):
        raise ValueError("kind must be 'cmmse' or 'mmse'")

    error_fn = cmmse_exact if kind == "cmmse" else mmse_exact
    deficits = np.array(
        [1.0 - error_fn(ToneModel(n_tones=n, q=q, amplitude_law=law), cfg) for n in n_values]
    )
    x = q / np.asarray(n_values, dtype=float)
    design = np.column_stack((x, x * x))
    coef, _, _, _ = np.linalg.lstsq(design, deficits, rcond=None)
    resid = deficits - design @ coef
    predicted = 0.25 if kind == "cmmse" else 0.5
    return RateFit(
        kind=kind,
        coefficient=float(coef[0]),
        quadratic=float(coef[1]),
        predicted=float(predicted),
        relative_mismatch=float(abs(coef[0] - predicted) / abs(predicted)),
        residual_norm=float(np.linalg.norm(resid)),
        n_values=n_values,
        deficits=tuple(float(d) for d in deficits),
    )
