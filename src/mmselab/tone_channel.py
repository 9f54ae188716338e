"""N-tone interference channel: divergences, exact and asymptotic errors.

The signal is a normalized sum of N orthogonal tones with i.i.d. amplitudes
(E a^2 = 1) and independent uniform phases, observed through white Gaussian
noise at total snr q.  In the Fourier coefficient domain each tone
contributes an independent two-dimensional channel at per-tone snr x = q/N
with input on a circle of radius |a|, so the total output divergence is
N * D(q/N), where D is the single-tone divergence from the matched Gaussian
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
1 - q/(2N).  D'''(0) = 0 as well for phase-uniform tones, so each error
differs from its Gaussian closed form by O(1/N^3).

D and the mmse share one radial integrand, on the domain and ring
breakpoints of ``AmplitudeLaw.output_panels``: :func:`tone_errors` takes
both errors of a point from one two-component integral, each component
held to its own tolerance, while :func:`tone_divergence`,
:func:`cmmse_exact` and :func:`mmse_exact` integrate their one quantity.
A failure names the quantity, the law and the per-tone snr.  The
integrand's ``i0e`` and ``i1e`` come from scipy.special, imported inside
``_radial_integral`` past its closed-form return, so the Gaussian
amplitude never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DIVERGENCE_QUADRATURE,
    NonConvergence,
    QuadratureConfig,
    _check_snr,
    _in_range,
    integrate,
    kl_integrand_from_logs,
)
from .sources import AmplitudeLaw, unit_amplitude

__all__ = [
    "ToneModel",
    "tone_divergence",
    "cmmse_exact",
    "mmse_exact",
    "tone_errors",
    "gaussian_cmmse",
    "gaussian_mmse_tone",
    "cmmse_asymptotic",
    "mmse_asymptotic",
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


def _radial_integral(
    quantities: tuple, law: AmplitudeLaw, x: float, cfg: QuadratureConfig
) -> tuple:
    """Values of ``quantities`` of one tone at per-tone snr x, from one radial integral.

    A quantity is ``"divergence"``, D(x), or ``"mmse"``.  Each is a
    component of one vector integral over the output radius r on
    ``law.output_panels(x)``, held to its own tolerance.  Magnitude a of
    probability p contributes p exp(-(r - a sqrt(x))^2 / 2) i0e(r a sqrt(x))
    to f(r)/r, summed once per node as a logsumexp for all the quantities;
    only the divergence forms its ``kl_integrand_from_logs`` term, and only
    the mmse the posterior mean E[a I1/I0(r a sqrt(x)) | r].  A
    ``NonConvergence`` names the quantity of the failing component, the law
    and x.
    """
    x = _check_snr(x)
    half_var = 1.0 + 0.5 * x
    if x == 0.0 or law.kind == "gaussian-pair":
        # Gaussian coefficient pair: the output law *is* the matched Gaussian.
        return tuple(1.0 / half_var if quantity == "mmse" else 0.0 for quantity in quantities)
    import scipy.special as _sp  # here, not at module level: the Gaussian pair never loads it

    sq = math.sqrt(x)
    a, p = np.array(law.magnitudes).T[:, :, None]
    log_g_norm = -math.log(half_var)

    def integrand(r: np.ndarray) -> np.ndarray:
        z = r * a * sq
        i0e = _sp.i0e(z)
        terms = np.log(p) - 0.5 * np.square(r - a * sq) + np.log(i0e)
        top = terms.max(axis=0)
        scaled = np.exp(terms - top)
        total = scaled.sum(axis=0)
        log_f = top + np.log(total)  # ln(f(r)/r)
        parts = {}
        if "mmse" in quantities:
            mean = (scaled * a * _sp.i1e(z) / i0e).sum(axis=0) / total
            parts["mmse"] = r * np.exp(log_f) * mean * mean
        if "divergence" in quantities:
            log_r = np.log(r)
            parts["divergence"] = kl_integrand_from_logs(
                log_r + log_f, log_r + log_g_norm - 0.5 * r * r / half_var
            )
        return np.stack([parts[quantity] for quantity in quantities])

    domain, breakpoints = law.output_panels(x)
    try:
        est, err = integrate(integrand, domain, cfg, breakpoints=breakpoints)
    except NonConvergence as exc:
        quantity = quantities[exc.component]
        raise NonConvergence(f"tone {quantity} of law {law.name!r} at q={x!r}: {exc}") from exc
    values = []
    for quantity, v, e in zip(quantities, np.ravel(est).tolist(), np.ravel(err).tolist()):
        if quantity == "mmse":
            values.append(_in_range("tone mmse", 1.0 - v, e, law.name, x, 1.0 / half_var))
        else:
            values.append(_in_range("tone divergence", v, e, law.name, x, math.log(half_var)))
    return tuple(values)


def tone_divergence(
    law: AmplitudeLaw, q: float, cfg: QuadratureConfig = DIVERGENCE_QUADRATURE
) -> float:
    """Single-tone divergence from the matched Gaussian at snr q.

    Raises ``NumericsError`` if the integral fails or leaves [0, ln(1 + q/2)],
    the entropy gap of the two-dimensional noise, by more than its error.
    """
    return _radial_integral(("divergence",), law, q, cfg)[0]


def _cmmse(n: int, q: float, divergence: float) -> float:
    """Causal error from the single-tone divergence D(q/N); 1 at q = 0 (limit value).

    The divergence term is divided by q last: 2/q overflows below q of
    about 1e-308, where D is 0.
    """
    if q == 0.0:
        return 1.0
    return gaussian_cmmse(n, q) - 2.0 * n * divergence / q


def cmmse_exact(model: ToneModel, cfg: QuadratureConfig = DIVERGENCE_QUADRATURE) -> float:
    """Causal error of the N-tone signal; 1 at q = 0 (limit value)."""
    n = model.n_tones
    return _cmmse(n, model.q, tone_divergence(model.amplitude_law, model.q / n, cfg))


def mmse_exact(model: ToneModel, cfg: QuadratureConfig = DIVERGENCE_QUADRATURE) -> float:
    """Non-causal error of the N-tone signal.

    Every tone sees the same channel at per-tone snr x = q/N, so the error
    is the single-tone one: 1 - int f(r) E[a I_1/I_0 (r a sqrt(x)) | r]^2 dr,
    one radial integral of the squared posterior mean (the Gaussian pair
    keeps its closed form 1/(1 + x/2)).

    Raises ``NumericsError`` if the integral fails or leaves [0, 1/(1 + x/2)]
    by more than its error.
    """
    return _radial_integral(("mmse",), model.amplitude_law, model.q / model.n_tones, cfg)[0]


def tone_errors(model: ToneModel, cfg: QuadratureConfig = DIVERGENCE_QUADRATURE) -> tuple:
    """``(cmmse, mmse)`` of the N-tone signal, from one radial integral at x = q/N.

    D(x) and the mmse are two components of one integral, each held to its
    own tolerance; the values are those of :func:`cmmse_exact` and
    :func:`mmse_exact` within their error bounds.
    """
    n, q = model.n_tones, model.q
    divergence, mmse = _radial_integral(("divergence", "mmse"), model.amplitude_law, q / n, cfg)
    return _cmmse(n, q, divergence), mmse


def gaussian_cmmse(n: int, q: float) -> float:
    """Causal error of the Gaussian-amplitude signal: (2N/q) ln(1 + q/(2N)).

    1 where x = q/(2N) < eps/2, which the series 1 - x/2 + ... rounds to;
    below q of about 1e-308 N the product would be inf or 0 * inf.
    """
    q = _check_snr(q)
    x = q / (2.0 * n)
    if x < 0.5 * math.ulp(1.0):
        return 1.0
    return (2.0 * n / q) * math.log1p(x)


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
