"""Independent verification paths for the channel error formulas.

Three tools, none of which share code with the quadrature modules:

- :func:`simulate_path`: Euler discretization of the integrated-observation
  channel  d eta = sqrt(q) xi(t) dt + dW  over one drawn tone signal.
- :func:`kalman_cmmse` / :func:`kalman_mmse`: exact error covariances of the
  Gaussian-amplitude tone signal on the 2N static Fourier coefficients, as
  inverses of running sums of information matrices.  Error covariances of a
  linear-Gaussian model are data independent, so no sampling is involved,
  and because the state is static the smoothing covariance equals the final
  filtering covariance.
- :func:`mc_scalar_mmse`: seeded Monte Carlo estimate of the scalar-channel
  error E[(X - E[X|Y])^2] with its standard error.

The N tones have frequencies 1..N on the horizon ``HORIZON`` = 2 pi, which
makes them orthogonal; neither enters the error formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import NumericsError, _check_snr
from .scalar_channel import ScalarChannel, conditional_mean
from .sources import AmplitudeLaw, ScalarSource

__all__ = [
    "HORIZON",
    "IllConditioned",
    "KalmanSetup",
    "McConfig",
    "PathSample",
    "McEstimate",
    "simulate_path",
    "kalman_cmmse",
    "kalman_mmse",
    "mc_scalar_mmse",
]

HORIZON = 2.0 * math.pi

# Steps per chunk of the information sum.  It bounds the stacked
# (steps, 2N, 2N) arrays: unchunked, N = 16 at 8192 steps needs 64 MB per array.
_CHUNK_STEPS = 128


class IllConditioned(NumericsError):
    """An information matrix is singular to working precision."""


@dataclass(frozen=True)
class KalmanSetup:
    """Tone count, snr and number of time steps of the Kalman oracle."""

    n_tones: int
    q: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_tones < 1:
            raise ValueError("n_tones must be >= 1")
        object.__setattr__(self, "q", _check_snr(self.q))
        if self.n_steps < 100:
            raise ValueError("n_steps must be >= 100")

    @property
    def dt(self) -> float:
        return HORIZON / self.n_steps


@dataclass(frozen=True)
class McConfig:
    sample_count: int = 10**6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_count < 10**4:
            raise ValueError("sample_count must be >= 1e4")


@dataclass(frozen=True)
class PathSample:
    times: np.ndarray
    increments: np.ndarray
    signal: np.ndarray


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    sample_count: int


def _basis_matrix(setup: KalmanSetup) -> np.ndarray:
    """Rows h(t_j) = sqrt(1/T)[cos(w_k t_j).., sin(w_k t_j)..] at left endpoints."""
    t = np.arange(setup.n_steps) * setup.dt
    omega = 2.0 * math.pi * np.arange(1, setup.n_tones + 1) / HORIZON
    phases = np.outer(t, omega)
    return np.hstack((np.cos(phases), np.sin(phases))) / math.sqrt(HORIZON)


def simulate_path(setup: KalmanSetup, law: AmplitudeLaw, rng: np.random.Generator) -> PathSample:
    """One discretized observation path with its drawn tone signal.

    Increments are sqrt(q) xi(t_j) dt + N(0, dt); the signal uses one draw
    of amplitudes/phases per path, energy-normalized over the tone count.
    """
    n, dt = setup.n_tones, setup.dt
    coeff = law.sample_coefficients(rng, n) / math.sqrt(n)  # per-tone (cos, sin) weights
    basis = _basis_matrix(setup) * math.sqrt(2.0)
    signal = basis @ np.concatenate((coeff[:, 0], coeff[:, 1]))
    noise = rng.standard_normal(setup.n_steps) * math.sqrt(dt)
    increments = math.sqrt(setup.q) * signal * dt + noise
    times = np.arange(setup.n_steps) * dt
    return PathSample(times=times, increments=increments, signal=signal)


@lru_cache(maxsize=64)
def _riccati(setup: KalmanSetup) -> tuple:
    """(causal, non-causal) signal-error energies of the Gaussian tone model.

    State: 2N static coefficients, prior N(0, I/N); per-step scalar
    measurement row sqrt(q dt) h(t_j) with unit noise variance.  The error
    covariance after step j is the inverse of J_j = N I + q dt sum_{i<=j}
    h_i h_i', a sum of positive semidefinite terms.  The causal error
    integrates h_j' J_j^-1 h_j over time; the non-causal error uses the final J.
    """
    n, dt = setup.n_tones, setup.dt
    basis = _basis_matrix(setup)
    info = n * np.eye(2 * n)
    causal = 0.0
    try:
        for start in range(0, setup.n_steps, _CHUNK_STEPS):
            rows = basis[start : start + _CHUNK_STEPS]
            running = info + np.cumsum(setup.q * dt * rows[:, :, None] * rows[:, None, :], axis=0)
            gains = np.linalg.solve(running, rows[..., None])[..., 0]  # J_j^-1 h_j
            causal += float(np.sum(rows * gains)) * dt
            info = running[-1]
        smoothed = float(np.trace(np.linalg.solve(info, basis.T @ basis))) * dt
    except np.linalg.LinAlgError:
        raise IllConditioned(f"information matrix of N={n}, q={setup.q!r} is singular") from None
    return causal, smoothed


def kalman_cmmse(setup: KalmanSetup) -> float:
    """Time-integrated filtering error of the Gaussian tone signal."""
    return _riccati(setup)[0]


def kalman_mmse(setup: KalmanSetup) -> float:
    """Time-integrated smoothing error of the Gaussian tone signal."""
    return _riccati(setup)[1]


def mc_scalar_mmse(src: ScalarSource, q: float, cfg: McConfig) -> McEstimate:
    """Monte Carlo scalar-channel error over paired draws of (X, W)."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.sample_count
    x = src.sample(rng, n)
    w = rng.standard_normal(n)
    y = w + math.sqrt(q) * x
    estimate = conditional_mean(ScalarChannel(src, q), y)
    sq_err = np.square(x - estimate)
    value = float(np.mean(sq_err))
    std_error = float(np.std(sq_err, ddof=1) / math.sqrt(n))
    return McEstimate(value=value, std_error=std_error, sample_count=n)
