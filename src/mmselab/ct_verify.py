"""Two verification paths for the channel error formulas.

- :func:`kalman_cmmse` / :func:`kalman_mmse`: exact error covariances of the
  Gaussian-amplitude tone signal on the 2N static Fourier coefficients, from
  their own basis: an independent check of the Gaussian tone errors.
  The causal error is a sum over innovations: each chunk of steps takes
  the variances of its measurement innovations from one Cholesky
  factorization, given the information matrix at the chunk's start.  The
  non-causal error is one solve with the final information matrix, whose
  q-free part B'B is cached per (N, steps); neither error is cached, as a
  caller asks for each setup once.  Error
  covariances of a linear-Gaussian model are data independent, so no
  sampling is involved, and because the state is static the smoothing
  covariance equals the final filtering covariance.
- :func:`mc_scalar_mmse`: seeded Monte Carlo estimate of the scalar-channel
  error E[(X - E[X|Y])^2] with its standard error, from the kernels the
  quadrature uses: a check of the y-integration and panels, not the kernels.
  It holds one float64 per draw plus one block of temporaries, and gives
  the bits of drawing and reducing full arrays.

The N tones have frequencies 1..N on the horizon ``HORIZON`` = 2 pi, which
makes them orthogonal; neither enters the error formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import NumericsError, _check_snr, _in_range
from .scalar_channel import ScalarChannel, conditional_mean
from .sources import _BLOCK_POINTS, ScalarSource

__all__ = [
    "HORIZON",
    "IllConditioned",
    "KalmanSetup",
    "McConfig",
    "McEstimate",
    "kalman_cmmse",
    "kalman_mmse",
    "mc_scalar_mmse",
]

HORIZON = 2.0 * math.pi

# Steps per chunk of the innovations form.  The (chunks, B, B) innovation
# covariances hold B = 32 doubles per step, as many as the basis rows at
# N = 16: 2 MB at 8192 steps, where one (2N, 2N) information matrix per
# step would need 64 MB.  Of 16-96, 32 was the fastest for N = 1..16 at
# 2048-8192 steps.
_CHUNK_STEPS = 32
# Declared relative accuracy of the causal error (see kalman_cmmse).
_CAUSAL_REL_TOL = 1e-6
_EPS = float(np.finfo(float).eps)


class IllConditioned(NumericsError):
    """The causal error's rounding bound exceeds its declared accuracy."""


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
class McEstimate:
    value: float
    std_error: float
    sample_count: int


def _basis_matrix(setup: KalmanSetup, n_rows: int | None = None) -> np.ndarray:
    """Rows h(t_j) = sqrt(1/T)[cos(w_k t_j).., sin(w_k t_j)..] at left endpoints.

    With ``n_rows`` the steps are followed by zero rows up to that count.
    """
    n, steps = setup.n_tones, setup.n_steps
    t = np.arange(steps) * setup.dt
    omega = 2.0 * math.pi * np.arange(1, n + 1) / HORIZON
    phases = np.outer(t, omega)
    rows = np.zeros((steps if n_rows is None else n_rows, 2 * n))
    rows[:steps, :n] = np.cos(phases)
    rows[:steps, n:] = np.sin(phases)
    rows /= math.sqrt(HORIZON)
    return rows


def _prior_rounds(setup: KalmanSetup) -> bool:
    """Whether q < N eps/2, where both errors round to the prior energy 1.

    The causal error is 1 - q/(4N) + .. and the smoothing error
    1 - q/(2N) + ..; further down, q dt underflows.
    """
    return setup.q < 0.5 * setup.n_tones * _EPS


def _in_unit_range(quantity: str, setup: KalmanSetup, value: float) -> float:
    """``value`` held to [0, 1], the prior energy, within its rounding bound (1 + q) eps."""
    return _in_range(
        f"Kalman {quantity} of N={setup.n_tones}", value, (1.0 + setup.q) * _EPS,
        "gaussian", setup.q, 1.0,
    )


def kalman_cmmse(setup: KalmanSetup) -> float:
    """Time-integrated filtering (causal) error of the Gaussian tone signal.

    State: 2N static coefficients, prior N(0, I/N); per-step scalar
    measurement row sqrt(q dt) h(t_j) with unit noise variance.  The error
    covariance after step j is the inverse of J_j = N I + q dt sum_{i<=j}
    h_i h_i', and the causal error integrates h_j' J_j^-1 h_j dt.  With the
    innovation variance 1 + x_j, x_j = q dt h_j' J_{j-1}^-1 h_j, that term
    is x_j / (1 + x_j) / q.

    Innovations form: for a chunk of B rows H starting at step s, with
    P = J_s^-1, the innovations of the chunk's measurements have covariance
    S = I + G, G = q dt H P H', and in its Cholesky factor S = L L' the
    pivot L_kk^2 is 1 + x_k.  Where L_kk^2 > 2, x_k = L_kk^2 - 1; elsewhere
    x_k = G_kk - sum_{m<k} L_km^2, which keeps relative accuracy at low q.
    Every chunk is factored in one batch, with J_s from a cumulative sum of
    the chunks' H'H; a partial last chunk is padded with zero rows, whose
    x is 0.

    Rounding: J_s has eigenvalues in [N, N (1 + q)] and G_kk <= q / steps,
    so the relative error is of order (1 + q) eps.  Past ``_CAUSAL_REL_TOL``
    that bound raises IllConditioned rather than return a value it does
    not hold (q above about 4.5e9).  A value past [0, 1] by more than the
    bound raises ``NumericsError``; within it, it is clamped.
    """
    n, dt, q = setup.n_tones, setup.dt, setup.q
    if _prior_rounds(setup):
        return 1.0  # the prior energy: sum_j |h_j|^2 dt / N = 1
    bound = (1.0 + q) * _EPS
    if bound > _CAUSAL_REL_TOL:
        raise IllConditioned(
            f"causal error of N={n}, q={q!r}: rounding bound {bound:.1e} "
            f"exceeds {_CAUSAL_REL_TOL:.0e}"
        )
    b = _CHUNK_STEPS
    rows = _basis_matrix(setup, -(-setup.n_steps // b) * b).reshape(-1, b, 2 * n)
    cols = rows.transpose(0, 2, 1)
    # J_s: the chunks' H'H summed up to each chunk's start (the last chunk's
    # own H'H enters no J_s), scaled and added to the prior's N I
    info = np.empty((len(rows), 2 * n, 2 * n))
    info[0] = 0.0
    np.matmul(cols[:-1], rows[:-1], out=info[1:])
    np.cumsum(info[1:], axis=0, out=info[1:])
    info *= q * dt
    info += n * np.eye(2 * n)
    # each per-chunk stack is dropped once used, so that at most three are
    # held at a time
    factor = np.linalg.cholesky(info)
    del info
    inverse = np.linalg.inv(factor)
    del factor
    w = inverse @ cols
    del inverse, rows, cols
    g = w.transpose(0, 2, 1) @ w
    del w
    g *= q * dt
    g_diag = np.diagonal(g, axis1=1, axis2=2).copy()
    diag = np.arange(b)
    g[:, diag, diag] += 1.0
    chol = np.linalg.cholesky(g)
    del g
    pivots = np.square(chol[:, diag, diag])
    chol[:, diag, diag] = 0.0
    x = np.where(pivots > 2.0, pivots - 1.0, g_diag - np.einsum("cij,cij->ci", chol, chol))
    return _in_unit_range("causal error", setup, float(np.sum(x / (1.0 + x))) / q)


@lru_cache(maxsize=64)
def _gram(n_tones: int, n_steps: int) -> np.ndarray:
    """B'B of the basis rows B, read-only: (2N, 2N), whatever the number of steps."""
    basis = _basis_matrix(KalmanSetup(n_tones, 0.0, n_steps))
    gram = basis.T @ basis
    gram.setflags(write=False)
    return gram


def kalman_mmse(setup: KalmanSetup) -> float:
    """Time-integrated smoothing error of the Gaussian tone signal.

    One solve with the final information matrix J = N I + q dt B'B, B the
    basis rows: the error is dt trace(J^-1 B'B).  B'B does not depend on
    q and is built once per (N, steps).  The solve rounds up to 2 ulp above
    the prior energy at low q, so the value is held to [0, 1] as in
    :func:`kalman_cmmse`.
    """
    n, dt = setup.n_tones, setup.dt
    if _prior_rounds(setup):
        return 1.0
    gram = _gram(n, setup.n_steps)
    value = float(np.trace(np.linalg.solve(n * np.eye(2 * n) + setup.q * dt * gram, gram))) * dt
    return _in_unit_range("smoothing error", setup, value)


def mc_scalar_mmse(src: ScalarSource, q: float, cfg: McConfig) -> McEstimate:
    """Monte Carlo scalar-channel error over paired draws of (X, W).

    The draws of X come first, then those of W, as one long draw of each.
    Only X is held in full (8 bytes per draw): W is drawn block by block,
    which continues the generator's stream exactly, and each block's
    squared errors overwrite its X.  The mean and standard error are those
    of ``np.mean`` and ``np.std(ddof=1)`` bit for bit (the same pairwise
    sums), formed in place.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.sample_count
    x = src.sample(rng, n)
    ch, sq = ScalarChannel(src, q), math.sqrt(q)
    noise = np.empty(min(n, _BLOCK_POINTS))
    for start in range(0, n, _BLOCK_POINTS):
        block = x[start : start + _BLOCK_POINTS]
        y = rng.standard_normal(out=noise[: block.size])
        y += sq * block
        block -= conditional_mean(ch, y)
        np.square(block, out=block)
    mean = x.sum() / n
    x -= mean
    np.square(x, out=x)
    std_error = math.sqrt(x.sum() / (n - 1)) / math.sqrt(n)
    return McEstimate(value=float(mean), std_error=std_error, sample_count=n)
