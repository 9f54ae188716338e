"""Two verification paths for the channel error formulas.

- :func:`kalman_cmmse` / :func:`kalman_mmse`: exact error covariances of the
  Gaussian-amplitude tone signal on the 2N static Fourier coefficients, from
  their own basis, in one pass over its rows.  The causal error is a sum
  over innovations: each chunk of steps takes the variances of its
  measurement innovations from one Cholesky factorization, given the
  information matrix at the chunk's start.  The chunks run in groups, each
  building only its own basis rows, so memory is bounded per group
  whatever the number of steps; the information sum carries from group to
  group in the order of one cumulative sum, so the grouping leaves every
  bit of the value.  The pass ends holding that sum over all steps, B'B,
  and the non-causal error is one solve with the final information matrix
  built on it.  Error covariances of a linear-Gaussian model are data
  independent, so no sampling is involved, and because the state is static
  the smoothing covariance equals the final filtering covariance.  With more than 2N steps the sampled tones
  are orthogonal, dt B'B = I/2 up to rounding, so the non-causal error is
  its closed form at every dt: a check of that discrete orthogonality.
  The causal error is the independent check of the Gaussian tone errors.
- :func:`mc_scalar_mmse`: seeded Monte Carlo estimate of the scalar-channel
  error E[(X - E[X|Y])^2] with its standard error, from the kernels the
  quadrature uses: a check of the y-integration and panels, not the kernels.
  X and W come from two independent streams spawned from the seed and are
  drawn one block at a time; each block's mean and sum of squared
  deviations merge into the running ones, so memory is one block of
  temporaries whatever the number of draws.

The N tones have frequencies 1..N on the horizon ``HORIZON`` = 2 pi, which
makes them orthogonal; neither enters the error formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError, _check_snr, _in_range
from .scalar_channel import ScalarChannel, conditional_mean
from .sources import ScalarSource

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
# N = 16.  Of 16-96, 32 was the fastest for N = 1..16 at 2048-8192 steps.
# The chunks run in groups of _group_chunks(N), so that each per-chunk
# stack of a group, (2N)^2, 2N B or B^2 doubles a chunk, holds at most
# _GROUP_DOUBLES doubles (256 KB): a group is 1024 steps up to N = 16.
_CHUNK_STEPS = 32
_GROUP_DOUBLES = 2**15
# Draws per Monte Carlo block.  A block's temporaries, about 0.5 MB in
# 64 KB arrays, are reused from the heap block after block.  At 2**15
# draws, about 2 MB, glibc gave them back to the system after each block
# and faulted them in again: about 16 000 minor page faults per 10**6
# draws in a fresh process.  Where no faults occur, 2**15 is about 5%
# faster per draw.
_MC_BLOCK = 2**13
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
        if self.n_steps <= 2 * self.n_tones:
            # fewer samples than 2N alias the tones onto each other
            raise ValueError(f"n_steps must exceed 2 n_tones = {2 * self.n_tones}")

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


def _basis_matrix(setup: KalmanSetup, first: int, n_rows: int) -> np.ndarray:
    """Rows h(t_j) = sqrt(1/T)[cos(w_k t_j).., sin(w_k t_j)..] at left endpoints.

    The ``n_rows`` rows of steps ``first``, ``first`` + 1, .., zero past the
    last step.
    """
    n, steps = setup.n_tones, setup.n_steps
    t = np.arange(first, min(first + n_rows, steps)) * setup.dt
    omega = 2.0 * math.pi * np.arange(1, n + 1) / HORIZON
    phases = np.outer(t, omega)
    rows = np.zeros((n_rows, 2 * n))
    rows[: t.size, :n] = np.cos(phases)
    rows[: t.size, n:] = np.sin(phases)
    rows /= math.sqrt(HORIZON)
    return rows


def _group_chunks(n_tones: int) -> int:
    """Chunks per group of the innovations form (see ``_CHUNK_STEPS``)."""
    return max(1, _GROUP_DOUBLES // max(2 * n_tones, _CHUNK_STEPS) ** 2)


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
        "gaussian", f"q={setup.q!r}", 1.0,
    )


def _kalman_errors(setup: KalmanSetup, causal: bool = True) -> tuple:
    """(causal, smoothing) time-integrated errors of the Gaussian tone signal.

    State: 2N static coefficients, prior N(0, I/N); per-step scalar
    measurement row sqrt(q dt) h(t_j) with unit noise variance.  The error
    covariance after step j is the inverse of J_j = N I + q dt sum_{i<=j}
    h_i h_i', and the causal error integrates h_j' J_j^-1 h_j dt.  With the
    innovation variance 1 + x_j, x_j = q dt h_j' J_{j-1}^-1 h_j, that term
    is x_j / (1 + x_j) / q.  The smoothing error is dt trace(J^-1 B'B),
    with J = N I + q dt B'B the final information matrix, B the basis rows.

    Innovations form: for a chunk of B rows H starting at step s, with
    P = J_s^-1, the innovations of the chunk's measurements have covariance
    S = I + G, G = q dt H P H', and in its Cholesky factor S = L L' the
    pivot L_kk^2 is 1 + x_k.  Where L_kk^2 > 2, x_k = L_kk^2 - 1; elsewhere
    x_k = G_kk - sum_{m<k} L_km^2, which keeps relative accuracy at low q.
    The chunks are factored in batches of ``_group_chunks(N)``, each
    with the J_s of its chunks from a cumulative sum of their H'H, whose
    first row is the raw sum carried in from the steps before the group;
    a partial last chunk is padded with zero rows, whose x is 0.  The sum
    carried out of the last group is B'B.

    Rounding: J_s has eigenvalues in [N, N (1 + q)] and G_kk <= q / steps,
    so the causal error's relative error is of order (1 + q) eps.  Past
    ``_CAUSAL_REL_TOL`` that bound raises IllConditioned rather than
    return a value it does not hold (q above about 4.5e9).  With
    ``causal`` false the innovations are skipped, the bound is not
    checked and the causal error is None.  The smoothing solve rounds up
    to 2 ulp above the prior energy at low q.  A value past [0, 1] by
    more than the bound raises ``NumericsError``; within it, it is clamped.
    """
    n, dt, q = setup.n_tones, setup.dt, setup.q
    if _prior_rounds(setup):
        return 1.0, 1.0  # the prior energy: sum_j |h_j|^2 dt / N = 1
    bound = (1.0 + q) * _EPS
    if causal and bound > _CAUSAL_REL_TOL:
        raise IllConditioned(
            f"causal error of N={n}, q={q!r}: rounding bound {bound:.1e} "
            f"exceeds {_CAUSAL_REL_TOL:.0e}"
        )
    b = _CHUNK_STEPS
    chunks = -(-setup.n_steps // b)
    group = _group_chunks(n)
    diag = np.arange(b)
    x = np.empty((chunks, b))
    carry = np.zeros((2 * n, 2 * n))  # sum of h h' over the steps before the group
    for first in range(0, chunks, group):
        rows = _basis_matrix(setup, first * b, min(group, chunks - first) * b).reshape(-1, b, 2 * n)
        cols = rows.transpose(0, 2, 1)
        # J_s: the H'H summed up to each chunk's start, scaled and added to
        # the prior's N I; the last row, which takes the group's last chunk
        # too, is carried to the next group
        info = np.empty((len(rows) + 1, 2 * n, 2 * n))
        info[0] = carry
        np.matmul(cols, rows, out=info[1:])
        np.cumsum(info, axis=0, out=info)
        info, carry = info[:-1], info[-1]
        if not causal:
            continue
        info *= q * dt
        info += n * np.eye(2 * n)
        w = np.linalg.inv(np.linalg.cholesky(info)) @ cols
        g = w.transpose(0, 2, 1) @ w
        g *= q * dt
        g_diag = np.diagonal(g, axis1=1, axis2=2).copy()
        g[:, diag, diag] += 1.0
        chol = np.linalg.cholesky(g)
        pivots = np.square(chol[:, diag, diag])
        chol[:, diag, diag] = 0.0
        lower = np.einsum("cij,cij->ci", chol, chol)
        x[first : first + len(rows)] = np.where(pivots > 2.0, pivots - 1.0, g_diag - lower)
    cmmse = _in_unit_range("causal error", setup, float(np.sum(x / (1.0 + x))) / q) if causal else None
    mmse = float(np.trace(np.linalg.solve(n * np.eye(2 * n) + q * dt * carry, carry))) * dt
    return cmmse, _in_unit_range("smoothing error", setup, mmse)


def kalman_cmmse(setup: KalmanSetup) -> float:
    """Time-integrated filtering (causal) error of the Gaussian tone signal (see _kalman_errors)."""
    return _kalman_errors(setup)[0]


def kalman_mmse(setup: KalmanSetup) -> float:
    """Time-integrated smoothing error of the Gaussian tone signal (see _kalman_errors)."""
    return _kalman_errors(setup, causal=False)[1]


def mc_scalar_mmse(src: ScalarSource, q: float, cfg: McConfig) -> McEstimate:
    """Monte Carlo scalar-channel error over paired draws of (X, W).

    X and W come from two independent streams, the two generators of
    ``SeedSequence(seed).spawn(2)``, one block of ``_MC_BLOCK`` draws at a
    time; W goes into one buffer reused by every block.  Each block's
    squared errors give its mean and sum of squared deviations (two-pass),
    which merge into the running pair by Chan's pairwise update, so only
    one block is held whatever ``sample_count``.
    """
    x_rng, w_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(2))
    n = cfg.sample_count
    ch, sq = ScalarChannel(src, q), math.sqrt(q)
    noise = np.empty(min(n, _MC_BLOCK))
    mean, m2 = 0.0, 0.0
    for start in range(0, n, _MC_BLOCK):
        size = min(_MC_BLOCK, n - start)
        err = src.sample(x_rng, size)
        y = w_rng.standard_normal(out=noise[:size])
        y += sq * err
        err -= conditional_mean(ch, y)
        np.square(err, out=err)
        block_mean = err.sum() / size
        err -= block_mean
        np.square(err, out=err)
        # merged with the first start draws: Chan's update
        delta = block_mean - mean
        mean += delta * size / (start + size)
        m2 += err.sum() + delta * delta * start * size / (start + size)
    std_error = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return McEstimate(value=float(mean), std_error=std_error, sample_count=n)
