import math
import tracemalloc

import numpy as np
import pytest

from mmselab import ct_verify
from mmselab.cli import EXIT_NUMERICAL, main
from mmselab.ct_verify import (
    IllConditioned,
    KalmanSetup,
    McConfig,
    _MC_BLOCK,
    _basis_matrix,
    kalman_cmmse,
    kalman_mmse,
    mc_scalar_mmse,
)
from mmselab.numerics import NumericsError
from mmselab.scalar_channel import ScalarChannel, conditional_mean, mmse
from mmselab.sources import (
    builtin_sources,
    expstd,
    from_atoms,
    gaussian,
    gaussian_mixture,
    rademacher,
    uniform,
)
from mmselab.tone_channel import gaussian_cmmse, gaussian_mmse_tone


def test_setup_validation():
    with pytest.raises(ValueError):
        KalmanSetup(1, 1.0, 64)  # fewer than 100 steps
    with pytest.raises(ValueError):
        KalmanSetup(0, 1.0, 256)
    with pytest.raises(ValueError, match="exceed 2 n_tones = 128"):
        KalmanSetup(64, 1.0, 128)  # 64 tones alias on 128 samples
    assert KalmanSetup(64, 1.0, 129).n_steps == 129
    s = KalmanSetup(2, 1.0, 512)
    assert s.n_steps == 512
    assert s.dt == 2 * math.pi / 512


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(sample_count=100)


def test_kalman_zero_snr_returns_energy():
    # exactly the prior energy: the smoothing solve rounds to a few ulp
    # above 1, the bound that every mmse must meet
    for n in (1, 2, 3, 5, 16):
        for steps in (100, 128, 256, 1000, 2048, 4096, 8192):
            setup = KalmanSetup(n, 0.0, steps)
            assert kalman_cmmse(setup) == 1.0
            assert kalman_mmse(setup) == 1.0, (n, steps)


@pytest.mark.parametrize("q", [1e-320, 1e-310, 1e-300, 1e-20, 1e-15])
def test_kalman_tiny_snr_stays_within_the_prior_energy(q):
    # q dt underflowed to a subnormal (cmmse 0 or 1.0118577075098814 at
    # q = 1e-320), and at every q up to about 1e-14 one error rounded 1-2
    # ulp above 1; below N eps/2 both are 1, the correctly rounded value
    for n in (1, 2, 5, 16):
        for steps in (2048, 8192):
            setup = KalmanSetup(n, q, steps)
            cm, mm = kalman_cmmse(setup), kalman_mmse(setup)
            assert 0.0 <= mm <= cm <= 1.0, (n, steps)
            if q < 0.5 * n * np.finfo(float).eps:
                assert cm == mm == 1.0, (n, steps)


def test_kalman_error_past_the_prior_energy_raises(monkeypatch):
    # a smoothing error three times the prior energy is no rounding
    monkeypatch.setattr(ct_verify, "_basis_matrix", lambda *args: math.sqrt(3.0) * _basis_matrix(*args))
    with pytest.raises(NumericsError, match=r"Kalman smoothing error of N=2 .* q=1e-06"):
        kalman_mmse(KalmanSetup(2, 1e-6, 256))


@pytest.mark.parametrize("n,q", [(1, 2.0), (2, 2.0), (4, 1.0)])
def test_kalman_matches_closed_forms_after_extrapolation(n, q):
    coarse = KalmanSetup(n, q, 4096)
    fine = KalmanSetup(n, q, 8192)
    cm = 2 * kalman_cmmse(fine) - kalman_cmmse(coarse)
    mm = 2 * kalman_mmse(fine) - kalman_mmse(coarse)
    assert cm == pytest.approx(gaussian_cmmse(q / n), abs=1e-3)
    assert mm == pytest.approx(gaussian_mmse_tone(q / n), abs=1e-3)


def test_kalman_first_order_in_dt():
    n, q = 1, 2.0
    gaps = []
    for steps in (1024, 2048, 4096):
        setup = KalmanSetup(n, q, steps)
        gaps.append(abs(kalman_cmmse(setup) - gaussian_cmmse(q / n)))
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.1)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.1)


def test_kalman_causal_dominates_noncausal():
    for steps in (512, 1024):
        setup = KalmanSetup(2, 3.0, steps)
        assert kalman_cmmse(setup) >= kalman_mmse(setup)


def test_covariance_stays_psd():
    # a deliberately coarse, high-snr run still gives a positive causal error
    setup = KalmanSetup(4, 50.0, 256)
    assert kalman_cmmse(setup) > 0.0


def test_singular_information_matrix_raises():
    # at q = 1e20 the prior's N I is lost beside q dt h h' in the first steps
    with pytest.raises(IllConditioned, match=r"N=4, q=1e\+20"):
        kalman_cmmse(KalmanSetup(4, 1e20, 512))
    argv = ["kalman", "--n-list", "4", "--q-grid", "1e20", "--base-steps", "512"]
    assert main(argv) == EXIT_NUMERICAL


def _covariance_recursion(setup):
    """(causal, non-causal) errors from the per-step rank-one covariance update."""
    basis = _basis_matrix(setup, 0, setup.n_steps)
    p_cov = np.eye(2 * setup.n_tones) / setup.n_tones
    causal = 0.0
    for row in basis:
        c = math.sqrt(setup.q * setup.dt) * row
        pc = p_cov @ c
        p_cov = p_cov - np.outer(pc, pc) / (1.0 + c @ pc)
        causal += float(row @ p_cov @ row) * setup.dt
    return causal, float(np.einsum("ij,jk,ik->", basis, p_cov, basis)) * setup.dt


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("q", [0.5, 3.0, 50.0])
def test_information_sum_matches_covariance_recursion(n, q):
    setup = KalmanSetup(n, q, 512)
    errors = (kalman_cmmse(setup), kalman_mmse(setup))
    assert errors == pytest.approx(_covariance_recursion(setup), rel=1e-12, abs=0.0)


def _rank_one_causal(n_tones, q, n_steps):
    """Causal error of the rank-one covariance recursion in 60-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(60):
        dt = 2 * mp.pi / n_steps
        q = mpmath.mpf(q)
        d = 2 * n_tones
        p_cov = [[mpmath.mpf(1) / n_tones if i == j else mpmath.mpf(0) for j in range(d)] for i in range(d)]
        scale = 1 / mp.sqrt(2 * mp.pi)
        freqs = range(1, n_tones + 1)
        causal = mpmath.mpf(0)
        for step in range(n_steps):
            t = step * dt
            row = [mp.cos(f * t) * scale for f in freqs] + [mp.sin(f * t) * scale for f in freqs]
            pr = [mp.fsum(a * b for a, b in zip(p_row, row)) for p_row in p_cov]
            gain = q * dt * mp.fsum(a * b for a, b in zip(row, pr))
            causal += gain / (1 + gain) / q
            f = q * dt / (1 + gain)
            p_cov = [[p_cov[i][j] - f * pr[i] * pr[j] for j in range(d)] for i in range(d)]
        return float(causal)


@pytest.mark.parametrize(
    "n,q,reference",
    [(8, 1e18, 1.0143558686995774e-16), (8, 1e12, 1.00549170629842e-10)],
)
def test_high_snr_causal_error_is_accurate_or_raises(n, q, reference):
    # both exited 0 with 3.4e-4 and 5e-9 relative errors before the
    # causal error carried a rounding bound
    assert _rank_one_causal(n, q, 128) == pytest.approx(reference, rel=1e-15)
    try:
        value = kalman_cmmse(KalmanSetup(n, q, 128))
    except IllConditioned as exc:
        assert f"N={n}, q={q!r}" in str(exc)
        argv = ["kalman", "--n-list", str(n), "--q-grid", repr(q), "--base-steps", "128"]
        assert main(argv + ["--dt-levels", "2"]) == EXIT_NUMERICAL
    else:
        assert value == pytest.approx(reference, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("n,q", [(1, 4e9), (4, 1e9), (8, 1e8)])
def test_causal_error_meets_declared_accuracy_below_the_bound(n, q):
    setup = KalmanSetup(n, q, 128)
    assert kalman_cmmse(setup) == pytest.approx(_rank_one_causal(n, q, 128), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("q", [1e6, 1e12, 1e18])
def test_kalman_mmse_exact_at_high_snr(n, q):
    # the full-period grid sums h h' dt to I/2 exactly, so J = (N + q/2) I
    exact = gaussian_mmse_tone(q / n)
    assert kalman_mmse(KalmanSetup(n, q, 512)) == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_mc_gaussian_closed_form():
    est = mc_scalar_mmse(gaussian(), 1.0, McConfig(sample_count=10**6, seed=1))
    assert abs(est.value - 0.5) <= 3 * est.std_error
    assert est.std_error < 2e-3


def test_mc_zero_snr():
    est = mc_scalar_mmse(rademacher(), 0.0, McConfig(sample_count=10**5, seed=2))
    assert abs(est.value - 1.0) <= 3 * est.std_error


def test_mc_reproducible():
    cfg = McConfig(sample_count=10**5, seed=77)
    a = mc_scalar_mmse(rademacher(), 0.5, cfg)
    b = mc_scalar_mmse(rademacher(), 0.5, cfg)
    assert a == b


def test_mc_matches_quadrature_rademacher():
    q = 0.1
    quad_val = mmse(ScalarChannel(rademacher(), q))
    est = mc_scalar_mmse(rademacher(), q, McConfig(sample_count=10**6, seed=31))
    assert abs(est.value - quad_val) <= 3 * est.std_error


def test_mc_consistent_across_builtin_sources():
    for i, src in enumerate(builtin_sources()):
        q = 1.0
        quad_val = mmse(ScalarChannel(src, q))
        est = mc_scalar_mmse(src, q, McConfig(sample_count=2 * 10**5, seed=100 + i))
        assert abs(est.value - quad_val) <= 3 * est.std_error, src.name


_STREAM_LAWS = (
    rademacher(),
    gaussian(),
    uniform(),
    expstd(),
    gaussian_mixture(0.3, -1.0, 0.5, 2.0, 1.2, name="mix-skew"),
    from_atoms([-2.0, -0.5, 0.0, 1.0, 3.0], [0.1, 0.2, 0.3, 0.25, 0.15], name="atoms-5"),
)


@pytest.mark.parametrize("q", [0.0, 0.5, 8.0])
@pytest.mark.parametrize("src", _STREAM_LAWS, ids=lambda src: src.name)
def test_mc_estimate_is_the_full_array_estimate_bit_for_bit(src, q):
    # X and W from the two streams spawned from the seed, one block at a
    # time, each block's numpy mean and squared deviations merged by Chan's
    # update: the streamed estimator gives the same bits, partial last
    # block included, and to a few ulp the mean and standard error of the
    # whole array of squared errors
    n = 10**5 + 7
    x_rng, w_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(123).spawn(2))
    ch = ScalarChannel(src, q)
    mean, m2 = 0.0, 0.0
    blocks = []
    for start in range(0, n, _MC_BLOCK):
        size = min(_MC_BLOCK, n - start)
        x = src.sample(x_rng, size)
        w = w_rng.standard_normal(size)
        sq_err = np.square(x - conditional_mean(ch, w + math.sqrt(q) * x))
        blocks.append(sq_err)
        block_mean = np.mean(sq_err)
        delta = block_mean - mean
        mean += delta * size / (start + size)
        m2 += np.sum(np.square(sq_err - block_mean)) + delta * delta * start * size / (start + size)
    assert n % _MC_BLOCK
    est = mc_scalar_mmse(src, q, McConfig(sample_count=n, seed=123))
    assert est.value == float(mean)
    assert est.std_error == math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    assert est.sample_count == n
    full = np.concatenate(blocks)
    assert est.value == pytest.approx(np.mean(full), rel=1e-13, abs=1e-300)
    assert est.std_error == pytest.approx(np.std(full, ddof=1) / math.sqrt(n), rel=1e-13, abs=1e-300)


def _traced_peak(f) -> int:
    """Peak bytes traced by tracemalloc (numpy reports its buffers) while f runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracles_hold_bounded_memory():
    # the Monte Carlo oracle holds one block whatever the number of draws,
    # and the Kalman oracle one group of chunks whatever the number of steps;
    # scipy.special is imported first, as the uniform and exponential
    # kernels import it on their first call
    import scipy.special  # noqa: F401

    mb = 2**20
    n = 10**6
    for src in (rademacher(), uniform(), expstd()):
        # an untraced call first: the first call at a count leaves some
        # 10 KB in numpy's caches once, a cost of neither the count nor the draws
        mc_scalar_mmse(src, 2.0, McConfig(sample_count=n))
        peaks = [
            _traced_peak(lambda: mc_scalar_mmse(src, 2.0, McConfig(sample_count=count)))
            for count in (n, 4 * n)
        ]
        assert peaks[0] < 4 * mb, src.name
        assert abs(peaks[1] - peaks[0]) < 0.01 * peaks[0], src.name
    for n_tones, steps in ((16, 8192), (16, 32768), (64, 8192)):
        for error in (kalman_cmmse, kalman_mmse):
            peak = _traced_peak(lambda: error(KalmanSetup(n_tones, 3.0, steps)))
            assert peak < 4 * mb, (error.__name__, n_tones, steps)


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("steps", [333, 2048, 8192])
def test_kalman_groups_keep_the_bits(monkeypatch, n, steps):
    # the information sum carried from group to group adds in the order of
    # one cumulative sum over all chunks, so one chunk per group and all
    # chunks in one group give the same bits (333 steps: a partial last chunk)
    setups = [KalmanSetup(n, q, steps) for q in (0.7, 3.3, 1e5)]
    values = [kalman_cmmse(setup) for setup in setups]
    for group in (1, -(-steps // ct_verify._CHUNK_STEPS)):
        monkeypatch.setattr(ct_verify, "_group_chunks", lambda n_tones: group)
        assert [kalman_cmmse(setup).hex() for setup in setups] == [v.hex() for v in values]


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("steps", [333, 2048, 8192])
def test_smoothing_error_takes_the_gram_from_the_causal_pass(n, steps):
    # B'B is the information sum the causal pass carries out of its last
    # group, added chunk by chunk: within 4 ulp of forming it from the
    # whole basis at once
    basis = _basis_matrix(KalmanSetup(n, 1.0, steps), 0, steps)
    gram = basis.T @ basis
    for q in (0.7, 3.3, 1e5):
        setup = KalmanSetup(n, q, steps)
        direct = np.linalg.solve(n * np.eye(2 * n) + q * setup.dt * gram, gram)
        expected = float(np.trace(direct)) * setup.dt
        assert kalman_mmse(setup) == pytest.approx(expected, rel=0.0, abs=4 * math.ulp(expected))
        # the views and the CLI's pass agree bit for bit
        assert ct_verify._kalman_errors(setup) == (kalman_cmmse(setup), kalman_mmse(setup))


def test_kalman_builds_each_basis_row_once(monkeypatch):
    # both errors of a (N, q, dt level) from one pass over its basis rows
    built = []

    def counted(*args):
        rows = _basis_matrix(*args)
        built.append(len(rows))
        return rows

    monkeypatch.setattr(ct_verify, "_basis_matrix", counted)
    argv = ["kalman", "--n-list", "1,4", "--q-grid", "0.5,3.3", "--base-steps", "256", "--dt-levels", "2"]
    assert main(argv) == 0
    assert sum(built) == 2 * 2 * (256 + 512)
