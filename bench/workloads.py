"""The three workloads: fixed lists of calls into mmselab, drawn from a seed.

A round is one list of calls.  Every round of a run with seed ``s`` draws
its seeded inputs from ``numpy.random.default_rng([s])``: the same seed
gives the same inputs, and each call repeats on the same inputs in every
round, which lets ``run.py`` time a call by the fastest of its repeats.  The one
exception is the Kalman q, which round ``r`` draws from
``default_rng([s, r, 1])``, so no two rounds of a run repeat a
``KalmanSetup`` (the ``lru_cache`` on the Riccati recursion never turns a
later round into a cache hit); the cost of a Kalman call does not depend
on q.  Every round of a workload has the same calls with the same
operation counts and the same known faults, whatever the seed: seeded laws
are used only where every law drawn passes, or fails, the same checks.

One operation is one checked result: a grid row of ``scalar``, ``tones``,
``kalman`` or ``mc-check``, one ``derivatives`` set, one custom-law point
(mmse and divergence) or one tone derivative.  This module does not import
mmselab.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference as ref

WORKLOADS = ("scalar-sweep", "lowsnr-tones", "oracles")
# Workloads whose round is timed call by call, each call by its fastest
# repeat in the run (README, "Metrics").  The calls of lowsnr-tones take
# 2-130 ms and repeat about 25 times a run, so each has repeats that land
# in the shared machine's fast stretches; the 0.1-1.3 s calls of the other
# two repeat 8-10 times, and their fastest repeat varies more from run to
# run than the mean round does (README, "Steadiness and bounds").
FASTEST_REPEAT = ("lowsnr-tones",)

# One point per decade.  Between 2e5 and 1e6 whether an atom law's point
# fails depends on the law (README, "Kept failures"), so no grid point lies
# there; q = 1e6 fails for every atom law tried.
SCALAR_GRID = "1e-2:1e6:9:log"
SCALAR_POINTS = 9
TONE_NS = "1,2,4,8,16,32,64,128,256,512"
KALMAN_NS = "1,2,4,8,16"
MC_SAMPLES = 1_000_000

BUILTIN = (
    ref.MixtureLaw.atoms([-1.0, 1.0], [0.5, 0.5], name="rademacher", spec="rademacher"),
    ref.MixtureLaw("gaussian", "gaussian", ((1.0, 0.0, 1.0),)),
    ref.UniformLaw(),
    ref.ExponentialLaw(),
    ref.MixtureLaw.two_gaussians(0.3, -1.0, 0.5, 2.0, 1.2, name="mix-skew"),
    ref.MixtureLaw.two_gaussians(0.5, -1.0, 0.6, 1.0, 0.6, name="mix-sym"),
)
# D''(0) = 1.07e-4 +- 1.26e-6 against an exact 0 (README, "Kept failures").
SKEWED = ref.MixtureLaw.atoms(
    [1.36, 1.22, -0.51], [0.03, 0.95, 0.02], spec="atoms:1.36,0.03,1.22,0.95,-0.51,0.02"
)
TWO_MAGNITUDES = ref.MagnitudeLaw.two(0.5, 0.5)
# Atom laws are fixed, not seeded: for some random atom laws the q = 1e5
# point fails too (CHANGES.md), so a seeded law would make the failure count
# depend on the seed.  Each of these fails at q = 1e6 and nowhere else.
EXTRA_ATOMS = (
    ref.MixtureLaw.atoms([-1.0, 0.0, 2.0], [0.2, 0.5, 0.3], name="atoms-3"),
    ref.MixtureLaw.atoms([-3.0, -1.0, 1.0, 3.0], [0.25] * 4, name="pam-4"),
    ref.MixtureLaw.atoms([0.0, 1.0], [0.8, 0.2], name="bernoulli-0.2"),
)

# Custom-law points are fixed, not seeded: at isolated q the nested
# quadrature raises NonConvergence (CHANGES.md), so seeded q would make the
# failure count depend on the seed.
CUSTOM_QS = (0.3, 2.0, 8.0)


@dataclass(frozen=True)
class Call:
    """One call into mmselab and the operations it yields.

    kind: ``cli`` (``cli.main(argv)``), ``custom`` (``mmse`` and
    ``nongaussianity`` of ``law`` at each of ``qs``) or ``tone-derivative``
    (``derivative_at_zero`` of ``tone_divergence`` of ``law`` at ``order``).
    ``faults`` are the indices of the operations that fail every time
    because of a named fault in the program.
    """

    kind: str
    law: object
    n_ops: int
    argv: tuple = ()
    qs: tuple = ()
    order: int = 0
    faults: tuple = ()


def _log_uniform(rng, lo: float, hi: float, size: int) -> list:
    """One log-uniform draw in each of ``size`` equal log-bins of [lo, hi].

    The cost of a point grows with q, so stratified draws keep the cost of
    a round close to the same on every round and seed.
    """
    edges = np.linspace(math.log(lo), math.log(hi), size + 1)
    return [float(v) for v in np.exp(rng.uniform(edges[:-1], edges[1:]))]


def _grid(values) -> str:
    return ",".join(repr(v) for v in values)


def random_mixture(rng) -> ref.MixtureLaw:
    return ref.MixtureLaw.two_gaussians(
        rng.uniform(0.2, 0.8),
        rng.uniform(-2.0, 2.0),
        rng.uniform(0.3, 1.5),
        rng.uniform(-2.0, 2.0),
        rng.uniform(0.3, 1.5),
    )


def random_symmetric_mixture(rng) -> ref.MixtureLaw:
    # Skewed random laws are left out: their D'''(0) and D''''(0) miss
    # their own error estimate on some seeds (CHANGES.md, FOUND).
    mu, s = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.0)
    return ref.MixtureLaw.two_gaussians(0.5, -mu, s, mu, s)


def random_magnitudes(rng) -> ref.MagnitudeLaw:
    return ref.MagnitudeLaw.two(rng.uniform(0.2, 0.9), rng.uniform(0.2, 0.8))


def _is_atoms(law) -> bool:
    return isinstance(law, ref.MixtureLaw) and all(s == 0.0 for _, _, s in law.components)


def scalar_sweep(rng, _kalman_rng) -> list:
    laws = list(BUILTIN) + list(EXTRA_ATOMS) + [random_mixture(rng) for _ in range(5)]
    calls = [
        Call(
            "cli",
            law,
            SCALAR_POINTS,
            argv=("scalar", "--source", law.spec, "--q-grid", SCALAR_GRID),
            faults=(SCALAR_POINTS - 1,) if _is_atoms(law) else (),
        )
        for law in laws
    ]
    calls += [
        Call("custom", law, len(CUSTOM_QS), qs=CUSTOM_QS)
        for law in (ref.CUSTOM_UNIFORM, ref.CUSTOM_TRIANGULAR)
    ]
    return calls


def lowsnr_tones(rng, _kalman_rng) -> list:
    laws = list(BUILTIN) + [SKEWED] + [random_symmetric_mixture(rng) for _ in range(4)]
    calls = [
        Call(
            "cli",
            law,
            1,
            argv=("derivatives", "--source", law.spec),
            faults=(0,) if law is SKEWED else (),
        )
        for law in laws
    ]
    # Seeded amplitude laws are left out of the derivatives: on some seeds
    # one of their D'(0)..D''''(0) misses its own error estimate (CHANGES.md).
    calls += [
        Call("tone-derivative", law, 1, order=order)
        for law in (ref.UNIT, TWO_MAGNITUDES)
        for order in (1, 2, 3, 4)
    ]
    amplitudes = [ref.UNIT, TWO_MAGNITUDES] + [random_magnitudes(rng) for _ in range(2)]
    n_count = len(TONE_NS.split(","))
    for law in amplitudes:
        qs = _log_uniform(rng, 0.25, 16.0, 4)
        argv = ("tones", "--amplitude", law.spec, "--n-list", TONE_NS, "--q-grid", _grid(qs))
        calls.append(Call("cli", law, n_count * len(qs), argv=argv + ("--tol", "1e-12")))
    return calls


def oracles(rng, kalman_rng) -> list:
    q = repr(_log_uniform(kalman_rng, 0.5, 8.0, 1)[0])
    # one call per N, with three dt levels and the extrapolated row each
    calls = [
        Call("cli", None, 4, argv=("kalman", "--n-list", n, "--q-grid", q))
        for n in KALMAN_NS.split(",")
    ]
    for law in BUILTIN:
        q = _log_uniform(rng, 0.1, 10.0, 1)[0]
        seed = int(rng.integers(0, 2**31))
        argv = ("mc-check", "--source", law.spec, "--q-grid", repr(q))
        argv += ("--samples", str(MC_SAMPLES), "--seed", str(seed))
        calls.append(Call("cli", law, 1, argv=argv))
    return calls


_BUILDERS = {"scalar-sweep": scalar_sweep, "lowsnr-tones": lowsnr_tones, "oracles": oracles}


def round_calls(workload: str, seed: int, index: int) -> list:
    """The calls of round ``index`` of a run with ``seed``."""
    return _BUILDERS[workload](
        np.random.default_rng([seed]), np.random.default_rng([seed, index, 1])
    )
