"""One workload run in a fresh, single-threaded process.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src`` and
the BLAS thread counts set to 1.  It runs whole rounds of the workload's
calls until ``--seconds`` have passed, timing each call, and prints one
JSON object with the raw outputs; ``run.py`` checks them.  With
``--trace 1`` the odd rounds run with the wrappers of ``tracing.py``
installed, so traced and untraced rounds interleave.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

_t_import = perf_counter()
from mmselab import cli, numerics, scalar_channel, sources, tone_channel  # noqa: E402

IMPORT_S = perf_counter() - _t_import

import workloads  # noqa: E402

# the quadrature configuration of ``mmselab scalar`` at its default --tol
CUSTOM_QUADRATURE = numerics.QuadratureConfig(rel_tol=1e-9, abs_tol=1e-15, max_subdivisions=400)
CALIBRATION_LOOP = 200_000


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: marks slow phases of the machine."""
    t0 = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return perf_counter() - t0


def _cli(call) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(call.argv))
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _custom(call) -> dict:
    pdf = call.law.pdf
    values, errors = [], []
    try:
        src = sources.custom_source(lambda x: float(pdf(x)), call.law.support, name=call.law.name)
    except (numerics.NumericsError, ValueError) as exc:
        return {"values": [None] * len(call.qs), "errors": [repr(exc)] * len(call.qs)}
    for q in call.qs:
        try:
            ch = scalar_channel.ScalarChannel(src, q)
            values.append(
                [
                    scalar_channel.mmse(ch, CUSTOM_QUADRATURE),
                    scalar_channel.nongaussianity(ch, CUSTOM_QUADRATURE),
                ]
            )
            errors.append(None)
        except (numerics.NumericsError, ValueError) as exc:
            values.append(None)
            errors.append(repr(exc))
    return {"values": values, "errors": errors}


def _tone_derivative(call) -> dict:
    law = sources.parse_amplitude(call.law.spec)
    cfg = numerics.DIVERGENCE_QUADRATURE
    try:
        est = numerics.derivative_at_zero(
            lambda x: tone_channel.tone_divergence(law, x, cfg), call.order, cfg
        )
    except (numerics.NumericsError, ValueError) as exc:
        return {"error": repr(exc)}
    return {"value": est.value, "error_estimate": est.error_estimate}


_EXECUTE = {"cli": _cli, "custom": _custom, "tone-derivative": _tone_derivative}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src_dir = Path(__file__).resolve().parent.parent / "src"
    if src_dir not in Path(cli.__file__).resolve().parents:
        print(f"mmselab was imported from {cli.__file__}, not from {src_dir}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    min_rounds = 4 if tracer else 3
    rounds, spans = [], []
    start = perf_counter()
    # start a round only if one more of median length fits in --seconds
    while len(rounds) < min_rounds or (
        perf_counter() - start + statistics.median(spans) <= args.seconds
    ):
        index = len(rounds)
        t_round = perf_counter()
        calls = workloads.round_calls(args.workload, args.seed, index)
        calibration = calibrate()
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        results, call_seconds = [], []
        t0 = perf_counter()
        try:
            for call in calls:
                t_call = perf_counter()
                results.append(_EXECUTE[call.kind](call))
                call_seconds.append(perf_counter() - t_call)
        finally:
            seconds = perf_counter() - t0
            if traced:
                tracer.remove()
        rounds.append(
            {
                "traced": traced,
                "seconds": seconds,
                "call_seconds": call_seconds,
                "calibration_s": calibration,
                "results": results,
            }
        )
        spans.append(perf_counter() - t_round)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "import_s": IMPORT_S,
        "peak_rss_mb": peak_mb,
        "rounds": rounds,
        "trace": tracer.stats if tracer else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
