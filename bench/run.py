"""mmselab benchmark: one workload, checked, with end-to-end or per-layer metrics.

    python3 bench/run.py --workload scalar-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh process
(``child.py``) with one BLAS/OpenMP thread and ``MMSELAB_WORKERS`` unset,
importing mmselab from the checkout's ``src``.  This process never imports
mmselab: it measures set-up in fresh interpreters, checks every operation
against ``reference.py`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON record of the run: round times, the calibration loop, worst
error to tolerance of each check and the failures.

--trace 0: wall_s (mean seconds per round, or per round with each call
           timed by its fastest repeat), setup_s (median of fresh
           ``import mmselab.cli`` spawns), peak_rss_mb (workload process).
--trace 1: the per-layer metrics of ``tracing.py`` and ``-X importtime``,
           per traced round, and the tracing overhead per round.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 3, 2
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 170
PROBE = (
    "import time\n"
    "import mmselab.cli\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), mmselab.cli.__file__)\n"
)


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MMSELAB_WORKERS"}
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(SRC),
    )
    return env


def setup_seconds() -> float:
    """Seconds from spawning a fresh interpreter until ``import mmselab.cli`` returns."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=60, check=True,
    )
    stamp, path = done.stdout.split()
    if SRC not in Path(path).resolve().parents:
        raise RuntimeError(f"mmselab imported from {path}, not from {SRC}")
    return float(stamp) - t0


def import_breakdown() -> dict:
    """Median cumulative import seconds of the heavy modules (``-X importtime``)."""
    samples: dict = {}
    for _ in range(IMPORTTIME_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mmselab.cli"],
            env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        first: dict = {}
        own = 0
        integrate_parts = []  # (nesting depth, cumulative us) of scipy.integrate.* modules
        for line in done.stderr.splitlines():
            fields = line[len("import time:"):].split("|")
            if not line.startswith("import time:") or not fields[0].strip().isdigit():
                continue  # the header line, or other output
            self_us, cumulative_us = int(fields[0]), int(fields[1])
            name = fields[2].strip()
            first.setdefault(name, cumulative_us)
            if name == "mmselab" or name.startswith("mmselab."):
                own += self_us
            if name.startswith("scipy.integrate."):
                integrate_parts.append((len(fields[2]) - len(fields[2].lstrip()), cumulative_us))
        # scipy loads scipy.integrate lazily, which logs no line of its own:
        # sum its outermost submodules (their dependencies included)
        top = min((d for d, _ in integrate_parts), default=0)
        row = {
            "setup.import.numpy_s": first.get("numpy", 0) / 1e6,
            "setup.import.scipy_special_s": first.get("scipy.special", 0) / 1e6,
            "setup.import.scipy_integrate_s": sum(c for d, c in integrate_parts if d == top) / 1e6,
            "setup.import.mmselab_self_s": own / 1e6,
        }
        for k, v in row.items():
            samples.setdefault(k, []).append(v)
    return {k: statistics.median(v) for k, v in samples.items()}


def run_child(args) -> dict:
    cmd = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(
        cmd, env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_rounds(args, data: dict) -> dict:
    checker = checks.Checker()
    attempted = failed = unknown = 0
    messages: dict = {}
    for index, record in enumerate(data["rounds"]):
        calls = workloads.round_calls(args.workload, args.seed, index)
        if len(calls) != len(record["results"]):
            raise RuntimeError(f"round {index}: {len(record['results'])} results for {len(calls)} calls")
        for call, result in zip(calls, record["results"]):
            outcomes = checker.check_call(call, result)
            attempted += call.n_ops
            for i, outcome in enumerate(outcomes):
                if outcome.ok:
                    continue
                failed += 1
                known = i in call.faults
                unknown += not known
                what = call.argv[0] if call.argv else call.kind
                if known:
                    label = f"known fault: {what} op {i}: {outcome.failures[0].split(':')[0]}"
                else:
                    label = f"UNEXPECTED: {what} {call.law.name if call.law else ''} op {i}: "
                    label += "; ".join(outcome.failures)[:300]
                messages[label] = messages.get(label, 0) + 1
    return {
        "correct": unknown == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "worst_error_to_tolerance": checker.worst,
    }


def wall_seconds(workload: str, data: dict) -> float:
    """Seconds of one untraced round: the mean round, or the sum of each call's fastest repeat.

    Every round repeats the same calls on the same inputs, so the fastest
    repeat of a call is its time at the machine's best speed during the
    run; a shared machine's slow phases only add to a call's time.
    """
    untraced = [r for r in data["rounds"] if not r["traced"]]
    if workload not in workloads.FASTEST_REPEAT:
        return statistics.mean(r["seconds"] for r in untraced)
    return sum(min(times) for times in zip(*(r["call_seconds"] for r in untraced)))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(data: dict) -> dict:
    """Per-layer metrics per traced round from the tracer's raw spans."""
    stats = data["trace"]
    traced = [r["seconds"] for r in data["rounds"] if r["traced"]]
    plain = [r["seconds"] for r in data["rounds"] if not r["traced"]]
    per = 1.0 / len(traced)

    def span(name):
        calls, outer, outer_s, self_s, units = stats.get(name, [0, 0, 0.0, 0.0, 0])
        return {"calls": calls, "outer": outer, "s": outer_s, "self": self_s, "units": units}

    integ, integrand = span("integrate"), span("integrand")
    tone = stats.get("site.tone", [0, 0, 0.0])
    custom_site = stats.get("site.sources", [0, 0, 0.0])
    deriv, point, bulk = span("derivative_at_zero"), span("kernel.point"), span("kernel.bulk")
    sample, cmean, riccati, mc = span("sample"), span("conditional_mean"), span("riccati"), span("mc")
    mmse, div, main = span("mmse"), span("nongaussianity"), span("cli.main")
    values = {
        "numerics.integrate.calls": (integ["calls"] * per, "count"),
        "numerics.integrate.evals": (integrand["calls"] * per, "count"),
        "numerics.integrate.us_per_eval": (_ratio(integ["s"], integrand["calls"], 1e6), "us"),
        "numerics.integrate.self_s": (integ["self"] * per, "s"),
        "numerics.derivative_at_zero.calls": (deriv["calls"] * per, "count"),
        "numerics.derivative_at_zero.g_evals": (deriv["units"] * per, "count"),
        "numerics.derivative_at_zero.s": (deriv["s"] * per, "s"),
        "sources.kernel.point_calls": (point["outer"] * per, "count"),
        "sources.kernel.us_per_point_call": (_ratio(point["s"], point["outer"], 1e6), "us"),
        "sources.kernel.bulk_points": (bulk["units"] * per, "count"),
        "sources.kernel.ns_per_bulk_point": (_ratio(bulk["s"], bulk["units"], 1e9), "ns"),
        "sources.sample.ns_per_draw": (_ratio(sample["s"], sample["units"], 1e9), "ns"),
        "sources.custom.s": (span("kernel.custom")["s"] * per, "s"),
        "sources.custom.inner_integrals": (custom_site[0] * per, "count"),
        "scalar_channel.mmse.calls": (mmse["calls"] * per, "count"),
        "scalar_channel.mmse.s": (mmse["s"] * per, "s"),
        "scalar_channel.nongaussianity.calls": (div["calls"] * per, "count"),
        "scalar_channel.nongaussianity.s": (div["s"] * per, "s"),
        "scalar_channel.derivatives.s": (span("derivatives")["s"] * per, "s"),
        "scalar_channel.conditional_mean.ns_per_point": (
            _ratio(cmean["s"], cmean["units"], 1e9), "ns"),
        "tone_channel.radial.integrals": (tone[0] * per, "count"),
        "tone_channel.radial.evals": (tone[1] * per, "count"),
        "tone_channel.radial.us_per_eval": (_ratio(tone[2], tone[1], 1e6), "us"),
        "tone_channel.mmse_exact.s": (span("mmse_exact")["s"] * per, "s"),
        "tone_channel.cmmse_exact.s": (span("cmmse_exact")["s"] * per, "s"),
        "ct_verify.riccati.steps": (riccati["units"] * per, "count"),
        "ct_verify.riccati.us_per_step": (_ratio(riccati["s"], riccati["units"], 1e6), "us"),
        "ct_verify.mc.draws": (mc["units"] * per, "count"),
        "ct_verify.mc.ns_per_draw": (_ratio(mc["s"], mc["units"], 1e9), "ns"),
        "cli.main.calls": (main["calls"] * per, "count"),
        "cli.main.self_s": (main["self"] * per, "s"),
        "trace.overhead_s": (statistics.mean(traced) - statistics.mean(plain), "s"),
    }
    values.update({k: (v, "s") for k, v in import_breakdown().items()})
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    # on SIGTERM unwind, so that subprocess.run kills and reaps the process it waits for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "mmselab" / "cli.py").is_file():
        print(f"no mmselab sources under {SRC}", file=sys.stderr)
        return 2

    setup = []
    if not args.trace:
        setup += [setup_seconds() for _ in range(SETUP_PROBES_BEFORE)]
    data = run_child(args)
    if not args.trace:
        setup += [setup_seconds() for _ in range(SETUP_PROBES_AFTER)]
    t_check = time.perf_counter()
    result = check_rounds(args, data)
    check_s = time.perf_counter() - t_check

    plain = [r["seconds"] for r in data["rounds"] if not r["traced"]]
    if args.trace:
        metrics = layer_metrics(data)
    else:
        metrics = {
            "wall_s": {"value": wall_seconds(args.workload, data), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": data["peak_rss_mb"], "unit": "MB"},
        }
    calibration = [r["calibration_s"] for r in data["rounds"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "round_seconds": [r["seconds"] for r in data["rounds"]],
        "call_seconds": [[round(t, 6) for t in r["call_seconds"]] for r in data["rounds"]],
        "mean_round_s": statistics.mean(plain),
        "traced_rounds": [r["traced"] for r in data["rounds"]],
        "calibration_s": {"median": statistics.median(calibration), "min": min(calibration),
                          "max": max(calibration)},
        "workload_import_s": data["import_s"],
        "setup_probes_s": setup,
        "check_s": check_s,
        "failures": result["failures"],
        "worst_error_to_tolerance": result["worst_error_to_tolerance"],
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
