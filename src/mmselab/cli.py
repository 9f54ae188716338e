"""Command-line front end: parameter sweeps with CSV/JSON emission.

Subcommands: scalar, derivatives, tones, kalman, mc-check.  Exit codes:
0 success, 2 configuration error, 3 numerical failure.  Identical
configurations (including the seed) produce byte-identical output; every
numeric cell is written with 17 significant digits.  Each command parses
its law once and evaluates the grid in order, in one process.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import ct_verify, scalar_channel, tone_channel
# derivative_at_zero is unused here, but the benchmark's tracer wraps cli.derivative_at_zero by name
from .numerics import NumericsError, QuadratureConfig, derivative_at_zero  # noqa: F401
from .sources import parse_amplitude, parse_source

__all__ = [
    "ConfigError",
    "cmd_scalar",
    "cmd_derivatives",
    "cmd_tones",
    "cmd_kalman",
    "cmd_mc_check",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def parse_q_grid(spec: str) -> tuple:
    """Grid from 'start:stop:count[:lin|log]' or a comma list of values."""
    spec = spec.strip()
    if not spec:
        raise ConfigError("empty q grid")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) == 3:
            parts.append("lin")
        if len(parts) != 4:
            raise ConfigError(f"bad q-grid spec {spec!r}")
        start, stop, count, mode = float(parts[0]), float(parts[1]), int(parts[2]), parts[3]
        if count < 1:
            raise ConfigError("q-grid count must be >= 1")
        if mode == "lin":
            grid = np.linspace(start, stop, count)
        elif mode == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError("log grid requires positive endpoints")
            grid = np.geomspace(start, stop, count)
        else:
            raise ConfigError(f"unknown grid mode {mode!r}")
    else:
        grid = np.array([float(t) for t in spec.split(",")])
    if grid.size == 0 or np.any(grid < 0) or not np.all(np.isfinite(grid)):
        raise ConfigError(f"invalid q grid {spec!r}")
    return tuple(float(v) for v in grid)


def parse_n_list(spec: str) -> tuple:
    try:
        values = tuple(int(t) for t in spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad n-list {spec!r}") from exc
    if any(n < 1 for n in values):
        raise ConfigError("n-list entries must be positive integers")
    return values


def _quad_cfg(tol: float) -> QuadratureConfig:
    return QuadratureConfig(rel_tol=tol, abs_tol=max(1e-18, tol * 1e-6), max_subdivisions=400)


# -- per-point rows -----------------------------------------------------------


def _scalar_point(src, q: float, cfg: QuadratureConfig) -> dict:
    # both quantities from one vector integral on one panel set
    m, d = scalar_channel._channel_integrals(src, [("mmse", q), ("nongaussianity", q)], cfg)
    t3 = scalar_channel.mmse_taylor3(src, q)
    gm = scalar_channel.gaussian_mmse(q)
    return {
        "q": q,
        "mmse": m,
        "mmse_taylor3": t3,
        "gaussian_mmse": gm,
        "nongaussianity": d,
        "resid_taylor3": m - t3,
        "resid_gaussian": gm - m,
    }


def _tone_point(law, n: int, q: float, cfg: QuadratureConfig) -> dict:
    # both errors from one radial integral on one panel set
    model = tone_channel.ToneModel(n_tones=n, q=q, amplitude_law=law)
    cm, mm = tone_channel.tone_errors(model, cfg)
    scale = n / q if q > 0 else math.nan
    return {
        "n": n,
        "q": q,
        "cmmse_exact": cm,
        "mmse_exact": mm,
        "gaussian_cmmse": tone_channel.gaussian_cmmse(n, q),
        "gaussian_mmse": tone_channel.gaussian_mmse_tone(n, q),
        "cmmse_asymptotic": tone_channel.cmmse_asymptotic(n, q),
        "mmse_asymptotic": tone_channel.mmse_asymptotic(n, q),
        "cmmse_deficit_scaled": (1.0 - cm) * scale,
        "mmse_deficit_scaled": (1.0 - mm) * scale,
    }


def _mc_point(spec: str, src, q: float, cfg: QuadratureConfig, samples: int, seed: int) -> dict:
    mc_cfg = ct_verify.McConfig(sample_count=samples, seed=seed)
    quad_value = scalar_channel.mmse(scalar_channel.ScalarChannel(src, q), cfg)
    est = ct_verify.mc_scalar_mmse(src, q, mc_cfg)
    diff = abs(est.value - quad_value)
    if est.std_error > 0:
        n_sigmas = diff / est.std_error
    else:
        # every draw's error is the same (0 when the law's atoms separate
        # fully): the runs agree within the tolerance of the quadrature's
        # integral, which is 1 - mmse
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(1.0 - quad_value))
        n_sigmas = 0.0 if diff <= tol else math.inf
    return {
        "source": spec,
        "q": q,
        "mc_value": est.value,
        "std_error": est.std_error,
        "quadrature": quad_value,
        "abs_diff": diff,
        "n_sigmas": n_sigmas,
    }


# -- subcommands: each reads the parsed argparse namespace ---------------------


def cmd_scalar(args: argparse.Namespace) -> list:
    q_grid = parse_q_grid(args.q_grid)
    src = parse_source(args.source)
    cfg = _quad_cfg(args.tol)
    return [_scalar_point(src, q, cfg) for q in q_grid]


def cmd_derivatives(args: argparse.Namespace) -> list:
    orders = tuple(int(t) for t in args.orders.split(","))
    if any(o not in (1, 2, 3, 4) for o in orders):
        raise ConfigError("orders must be a comma list from 1..4")
    src = parse_source(args.source)
    estimates = scalar_channel.divergence_derivatives_at_zero(src, orders)
    exact = scalar_channel.divergence_derivatives_from_moments(src)
    rows = []
    for est in estimates:
        predicted = exact[est.order - 1]
        rows.append(
            {
                "order": est.order,
                "value": est.value,
                "error_estimate": est.error_estimate,
                "step_used": est.step_used,
                "moment_formula": predicted,
                "abs_difference": abs(est.value - predicted),
            }
        )
    return rows


def cmd_tones(args: argparse.Namespace) -> list:
    q_grid = parse_q_grid(args.q_grid)
    n_list = parse_n_list(args.n_list)
    law = parse_amplitude(args.amplitude)
    cfg = _quad_cfg(args.tol)
    return [_tone_point(law, n, q, cfg) for n in n_list for q in q_grid]


def cmd_kalman(args: argparse.Namespace) -> list:
    q_grid = parse_q_grid(args.q_grid)
    n_list = parse_n_list(args.n_list)
    if args.dt_levels < 2:
        raise ConfigError("kalman needs at least 2 dt levels to extrapolate")
    rows = []
    for n in n_list:
        for q in q_grid:
            target_cm = tone_channel.gaussian_cmmse(n, q)
            target_mm = tone_channel.gaussian_mmse_tone(n, q)
            levels = []
            for level in range(args.dt_levels):
                setup = ct_verify.KalmanSetup(n, q, args.base_steps * 2**level)
                cm, mm = ct_verify.kalman_cmmse(setup), ct_verify.kalman_mmse(setup)
                levels.append((setup.dt, cm, mm))
            # first-order Richardson extrapolation from the two finest levels, at dt = 0
            (_, cm1, mm1), (_, cm2, mm2) = levels[-2:]
            levels.append((0.0, 2 * cm2 - cm1, 2 * mm2 - mm1))
            rows += [
                {
                    "n": n,
                    "q": q,
                    "dt": dt,
                    "cmmse": cm,
                    "mmse": mm,
                    "cmmse_target": target_cm,
                    "mmse_target": target_mm,
                    "cmmse_gap": cm - target_cm,
                    "mmse_gap": mm - target_mm,
                }
                for dt, cm, mm in levels
            ]
    return rows


def cmd_mc_check(args: argparse.Namespace) -> list:
    q_grid = parse_q_grid(args.q_grid)
    src = parse_source(args.source)
    cfg = _quad_cfg(args.tol)
    return [
        _mc_point(args.source, src, q, cfg, args.samples, args.seed + i)
        for i, q in enumerate(q_grid)
    ]


# -- emission ----------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_rows(rows: list, fmt: str) -> str:
    if fmt == "json":
        out = [
            {k: (_format_cell(v) if isinstance(v, float) else v) for k, v in row.items()}
            for row in rows
        ]
        return json.dumps(out, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_format_cell(v) for v in row.values()])
    return buf.getvalue()


def _emit(rows: list, args: argparse.Namespace) -> None:
    text = render_rows(rows, args.fmt)
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {args.out!r}: {exc.strerror or exc}") from exc


# -- argument parsing --------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and never changed.

    A build leaves argparse's reference cycles (actions, formatters) as
    garbage for the cycle collector, about 26 KB per build, so a process
    that runs ``main`` many times would grow between full collections.
    """
    parser = argparse.ArgumentParser(
        prog="mmselab",
        description="Estimation-error and divergence sweeps for Gaussian channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, tol=None):
        p.set_defaults(run=run)
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--out", default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p = sub.add_parser("scalar", help="mmse, expansions and divergence over a q grid")
    p.add_argument("--source", required=True)
    p.add_argument("--q-grid", required=True)
    common(p, cmd_scalar, 1e-9)

    p = sub.add_parser("derivatives", help="one-sided divergence derivatives at zero snr")
    p.add_argument("--source", required=True)
    p.add_argument("--orders", default="1,2,3,4")
    common(p, cmd_derivatives)

    p = sub.add_parser("tones", help="N-tone exact errors, closed forms, asymptotics")
    p.add_argument("--amplitude", default="unit")
    p.add_argument("--n-list", required=True)
    p.add_argument("--q-grid", required=True)
    common(p, cmd_tones, 1e-12)

    p = sub.add_parser("kalman", help="Kalman-oracle check of the Gaussian tone errors")
    p.add_argument("--n-list", required=True)
    p.add_argument("--q-grid", required=True)
    p.add_argument("--base-steps", type=int, default=2048)
    p.add_argument("--dt-levels", type=int, default=3)
    common(p, cmd_kalman)

    p = sub.add_parser("mc-check", help="Monte Carlo oracle vs quadrature mmse")
    p.add_argument("--source", required=True)
    p.add_argument("--q-grid", required=True)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    common(p, cmd_mc_check, 1e-9)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.run(args), args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
