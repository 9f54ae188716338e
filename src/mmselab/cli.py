"""Command-line front end: parameter sweeps with CSV/JSON emission.

Subcommands: scalar, derivatives, tones, kalman, mc-check.  Exit codes:
0 success, 2 configuration error, 3 numerical failure.  Identical
configurations (including the seed) produce byte-identical output; every
numeric cell is written with 17 significant digits.  Parameter points are
dispatched to a process pool when MMSELAB_WORKERS is set above 1, with
output rows always ordered by grid index.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ct_verify, scalar_channel, tone_channel
from .numerics import DIVERGENCE_QUADRATURE, NumericsError, QuadratureConfig, derivative_at_zero
from .sources import parse_amplitude, parse_source

__all__ = [
    "ConfigError",
    "RunConfig",
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


@dataclass(frozen=True)
class RunConfig:
    command: str
    source: str = "rademacher"
    q_grid: tuple = ()
    n_list: tuple = ()
    amplitude: str = "unit"
    orders: tuple = (1, 2, 3, 4)
    tol: float = 1e-9
    seed: int = 0
    samples: int = 200_000
    base_steps: int = 2048
    dt_levels: int = 3
    out: str | None = None
    fmt: str = "csv"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ConfigError("tolerance must be positive")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")


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
    if not values or any(n < 1 for n in values):
        raise ConfigError("n-list entries must be positive integers")
    return values


def _quad_cfg(tol: float) -> QuadratureConfig:
    return QuadratureConfig(rel_tol=tol, abs_tol=max(1e-18, tol * 1e-6), max_subdivisions=400)


def _pmap(fn, items, workers: int):
    if workers <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))  # map preserves input order


# -- per-point workers (top level so the process pool can pickle them) -----


def _scalar_point(args):
    source_spec, q, tol = args
    src = parse_source(source_spec)
    cfg = _quad_cfg(tol)
    ch = scalar_channel.ScalarChannel(src, q)
    m = scalar_channel.mmse(ch, cfg)
    t3 = scalar_channel.mmse_taylor3(src, q)
    gm = scalar_channel.gaussian_mmse(q)
    d = scalar_channel.nongaussianity(ch, cfg)
    return {
        "q": q,
        "mmse": m,
        "mmse_taylor3": t3,
        "gaussian_mmse": gm,
        "nongaussianity": d,
        "resid_taylor3": m - t3,
        "resid_gaussian": gm - m,
    }


def _tone_point(args):
    amplitude_spec, n, q, tol, d2 = args
    law = parse_amplitude(amplitude_spec)
    cfg = _quad_cfg(tol)
    model = tone_channel.ToneModel(n_tones=n, q=q, amplitude_law=law)
    cm = tone_channel.cmmse_exact(model, cfg)
    mm = tone_channel.mmse_exact(model, cfg)
    scale = n / q if q > 0 else math.nan
    return {
        "n": n,
        "q": q,
        "cmmse_exact": cm,
        "mmse_exact": mm,
        "gaussian_cmmse": tone_channel.gaussian_cmmse(n, q),
        "gaussian_mmse": tone_channel.gaussian_mmse_tone(n, q),
        "cmmse_asymptotic": tone_channel.cmmse_asymptotic(n, q, d2),
        "mmse_asymptotic": tone_channel.mmse_asymptotic(n, q, d2),
        "cmmse_deficit_scaled": (1.0 - cm) * scale,
        "mmse_deficit_scaled": (1.0 - mm) * scale,
    }


def _mc_point(args):
    source_spec, q, tol, samples, seed = args
    src = parse_source(source_spec)
    cfg = _quad_cfg(tol)
    quad_value = scalar_channel.mmse(scalar_channel.ScalarChannel(src, q), cfg)
    est = ct_verify.mc_scalar_mmse(src, q, ct_verify.McConfig(sample_count=samples, seed=seed))
    diff = abs(est.value - quad_value)
    return {
        "source": source_spec,
        "q": q,
        "mc_value": est.value,
        "std_error": est.std_error,
        "quadrature": quad_value,
        "abs_diff": diff,
        "n_sigmas": diff / est.std_error if est.std_error > 0 else math.inf,
    }


# -- subcommands ------------------------------------------------------------


def cmd_scalar(config: RunConfig) -> list:
    if not config.q_grid:
        raise ConfigError("scalar needs a q grid")
    parse_source(config.source)  # fail fast on bad specs
    items = [(config.source, q, config.tol) for q in config.q_grid]
    return _pmap(_scalar_point, items, config.workers)


def cmd_derivatives(config: RunConfig) -> list:
    src = parse_source(config.source)
    cfg = _quad_cfg(min(config.tol, 1e-12))
    estimates = scalar_channel.divergence_derivatives_at_zero(src, config.orders, cfg)
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


def cmd_tones(config: RunConfig) -> list:
    if not config.q_grid or not config.n_list:
        raise ConfigError("tones needs a q grid and an n list")
    law = parse_amplitude(config.amplitude)
    d2 = derivative_at_zero(
        lambda x: tone_channel.tone_divergence(law, x, DIVERGENCE_QUADRATURE),
        order=2,
        cfg=DIVERGENCE_QUADRATURE,
    ).value
    items = [
        (config.amplitude, n, q, config.tol, d2)
        for n in config.n_list
        for q in config.q_grid
    ]
    return _pmap(_tone_point, items, config.workers)


def cmd_kalman(config: RunConfig) -> list:
    if not config.q_grid or not config.n_list:
        raise ConfigError("kalman needs a q grid and an n list")
    if config.dt_levels < 2:
        raise ConfigError("kalman needs at least 2 dt levels to extrapolate")
    rows = []
    for n in config.n_list:
        for q in config.q_grid:
            target_cm = tone_channel.gaussian_cmmse(n, q)
            target_mm = tone_channel.gaussian_mmse_tone(n, q)
            per_level = []
            for level in range(config.dt_levels):
                setup = ct_verify.KalmanSetup.from_steps(n, q, config.base_steps * 2**level)
                cm = ct_verify.kalman_cmmse(setup)
                mm = ct_verify.kalman_mmse(setup)
                per_level.append((setup.dt, cm, mm))
                rows.append(
                    {
                        "n": n,
                        "q": q,
                        "dt": setup.dt,
                        "cmmse": cm,
                        "mmse": mm,
                        "cmmse_target": target_cm,
                        "mmse_target": target_mm,
                        "cmmse_gap": cm - target_cm,
                        "mmse_gap": mm - target_mm,
                    }
                )
            # first-order Richardson extrapolation from the two finest levels
            (_, cm1, mm1), (_, cm2, mm2) = per_level[-2], per_level[-1]
            cm0, mm0 = 2 * cm2 - cm1, 2 * mm2 - mm1
            rows.append(
                {
                    "n": n,
                    "q": q,
                    "dt": 0.0,
                    "cmmse": cm0,
                    "mmse": mm0,
                    "cmmse_target": target_cm,
                    "mmse_target": target_mm,
                    "cmmse_gap": cm0 - target_cm,
                    "mmse_gap": mm0 - target_mm,
                }
            )
    return rows


def cmd_mc_check(config: RunConfig) -> list:
    if not config.q_grid:
        raise ConfigError("mc-check needs a q grid")
    parse_source(config.source)
    items = [
        (config.source, q, config.tol, config.samples, config.seed + i)
        for i, q in enumerate(config.q_grid)
    ]
    return _pmap(_mc_point, items, config.workers)


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


def _emit(rows: list, config: RunConfig) -> None:
    text = render_rows(rows, config.fmt)
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmselab",
        description="Estimation-error and divergence sweeps for Gaussian channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_default):
        p.add_argument("--tol", type=float, default=tol_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p = sub.add_parser("scalar", help="mmse, expansions and divergence over a q grid")
    p.add_argument("--source", required=True)
    p.add_argument("--q-grid", required=True)
    common(p, 1e-9)

    p = sub.add_parser("derivatives", help="one-sided divergence derivatives at zero snr")
    p.add_argument("--source", required=True)
    p.add_argument("--orders", default="1,2,3,4")
    common(p, 1e-12)

    p = sub.add_parser("tones", help="N-tone exact errors, closed forms, asymptotics")
    p.add_argument("--amplitude", default="unit")
    p.add_argument("--n-list", required=True)
    p.add_argument("--q-grid", required=True)
    common(p, 1e-12)

    p = sub.add_parser("kalman", help="covariance-recursion check of the Gaussian tone errors")
    p.add_argument("--n-list", required=True)
    p.add_argument("--q-grid", required=True)
    p.add_argument("--base-steps", type=int, default=2048)
    p.add_argument("--dt-levels", type=int, default=3)
    common(p, 1e-9)

    p = sub.add_parser("mc-check", help="Monte Carlo oracle vs quadrature mmse")
    p.add_argument("--source", required=True)
    p.add_argument("--q-grid", required=True)
    p.add_argument("--samples", type=int, default=200_000)
    common(p, 1e-9)

    return parser


_COMMANDS = {
    "scalar": cmd_scalar,
    "derivatives": cmd_derivatives,
    "tones": cmd_tones,
    "kalman": cmd_kalman,
    "mc-check": cmd_mc_check,
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    workers = int(os.environ.get("MMSELAB_WORKERS", "1"))
    if workers < 1:
        raise ConfigError("MMSELAB_WORKERS must be >= 1")
    kwargs = dict(
        command=args.command,
        tol=args.tol,
        seed=args.seed,
        out=args.out,
        fmt=args.fmt,
        workers=workers,
    )
    if hasattr(args, "source"):
        kwargs["source"] = args.source
    if hasattr(args, "q_grid"):
        kwargs["q_grid"] = parse_q_grid(args.q_grid)
    if hasattr(args, "n_list"):
        kwargs["n_list"] = parse_n_list(args.n_list)
    if hasattr(args, "amplitude"):
        kwargs["amplitude"] = args.amplitude
    if hasattr(args, "orders"):
        orders = tuple(int(t) for t in args.orders.split(","))
        if not orders or any(o not in (1, 2, 3, 4) for o in orders):
            raise ConfigError("orders must be a comma list from 1..4")
        kwargs["orders"] = orders
    if hasattr(args, "samples"):
        if args.samples < 10**4:
            raise ConfigError("samples must be >= 1e4")
        kwargs["samples"] = args.samples
    if hasattr(args, "base_steps"):
        kwargs["base_steps"] = args.base_steps
        kwargs["dt_levels"] = args.dt_levels
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rows = _COMMANDS[config.command](config)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _emit(rows, config)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
