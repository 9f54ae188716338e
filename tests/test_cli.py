import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mmselab import cli, scalar_channel, tone_channel
from mmselab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    _quad_cfg,
    cmd_scalar,
    main,
    parse_n_list,
    parse_q_grid,
    render_rows,
)
from mmselab.numerics import NonConvergence, NumericsError, QuadratureConfig
from mmselab.sources import parse_source


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def derivative_rows(source, tmp_path):
    code, out = run_cli(["derivatives", "--source", source], tmp_path, f"{source}.csv")
    assert code == EXIT_OK
    return [{k: float(v) for k, v in row.items()} for row in read_csv(out)]


def test_parse_q_grid():
    assert parse_q_grid("0.5,1,2") == (0.5, 1.0, 2.0)
    assert parse_q_grid("1:3:3:lin") == (1.0, 2.0, 3.0)
    log_grid = parse_q_grid("0.001:1:4:log")
    assert log_grid[0] == pytest.approx(0.001)
    assert log_grid[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        parse_q_grid("")
    with pytest.raises(ValueError):
        parse_q_grid("1:2")
    with pytest.raises(ValueError):
        parse_q_grid("-1,2")
    with pytest.raises(ValueError):
        parse_q_grid("0:1:5:log")


def test_parse_n_list():
    assert parse_n_list("4,8,16") == (4, 8, 16)
    with pytest.raises(ValueError):
        parse_n_list("4,zero")
    with pytest.raises(ValueError):
        parse_n_list("0,4")


def test_scalar_gaussian_null(tmp_path):
    code, out = run_cli(
        ["scalar", "--source", "gaussian", "--q-grid", "0.1,0.5,1,2,5"], tmp_path
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 5
    for row in rows:
        assert float(row["nongaussianity"]) <= 1e-9
        assert abs(float(row["resid_gaussian"])) <= 1e-9


def test_scalar_residual_shrinks_quartically(tmp_path):
    code, out = run_cli(
        [
            "scalar",
            "--source",
            "rademacher",
            "--q-grid",
            "0.003:0.1:6:log",
            "--tol",
            "1e-12",
        ],
        tmp_path,
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    qs = np.array([float(r["q"]) for r in rows])
    resid = np.array([abs(float(r["resid_taylor3"])) for r in rows])
    slope = np.polyfit(np.log(qs), np.log(resid), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.3)


def test_empty_grid_exits_2(tmp_path):
    assert main(["scalar", "--source", "gaussian", "--q-grid", ""]) == EXIT_CONFIG


def test_bad_source_exits_2(tmp_path):
    assert main(["scalar", "--source", "landau", "--q-grid", "1"]) == EXIT_CONFIG


@pytest.mark.parametrize("spec", ["atoms:1,0.5,1,0.5", "mix:0.5,1,0,1,0"])
def test_degenerate_law_exits_2(spec, capsys):
    # both specs describe a point mass, which cannot be standardized
    assert main(["scalar", "--source", spec, "--q-grid", "1"]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    code = main(["scalar", "--source", "gaussian", "--q-grid", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert str(out) in captured.err
    assert not out.exists()


def test_unreachable_tolerance_exits_3(capsys):
    code = main(["scalar", "--source", "uniform", "--q-grid", "0.1", "--tol", "1e-15"])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_derivatives_table(tmp_path):
    rows = derivative_rows("rademacher", tmp_path)
    by_order = {row["order"]: row for row in rows}
    for k in (1, 2, 3):
        assert abs(by_order[k]["value"]) <= max(1e-4, 10 * by_order[k]["error_estimate"])
        assert by_order[k]["moment_formula"] == 0.0
    assert by_order[4]["value"] == pytest.approx(2.0, rel=0.05)
    assert by_order[4]["moment_formula"] == pytest.approx(2.0)

    rows_u = derivative_rows("uniform", tmp_path)
    assert rows_u[-1]["value"] == pytest.approx(0.72, rel=0.05)

    rows_g = derivative_rows("gaussian", tmp_path)
    for row in rows_g:
        assert abs(row["value"]) <= 1e-5


@pytest.mark.parametrize("source", ["expstd", "mix:0.3,-1.0,0.5,2.0,1.2"])
def test_derivatives_reference_skewed_laws(source, tmp_path):
    # the reference column holds the complete values, m3^2/2 at order 3
    rows = derivative_rows(source, tmp_path)
    assert [row["order"] for row in rows] == [1, 2, 3, 4]
    for row in rows:
        assert row["abs_difference"] <= max(1e-4, 10 * row["error_estimate"]), row


def test_scalar_nearly_coincident_atoms_exit_0(tmp_path):
    spec = "atoms:-1.439808318436444,0.5498361070652901,-1.4081271420726433,0.4501638929347098"
    code, out = run_cli(["scalar", "--source", spec, "--q-grid", "1"], tmp_path)
    assert code == EXIT_OK
    assert 0.0 < float(read_csv(out)[0]["mmse"]) < 0.5


def test_scalar_snr_past_the_cube_range_exits_0(tmp_path):
    # q**3 overflows in the Taylor column, which holds the cubic's limit
    code, out = run_cli(["scalar", "--source", "uniform", "--q-grid", "1e300"], tmp_path)
    assert code == EXIT_OK
    row = read_csv(out)[0]
    assert (row["mmse"], row["mmse_taylor3"]) == ("1e-300", "-inf")


def test_tones_gaussian_exact_matches_closed_form(tmp_path):
    code, out = run_cli(
        [
            "tones",
            "--amplitude",
            "gaussian",
            "--n-list",
            "1,2,4",
            "--q-grid",
            "0.5,2",
        ],
        tmp_path,
    )
    assert code == EXIT_OK
    for row in read_csv(out):
        assert abs(float(row["cmmse_exact"]) - float(row["gaussian_cmmse"])) <= 1e-12
        assert abs(float(row["mmse_exact"]) - float(row["gaussian_mmse"])) <= 1e-12


def test_tones_unit_deficits_converge(tmp_path):
    code, out = run_cli(
        ["tones", "--amplitude", "unit", "--n-list", "8,16,32,64", "--q-grid", "1"],
        tmp_path,
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    scaled = [float(r["cmmse_deficit_scaled"]) for r in rows]
    # deficit*N/q approaches 1/4 (D''(0) = 0) from below as N grows
    assert scaled[-1] == pytest.approx(0.25, abs=0.01)
    assert abs(scaled[-1] - 0.25) < abs(scaled[0] - 0.25)


def test_tones_asymptotic_columns_are_exact(tmp_path):
    # D''(0) = 0 for every amplitude law, so the columns are 1 - q/(4N) and 1 - q/(2N)
    code, out = run_cli(
        ["tones", "--amplitude", "unit", "--n-list", "1,4,16", "--q-grid", "0.5,2,8"], tmp_path
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 9
    for row in rows:
        n, q = int(row["n"]), float(row["q"])
        assert row["cmmse_asymptotic"] == format(1 - q / (4 * n), ".17g")
        assert row["mmse_asymptotic"] == format(1 - q / (2 * n), ".17g")


@pytest.mark.parametrize("sigma, q", [(0.01, 1e4), (0.001, 1e6)])
def test_scalar_narrow_mixture_high_snr(tmp_path, sigma, q):
    # the two output peaks, width sqrt(1 + q s^2), lie far apart: mmse is
    # one component's s^2 / (1 + q s^2) and D = (1/2) ln((1 + q) / (1 + q s^2)) - ln 2
    spec = f"mix:0.5,-1,{sigma},1,{sigma}"
    code, out = run_cli(["scalar", "--source", spec, "--q-grid", repr(q)], tmp_path)
    assert code == EXIT_OK
    row = read_csv(out)[0]
    s2 = sigma**2 / (1.0 + sigma**2)  # component variance after standardization
    assert float(row["mmse"]) == pytest.approx(s2 / (1.0 + q * s2), abs=1e-9)
    expected_d = 0.5 * math.log((1.0 + q) / (1.0 + q * s2)) - math.log(2.0)
    assert float(row["nongaussianity"]) == pytest.approx(expected_d, rel=1e-9)


@pytest.mark.parametrize(
    "amplitude, q, expected",
    [
        ("unit", "1e6", 1.4653387124372994e-05),
        ("mags:0.2,0.8,2.2,0.2", "1e5", 1.109178942482205e-04),
    ],
)
def test_tones_high_snr_match_the_rician_reference(tmp_path, amplitude, q, expected):
    # each magnitude's ring is far narrower than the radial domain; without
    # breakpoints around it the divergence came out 1.0 and cmmse 65% high.
    # expected: the tensor Rician reference of the benchmark
    argv = ["tones", "--amplitude", amplitude, "--n-list", "1", "--q-grid", q]
    code, out = run_cli(argv, tmp_path)
    assert code == EXIT_OK
    assert float(read_csv(out)[0]["cmmse_exact"]) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize(
    "amplitude, calls",
    [("unit", 4), ("mags:0.2,0.8,2.2,0.2", 4), ("gaussian", 0)],
)
def test_tones_one_radial_integral_per_point(monkeypatch, tmp_path, amplitude, calls):
    # cmmse and mmse of a point share one integral; q = 0 and the Gaussian
    # pair take closed forms
    domains = []
    original = tone_channel.integrate

    def counted(f, domain, *args, **kwargs):
        domains.append(domain)
        return original(f, domain, *args, **kwargs)

    monkeypatch.setattr(tone_channel, "integrate", counted)
    argv = ["tones", "--amplitude", amplitude, "--n-list", "1,4", "--q-grid", "0,0.5,8"]
    code, out = run_cli(argv, tmp_path)
    assert code == EXIT_OK
    assert len(read_csv(out)) == 6
    assert len(domains) == calls


@pytest.mark.parametrize("q", ["5e-324", "1e-310", "1e-300"])
def test_tones_tiny_q_prints_the_prior_energy(tmp_path, q):
    # the product (2N/q) ln(1 + q/(2N)) gave gaussian_cmmse nan or inf here,
    # and cmmse_exact nan
    code, out = run_cli(["tones", "--n-list", "1,2", "--q-grid", q], tmp_path)
    assert code == EXIT_OK
    for row in read_csv(out):
        for column in ("cmmse_exact", "mmse_exact", "gaussian_cmmse", "gaussian_mmse"):
            assert row[column] == "1", (row["n"], column)


def test_tones_depend_on_the_per_tone_snr_only(tmp_path):
    # (N, q) = (1, 0.75), (2, 1.5) and (4, 3) share the float q/N = 0.75,
    # so every error cell of the three rows has the same bytes
    argv = ["tones", "--n-list", "1,2,4", "--q-grid", "0.75,1.5,3"]
    code, out = run_cli(argv, tmp_path)
    assert code == EXIT_OK
    rows = [r for r in read_csv(out) if float(r["q"]) / int(r["n"]) == 0.75]
    assert [(r["n"], r["q"]) for r in rows] == [("1", "0.75"), ("2", "1.5"), ("4", "3")]
    columns = (
        "cmmse_exact",
        "mmse_exact",
        "gaussian_cmmse",
        "gaussian_mmse",
        "cmmse_asymptotic",
        "mmse_asymptotic",
    )
    for column in columns:
        assert len({r[column] for r in rows}) == 1, column


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: (1 - error) N/q cancels to 0 once q/N is below about eps; "
    "the deficit needs the tone low-snr series",
)
@pytest.mark.parametrize("q", ["1e-20", "1e-300"])
def test_tones_tiny_q_deficits_reach_their_limits(tmp_path, q):
    # deficit * N/q -> 1/4 (causal) and 1/2 (non-causal) as q -> 0; both print 0
    code, out = run_cli(["tones", "--n-list", "1,2", "--q-grid", q], tmp_path)
    assert code == EXIT_OK
    for row in read_csv(out):
        assert float(row["cmmse_deficit_scaled"]) == pytest.approx(0.25, abs=1e-6), row["n"]
        assert float(row["mmse_deficit_scaled"]) == pytest.approx(0.5, abs=1e-6), row["n"]


@pytest.mark.parametrize("q", ["5e-324", "1e-320"])
def test_kalman_tiny_q_stays_within_the_prior_energy(tmp_path, q):
    # with q dt underflowed, cmmse read 0 or 1.0118577075098814, mmse
    # 1 + 1-2 ulp and cmmse_target inf
    code, out = run_cli(["kalman", "--n-list", "1", "--q-grid", q], tmp_path)
    assert code == EXIT_OK
    for row in read_csv(out):
        for column in ("cmmse", "mmse", "cmmse_target", "mmse_target"):
            assert row[column] == "1", (row["dt"], column)


def test_tones_zero_probability_magnitude_is_dropped(tmp_path):
    grid = ["--n-list", "1", "--q-grid", "1"]
    code, out = run_cli(["tones", "--amplitude", "mags:1,1,2,0", *grid], tmp_path, "mags.csv")
    assert code == EXIT_OK
    _, unit = run_cli(["tones", "--amplitude", "unit", *grid], tmp_path, "unit.csv")
    assert out.read_bytes() == unit.read_bytes()


def test_kalman_gap_shrinks_linearly(tmp_path):
    code, out = run_cli(
        [
            "kalman",
            "--n-list",
            "1",
            "--q-grid",
            "2",
            "--base-steps",
            "1024",
            "--dt-levels",
            "3",
        ],
        tmp_path,
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 4  # three dt levels plus the extrapolated dt=0 row
    gaps = [abs(float(r["cmmse_gap"])) for r in rows if float(r["dt"]) > 0]
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.1)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.1)
    extrapolated = [r for r in rows if float(r["dt"]) == 0.0][0]
    assert abs(float(extrapolated["cmmse_gap"])) <= 1e-3
    assert abs(float(extrapolated["mmse_gap"])) <= 1e-3


def test_kalman_aliased_grid_exits_2(capsys):
    # 64 tones on 100 samples alias: this exited 0 with an extrapolated
    # mmse_gap of 6.8e-3 and cmmse_gap of 3.3e-3
    argv = ["kalman", "--n-list", "64", "--q-grid", "2", "--base-steps", "100", "--dt-levels", "2"]
    assert main(argv) == EXIT_CONFIG
    assert "n_steps must exceed 2 n_tones = 128" in capsys.readouterr().err


def test_mc_check_rows(tmp_path):
    args = ["mc-check", "--source", "uniform", "--q-grid", "0.5", "--samples", "50000"]
    code, out = run_cli(args + ["--seed", "9"], tmp_path)
    assert code == EXIT_OK
    assert float(read_csv(out)[0]["n_sigmas"]) <= 3.0


@pytest.mark.parametrize(
    "source,grid", [("rademacher", "1e3,1e8"), ("atoms:-1,0.5,1,0.5", "50,1e4")]
)
def test_mc_check_exact_estimates_agree(source, grid, tmp_path):
    # at high snr every atom is recovered: each draw's error is 0, so the
    # standard error is 0 and agreement is the quadrature's own tolerance
    args = ["mc-check", "--source", source, "--q-grid", grid, "--samples", "100000"]
    code, out = run_cli(args, tmp_path)
    assert code == EXIT_OK
    rows = read_csv(out)
    assert [(r["mc_value"], r["std_error"], r["n_sigmas"]) for r in rows] == [("0", "0", "0")] * 2
    assert max(float(r["quadrature"]) for r in rows) <= 2.5e-12


def test_mc_check_exact_estimate_off_the_quadrature_is_inf(monkeypatch, tmp_path):
    monkeypatch.setattr("mmselab.scalar_channel.mmse", lambda ch, cfg: 1e-9)
    args = ["mc-check", "--source", "rademacher", "--q-grid", "1e8", "--samples", "10000"]
    code, out = run_cli(args, tmp_path)
    assert code == EXIT_OK
    assert read_csv(out)[0]["n_sigmas"] == "inf"


def test_byte_identical_reruns(tmp_path):
    args = ["scalar", "--source", "rademacher", "--q-grid", "0.25,1"]
    _, out1 = run_cli(args, tmp_path, "a.csv")
    _, out2 = run_cli(args, tmp_path, "b.csv")
    assert out1.read_bytes() == out2.read_bytes()


def test_cells_carry_17_significant_digits(tmp_path):
    _, out = run_cli(["scalar", "--source", "rademacher", "--q-grid", "1"], tmp_path)
    row = read_csv(out)[0]
    value = float(row["mmse"])
    assert row["mmse"] == format(value, ".17g")
    assert float(row["mmse"]) == value  # round-trips exactly


def test_json_format(tmp_path):
    code, out = run_cli(
        ["scalar", "--source", "gaussian", "--q-grid", "1", "--format", "json"],
        tmp_path,
        "out.json",
    )
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert isinstance(data, list) and len(data) == 1
    assert float(data[0]["gaussian_mmse"]) == pytest.approx(0.5)


def test_render_rows_empty():
    assert render_rows([], "csv") == ""
    assert json.loads(render_rows([], "json")) == []


def test_config_validation(capsys):
    scalar = ["scalar", "--source", "rademacher"]
    assert main(scalar + ["--q-grid", "1", "--tol", "-1"]) == EXIT_CONFIG
    assert "tolerances must be positive" in capsys.readouterr().err
    assert main(scalar + ["--q-grid", ""]) == EXIT_CONFIG
    assert main(["tones", "--n-list", "", "--q-grid", "1"]) == EXIT_CONFIG
    kalman = ["kalman", "--n-list", "1", "--q-grid", "1"]
    assert main(kalman + ["--dt-levels", "1"]) == EXIT_CONFIG
    assert main(kalman + ["--base-steps", "50"]) == EXIT_CONFIG
    mc_check = ["mc-check", "--source", "uniform", "--q-grid", "1"]
    assert main(mc_check + ["--samples", "100"]) == EXIT_CONFIG
    assert main(["derivatives", "--source", "rademacher", "--orders", "5"]) == EXIT_CONFIG
    with pytest.raises(SystemExit) as exc:
        main(scalar + ["--q-grid", "1", "--format", "yaml"])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        ["scalar", "--source", "rademacher", "--q-grid", "1", "--seed", "3"],
        ["kalman", "--n-list", "1", "--q-grid", "1", "--tol", "1e-9"],
        ["derivatives", "--source", "rademacher", "--tol", "1e-9"],
    ],
    ids=["scalar-seed", "kalman-tol", "derivatives-tol"],
)
def test_flags_that_enter_no_formula_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG


# -- the scalar grid in integral batches ---------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"
README = Path(__file__).resolve().parents[1] / "README.md"


def _sweep_specs():
    # the 14 law specs of a scalar-sweep round of the benchmark (seed 1, round 0)
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    calls = workloads.round_calls("scalar-sweep", 1, 0)
    return [(call.argv[2], call.argv[4]) for call in calls if call.kind == "cli"]


def _readme_scalar_lines():
    lines = [line.split() for line in README.read_text().splitlines()]
    return [
        (words[words.index("--source") + 1], words[words.index("--q-grid") + 1])
        for words in lines
        if words[:4] == ["python", "-m", "mmselab.cli", "scalar"]
    ]


def _bits(run):
    # the hex of each (mmse, D) pair, or the failure's type and message
    try:
        return [tuple(float(v).hex() for v in pair) for pair in run()]
    except NumericsError as exc:
        return type(exc).__name__, str(exc)


def _per_q_pairs(src, grid, cfg):
    return [
        scalar_channel._channel_integrals(src, [("mmse", q), ("nongaussianity", q)], cfg)
        for q in grid
    ]


SWEEP_SPECS = _sweep_specs()


@pytest.mark.parametrize("spec, grid", SWEEP_SPECS + _readme_scalar_lines())
def test_scalar_rows_are_the_per_q_pairs_bit_for_bit(spec, grid):
    # each q keeps the panels of its own integral inside the batch; an atom
    # law's failure at q = 1e6 is the per-q loop's failure too
    args = argparse.Namespace(source=spec, q_grid=grid, tol=1e-9)
    src, q_grid, cfg = parse_source(spec), parse_q_grid(grid), _quad_cfg(1e-9)
    rows = lambda: [(row["mmse"], row["nongaussianity"]) for row in cmd_scalar(args)]  # noqa: E731
    assert _bits(rows) == _bits(lambda: _per_q_pairs(src, q_grid, cfg))


def test_scalar_sweep_specs_are_the_round():
    assert len(SWEEP_SPECS) == 14


def test_scalar_failure_names_the_first_failing_q_in_grid_order(monkeypatch, capsys):
    # at this budget q = 0.1 fails on its third pass and q = 10 on its second,
    # so the batch sees q = 10 fail first; the per-q loop names q = 0.1
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-18, max_subdivisions=12)
    src = parse_source("uniform")
    passes = {}
    for q in (0.01, 0.1, 10.0):
        seen = []
        real = scalar_channel.integrate

        def counted(f, *args, **kwargs):
            return real(lambda ys: seen.append(1) or f(ys), *args, **kwargs)

        monkeypatch.setattr(scalar_channel, "integrate", counted)
        try:
            scalar_channel._channel_integrals(src, [("mmse", q), ("nongaussianity", q)], cfg)
            passes[q] = None
        except NonConvergence:
            passes[q] = len(seen)
        monkeypatch.undo()
    assert passes[0.01] is None and passes[0.1] > passes[10.0]
    expected = _bits(lambda: _per_q_pairs(src, (0.01, 0.1, 10.0), cfg))
    assert expected[0] == "NonConvergence" and "at q=0.1:" in expected[1]
    monkeypatch.setattr(cli, "_quad_cfg", lambda tol: cfg)
    assert main(["scalar", "--source", "uniform", "--q-grid", "0.01,0.1,10"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical failure: {expected[1]}\n"


def test_scalar_grid_goes_in_bounded_batches(monkeypatch):
    # a long grid never holds all its integrals at once
    batches = []
    real = scalar_channel._channel_integrals

    def counted(src, parts, cfg, **kwargs):
        batches.append(len(parts) // 2)
        return real(src, parts, cfg, **kwargs)

    monkeypatch.setattr(scalar_channel, "_channel_integrals", counted)
    grid = "1e-2:1e2:150:log"
    args = argparse.Namespace(source="gaussian", q_grid=grid, tol=1e-9)
    rows = cmd_scalar(args)
    assert [row["q"] for row in rows] == list(parse_q_grid(grid))
    assert batches == [cli._GRID_BATCH, cli._GRID_BATCH, 150 - 2 * cli._GRID_BATCH]
