"""Each check accepts a right value and rejects a known-wrong one.

    python3 -m pytest -q bench

The right values come from ``reference.py`` (or closed forms), the wrong
ones are the faults the checks exist for, such as the q = 1e6 rademacher
row that ``mmselab scalar`` prints today.  The references themselves are
cross-checked against formulas written another way.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

import checks
import reference as ref
import workloads as wl


def _cli(rows: list) -> dict:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row.values()])
    return {"rc": 0, "stdout": buf.getvalue(), "stderr": ""}


def _ok(call, result) -> list:
    return [o.ok for o in checks.Checker().check_call(call, result)]


RADEMACHER = wl.BUILTIN[0]


def _scalar_row(law, q, **override):
    m, d = law.reference(q)
    row = {"q": q, "mmse": m, "mmse_taylor3": 0.0, "gaussian_mmse": 1 / (1 + q),
           "nongaussianity": d, "resid_taylor3": 0.0, "resid_gaussian": 0.0}
    row.update(override)
    return row


def _scalar_call(law, n):
    return wl.Call("cli", law, n, argv=("scalar", "--source", law.spec, "--q-grid", "x"))


def test_scalar_rows_accept_reference_values():
    rows = [_scalar_row(law, q) for law in (RADEMACHER,) for q in (0.01, 1.0, 1e5)]
    assert _ok(_scalar_call(RADEMACHER, 3), _cli(rows)) == [True] * 3


@pytest.mark.parametrize(
    "override",
    [
        {"mmse": 0.5, "nongaussianity": 3.6069053573295013},  # today's q = 1e6 output
        {"mmse": 1e-6 + 2e-9},
        {"nongaussianity": 6.214608598 + 1e-3},
        {"nongaussianity": -1e-3},
    ],
)
def test_scalar_row_rejects_wrong_values(override):
    row = _scalar_row(RADEMACHER, 1e6, **override)
    assert _ok(_scalar_call(RADEMACHER, 1), _cli([row])) == [False]


def test_scalar_reference_off_by_a_little_is_caught():
    m, d = RADEMACHER.reference(1.0)
    for override in ({"mmse": m + 2e-8}, {"nongaussianity": d * (1 + 1e-6)}):
        row = _scalar_row(RADEMACHER, 1.0, **override)
        assert _ok(_scalar_call(RADEMACHER, 1), _cli([row])) == [False]


def test_failed_cli_call_fails_every_operation():
    call = _scalar_call(RADEMACHER, 2)
    assert _ok(call, {"rc": 3, "stdout": "", "stderr": "numerical failure"}) == [False, False]
    assert _ok(call, _cli([_scalar_row(RADEMACHER, 1.0)])) == [False, False]


def test_custom_point_checked_against_closed_form_uniform():
    call = wl.Call("custom", ref.CUSTOM_UNIFORM, 2, qs=(0.5, 2.0))
    m, d = ref.UniformLaw().reference(0.5)
    good = {"values": [[m, d], None], "errors": [None, "NonConvergence('x')"]}
    assert _ok(call, good) == [True, False]
    bad = {"values": [[m + 1e-7, d], [m, d]], "errors": [None, None]}
    assert _ok(call, bad) == [False, False]


def _derivative_rows(values, errors):
    return [
        {"order": k, "value": v, "error_estimate": e, "step_used": 0.05,
         "moment_formula": 0.0, "abs_difference": 0.0}
        for k, (v, e) in enumerate(zip(values, errors), start=1)
    ]


def test_derivative_set_checked_against_moments():
    expstd = wl.BUILTIN[3]
    call = wl.Call("cli", expstd, 1, argv=("derivatives", "--source", "expstd"))
    errors = [1e-9, 1e-7, 1.3e-4, 0.073]
    good = _derivative_rows([0.0, 0.0, 2.00005, -6.013], errors)
    assert _ok(call, _cli(good)) == [True]
    # the symmetric-law formula D''''(0) = 14 is wrong for expstd
    assert _ok(call, _cli(_derivative_rows([0.0, 0.0, 2.00005, 14.0], errors))) == [False]


def test_skewed_law_output_is_rejected():
    call = wl.Call("cli", wl.SKEWED, 1, argv=("derivatives", "--source", wl.SKEWED.spec))
    m3, m4 = wl.SKEWED.moments()
    exact = ref.derivatives_at_zero(m3, m4)
    rows = _derivative_rows([-4.3e-8, 1.07e-4, exact[2], exact[3]], [1.0e-9, 1.26e-6, 1.0, 1.0])
    assert _ok(call, _cli(rows)) == [False]


def test_tone_derivative_checks():
    for order, exact in ((3, 0.0), (4, 0.1875)):
        call = wl.Call("tone-derivative", ref.UNIT, 1, order=order)
        assert _ok(call, {"value": exact + 5e-4, "error_estimate": 9e-4}) == [True]
        assert _ok(call, {"value": exact + 2e-3, "error_estimate": 9e-4}) == [False]
        assert _ok(call, {"error": "StepUnderflow('x')"}) == [False]


def _tone_row(law, n, q, **override):
    x = q / n
    gc, gm = ref.gaussian_tone_errors(n, q)
    rm, rd = law.reference(x)
    cm = gc - 2.0 * rd / x
    row = {"n": n, "q": q, "cmmse_exact": cm, "mmse_exact": rm, "gaussian_cmmse": gc,
           "gaussian_mmse": gm, "cmmse_asymptotic": 0.0, "mmse_asymptotic": 0.0,
           "cmmse_deficit_scaled": (1 - cm) / x, "mmse_deficit_scaled": (1 - rm) / x}
    row.update(override)
    return row


def _tone_call(law, n_ops):
    return wl.Call("cli", law, n_ops, argv=("tones", "--amplitude", law.spec))


def test_tone_rows():
    law = wl.TWO_MAGNITUDES
    good = [_tone_row(law, n, q) for n in (1, 64) for q in (0.5, 16.0)]
    assert _ok(_tone_call(law, 4), _cli(good)) == [True] * 4
    row = _tone_row(law, 2, 16.0)
    wrong = [
        {"mmse_exact": row["mmse_exact"] + 1e-4},  # beyond the stencil error
        {"cmmse_exact": row["cmmse_exact"] + 1e-8},
        {"cmmse_exact": row["gaussian_cmmse"] + 1e-6},
        {"gaussian_mmse": row["gaussian_mmse"] * (1 + 1e-9)},
        {"mmse_deficit_scaled": 0.5 + 2 * (8.0 / 2 + 64.0)},
    ]
    for override in wrong:
        assert _ok(_tone_call(law, 1), _cli([{**row, **override}])) == [False], override


def _kalman_rows(n, q, gaps=(-3.2e-4, -1.6e-4, -0.8e-4), extrapolated_gap=-1e-8, mmse_gap=0.0):
    gc, gm = ref.gaussian_tone_errors(n, q)
    rows = []
    for level, gap in enumerate(gaps):
        dt = 0.0030679615757712823 / 2**level
        rows.append({"n": n, "q": q, "dt": dt, "cmmse": gc + gap, "mmse": gm + mmse_gap,
                     "cmmse_target": gc, "mmse_target": gm, "cmmse_gap": gap, "mmse_gap": 0.0})
    rows.append({"n": n, "q": q, "dt": 0.0, "cmmse": gc + extrapolated_gap, "mmse": gm,
                 "cmmse_target": gc, "mmse_target": gm, "cmmse_gap": 0.0, "mmse_gap": 0.0})
    return rows


def test_kalman_rows():
    call = wl.Call("cli", None, 4, argv=("kalman",))
    assert _ok(call, _cli(_kalman_rows(4, 3.7))) == [True] * 4
    assert _ok(call, _cli(_kalman_rows(4, 3.7, extrapolated_gap=1e-5)))[3] is False
    assert _ok(call, _cli(_kalman_rows(4, 3.7, gaps=(-3e-4, -1e-4, -0.5e-4))))[1] is False
    assert _ok(call, _cli(_kalman_rows(4, 3.7, mmse_gap=1e-9)))[:3] == [False] * 3


def test_mc_rows():
    law = wl.BUILTIN[2]
    m, _ = law.reference(2.0)
    call = wl.Call("cli", law, 1, argv=("mc-check",))
    row = {"source": "uniform", "q": 2.0, "mc_value": m + 3e-4, "std_error": 1e-4,
           "quadrature": m, "abs_diff": 0.0, "n_sigmas": 0.0}
    assert _ok(call, _cli([row])) == [True]
    assert _ok(call, _cli([{**row, "mc_value": m + 7e-4}])) == [False]
    assert _ok(call, _cli([{**row, "quadrature": m + 1e-7}])) == [False]


# -- the references, cross-checked -----------------------------------------


@pytest.mark.parametrize("q", [0.01, 1.0, 30.0])
def test_rademacher_reference_matches_tanh_form(q):
    # mmse = 1 - E tanh(q + sqrt(q) Z), D = ln(1+q)/2 - q + E ln cosh(q + sqrt(q) Z).
    # A Gauss-Hermite rule is not enough here: at q = 30 a 200-point rule is
    # off by 1e-10, as tanh has poles 0.29 from the real z axis.
    z, w = ref._rule([(-14.0, 14.0, 0.05)])
    w = w * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    t = q + math.sqrt(q) * z
    log_cosh = np.abs(t) + np.log1p(np.exp(-2 * np.abs(t))) - math.log(2.0)
    m, d = RADEMACHER.reference(q)
    assert m == pytest.approx(1 - np.dot(w, np.tanh(t)), abs=1e-12)
    assert d == pytest.approx(0.5 * math.log1p(q) - q + np.dot(w, log_cosh), abs=1e-12)


@pytest.mark.parametrize("q", [0.3, 3.0, 1e4])
def test_gaussian_reference_is_exact(q):
    m, d = wl.BUILTIN[1].reference(q)
    assert m == pytest.approx(1 / (1 + q), rel=1e-12)
    assert abs(d) < 1e-12


def test_density_rule_matches_closed_form_uniform():
    tensor = ref.DensityLaw("uniform", ref.uniform_pdf, ref.CUSTOM_UNIFORM.support)
    for q in (0.2, 5.0):
        m, d = tensor.reference(q)
        m2, d2 = ref.UniformLaw().reference(q)
        assert m == pytest.approx(m2, abs=1e-11)
        assert d == pytest.approx(d2, abs=1e-11)


def test_exponential_reference_at_low_snr():
    # mmse = 1 - q + (2 - m3^2) q^2 / 2 + O(q^3) with m3 = 2
    q = 1e-3
    m, d = ref.ExponentialLaw().reference(q)
    assert m == pytest.approx(1 - q - q * q, abs=1e-7)
    assert d == pytest.approx(0.5 * 4.0 * q**3 / 6, rel=1e-2)


def test_unit_tone_reference():
    m, d = ref.UNIT.reference(1e-3)
    assert m == pytest.approx(1 / (1 + 5e-4), abs=1e-9)  # Gaussian to O(x^3)
    assert ref.UNIT.fourth_derivative_at_zero() == 0.1875


def test_rounds_repeat_their_operations():
    for workload in wl.WORKLOADS:
        first = wl.round_calls(workload, 5, 0)
        again = wl.round_calls(workload, 5, 0)
        later = wl.round_calls(workload, 5, 1)
        other = wl.round_calls(workload, 6, 1)
        assert first == again
        # a run repeats its calls on the same inputs, but never a Kalman q
        for a, b in zip(first, later):
            assert (a == b) != (a.argv[:1] == ("kalman",))
        assert [(c.kind, c.n_ops, c.faults) for c in first] == [
            (c.kind, c.n_ops, c.faults) for c in other
        ]
