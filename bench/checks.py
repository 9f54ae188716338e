"""Checks of every operation against the references of ``reference.py``.

``check_call`` turns one call's raw output into one outcome per operation.
Each check is a named comparison ``|value - reference| <= tolerance`` (or a
bound); the ``Checker`` keeps, for each name, the worst error seen on an
operation that passed and the worst ratio of error to tolerance, so a run
logs its accuracy next to its time.  No tolerance is taken from the program
except a derivative's own ``error_estimate``, which is what is being tested.
"""

from __future__ import annotations

import csv
import io
import math

import reference as ref

# mmse and divergence: the CLI integrates to rel_tol 1e-9 of an integral
# of size at most 1, so its mmse error is at most about 1e-9.
MMSE_TOL = 1e-8
DIV_ABS_TOL, DIV_REL_TOL = 1e-9, 1e-7
BOUND_SLACK = 1e-9
# mmse_exact comes from a five-point stencil whose truncation error nothing
# reports: 6.4e-6 at most for `unit`, 2.03e-5 at most over the seeded
# two-magnitude laws (README, "Correctness checks").
TONE_MMSE_TOL = 6e-5
TONE_CMMSE_TOL = 1e-9
CLOSED_FORM_REL_TOL = 1e-12
KALMAN_MMSE_TOL = 1e-10
KALMAN_EXTRAPOLATED_TOL = 1e-6
GAP_RATIO = (1.9, 2.1)
MC_SIGMAS = 6.0


class Outcome:
    def __init__(self) -> None:
        self.failures: list = []
        self.errors: dict = {}

    def check(self, name: str, error: float, tol: float) -> None:
        """Record ``error`` against ``tol``; NaN counts as a failure."""
        ratio = error / tol if tol > 0 else (0.0 if error == 0 else math.inf)
        self.errors[name] = max(self.errors.get(name, 0.0), ratio)
        if not error <= tol:
            self.failures.append(f"{name}: error {error:.3e} > {tol:.3e}")

    def bound(self, name: str, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    @property
    def ok(self) -> bool:
        return not self.failures


def _rows(result: dict, expected: int):
    """CSV rows as dicts of floats, or the reason none can be checked."""
    if result["rc"] != 0:
        return None, f"exit {result['rc']}: {result['stderr'].strip()[:200]}"
    rows = list(csv.DictReader(io.StringIO(result["stdout"])))
    if len(rows) != expected:
        return None, f"{len(rows)} rows, expected {expected}"
    parsed = [{k: (v if k == "source" else float(v)) for k, v in row.items()} for row in rows]
    return parsed, None


class Checker:
    """Checks calls and accumulates the worst error of each check."""

    def __init__(self) -> None:
        self.worst: dict = {}
        self._scalar_refs: dict = {}
        self._tone_refs: dict = {}

    def _scalar_ref(self, law, q: float) -> tuple:
        key = (law.name, q)
        if key not in self._scalar_refs:
            self._scalar_refs[key] = law.reference(q)
        return self._scalar_refs[key]

    def _tone_ref(self, law, x: float) -> tuple:
        key = (law.spec, x)
        if key not in self._tone_refs:
            self._tone_refs[key] = law.reference(x)
        return self._tone_refs[key]

    def check_call(self, call, result: dict) -> list:
        """One Outcome per operation of ``call``."""
        if call.kind == "custom":
            outcomes = self._custom(call, result)
        elif call.kind == "tone-derivative":
            outcomes = [self._tone_derivative(call, result)]
        else:
            # a derivative set is one operation of four rows (orders 1-4)
            expected = 4 if call.argv[0] == "derivatives" else call.n_ops
            rows, reason = _rows(result, expected)
            if rows is None:
                outcomes = [Outcome() for _ in range(call.n_ops)]
                for o in outcomes:
                    o.fail(reason)
            else:
                outcomes = getattr(self, "_" + call.argv[0].replace("-", "_"))(call, rows)
        for o in outcomes:
            if o.ok:
                for name, ratio in o.errors.items():
                    self.worst[name] = max(self.worst.get(name, 0.0), ratio)
        return outcomes

    # -- scalar-sweep ------------------------------------------------------

    def _scalar_point(self, law, q: float, mmse: float, div: float) -> Outcome:
        o = Outcome()
        rm, rd = self._scalar_ref(law, q)
        o.bound(
            "mmse_bounds",
            0.0 <= mmse <= 1.0 / (1.0 + q) + BOUND_SLACK,
            f"mmse {mmse!r} outside [0, 1/(1+q)] at q={q!r}",
        )
        half_log = 0.5 * math.log1p(q)
        o.bound(
            "divergence_bounds",
            0.0 <= div <= half_log * (1.0 + BOUND_SLACK),
            f"divergence {div!r} outside [0, ln(1+q)/2] at q={q!r}",
        )
        o.check("mmse_vs_reference", abs(mmse - rm), MMSE_TOL)
        o.check("divergence_vs_reference", abs(div - rd), DIV_ABS_TOL + DIV_REL_TOL * rd)
        return o

    def _scalar(self, call, rows) -> list:
        return [
            self._scalar_point(call.law, r["q"], r["mmse"], r["nongaussianity"]) for r in rows
        ]

    def _custom(self, call, result: dict) -> list:
        outcomes = []
        for q, value, error in zip(call.qs, result["values"], result["errors"]):
            if value is None:
                o = Outcome()
                o.fail(error)
            else:
                o = self._scalar_point(call.law, q, value[0], value[1])
            outcomes.append(o)
        return outcomes

    # -- lowsnr-tones ------------------------------------------------------

    def _derivatives(self, call, rows) -> list:
        o = Outcome()
        exact = ref.derivatives_at_zero(*call.law.moments())
        for row in rows:
            order = int(row["order"])
            err = abs(row["value"] - exact[order - 1])
            o.check(f"derivative_order{order}_vs_moments", err, row["error_estimate"])
        return [o]

    def _tone_derivative(self, call, result: dict) -> Outcome:
        o = Outcome()
        if "error" in result:
            o.fail(result["error"])
            return o
        exact = call.law.fourth_derivative_at_zero() if call.order == 4 else 0.0
        err = abs(result["value"] - exact)
        o.check(f"tone_derivative_order{call.order}", err, result["error_estimate"])
        return o

    def _tones(self, call, rows) -> list:
        outcomes = []
        for r in rows:
            o = Outcome()
            n, q = int(r["n"]), r["q"]
            x = q / n
            gc, gm = ref.gaussian_tone_errors(n, q)
            rm, rd = self._tone_ref(call.law, x)
            cm, mm = r["cmmse_exact"], r["mmse_exact"]
            o.check("tone_gaussian_cmmse", abs(r["gaussian_cmmse"] - gc), CLOSED_FORM_REL_TOL * gc)
            o.check("tone_gaussian_mmse", abs(r["gaussian_mmse"] - gm), CLOSED_FORM_REL_TOL * gm)
            o.bound(
                "tone_order",
                0.0 <= mm <= cm + BOUND_SLACK
                and cm <= gc + BOUND_SLACK
                and mm <= gm + BOUND_SLACK,
                f"not 0 <= mmse {mm!r} <= cmmse {cm!r} <= {gc!r}, mmse <= {gm!r} at N={n} q={q!r}",
            )
            o.check("tone_mmse_vs_radial", abs(mm - rm), TONE_MMSE_TOL)
            o.check("tone_cmmse_vs_radial", abs(cm - (gc - 2.0 * rd / x)), TONE_CMMSE_TOL)
            # deficits/(q/N) = 1/4 - x/12 + O(x^2) and 1/2 - x/4 + O(x^2): D''(0) = 0
            o.check("tone_cmmse_rate", abs(r["cmmse_deficit_scaled"] - 0.25), x / 6.0 + x * x)
            o.check("tone_mmse_rate", abs(r["mmse_deficit_scaled"] - 0.5), x / 2.0 + x * x)
            outcomes.append(o)
        return outcomes

    # -- oracles -------------------------------------------------------------

    def _kalman(self, call, rows) -> list:
        outcomes = []
        levels = [r for r in rows if r["dt"] > 0]
        for i, r in enumerate(rows):
            o = Outcome()
            n, q = int(r["n"]), r["q"]
            gc, gm = ref.gaussian_tone_errors(n, q)
            o.check("kalman_cmmse_target", abs(r["cmmse_target"] - gc), CLOSED_FORM_REL_TOL * gc)
            o.check("kalman_mmse_target", abs(r["mmse_target"] - gm), CLOSED_FORM_REL_TOL * gm)
            o.check("kalman_mmse", abs(r["mmse"] - gm), KALMAN_MMSE_TOL)
            if r["dt"] == 0.0:
                o.check("kalman_extrapolated_cmmse", abs(r["cmmse"] - gc), KALMAN_EXTRAPOLATED_TOL)
            elif i % 4 > 0:
                previous = rows[i - 1]
                gap = r["cmmse"] - gc
                ratio = (previous["cmmse"] - gc) / gap if gap else math.inf
                o.bound(
                    "kalman_gap_halves",
                    GAP_RATIO[0] <= ratio <= GAP_RATIO[1] and previous["dt"] == 2.0 * r["dt"],
                    f"cmmse gap ratio {ratio!r} at N={n} q={q!r} dt={r['dt']!r}",
                )
            outcomes.append(o)
        if len(levels) * 4 != 3 * len(rows):
            for o in outcomes:
                o.fail("kalman rows are not three levels and one extrapolation per (N, q)")
        return outcomes

    def _mc_check(self, call, rows) -> list:
        outcomes = []
        for r in rows:
            o = Outcome()
            rm, _ = self._scalar_ref(call.law, r["q"])
            o.check("mc_quadrature_vs_reference", abs(r["quadrature"] - rm), MMSE_TOL)
            o.check("mc_sigmas_from_reference", abs(r["mc_value"] - rm), MC_SIGMAS * r["std_error"])
            outcomes.append(o)
        return outcomes
