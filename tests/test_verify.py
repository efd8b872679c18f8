"""Self-check suite plumbing: readings and their verdicts, result
formatting, suite dispatch, and the structure of the adjudicated-constants
report."""

import numpy as np
import pytest

from orbitflow import control, geom, verify
from orbitflow.verify import (SUITE_NAMES, CheckResult, Reading, SuiteResult,
                              constants_suite, control_suite, run_suite)

# the rules as plain comparisons, written apart from the module's table
RULES = {"<=": lambda v, b: v <= b, "<": lambda v, b: v < b, ">=": lambda v, b: v >= b,
         ">": lambda v, b: v > b, "==": lambda v, b: v == b}


def test_check_result_lines():
    ok = CheckResult("trace identity", (Reading("max |tr J|", 2e-13, "<=", "1e-12"),))
    bad = CheckResult("trace identity", (
        Reading("max |tr J|", 2e-13, "<=", "1e-12"),
        Reading("breaks", 1, "==", "0", "{} = {:d}")))
    assert ok.passed and not bad.passed
    assert ok.line() == "[pass] trace identity: max |tr J| = 2.00e-13 (tol 1e-12)"
    assert bad.line() == ("[FAIL] trace identity: max |tr J| = 2.00e-13 (tol 1e-12), "
                          "breaks = 1 (want 0)")
    suite = SuiteResult("invariants", (ok, bad))
    assert not suite.passed
    assert suite.lines() == [ok.line(), bad.line(),
                             "suite invariants: FAILED (1/2 checks)"]


# (rule, verdict one ulp below the bound, at it, one ulp above it)
RULE_TABLE = [("<=", True, True, False), ("<", True, False, False),
              (">=", False, True, True), (">", False, False, True),
              ("==", False, True, False)]


@pytest.mark.parametrize("rule, below, at, above", RULE_TABLE)
def test_reading_rules_at_and_beside_their_bounds(rule, below, at, above):
    # the literal is printed as written, not as its float's shortest form
    bound = "1e-3"
    assert f"{float(bound):g}" != bound
    b = float(bound)
    for value, want in ((np.nextafter(b, -np.inf), below), (b, at),
                        (np.nextafter(b, np.inf), above)):
        reading = Reading("gap", value, rule, bound)
        assert reading.passed is want
        line = CheckResult("check", (reading,)).line()
        assert line.startswith("[pass]" if want else "[FAIL]")
        assert line.endswith(f"({'want' if rule == '==' else 'tol'} 1e-3)")
        assert "0.001" not in line


def test_every_check_of_every_suite_reads_its_bounds():
    # at seed 0, each verdict is the conjunction of its readings' rules, and
    # each reading's bound is printed as written
    for name in SUITE_NAMES:
        result, _ = run_suite(name, seed=0)
        for check in result.checks:
            assert check.readings, check.name
            want = all(RULES[r.rule](r.value, float(r.bound)) for r in check.readings)
            assert check.passed == want, check.name
            line = check.line()
            for r in check.readings:
                assert f" {r.bound})" in line, (check.name, r.label)


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_suite_names_are_exposed():
    assert "constants" in SUITE_NAMES and "invariants" in SUITE_NAMES
    assert len(SUITE_NAMES) == 5


def test_constants_suite_adjudicates_three_divergences():
    # light sample count: the gaps are factors of 2 to 4, far beyond the SE
    result, report = constants_suite(samples=2000, seed=1)
    assert result.passed
    assert len(report.entries) == 5
    assert len(report.divergences) == 3
    verdicts = {e.location: e.verdict for e in report.entries}
    assert verdicts["circle-example"] == "diverges"
    assert verdicts["orthogonal-frame-correction"] == "diverges"
    assert verdicts["rectangular-noise-contraction"] == "diverges"
    assert verdicts["square-noise-contraction"] == "agrees"
    assert verdicts["skew-increment-normalization"] == "agrees"
    for e in report.entries:
        assert e.samples == 2000
        assert e.oracle_se > 0.0


def test_control_suite_runs_its_schedules_as_stacks(monkeypatch):
    # segment s of all 25 schedules is one stacked flow with one eigh: at
    # most 3 flows, plus one eigh in each of the 100 drift_J_R calls of the
    # conjugation identity
    flows, eighs = 0, 0
    flow, eigh = control.quotient_flow, geom.eigh_desc

    def counted_flow(*args):
        nonlocal flows
        flows += 1
        return flow(*args)

    def counted_eigh(s):
        nonlocal eighs
        eighs += 1
        return eigh(s)

    monkeypatch.setattr(control, "quotient_flow", counted_flow)
    monkeypatch.setattr(geom, "eigh_desc", counted_eigh)
    assert control_suite(seed=0).passed
    assert 1 <= flows <= 3
    assert eighs == flows + 100


def _count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(verify, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(verify, name, counted)
    return counts


def test_invariants_suite_makes_one_kernel_call_per_group(monkeypatch):
    # one call per size and metric, and one O(3) ensemble for the frame and
    # the Grassmann projector checks
    counts = _count_calls(monkeypatch, (
        "drift_J_spectral", "drift_J_R", "vertical_project", "horizontal_project",
        "ito_correction_sum", "metric_gram", "orbit_log_volume", "orthogonal_ensemble",
        "grassmann_ito_ensemble"))
    assert verify.invariants_suite(seed=0).passed
    assert counts == {"drift_J_spectral": 5 + 5 + 1 + 3, "drift_J_R": 3,
                      "vertical_project": 6 * 3, "horizontal_project": 6,
                      "ito_correction_sum": 6, "metric_gram": 1, "orbit_log_volume": 2 * 2,
                      "orthogonal_ensemble": 1, "grassmann_ito_ensemble": 1}


def test_control_suite_loops_only_over_its_sequential_checks(monkeypatch):
    # the cone identity compares two sequential routes per sample and the
    # conjugation identity builds one metric per sample; the Jacobian and
    # certificate checks make one call per size
    counts = _count_calls(monkeypatch, ("alpha", "alpha_from_pairs", "alpha_jacobian",
                                        "alpha_sos", "alpha_sos_sum", "drift_J_R"))
    control_suite(seed=0)
    assert counts == {"alpha": 100, "alpha_from_pairs": 100, "alpha_jacobian": 4 + 1 + 5,
                      "alpha_sos": 5, "alpha_sos_sum": 5, "drift_J_R": 2 * 50}
