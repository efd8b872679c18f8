"""Self-check suite plumbing: result formatting, suite dispatch, and the
structure of the adjudicated-constants report."""

import pytest

from orbitflow import control, geom, verify
from orbitflow.verify import (SUITE_NAMES, CheckResult, SuiteResult,
                              constants_suite, control_suite, run_suite)


def test_check_result_lines():
    ok = CheckResult("trace identity", True, "max 2e-13")
    bad = CheckResult("trace identity", False, "max 0.5")
    assert ok.line() == "[pass] trace identity: max 2e-13"
    assert bad.line() == "[FAIL] trace identity: max 0.5"
    suite = SuiteResult("invariants", (ok, bad))
    assert not suite.passed
    assert suite.lines() == [ok.line(), bad.line(),
                             "suite invariants: FAILED (1/2 checks)"]


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
