"""Controllability checks: interaction field routes, Jacobian certificates,
schedule parsing and integration, and the reachability probe."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from orbitflow.control import (ControlSchedule, ProbeReport, ScheduleSegment,
                               alpha, alpha_from_pairs, alpha_jacobian, alpha_sos,
                               alpha_sos_sum, integrate_control, load_schedule,
                               parse_schedule, reach_probe)
from orbitflow import geom, matcore
from orbitflow.matcore import sqrtm_spd, sym_part
from orbitflow.sde import rk4


def _spectrum(rng, n, spread=0.8):
    return np.sort(np.exp(spread * rng.standard_normal(n)))[::-1]


# ---------------------------------------------------------------------------
# interaction field


def test_alpha_frozen_values():
    assert_allclose(alpha([1.0, 1.0]), [0.5, 0.5], rtol=0, atol=0)
    assert_allclose(alpha([2.0, 1.0]), [1.0 / 3, 1.0 / 3], rtol=0, atol=1e-16)
    assert_allclose(alpha([3.0, 2.0, 1.0]),
                    [1.0 / 5 + 1.0 / 4, 1.0 / 5 + 1.0 / 3, 1.0 / 4 + 1.0 / 3],
                    rtol=0, atol=1e-16)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_alpha_routes_agree_bit_for_bit(n):
    # the cone-sum route performs the same additions in the same order
    rng = np.random.default_rng(n)
    for _ in range(25):
        lam = _spectrum(rng, n)
        assert_array_equal(alpha(lam), alpha_from_pairs(lam))


def test_alpha_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    lam = _spectrum(rng, 4)
    jac = alpha_jacobian(lam)
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        col = (alpha(lam + e) - alpha(lam - e)) / (2.0 * h)
        assert_allclose(jac[:, j], col, rtol=0, atol=1e-6)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_alpha_jacobian_negative_definite(n):
    rng = np.random.default_rng(20 + n)
    for _ in range(50):
        w = np.linalg.eigvalsh(alpha_jacobian(_spectrum(rng, n, spread=1.2)))
        assert w[-1] < 0.0


def test_alpha_jacobian_singular_for_two_levels():
    # row sums vanish at n = 2: one zero mode, one strictly negative
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = np.linalg.eigvalsh(alpha_jacobian(_spectrum(rng, 2)))
        assert abs(w[-1]) <= 1e-13 * abs(w[0])
        assert w[0] < 0.0


def _former_jacobian(lam, square=lambda x: x ** 2):
    # the per-entry loop alpha_jacobian replaced; on a scalar, x ** 2 is
    # libm's pow
    n = lam.shape[0]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if j != i:
                w = 1.0 / square(lam[i] + lam[j])
                d[i, j] = -w
                d[i, i] -= w
    return d


def _former_sos(lam):
    n = lam.shape[0]
    mats = []
    for k in range(n - 1):
        mk = np.zeros((n, n))
        for j in range(k + 1, n):
            w = 1.0 / (lam[k] + lam[j])
            mk[k, j] = w
            mk[j, j] = w
        mats.append(mk)
    return mats


def _former_sos_sum(lam):
    total = None
    for mk in _former_sos(lam):
        term = mk @ mk.T
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_jacobian_and_certificate_keep_the_bits_of_their_loops(n):
    # the certificate adds the same terms in the same order as the loops;
    # the Jacobian squares each pair sum as an array does, which differs
    # from the scalar pow of the former loop by one ulp in rare sums
    rng = np.random.default_rng(60 + n)
    for lam in np.exp(rng.standard_normal((200, n))):
        assert_array_equal(alpha_sos(lam), np.array(_former_sos(lam)))
        assert_array_equal(alpha_sos_sum(lam), _former_sos_sum(lam))
        assert_array_equal(alpha_jacobian(lam), _former_jacobian(lam, np.square))
        former = _former_jacobian(lam)
        assert_allclose(alpha_jacobian(lam), former, rtol=4 * np.finfo(float).eps, atol=0)


def test_jacobian_and_certificate_take_stacks():
    rng = np.random.default_rng(70)
    lam = np.exp(rng.standard_normal((2, 3, 4)))
    jac, sos, total = alpha_jacobian(lam), alpha_sos(lam), alpha_sos_sum(lam)
    assert jac.shape == total.shape == (2, 3, 4, 4)
    assert sos.shape == (3, 2, 3, 4, 4)
    for idx in np.ndindex(2, 3):
        assert_array_equal(jac[idx], alpha_jacobian(lam[idx]))
        assert_array_equal(sos[(slice(None),) + idx], alpha_sos(lam[idx]))
        assert_array_equal(total[idx], alpha_sos_sum(lam[idx]))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_sos_certificate_assembles_jacobian(n):
    rng = np.random.default_rng(40 + n)
    lam = _spectrum(rng, n)
    total = alpha_sos_sum(lam)
    assert_allclose(total, -alpha_jacobian(lam), rtol=0, atol=1e-12)
    ranks = [np.linalg.matrix_rank(mk) for mk in alpha_sos(lam)]
    assert ranks == list(range(n - 1, 0, -1))


# ---------------------------------------------------------------------------
# schedules


def test_schedule_segment_validation():
    for duration in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            ScheduleSegment(duration=duration, R=np.eye(2))
    with pytest.raises(ValueError):
        ScheduleSegment(duration=1.0, R=np.diag([1.0, -1.0]))


def test_parse_schedule_r_and_g_forms():
    text = """
    # metric schedule, two segments
    0.5; R = [1, 0, 0, 2]

    1.5; G = [1, 1, 0, 1]  # factor form
    """
    sched = parse_schedule(text)
    assert len(sched.segments) == 2
    assert sched.total_duration == 2.0
    assert_allclose(sched.segments[0].R, np.diag([1.0, 2.0]), rtol=0, atol=0)
    g = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert_allclose(sched.segments[1].R, g.T @ g, rtol=0, atol=0)


@pytest.mark.parametrize("bad,frag", [
    ("1.0; R = [1, 0, 0]", "line 1"),          # not a square count
    ("1.0; X = [1]", "line 1"),                # unknown matrix name
    ("1.0; R = 1, 0, 0, 1", "line 1"),         # missing brackets
    ("oops; R = [1]", "line 1"),               # bad duration
    ("# nothing here", "no segments"),
    ("1.0; R = [1, 0, 0, -1]", "line 1"),      # not positive definite
    ("nan; R = [1, 0, 0, 1]", "line 1: segment duration must be finite"),
    ("inf; R = [1, 0, 0, 1]", "line 1: segment duration must be finite"),
    ("1.0; R = [1, 0, 0, inf]", "line 1: entry 'inf' is not finite"),
    # an empty or blank entry is not skipped, and an empty matrix is refused
    ("1; R = [1,,0,0,1]", "line 1: empty entry"),
    ("1; R = [1,0,0,1,]", "line 1: empty entry"),
    ("1; R = [,1,0,0,1]", "line 1: empty entry"),
    ("1; G = [2, ,0, 0, 1]", "line 1: empty entry"),
    ("1; R = []", "line 1: empty entry"),
    ("1; R = [1, x, 0, 1]", "line 1: entry 'x' is not a number"),
])
def test_parse_schedule_errors_carry_line_numbers(bad, frag):
    with pytest.raises(ValueError, match=re.escape(frag)):
        parse_schedule(bad)


def test_parse_schedule_error_points_at_offending_line():
    text = "1.0; R = [1, 0, 0, 1]\n\n2.0; R = [1, 2]\n"
    with pytest.raises(ValueError, match="line 3"):
        parse_schedule(text)


def test_load_schedule_reads_files(tmp_path):
    f = tmp_path / "sched.txt"
    f.write_text("0.25; R = [2, 0, 0, 1]\n")
    sched = load_schedule(f)
    assert sched.segments[0].duration == 0.25


# ---------------------------------------------------------------------------
# schedule integration


def test_integrate_control_euclidean_trace_growth():
    sched = parse_schedule("0.5; R = [1, 0, 0, 1]")
    path = integrate_control(np.diag([3.0, 1.0]), sched, substeps=32)
    assert path.times.shape == (33,)
    assert_array_equal(path.states[0], np.diag([3.0, 1.0]))
    # Euclidean segment: trace grows at the exact rate n(n-1)/2 = 1
    assert abs(np.trace(path.final) - (4.0 + 0.5)) <= 1e-10


def test_integrate_control_increments_are_loewner_monotone():
    text = "0.4; R = [2, 0.3, 0.3, 1]\n0.6; G = [1, 0.5, 0, 1]\n"
    path = integrate_control(np.diag([2.0, 0.5]), parse_schedule(text), substeps=16)
    assert path.times.shape == (33,)
    worst = min(np.linalg.eigvalsh(b - a)[0]
                for a, b in zip(path.states, path.states[1:]))
    assert worst > -1e-10


def test_integrate_control_makes_one_eigh_per_segment_index(monkeypatch):
    # rows of 1, 2 and 3 segments: one eigh of the stacked segment starts
    # for each segment index
    calls = []
    monkeypatch.setattr(geom, "eigh_desc", lambda s: calls.append(s.shape) or matcore.eigh_desc(s))
    rng = np.random.default_rng(12)
    counts = [2, 1, 3]
    scheds = [ControlSchedule(tuple(ScheduleSegment(0.3, _spd(rng, 2)) for _ in range(c)))
              for c in counts]
    integrate_control(np.stack([_spd(rng, 2) for _ in counts]), scheds, substeps=8)
    assert calls == [(3, 2, 2), (2, 2, 2), (1, 2, 2)]


@pytest.mark.parametrize("substeps", [0, True, 2.5])
def test_integrate_control_rejects_a_bad_substep_count(substeps):
    with pytest.raises(ValueError, match=re.escape(f"got substeps={substeps!r}")):
        integrate_control(np.eye(2), parse_schedule("1; R = [1,0,0,1]"), substeps=substeps)


def test_integrate_control_rejects_indefinite_start():
    with pytest.raises(ValueError):
        integrate_control(np.diag([1.0, -1.0]), parse_schedule("1; R = [1,0,0,1]"))


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return sym_part(a @ a.T + n * np.eye(n))


def test_stacked_rows_equal_single_calls_bit_for_bit():
    # rows of 1, 2 and 3 segments with different durations run as one batch;
    # row b must carry the states and times of its own single call
    rng = np.random.default_rng(11)
    counts = [2, 1, 3, 1, 3, 2]
    starts = np.stack([_spd(rng, 3) for _ in counts])
    scheds = [ControlSchedule(tuple(ScheduleSegment(float(rng.uniform(0.1, 0.7)),
                                                    _spd(rng, 3))
                                    for _ in range(c)))
              for c in counts]
    given = starts.copy()
    paths = integrate_control(starts, scheds, substeps=8)
    assert len(paths) == len(counts)
    assert np.array_equal(starts, given)
    for b, path in enumerate(paths):
        one = integrate_control(starts[b], scheds[b], substeps=8)
        assert path.times.shape == (1 + 8 * counts[b],)
        assert np.array_equal(path.states[0], starts[b])
        assert np.array_equal(path.times, one.times)
        assert np.array_equal(path.states, one.states)


def test_integrate_control_names_mismatched_sizes():
    mixed = parse_schedule("1; R = [1, 0, 0, 1]\n1; R = [1, 0, 0, 0, 1, 0, 0, 0, 1]")
    with pytest.raises(ValueError, match="segment 2 holds a 3x3 R, but the start is 2x2"):
        integrate_control(np.eye(2), mixed)
    two = parse_schedule("1; R = [1, 0, 0, 1]")
    with pytest.raises(ValueError, match="schedule 1 segment 2 holds a 3x3 R"):
        integrate_control(np.stack([np.eye(2)] * 2), [two, mixed])
    with pytest.raises(ValueError, match="B schedules"):
        integrate_control(np.stack([np.eye(2)] * 3), [two, two])
    with pytest.raises(ValueError, match="B schedules"):
        integrate_control(np.eye(2), [two])


# ---------------------------------------------------------------------------
# reachability probe


def test_reach_probe_no_controls_is_identity():
    p0 = np.diag([2.0, 1.0])
    rep = reach_probe(p0, np.eye(2), {})
    assert_array_equal(rep.endpoint, p0)
    assert rep.duration == 0.0 and rep.loewner_min == 0.0
    assert_array_equal(rep.target, np.zeros(2))


def test_reach_probe_diagonal_pair():
    p0 = np.diag([2.0, 1.0])
    rep = reach_probe(p0, np.eye(2), {(0, 1): 0.4})
    assert isinstance(rep, ProbeReport)
    assert_allclose(rep.target, [0.4, 0.4], rtol=0, atol=0)
    assert rep.log_gain_error <= 1e-2
    assert rep.frame_offdiag <= 1e-10
    assert rep.loewner_min > -1e-10
    assert rep.duration == 1.0


def test_reach_probe_two_legs_in_a_shared_frame():
    rng = np.random.default_rng(5)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    u = q * np.sign(np.diag(r))
    p0 = u @ np.diag([3.0, 2.0, 1.0]) @ u.T
    rep = reach_probe(p0, u, {(0, 1): 0.3, (1, 2): 0.2})
    assert_allclose(rep.target, [0.3, 0.5, 0.2], rtol=0, atol=1e-15)
    assert rep.log_gain_error <= 1e-2
    assert rep.duration == 2.0


def test_reach_probe_equals_rk4_with_validating_root():
    # the stages take the root without a symmetry check; rk4 on the
    # checking sqrtm_spd must give the same bits
    p0 = np.diag([2.0, 1.0])
    cmat = np.diag(alpha([1.0 / 0.8, 1.0 / 0.8]))

    def fdir(q):
        m = sqrtm_spd(q)
        return sym_part(m @ cmat @ m.T)

    want = rk4(fdir, p0, 1.0, 256)[-1]
    assert np.array_equal(reach_probe(p0, np.eye(2), {(0, 1): 0.4}).endpoint, want)


def test_reach_probe_checks_symmetry_once_not_per_stage(monkeypatch):
    calls = 0
    check = matcore.require_symmetric

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(matcore, "require_symmetric", counted)
    p0 = np.diag([3.0, 2.0, 1.0])
    reach_probe(p0, np.eye(3), {(0, 1): 0.3})
    one_leg, calls = calls, 0
    reach_probe(p0, np.eye(3), {(0, 1): 0.3, (1, 2): 0.2})
    assert calls == one_leg == 1


def test_reach_probe_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        reach_probe(np.eye(2), np.eye(2), {(0, 1): -1.0})
    with pytest.raises(ValueError):
        reach_probe(np.eye(2), np.eye(2), {(1, 0): 0.5})
