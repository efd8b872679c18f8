"""Fiber geometry checks: splittings, frames, curvature, and the three drift routes."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from orbitflow.geom import (KAPPA_DRIFT, MetricR, drift_J_gradient, drift_J_R,
                            drift_J_spectral, fiber_dim, horizontal_project,
                            ito_correction_sum, mean_curvature, metric_gram,
                            orbit_log_volume, sff_vertical, vertical_onb,
                            vertical_project)
from orbitflow.matcore import TAU_RANK, skew_part, so_basis, solve_lyapunov, sym_part


def _rand_spd(rng, n, spread=1.0):
    lam = np.exp(spread * rng.standard_normal(n))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return sym_part((q * lam) @ q.T)


def _rand_orth(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _rand_metric(rng, n, spread=0.5):
    return MetricR(_rand_spd(rng, n, spread))


def test_fiber_dim_values():
    assert [fiber_dim(k) for k in (1, 2, 3, 4)] == [0, 1, 3, 6]


# ---------------------------------------------------------------------------
# vertical / horizontal splitting


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 2), (5, 3)])
@pytest.mark.parametrize("with_metric", [False, True])
def test_split_recovers_and_is_orthogonal(n, k, with_metric):
    rng = np.random.default_rng(10 * n + k + with_metric)
    m = rng.standard_normal((n, k))
    metric = _rand_metric(rng, n) if with_metric else None
    w = rng.standard_normal((n, k))
    v = vertical_project(m, w, metric)
    h = horizontal_project(m, w, metric)
    assert_allclose(v + h, w, rtol=0, atol=1e-12)
    # metric-orthogonality of the two components
    met = metric if metric is not None else MetricR.euclidean(n)
    assert abs(met.inner(v, h)) <= 1e-10 * (1.0 + met.inner(w, w))
    # idempotence on each leg
    assert_allclose(vertical_project(m, v, metric), v, rtol=0, atol=1e-10)
    assert_allclose(vertical_project(m, h, metric), np.zeros_like(h),
                    rtol=0, atol=1e-10)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3)])
@pytest.mark.parametrize("with_metric", [False, True])
def test_stacked_projections_equal_per_matrix_calls(n, k, with_metric):
    rng = np.random.default_rng(300 + 10 * n + k + with_metric)
    metric = _rand_metric(rng, n) if with_metric else None
    m = rng.standard_normal((5, n, k))
    w = rng.standard_normal((5, n, k))
    v = vertical_project(m, w, metric)
    h = horizontal_project(m, w, metric)
    for i in range(5):
        assert_array_equal(v[i], vertical_project(m[i], w[i], metric))
        assert_array_equal(h[i], horizontal_project(m[i], w[i], metric))


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3)])
def test_vertical_part_lies_in_orbit_directions(n, k):
    # vertical vectors are M K with K skew: recover K by least squares
    rng = np.random.default_rng(n + 7 * k)
    m = rng.standard_normal((n, k))
    v = vertical_project(m, rng.standard_normal((n, k)))
    kmat, *_ = np.linalg.lstsq(m, v, rcond=None)
    assert_allclose(m @ kmat, v, rtol=0, atol=1e-10)
    assert_allclose(skew_part(kmat), kmat, rtol=0, atol=1e-10)


def horizontal_from_sym_solve(m, w):
    """Dual route to horizontal_project for square full-rank M (Frobenius).

    Writes the tangent as W = E M, solves S P + P S = P E^T + E P for the
    symmetric S with P = M M^T, and returns S M: symmetric-times-M is the
    Frobenius orthogonal complement of M times skew.  solve_lyapunov needs an
    exactly symmetric P, which M M^T need not be in storage.
    """
    p = sym_part(m @ m.T)
    e = w @ np.linalg.inv(m)
    return solve_lyapunov(p, p @ e.T + e @ p) @ m


@pytest.mark.parametrize("n", [2, 3, 5])
def test_symmetric_solve_route_matches_projection(n):
    rng = np.random.default_rng(60 + n)
    m = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    w = rng.standard_normal((n, n))
    assert_allclose(horizontal_from_sym_solve(m, w), horizontal_project(m, w),
                    rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# fiber frames and curvature


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 3)])
@pytest.mark.parametrize("with_metric", [False, True])
def test_vertical_onb_is_orthonormal(n, k, with_metric):
    rng = np.random.default_rng(100 + 10 * n + k)
    m = rng.standard_normal((n, k))
    metric = _rand_metric(rng, n) if with_metric else None
    frame = vertical_onb(m, metric)
    assert len(frame) == fiber_dim(k)
    met = metric if metric is not None else MetricR.euclidean(n)
    gram = np.array([[met.inner(x, y) for y in frame] for x in frame])
    assert_allclose(gram, np.eye(len(frame)), rtol=0, atol=1e-10)
    # every frame vector is vertical
    for x in frame:
        assert_allclose(vertical_project(m, x, metric), x, rtol=0, atol=1e-10)


def test_vertical_onb_oracle_two_by_two():
    # at M = diag(1, 2) the single fiber direction is M (E01 - E10) / sqrt(5),
    # up to overall sign from the eigenvector routine
    m = np.diag([1.0, 2.0])
    (x,) = vertical_onb(m)
    want = m @ np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(5.0)
    err = min(np.abs(x - want).max(), np.abs(x + want).max())
    assert err <= 1e-13


def test_sff_and_mean_curvature_oracle():
    m = np.diag([1.0, 2.0])
    a = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(5.0)
    assert_allclose(sff_vertical(m, a), -m / 5.0, rtol=0, atol=1e-13)
    assert_allclose(mean_curvature(m), np.diag([-0.2, -0.4]), rtol=0, atol=1e-13)


def test_sff_rejects_non_skew():
    with pytest.raises(ValueError):
        sff_vertical(np.eye(2), np.eye(2))


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 3)])
def test_sff_is_horizontal(n, k):
    rng = np.random.default_rng(200 + n + k)
    m = rng.standard_normal((n, k))
    a = skew_part(rng.standard_normal((k, k)))
    s = sff_vertical(m, a)
    assert_allclose(vertical_project(m, s), np.zeros_like(s), rtol=0, atol=1e-10)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 3), (5, 4)])
@pytest.mark.parametrize("with_metric", [False, True])
def test_curvature_pushforward_gives_drift(n, k, with_metric):
    # third route to the drift: the summed fiber curvature fiber_dim * H
    # pushes forward through W -> W M^T + M W^T to exactly -2 J
    rng = np.random.default_rng(300 + 10 * n + k)
    m = rng.standard_normal((n, k))
    metric = _rand_metric(rng, n) if with_metric else None
    total = fiber_dim(k) * mean_curvature(m, metric)
    push = total @ m.T + m @ total.T
    p = m @ m.T
    j = drift_J_R(p, metric) if metric is not None else drift_J_spectral(p)
    assert_allclose(push, -2.0 * j, rtol=0, atol=1e-10 * max(1.0, np.abs(j).max()))


# ---------------------------------------------------------------------------
# orbit frame Gram matrix and log-volume


def test_metric_gram_two_by_two_is_half_trace():
    rng = np.random.default_rng(4)
    p = _rand_spd(rng, 2)
    assert_allclose(metric_gram(p), [[0.5 * np.trace(p)]], rtol=0, atol=1e-14)


def test_metric_gram_diag_oracle():
    g = metric_gram(np.diag([1.0, 2.0, 3.0]))
    assert_allclose(g, np.diag([1.5, 2.0, 2.5]), rtol=0, atol=1e-14)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_metric_gram_matches_frame_inner_products(k):
    # dual route: entry (a, b) is tr(A_a^T P A_b) over the normalized skew basis
    rng = np.random.default_rng(40 + k)
    p = _rand_spd(rng, k)
    basis = so_basis(k)
    want = np.array([[np.trace(a.T @ p @ b) for b in basis] for a in basis])
    assert_allclose(metric_gram(p), want, rtol=0, atol=1e-12)


def test_metric_gram_rejects_indefinite():
    with pytest.raises(ValueError):
        metric_gram(np.diag([1.0, -1.0]))


def test_orbit_log_volume_single_column_is_zero():
    assert orbit_log_volume(np.array([[1.0], [2.0]])) == 0.0


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 3)])
@pytest.mark.parametrize("with_metric", [False, True])
def test_orbit_log_volume_right_invariant(n, k, with_metric):
    rng = np.random.default_rng(500 + 10 * n + k)
    m = rng.standard_normal((n, k))
    metric = _rand_metric(rng, n) if with_metric else None
    base = orbit_log_volume(m, metric)
    for _ in range(3):
        q = _rand_orth(rng, k)
        assert abs(orbit_log_volume(m @ q, metric) - base) <= 1e-10 * (1 + abs(base))


def test_orbit_log_volume_two_by_two_closed_form():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((2, 2))
    want = 0.5 * np.log(0.5 * np.trace(m.T @ m))
    assert_allclose(orbit_log_volume(m), want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n,k", [(3, 1), (2, 2), (4, 3)])
@pytest.mark.parametrize("with_metric", [False, True])
def test_stacked_orbit_log_volume_equals_per_matrix_calls(n, k, with_metric):
    rng = np.random.default_rng(520 + 10 * n + k)
    stack = rng.standard_normal((2, 3, n, k))
    metric = _rand_metric(rng, n) if with_metric else None
    got = orbit_log_volume(stack, metric)
    assert got.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert got[idx] == orbit_log_volume(stack[idx], metric)


def test_stacked_sff_equals_per_generator_calls():
    rng = np.random.default_rng(530)
    m = rng.standard_normal((4, 3))
    metric = _rand_metric(rng, 4)
    gens = skew_part(rng.standard_normal((5, 3, 3)))
    for met in (None, metric):
        got = sff_vertical(m, gens, met)
        for a, want in zip(gens, got):
            assert_array_equal(sff_vertical(m, a, met), want)


@pytest.mark.parametrize("n,k", [(2, 2), (4, 3), (3, 1)])
@pytest.mark.parametrize("with_metric", [False, True])
def test_stacked_fiber_frames_equal_per_matrix_calls(n, k, with_metric):
    # frames carry the frame axis first, then the stack axes of m
    rng = np.random.default_rng(540 + 10 * n + k)
    m = rng.standard_normal((2, 3, n, k))
    metric = _rand_metric(rng, n) if with_metric else None
    gens = skew_part(rng.standard_normal((k, k)))
    frame, sff = vertical_onb(m, metric), sff_vertical(m, gens, metric)
    curv, ito = mean_curvature(m, metric), ito_correction_sum(m, metric)
    assert frame.shape == (fiber_dim(k), 2, 3, n, k)
    assert curv.shape == sff.shape == m.shape and ito.shape == (2, 3, n, n)
    for idx in np.ndindex(2, 3):
        assert_array_equal(frame[(slice(None),) + idx], vertical_onb(m[idx], metric))
        assert_array_equal(sff[idx], sff_vertical(m[idx], gens, metric))
        assert_array_equal(curv[idx], mean_curvature(m[idx], metric))
        assert_array_equal(ito[idx], ito_correction_sum(m[idx], metric))


def test_fiber_frame_rejects_a_rank_deficient_matrix_of_a_stack():
    m = np.stack([np.eye(3, 2), np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])])
    with pytest.raises(ValueError, match="full-rank"):
        vertical_onb(m)


def test_metric_inner_gives_one_value_per_pair():
    rng = np.random.default_rng(550)
    metric = _rand_metric(rng, 3)
    v, w = rng.standard_normal((2, 4, 3, 2))
    got = metric.inner(v, w)
    assert got.shape == (4,)
    for b in range(4):
        assert got[b] == metric.inner(v[b], w[b]) == np.trace(metric.R @ v[b] @ w[b].T)


# sha256 of the float64 bytes of each output on the inputs of
# test_fiber_geometry_keeps_its_bits, taken when every sum here still ran as
# a Python loop over frame vectors, pairs and entries; the stacked kernels
# add in the same order and must keep these bits
GOLDEN = {
    False: {
        "vertical_onb": "915df98bf82c02a6028d413079e6b8d597f8bd52aaef9b82ebae4aaae02170e4",
        "mean_curvature": "2050b08fa1b238c7664fb8577206dd08ffbb531c37b598a1492b8c62012583a7",
        "ito_correction_sum": "dd8c90edef507aba2cf136cf8a953869f54b6afd4ad7ed0a7559b8f7dac02a98",
        "metric_gram": "9c3d8513c367cb6e9cc77133a64a5fbb41364a48c29bff2b048a9cfef420708d",
        "drift_J_gradient": "0548b8001f8eafcca2bcf400b65a7c12663cb0610f685261bbc8868ccc1b8c39",
    },
    True: {
        "vertical_onb": "5d781e9ac45bb4419bf2e11740783e3c85deb1dd347ed009f2504f3bd2aa9bc0",
        "mean_curvature": "f7be12e721e177d4fcae983716d8a496b446ffd654f6ec8319fe1e51d4230c94",
        "ito_correction_sum": "7a59ee2238fa99b9f294cc1762ccac3f4be3da3cec8004260ca0d5f3577807b2",
        "metric_gram": "7938858f7d7be6eb03a2c337fb7701373aa5ad35adff2d5ee03c8266b4499b95",
        "drift_J_gradient": "f9c52ec8c91b49dbfbca1f10c8aff66e66899111158d2e9ae01c75ec77fb1172",
    },
}


@pytest.mark.parametrize("with_metric", [False, True])
def test_fiber_geometry_keeps_its_bits(with_metric):
    rng = np.random.default_rng(2020)
    m = rng.standard_normal((4, 3))
    metric = _rand_metric(rng, 4) if with_metric else None
    got = {"vertical_onb": vertical_onb(m, metric),
           "mean_curvature": mean_curvature(m, metric),
           "ito_correction_sum": ito_correction_sum(m, metric),
           "metric_gram": metric_gram(_rand_spd(rng, 4)),
           "drift_J_gradient": drift_J_gradient(m, metric)}
    digests = {name: hashlib.sha256(np.ascontiguousarray(value, dtype=np.float64)
                                    .tobytes()).hexdigest()
               for name, value in got.items()}
    assert digests == GOLDEN[with_metric]


# ---------------------------------------------------------------------------
# spectral drift route


def test_drift_spectral_frozen_oracles():
    assert_allclose(drift_J_spectral(np.diag([3.0, 1.0])),
                    np.diag([0.75, 0.25]), rtol=0, atol=1e-14)
    assert_allclose(drift_J_spectral(np.diag([1.0, 2.0, 3.0])),
                    np.diag([1.0 / 3 + 1.0 / 4, 2.0 / 3 + 2.0 / 5, 3.0 / 4 + 3.0 / 5]),
                    rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_drift_spectral_identity_matrix(n):
    assert_allclose(drift_J_spectral(np.eye(n)), 0.5 * (n - 1) * np.eye(n),
                    rtol=0, atol=1e-14)


def test_drift_spectral_rank_deficient_oracle():
    # trailing zero eigenvalue stays put; sums run over the positive part
    j = drift_J_spectral(np.diag([3.0, 1.0, 0.0]))
    assert_allclose(j, np.diag([0.75, 0.25, 0.0]), rtol=0, atol=1e-13)


def test_drift_spectral_two_by_two_closed_form():
    # n = 2 collapses to P / tr P
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = _rand_spd(rng, 2)
        assert_allclose(drift_J_spectral(p), p / np.trace(p), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_drift_spectral_trace_identity(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(20):
        p = _rand_spd(rng, n, spread=1.5)
        assert abs(np.trace(drift_J_spectral(p)) - n * (n - 1) / 2.0) <= 1e-12 * n * n


@pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (6, 2)])
def test_drift_spectral_rank_k_trace_identity(n, k):
    rng = np.random.default_rng(80 + n + k)
    m = rng.standard_normal((n, k))
    j = drift_J_spectral(m @ m.T)
    assert abs(np.trace(j) - k * (k - 1) / 2.0) <= 1e-10


def test_drift_spectral_rejects_bad_input():
    with pytest.raises(ValueError):
        drift_J_spectral(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        drift_J_spectral(np.diag([1.0, -1.0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_drift_spectral_properties(n, seed):
    rng = np.random.default_rng(seed)
    p = _rand_spd(rng, n, spread=1.2)
    j = drift_J_spectral(p)
    assert abs(np.trace(j) - n * (n - 1) / 2.0) <= 1e-11 * n * n
    # shares the eigenbasis of P
    assert np.abs(j @ p - p @ j).max() <= 1e-10 * np.abs(p).max() * n
    # drift eigenvalues sit in [0, n - 1]
    w = np.linalg.eigvalsh(j)
    assert w[0] >= -1e-12 and w[-1] <= (n - 1) + 1e-12


def _drift_reference(p):
    """The per-entry definition of the spectral drift: descending spectrum,
    sums over the kept j in ascending order.  It decomposes P itself rather
    than through matcore.eigh_desc, the kernel under test."""
    w, v = np.linalg.eigh(sym_part(p))
    lam, u = w[::-1], v[:, ::-1]
    idx = np.flatnonzero(lam > TAU_RANK * lam[0])
    d = np.zeros(lam.shape[0])
    for i in idx:
        acc = 0.0
        for j in idx:
            if j != i:
                acc += lam[i] / (lam[i] + lam[j])
        d[i] = acc
    return sym_part((u * d) @ u.T)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_drift_spectral_equals_per_entry_definition(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(10):
        p = _rand_spd(rng, n, spread=1.5)
        assert np.array_equal(drift_J_spectral(p), _drift_reference(p))
    m = rng.standard_normal((n, n - 1))
    assert np.array_equal(drift_J_spectral(m @ m.T), _drift_reference(m @ m.T))


def test_drift_spectral_stack_rows_equal_single_calls():
    rng = np.random.default_rng(31)
    for n in (2, 3, 5):
        stack = np.stack([_rand_spd(rng, n, spread=1.2) for _ in range(6)])
        # a rank-deficient row takes the held-at-zero branch inside the stack
        m = rng.standard_normal((n, n - 1))
        stack[2] = m @ m.T
        got = drift_J_spectral(stack.reshape((2, 3, n, n)))
        assert got.shape == (2, 3, n, n)
        for b in range(6):
            assert np.array_equal(got.reshape((6, n, n))[b], drift_J_spectral(stack[b]))


def test_drift_metric_stack_rows_equal_single_calls():
    rng = np.random.default_rng(32)
    for n in (2, 3, 4):
        metric = _rand_metric(rng, n)
        # G^T P G of an unsymmetrized P: the raw P goes on, as for one matrix
        stack = np.stack([_rand_spd(rng, n) for _ in range(5)])
        a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        stack = a.T @ stack @ a
        got = drift_J_R(stack, metric)
        g, gi = metric.factor, metric.factor_inv
        for b in range(5):
            assert np.array_equal(got[b], drift_J_R(stack[b], metric))
            # the conjugation of the docstring, applied to the raw P
            want = sym_part(gi.T @ drift_J_spectral(g.T @ stack[b] @ g) @ gi)
            assert np.array_equal(got[b], want)


@pytest.mark.parametrize("drift", [drift_J_spectral,
                                   lambda p: drift_J_R(p, MetricR.euclidean(2))])
def test_drift_rejects_asymmetric_matrix_or_stack(drift):
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        drift(bad)
    # one bad matrix anywhere in a stack rejects the stack
    stack = np.stack([np.eye(2), np.eye(2), bad])
    with pytest.raises(ValueError, match="not symmetric"):
        drift(stack)


def test_drift_rejects_a_bad_row_of_a_stack():
    with pytest.raises(ValueError, match="nonzero positive semidefinite"):
        drift_J_spectral(np.stack([np.eye(2), np.zeros((2, 2))]))
    with pytest.raises(ValueError, match="rank tolerance"):
        drift_J_spectral(np.stack([np.eye(2), np.diag([1.0, -1.0])]))


def test_drift_rank_deficient_raises_no_warning():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = drift_J_spectral(np.stack([np.diag([3.0, 1.0, 0.0]), np.diag([2.0, 0.0, 0.0])]))
    assert_allclose(j[0], np.diag([0.75, 0.25, 0.0]), rtol=0, atol=1e-13)
    assert_allclose(j[1], np.zeros((3, 3)), rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# gradient route and metric transport


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 4), (3, 2), (4, 3)])
def test_gradient_route_matches_spectral(n, k):
    rng = np.random.default_rng(900 + 10 * n + k)
    m = rng.standard_normal((n, k))
    j_grad = drift_J_gradient(m)
    j_spec = drift_J_spectral(m @ m.T)
    assert np.abs(j_grad - j_spec).max() <= 1e-4 * max(1.0, np.abs(j_spec).max())


@pytest.mark.parametrize("n", [2, 3])
def test_gradient_route_matches_under_metric(n):
    rng = np.random.default_rng(950 + n)
    m = rng.standard_normal((n, n)) + 1.5 * np.eye(n)
    metric = _rand_metric(rng, n)
    j_grad = drift_J_gradient(m, metric)
    j_met = drift_J_R(m @ m.T, metric)
    assert np.abs(j_grad - j_met).max() <= 1e-4 * max(1.0, np.abs(j_met).max())


def test_kappa_is_one_half():
    # the gradient-route scale is 1/2 independent of the fiber dimension;
    # test_gradient_route_matches_spectral covers k = 2, 3, 4 above
    assert KAPPA_DRIFT == 0.5


def test_drift_metric_euclidean_reduces_to_spectral():
    rng = np.random.default_rng(8)
    p = _rand_spd(rng, 4)
    assert_allclose(drift_J_R(p, MetricR.euclidean(4)), drift_J_spectral(p),
                    rtol=0, atol=1e-12)


def test_euclidean_metric_is_one_shared_read_only_instance():
    met = MetricR.euclidean(3)
    assert MetricR.euclidean(3) is met
    assert MetricR.euclidean(4) is not met
    assert_allclose(met.R, np.eye(3), rtol=0, atol=0)
    for arr in (met.R, met.factor, met.factor_inv):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 2.0
    assert_allclose(MetricR.euclidean(3).R, np.eye(3), rtol=0, atol=0)


def test_metric_leaves_the_callers_matrix_writable():
    r = np.diag([2.0, 1.0])
    met = MetricR(r)
    r[0, 0] = 5.0
    assert met.R[0, 0] == 2.0
    with pytest.raises(ValueError, match="read-only"):
        met.factor_inv[1, 1] = 0.0


def test_drift_metric_frozen_oracle():
    # P = diag(3, 1), R = diag(1, 3): G P G = diag(3, 3) has isotropic drift
    # diag(1/2, 1/2); undoing the conjugation scales the second entry by 1/3
    j = drift_J_R(np.diag([3.0, 1.0]), MetricR(np.diag([1.0, 3.0])))
    assert_allclose(j, np.diag([0.5, 1.0 / 6.0]), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_drift_metric_conjugation_identity(n):
    # transporting P by A and the metric by the inverse congruence commutes
    # with the drift: J_{R'}(A^T P A) = A^T J_R(P) A, R' = A^-1 R A^-T
    rng = np.random.default_rng(110 + n)
    p = _rand_spd(rng, n)
    r = _rand_spd(rng, n, spread=0.5)
    a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    ai = np.linalg.inv(a)
    lhs = drift_J_R(a.T @ p @ a, MetricR(sym_part(ai @ r @ ai.T)))
    rhs = a.T @ drift_J_R(p, MetricR(r)) @ a
    assert_allclose(lhs, rhs, rtol=0, atol=1e-10 * np.abs(rhs).max())


# ---------------------------------------------------------------------------
# fiber-noise quadratic variation


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (5, 5), (4, 2), (5, 3)])
def test_ito_correction_equals_spectral_drift(n, k):
    rng = np.random.default_rng(130 + 10 * n + k)
    m = rng.standard_normal((n, k))
    assert_allclose(ito_correction_sum(m), drift_J_spectral(m @ m.T),
                    rtol=0, atol=1e-10)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 3)])
def test_ito_correction_equals_metric_drift(n, k):
    rng = np.random.default_rng(140 + 10 * n + k)
    m = rng.standard_normal((n, k))
    metric = _rand_metric(rng, n)
    assert_allclose(ito_correction_sum(m, metric), drift_J_R(m @ m.T, metric),
                    rtol=0, atol=1e-10)
