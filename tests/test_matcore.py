"""Kernel-level checks: validators, spectral ops, Lyapunov solves, FD gradients."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from orbitflow.control import ControlSchedule, ScheduleSegment, integrate_control
from orbitflow.geom import MetricR
from orbitflow.matcore import (TAU_LYAP, LieBasis, as_matrix, eigh_desc,
                               fd_gradient, require_skew,
                               require_spd, require_symmetric, sl2_basis,
                               skew_part, so_basis, so_pairs, solve_lyapunov,
                               sqrtm_spd, sym_part)
from orbitflow.processes import mcf_ode


def _rand_spd(rng, n, spread=1.0):
    lam = np.exp(spread * rng.standard_normal(n))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return sym_part((q * lam) @ q.T)


def test_as_matrix_rejects_vectors():
    with pytest.raises(ValueError):
        as_matrix(np.arange(3.0))


def test_sym_skew_split():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    assert_allclose(sym_part(a) + skew_part(a), a, rtol=0, atol=1e-15)
    assert_array_equal(sym_part(a), sym_part(a).T)
    assert_array_equal(skew_part(a), -skew_part(a).T)
    # a stack of matrices splits slice by slice
    stack = rng.standard_normal((3, 4, 4))
    assert_array_equal(sym_part(stack)[2], sym_part(stack[2]))
    assert_array_equal(skew_part(stack)[0], skew_part(stack[0]))


def test_validators_accept_and_reject():
    rng = np.random.default_rng(1)
    p = _rand_spd(rng, 3)
    require_spd(p)
    require_symmetric(p)
    with pytest.raises(ValueError):
        require_spd(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        require_spd(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        require_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        require_skew(np.eye(2))
    require_skew(np.array([[0.0, 2.0], [-2.0, 0.0]]))


def _schedule_from(p):
    return integrate_control(p, ControlSchedule((ScheduleSegment(0.1, np.eye(2)),)))


@pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
@pytest.mark.parametrize("check", [require_symmetric, require_spd, MetricR,
                                   lambda p: mcf_ode(p, 0.1, 2), _schedule_from],
                         ids=["require_symmetric", "require_spd", "MetricR", "mcf_ode",
                              "integrate_control"])
@pytest.mark.parametrize("value,at", [(np.inf, (0, 0)), (-np.inf, (1, 0)),
                                      (np.nan, (1, 1)), (np.nan, (0, 1))],
                         ids=["inf-diag", "-inf-off", "nan-diag", "nan-off"])
def test_validators_name_a_non_finite_entry(check, value, at):
    # an inf scale passes any symmetry deviation, and a NaN would surface
    # as "not positive definite": each is named with its index instead
    p = np.diag([2.0, 1.0])
    p[at] = value
    with pytest.raises(ValueError, match=re.escape(f"matrix entry {value!r} at index {at} "
                                                   "is not finite")):
        check(p)
    stack = np.stack([np.eye(2), p])
    with pytest.raises(ValueError, match=re.escape(f"at index {(1,) + at} is not finite")):
        require_spd(stack)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_eigh_desc_round_trip(n):
    rng = np.random.default_rng(n)
    s = sym_part(rng.standard_normal((n, n)))
    lam, u = eigh_desc(s)
    assert np.all(np.diff(lam) <= 0)
    assert_allclose((u * lam) @ u.T, s, rtol=0, atol=1e-12)
    # eigenvector columns are orthonormal
    assert_allclose(u.T @ u, np.eye(n), rtol=0, atol=1e-12)
    # a (B, n, n) stack: each row is the single-matrix call, bit for bit
    stack = sym_part(rng.standard_normal((7, n, n)))
    lam_b, u_b = eigh_desc(stack)
    assert lam_b.shape == (7, n) and u_b.shape == (7, n, n)
    assert np.all(np.diff(lam_b, axis=-1) <= 0)
    for b in range(7):
        lam_1, u_1 = eigh_desc(stack[b])
        assert_array_equal(lam_b[b], lam_1)
        assert_array_equal(u_b[b], u_1)


def test_sqrtm_spd_rejects_asymmetric():
    # eigh_desc validates nothing; the check sits at the boundary
    with pytest.raises(ValueError, match="not symmetric"):
        sqrtm_spd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sqrtm_spd_squares_back():
    rng = np.random.default_rng(3)
    p = _rand_spd(rng, 4)
    g = sqrtm_spd(p)
    assert_array_equal(g, g.T)
    assert_allclose(g @ g, p, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        sqrtm_spd(np.diag([1.0, -2.0]))


# frozen Lyapunov oracles: X solves P X + X P = B
@pytest.mark.parametrize("p,b,want", [
    (np.eye(2), np.array([[2.0, 4.0], [4.0, 6.0]]),
     np.array([[1.0, 2.0], [2.0, 3.0]])),
    (np.diag([1.0, 3.0]), np.array([[0.0, 4.0], [4.0, 0.0]]),
     np.array([[0.0, 1.0], [1.0, 0.0]])),
    (np.diag([1.0, 2.0, 3.0]), np.eye(3),
     np.diag([0.5, 0.25, 1.0 / 6.0])),
])
def test_solve_lyapunov_oracles(p, b, want):
    assert_allclose(solve_lyapunov(p, b), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (7, 3)])
def test_solve_lyapunov_residual(n, seed):
    rng = np.random.default_rng(seed)
    p = _rand_spd(rng, n)
    b = rng.standard_normal((n, n))
    x = solve_lyapunov(p, b)
    scale = max(1.0, np.abs(b).max())
    assert np.abs(p @ x + x @ p - b).max() <= TAU_LYAP * scale


def test_solve_lyapunov_storage_classes():
    """Symmetric (skew) right-hand sides give exactly symmetric (skew) output."""
    rng = np.random.default_rng(4)
    p = _rand_spd(rng, 4)
    bs = sym_part(rng.standard_normal((4, 4)))
    xs = solve_lyapunov(p, bs)
    assert_array_equal(xs, xs.T)
    bk = skew_part(rng.standard_normal((4, 4)))
    xk = solve_lyapunov(p, bk)
    assert_array_equal(xk, -xk.T)


def test_solve_lyapunov_rejects_indefinite():
    with pytest.raises(ValueError):
        solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError):
        solve_lyapunov(np.diag([1.0, 0.0]), np.eye(2))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_solve_lyapunov_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    p = a @ a.T + 0.05 * np.eye(n)
    b = rng.standard_normal((n, n))
    x = solve_lyapunov(p, b)
    scale = max(1.0, np.abs(b).max())
    assert np.abs(p @ x + x @ p - b).max() <= 1e-8 * scale


def test_fd_gradient_linear_and_quadratic():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 3))
    assert_allclose(fd_gradient(np.trace, m), np.eye(3), rtol=0, atol=1e-9)
    g = fd_gradient(lambda x: 0.5 * float(np.sum(x * x)), m)
    assert_allclose(g, m, rtol=0, atol=1e-9)


def test_fd_gradient_logdet():
    """grad logdet(M M^T) = 2 M^{-T} for square M."""
    g = fd_gradient(lambda x: float(np.log(np.linalg.det(x @ x.T))), np.eye(2))
    assert_allclose(g, 2.0 * np.eye(2), rtol=0, atol=1e-9)
    rng = np.random.default_rng(6)
    m = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    g = fd_gradient(lambda x: float(np.log(np.linalg.det(x @ x.T))), m)
    assert_allclose(g, 2.0 * np.linalg.inv(m).T, rtol=1e-6, atol=1e-8)


def test_fd_gradient_rejects_non_finite():
    with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(ValueError):
        fd_gradient(lambda x: float(np.log(x[0, 0])), np.zeros((1, 1)))


def test_so_pairs_order():
    assert so_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(so_pairs(6)) == 15


@pytest.mark.parametrize("n", [2, 3, 4])
def test_so_basis_orthonormal(n):
    basis = so_basis(n)
    assert basis.dim == n * (n - 1) // 2
    gram = np.array([[np.sum(a * b) for b in basis.mats] for a in basis.mats])
    assert_allclose(gram, np.eye(basis.dim), rtol=0, atol=1e-15)
    for a in basis.mats:
        assert_array_equal(a, -a.T)


@pytest.mark.parametrize("n", [0, 1])
def test_so_basis_rejects_empty_algebra(n):
    # so(0) and so(1) have no basis matrices to combine
    with pytest.raises(ValueError, match=f"n={n}"):
        so_basis(n)


def test_basis_combine():
    basis = so_basis(3)
    coeffs = np.array([1.0, -2.0, 0.5])
    out = basis.combine(coeffs)
    want = sum(c * m for c, m in zip(coeffs, basis.mats))
    assert_array_equal(out, want)
    assert isinstance(basis, LieBasis)
    # leading axes of the coefficients are batch axes
    batch = basis.combine(np.stack([coeffs, -coeffs]))
    assert batch.shape == (2, 3, 3)
    assert_array_equal(batch[1], basis.combine(-coeffs))


def test_sl2_basis_structure():
    x, y, z = sl2_basis().mats
    for m in (x, y, z):
        assert abs(np.trace(m)) == 0.0
        assert_allclose(np.sum(m * m), 0.5, rtol=0, atol=1e-15)
    # pairwise Frobenius-orthogonal
    assert np.sum(x * y) == 0.0
    assert np.sum(x * z) == 0.0
    assert np.sum(y * z) == 0.0
    # [y, x] = -z fixes the normalization of the rotation generator
    assert_allclose(y @ x - x @ y, -z, rtol=0, atol=1e-15)
