"""Process-level checks: drift skeletons against closed forms, pushforward
consistency, guards, and determinism of the named simulations."""

import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from orbitflow import matcore
from orbitflow.geom import MetricR, drift_J_R, drift_J_spectral
from orbitflow.processes import (ProcessConfig, bm_bures_wasserstein,
                                 bm_cartan_hadamard, bm_grassmann, bm_orthogonal,
                                 bm_poincare, bm_stiefel, bures_wasserstein_problem,
                                 cartan_hadamard_problem, eigen_drift, eigen_problem,
                                 eigen_sde, gram, grassmann_ito_problem,
                                 halfplane_start, mcf_ode, orthogonal_problem,
                                 poincare_problem, sl2_to_halfplane,
                                 sphere_vertical_bm, vertical_bm, wishart,
                                 wishart_problem)
from orbitflow.sde import NoiseSource, integrate, integrate_batch, rk4


def _cfg(t_end, dt, seed=0):
    return ProcessConfig(t_end=t_end, dt=dt, seed=seed)


class ZeroNoise(NoiseSource):
    """Supplies zeros, which exposes the deterministic drift skeleton of an
    Ito scheme and freezes a pure Stratonovich transport."""

    @staticmethod
    def _to_normal(words):
        return np.zeros(words.shape)


def _zero_noise_path(problem, t_end, dt):
    return integrate(problem, _cfg(t_end, dt).grid(), ZeroNoise(0))


# ---------------------------------------------------------------------------
# group-valued paths


def test_zero_noise_orthogonal_path_is_constant():
    path = _zero_noise_path(orthogonal_problem(3), 0.5, 0.1)
    assert_array_equal(path.states, np.tile(np.eye(3), (6, 1, 1)))


def test_orthogonal_bm_stays_near_group():
    path = bm_orthogonal(3, _cfg(0.2, 1e-3, seed=2))
    assert not path.stopped
    q = path.final
    assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-3


def test_cayley_steps_stay_on_the_group():
    # cay(A) is orthogonal for skew A and has determinant one for traceless
    # 2x2 A, so 1000 steps leave only rounding: defects <= 1e-12 all along
    cfg = _cfg(1.0, 1e-3, seed=2)
    for n in (3, 4):
        q = bm_orthogonal(n, cfg).states
        defect = np.linalg.norm(np.swapaxes(q, 1, 2) @ q - np.eye(n), axis=(1, 2))
        assert defect.max() <= 1e-12
    m = integrate(poincare_problem(), cfg.grid(), cfg.source()).states
    assert np.abs(np.linalg.det(m) - 1.0).max() <= 1e-12


def test_orthogonal_bm_trace_law():
    # E[tr Q_t] = n exp(-(n - 1) t / 4) for Brownian motion on O(n) with the
    # Frobenius-orthonormal skew basis; 4000 paths, within 4 standard errors
    n, t_end, n_paths = 3, 0.5, 4000
    cfg = _cfg(t_end, 1e-3, seed=0)
    q, alive = integrate_batch(orthogonal_problem(n), cfg.grid(), cfg.source(), n_paths)
    assert alive.all()
    tr = np.einsum("pii->p", q)
    se = tr.std() / np.sqrt(n_paths)
    assert abs(tr.mean() - n * np.exp(-(n - 1) * t_end / 4.0)) <= 4.0 * se


def test_stiefel_full_width_equals_orthogonal():
    cfg = _cfg(0.1, 1e-3, seed=5)
    a = bm_stiefel(3, 3, cfg)
    b = bm_orthogonal(3, cfg)
    assert_array_equal(a.states, b.states)


def test_stiefel_truncates_columns():
    cfg = _cfg(0.1, 1e-3, seed=5)
    a = bm_stiefel(4, 2, cfg)
    b = bm_orthogonal(4, cfg)
    assert a.states.shape == (101, 4, 2)
    assert_array_equal(a.states, b.states[:, :, :2])
    with pytest.raises(ValueError):
        bm_stiefel(3, 0, cfg)


# ---------------------------------------------------------------------------
# Grassmann routes


def test_grassmann_pushforward_is_projector_valued():
    path = bm_grassmann(4, 2, _cfg(0.3, 1e-3, seed=3))
    p = path.final
    assert_allclose(p, p.T, rtol=0, atol=1e-14)
    assert np.linalg.norm(p @ p - p) <= 1e-10
    assert abs(np.trace(p) - 2.0) <= 1e-8


def test_grassmann_ito_route_conserves_trace():
    # drift and diffusion are both traceless; tr P is conserved to rounding
    # even while the projector defect carries its O(sqrt(dt)) scheme halo
    cfg = _cfg(0.3, 1e-3, seed=3)
    path = integrate(grassmann_ito_problem(4, 2, guard_tol=0.25), cfg.grid(), cfg.source())
    assert not path.stopped
    traces = np.einsum("mii->m", path.states)
    assert np.abs(traces - 2.0).max() <= 1e-12


def test_grassmann_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bm_grassmann(3, 4, _cfg(0.1, 1e-2))
    with pytest.raises(ValueError):
        bm_grassmann(3, 2, _cfg(0.1, 1e-2), route="milstein")


# ---------------------------------------------------------------------------
# half-plane


def test_halfplane_round_trip():
    m = halfplane_start(0.7, 2.5)
    assert abs(np.linalg.det(m) - 1.0) <= 1e-14
    x, y = sl2_to_halfplane(m)
    assert_allclose([x, y], [0.7, 2.5], rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        halfplane_start(0.0, -1.0)


def test_poincare_zero_noise_is_constant():
    path = _zero_noise_path(poincare_problem(z0=(0.3, 1.7)), 0.5, 0.1)
    assert_allclose(sl2_to_halfplane(path.states), np.tile([0.3, 1.7], (6, 1)),
                    rtol=0, atol=1e-13)


def test_poincare_stays_in_upper_half_plane():
    path = bm_poincare(_cfg(0.5, 1e-3, seed=4))
    assert not path.stopped
    assert np.all(path.states[:, 1] > 0.0)
    again = bm_poincare(_cfg(0.5, 1e-3, seed=4))
    assert_array_equal(path.states, again.states)


# ---------------------------------------------------------------------------
# full-group and Wishart cones


def test_cartan_hadamard_zero_noise_exponential_growth():
    n, t_end, dt = 3, 1.0, 1e-3
    gp = _zero_noise_path(cartan_hadamard_problem(n), t_end, dt)
    # dG = G/2 dt alone: G_t = exp(t/2) I up to Euler bias O(dt)
    assert np.abs(gp.final - np.exp(0.5) * np.eye(n)).max() <= 1e-3
    assert np.abs(gram(gp.final) - np.exp(1.0) * np.eye(n)).max() <= 2e-3


def test_cartan_hadamard_image_is_gram():
    gp, pp = bm_cartan_hadamard(2, _cfg(0.2, 1e-2, seed=9))
    for g, p in zip(gp.states, pp.states):
        assert_allclose(p, g @ g.T, rtol=0, atol=1e-15)
        assert_allclose(p, p.T, rtol=0, atol=1e-15)


def test_wishart_zero_noise_freezes_the_factor():
    w0 = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 3.0]])
    wp = _zero_noise_path(wishart_problem(3, 2, w0=w0), 0.5, 0.1)
    assert_array_equal(wp.states, np.tile(w0, (6, 1, 1)))
    assert_allclose(gram(wp.final), w0 @ w0.T, rtol=0, atol=1e-15)


def test_wishart_start_options():
    with pytest.raises(ValueError):
        wishart(2, 2, _cfg(0.1, 1e-2), w0=np.eye(3))
    # default start is the truncated identity
    wp2, _ = wishart(3, 2, _cfg(0.1, 1e-2, seed=1))
    assert_array_equal(wp2.states[0], np.eye(3, 2))


def test_wishart_image_is_gram_at_every_step():
    wp, pp = wishart(2, 2, _cfg(0.2, 1e-2, seed=6))
    for w, p in zip(wp.states, pp.states):
        assert_allclose(p, w @ w.T, rtol=0, atol=1e-15)
    again = wishart(2, 2, _cfg(0.2, 1e-2, seed=6))[1]
    assert_array_equal(pp.states, again.states)


def test_bures_wasserstein_drift_skeleton():
    # zero noise exposes the Euler update P + dt (k I - J(P)) exactly
    p0 = np.diag([3.0, 1.0])
    dt = 0.1
    path = _zero_noise_path(bures_wasserstein_problem(p0), dt, dt)
    want = p0 + dt * (2.0 * np.eye(2) - drift_J_spectral(p0))
    assert_allclose(path.final, want, rtol=0, atol=1e-15)
    assert_allclose(path.final, np.diag([3.125, 1.175]), rtol=0, atol=1e-15)


def test_bures_wasserstein_keeps_spd_or_stops():
    path = bm_bures_wasserstein(np.diag([2.0, 1.0]), _cfg(0.3, 1e-3, seed=11))
    for p in path.states:
        assert np.linalg.eigvalsh(p)[0] > 0.0


# ---------------------------------------------------------------------------
# eigenvalue diffusions


def test_eigen_drift_frozen_oracles():
    lam = np.array([2.0, 1.0])
    assert_allclose(eigen_drift("wishart", lam, 2), [5.0, -1.0], rtol=0, atol=1e-14)
    assert_allclose(eigen_drift("bw", lam, 2), [2.0 + 7.0 / 3.0, -4.0 / 3.0],
                    rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        eigen_drift("dyson", lam, 2)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (5, 3)])
def test_eigen_drift_kinds_differ_by_quotient_drift(n, k):
    rng = np.random.default_rng(30 + n)
    lam = np.sort(np.exp(rng.standard_normal(k)))[::-1]
    gap = eigen_drift("wishart", lam, n) - eigen_drift("bw", lam, n)
    want = np.array([sum(lam[i] / (lam[i] + lam[j]) for j in range(k) if j != i)
                     for i in range(k)])
    assert_allclose(gap, want, rtol=0, atol=1e-12)


def test_eigen_sde_validates_start():
    cfg = _cfg(0.1, 1e-2)
    with pytest.raises(ValueError):
        eigen_sde("wishart", [1.0, 2.0], 2, 2, cfg)  # ascending
    with pytest.raises(ValueError):
        eigen_sde("wishart", [1.0], 2, 2, cfg)  # wrong length


def test_eigen_sde_zero_noise_follows_drift():
    path = _zero_noise_path(eigen_problem("wishart", [2.0, 1.0], 2, 2), 0.05, 1e-2)
    lam = np.array([2.0, 1.0])
    for _ in range(5):
        lam = lam + 1e-2 * eigen_drift("wishart", lam, 2)
    assert_allclose(path.final, lam, rtol=0, atol=1e-14)


def test_eigen_sde_stops_at_near_collision():
    # the interaction blows up across a tiny gap; the guard must stop the
    # path at the last valid state instead of clamping
    path = eigen_sde("wishart", [1.0 + 2e-10, 1.0], 2, 2, _cfg(0.1, 1e-3))
    assert path.stopped
    assert path.stop_reason == "spectrum guard"
    assert path.states.shape[0] == path.stopped_step + 1


# ---------------------------------------------------------------------------
# fiber-valued noise and the quotient flow


def test_vertical_bm_image_tracks_quotient_flow():
    m0 = np.diag([np.sqrt(3.0), 1.0])
    _, image = vertical_bm(m0, _cfg(1.0, 1e-3, seed=1))
    ref = mcf_ode(np.diag([3.0, 1.0]), 1.0, 200)
    rel = np.abs(image.final - ref.final).max() / np.abs(ref.final).max()
    assert rel <= 5e-2  # O(sqrt(dt)) halo at this step size


def test_vertical_bm_default_metric_is_the_identity_bit_for_bit():
    # metric=None runs on the shared MetricR.euclidean(n); an explicit
    # identity metric must give the same factor and image bytes
    m0 = np.array([[1.5, 0.2], [0.1, 1.0], [0.3, -0.4]])
    cfg = _cfg(0.05, 1e-3, seed=4)
    xp, image = vertical_bm(m0, cfg)
    xq, image_q = vertical_bm(m0, cfg, metric=MetricR(np.eye(3)))
    assert_array_equal(xp.states, xq.states)
    assert_array_equal(image.states, image_q.states)


@pytest.mark.parametrize("with_metric", [False, True])
def test_vertical_bm_checks_symmetry_at_the_boundary_only(monkeypatch, with_metric):
    # the per-step Lyapunov solves run on Grams that vertical_project builds
    # exactly symmetric; no step may re-validate them
    original = matcore.require_symmetric
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "orbitflow" or name.startswith("orbitflow."))
                and getattr(module, "require_symmetric", None) is original):
            monkeypatch.setattr(module, "require_symmetric", counting)
    metric = (MetricR(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]]))
              if with_metric else None)
    m0 = np.array([[1.5, 0.2], [0.1, 1.0], [0.3, -0.4]])
    vertical_bm(m0, _cfg(1e-3, 1e-3), metric=metric)  # builds any shared metric
    counts = {}
    for steps in (100, 200):
        calls.clear()
        _, image = vertical_bm(m0, _cfg(steps * 1e-3, 1e-3, seed=3), metric=metric)
        assert len(image.times) == steps + 1
        counts[steps] = len(calls)
    assert counts[200] == counts[100]


def test_vertical_bm_rejects_a_start_the_lyapunov_solve_rejects():
    # singular-value ratio 1e-6: the 1e-8 rank guard would pass it, but the
    # Gram's eigenvalue ratio 1e-12 fails the solve's TAU_SPD = 1e-10
    with pytest.raises(ValueError, match="singular-value ratio 1e-06 is at most 1e-05"):
        vertical_bm(np.array([[1.0, 0.0], [0.0, 1e-6], [0.0, 0.0]]), _cfg(0.01, 1e-3))
    vertical_bm(np.array([[1.0, 0.0], [0.0, 1e-4], [0.0, 0.0]]), _cfg(0.01, 1e-3))


def test_vertical_bm_image_tracks_metric_flow():
    metric = MetricR(np.array([[2.0, 0.3], [0.3, 1.0]]))
    m0 = np.diag([np.sqrt(3.0), 1.0])
    _, image = vertical_bm(m0, _cfg(1.0, 1e-3, seed=2), metric=metric)
    ref = mcf_ode(np.diag([3.0, 1.0]), 1.0, 200, metric=metric)
    rel = np.abs(image.final - ref.final).max() / np.abs(ref.final).max()
    assert rel <= 5e-2


def test_sphere_vertical_radius_growth():
    xp, s = sphere_vertical_bm(3, _cfg(1.0, 1e-3, seed=7))
    assert not xp.stopped
    # tangential increments make the squared radius monotone up to rounding
    assert np.diff(s).min() >= -1e-12
    assert abs((s[-1] - s[0]) - 2.0) <= 0.08 * 2.0  # slope n - 1


# ---------------------------------------------------------------------------
# deterministic quotient flow


def test_mcf_ode_doubles_at_t_four():
    p0 = np.diag([3.0, 1.0])
    path = mcf_ode(p0, 4.0, 400)
    assert_allclose(path.final, 2.0 * p0, rtol=0, atol=1e-6)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mcf_ode_trace_is_linear(n):
    rng = np.random.default_rng(50 + n)
    a = rng.standard_normal((n, n))
    p0 = a @ a.T + n * np.eye(n)
    path = mcf_ode(p0, 2.0, 100)
    want = np.trace(p0) + n * (n - 1) / 2.0 * path.times
    got = np.einsum("mii->m", path.states)
    assert np.abs(got - want).max() <= 1e-10 * np.trace(p0)


def test_mcf_ode_isotropic_is_exact():
    p0 = 2.0 * np.eye(3)
    path = mcf_ode(p0, 1.5, 10)
    want = p0 + 1.0 * 1.5 * np.eye(3)  # rate (n - 1) / 2 = 1
    assert_allclose(path.final, want, rtol=0, atol=1e-12)


def test_mcf_ode_metric_flow_is_conjugate_to_euclidean():
    metric = MetricR(np.array([[1.5, 0.4], [0.4, 1.0]]))
    p0 = np.diag([2.0, 1.0])
    g = metric.factor
    gi = metric.factor_inv
    direct = mcf_ode(p0, 1.0, 200, metric=metric).final
    transported = gi @ mcf_ode(g @ p0 @ g, 1.0, 200).final @ gi
    assert np.abs(direct - transported).max() <= 1e-10


@pytest.mark.parametrize("with_metric", [False, True])
def test_mcf_ode_stack_rows_equal_single_flows(with_metric):
    rng = np.random.default_rng(61)
    metric = MetricR(np.array([[1.5, 0.4], [0.4, 1.0]])) if with_metric else None
    starts = []
    for _ in range(4):
        a = rng.standard_normal((2, 2))
        starts.append(a @ a.T + 0.5 * np.eye(2))
    stacked = mcf_ode(np.stack(starts), 1.3, 60, metric=metric)
    assert stacked.states.shape == (61, 4, 2, 2)
    for b, p0 in enumerate(starts):
        assert np.array_equal(stacked.states[:, b], mcf_ode(p0, 1.3, 60, metric=metric).states)


@pytest.mark.parametrize("with_metric", [False, True])
def test_mcf_ode_kernel_path_equals_rk4_with_validating_drift(with_metric):
    # the flow's stages skip validation; running rk4 on the public drift
    # must give the same bits
    metric = MetricR(np.array([[2.0, 0.3], [0.3, 1.0]])) if with_metric else None
    f = drift_J_spectral if metric is None else (lambda p: drift_J_R(p, metric))
    p0 = np.array([[3.0, 0.4], [0.4, 1.0]])
    assert np.array_equal(mcf_ode(p0, 1.0, 50, metric=metric).states, rk4(f, p0, 1.0, 50))


def test_mcf_ode_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mcf_ode(np.diag([1.0, -1.0]), 1.0, 10)
    with pytest.raises(ValueError):
        mcf_ode(np.eye(2), 1.0, 0)
