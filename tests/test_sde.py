"""Integration kernel checks: noise determinism, increment statistics, steppers,
guards, and the quadratic-variation oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from orbitflow import sde
from orbitflow.matcore import LieBasis, mT, so_basis
from orbitflow.processes import invariant_problem
from orbitflow.sde import (NoiseSource, Path, QvEstimate, SdeProblem, TimeGrid,
                           integrate, integrate_batch, qv_oracle, rk4)


# ---------------------------------------------------------------------------
# grid


def test_time_grid_basics():
    grid = TimeGrid(t0=0.0, dt=0.25, steps=4)
    assert grid.t_end == 1.0
    assert_allclose(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)
    assert TimeGrid.regular(1.0, 1e-3).steps == 1000
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, dt=0.0, steps=3)
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, dt=0.1, steps=0)


def test_time_grid_rejects_partial_steps():
    # a grid never ends short of or past the requested end time
    with pytest.raises(ValueError, match="t=1 is not a whole number of dt=0.3"):
        TimeGrid.regular(1.0, 0.3)
    with pytest.raises(ValueError):
        TimeGrid.regular(1e-4, 1e-3)
    with pytest.raises(ValueError):
        TimeGrid.regular(0.0, 1e-3)
    # quotients within rounding of a whole number are whole: 0.1 / 1e-3 is
    # 100.00000000000001 in floating point
    assert TimeGrid.regular(0.1, 1e-3).steps == 100
    assert TimeGrid.regular(0.5, 0.1).steps == 5


# ---------------------------------------------------------------------------
# noise determinism


def test_noise_source_validation():
    with pytest.raises(ValueError):
        NoiseSource(-1)
    with pytest.raises(ValueError):
        NoiseSource(0, stream=-2)


def test_normals_are_pure_functions_of_indices():
    src = NoiseSource(seed=11, stream=2)
    a = src.normals(path=3, step=7, count=5)
    b = NoiseSource(seed=11, stream=2).normals(path=3, step=7, count=5)
    assert_array_equal(a, b)
    # distinct indices give distinct draws
    assert np.any(src.normals(4, 7, 5) != a)
    assert np.any(src.normals(3, 8, 5) != a)
    assert np.any(NoiseSource(12, 2).normals(3, 7, 5) != a)
    assert np.any(NoiseSource(11, 3).normals(3, 7, 5) != a)
    assert src.normals(0, 0, 0).shape == (0,)


def test_block_rows_match_per_path_draws():
    src = NoiseSource(seed=5)
    block = src.normals_block(step=2, n_paths=6, count=4)
    assert block.shape == (1, 6, 4)
    for p in range(6):
        assert_array_equal(block[0, p], src.normals(p, 2, 4))
    # earlier paths never depend on how many paths are drawn
    wide = src.normals_block(step=2, n_paths=13, count=4)
    assert_array_equal(wide[:, :6], block)
    # nor do earlier steps on how many steps are drawn
    window = src.normals_block(step=2, n_paths=13, count=4, steps=5)
    assert_array_equal(window[:1], wide)
    assert src.normals_block(0, 3, 0, steps=2).shape == (2, 3, 0)


def _keyed_normals(seed, stream, path, step, count):
    # the keying definition: step `step` reads the Philox stream keyed
    # (seed, stream) with counter [0, 0, 0, step] from its first word, and
    # path `path` owns words [path * count, (path + 1) * count)
    bg = np.random.Philox(key=[seed, stream], counter=[0, 0, 0, step])
    return NoiseSource._to_normal(bg.random_raw((path + 1) * count)[path * count:])


@pytest.mark.parametrize("count", [1, 3, 6, 9])
@pytest.mark.parametrize("path", [0, 1, 2, 3, 7, 199, 20000])
def test_directly_addressed_draws_match_the_keying_definition(path, count):
    # path * count % 4 takes all four values over these cases
    src = NoiseSource(seed=17, stream=5)
    rows = src.normals_block(0, 1, count, first=path, steps=6)
    window = src.normals_block(4097, 3, count, first=path, steps=3)
    assert rows.shape == (6, 1, count) and window.shape == (3, 3, count)
    for step in range(6):
        want = _keyed_normals(17, 5, path, step, count)
        assert_array_equal(src.normals(path, step, count), want)
        assert_array_equal(rows[step, 0], want)
    for m in range(3):
        for p in range(3):
            assert_array_equal(window[m, p], _keyed_normals(17, 5, path + p, 4097 + m, count))
    assert_array_equal(src.normals(path, 4099, count),
                       _keyed_normals(17, 5, path, 4099, count))


def test_a_path_draw_uses_one_generator_and_reads_only_its_words(monkeypatch):
    made, reads = [], []

    class Spy(np.random.Philox):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        def random_raw(self, size=None, output=True):
            reads.append(size)
            return super().random_raw(size, output)

    monkeypatch.setattr(np.random, "Philox", Spy)
    src = NoiseSource(seed=2)
    src.normals_block(step=0, n_paths=1, count=6, first=7, steps=5)
    assert len(made) == 1 and reads == [7 * 6 % 4 + 6] * 5
    made.clear()
    reads.clear()
    src.normals_block(step=9, n_paths=3, count=6, first=7, steps=2)
    assert len(made) == 1 and reads == [7 * 6 % 4 + 3 * 6] * 2
    made.clear()
    reads.clear()
    src.normals(path=20000, step=3, count=9)
    assert len(made) == 1 and reads == [9]


def test_normal_marginals():
    # inverse-CDF mapping of counter words should give clean N(0, 1) stats
    z = NoiseSource(seed=0).normals_block(step=0, n_paths=200, count=500).ravel()
    n = z.size
    assert abs(z.mean()) <= 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) <= 0.05
    assert abs(np.mean(z ** 4) - 3.0) <= 0.15


# ---------------------------------------------------------------------------
# increments


def test_gaussian_increment_statistics():
    # one path's 2 x 3 increments over 2000 steps are i.i.d. N(0, dt)
    dt = 0.01
    z = NoiseSource(seed=3).normals_block(0, 1, 6, steps=2000)
    draws = np.sqrt(dt) * z.reshape(2000, 2, 3)
    n = draws.size
    assert abs(draws.mean()) <= 4.0 * np.sqrt(dt / n)
    assert abs(draws.var() - dt) <= 0.05 * dt


@pytest.mark.parametrize("n", [2, 3, 5])
def test_skew_increment_shape_and_norm(n):
    # the skew increment sum_a g_a A_a, g_a i.i.d. N(0, dt), has
    # E ||dA||_F^2 = dim so(n) * dt
    src = NoiseSource(seed=4)
    basis = so_basis(n)
    dt = 0.05
    total = 0.0
    reps = 3000
    for p in range(reps):
        m = basis.combine(np.sqrt(dt) * src.normals(p, 0, basis.dim))
        assert_array_equal(m, -m.T)
        assert np.all(np.diag(m) == 0.0)
        total += np.trace(m @ m.T)
    want = n * (n - 1) / 2.0 * dt
    assert abs(total / reps - want) <= 0.05 * want


# ---------------------------------------------------------------------------
# steppers


def _doubling_problem():
    # drift-only image flow with closed form P_t = (1 + t / tr P0) P0
    from orbitflow.geom import drift_J_spectral
    p0 = np.diag([3.0, 1.0])
    return SdeProblem(x0=p0, drift=lambda t, x: drift_J_spectral(x))


def test_integrate_requires_source_when_noisy():
    prob = SdeProblem(x0=np.zeros((1,)), diffusion=lambda t, x, dw: dw,
                      noise_shape=(1,))
    with pytest.raises(ValueError):
        integrate(prob, TimeGrid(0.0, 0.1, 2))


def test_constant_problem_stays_put():
    path = integrate(SdeProblem(x0=np.array([2.0, -1.0])), TimeGrid(0.0, 0.1, 5))
    assert_array_equal(path.states, np.tile([2.0, -1.0], (6, 1)))
    assert not path.stopped


def test_zero_noise_euler_matches_closed_form_at_first_order():
    grid = TimeGrid.regular(0.5, 1e-3)
    path = integrate(_doubling_problem(), grid)
    want = (1.0 + 0.5 / 4.0) * np.diag([3.0, 1.0])
    assert np.abs(path.final - want).max() <= 5e-3  # O(dt) Euler bias


def test_integrate_is_deterministic():
    prob = SdeProblem(x0=np.zeros((2, 2)), diffusion=lambda t, x, dw: dw,
                      noise_shape=(2, 2))
    grid = TimeGrid(0.0, 0.01, 50)
    a = integrate(prob, grid, NoiseSource(21), path_index=3)
    b = integrate(prob, grid, NoiseSource(21), path_index=3)
    assert_array_equal(a.states, b.states)
    c = integrate(prob, grid, NoiseSource(21), path_index=4)
    assert np.any(c.states != a.states)


def test_integrate_draws_a_path_once_and_steps_with_its_rows():
    calls = []

    class Counting(NoiseSource):
        def normals(self, path, step, count):
            calls.append("normals")
            return super().normals(path, step, count)

        def normals_block(self, step, n_paths, count, first=0, steps=1):
            calls.append(("normals_block", step, n_paths, count, first, steps))
            return super().normals_block(step, n_paths, count, first, steps)

    prob = SdeProblem(x0=np.eye(2), drift=lambda t, x: -0.5 * x,
                      diffusion=lambda t, x, dw: x @ dw, noise_shape=(2, 2))
    grid = TimeGrid(0.0, 0.01, 40)
    path = integrate(prob, grid, Counting(8, stream=3), path_index=5)
    assert calls == [("normals_block", 0, 1, 4, 5, 40)]
    # the same problem stepped by hand with the per-step keyed draws
    x = prob.x0
    for m, t in enumerate(grid.times()[:-1]):
        dw = (np.sqrt(grid.dt) * _keyed_normals(8, 3, 5, m, 4)).reshape(2, 2)
        x = x + prob.drift(t, x) * grid.dt + prob.diffusion(t, x, dw)
        assert_array_equal(path.states[m + 1], x)


def test_guard_stops_without_clamping():
    prob = SdeProblem(x0=np.array([0.0]), drift=lambda t, x: np.ones(1),
                      guard=lambda x: x[0] < 2.5, guard_name="ceiling")
    path = integrate(prob, TimeGrid(0.0, 1.0, 5))
    assert path.stopped and path.stopped_step == 2
    assert path.stop_reason == "ceiling"
    # last valid state is kept; the offending state is discarded, not clamped
    assert_allclose(path.states[:, 0], [0.0, 1.0, 2.0], rtol=0, atol=0)
    assert_allclose(path.times, [0.0, 1.0, 2.0], rtol=0, atol=0)


def test_post_step_runs_before_guard():
    prob = SdeProblem(x0=np.array([1.0]), drift=lambda t, x: x,
                      post_step=lambda x: np.minimum(x, 1.5),
                      guard=lambda x: x[0] <= 1.5)
    path = integrate(prob, TimeGrid(0.0, 1.0, 3))
    assert not path.stopped
    assert path.final[0] == 1.5


def test_batch_rows_match_single_paths_and_freeze_at_last_valid_state():
    # row p of the batch is path p; a tripped guard freezes the row at the
    # last state that passed, exactly as the single path stops there
    prob = SdeProblem(x0=np.zeros((2,)), drift=lambda t, x: -x,
                      diffusion=lambda t, x, dw: dw, noise_shape=(2,),
                      guard=lambda x: np.abs(x).max(axis=-1) < 1.0)
    grid = TimeGrid(0.0, 0.05, 20)
    src = NoiseSource(33)
    final, alive = integrate_batch(prob, grid, src, n_paths=6)
    assert final.shape == (6, 2) and not alive.all() and alive.any()
    for p in range(6):
        single = integrate(prob, grid, src, path_index=p)
        assert_array_equal(final[p], single.final)
        assert alive[p] == (not single.stopped)


def test_batch_in_which_every_path_trips_returns_frozen_states():
    # the guard rejects the band 0.3 < x_0 < 0.5 that every path runs into;
    # a frozen row's later proposals often leave the band again, and the
    # row must stay frozen (by the running alive mask) instead of resuming
    prob = SdeProblem(x0=np.zeros((2,)), drift=lambda t, x: np.ones_like(x),
                      diffusion=lambda t, x, dw: 0.2 * dw, noise_shape=(2,),
                      guard=lambda x: np.abs(x[..., 0] - 0.4) >= 0.1)
    grid = TimeGrid(0.0, 0.05, 20)
    src = NoiseSource(33)
    final, alive = integrate_batch(prob, grid, src, n_paths=6)
    assert final.shape == (6, 2) and not alive.any()
    for p in range(6):
        single = integrate(prob, grid, src, path_index=p)
        assert single.stopped and single.stopped_step < grid.steps - 1
        assert_array_equal(final[p], single.final)


@pytest.mark.parametrize("words", [1, 7, 84])
def test_noise_window_changes_no_bit(monkeypatch, words):
    # integrate draws max(1, words // 2) steps per window and the 6-path
    # batch max(1, words // 12): windows of 1, 3 and 42 steps for a lone
    # path and 1, 1 and 7 for the batch.  Paths 0, 4 and 5 trip their guard
    # at steps 9, 10 and 8, inside a window for each size
    prob = SdeProblem(x0=np.zeros((2,)), drift=lambda t, x: -x,
                      diffusion=lambda t, x, dw: dw, noise_shape=(2,),
                      guard=lambda x: np.abs(x).max(axis=-1) < 1.0)
    grid = TimeGrid(0.0, 0.05, 20)
    calls = []

    class Counting(NoiseSource):
        def normals_block(self, step, n_paths, count, first=0, steps=1):
            calls.append(steps)
            return super().normals_block(step, n_paths, count, first, steps)

    src = Counting(33)
    paths = [integrate(prob, grid, src, path_index=p) for p in range(6)]
    final, alive = integrate_batch(prob, grid, src, n_paths=6)
    assert [p.stopped_step for p in paths] == [9, None, None, None, 10, 8]
    monkeypatch.setattr(sde, "_WINDOW_WORDS", words)
    calls.clear()
    got_final, got_alive = integrate_batch(prob, grid, src, n_paths=6)
    batch_window = max(1, words // 12)
    assert calls == [min(batch_window, grid.steps - lo) for lo in range(0, 20, batch_window)]
    assert_array_equal(got_final, final)
    assert_array_equal(got_alive, alive)
    for p, want in enumerate(paths):
        got = integrate(prob, grid, src, path_index=p)
        assert got.stopped_step == want.stopped_step
        assert_array_equal(got.times, want.times)
        assert_array_equal(got.states, want.states)


def test_rk4_matches_closed_form_flow():
    # dP/dt = J(P) doubles diag(3, 1) at t = 4; RK4 error is far below 1e-6
    from orbitflow.geom import drift_J_spectral
    p0 = np.diag([3.0, 1.0])
    states = rk4(drift_J_spectral, p0, 4.0, 400)
    assert states.shape == (401, 2, 2)
    assert_array_equal(states[0], p0)
    assert_allclose(states[-1], 2.0 * p0, rtol=0, atol=1e-6)


def test_scalar_brownian_second_moment():
    # X_1 is exactly N(0, 1) for pure Brownian increments on any grid
    prob = SdeProblem(x0=np.zeros((1,)), diffusion=lambda t, x, dw: dw,
                      noise_shape=(1,))
    grid = TimeGrid(0.0, 0.125, 8)
    x1 = integrate_batch(prob, grid, NoiseSource(12), n_paths=4000)[0][:, 0]
    m2 = np.mean(x1 ** 2)
    se = np.std(x1 ** 2) / np.sqrt(x1.size)
    assert abs(m2 - 1.0) <= 3.0 * se


def test_cayley_step_reads_noise_as_stratonovich():
    # dX = X dW: the Ito reading (Euler on x dw) keeps E[X_t] = 1 while the
    # Cayley group step reads it as Stratonovich, E[X_t] = exp(t / 2); its
    # per-step mean is exp(dt / 2) + O(dt^2), so the bias stays below 5 dt
    t_end, dt, n_paths = 0.5, 1.0 / 100.0, 1000
    grid = TimeGrid.regular(t_end, dt)
    src = NoiseSource(77)
    ito = SdeProblem(x0=np.ones(1), diffusion=lambda t, x, dw: x * dw,
                     noise_shape=(1,))
    euler = integrate_batch(ito, grid, src, n_paths)[0][:, 0]
    line = LieBasis(name="line", mats=(np.array([[1.0]]),))
    cayley = integrate_batch(invariant_problem(line, np.ones((1, 1))), grid, src,
                             n_paths)[0][:, 0, 0]
    se_e = np.std(euler) / np.sqrt(n_paths)
    se_c = np.std(cayley) / np.sqrt(n_paths)
    assert abs(euler.mean() - 1.0) <= 3.0 * se_e + 5.0 * dt
    assert abs(cayley.mean() - np.exp(t_end / 2.0)) <= 3.0 * se_c + 5.0 * dt


# ---------------------------------------------------------------------------
# quadratic-variation oracle


def _skew_from_flat(g, n):
    # g holds the upper-triangle coordinates on its last axis, with any
    # leading sample axes
    a = np.zeros(g.shape[:-1] + (n, n))
    iu = np.triu_indices(n, k=1)
    a[..., iu[0], iu[1]] = g / np.sqrt(2.0)
    return a - mT(a)


def _qv_reference(diffusion, state, noise_shape, dt, samples, seed=0):
    """The per-sample definition of qv_oracle: sample b takes path b % 4096
    of normals_block at step b // 4096, and the sums add samples in index
    order.  Returns the fields of a QvEstimate in order."""
    source = NoiseSource(seed, stream=104729)
    nr, nc = state.shape
    sq = nr == nc
    sums = [np.zeros((nr, nr)), np.zeros((nc, nc))] + ([np.zeros((nr, nc))] if sq else [])
    sums2 = [np.zeros_like(a) for a in sums]
    count = int(np.prod(noise_shape))
    done = step = 0
    while done < samples:
        take = min(4096, samples - done)
        z = source.normals_block(step, take, count)[0] * np.sqrt(dt)
        for b in range(take):
            dx = diffusion(0.0, state, z[b].reshape(noise_shape))
            terms = [dx @ dx.T / dt, dx.T @ dx / dt] + ([dx @ dx / dt] if sq else [])
            for s, s2, t in zip(sums, sums2, terms):
                s += t
                s2 += t * t
        done += take
        step += 1
    out = []
    for s, s2 in zip(sums, sums2):
        mean = s / samples
        out += [mean, np.sqrt(np.maximum(s2 / samples - mean * mean, 0.0) / samples)]
    return out + ([] if sq else [None, None])


_SKEW3 = so_basis(3)
_SPHERE3 = np.eye(3)[:, :1]

# every diffusion the oracle CLI kinds and the constants suite pass, plus
# this module's flat-to-skew map: (diffusion, state, noise_shape)
QV_DIFFUSIONS = {
    "wiener-square": (lambda t, s, dw: dw, np.zeros((3, 3)), (3, 3)),
    "wiener-rect": (lambda t, s, dw: dw, np.zeros((3, 2)), (3, 2)),
    "skew-basis": (lambda t, s, dw: _SKEW3.combine(dw), np.eye(3), (_SKEW3.dim,)),
    "sphere": (lambda t, s, dw: dw - s @ (mT(s) @ dw), _SPHERE3, (3, 1)),
    "skew-flat": (lambda t, s, dw: _skew_from_flat(dw, 4), np.zeros((4, 4)), (6,)),
}


@pytest.mark.parametrize("samples", [1, 511, 512, 513, 4096, 4097, 9000])
@pytest.mark.parametrize("name", sorted(QV_DIFFUSIONS))
def test_qv_oracle_equals_per_sample_definition(name, samples):
    diffusion, state, shape = QV_DIFFUSIONS[name]
    est = qv_oracle(diffusion, state, shape, 1e-3, samples, seed=5)
    want = _qv_reference(diffusion, state, shape, 1e-3, samples, seed=5)
    got = [est.outer, est.outer_se, est.inner, est.inner_se, est.square, est.square_se]
    for g, w in zip(got, want):
        assert (g is None and w is None) or np.array_equal(g, w)
    assert est.samples == samples


@pytest.mark.parametrize("kwargs,name", [({"samples": 0}, "samples=0"),
                                         ({"samples": -3}, "samples=-3"),
                                         ({"dt": 0.0}, "dt=0"),
                                         ({"dt": -1e-3}, "dt=-0.001")])
def test_qv_oracle_rejects_bad_arguments(kwargs, name):
    args = {"dt": 1e-3, "samples": 10} | kwargs
    with pytest.raises(ValueError, match=name):
        qv_oracle(lambda t, x, dw: dw, np.zeros((2, 2)), (2, 2), **args)


def test_qv_oracle_square_wiener():
    n, dt, samples = 3, 1e-3, 6000
    est = qv_oracle(lambda t, x, dw: dw, np.zeros((n, n)), (n, n), dt, samples)
    assert est.samples == samples
    assert np.all(np.abs(est.outer - n * np.eye(n)) <= 3.0 * est.outer_se + 1e-12)
    assert np.all(np.abs(est.inner - n * np.eye(n)) <= 3.0 * est.inner_se + 1e-12)
    assert np.all(np.abs(est.square - np.eye(n)) <= 3.0 * est.square_se + 1e-12)


def test_qv_oracle_rectangular_wiener():
    n, k, dt, samples = 4, 2, 1e-3, 6000
    est = qv_oracle(lambda t, x, dw: dw, np.zeros((n, k)), (n, k), dt, samples)
    assert est.square is None and est.square_se is None
    assert np.all(np.abs(est.outer - k * np.eye(n)) <= 3.0 * est.outer_se + 1e-12)
    assert np.all(np.abs(est.inner - n * np.eye(k)) <= 3.0 * est.inner_se + 1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_qv_oracle_skew_increments(n):
    tri = n * (n - 1) // 2
    dt, samples = 1e-3, 6000
    est = qv_oracle(lambda t, x, dw: _skew_from_flat(dw, n), np.zeros((n, n)),
                    (tri,), dt, samples)
    half = (n - 1) / 2.0
    assert np.all(np.abs(est.outer - half * np.eye(n)) <= 3.0 * est.outer_se + 1e-12)
    assert np.all(np.abs(est.square + half * np.eye(n)) <= 3.0 * est.square_se + 1e-12)


def test_qv_oracle_se_scaling():
    # standard errors shrink like samples^(-1/2) over three decades
    sizes = [100, 1000, 10000]
    ses = []
    for s in sizes:
        est = qv_oracle(lambda t, x, dw: dw, np.zeros((1, 1)), (1, 1), 1e-2, s)
        ses.append(est.outer_se[0, 0])
    slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
    assert abs(slope + 0.5) <= 0.1


def test_qv_oracle_reproducible():
    a = qv_oracle(lambda t, x, dw: dw, np.zeros((2, 2)), (2, 2), 1e-3, 500, seed=6)
    b = qv_oracle(lambda t, x, dw: dw, np.zeros((2, 2)), (2, 2), 1e-3, 500, seed=6)
    assert_array_equal(a.outer, b.outer)
    assert_array_equal(a.inner_se, b.inner_se)
