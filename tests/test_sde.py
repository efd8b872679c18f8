"""Integration kernel checks: noise determinism, increment statistics, steppers,
guards, and the quadratic-variation oracle."""

import dataclasses
import itertools
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtri

from orbitflow import cli, sde
from orbitflow.matcore import mT, so_basis
from orbitflow.processes import ProcessConfig, invariant_problem
from orbitflow.sde import (NoiseBlock, NoiseSource, Path, QvEstimate, SdeProblem, TimeGrid,
                           integrate, integrate_batch, path_chunks, qv_kind, qv_oracle,
                           rk4)


# ---------------------------------------------------------------------------
# grid


def test_time_grid_basics():
    grid = TimeGrid(dt=0.25, steps=4)
    assert_allclose(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)
    assert TimeGrid.regular(1.0, 1e-3).steps == 1000
    with pytest.raises(ValueError):
        TimeGrid(dt=0.0, steps=3)
    for steps in (0, True, 2.5):
        with pytest.raises(ValueError, match=re.escape(f"got steps={steps!r}")):
            TimeGrid(dt=0.1, steps=steps)


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


def test_time_grid_rejects_non_finite_times():
    # a time that is not finite, or a step count that overflows, is named
    # with its value rather than building a grid of nan times
    with pytest.raises(ValueError, match="dt=nan"):
        TimeGrid(float("nan"), 3)
    with pytest.raises(ValueError, match="dt=inf"):
        TimeGrid(np.inf, 3)
    with pytest.raises(ValueError, match="t=inf"):
        TimeGrid.regular(np.inf, 1e-3)
    with pytest.raises(ValueError, match="t=nan"):
        TimeGrid.regular(float("nan"), 1e-3)
    with pytest.raises(ValueError, match="dt=nan"):
        TimeGrid.regular(1.0, float("nan"))
    with pytest.raises(ValueError, match="dt=0"):
        TimeGrid.regular(1.0, 0.0)
    with pytest.raises(ValueError, match=r"t=1e\+308 / dt=1e-10 overflows"):
        TimeGrid.regular(1e308, 1e-10)


# ---------------------------------------------------------------------------
# noise determinism


def test_noise_source_validation():
    with pytest.raises(ValueError):
        NoiseSource(-1)
    with pytest.raises(ValueError):
        NoiseSource(0, stream=-2)


@pytest.mark.parametrize("seed, stream, named", [
    (2 ** 64, 0, "seed=18446744073709551616"),
    (0, 2 ** 64, "stream=18446744073709551616"),
    (-1, 0, "seed=-1"),
    (0, -2, "stream=-2"),
])
def test_noise_source_rejects_a_key_outside_64_bits(seed, stream, named):
    with pytest.raises(ValueError, match=named):
        NoiseSource(seed, stream)


@pytest.mark.parametrize("seed, stream, named", [
    (1.5, 0, "seed=1.5"),
    (0, 2.0, "stream=2.0"),
    ("3", 0, "seed='3'"),
    (np.float64(1.0), 0, "seed=np.float64(1.0)"),
    (True, 0, "seed=True"),
    (0, False, "stream=False"),
])
def test_noise_source_rejects_a_key_that_is_not_an_integer(seed, stream, named):
    # int() would truncate 1.5 to seed 1's normals, and True is seed 1
    with pytest.raises(ValueError, match=re.escape(f"an integer in [0, 2^64); got {named}")):
        NoiseSource(seed, stream)


def test_process_config_rejects_a_fractional_seed():
    with pytest.raises(ValueError, match="seed=2.9"):
        ProcessConfig(1.0, 1e-3, seed=2.9).source()


def test_noise_source_takes_numpy_integer_keys():
    want = NoiseSource(3, 2).normals(path=1, step=4, count=5)
    for seed, stream in ((np.int64(3), np.uint64(2)), (np.uint8(3), np.int32(2))):
        assert_array_equal(NoiseSource(seed, stream).normals(path=1, step=4, count=5), want)


def test_noise_source_takes_the_largest_64_bit_keys():
    z = NoiseSource(2 ** 64 - 1, 2 ** 64 - 1).normals(path=0, step=0, count=4)
    assert z.shape == (4,) and np.isfinite(z).all()


@pytest.mark.parametrize("method, args, named", [
    ("normals", (-1, 0, 4), "path=-1"),
    ("normals", (0, -1, 4), "step=-1"),
    ("normals_block", (0, 2, 4, -1), "path=-1"),
    ("normals", (True, 0, 4), "path=True"),
    ("normals", (0, 1.0, 4), "step=1.0"),
    ("normals", (2 ** 64, 0, 4), "path=18446744073709551616"),
    # the last block of these draws is at counter 2^64, and the last step
    # of the block draw is 2^64
    ("normals", (2 ** 64 - 1, 0, 4), "path=18446744073709551615"),
    ("normals_block", (0, 2, 4, 2 ** 64 - 2), "path=18446744073709551614"),
    ("normals_block", (2 ** 64 - 1, 1, 4, 0, 2), "step=18446744073709551615"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_a_draw_outside_the_noise_keying_is_refused(method, args, named):
    # a negative index would wrap the Philox counter and a bool is index 1:
    # both would hand out another index's normals
    with pytest.raises(ValueError, match=re.escape(named)):
        getattr(NoiseSource(0), method)(*args)


def test_the_last_indices_inside_the_keying_draw():
    src = NoiseSource(0)
    assert np.isfinite(src.normals(2 ** 64 - 2, 2 ** 64 - 1, 4)).all()
    assert_array_equal(src.normals_block(2 ** 64 - 2, 1, 4, first=2 ** 64 - 3, steps=2)[1, 0],
                       src.normals(2 ** 64 - 3, 2 ** 64 - 1, 4))


def _wiener():
    return SdeProblem(x0=np.zeros(2), diffusion=lambda t, x, dw: dw, noise_shape=(2,))


@pytest.mark.parametrize("index", [True, -1, 1.0])
def test_integrate_refuses_a_path_index_outside_the_keying(index):
    # integrate(problem, grid, src, True) would be path 1 bit for bit
    with pytest.raises(ValueError, match=re.escape(f"got path={index!r}")):
        integrate(_wiener(), TimeGrid(0.1, 3), NoiseSource(5), index)


@pytest.mark.parametrize("n_paths", [-1, 0, True, 2.0])
def test_integrate_batch_refuses_a_path_count_that_is_not_a_count(n_paths):
    with pytest.raises(ValueError, match=re.escape(f"got n_paths={n_paths!r}")):
        integrate_batch(_wiener(), TimeGrid(0.1, 3), NoiseSource(5), n_paths)


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
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64),
                          counter=np.array([0, 0, 0, step], dtype=np.uint64))
    return NoiseSource._to_normal(bg.random_raw((path + 1) * count)[path * count:])


def test_key_and_counter_words_above_2_63_keep_every_bit():
    # numpy reads a Python list holding a word >= 2^63 as float64, which
    # rounds 2^63 + 1 to 2^63 and casts 2^64 - 1 to 0: those seeds and steps
    # would draw another key's or step's normals
    assert np.any(NoiseSource(2 ** 63 + 1).normals(0, 0, 4) != NoiseSource(2 ** 63).normals(0, 0, 4))
    assert np.any(NoiseSource(2 ** 64 - 1).normals(0, 0, 4) != NoiseSource(0).normals(0, 0, 4))
    src = NoiseSource(5)
    assert np.any(src.normals(0, 2 ** 63 + 1, 4) != src.normals(0, 2 ** 63, 4))
    for seed, stream, path, step in [(2 ** 64 - 1, 2 ** 63 + 1, 3, 2 ** 64 - 1),
                                     (2 ** 63 + 1, 7, 0, 2 ** 63 + 1)]:
        assert_array_equal(NoiseSource(seed, stream).normals(path, step, 3),
                           _keyed_normals(seed, stream, path, step, 3))


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


def test_noise_block_slices_have_the_bits_of_a_direct_draw():
    src = NoiseSource(seed=4, stream=1)
    block = NoiseBlock(src, first=5, n_paths=4, count=3, steps=7)
    for step, n_paths, first, steps in [(0, 1, 5, 7), (2, 2, 6, 3), (0, 4, 5, 7), (6, 1, 8, 1)]:
        assert_array_equal(block.normals_block(step, n_paths, 3, first, steps),
                           src.normals_block(step, n_paths, 3, first, steps))
    # a window the draw does not hold is an error, never a wrong slice
    for step, n_paths, count, first, steps in [(0, 1, 3, 4, 1), (0, 2, 3, 8, 1),
                                               (5, 1, 3, 5, 3), (0, 1, 2, 5, 1)]:
        with pytest.raises(ValueError, match="outside the block"):
            block.normals_block(step, n_paths, count, first, steps)


@pytest.mark.parametrize("words, sizes", [(2 ** 14, [10]), (3 * 7 * 2, [3, 3, 3, 1]),
                                          (7 * 2, [1] * 10), (1, [1] * 10)])
def test_path_chunks_split_by_the_word_budget(monkeypatch, words, sizes):
    # 10 paths of 7 steps with 2 normals each: chunks of budget // 14 paths;
    # a one-path chunk draws from the source itself
    monkeypatch.setattr(sde, "_WINDOW_WORDS", words)
    src = NoiseSource(seed=1)
    chunks = list(path_chunks(src, 10, 2, 7))
    assert [len(paths) for paths, _ in chunks] == sizes
    assert [p for paths, _ in chunks for p in paths] == list(range(10))
    for paths, noise in chunks:
        assert (noise is src) == (len(paths) == 1)


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


def test_no_word_maps_to_an_infinite_normal():
    # u = ((w >> 11) + 0.5) 2^-53 rounds to 1.0 for the top 2^11 words; those
    # are clamped to the largest double below 1, and the words below them
    # keep the unclamped formula's bits
    top = np.array([2 ** 64 - 1, 2 ** 64 - 2 ** 11], dtype=np.uint64)
    z = NoiseSource._to_normal(top)
    assert np.isfinite(z).all()
    assert_array_equal(z, ndtri(np.nextafter(1.0, 0.0)))
    rest = np.array([2 ** 64 - 2 ** 11 - 1, 0], dtype=np.uint64)
    u = ((rest >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    assert_array_equal(NoiseSource._to_normal(rest), ndtri(u))


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
        m = np.einsum("a,aij->ij", np.sqrt(dt) * src.normals(p, 0, len(basis)), basis)
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
        integrate(prob, TimeGrid(0.1, 2))


def test_constant_problem_stays_put():
    path = integrate(SdeProblem(x0=np.array([2.0, -1.0])), TimeGrid(0.1, 5))
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
    grid = TimeGrid(0.01, 50)
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
    grid = TimeGrid(0.01, 40)
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
    path = integrate(prob, TimeGrid(1.0, 5))
    assert path.stopped and path.stopped_step == 2
    assert path.stop_reason == "ceiling"
    # last valid state is kept; the offending state is discarded, not clamped
    assert_allclose(path.states[:, 0], [0.0, 1.0, 2.0], rtol=0, atol=0)
    assert_allclose(path.times, [0.0, 1.0, 2.0], rtol=0, atol=0)


def test_post_step_runs_before_guard():
    prob = SdeProblem(x0=np.array([1.0]), drift=lambda t, x: x,
                      post_step=lambda x: np.minimum(x, 1.5),
                      guard=lambda x: x[0] <= 1.5)
    path = integrate(prob, TimeGrid(1.0, 3))
    assert not path.stopped
    assert path.final[0] == 1.5


def test_batch_rows_match_single_paths_and_freeze_at_last_valid_state():
    # row p of the batch is path p; a tripped guard freezes the row at the
    # last state that passed, exactly as the single path stops there
    prob = SdeProblem(x0=np.zeros((2,)), drift=lambda t, x: -x,
                      diffusion=lambda t, x, dw: dw, noise_shape=(2,),
                      guard=lambda x: np.abs(x).max(axis=-1) < 1.0)
    grid = TimeGrid(0.05, 20)
    src = NoiseSource(33)
    final, alive = integrate_batch(prob, grid, src, n_paths=6)
    assert final.shape == (6, 2) and not alive.all() and alive.any()
    for p in range(6):
        single = integrate(prob, grid, src, path_index=p)
        assert_array_equal(final[p], single.final)
        assert alive[p] == (not single.stopped)


def test_batch_in_which_every_path_trips_returns_frozen_states():
    # the guard rejects the band 0.3 < x_0 < 0.5 that every path runs into;
    # a stopped row's later proposals would often leave the band again, and
    # the row must stay stopped (it has left the batch) instead of resuming
    prob = SdeProblem(x0=np.zeros((2,)), drift=lambda t, x: np.ones_like(x),
                      diffusion=lambda t, x, dw: 0.2 * dw, noise_shape=(2,),
                      guard=lambda x: np.abs(x[..., 0] - 0.4) >= 0.1)
    grid = TimeGrid(0.05, 20)
    src = NoiseSource(33)
    final, alive = integrate_batch(prob, grid, src, n_paths=6)
    assert final.shape == (6, 2) and not alive.any()
    for p in range(6):
        single = integrate(prob, grid, src, path_index=p)
        assert single.stopped and single.stopped_step < grid.steps - 1
        assert_array_equal(final[p], single.final)


def _bounded_walk(drift=lambda t, x: -x, diffusion=lambda t, x, dw: dw):
    # with NoiseSource(33) on TimeGrid(0.05, 20), paths 0-5 stop at steps
    # 9, -, -, -, 10, 8
    return SdeProblem(x0=np.zeros((2,)), drift=drift, diffusion=diffusion,
                      noise_shape=(2,), guard=lambda x: np.abs(x).max(axis=-1) < 1.0)


def test_a_row_that_trips_mid_window_leaves_the_batch_and_its_noise():
    # 4 paths draw all 20 steps in one window; path 0 trips at step 9, so
    # from step 10 the diffusion gets the noise of paths 1-3 only, each row
    # its own path's keyed draw, and every row ends with its lone path's bits
    grid, src = TimeGrid(0.05, 20), NoiseSource(33)
    seen = []

    def diffusion(t, x, dw):
        seen.append(dw.copy())
        return dw

    prob = _bounded_walk(diffusion=diffusion)
    paths = [integrate(prob, grid, src, path_index=p) for p in range(4)]
    assert [p.stopped_step for p in paths] == [9, None, None, None]
    seen.clear()
    final, alive = integrate_batch(prob, grid, src, n_paths=4)
    assert_array_equal(alive, [False, True, True, True])
    for p, path in enumerate(paths):
        assert_array_equal(final[p], path.final)
    assert_array_equal(final[0], paths[0].states[9])
    assert len(seen) == grid.steps
    for m, dw in enumerate(seen):
        live = range(4) if m <= 9 else range(1, 4)
        want = [np.sqrt(grid.dt) * _keyed_normals(33, 0, p, m, 2) for p in live]
        assert_array_equal(dw, want)


def test_step_functions_see_only_live_rows():
    # a drift spy: the row count falls from 6 to 3 as paths 5, 0 and 4 trip
    # at steps 8, 9 and 10, and every state it gets is a live path's state
    grid, src = TimeGrid(0.05, 20), NoiseSource(33)
    seen = []

    def drift(t, x):
        seen.append(x.copy())
        return -x

    prob = _bounded_walk(drift=drift)
    paths = [integrate(prob, grid, src, path_index=p) for p in range(6)]
    seen.clear()
    integrate_batch(prob, grid, src, n_paths=6)
    assert [len(x) for x in seen] == [6] * 9 + [5, 4] + [3] * 9
    for m, x in enumerate(seen):
        live = [p for p, path in enumerate(paths)
                if path.stopped_step is None or m <= path.stopped_step]
        assert_array_equal(x, [paths[p].states[m] for p in live])


@pytest.mark.parametrize("words", [1, 7, 84])
def test_noise_window_changes_no_bit(monkeypatch, words):
    # integrate draws max(1, words // 2) steps per window and the 6-path
    # batch max(1, words // 12): windows of 1, 3 and 42 steps for a lone
    # path and 1, 1 and 7 for the batch.  Paths 0, 4 and 5 trip their guard
    # at steps 9, 10 and 8, inside a window for each size
    prob = SdeProblem(x0=np.zeros((2,)), drift=lambda t, x: -x,
                      diffusion=lambda t, x, dw: dw, noise_shape=(2,),
                      guard=lambda x: np.abs(x).max(axis=-1) < 1.0)
    grid = TimeGrid(0.05, 20)
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


def _lone_reference(problem, grid, source, p):
    """The lone-path Euler loop as it ran before a lone path became a batch
    of one, written out: the state has no path axis, step m draws
    normals(p, m, count) and the guard's one bool ends the path at its first
    rejected step.  Returns (states, stop), stop None if it never tripped."""
    x, states = problem.x0, [problem.x0]
    count = int(np.prod(problem.noise_shape))
    for m, t in enumerate(grid.times()[:-1]):
        nxt = x
        if problem.drift is not None:
            nxt = nxt + problem.drift(t, x) * grid.dt
        if problem.diffusion is not None:
            dw = (np.sqrt(grid.dt) * source.normals(p, m, count)).reshape(problem.noise_shape)
            nxt = nxt + problem.diffusion(t, x, dw)
        if problem.post_step is not None:
            nxt = problem.post_step(nxt)
        if problem.guard is not None and not problem.guard(nxt):
            return np.array(states), m
        x = nxt
        states.append(x)
    return np.array(states), None


def _tripping(problem, step):
    """The problem with its guard (or none) narrowed to reject the state
    proposed at `step`, counted by calls: a lone path calls it once a step."""
    calls, base, lead = itertools.count(), problem.guard, problem.x0.ndim

    def guard(x):
        ok = np.full(x.shape[:x.ndim - lead], True) if base is None else base(x)
        return ok & (next(calls) != step)

    return dataclasses.replace(problem, guard=guard)


def _process_problems():
    # every row of the simulate table at its defaults, and the Ito route of
    # the Grassmann row, whose projector guard stops most paths by itself
    rows = []
    for name, row in cli._PROCESSES.items():
        n, k = 2, 2 if row.wide_k else 1
        opts = {flag: cli._INPUTS[flag].default(n, k) for flag in row.reads
                if flag in cli._INPUTS}
        rows.append((name, lambda row=row, n=n, k=k, opts=opts: row.problem(n, k, opts)))
    opts = {"route": "ito"}
    rows.append(("grassmann-ito", lambda: cli._PROCESSES["grassmann"].problem(2, 1, opts)))
    return rows


@pytest.mark.parametrize("words", [2 ** 14, 5])
@pytest.mark.parametrize("trip", [None, 0, 23, 59])
@pytest.mark.parametrize("name, build", _process_problems(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_integrate_is_the_former_lone_path_loop(monkeypatch, name, build, trip, words):
    # bit for bit, trajectory and stop step, for every process, with its own
    # guard and with one narrowed to trip at the first, a middle and the
    # last step; 5 words make windows of one to five steps
    monkeypatch.setattr(sde, "_WINDOW_WORDS", words)
    grid, src = TimeGrid(1e-3, 60), NoiseSource(7, stream=2)
    make = build if trip is None else lambda: _tripping(build(), trip)
    for p in (0, 3):
        states, stop = _lone_reference(make(), grid, src, p)
        problem = make()
        path = integrate(problem, grid, src, p)
        assert path.stopped_step == stop
        assert path.stop_reason == (None if stop is None else problem.guard_name)
        assert_array_equal(path.times, grid.times()[:len(states)])
        assert_array_equal(path.states, states)
        if trip is not None:
            assert stop == trip or (name == "grassmann-ito" and stop < trip)


class _TableNoise:
    """Normals read from a table z[step, path, entry]."""

    def __init__(self, z):
        self.z = z

    def normals_block(self, step, n_paths, count, first=0, steps=1):
        return self.z[step:step + steps, first:first + n_paths, :count]


def _jumps(stops):
    # path p takes small steps and jumps past the guard at step stops[p]
    z = np.random.default_rng(0).uniform(-0.05, 0.05, (12, len(stops), 1))
    for p, m in enumerate(stops):
        if m is not None:
            z[m, p] = 5.0
    return _TableNoise(z)


@pytest.mark.parametrize("stops", [[0, 5, 11, None, 5], [6, 6, 6, 6, 6], [None] * 5])
def test_kept_batch_rows_are_their_own_runs(monkeypatch, stops):
    # rows of one kept batch stop at step 0, mid-window (windows of four
    # steps), at the last step, never, or all at once; each row's slice up
    # to its stop step is its own lone run, and the unkept batch ends each
    # row at the same state
    monkeypatch.setattr(sde, "_WINDOW_WORDS", 16)
    prob = SdeProblem(x0=np.zeros(1), drift=lambda t, x: -x, diffusion=lambda t, x, dw: dw,
                      noise_shape=(1,), guard=lambda x: x[..., 0] < 1.0)
    grid, noise = TimeGrid(1.0, 12), _jumps(stops)
    out, stop = sde._euler(prob, grid, noise, 1, 4, keep=True)
    final, final_stop = sde._euler(prob, grid, noise, 1, 4, keep=False)
    assert out.shape == (13, 4, 1)
    assert_array_equal(final_stop, stop)
    for r in range(4):
        path = integrate(prob, grid, noise, 1 + r)
        want = stops[1 + r]
        assert path.stopped_step == want
        assert stop[r] == (grid.steps if want is None else want)
        assert_array_equal(out[:stop[r] + 1, r], path.states)
        assert_array_equal(final[r], path.final)


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
    grid = TimeGrid(0.125, 8)
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
    line = np.ones((1, 1, 1))
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
    "skew-basis": (lambda t, s, dw: np.einsum("...a,aij->...ij", dw, _SKEW3), np.eye(3),
                   (len(_SKEW3),)),
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


@pytest.mark.parametrize("kind, n, k, name", [("wiener", 3, None, "wiener-square"),
                                               ("wiener", 3, 2, "wiener-rect"),
                                               ("skew", 3, None, "skew-basis"),
                                               ("sphere", 3, None, "sphere")])
def test_qv_kinds_are_the_diffusions_the_oracle_checks(kind, n, k, name):
    # the named kinds that `oracle --target qv` and the constants suite use
    # give the estimates of the diffusions written out above, bit for bit
    got = qv_oracle(*qv_kind(kind, n, k), 1e-3, 600, seed=2)
    diffusion, state, shape = QV_DIFFUSIONS[name]
    want = qv_oracle(diffusion, state, shape, 1e-3, 600, seed=2)
    for field in ("outer", "outer_se", "inner", "inner_se", "square", "square_se"):
        g, w = getattr(got, field), getattr(want, field)
        assert (g is None and w is None) or np.array_equal(g, w)


@pytest.mark.parametrize("kwargs,name", [({"samples": 0}, "samples=0"),
                                         ({"samples": -3}, "samples=-3"),
                                         ({"dt": 0.0}, "dt=0"),
                                         ({"dt": -1e-3}, "dt=-0.001"),
                                         ({"dt": np.inf}, "dt=inf")])
def test_qv_oracle_rejects_bad_arguments(kwargs, name):
    args = {"dt": 1e-3, "samples": 10} | kwargs
    with pytest.raises(ValueError, match=name):
        qv_oracle(lambda t, x, dw: dw, np.zeros((2, 2)), (2, 2), **args)


def test_qv_oracle_square_wiener():
    n, dt, samples = 3, 1e-3, 6000
    est = qv_oracle(lambda t, x, dw: dw, np.zeros((n, n)), (n, n), dt, samples)
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
