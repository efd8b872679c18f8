"""Each ensemble runs its process's own problem over a path axis: row p of an
ensemble equals the single-path run with path_index=p bit for bit, and a
path whose guard trips keeps its last valid state.  Every process builder
meets that contract: the ten `*_problem` builders, the vertical process with
and without a metric, and the invariant process with no guard."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from orbitflow import ensembles, processes
from orbitflow.geom import MetricR
from orbitflow.matcore import sl2_basis
from orbitflow.processes import ProcessConfig
from orbitflow.sde import integrate, integrate_batch

PATHS = 5
CFG = ProcessConfig(t_end=0.2, dt=1e-3, seed=3, stream=1)
P0 = np.diag([3.0, 2.0, 1.0])
LAM0 = [5.0, 2.0, 1.0]
M0 = np.array([[1.0, 0.2], [0.1, 1.5], [0.3, -0.4]])
# an unguarded invariant process: the determinant-one group from a point
# other than the identity
SL2, Z0 = sl2_basis(), processes.halfplane_start(0.3, 1.2)
METRIC = MetricR(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]]))

# name -> (ensemble run, single-path run of path p)
CASES = {
    "orthogonal": (
        lambda: ensembles.orthogonal_ensemble(3, CFG, PATHS),
        lambda p: processes.bm_orthogonal(3, CFG, path_index=p)),
    "grassmann-pushforward": (
        lambda: ensembles.grassmann_pushforward_ensemble(4, 2, CFG, PATHS),
        lambda p: processes.bm_grassmann(4, 2, CFG, path_index=p)),
    "grassmann-ito": (
        lambda: ensembles.grassmann_ito_ensemble(3, 1, CFG, PATHS),
        lambda p: processes.bm_grassmann(3, 1, CFG, route="ito", path_index=p)),
    "cartan-hadamard": (
        lambda: ensembles.cartan_hadamard_ensemble(3, CFG, PATHS),
        lambda p: processes.bm_cartan_hadamard(3, CFG, path_index=p)[0]),
    "wishart": (
        lambda: ensembles.wishart_ensemble(np.eye(3, 2), CFG, PATHS),
        lambda p: processes.wishart(np.eye(3, 2), CFG, path_index=p)[0]),
    "bw": (
        lambda: ensembles.bw_ensemble(P0, CFG, PATHS),
        lambda p: processes.bm_bures_wasserstein(P0, CFG, path_index=p)),
    "poincare": (
        lambda: ensembles.poincare_ensemble(CFG, PATHS, z0=(0.3, 1.2)),
        lambda p: processes.bm_poincare(CFG, z0=(0.3, 1.2), path_index=p)),
    "eigen-wishart": (
        lambda: ensembles.eigen_ensemble("wishart", LAM0, 3, CFG, PATHS),
        lambda p: processes.eigen_sde("wishart", LAM0, 3, CFG, path_index=p)),
    "eigen-bw": (
        lambda: ensembles.eigen_ensemble("bw", LAM0, 3, CFG, PATHS),
        lambda p: processes.eigen_sde("bw", LAM0, 3, CFG, path_index=p)),
    "sphere": (
        lambda: ensembles.sphere_ensemble(3, CFG, PATHS)[0],
        lambda p: processes.sphere_vertical_bm(3, CFG, path_index=p)[0]),
    "invariant": (
        lambda: integrate_batch(processes.invariant_problem(SL2, Z0), CFG.grid(), CFG.source(),
                                PATHS),
        lambda p: processes.invariant_bm(SL2, Z0, CFG, path_index=p)),
    "vertical": (
        lambda: integrate_batch(processes.vertical_problem(M0), CFG.grid(), CFG.source(),
                                PATHS),
        lambda p: processes.vertical_bm(M0, CFG, path_index=p)[0]),
    "vertical-metric": (
        lambda: integrate_batch(processes.vertical_problem(M0, METRIC), CFG.grid(),
                                CFG.source(), PATHS),
        lambda p: processes.vertical_bm(M0, CFG, METRIC, path_index=p)[0]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_ensemble_rows_equal_single_paths(name):
    run_ensemble, run_single = CASES[name]
    out = run_ensemble()
    rows, alive = out if isinstance(out, tuple) else (out, None)
    for p in range(PATHS):
        path = run_single(p)
        assert_array_equal(rows[p], path.final)
        if alive is not None:
            assert alive[p] == (not path.stopped)


def test_sphere_ensemble_radii_equal_single_paths():
    _, radii = ensembles.sphere_ensemble(3, CFG, PATHS)
    for p in range(PATHS):
        assert radii[p] == processes.sphere_vertical_bm(3, CFG, path_index=p)[1][-1]


def test_tripped_guard_freezes_at_last_valid_state():
    # nearly equal starting eigenvalues: the interaction drift pushes the
    # pair across the gap floor within a few steps on most paths
    cfg = ProcessConfig(t_end=0.05, dt=1e-3, seed=0)
    lam0 = [1.0 + 1e-3, 1.0]
    rows, alive = ensembles.eigen_ensemble("bw", lam0, 2, cfg, PATHS)
    problem = processes.eigen_problem("bw", lam0, 2)
    assert not alive.all()
    for p in range(PATHS):
        path = processes.eigen_sde("bw", lam0, 2, cfg, path_index=p)
        assert path.stopped == (not alive[p])
        assert_array_equal(rows[p], path.final)
        assert problem.guard(rows[p])


def test_a_trip_costs_one_more_spectrum_and_a_stopped_row_none(monkeypatch):
    # the BW problem decomposes the start once and each accepted state once,
    # when the guard checks it: drift and diffusion reuse that spectrum one
    # step later.  A trip hands the next step fewer rows, which are
    # decomposed once more; a stopped row is never decomposed again
    cfg = ProcessConfig(t_end=0.05, dt=1e-3, seed=1)
    p0 = np.diag([1.0, 2e-6])
    stops = [processes.bm_bures_wasserstein(p0, cfg, path_index=p).stopped_step
             for p in range(PATHS)]
    trips = set(stops) - {None}
    assert len(trips) >= 2 and None in stops
    calls = []
    eigh_desc = processes.eigh_desc
    monkeypatch.setattr(processes, "eigh_desc",
                        lambda p: calls.append(len(p)) or eigh_desc(p))
    rows, alive = ensembles.bw_ensemble(p0, cfg, PATHS)
    assert len(calls) == 1 + cfg.grid().steps + len(trips)
    # every decomposition after the last trip sees only the surviving rows
    assert calls[-1] == alive.sum() == stops.count(None)


def test_tripped_rank_guard_keeps_spd_state():
    # a nearly singular start trips the rank guard on some paths; the
    # states of the stopped rows stay positive definite
    cfg = ProcessConfig(t_end=0.05, dt=1e-3, seed=1)
    p0 = np.diag([1.0, 2e-6])
    rows, alive = ensembles.bw_ensemble(p0, cfg, PATHS)
    assert not alive.all()
    for p in range(PATHS):
        path = processes.bm_bures_wasserstein(p0, cfg, path_index=p)
        assert path.stopped == (not alive[p])
        assert_array_equal(rows[p], path.final)
        w = np.linalg.eigvalsh(rows[p])
        assert w[0] > 1e-8 * w[-1]


@pytest.mark.parametrize("metric, cap", [(None, 1.04), (METRIC, 1.035)])
def test_vertical_row_that_trips_mid_window_keeps_its_lone_path_bits(metric, cap):
    # the rank guard narrowed by a cap on entry (0, 0) that path 0 alone
    # crosses, at step 129 of 200.  The 200 steps are one noise window, so
    # row 0 leaves the batch mid-window and the other rows step on without it
    problem = processes.vertical_problem(M0, metric)
    rank_guard = problem.guard
    capped = dataclasses.replace(problem, guard=lambda x: rank_guard(x) & (x[..., 0, 0] < cap))
    paths = [integrate(capped, CFG.grid(), CFG.source(), p) for p in range(PATHS)]
    assert [path.stopped_step for path in paths] == [129] + [None] * (PATHS - 1)
    final, alive = integrate_batch(capped, CFG.grid(), CFG.source(), PATHS)
    assert_array_equal(alive, [False] + [True] * (PATHS - 1))
    for p, path in enumerate(paths):
        assert_array_equal(final[p], path.final)
