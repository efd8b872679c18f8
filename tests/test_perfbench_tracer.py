"""The benchmark's tracer (perfbench/tracer.py) binds to names in the
package: every function and method it wraps must exist, and installing and
uninstalling it must leave the package as it was."""

import importlib.util
import sys
from pathlib import Path

import orbitflow.cli  # noqa: F401  (loads every orbitflow module)
from orbitflow import ensembles, processes, sde
from orbitflow.processes import ProcessConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "orbitflow" or name.startswith("orbitflow.")
            for attr, value in vars(mod).items()}


def test_tracer_installs_counts_and_uninstalls():
    tracing = _load_tracer()
    before = _bindings()
    methods = {m: getattr(sde.NoiseSource, m) for m in ("normals", "normals_block")}
    tr = tracing.Tracer(full=True)
    tr.install()
    try:
        assert sde.integrate is not before[("orbitflow.sde", "integrate")]
        cfg = ProcessConfig(t_end=0.01, dt=1e-3)
        processes.bm_orthogonal(2, cfg)
        ensembles.grassmann_pushforward_ensemble(3, 1, cfg, paths=4)
    finally:
        tr.uninstall()
    assert _bindings() == before
    assert all(getattr(sde.NoiseSource, m) is fn for m, fn in methods.items())
    assert tr.counts["sde.path_steps"] == 10
    # the pushforward ensemble delegates to the orthogonal one: counted once
    assert tr.counts["ensembles.path_steps"] == 40
    summary = tr.summary()
    assert summary["processes.bm_orthogonal"]["calls"] == 1
    assert summary["processes.diffusion"]["calls"] == 10  # one per step
