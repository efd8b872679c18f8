"""Span tracer that instruments orbitflow from outside the package.

Every wrapped function records one span (name, start, end, parent) in memory;
`summary` turns them into self time and call counts per span name, and
`write` dumps the raw spans when the run ends.

Modules bind names with `from .x import y`, so `install` replaces a wrapped
function in every loaded `orbitflow.*` module that holds it (for example
`integrate` in `sde`, `processes` and the package itself).  The step
closures of the named processes are reached through `integrate`, which hands
on a copy of the problem whose drift, diffusion, guard and post_step are
wrapped.  `uninstall` restores every original binding.
"""

import collections
import dataclasses
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

# (defining module, attribute, span name).  The span name's first component
# is the layer (the orbitflow module) that the time is charged to.
FUNCTIONS = (
    ("orbitflow.cli", "main", "cli.main"),
    ("orbitflow.sde", "qv_oracle", "sde.qv_oracle"),
    ("orbitflow.processes", "mcf_ode", "processes.mcf_ode"),
    ("orbitflow.processes", "invariant_bm", "processes.invariant_bm"),
    ("orbitflow.processes", "bm_orthogonal", "processes.bm_orthogonal"),
    ("orbitflow.processes", "bm_stiefel", "processes.bm_stiefel"),
    ("orbitflow.processes", "bm_grassmann", "processes.bm_grassmann"),
    ("orbitflow.processes", "bm_poincare", "processes.bm_poincare"),
    ("orbitflow.processes", "bm_cartan_hadamard", "processes.bm_cartan_hadamard"),
    ("orbitflow.processes", "wishart", "processes.wishart"),
    ("orbitflow.processes", "bm_bures_wasserstein", "processes.bm_bures_wasserstein"),
    ("orbitflow.processes", "eigen_sde", "processes.eigen_sde"),
    ("orbitflow.processes", "vertical_bm", "processes.vertical_bm"),
    ("orbitflow.processes", "sphere_vertical_bm", "processes.sphere_vertical_bm"),
    ("orbitflow.geom", "vertical_project", "geom.vertical_project"),
    ("orbitflow.geom", "drift_J_spectral", "geom.drift_J_spectral"),
    ("orbitflow.geom", "drift_J_R", "geom.drift_J_R"),
    ("orbitflow.matcore", "eigh_desc", "matcore.eigh_desc"),
    ("orbitflow.matcore", "require_symmetric", "matcore.require_symmetric"),
    ("orbitflow.matcore", "solve_lyapunov", "matcore.solve_lyapunov"),
    ("orbitflow.matcore", "sqrtm_spd", "matcore.sqrtm_spd"),
    ("orbitflow.control", "integrate_control", "control.integrate_control"),
    ("orbitflow.control", "alpha", "control.alpha"),
    ("orbitflow.control", "reach_probe", "control.reach_probe"),
    ("orbitflow.reporting", "emit_csv", "reporting.emit_csv"),
    # eigenvalue paths are the same per-path CSV emission with another header
    ("orbitflow.reporting", "emit_eigen_csv", "reporting.emit_csv"),
    ("orbitflow.reporting", "emit_svg", "reporting.emit_svg"),
    ("orbitflow.reporting", "build_manifest", "reporting.manifest"),
    ("orbitflow.reporting", "write_manifest", "reporting.manifest"),
    ("orbitflow.verify", "constants_suite", "verify.constants"),
    ("orbitflow.verify", "invariants_suite", "verify.invariants"),
    ("orbitflow.verify", "eigen_consistency_suite", "verify.eigen-consistency"),
    ("orbitflow.verify", "mcf_match_suite", "verify.mcf-match"),
    ("orbitflow.verify", "control_suite", "verify.control"),
)

# (defining module, class, method, span name)
METHODS = (
    ("orbitflow.sde", "NoiseSource", "normals", "sde.noise"),
    ("orbitflow.sde", "NoiseSource", "normals_block", "sde.noise"),
    ("orbitflow.geom", "MetricR", "__post_init__", "geom.MetricR.init"),
)

ENSEMBLES = ("orthogonal_ensemble", "grassmann_pushforward_ensemble",
             "grassmann_ito_ensemble", "cartan_hadamard_ensemble",
             "wishart_ensemble", "bw_ensemble", "poincare_ensemble",
             "eigen_ensemble", "sphere_ensemble")

STEP_FIELDS = ("drift", "diffusion", "guard", "post_step")

LAYERS = ("sde", "processes", "geom", "matcore", "ensembles", "control",
          "reporting", "verify", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries.  `full=False` wraps only `integrate` and the ensembles, which
    is enough to count path-steps at negligible cost."""

    def __init__(self, full: bool = True):
        self.full = full
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = collections.Counter()
        self._undo = []

    # --- recording -----------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(args, kwargs, result)
        updates counters once the call has returned."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent,
                                              self.start, self.end, self._stack)

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # --- counters ------------------------------------------------------

    def _normals_done(self, args, kwargs, result):
        count = _arg(args, kwargs, 3, "count")
        if count:
            self.counts["noise.words_generated"] += (_arg(args, kwargs, 1, "path") + 1) * count
        self.counts["noise.words_returned"] += result.size

    def _block_done(self, args, kwargs, result):
        self.counts["noise.words_generated"] += result.size
        self.counts["noise.words_returned"] += result.size

    def _guard_done(self, args, kwargs, result):
        if not result:
            self.counts["processes.guard.trips"] += 1

    def _rows_done(self, args, kwargs, result):
        self.counts["reporting.emit_csv.rows"] += len(_arg(args, kwargs, 0, "times"))

    def _path_done(self, args, kwargs, result):
        self.counts["sde.path_steps"] += len(result.times) - 1

    def _ensemble_done(self, fn):
        sig = inspect.signature(fn)

        def done(args, kwargs, result):
            # an ensemble that delegates to another one steps no paths itself
            caller = self._stack[-1]
            if caller >= 0 and self.names[self.name_id[caller]].startswith("ensembles."):
                return
            bound = sig.bind(*args, **kwargs)
            cfg = bound.arguments["cfg"]
            self.counts["ensembles.path_steps"] += bound.arguments["paths"] * cfg.grid().steps
        return done

    def _integrate(self, fn):
        traced = self.span("sde.integrate", fn, after=self._path_done)
        if not self.full:
            return traced
        span = self.span

        def integrate(problem, *args, **kwargs):
            wrapped = {}
            for field in STEP_FIELDS:
                step_fn = getattr(problem, field)
                if step_fn is not None:
                    done = self._guard_done if field == "guard" else None
                    wrapped[field] = span(f"processes.{field}", step_fn, after=done)
            return traced(dataclasses.replace(problem, **wrapped), *args, **kwargs)

        return integrate

    # --- installation --------------------------------------------------

    def _rebind(self, orig, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "orbitflow" and not modname.startswith("orbitflow."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, orig))

    def install(self) -> None:
        sde = sys.modules["orbitflow.sde"]
        ens = sys.modules["orbitflow.ensembles"]
        self._rebind(sde.integrate, self._integrate(sde.integrate))
        for name in ENSEMBLES:
            fn = getattr(ens, name)
            self._rebind(fn, self.span(f"ensembles.{name}", fn,
                                       after=self._ensemble_done(fn)))
        if not self.full:
            return
        after = {"reporting.emit_csv": self._rows_done}
        for modname, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[modname], attr)
            self._rebind(fn, self.span(name, fn, after=after.get(name)))
        after = {"normals": self._normals_done, "normals_block": self._block_done}
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            fn = cls.__dict__[attr]
            setattr(cls, attr, self.span(name, fn, after=after.get(attr)))
            self._undo.append((cls, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # --- results -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (the span's
        duration minus the part its child spans cover)."""
        name_id = np.asarray(self.name_id)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(dur.shape[0])
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        width = len(self.names)
        calls = np.bincount(name_id, minlength=width)
        total = np.bincount(name_id, weights=dur, minlength=width)
        own = np.bincount(name_id, weights=dur - child, minlength=width)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "spans": [[self.name_id[i], self.parent[i],
                                  round(self.start[i] - t0, 9), round(self.end[i] - t0, 9)]
                                 for i in range(len(self.start))]}, fh)
            fh.write("\n")
