"""Command line front end: simulate / drift / verify / control / oracle.

Every run is reproducible: paths draw noise keyed by (seed, stream, path,
step), so path p's CSV is the same bytes whatever the number of paths, and
each output directory carries a manifest with the resolved config and content
hashes of the inputs.  Every subcommand fails one way, and `main` alone maps
it to an exit code and one `error:` line: bad input (`ConfigError`) is found
before any output exists and exits 2; a run that fails after it started
(`RunError`) exits 1, names the path, file or flag, and writes no manifest.  A
failed verify suite also exits 1.
"""

import argparse
import dataclasses
import sys
from pathlib import Path as FsPath
from typing import Callable, NamedTuple

import numpy as np

from .control import check_control_inputs, integrate_control, load_schedule
from .geom import MetricR, drift_J_R, drift_J_gradient, drift_J_spectral, orbit_log_volume
from .matcore import fd_gradient, require_spd, sqrtm_spd
from .processes import (ProcessConfig, bures_wasserstein_problem, cartan_hadamard_problem,
                        eigen_problem, gram, grassmann_ito_problem, orthogonal_problem,
                        poincare_problem, sl2_to_halfplane, sphere_problem,
                        vertical_problem, wishart_problem)
from .reporting import (build_manifest, emit_csv, emit_eigen_csv, emit_svg, parse_entries,
                        read_matrix_csv, write_manifest, write_matrix_csv)
from .sde import QV_KINDS, integrate, path_chunks, qv_kind, qv_oracle
from .verify import SUITE_NAMES, run_suite

_CONFIG_KEYS = ("process", "n", "k", "t", "dt", "paths", "seed", "stream", "out")
# the flags beyond the common ones that some process reads and others do not
_PROCESS_FLAGS = ("n", "k", "route", "reproject", "P0", "M0", "lam0", "z0")
# the flags that name a file or directory, in any subcommand
_PATH_FLAGS = ("config", "out", "P0", "M0", "input", "R", "schedule")
# the one rule of each numeric flag or config key: finite, above (">") or at
# least (">=") its bound, and at most its cap.  seed and stream are 64-bit
# Philox key words, and verify's constants suite keys seed + 1 ... seed + 3
_NUMERIC = {"t": (">", 0, np.inf), "dt": (">", 0, np.inf), "n": (">=", 1, np.inf),
            "k": (">=", 1, np.inf), "paths": (">=", 1, np.inf), "samples": (">=", 1, np.inf),
            "seed": (">=", 0, 2 ** 64 - 4), "stream": (">=", 0, 2 ** 64 - 1)}


class _Row(NamedTuple):
    """One row of the process table: the problem it integrates, the map from
    integrated states to written ones, and what may be set."""
    problem: Callable  # (n, k, opts) -> SdeProblem; opts holds the input flags read
    image: Callable | None  # (states, k, opts) -> written states; None writes them as is
    kind: str  # CSV kind: "matrix" states or "eigen" (l_i columns)
    reads: tuple  # the _PROCESS_FLAGS it reads; giving any other one is an error
    wide_k: bool = False  # k is n unless given, not 1


_PROCESSES = {
    "on-bm": _Row(lambda n, k, o: orthogonal_problem(n), None, "matrix", ("n", "reproject")),
    "stiefel": _Row(lambda n, k, o: orthogonal_problem(n), lambda s, k, o: s[..., :k],
                    "matrix", ("n", "k")),
    "grassmann": _Row(lambda n, k, o: (orthogonal_problem(n) if o["route"] == "pushforward"
                                       else grassmann_ito_problem(n, k)),
                      lambda s, k, o: gram(s[..., :k]) if o["route"] == "pushforward" else s,
                      "matrix", ("n", "k", "route")),
    "poincare": _Row(lambda n, k, o: poincare_problem(o["z0"]),
                     lambda s, k, o: sl2_to_halfplane(s), "matrix", ("z0",)),
    "cartan-hadamard": _Row(lambda n, k, o: cartan_hadamard_problem(n),
                            lambda s, k, o: gram(s), "matrix", ("n",)),
    "wishart": _Row(lambda n, k, o: wishart_problem(np.eye(n, k)), lambda s, k, o: gram(s),
                    "matrix", ("n", "k"), wide_k=True),
    "bw-bm": _Row(lambda n, k, o: bures_wasserstein_problem(o["P0"]), None,
                  "matrix", ("n", "P0"), wide_k=True),
    "vertical-bm": _Row(lambda n, k, o: vertical_problem(o["M0"]), lambda s, k, o: gram(s),
                        "matrix", ("n", "k", "M0"), wide_k=True),
    "sphere-vertical": _Row(lambda n, k, o: sphere_problem(n), None, "matrix", ("n",)),
    "eigen-wishart": _Row(lambda n, k, o: eigen_problem("wishart", o["lam0"], n), None,
                          "eigen", ("n", "k", "lam0"), wide_k=True),
    "eigen-bw": _Row(lambda n, k, o: eigen_problem("bw", o["lam0"], n), None,
                     "eigen", ("n", "k", "lam0"), wide_k=True),
}
PROCESSES = tuple(_PROCESSES)


class ConfigError(Exception):
    """Bad flags, malformed input files, or schema violations (exit 2)."""


class RunError(Exception):
    """A run that failed after it started (exit 1); it writes no manifest."""


def _load_config_file(path: str, keys: tuple) -> dict:
    """key=value lines; a key outside `keys`, or one set twice, is an error,
    not a silent no-op."""
    cfg, lines = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in keys:
                    raise ConfigError(f"{path}:{ln}: unknown key {key!r}; "
                                      f"keys are {', '.join(keys)}")
                if key in lines:
                    raise ConfigError(f"{path}:{ln}: key {key!r} is set again; "
                                      f"line {lines[key]} set it first")
                if not val:
                    raise ConfigError(f"{path}:{ln}: key {key!r} has no value")
                cfg[key], lines[key] = val, ln
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return cfg


def _reject_unread(args, mode: str, flags, file_cfg=()) -> None:
    """Exit 2 on any of `flags` given to a `mode` that does not read it."""
    for flag in flags:
        if getattr(args, flag) is not None or flag in file_cfg:
            key = f" (config key {flag})" if flag in file_cfg else ""
            raise ConfigError(f"{mode} does not read --{flag}{key}; leave it out")


def _resolve(args, file_cfg: dict, key: str, cast, default):
    """Flag wins over config file wins over default; a numeric value given
    either way must keep the rule of its key in _NUMERIC."""
    value = getattr(args, key.replace("-", "_"))
    if value is None and key in file_cfg:
        try:
            value = cast(file_cfg[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    if value is None:
        return default
    if key in _NUMERIC:
        op, bound, cap = _NUMERIC[key]
        if not ((value > bound if op == ">" else value >= bound) and value < np.inf
                and value <= cap):
            most = "" if cap == np.inf else f" and <= {cap}"
            raise ConfigError(f"need a finite {key} {op} {bound}{most}; got {key}={value}")
    return value


def _read_matrix(path: str) -> np.ndarray:
    try:
        return read_matrix_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed matrix CSV: {exc}") from exc


def _unwritable(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"--out {path}: {exc.strerror or exc}")


def _write(path: FsPath, write) -> None:
    """Write one file of an output directory through `write(fh)`; a file that
    cannot be written fails the run, named."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
    except OSError as exc:
        raise RunError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _out_dir(path: str) -> FsPath:
    """Make the output directory of --out; called before the command's
    work, so a path that cannot be a directory exits 2 with nothing done."""
    out = FsPath(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    return out


def _read_metric(path: str, input_path: str, x: np.ndarray) -> MetricR:
    """The metric of --R, which must be n x n for the n x k matrix x of --input."""
    r = _read_matrix(path)
    if r.shape != (x.shape[0],) * 2:
        raise ConfigError(f"--R {path} is {r.shape[0]}x{r.shape[1]}, but --input "
                          f"{input_path} is {x.shape[0]}x{x.shape[1]}")
    try:
        return MetricR(r)
    except ValueError as exc:
        raise ConfigError(f"--R {path}: {exc}") from exc


def _svg_series(process: str, kind: str, n: int, paths: list) -> tuple:
    """Plot series for the given paths (simulate passes at most the first 8);
    returns (times, {label: values})."""
    if process == "sphere-vertical":
        path = paths[0]
        s = np.einsum("ti,ti->t", path.states, path.states)
        return path.times, {"S_t": s, "reference": s[0] + (n - 1) * (path.times - path.times[0])}
    times = min((path.times for path in paths), key=len)
    series = {}
    for p, path in enumerate(paths):
        if path.states.ndim == 3:
            series[f"path{p}_trace"] = np.trace(path.states, axis1=1, axis2=2)
        else:
            for i in range(path.states.shape[1]):
                label = f"l{i + 1}" if kind == "eigen" else f"x{i}"
                series[f"path{p}_{label}"] = path.states[:, i]
    return times, {label: v[:len(times)] for label, v in series.items()}


class _Input(NamedTuple):
    """How simulate reads one input flag of a process."""
    parse: Callable  # the flag's text -> value; a ValueError names what is bad in it
    default: Callable  # (n, k) -> value when the flag is not given
    sizes: tuple = ()  # for a start, the size ("n" or "k") each axis of its shape sets


def _parse_z0(text: str) -> tuple:
    z0 = parse_entries(text)
    if z0.shape[0] != 2:
        raise ValueError("need two entries x,y")
    return float(z0[0]), float(z0[1])


_INPUTS = {
    "route": _Input(str, lambda n, k: "pushforward"),
    "P0": _Input(_read_matrix, lambda n, k: np.eye(n), ("n", "n")),
    "M0": _Input(_read_matrix, lambda n, k: np.eye(n, k), ("n", "k")),
    "lam0": _Input(parse_entries, lambda n, k: np.arange(k, 0, -1, dtype=float), ("k",)),
    "z0": _Input(_parse_z0, lambda n, k: (0.0, 1.0)),
}


def cmd_simulate(args) -> int:
    file_cfg = _load_config_file(args.config, _CONFIG_KEYS) if args.config is not None else {}
    process = _resolve(args, file_cfg, "process", str, None)
    if process is None:
        raise ConfigError("simulate needs --process (or process= in the config file)")
    if process not in _PROCESSES:
        raise ConfigError(f"unknown process {process!r}; choose from {', '.join(PROCESSES)}")
    row = _PROCESSES[process]
    _reject_unread(args, f"--process {process}",
                   [flag for flag in _PROCESS_FLAGS if flag not in row.reads], file_cfg)
    # each input flag given is parsed once (unread ones are rejected above); a
    # start's shape sets the sizes it spans, and a size that disagrees is an error
    size = {"n": _resolve(args, file_cfg, "n", int, None),
            "k": _resolve(args, file_cfg, "k", int, None)}
    texts = {flag: getattr(args, flag) for flag in _INPUTS if getattr(args, flag) is not None}
    opts = {}
    for flag, text in texts.items():
        axes = _INPUTS[flag].sizes
        try:
            opts[flag] = _INPUTS[flag].parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad --{flag} {text!r}: {exc}") from exc
        shape = np.shape(opts[flag])[:len(axes)]
        for axis, dim in zip(axes, shape):
            if size[axis] is None:
                size[axis] = dim
        asked = tuple(size[axis] for axis in axes)
        if asked != shape:  # named as 4x3 for a matrix, k=3 for a vector
            have, want = ("x".join(map(str, s)) if len(s) > 1 else f"{axes[0]}={s[0]}"
                          for s in (shape, asked))
            raise ConfigError(f"--{flag} {text} is {have}, but the sizes ask for {want}")
    files = {flag: text for flag, text in texts.items() if flag in _PATH_FLAGS}
    n = 2 if size["n"] is None else size["n"]
    k = (n if row.wide_k else 1) if size["k"] is None else size["k"]
    t_end = _resolve(args, file_cfg, "t", float, 1.0)
    dt = _resolve(args, file_cfg, "dt", float, 1e-3)
    n_paths = _resolve(args, file_cfg, "paths", int, 1)
    seed = _resolve(args, file_cfg, "seed", int, 0)
    stream = _resolve(args, file_cfg, "stream", int, 0)
    out_dir = _resolve(args, file_cfg, "out", str, None)
    if out_dir is None:
        raise ConfigError("simulate needs --out DIR")
    if k > n:
        raise ConfigError(f"need k <= n; got n={n}, k={k}")
    for flag in row.reads:
        if flag in _INPUTS and flag not in opts:
            opts[flag] = _INPUTS[flag].default(n, k)

    cfg = ProcessConfig(t_end=t_end, dt=dt, seed=seed, stream=stream)
    try:
        grid = cfg.grid()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        problem = row.problem(n, k, opts)
    except ValueError as exc:
        given = "".join(f" --{flag} {path}" for flag, path in files.items())
        raise ConfigError(f"--process {process}{given}: {exc}") from exc
    inputs = {flag: FsPath(path).read_bytes() for flag, path in files.items()}

    # each path's CSV is written when the path ends; only the stop records
    # and the paths that plot.svg draws are kept
    out = _out_dir(out_dir)
    emit = emit_eigen_csv if row.kind == "eigen" else emit_csv
    outputs = [f"path_{p:04d}.csv" for p in range(n_paths)]
    stopped, plotted = [], []
    count = int(np.prod(problem.noise_shape))
    for chunk, noise in path_chunks(cfg.source(), n_paths, count, grid.steps):
        for p in chunk:
            try:
                path = integrate(problem, grid, noise, p)
                if row.image is not None:
                    path = dataclasses.replace(path, states=row.image(path.states, k, opts))
                _write(out / outputs[p], lambda fh: emit(path.times, path.states, fh))
            except (ValueError, FloatingPointError, MemoryError, RunError) as exc:
                raise RunError(f"simulate failed at path {p}: {exc}") from exc
            if path.stopped:
                stopped.append({"path": p, "step": path.stopped_step,
                                "reason": path.stop_reason})
            if args.svg and p < 8:
                plotted.append(path)
    if args.svg:
        times, series = _svg_series(process, row.kind, n, plotted)
        _write(out / "plot.svg", lambda fh: emit_svg(times, series, fh, title=process))
        outputs.append("plot.svg")

    config = {"subcommand": "simulate", "process": process, "n": n, "k": k,
              "t": t_end, "dt": dt, "paths": n_paths, "seed": seed,
              "stream": stream, "svg": bool(args.svg), "route": opts.get("route"),
              "stopped": stopped}
    manifest = build_manifest(config, inputs=inputs, outputs=outputs)
    _write(out / "manifest.json", lambda fh: write_manifest(manifest, fh))
    for item in stopped:
        print(f"note: path {item['path']} stopped at step {item['step']}: {item['reason']}")
    print(f"wrote {len(outputs)} artifact(s) to {out}")
    return 0


def cmd_drift(args) -> int:
    _reject_unread(args, f"drift --which {args.which}", () if args.which == "J-R" else ("R",))
    p = _read_matrix(args.input)
    try:
        require_spd(p)
        if args.which == "spectral":
            j = drift_J_spectral(p)
        elif args.which == "gradient":
            j = drift_J_gradient(sqrtm_spd(p))
        else:
            if args.R is None:
                raise ConfigError("drift --which J-R needs --R R.csv")
            j = drift_J_R(p, _read_metric(args.R, args.input, p))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                write_matrix_csv(j, fh)
        except OSError as exc:
            raise _unwritable(args.out, exc) from exc
        print(f"wrote {args.out}")
    else:
        write_matrix_csv(j, sys.stdout)
    return 0


def cmd_verify(args) -> int:
    _reject_unread(args, f"verify --suite {args.suite}",
                   () if args.suite == "constants" else ("out",))
    seed = _resolve(args, {}, "seed", int, None)
    kwargs = {} if seed is None else {"seed": seed}
    out = None if args.out is None else _out_dir(args.out)
    result, report = run_suite(args.suite, **kwargs)
    if report is not None:
        for line in report.lines():
            print(line)
        if out is not None:
            _write(out / "constants_report.json", lambda fh: fh.write(report.to_json() + "\n"))
            print(f"wrote {out / 'constants_report.json'}")
    for line in result.lines():
        print(line)
    return 0 if result.passed else 1


def cmd_control(args) -> int:
    try:
        schedule = load_schedule(args.schedule)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.schedule}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc
    p0 = _read_matrix(args.P0)
    try:
        check_control_inputs(p0, schedule, args.substeps)
    except ValueError as exc:
        raise ConfigError(f"--schedule {args.schedule} --P0 {args.P0}: {exc}") from exc
    out = _out_dir(args.out)
    try:
        path = integrate_control(p0, schedule, substeps=args.substeps)
    except (ValueError, MemoryError) as exc:
        raise RunError(f"control failed at --substeps {args.substeps}: {exc}") from exc
    _write(out / "trajectory.csv", lambda fh: emit_csv(path.times, path.states, fh))
    loewner_min = float(np.linalg.eigvalsh(np.diff(path.states, axis=0))[:, 0].min())
    config = {"subcommand": "control", "schedule": args.schedule,
              "substeps": args.substeps, "segments": len(schedule.segments),
              "duration": schedule.total_duration, "loewner_min": loewner_min}
    inputs = {"schedule": FsPath(args.schedule).read_bytes(),
              "P0": FsPath(args.P0).read_bytes()}
    manifest = build_manifest(config, inputs=inputs, outputs=["trajectory.csv"])
    _write(out / "manifest.json", lambda fh: write_manifest(manifest, fh))
    print(f"integrated {len(schedule.segments)} segment(s), "
          f"duration {schedule.total_duration:g}, "
          f"min increment eigenvalue {loewner_min:.3e}")
    print(f"wrote artifacts to {out}")
    return 0


def _print_qv(name: str, mean: np.ndarray, se: np.ndarray) -> None:
    print(f"{name}:")
    for row_m, row_s in zip(np.atleast_2d(mean), np.atleast_2d(se)):
        print("  " + "  ".join(f"{m:+.6f}(se {s:.1e})" for m, s in zip(row_m, row_s)))


def cmd_oracle(args) -> int:
    if args.target == "qv":
        kind = args.kind or "wiener"
        _reject_unread(args, "oracle --target qv", ("input", "R"))
        _reject_unread(args, f"oracle --kind {kind}", () if kind == "wiener" else ("k",))
        n = _resolve(args, {}, "n", int, 2)
        k = _resolve(args, {}, "k", int, n)
        dt = _resolve(args, {}, "dt", float, 1e-3)
        samples = _resolve(args, {}, "samples", int, 4000)
        seed = _resolve(args, {}, "seed", int, 0)
        try:
            diffusion, state, shape = qv_kind(kind, n, k)
        except ValueError as exc:
            raise ConfigError(f"oracle --kind {kind}: {exc}") from exc
        est = qv_oracle(diffusion, state, shape, dt, samples, seed=seed)
        k_field = f" k={k}" if kind == "wiener" else ""
        print(f"qv oracle: kind={kind} n={n}{k_field} dt={dt:g} samples={samples}")
        _print_qv("E[dX dX^T]/dt", est.outer, est.outer_se)
        _print_qv("E[dX^T dX]/dt", est.inner, est.inner_se)
        if est.square is not None:
            _print_qv("E[dX dX]/dt", est.square, est.square_se)
        return 0
    # fd-gradient of the orbit log-volume at M
    _reject_unread(args, "oracle --target fd-gradient",
                   ("kind", "n", "k", "samples", "dt", "seed"))
    if args.input is None:
        raise ConfigError("oracle --target fd-gradient needs --input M.csv")
    m = _read_matrix(args.input)
    metric = _read_metric(args.R, args.input, m) if args.R is not None else None
    try:
        grad = fd_gradient(lambda x: orbit_log_volume(x, metric), m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_matrix_csv(grad, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orbitflow",
        description="Matrix-manifold diffusion simulator and verification toolkit.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="integrate a named process and write CSV paths")
    sim.add_argument("--process", choices=PROCESSES, default=None)
    sim.add_argument("--n", type=int, default=None, help="ambient dimension")
    sim.add_argument("--k", type=int, default=None,
                     help="factor width / subspace dimension / number of eigenvalues")
    sim.add_argument("--t", type=float, default=None, help="end time")
    sim.add_argument("--dt", type=float, default=None, help="step size")
    sim.add_argument("--paths", type=int, default=None, help="number of paths")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--stream", type=int, default=None, help="noise substream")
    sim.add_argument("--out", default=None, help="output directory")
    sim.add_argument("--svg", action="store_true", help="also write plot.svg")
    sim.add_argument("--config", default=None, help="key=value config file; flags win")
    sim.add_argument("--route", choices=("pushforward", "ito"), default=None,
                     help="grassmann integration route (default pushforward)")
    sim.add_argument("--reproject", action="store_true", default=None,
                     help="on-bm only; no effect: every on-bm step stays on O(n) to rounding")
    sim.add_argument("--P0", default=None, help="initial SPD matrix CSV (bw-bm)")
    sim.add_argument("--M0", default=None, help="initial factor CSV (vertical-bm)")
    sim.add_argument("--lam0", default=None, help="initial eigenvalues, comma separated; sets k")
    sim.add_argument("--z0", default=None, help="half-plane start x,y (poincare)")
    sim.set_defaults(fn=cmd_simulate)

    dr = sub.add_parser("drift", help="evaluate the quotient drift field on a matrix")
    dr.add_argument("--which", choices=("spectral", "gradient", "J-R"), required=True)
    dr.add_argument("--input", required=True, help="SPD matrix CSV")
    dr.add_argument("--R", default=None, help="metric matrix CSV (J-R)")
    dr.add_argument("--out", default=None, help="output CSV file (default stdout)")
    dr.set_defaults(fn=cmd_drift)

    ver = sub.add_parser("verify", help="run a self-check suite")
    ver.add_argument("--suite", choices=SUITE_NAMES, required=True)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--out", default=None,
                     help="directory for the constants report JSON")
    ver.set_defaults(fn=cmd_verify)

    ctl = sub.add_parser("control", help="integrate a piecewise-constant metric schedule")
    ctl.add_argument("--schedule", required=True, help="schedule file")
    ctl.add_argument("--P0", required=True, help="initial SPD matrix CSV")
    ctl.add_argument("--out", required=True, help="output directory")
    ctl.add_argument("--substeps", type=int, default=64)
    ctl.set_defaults(fn=cmd_control)

    orc = sub.add_parser("oracle", help="quadratic-variation and gradient oracles")
    orc.add_argument("--target", choices=("qv", "fd-gradient"), required=True)
    orc.add_argument("--kind", choices=QV_KINDS, help="default wiener")
    orc.add_argument("--n", type=int, default=None)
    orc.add_argument("--k", type=int, default=None)
    orc.add_argument("--dt", type=float, default=None, help="qv step (default 1e-3)")
    orc.add_argument("--samples", type=int, default=None, help="qv samples (default 4000)")
    orc.add_argument("--seed", type=int, default=None, help="qv seed (default 0)")
    orc.add_argument("--input", default=None, help="matrix CSV (fd-gradient)")
    orc.add_argument("--R", default=None, help="metric matrix CSV")
    orc.set_defaults(fn=cmd_oracle)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for flag in _PATH_FLAGS:
            if getattr(args, flag, None) == "":
                raise ConfigError(f"--{flag} is an empty path; give a path or leave the flag out")
        return args.fn(args)
    except (ConfigError, RunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
