"""Layered benchmark for orbitflow.

Drives the public CLI in-process (`orbitflow.cli.main`) from one process,
with ORBITFLOW_THREADS unset (the user default of one worker), on one of
three workloads, and checks every output.  Usage, from the repository root:

    python3 perfbench/run.py --workload paths-fanout --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

A run times repeated passes over the workload's CLI calls for `--seconds`
seconds.  With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics from the traced ones.  The last line of standard output is
one JSON object {correct, attempted, failed, metrics}; attempted counts the
workload's distinct CLI calls once each, so it and failed depend only on the
seed and the code.  Everything the run writes goes under `.perfbench/` in the
repository root.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("paths-fanout", "fiber-kernels", "verify-suites")
SETUP_SAMPLES = 3
IMPORT_CMD = "import sys; sys.path.insert(0, 'src'); import orbitflow.cli"


# --- environment ------------------------------------------------------------

def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _blas(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(threads_seen) -> dict:
    import scipy
    src = sorted((ROOT / "src" / "orbitflow").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "ORBITFLOW_THREADS": threads_seen,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in src),
        "loadavg_start": _loadavg(),
    }


# --- set-up -----------------------------------------------------------------

def measure_setup(workload: str, seed: int, work: Path) -> tuple:
    """Median over SETUP_SAMPLES of (fresh interpreter importing orbitflow.cli
    + input generation).  One unmeasured import first compiles the bytecode
    cache, which a user pays once per install, not per run."""
    subprocess.run([sys.executable, "-c", IMPORT_CMD], cwd=ROOT, check=True)
    samples = []
    values = None
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CMD], cwd=ROOT, check=True)
        shutil.rmtree(work / "inputs", ignore_errors=True)
        values = workloads.make_inputs(workload, seed, work / "inputs")
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples, values


# --- one pass ---------------------------------------------------------------

def run_pass(cli, calls: list, work: Path) -> list:
    """Run every call of the workload once; returns per call
    (rc, wall seconds, stdout, stderr, digest, CPU seconds)."""
    for call in calls:
        if call.out:
            shutil.rmtree(work / call.out, ignore_errors=True)
    results = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(call.argv))
        except Exception:  # a crash is a failed call, reported with its traceback
            rc = None
            err.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        results.append((rc, wall, out.getvalue(), err.getvalue(),
                        digest(call, rc, out.getvalue(), work), cpu))
    return results


def digest(call, rc, stdout: str, work: Path) -> str:
    """sha256 over the call's exit code, standard output and every output
    file; stderr is left out because warnings carry source paths."""
    h = hashlib.sha256()
    h.update(f"{call.label}\0{rc}\0{stdout}\0".encode())
    if call.out and (work / call.out).is_dir():
        for p in sorted((work / call.out).rglob("*")):
            if p.is_file():
                data = p.read_bytes()
                h.update(f"{p.relative_to(work)}\0{len(data)}\0".encode())
                h.update(data)
    return h.hexdigest()


def output_bytes(calls: list, work: Path) -> int:
    return sum(p.stat().st_size for call in calls if call.out
               for p in (work / call.out).rglob("*") if p.is_file())


# --- checks -----------------------------------------------------------------

def check_first_pass(calls, results, values, work, counted):
    """Full output checks on the first pass.  Returns (per-call ok flags,
    check records, suite failures, path-steps of one pass)."""
    records, suite_failures, ok = [], [], []
    path_steps = 0
    for call, (rc, _, stdout, stderr, *_) in zip(calls, results):
        if rc is None or (call.argv[0] == "simulate" and rc != 0):
            checks = [("exit status", False, f"rc={rc}: {stderr.strip()[-300:]}")]
        elif call.argv[0] == "simulate":
            try:
                checks, steps = workloads.check_simulate(call, values, work)
            except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
                checks, steps = [("outputs readable", False, repr(exc))], 0
            path_steps += steps
        else:
            try:
                checks, failed = workloads.check_verify(call, rc, stdout, work)
            except (OSError, KeyError, json.JSONDecodeError) as exc:
                checks, failed = [("outputs readable", False, repr(exc))], []
            suite_failures += [f"verify/{call.label}: {name}" for name in failed]
        ok_call = all(c[1] for c in checks) and rc == 0
        ok.append(ok_call)
        records += [{"call": call.label, "check": name, "ok": bool(good), "detail": detail}
                    for name, good, detail in checks]
    if calls[0].argv[0] == "simulate":
        # the manifests' count must agree with the integrator's own
        agree = path_steps == counted["sde.path_steps"]
        records.append({"call": "*", "check": "manifest path-steps = integrated path-steps",
                        "ok": agree, "detail": f"{path_steps} vs {counted['sde.path_steps']}"})
    else:
        path_steps = counted["sde.path_steps"] + counted["ensembles.path_steps"]
    return ok, records, suite_failures, path_steps


# --- metrics ----------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def layer_metrics(summary: dict, counts, bytes_written: int) -> dict:
    def get(name, key="self_s"):
        return summary.get(name, {}).get(key, 0)

    m = {"sde.noise.self_s": get("sde.noise"),
         "sde.noise.calls": get("sde.noise", "calls"),
         "sde.noise.useful_ratio": (counts["noise.words_returned"] / counts["noise.words_generated"]
                                    if counts["noise.words_generated"] else 1.0),
         "sde.integrate.self_s": get("sde.integrate"),
         "sde.path_steps": counts["sde.path_steps"],
         "sde.qv_oracle.self_s": get("sde.qv_oracle")}
    for field in tracing.STEP_FIELDS:
        m[f"processes.{field}.self_s"] = get(f"processes.{field}")
    m["processes.guard.calls"] = get("processes.guard", "calls")
    m["processes.guard.trips"] = counts["processes.guard.trips"]
    m["processes.mcf_ode.self_s"] = get("processes.mcf_ode")
    for fn in ("vertical_project", "drift_J_spectral", "drift_J_R"):
        m[f"geom.{fn}.self_s"] = get(f"geom.{fn}")
        m[f"geom.{fn}.calls"] = get(f"geom.{fn}", "calls")
    m["geom.MetricR.init.calls"] = get("geom.MetricR.init", "calls")
    for fn in ("eigh_desc", "require_symmetric", "solve_lyapunov", "sqrtm_spd"):
        m[f"matcore.{fn}.self_s"] = get(f"matcore.{fn}")
        m[f"matcore.{fn}.calls"] = get(f"matcore.{fn}", "calls")
    m["ensembles.path_steps"] = counts["ensembles.path_steps"]
    for fn in ("integrate_control", "alpha", "reach_probe"):
        m[f"control.{fn}.self_s"] = get(f"control.{fn}")
    m["reporting.emit_csv.self_s"] = get("reporting.emit_csv")
    m["reporting.emit_csv.rows"] = counts["reporting.emit_csv.rows"]
    m["reporting.bytes_written"] = bytes_written
    m["reporting.emit_svg.self_s"] = get("reporting.emit_svg")
    m["reporting.manifest.self_s"] = get("reporting.manifest")
    for suite in workloads.SUITES:
        m[f"verify.{suite}.wall_s"] = get(f"verify.{suite}", "total_s")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in summary.items()
                                   if k.split(".", 1)[0] == layer)
    return m


# --- one run ----------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    threads_seen = os.environ.pop("ORBITFLOW_THREADS", None)
    env = environment(threads_seen)
    work = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s, setup_samples, values = measure_setup(workload, seed, work)

    sys.path.insert(0, str(ROOT / "src"))
    import orbitflow.cli as cli
    calls = workloads.calls(workload, seed, values)
    os.chdir(work)
    here = Path(".")

    # first pass: untimed; counts path-steps and gets the full output checks
    counter = tracing.Tracer(full=False)
    counter.install()
    try:
        first = run_pass(cli, calls, here)
    finally:
        counter.uninstall()
    ok, records, suite_failures, path_steps = check_first_pass(
        calls, first, values, here, counter.counts)
    reference = [r[4] for r in first]
    bytes_written = output_bytes(calls, here)

    # An operation is one CLI call of the workload, counted once however many
    # timed passes repeat it: the repeats exist to time it, so how many fit
    # in `--seconds` must not change attempted or failed.  A call fails if
    # its first pass fails a check or a FAILED suite, or if any repeat's
    # output differs from the first pass byte for byte.
    mismatches = []
    differs = set()

    def account(results, kind):
        for i, (call, ref, res) in enumerate(zip(calls, reference, results)):
            if res[4] != ref:
                differs.add(i)
                mismatches.append(f"{kind} pass: {call.label} differs from the first pass")

    walls, cpus, traced_walls, layer_runs = [], [], [], []
    spans = None
    t_start = time.perf_counter()
    while True:
        results = run_pass(cli, calls, here)
        account(results, "untraced")
        walls.append(sum(r[1] for r in results))
        cpus.append(sum(r[5] for r in results))
        if trace:
            tr = tracing.Tracer()
            tr.install()
            try:
                results = run_pass(cli, calls, here)
            finally:
                tr.uninstall()
            account(results, "traced")
            traced_walls.append(sum(r[1] for r in results))
            layer_runs.append(layer_metrics(tr.summary(), tr.counts, bytes_written))
            if spans is None:
                spans = tr
        if time.perf_counter() - t_start >= seconds:
            break

    attempted = len(calls)
    failed = sum(not good or i in differs for i, good in enumerate(ok))
    checks_ok = all(r["ok"] for r in records) and not mismatches
    env["loadavg_end"] = _loadavg()
    wall = statistics.median(walls)
    rates = [path_steps / w for w in walls]
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "path_steps_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    result = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
              "passes": len(walls), "pass_walls_s": walls, "pass_cpu_s": cpus, "setup_samples_s": setup_samples,
              "path_steps_per_pass": path_steps, "artifact_digest": _run_digest(reference),
              "ops_failed_ratio": failed / attempted, "attempted": attempted,
              "failed": failed, "checks": records, "suite_failures": suite_failures,
              "mismatches": mismatches, "environment": env,
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}}
    if trace:
        per_layer = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        per_layer["trace.wall_s"] = statistics.median(traced_walls)
        per_layer["trace.overhead_ratio"] = per_layer["trace.wall_s"] / wall
        result["per_layer"] = per_layer
        spans_file = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.json"
        spans.write(spans_file)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    (ROOT / ".perfbench" / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")

    report(result, e2e, checks_ok, walls)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": checks_ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _run_digest(call_digests) -> str:
    return hashlib.sha256("".join(call_digests).encode()).hexdigest()


def report(result, e2e, checks_ok, walls) -> None:
    q1, q3 = _quartiles(walls)
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
          f"{len(walls)} timed passes, wall q1 {q1:.4f} s, q3 {q3:.4f} s")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<18} {value:.6g} {unit}")
    print(f"  {'ops_failed_ratio':<18} {result['ops_failed_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']} CLI calls)")
    bad = [r for r in result["checks"] if not r["ok"]]
    print(f"  output checks: {'PASS' if checks_ok else 'FAIL'} "
          f"({len(result['checks']) - len(bad)}/{len(result['checks'])})")
    for r in bad:
        print(f"    FAILED {r['call']}: {r['check']}: {r['detail']}")
    for m in result["mismatches"][:5]:
        print(f"    FAILED {m}")
    for name in result["suite_failures"]:
        print(f"  suite check FAILED: {name}")
    print(f"  artifact digest: {result['artifact_digest']}")
    if "per_layer" in result:
        pl = result["per_layer"]
        layers = sorted(((pl[f"{layer}.self_s"], layer) for layer in tracing.LAYERS),
                        reverse=True)
        print("  self time by layer: " + ", ".join(f"{name} {v:.3f} s" for v, name in layers))
        print(f"  trace.overhead_ratio {pl['trace.overhead_ratio']:.4f}")
    env = result["environment"]
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run each workload in its own interpreter, so that peak memory and
    set-up stay per workload, and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    for needed in (ROOT / "src" / "orbitflow" / "cli.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full "
                  f"checkout of the repository", file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
