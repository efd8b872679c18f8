"""The benchmark's workloads: generated inputs, the CLI calls of one pass,
and the checks that the outputs of those calls are right.

Every input is a function of the workload seed, which the program receives
only as `--seed` and through the generated input files.  Each check returns
(name, ok, detail) and its tolerance carries the reason it is what it is.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Monte Carlo checks accept |mean - expected| <= Z_TOL standard errors: under
# the central limit theorem a correct program misses that by chance with
# probability 6e-5 per check, and a wrong drift constant misses it at once.
Z_TOL = 4.0

FANOUT_PATHS = 200
FANOUT_T, FANOUT_DT = 0.1, 1e-3
FIBER_PATHS = 2
FIBER_T, FIBER_DT = 1.0, 1e-3
SUITES = ("constants", "invariants", "eigen-consistency", "mcf-match", "control")


@dataclass(frozen=True)
class Call:
    label: str
    argv: tuple
    out: str | None = None       # output directory, relative to the work dir
    inputs: tuple = ()           # (manifest input name, file) pairs


def blob_hash(data: bytes) -> str:
    """Git blob hash, the convention README gives for manifest hashes."""
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def fmt(x: float) -> str:
    return "%.17g" % x


def _write_matrix(path: Path, mat: np.ndarray) -> None:
    path.write_text("".join(",".join(fmt(v) for v in row) + "\n" for row in mat))


def _rotation(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# --- inputs and calls --------------------------------------------------------

def make_inputs(workload: str, seed: int, inputs: Path) -> dict:
    """Write the workload's input files under `inputs`; return values that
    the calls and checks need (matrices as written, eigenvalues)."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload != "fiber-kernels":
        return {}
    rng = np.random.default_rng(seed)
    # full-rank 4x3 factor with singular values in [1, 2]: far from the
    # rank guard of vertical-bm
    m0 = (_rotation(rng, 4)[:, :3] * rng.uniform(1.0, 2.0, 3)) @ _rotation(rng, 3).T
    # eigenvalues near 80, 40, 20: the smallest spectral value behaves like
    # a squared Bessel process of dimension about 1, which would hit the
    # rank guard within t = 1 from a start near 1 but not from one near 20
    lam = np.array([80.0, 40.0, 20.0]) * np.exp(rng.uniform(-0.1, 0.1, 3))
    q = _rotation(rng, 3)
    p0 = (q * lam) @ q.T
    p0 = 0.5 * (p0 + p0.T)
    lam0 = np.sort(np.array([80.0, 40.0, 20.0]) * np.exp(rng.uniform(-0.1, 0.1, 3)))[::-1]
    _write_matrix(inputs / "M0.csv", m0)
    _write_matrix(inputs / "P0.csv", p0)
    return {"M0": np.array([[float(fmt(v)) for v in row] for row in m0]),
            "P0": np.array([[float(fmt(v)) for v in row] for row in p0]),
            "lam0": [float(fmt(v)) for v in lam0]}


def calls(workload: str, seed: int, values: dict) -> list:
    s = str(seed)
    if workload == "paths-fanout":
        common = ("--t", str(FANOUT_T), "--dt", str(FANOUT_DT),
                  "--paths", str(FANOUT_PATHS), "--seed", s)
        return [
            Call("wishart", ("simulate", "--process", "wishart", "--n", "3", "--k", "2")
                 + common + ("--out", "out/wishart"), "out/wishart"),
            Call("sphere-vertical", ("simulate", "--process", "sphere-vertical", "--n", "3",
                                     "--svg") + common + ("--out", "out/sphere-vertical"),
                 "out/sphere-vertical"),
            Call("cartan-hadamard", ("simulate", "--process", "cartan-hadamard", "--n", "3")
                 + common + ("--out", "out/cartan-hadamard"), "out/cartan-hadamard"),
        ]
    if workload == "fiber-kernels":
        common = ("--t", str(FIBER_T), "--dt", str(FIBER_DT),
                  "--paths", str(FIBER_PATHS), "--seed", s)
        spec = [
            ("vertical-bm", ("--M0", "inputs/M0.csv"), (("M0", "inputs/M0.csv"),)),
            ("on-bm", ("--n", "4", "--reproject"), ()),
            ("grassmann", ("--n", "4", "--k", "2"), ()),
            ("bw-bm", ("--n", "3", "--P0", "inputs/P0.csv"), (("P0", "inputs/P0.csv"),)),
            ("eigen-bw", ("--n", "3", "--k", "3",
                          "--lam0", ",".join(fmt(v) for v in values["lam0"])), ()),
        ]
        return [Call(name, ("simulate", "--process", name) + flags + common
                     + ("--out", f"out/{name}"), f"out/{name}", inputs)
                for name, flags, inputs in spec]
    if workload == "verify-suites":
        out = []
        for suite in SUITES:
            extra = ("--out", "out/constants") if suite == "constants" else ()
            out.append(Call(suite, ("verify", "--suite", suite, "--seed", s) + extra,
                            "out/constants" if extra else None))
        return out
    raise ValueError(f"unknown workload {workload!r}")


# --- simulate outputs --------------------------------------------------------

def _read_csv(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def check_simulate(call: Call, values: dict, work: Path):
    """Manifest hashes, CSV row counts against steps and `stopped`, exact
    time column, then the process-specific checks.  Returns (checks,
    completed path-steps)."""
    out = work / call.out
    checks = []
    man = json.loads((out / "manifest.json").read_text())
    cfg = man["config"]
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    checks.append(("manifest config hash", man["config_hash"] == blob_hash(canon),
                   man["config_hash"]))
    want_inputs = {name: blob_hash((work / file).read_bytes()) for name, file in call.inputs}
    checks.append(("manifest input hashes", man["inputs"] == want_inputs,
                   json.dumps(man["inputs"], sort_keys=True)))
    files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    checks.append(("manifest output list", man["outputs"] == files,
                   f"{len(files)} files"))
    argv = dict(zip(call.argv, call.argv[1:]))
    echo = (cfg["process"] == argv["--process"] and cfg["paths"] == int(argv["--paths"])
            and cfg["seed"] == int(argv["--seed"]) and cfg["t"] == float(argv["--t"])
            and cfg["dt"] == float(argv["--dt"]))
    checks.append(("manifest echoes the flags", echo, f"process {cfg['process']}"))

    steps = max(int(round(cfg["t"] / cfg["dt"])), 1)
    stopped = {e["path"]: e["step"] for e in cfg["stopped"]}
    paths = []
    bad_rows = []
    for p in range(cfg["paths"]):
        header, data = _read_csv(out / f"path_{p:04d}.csv")
        rows = stopped.get(p, steps) + 1
        times = 0.0 + cfg["dt"] * np.arange(rows)
        if data.shape[0] != rows or not np.array_equal(data[:, 0], times) \
                or header[0] != "t" or len(header) != data.shape[1]:
            bad_rows.append(p)
        paths.append(data[:, 1:])
    checks.append(("csv rows match steps and stopped", not bad_rows,
                   f"{steps} steps, {len(stopped)} stopped, bad paths {bad_rows[:5]}"))
    path_steps = sum(x.shape[0] - 1 for x in paths)
    if not bad_rows:
        checks.extend(PROCESS_CHECKS[call.label](paths, stopped, cfg, values, out))
    return checks, path_steps


def _mean_check(name, samples, expected, bias=0.0):
    """|mean - expected| <= Z_TOL SE + bias, bias being the exact gap between
    the scheme's discrete expectation and the continuous closed form."""
    n = samples.shape[0]
    mean = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(n)
    gap = abs(mean - expected)
    return (name, gap <= Z_TOL * se + bias,
            f"mean {mean:.6g} vs {expected:.6g}: {gap / se:.2f} SE "
            f"(tol {Z_TOL:g} SE + bias {bias:.2g}, n={n})")


def _final(paths, stopped):
    return np.stack([x[-1] for p, x in enumerate(paths) if p not in stopped])


def _matrices(x: np.ndarray) -> np.ndarray:
    n = int(round(math.sqrt(x.shape[1])))
    return x.reshape(x.shape[0], n, n)


def _wishart(paths, stopped, cfg, values, out):
    # W0 = I_{3x2}, so E[tr W W^T] = tr W0 W0^T + n k t = 2 + 6t, exactly for
    # the cumulative-increment scheme
    tr = np.trace(_matrices(_final(paths, stopped)), axis1=1, axis2=2)
    return [_mean_check("E[tr W W^T] = tr W0W0^T + nkt", tr, 2.0 + 6.0 * cfg["t"])]


def _sphere(paths, stopped, cfg, values, out):
    # E[S_t] = 1 + (n-1) t; the Euler step adds |dw|^2 - (x.dw)^2/|x|^2,
    # whose mean is (n-1) dt, so the scheme is exact in expectation
    s = np.sum(_final(paths, stopped) ** 2, axis=1)
    svg = (out / "plot.svg").read_text()
    return [_mean_check("sphere E[S_t] = 1 + (n-1)t", s, 1.0 + 2.0 * cfg["t"]),
            ("plot.svg written", svg.startswith("<svg") and svg.rstrip().endswith("</svg>"),
             f"{len(svg)} bytes")]


def _cartan(paths, stopped, cfg, values, out):
    # Euler: E[tr G'G'^T] = ((1 + dt/2)^2 + n dt) E[tr G G^T] per step, so the
    # scheme's mean after N steps differs from n e^{(n+1)t} by a known bias
    n, dt = 3, cfg["dt"]
    steps = int(round(cfg["t"] / dt))
    exact = n * math.exp((n + 1) * cfg["t"])
    discrete = n * ((1.0 + 0.5 * dt) ** 2 + n * dt) ** steps
    tr = np.trace(_matrices(_final(paths, stopped)), axis1=1, axis2=2)
    return [_mean_check("E[tr G G^T] = n e^{(n+1)t}", tr, exact, abs(discrete - exact))]


def _all_rows(paths) -> np.ndarray:
    return _matrices(np.concatenate(paths))


def _vertical(paths, stopped, cfg, values, out):
    m0 = values["M0"]
    im = _all_rows(paths)
    first = max(float(np.abs(x[0] - (m0 @ m0.T).ravel()).max()) for x in paths)
    # the image X X^T is formed entrywise from the same products in both
    # orders, so it is symmetric bit for bit; its first row is M0 M0^T up to
    # the summation order of a 3-term dot product
    return [("image X X^T symmetric", np.array_equal(im, im.transpose(0, 2, 1)),
             f"{im.shape[0]} states"),
            ("image starts at M0 M0^T", first <= 1e-14 * float(np.abs(m0 @ m0.T).max()),
             f"max gap {first:.2e}")]


# guard tolerance of on-bm and grassmann (guard_tol default in processes)
ORTH_GUARD = 1e-2


def _on_bm(paths, stopped, cfg, values, out):
    q = _all_rows(paths)
    n = q.shape[1]
    defect = float(np.linalg.norm(np.transpose(q, (0, 2, 1)) @ q - np.eye(n),
                                  axis=(1, 2)).max())
    return [("orthogonality defect within guard", defect <= ORTH_GUARD,
             f"max |Q^T Q - I|_F = {defect:.2e} (guard {ORTH_GUARD:g})")]


def _grassmann(paths, stopped, cfg, values, out):
    # P = Q_k Q_k^T with |Q^T Q - I|_F <= d gives |P^2 - P|_F <= (1 + d) d and
    # |tr P - k| <= sqrt(k) d
    k = 2
    p = _all_rows(paths)
    proj = float(np.linalg.norm(p @ p - p, axis=(1, 2)).max())
    tr = float(np.abs(np.trace(p, axis1=1, axis2=2) - k).max())
    return [("projector defect within guard",
             proj <= (1 + ORTH_GUARD) * ORTH_GUARD and tr <= math.sqrt(k) * ORTH_GUARD,
             f"max |P^2 - P|_F = {proj:.2e}, max |tr P - k| = {tr:.2e}")]


def _bw(paths, stopped, cfg, values, out):
    p = _all_rows(paths)
    w = np.linalg.eigvalsh(p)
    # the rank guard stops a path before lambda_min <= 1e-8 lambda_max;
    # post_step symmetrizes, which is exact in floating point
    ratio = float((w[:, 0] / w[:, -1]).min())
    start = all(np.array_equal(x[0], values["P0"].ravel()) for x in paths)
    return [("bw-bm states SPD", np.array_equal(p, p.transpose(0, 2, 1)) and ratio > 1e-8,
             f"min lambda_min/lambda_max = {ratio:.3e} (guard 1e-8)"),
            ("bw-bm starts at P0", start, "first row equals the --P0 file")]


def _eigen(paths, stopped, cfg, values, out):
    lam = np.concatenate(paths)
    gap = float((-np.diff(lam, axis=1)).min())
    low = float(lam[:, -1].min())
    start = all(np.array_equal(x[0], values["lam0"]) for x in paths)
    # spectrum guard floors: gaps > 1e-10 and lambda_k > 1e-12
    return [("eigen-bw strictly ordered", gap > 1e-10 and low > 1e-12,
             f"min gap {gap:.3e}, min eigenvalue {low:.3e}"),
            ("eigen-bw starts at --lam0", start, "first row equals --lam0")]


PROCESS_CHECKS = {"wishart": _wishart, "sphere-vertical": _sphere,
                  "cartan-hadamard": _cartan, "vertical-bm": _vertical,
                  "on-bm": _on_bm, "grassmann": _grassmann, "bw-bm": _bw,
                  "eigen-bw": _eigen}


# --- verify outputs ----------------------------------------------------------

def check_verify(call: Call, rc: int, stdout: str, work: Path):
    """The suite verdict must agree with the exit code and the check lines.
    Returns (benchmark checks, names of checks the suite itself FAILED)."""
    lines = stdout.splitlines()
    marks = [ln for ln in lines if ln.startswith("[pass] ") or ln.startswith("[FAIL] ")]
    failed = [ln[len("[FAIL] "):] for ln in marks if ln.startswith("[FAIL] ")]
    verdict = lines[-1] if lines else ""
    passed = verdict.startswith(f"suite {call.label}: PASSED")
    want = f"({len(marks) - len(failed)}/{len(marks)} checks)"
    checks = [("verdict line consistent",
               verdict.endswith(want) and passed == (not failed)
               and (passed or verdict.startswith(f"suite {call.label}: FAILED"))
               and rc == (0 if passed else 1), verdict)]
    if call.label == "constants":
        report = json.loads((work / call.out / "constants_report.json").read_text())
        diverging = sum(e["verdict"] == "diverges" for e in report["entries"])
        checks.append(("constants report consistent",
                       report["divergence_count"] == diverging and len(report["entries"]) == 5,
                       f"{diverging} divergent entries"))
    return checks, failed
