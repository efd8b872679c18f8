"""Output ledger: the sha256 and exit code of outputs that must not move.

    python tests/golden.py --check     # exit 1 and name every entry that moved
    python tests/golden.py --update    # rewrite tests/golden.json from this tree

Entries:
* `verify/<suite>/seed-<s>`: the stdout of `orbitflow verify --suite <suite>
  --seed <s>` for the five suites at seeds 0-19, with its exit code (a
  failing seed is recorded as exit 1, as it is);
* `control/<file>`: `trajectory.csv`, `manifest.json` and the stdout of one
  `orbitflow control` run on a fixed two-segment 3 x 3 schedule;
* `simulate/<run>/<file>`: every file and the stdout of `orbitflow simulate`
  for each process at `--t 0.1 --paths 2`, of one
  `grassmann --route ito` run whose guard stops three of its four paths, and
  of one run each from a `--P0`, `--M0`, `--lam0` and `--z0` start;
* `drift/<route>/stdout`: `orbitflow drift` by the three routes;
* `oracle/<run>/stdout`: `orbitflow oracle` for the qv target (each kind) and
  the fd-gradient target with and without `--R`.

Every command runs in this process through `orbitflow.cli.main`, inside a
temporary directory that holds the input files, so that the paths a manifest
records are the same on every machine.  A change to any digest is a declared
output change: run `--update` in the same commit and give each moved entry
its reason.  Needs `src` on the path (PYTHONPATH=src) or an installed package.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from orbitflow.cli import PROCESSES, main
from orbitflow.verify import SUITE_NAMES

LEDGER = Path(__file__).with_name("golden.json")
SEEDS = range(20)
SCHEDULE = ("0.2; R = [2, 0.3, 0, 0.3, 1, 0.1, 0, 0.1, 1.5]\n"
            "0.3; G = [1, 0.5, 0, 0, 1, 0.2, 0.1, 0, 1]\n")
P0 = "3, 0.5, 0.1\n0.5, 2, 0.3\n0.1, 0.3, 1\n"
M0 = "1, 0.2\n0.1, 1.5\n0.3, -0.4\n"
R = "2, 0.3, 0\n0.3, 1, 0.1\n0, 0.1, 1.5\n"
INPUTS = {"schedule.txt": SCHEDULE, "P0.csv": P0, "M0.csv": M0, "R.csv": R}
SMOKE = ["--t", "0.1", "--paths", "2"]
# simulate runs beyond one per process at the smoke settings: run name -> flags
SIMULATE = {
    "grassmann-ito-stops": ["--process", "grassmann", "--route", "ito", "--t", "0.1",
                            "--paths", "4"],
    "bw-bm-P0": ["--process", "bw-bm", "--P0", "P0.csv", *SMOKE],
    "vertical-bm-M0": ["--process", "vertical-bm", "--M0", "M0.csv", *SMOKE],
    "eigen-bw-lam0": ["--process", "eigen-bw", "--n", "3", "--lam0", "5,2,1", *SMOKE],
    "poincare-z0": ["--process", "poincare", "--z0", "0.3,1.2", *SMOKE],
}
# commands whose only output is stdout: entry name -> argv
STDOUT = {
    "drift/spectral": ["drift", "--which", "spectral", "--input", "P0.csv"],
    "drift/gradient": ["drift", "--which", "gradient", "--input", "P0.csv"],
    "drift/J-R": ["drift", "--which", "J-R", "--input", "P0.csv", "--R", "R.csv"],
    "oracle/qv-wiener": ["oracle", "--target", "qv", "--n", "3", "--k", "2",
                         "--samples", "2000"],
    "oracle/qv-skew": ["oracle", "--target", "qv", "--kind", "skew", "--n", "3",
                       "--samples", "2000"],
    "oracle/qv-sphere": ["oracle", "--target", "qv", "--kind", "sphere", "--n", "3",
                         "--samples", "2000"],
    "oracle/fd-gradient": ["oracle", "--target", "fd-gradient", "--input", "M0.csv"],
    "oracle/fd-gradient-R": ["oracle", "--target", "fd-gradient", "--input", "M0.csv",
                             "--R", "R.csv"],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> tuple:
    """(exit code, stdout bytes) of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode()


def verify_entries(seeds=SEEDS) -> dict:
    entries = {}
    for suite in SUITE_NAMES:
        for seed in seeds:
            code, stdout = _run(["verify", "--suite", suite, "--seed", str(seed)])
            entries[f"verify/{suite}/seed-{seed:02d}"] = {"exit": code, "sha256": _digest(stdout)}
    return entries


def _entries(name: str, code: int, files: dict) -> dict:
    return {f"{name}/{file}": {"exit": code, "sha256": _digest(data)}
            for file, data in files.items()}


def _out_run(argv) -> tuple:
    """(exit code, {file: bytes}) of one command that writes the directory
    `out`: its stdout and every file it wrote there."""
    code, stdout = _run([*argv, "--out", "out"])
    files = {"stdout": stdout}
    for path in sorted(Path("out").iterdir()) if Path("out").is_dir() else ():
        files[path.name] = path.read_bytes()
    return code, files


def _in_inputs(run):
    """run() inside a fresh temporary directory that holds INPUTS."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in INPUTS.items():
                Path(name).write_text(text, encoding="utf-8")
            return run()
        finally:
            os.chdir(home)


def control_entries() -> dict:
    code, files = _in_inputs(lambda: _out_run(["control", "--schedule", "schedule.txt",
                                               "--P0", "P0.csv", "--substeps", "16"]))
    return _entries("control", code, files)


def simulate_entries() -> dict:
    runs = {process: ["--process", process, *SMOKE] for process in PROCESSES} | SIMULATE
    entries = {}
    for name, flags in runs.items():
        code, files = _in_inputs(lambda: _out_run(["simulate", *flags]))
        entries |= _entries(f"simulate/{name}", code, files)
    return entries


def stdout_entries() -> dict:
    entries = {}
    for name, argv in STDOUT.items():
        code, stdout = _in_inputs(lambda: _run(argv))
        entries |= _entries(name, code, {"stdout": stdout})
    return entries


def compute(seeds=SEEDS) -> dict:
    return {**verify_entries(seeds), **control_entries(), **simulate_entries(),
            **stdout_entries()}


def moved(entries: dict, ledger: dict | None = None) -> list[str]:
    """One line per entry of `entries` that is missing from the ledger or
    differs from it."""
    ledger = json.loads(LEDGER.read_text()) if ledger is None else ledger
    return [f"{name}: ledger {ledger.get(name)}, now {got}"
            for name, got in entries.items() if ledger.get(name) != got]


def cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the ledger")
    mode.add_argument("--update", action="store_true", help="rewrite the ledger")
    args = ap.parse_args(argv)
    entries = compute()
    if args.update:
        LEDGER.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(entries)} entries to {LEDGER}")
        return 0
    ledger = json.loads(LEDGER.read_text())
    changed = moved(entries, ledger)
    gone = [f"{name}: in the ledger, not produced"
            for name in sorted(ledger.keys() - entries.keys())]
    for line in changed + gone:
        print(line)
    print(f"{len(entries) - len(changed)}/{len(ledger)} entries unchanged")
    return 1 if changed or gone else 0


if __name__ == "__main__":
    sys.exit(cli())
