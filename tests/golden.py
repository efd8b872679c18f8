"""Output ledger: the sha256 and exit code of outputs that must not move.

    python tests/golden.py --check     # exit 1 and name every entry that moved
    python tests/golden.py --update    # rewrite tests/golden.json from this tree

Entries:
* `verify/<suite>/seed-<s>`: the stdout of `orbitflow verify --suite <suite>
  --seed <s>` for the five suites at seeds 0-19, with its exit code (a
  failing seed is recorded as exit 1, as it is);
* `control/<file>`: `trajectory.csv`, `manifest.json` and the stdout of one
  `orbitflow control` run on a fixed two-segment 3 x 3 schedule.

Every command runs in this process through `orbitflow.cli.main`, the control
run inside a temporary directory so that the paths its manifest records are
the same on every machine.  A change to any digest is a declared output
change: run `--update` in the same commit and give each moved entry its
reason.  Needs `src` on the path (PYTHONPATH=src) or an installed package.
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

from orbitflow.cli import main
from orbitflow.verify import SUITE_NAMES

LEDGER = Path(__file__).with_name("golden.json")
SEEDS = range(20)
SCHEDULE = ("0.2; R = [2, 0.3, 0, 0.3, 1, 0.1, 0, 0.1, 1.5]\n"
            "0.3; G = [1, 0.5, 0, 0, 1, 0.2, 0.1, 0, 1]\n")
P0 = "3, 0.5, 0.1\n0.5, 2, 0.3\n0.1, 0.3, 1\n"


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


def control_entries() -> dict:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("schedule.txt").write_text(SCHEDULE, encoding="utf-8")
            Path("P0.csv").write_text(P0, encoding="utf-8")
            code, stdout = _run(["control", "--schedule", "schedule.txt", "--P0", "P0.csv",
                                 "--substeps", "16", "--out", "out"])
            files = {"stdout": stdout}
            for name in ("trajectory.csv", "manifest.json"):
                files[name] = Path("out", name).read_bytes()
        finally:
            os.chdir(home)
    return {f"control/{name}": {"exit": code, "sha256": _digest(data)}
            for name, data in files.items()}


def compute(seeds=SEEDS) -> dict:
    return {**verify_entries(seeds), **control_entries()}


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
