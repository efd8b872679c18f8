"""Artifact emission: CSV path files, dependency-free SVG line charts, run
manifests (config and input hashes, output names), and the
adjudicated-constants report.

All emitters are deterministic: fixed float formatting (17 significant
digits for CSV, 2 decimals for SVG coordinates, 6 digits for SVG tick
labels), LF line endings, sorted JSON keys.  Identical inputs produce
byte-identical artifacts.

CSV bytes are defined per value by `format_float`, and that definition is
unchanged.  The writers format a block of rows per call, which renders every
value exactly as `format_float` does.
"""

import hashlib
import json
from dataclasses import dataclass, asdict

import numpy as np


# Rows formatted per `%` call by the CSV writers.  64 rows already amortise
# the per-call overhead (larger blocks measured no faster), and a block's text
# stays a few tens of kB whatever the path length.
_BLOCK_ROWS = 64


def format_float(x: float) -> str:
    """Shortest 17-significant-digit form; round-trips float64 exactly.

    This is the definition of every CSV value the writers below emit."""
    return "%.17g" % x


def _write_rows(table, fh) -> None:
    """Write a 2-D float table as comma-separated LF-terminated rows, each
    value rendered as format_float renders it, one `%` call per block."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, table.shape[0], _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def _state_columns(shape) -> list[str]:
    if len(shape) == 1:
        shape = (shape[0], 1)
    return [f"x_{i}_{j}" for i in range(shape[0]) for j in range(shape[1])]


def emit_csv(times, states, fh) -> None:
    """Write a trajectory as CSV: header t,x_0_0,x_0_1,... row-major.

    1-D states are treated as column vectors.  17 significant digits, LF
    endings; re-reading is bit-exact.
    """
    states = np.asarray(states)
    cols = _state_columns(states.shape[1:])
    fh.write("t," + ",".join(cols) + "\n")
    _write_rows(np.column_stack((times, states.reshape(states.shape[0], -1))), fh)


def emit_eigen_csv(times, lams, fh) -> None:
    """Write eigenvalue trajectories: header t,l_1,...,l_n."""
    lams = np.asarray(lams)
    n = lams.shape[1]
    fh.write("t," + ",".join(f"l_{i + 1}" for i in range(n)) + "\n")
    _write_rows(np.column_stack((times, lams)), fh)


def read_path_csv(path):
    """Read a trajectory CSV produced by emit_csv/emit_eigen_csv.

    Returns (times, values, column_names); values has one column per state
    entry, in file order.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(tok) for tok in line.strip().split(",")]
                for line in fh if line.strip()]
    data = np.array(rows)
    return data[:, 0], data[:, 1:], header[1:]


def parse_entries(text: str) -> np.ndarray:
    """Comma-separated finite numbers, the rule of every list a user types; the
    error names the entry, and the caller says where the list stands."""
    values = []
    for tok in (tok.strip() for tok in text.split(",")):
        if not tok:
            raise ValueError("empty entry")
        try:
            values.append(float(tok))
        except ValueError:
            raise ValueError(f"entry {tok!r} is not a number") from None
        if not np.isfinite(values[-1]):
            raise ValueError(f"entry {tok!r} is not finite")
    return np.array(values)


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless matrix CSV (one row per line, comma separated).
    Every line keeps `parse_entries`'s rule; an error names the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = []
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append(parse_entries(line))
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no numeric rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return np.array(rows)


def write_matrix_csv(mat, fh) -> None:
    _write_rows(np.atleast_2d(np.asarray(mat)), fh)


def content_hash(data: bytes) -> str:
    """Hash bytes the way git hashes a blob: sha1 over a length-prefixed body."""
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def build_manifest(config: dict, inputs: dict, outputs: list) -> dict:
    """Assemble a run manifest: config echo, config and input hashes, and
    output names.

    inputs maps names to bytes (hashed); outputs is a list of emitted file
    names, recorded sorted and not hashed.  The config itself is hashed from
    its canonical JSON form.
    """
    cfg_json = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "config": config,
        "config_hash": content_hash(cfg_json.encode()),
        "inputs": {name: content_hash(data) for name, data in inputs.items()},
        "outputs": sorted(outputs),
    }
    return manifest


def write_manifest(manifest: dict, fh) -> None:
    json.dump(manifest, fh, indent=2, sort_keys=True)
    fh.write("\n")


# --- SVG -------------------------------------------------------------------

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#e377c2", "#17becf"]


def _svg_num(x: float) -> str:
    return "%.2f" % x


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def emit_svg(times, series: dict, fh, title: str = "") -> None:
    """Render line charts as a standalone SVG without any external renderer.

    series maps labels to 1-D arrays over `times`.  Output is deterministic:
    fixed 640 x 400 canvas, fixed palette, fixed formatting.
    """
    times = np.asarray(times, dtype=float)
    width, height = 640, 400
    ml, mr, mt, mb = 56.0, 16.0, 28.0, 40.0
    pw, ph = width - ml - mr, height - mt - mb
    # an empty series dict still yields a valid document with bare axes
    flat = [np.asarray(v, dtype=float) for v in series.values()]
    ys = np.concatenate(flat) if flat else np.zeros(1)
    ylo, yhi = float(ys.min()), float(ys.max())
    if yhi - ylo < 1e-300:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    xlo, xhi = (float(times.min()), float(times.max())) if times.size else (0.0, 1.0)
    if xhi - xlo < 1e-300:
        xlo, xhi = xlo - 0.5, xhi + 0.5

    def px(x):
        return ml + (x - xlo) / (xhi - xlo) * pw

    def py(y):
        return mt + (yhi - y) / (yhi - ylo) * ph

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
               f'height="{height}" viewBox="0 0 {width} {height}">')
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')
    if title:
        out.append(f'<text x="{_svg_num(width / 2)}" y="18" font-family="monospace" '
                   f'font-size="13" text-anchor="middle">{title}</text>')
    # axes
    out.append(f'<line x1="{_svg_num(ml)}" y1="{_svg_num(mt + ph)}" x2="{_svg_num(ml + pw)}" '
               f'y2="{_svg_num(mt + ph)}" stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{_svg_num(ml)}" y1="{_svg_num(mt)}" x2="{_svg_num(ml)}" '
               f'y2="{_svg_num(mt + ph)}" stroke="black" stroke-width="1"/>')
    for tx in _ticks(xlo, xhi):
        out.append(f'<line x1="{_svg_num(px(tx))}" y1="{_svg_num(mt + ph)}" '
                   f'x2="{_svg_num(px(tx))}" y2="{_svg_num(mt + ph + 4)}" stroke="black"/>')
        out.append(f'<text x="{_svg_num(px(tx))}" y="{_svg_num(mt + ph + 16)}" '
                   f'font-family="monospace" font-size="10" text-anchor="middle">{"%.6g" % tx}</text>')
    for ty in _ticks(ylo, yhi):
        out.append(f'<line x1="{_svg_num(ml - 4)}" y1="{_svg_num(py(ty))}" '
                   f'x2="{_svg_num(ml)}" y2="{_svg_num(py(ty))}" stroke="black"/>')
        out.append(f'<text x="{_svg_num(ml - 6)}" y="{_svg_num(py(ty) + 3)}" '
                   f'font-family="monospace" font-size="10" text-anchor="end">{"%.6g" % ty}</text>')
    for idx, (label, vals) in enumerate(series.items()):
        vals = np.asarray(vals, dtype=float)
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{_svg_num(px(t))},{_svg_num(py(v))}" for t, v in zip(times, vals))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        out.append(f'<text x="{_svg_num(ml + pw - 4)}" y="{_svg_num(mt + 12 + 12 * idx)}" '
                   f'font-family="monospace" font-size="10" text-anchor="end" '
                   f'fill="{color}">{label}</text>')
    out.append("</svg>")
    fh.write("\n".join(out) + "\n")


# --- constants report ------------------------------------------------------

@dataclass(frozen=True)
class ConstantsEntry:
    """One adjudicated constant: a stated value versus the derived value,
    backed by a Monte Carlo oracle estimate with its standard error."""

    context: str
    location: str
    stated_value: float
    derived_value: float
    oracle_estimate: float
    oracle_se: float
    samples: int
    verdict: str

    @property
    def diverges(self) -> bool:
        return self.verdict == "diverges"


@dataclass(frozen=True)
class ConstantsReport:
    """Collection of adjudicated constants entries."""

    entries: tuple

    @property
    def divergences(self) -> list:
        return [e for e in self.entries if e.diverges]

    def to_json(self) -> str:
        payload = {"entries": [asdict(e) for e in self.entries],
                   "divergence_count": len(self.divergences)}
        return json.dumps(payload, indent=2, sort_keys=True)

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            out.append(
                f"[{e.verdict}] {e.context}: stated {e.stated_value:g}, "
                f"derived {e.derived_value:g}, oracle {e.oracle_estimate:.6g} "
                f"+/- {e.oracle_se:.2g} (n={e.samples}) at {e.location}")
        return out
