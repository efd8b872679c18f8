"""Artifact checks: bit-exact CSV round trips, deterministic SVG, manifest
hashing, and the constants-report container."""

import io
import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from orbitflow.reporting import (_BLOCK_ROWS, ConstantsEntry, ConstantsReport,
                                 build_manifest, content_hash, emit_csv, emit_eigen_csv,
                                 emit_svg, format_float, parse_entries, read_matrix_csv,
                                 read_path_csv, write_manifest, write_matrix_csv)

# values whose text is easiest to get wrong: signed zero, subnormals, the
# extremes of the exponent range, infinities and nan
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, np.inf, -np.inf,
           np.nan, 1e300, -1e300, 0.1, 1.0 / 3.0, -7.25, 1e16, 1e17, 1e-5]


def _reference_rows(table) -> str:
    """The CSV body written one value at a time through format_float."""
    return "".join(",".join(format_float(v) for v in row) + "\n" for row in table)


def _special_table(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-320, 300, (rows, cols))
    flat = table.ravel()
    flat[:len(SPECIAL)] = SPECIAL[:flat.size]
    return table


def test_format_float_round_trips_exactly():
    values = [0.0, 1.0, -1.0, np.pi, 1.0 / 3.0, 0.1, 1e-300, 1e300,
              2.0 ** -52, -7.25, float(np.nextafter(1.0, 2.0))]
    for v in values:
        assert float(format_float(v)) == v


# ---------------------------------------------------------------------------
# CSV


def test_emit_csv_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    times = np.array([0.0, 0.1, 0.2])
    states = rng.standard_normal((3, 2, 2))
    f = tmp_path / "path.csv"
    with open(f, "w") as fh:
        emit_csv(times, states, fh)
    t, vals, cols = read_path_csv(f)
    assert cols == ["x_0_0", "x_0_1", "x_1_0", "x_1_1"]
    assert_array_equal(t, times)
    assert_array_equal(vals, states.reshape(3, 4))


def test_emit_csv_vector_states_are_columns(tmp_path):
    f = tmp_path / "vec.csv"
    with open(f, "w") as fh:
        emit_csv([0.0, 1.0], np.array([[1.0, 2.0], [3.0, 4.0]]), fh)
    _, vals, cols = read_path_csv(f)
    assert cols == ["x_0_0", "x_1_0"]
    assert_array_equal(vals, [[1.0, 2.0], [3.0, 4.0]])


def test_emit_csv_projector_column_count():
    # a 3 x 3 projector trajectory carries 1 + 9 columns
    fh = io.StringIO()
    emit_csv(np.zeros(2), np.zeros((2, 3, 3)), fh)
    header = fh.getvalue().splitlines()[0]
    assert len(header.split(",")) == 10


def test_emit_csv_uses_lf_endings(tmp_path):
    f = tmp_path / "lf.csv"
    with open(f, "w", newline="") as fh:
        emit_csv([0.0], np.array([[1.0]]), fh)
    raw = f.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")


def test_emit_eigen_csv_round_trip(tmp_path):
    times = np.array([0.0, 0.5])
    lams = np.array([[3.0, 1.0], [2.5, 1.25]])
    f = tmp_path / "eig.csv"
    with open(f, "w") as fh:
        emit_eigen_csv(times, lams, fh)
    t, vals, cols = read_path_csv(f)
    assert cols == ["l_1", "l_2"]
    assert_array_equal(t, times)
    assert_array_equal(vals, lams)


@pytest.mark.parametrize("rows, shape", [
    (len(SPECIAL), (2, 2)),             # matrix states
    (len(SPECIAL), (3,)),               # 1-D states
    (1, (1,)),
    (2 * _BLOCK_ROWS + 3, (2, 3)),      # longer than one formatting block
])
def test_emit_csv_matches_per_value_format_float(rows, shape):
    table = _special_table(rows, 1 + int(np.prod(shape)))
    times, states = table[:, 0], table[:, 1:].reshape((rows,) + shape)
    fh = io.StringIO()
    emit_csv(times, states, fh)
    header, body = fh.getvalue().split("\n", 1)
    assert body == _reference_rows(table)


@pytest.mark.parametrize("rows", [len(SPECIAL), _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_emit_eigen_csv_matches_per_value_format_float(rows):
    table = _special_table(rows, 4, seed=1)
    fh = io.StringIO()
    emit_eigen_csv(table[:, 0], table[:, 1:], fh)
    header, body = fh.getvalue().split("\n", 1)
    assert header == "t,l_1,l_2,l_3"
    assert body == _reference_rows(table)


@pytest.mark.parametrize("mat", [
    np.array(SPECIAL).reshape(4, 4),
    np.array(SPECIAL),                  # 1-D: one row
    _special_table(_BLOCK_ROWS + 5, 3, seed=2),
])
def test_write_matrix_csv_matches_per_value_format_float(mat):
    fh = io.StringIO()
    write_matrix_csv(mat, fh)
    assert fh.getvalue() == _reference_rows(np.atleast_2d(mat))


def test_read_matrix_csv_comments_and_errors(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("# start point\n1, 2\n\n3, 4  # trailing note\n")
    assert_array_equal(read_matrix_csv(f), [[1.0, 2.0], [3.0, 4.0]])
    f.write_text("1, 2\n3\n")
    with pytest.raises(ValueError, match="ragged"):
        read_matrix_csv(f)
    f.write_text("# only commentary\n")
    with pytest.raises(ValueError, match="no numeric rows"):
        read_matrix_csv(f)


@pytest.mark.parametrize("text, named", [
    ("1,,2", "empty entry"), (",1", "empty entry"), ("1, ", "empty entry"), (" , ", "empty entry"),
    ("1, x", "entry 'x' is not a number"), ("1e", "entry '1e' is not a number"),
    ("1, inf", "entry 'inf' is not finite"), (" -nan ,1", "entry '-nan' is not finite"),
])
def test_parse_entries_names_the_bad_entry(tmp_path, text, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        parse_entries(text)
    # a matrix file keeps the rule and adds its file and line
    f = tmp_path / "m.csv"
    f.write_text(f"1, 2\n{text}\n")
    with pytest.raises(ValueError, match=re.escape(f"{f} line 2: {named}")):
        read_matrix_csv(f)


def test_write_matrix_csv_round_trip(tmp_path):
    m = np.array([[np.pi, -1.0 / 3.0], [1e-12, 2.0]])
    f = tmp_path / "w.csv"
    with open(f, "w") as fh:
        write_matrix_csv(m, fh)
    assert_array_equal(read_matrix_csv(f), m)
    # 1-D input is written as a single row
    with open(f, "w") as fh:
        write_matrix_csv(np.array([1.0, 2.0, 3.0]), fh)
    assert_array_equal(read_matrix_csv(f), [[1.0, 2.0, 3.0]])


# ---------------------------------------------------------------------------
# hashes and manifests


def test_content_hash_matches_git_blob_values():
    assert content_hash(b"") == "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"
    assert content_hash(b"hello\n") == "ce013625030ba8dba906f756967f9e9ca394464a"


def test_build_manifest_structure():
    man = build_manifest({"b": 2, "a": 1}, inputs={"start": b"xyz"},
                         outputs=["b.csv", "a.csv"])
    assert set(man) == {"config", "config_hash", "inputs", "outputs"}
    assert man["outputs"] == ["a.csv", "b.csv"]
    assert man["inputs"]["start"] == content_hash(b"xyz")
    # canonical JSON hashing is insensitive to dict insertion order
    man2 = build_manifest({"a": 1, "b": 2}, inputs={}, outputs=[])
    assert man2["config_hash"] == man["config_hash"]


def test_write_manifest_is_deterministic():
    man = build_manifest({"seed": 3}, inputs={}, outputs=["x.csv"])
    a, b = io.StringIO(), io.StringIO()
    write_manifest(man, a)
    write_manifest(man, b)
    assert a.getvalue() == b.getvalue()
    assert json.loads(a.getvalue())["config"] == {"seed": 3}


# ---------------------------------------------------------------------------
# SVG


def _render(times, series, title=""):
    fh = io.StringIO()
    emit_svg(times, series, fh, title=title)
    return fh.getvalue()


def test_emit_svg_is_deterministic_and_well_formed():
    times = np.linspace(0.0, 1.0, 20)
    series = {"trace": np.cos(times), "bound": times}
    a = _render(times, series, title="demo")
    assert a == _render(times, series, title="demo")
    root = ET.fromstring(a)
    assert root.tag.endswith("svg")
    assert a.count("<polyline") == 2
    assert "trace" in a and "bound" in a and "demo" in a


def test_emit_svg_empty_series_is_valid_document():
    a = _render(np.array([]), {})
    root = ET.fromstring(a)
    assert root.tag.endswith("svg")
    assert "<polyline" not in a


def test_emit_svg_flat_series_does_not_collapse_the_axis():
    a = _render(np.array([0.0, 1.0]), {"c": np.array([2.0, 2.0])})
    ET.fromstring(a)
    assert a.count("<polyline") == 1


# ---------------------------------------------------------------------------
# constants report


def _entry(verdict="agrees", context="square-noise"):
    return ConstantsEntry(context=context, location="square-noise-contraction",
                          stated_value=3.0, derived_value=3.0,
                          oracle_estimate=3.01, oracle_se=0.02, samples=8000,
                          verdict=verdict)


def test_constants_entry_divergence_flag():
    assert not _entry("agrees").diverges
    assert _entry("diverges").diverges


def test_constants_report_counts_and_serializes():
    rep = ConstantsReport(entries=(_entry("agrees", "a"), _entry("diverges", "b"),
                                   _entry("diverges", "c")))
    assert [e.context for e in rep.divergences] == ["b", "c"]
    payload = json.loads(rep.to_json())
    assert payload["divergence_count"] == 2
    assert len(payload["entries"]) == 3
    assert payload["entries"][0]["samples"] == 8000
    lines = rep.lines()
    assert len(lines) == 3
    assert lines[1].startswith("[diverges] b:")
    assert "+/-" in lines[0] and "n=8000" in lines[0]
