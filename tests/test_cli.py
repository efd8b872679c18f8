"""End-to-end command line checks: exit codes, artifact layout, config
resolution, and byte-identical output across worker counts and path chunks."""

import dataclasses
import io
import json
import re
from pathlib import Path as FsPath

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbitflow import cli, sde
from orbitflow.cli import PROCESSES, main
from orbitflow.processes import (ProcessConfig, bm_bures_wasserstein, bm_cartan_hadamard,
                                 bm_grassmann, bm_orthogonal, bm_poincare, bm_stiefel,
                                 eigen_sde, sphere_vertical_bm, vertical_bm, wishart)
from orbitflow.reporting import emit_csv, emit_eigen_csv, read_matrix_csv, read_path_csv
from orbitflow.sde import NoiseSource


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _spd_csv(tmp_path, name="P.csv", text="3, 0\n0, 1\n"):
    return _write(tmp_path / name, text)


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_process_choice_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--process", "escalator"])
    assert exc.value.code == 2


def test_unknown_process_in_config_file_returns_two(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", "process = escalator\nout = x\n")
    assert main(["simulate", "--config", cfg]) == 2
    assert "unknown process" in capsys.readouterr().err


def test_simulate_requires_out(capsys):
    assert main(["simulate", "--process", "wishart"]) == 2
    assert "--out" in capsys.readouterr().err


def test_simulate_validates_grid(tmp_path, capsys):
    rc = main(["simulate", "--process", "wishart", "--t", "0",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "t > 0" in capsys.readouterr().err


def test_simulate_validates_widths(tmp_path, capsys):
    rc = main(["simulate", "--process", "wishart", "--n", "2", "--k", "3",
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("t,dt", [("1", "0.3"), ("1e-4", "1e-3")])
def test_simulate_rejects_partial_final_step(tmp_path, capsys, t, dt):
    # the grid would end short of or past --t, so nothing is written
    out = tmp_path / "o"
    rc = main(["simulate", "--process", "wishart", "--t", t, "--dt", dt,
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"t={float(t):g}" in err and f"dt={float(dt):g}" in err
    assert not out.exists()


@pytest.mark.parametrize("process", ["on-bm", "stiefel", "grassmann"])
def test_simulate_rejects_trivial_orthogonal_group(tmp_path, capsys, process):
    # O(1) has no skew directions to drive a Brownian motion
    out = tmp_path / "o"
    rc = main(["simulate", "--process", process, "--n", "1", "--t", "0.01",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n=1" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_accepts_rounded_whole_step_count(tmp_path):
    # 0.1 / 1e-3 is 100.00000000000001 in floating point
    out = tmp_path / "o"
    assert main(["simulate", "--process", "wishart", "--t", "0.1", "--dt", "1e-3",
                 "--out", str(out)]) == 0
    assert len(read_path_csv(str(out / "path_0000.csv"))[0]) == 101


def test_simulate_bw_bm_needs_square_noise(tmp_path, capsys):
    # the noise is n x n, so k is n and --k is not read
    rc = main(["simulate", "--process", "bw-bm", "--n", "3", "--k", "2",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--process bw-bm does not read --k" in capsys.readouterr().err
    p0 = _spd_csv(tmp_path)
    rc = main(["simulate", "--process", "bw-bm", "--n", "3", "--P0", p0,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"--P0 {p0} is 2x2, but the sizes ask for 3x3" in capsys.readouterr().err
    bad = _spd_csv(tmp_path, "bad.csv", "1, 0\n0, -1\n")
    rc = main(["simulate", "--process", "bw-bm", "--n", "2", "--P0", bad,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"--process bw-bm --P0 {bad}: matrix is not positive definite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_syntax_error_returns_two(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.cfg", "process wishart\n")
    assert main(["simulate", "--config", cfg]) == 2
    assert "key=value" in capsys.readouterr().err


def test_config_file_bad_cast_returns_two(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.cfg", "process = wishart\nn = two\nout = x\n")
    assert main(["simulate", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# simulate artifacts


def test_simulate_writes_paths_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["simulate", "--process", "sphere-vertical", "--n", "3",
               "--t", "0.01", "--dt", "1e-3", "--paths", "2",
               "--out", str(out)])
    assert rc == 0
    assert (out / "path_0000.csv").exists() and (out / "path_0001.csv").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["process"] == "sphere-vertical"
    assert man["config"]["n"] == 3 and man["config"]["paths"] == 2
    assert man["outputs"] == ["path_0000.csv", "path_0001.csv"]
    t, vals, _ = read_path_csv(out / "path_0000.csv")
    assert t.shape == (11,) and vals.shape == (11, 3)


def test_simulate_svg_flag_adds_plot(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--process", "sphere-vertical", "--n", "3",
               "--t", "0.01", "--dt", "1e-3", "--svg", "--out", str(out)])
    assert rc == 0
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg") and "S_t" in svg
    man = json.loads((out / "manifest.json").read_text())
    assert "plot.svg" in man["outputs"]


def test_simulate_eigen_headers_and_lam0(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--process", "eigen-wishart", "--n", "2", "--k", "2",
               "--lam0", "5,1", "--t", "0.02", "--dt", "1e-3", "--out", str(out)])
    assert rc == 0
    _, vals, cols = read_path_csv(out / "path_0000.csv")
    assert cols == ["l_1", "l_2"]
    assert_allclose(vals[0], [5.0, 1.0], rtol=0, atol=0)
    # blanks around an entry are not an empty entry
    spaced = tmp_path / "spaced"
    assert main(["simulate", "--process", "eigen-wishart", "--n", "2", "--k", "2",
                 "--lam0", "5, 1", "--t", "0.02", "--dt", "1e-3", "--out", str(spaced)]) == 0
    assert ((spaced / "path_0000.csv").read_bytes()
            == (out / "path_0000.csv").read_bytes())


def test_simulate_lam0_length_mismatch(tmp_path, capsys):
    rc = main(["simulate", "--process", "eigen-wishart", "--n", "3", "--k", "3",
               "--lam0", "2,1", "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("process", ["eigen-wishart", "eigen-bw"])
def test_lam0_sets_k_and_is_not_an_input_file(tmp_path, process):
    # k comes from --lam0 alone, below n; the manifest hashes start files only
    out = tmp_path / "run"
    assert main(["simulate", "--process", process, "--n", "4", "--lam0", "5,2,1",
                 "--t", "0.01", "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert (man["config"]["n"], man["config"]["k"], man["inputs"]) == (4, 3, {})
    _, vals, cols = read_path_csv(out / "path_0000.csv")
    assert cols == ["l_1", "l_2", "l_3"]
    assert_allclose(vals[0], [5.0, 2.0, 1.0], rtol=0, atol=0)


def test_simulate_flags_beat_config_file(tmp_path):
    out = tmp_path / "run"
    cfg = _write(tmp_path / "run.cfg",
                 "# base settings\nprocess = sphere-vertical\nn = 3\n"
                 f"t = 0.05\ndt = 1e-2\nout = {out}\n")
    rc = main(["simulate", "--config", cfg, "--t", "0.02"])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["t"] == 0.02  # flag wins
    assert man["config"]["dt"] == 1e-2  # file fills the rest


def test_simulate_vertical_bm_reads_factor_shape(tmp_path):
    m0 = _write(tmp_path / "M0.csv", "1, 0\n0, 1\n1, 1\n")
    out = tmp_path / "run"
    rc = main(["simulate", "--process", "vertical-bm", "--M0", m0,
               "--t", "0.01", "--dt", "1e-3", "--out", str(out)])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["n"] == 3 and man["config"]["k"] == 2
    assert "M0" in man["inputs"]
    # an n and k that agree with the factor are accepted
    assert main(["simulate", "--process", "vertical-bm", "--M0", m0, "--n", "3",
                 "--k", "2", "--t", "0.01", "--dt", "1e-3",
                 "--out", str(tmp_path / "run2")]) == 0


@pytest.mark.parametrize("flags,cfg_text,asked", [
    (["--n", "5", "--k", "1"], "", "5x1"),
    (["--n", "4"], "", "4x2"),
    (["--k", "1"], "", "3x1"),
    ([], "n = 5\n", "5x2"),
])
def test_simulate_vertical_bm_rejects_n_k_that_disagree_with_factor(
        tmp_path, capsys, flags, cfg_text, asked):
    # an explicit n or k is never silently replaced by the shape of --M0
    m0 = _write(tmp_path / "M0.csv", "1, 0\n0, 1\n1, 1\n")
    cfg = _write(tmp_path / "run.cfg", cfg_text)
    out = tmp_path / "run"
    rc = main(["simulate", "--process", "vertical-bm", "--M0", m0, "--config", cfg,
               "--t", "0.01", "--dt", "1e-3", "--out", str(out)] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert "is 3x2" in err and f"ask for {asked}" in err
    assert not out.exists()


# one shape rule for both start files: --P0's shape sets n, --M0's sets n and k
_START_FILES = {"--P0": ("bw-bm", "3, 0, 0\n0, 2, 0\n0, 0, 1\n", (3, 3)),
                "--M0": ("vertical-bm", "1, 0\n0, 1\n1, 1\n", (3, 2))}


@pytest.mark.parametrize("flag, sizes, asked", [
    ("--P0", [], None),
    ("--P0", ["--n", "3"], None),
    ("--P0", ["--n", "2"], "2x2"),
    ("--P0", ["--n", "4"], "4x4"),
    ("--M0", [], None),
    ("--M0", ["--n", "3", "--k", "2"], None),
    ("--M0", ["--n", "4"], "4x2"),
    ("--M0", ["--k", "1"], "3x1"),
])
def test_a_start_file_sets_the_sizes_its_shape_spans(tmp_path, capsys, flag, sizes, asked):
    process, text, shape = _START_FILES[flag]
    start = _write(tmp_path / "start.csv", text)
    out = tmp_path / "run"
    rc = main(["simulate", "--process", process, flag, start, *sizes,
               "--t", "0.01", "--out", str(out)])
    if asked is None:
        assert rc == 0
        cfg = json.loads((out / "manifest.json").read_text())["config"]
        assert (cfg["n"], cfg["k"]) == shape
    else:
        assert rc == 2
        want = f"{flag} {start} is {shape[0]}x{shape[1]}, but the sizes ask for {asked}"
        assert want in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("process, flags, named", [
    ("on-bm", ["--n", "3", "--k", "2"], "--k"),
    ("poincare", ["--k", "1"], "--k"),
    ("poincare", ["--n", "2"], "--n"),
    ("cartan-hadamard", ["--n", "3", "--k", "3"], "--k"),
    ("sphere-vertical", ["--n", "3", "--k", "1"], "--k"),
])
def test_simulate_rejects_a_size_the_process_does_not_read(tmp_path, capsys,
                                                           process, flags, named):
    rc = main(["simulate", "--process", process, *flags, "--t", "0.01",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and process in err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_an_unread_size_from_the_config_file(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", "process = sphere-vertical\nn = 3\nk = 1\n")
    rc = main(["simulate", "--config", cfg, "--t", "0.01", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--k" in err and "config key k" in err and "sphere-vertical" in err


@pytest.mark.parametrize("argv, cfg_text, named", [
    # input flags of another process
    (["simulate", "--process", "on-bm", "--P0", "{P}"], None, ("--P0", "on-bm")),
    (["simulate", "--process", "wishart", "--lam0", "3,1"], None, ("--lam0", "wishart")),
    (["simulate", "--process", "on-bm", "--route", "ito"], None, ("--route", "on-bm")),
    (["simulate", "--process", "cartan-hadamard", "--z0", "0,2"], None,
     ("--z0", "cartan-hadamard")),
    (["simulate", "--process", "poincare", "--M0", "{P}"], None, ("--M0", "poincare")),
    (["simulate", "--process", "wishart", "--reproject"], None, ("--reproject", "wishart")),
    # config keys that simulate does not resolve, named with their file and line
    (["simulate"], "process = grassmann\nroute = ito\n", ("{CFG}:2", "'route'")),
    (["simulate", "--process", "wishart"], "svg = 1\n", ("{CFG}:1", "'svg'")),
    (["simulate", "--process", "wishart"], "t = 0.01\ndtt = 0.5\n", ("{CFG}:2", "'dtt'")),
    # a metric that only --which J-R reads, and a report directory that only
    # the constants suite writes
    (["drift", "--which", "spectral", "--input", "{P}", "--R", "{P}"], None,
     ("--R", "spectral")),
    (["drift", "--which", "gradient", "--input", "{P}", "--R", "{P}"], None,
     ("--R", "gradient")),
    (["verify", "--suite", "control", "--out", "{OUT}"], None, ("--out", "control")),
    # oracle flags of the other target
    (["oracle", "--target", "fd-gradient", "--input", "{P}", "--kind", "skew"], None,
     ("--kind", "fd-gradient")),
    (["oracle", "--target", "fd-gradient", "--input", "{P}", "--n", "2"], None,
     ("--n", "fd-gradient")),
    (["oracle", "--target", "fd-gradient", "--input", "{P}", "--k", "2"], None,
     ("--k", "fd-gradient")),
    (["oracle", "--target", "fd-gradient", "--input", "{P}", "--samples", "10"], None,
     ("--samples", "fd-gradient")),
    (["oracle", "--target", "fd-gradient", "--input", "{P}", "--dt", "0.1"], None,
     ("--dt", "fd-gradient")),
    (["oracle", "--target", "fd-gradient", "--input", "{P}", "--seed", "1"], None,
     ("--seed", "fd-gradient")),
    (["oracle", "--target", "qv", "--samples", "10", "--input", "{P}"], None,
     ("--input", "qv")),
    (["oracle", "--target", "qv", "--samples", "10", "--R", "{P}"], None, ("--R", "qv")),
])
def test_a_flag_or_config_key_the_mode_does_not_read_exits_two(tmp_path, capsys, argv,
                                                               cfg_text, named):
    # no flag or config key is silently ignored: each was dropped at exit 0 before
    files = {"{P}": _spd_csv(tmp_path), "{OUT}": str(tmp_path / "out"),
             "{CFG}": str(tmp_path / "run.cfg")}
    argv = [files.get(a, a) for a in argv]
    if argv[0] == "simulate":
        argv += ["--t", "0.01", "--out", files["{OUT}"]]
    if cfg_text is not None:
        argv += ["--config", _write(tmp_path / "run.cfg", cfg_text)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    for text in named:
        for key, path in files.items():
            text = text.replace(key, path)
        assert text in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("process", PROCESSES)
def test_every_process_runs_with_default_flags(tmp_path, process):
    out = tmp_path / "run"
    assert main(["simulate", "--process", process, "--out", str(out)]) == 0
    _, _, cols = read_path_csv(out / "path_0000.csv")
    assert (cols == ["l_1", "l_2"]) == process.startswith("eigen-")
    route = json.loads((out / "manifest.json").read_text())["config"]["route"]
    assert route == ("pushforward" if process == "grassmann" else None)


def test_readme_process_table_lists_the_flags_each_process_reads():
    # README's "reads" column is the claim that any other process flag exits 2
    readme = (FsPath(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Named processes", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = line.split("|")[1:3]
        if not line.startswith("| `") or cells[0].strip() == "`--process`":
            continue  # not a table row, or the header
        reads = tuple(flag[2:] for flag in re.findall(r"`([^`]+)`", cells[1]))
        for name in re.findall(r"`([^`]+)`", cells[0]):
            assert name not in table, f"{name} has two rows"
            table[name] = reads
    assert table == {name: row.reads for name, row in cli._PROCESSES.items()}


def test_oracle_defaults_are_resolved_to_the_same_values(capsys):
    assert main(["oracle", "--target", "qv", "--samples", "10"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "qv oracle: kind=wiener n=2 k=2 dt=0.001 samples=10"


def test_simulate_reproject_flag_changes_nothing(tmp_path):
    # every on-bm step stays on O(n) to rounding, so --reproject is a no-op
    args = ["simulate", "--process", "on-bm", "--n", "3", "--paths", "2",
            "--t", "0.1", "--dt", "1e-3"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    assert main(args + ["--reproject", "--out", str(tmp_path / "flag")]) == 0
    names = ["path_0000.csv", "path_0001.csv", "manifest.json"]
    assert sorted(f.name for f in (tmp_path / "flag").iterdir()) == sorted(names)
    for name in names:
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "flag" / name).read_bytes())


def test_simulate_exits_zero_when_guards_stop_every_path(tmp_path, capsys):
    # a guard stop is a recorded outcome, not a run failure: both paths start
    # 1e-8 from an eigenvalue collision and stop at step 0
    out = tmp_path / "run"
    rc = main(["simulate", "--process", "eigen-bw", "--lam0", "1.0,0.99999999",
               "--paths", "2", "--t", "0.01", "--dt", "1e-3", "--out", str(out)])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["stopped"] == [
        {"path": p, "step": 0, "reason": "spectrum guard"} for p in (0, 1)]
    assert "path 1 stopped at step 0: spectrum guard" in capsys.readouterr().out


# each process at the CLI defaults (n = 2), with the single-path library run
# that must give path p's CSV; the last two add the Ito route and a start
# 1e-7 from the rank guard, where guards stop paths inside the chunks
_CHUNK_CASES = [
    ("on-bm", [], lambda cfg, p: bm_orthogonal(2, cfg, p)),
    ("stiefel", [], lambda cfg, p: bm_stiefel(2, 1, cfg, p)),
    ("grassmann", [], lambda cfg, p: bm_grassmann(2, 1, cfg, "pushforward", p)),
    ("poincare", [], lambda cfg, p: bm_poincare(cfg, (0.0, 1.0), p)),
    ("cartan-hadamard", [], lambda cfg, p: bm_cartan_hadamard(2, cfg, p)[1]),
    ("wishart", [], lambda cfg, p: wishart(np.eye(2), cfg, path_index=p)[1]),
    ("bw-bm", [], lambda cfg, p: bm_bures_wasserstein(np.eye(2), cfg, p)),
    ("vertical-bm", [], lambda cfg, p: vertical_bm(np.eye(2), cfg, path_index=p)[1]),
    ("sphere-vertical", [], lambda cfg, p: sphere_vertical_bm(2, cfg, p)[0]),
    ("eigen-wishart", [], lambda cfg, p: eigen_sde("wishart", [2.0, 1.0], 2, cfg, p)),
    ("eigen-bw", [], lambda cfg, p: eigen_sde("bw", [2.0, 1.0], 2, cfg, p)),
    ("grassmann", ["--n", "3", "--k", "2", "--route", "ito"],
     lambda cfg, p: bm_grassmann(3, 2, cfg, "ito", p)),
    ("bw-bm", ["--P0", "{P_LOW}"],
     lambda cfg, p: bm_bures_wasserstein(np.diag([1.0, 1e-7]), cfg, p)),
]


@pytest.mark.parametrize("process, flags, library", _CHUNK_CASES,
                         ids=[" ".join([c[0]] + c[1]) for c in _CHUNK_CASES])
def test_chunked_simulate_writes_each_path_as_its_single_path_run(
        tmp_path, monkeypatch, process, flags, library):
    assert {case[0] for case in _CHUNK_CASES} == set(PROCESSES)
    p_low = _spd_csv(tmp_path, "P_low.csv", "1, 0\n0, 1e-7\n")
    argv = (["simulate", "--process", process]
            + [p_low if flag == "{P_LOW}" else flag for flag in flags]
            + ["--t", "0.02", "--dt", "1e-3", "--paths", "7", "--seed", "5"])
    draws = []
    draw = NoiseSource.normals_block

    def spy(self, step, n_paths, count, first=0, steps=1):
        draws.append((n_paths, count, first, steps))
        return draw(self, step, n_paths, count, first, steps)

    monkeypatch.setattr(NoiseSource, "normals_block", spy)
    assert main(argv + ["--out", str(tmp_path / "default")]) == 0
    # the default word budget holds all 7 paths: one draw
    [(n_paths, count, first, steps)] = draws
    assert (n_paths, first, steps) == (7, 0, 20)
    # a budget of 3 paths' words splits them into chunks of 3, 3 and 1
    monkeypatch.setattr(sde, "_WINDOW_WORDS", 3 * steps * count)
    draws.clear()
    assert main(argv + ["--out", str(tmp_path / "chunked")]) == 0
    assert [(d[0], d[2]) for d in draws] == [(3, 0), (3, 3), (1, 6)]
    stopped = json.loads((tmp_path / "chunked" / "manifest.json").read_text())["config"]["stopped"]
    # the guard stops some paths of the last two cases, none of the others
    assert bool(stopped) == bool(flags)

    cfg = ProcessConfig(t_end=0.02, dt=1e-3, seed=5)
    emit = emit_eigen_csv if process.startswith("eigen-") else emit_csv
    for p in range(7):
        path = library(cfg, p)
        want = io.StringIO()
        emit(path.times, path.states, want)
        name = f"path_{p:04d}.csv"
        got = (tmp_path / "chunked" / name).read_bytes()
        assert got == want.getvalue().encode()
        assert got == (tmp_path / "default" / name).read_bytes()


def test_simulate_that_fails_mid_run_exits_one_and_writes_no_manifest(
        tmp_path, monkeypatch, capsys):
    # a wishart path has no guard and calls its diffusion once per step, so
    # the 31st call of a 10-step run is the first step of path 3
    row = cli._PROCESSES["wishart"]
    calls = []

    def problem(n, k, opts):
        base = row.problem(n, k, opts)

        def diffusion(t, w, dw):
            calls.append(t)
            if len(calls) == 3 * 10 + 1:
                raise FloatingPointError("overflow in the diffusion")
            return base.diffusion(t, w, dw)

        return dataclasses.replace(base, diffusion=diffusion)

    monkeypatch.setitem(cli._PROCESSES, "wishart", row._replace(problem=problem))
    out = tmp_path / "run"
    rc = main(["simulate", "--process", "wishart", "--t", "0.01", "--dt", "1e-3",
               "--paths", "5", "--out", str(out)])
    assert rc == 1
    assert "simulate failed at path 3: overflow in the diffusion" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    # only CSVs of the paths before the failing one may remain
    assert {f.name for f in out.iterdir()} <= {f"path_{p:04d}.csv" for p in range(3)}


def test_simulate_whose_path_csv_cannot_be_written_exits_one(tmp_path, capsys):
    # a directory in the place of path 1's CSV: the run fails at path 1 as a
    # failing step would, and writes no manifest
    out = tmp_path / "run"
    (out / "path_0001.csv").mkdir(parents=True)
    rc = main(["simulate", "--process", "wishart", "--t", "0.01", "--paths", "3",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "simulate failed at path 1: " in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()
    assert {f.name for f in out.iterdir()} == {"path_0000.csv", "path_0001.csv"}


@pytest.mark.parametrize("argv, blocked", [
    (["simulate", "--process", "wishart", "--t", "0.01", "--svg"], "plot.svg"),
    (["simulate", "--process", "wishart", "--t", "0.01", "--svg"], "manifest.json"),
    (["control", "--schedule", "{SCHED}", "--P0", "{P}"], "trajectory.csv"),
    (["control", "--schedule", "{SCHED}", "--P0", "{P}"], "manifest.json"),
    (["verify", "--suite", "constants"], "constants_report.json"),
])
def test_a_file_the_run_cannot_write_exits_one_and_names_it(tmp_path, capsys, argv, blocked):
    # a directory in the place of one file of the output directory: the run
    # fails after it started, so it exits 1 and leaves no manifest file
    out = tmp_path / "run"
    (out / blocked).mkdir(parents=True)
    files = {"{SCHED}": _write(tmp_path / "sched.txt", "0.2; R = [1, 0, 0, 1]\n"),
             "{P}": _spd_csv(tmp_path)}
    assert main([files.get(a, a) for a in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {out / blocked}: Is a directory"]
    assert not (out / "manifest.json").is_file()


# ---------------------------------------------------------------------------
# drift


def test_drift_spectral_to_stdout(tmp_path, capsys):
    rc = main(["drift", "--which", "spectral", "--input", _spd_csv(tmp_path)])
    assert rc == 0
    rows = [[float(v) for v in line.split(",")]
            for line in capsys.readouterr().out.strip().splitlines()]
    assert_allclose(rows, [[0.75, 0.0], [0.0, 0.25]], rtol=0, atol=1e-15)


def test_drift_gradient_matches_spectral(tmp_path, capsys):
    rc = main(["drift", "--which", "gradient", "--input", _spd_csv(tmp_path)])
    assert rc == 0
    rows = [[float(v) for v in line.split(",")]
            for line in capsys.readouterr().out.strip().splitlines()]
    assert_allclose(rows, [[0.75, 0.0], [0.0, 0.25]], rtol=0, atol=1e-4)


def test_drift_metric_form_needs_r(tmp_path, capsys):
    assert main(["drift", "--which", "J-R", "--input", _spd_csv(tmp_path)]) == 2
    assert "--R" in capsys.readouterr().err
    bad = _spd_csv(tmp_path, "BAD_R.csv", "1, 0\n0, -1\n")
    assert main(["drift", "--which", "J-R", "--input", _spd_csv(tmp_path),
                 "--R", bad]) == 2
    err = capsys.readouterr().err
    assert "--R" in err and "BAD_R.csv" in err and "positive definite" in err


def test_drift_metric_frozen_oracle(tmp_path, capsys):
    r = _write(tmp_path / "R.csv", "1, 0\n0, 3\n")
    rc = main(["drift", "--which", "J-R", "--input", _spd_csv(tmp_path), "--R", r])
    assert rc == 0
    rows = [[float(v) for v in line.split(",")]
            for line in capsys.readouterr().out.strip().splitlines()]
    assert_allclose(rows, [[0.5, 0.0], [0.0, 1.0 / 6.0]], rtol=0, atol=1e-13)


def test_drift_out_file(tmp_path, capsys):
    dest = tmp_path / "J.csv"
    rc = main(["drift", "--which", "spectral", "--input", _spd_csv(tmp_path),
               "--out", str(dest)])
    assert rc == 0
    assert_allclose(read_matrix_csv(dest), [[0.75, 0.0], [0.0, 0.25]],
                    rtol=0, atol=1e-15)


def test_drift_rejects_indefinite_input(tmp_path, capsys):
    bad = _write(tmp_path / "bad.csv", "1, 0\n0, -1\n")
    assert main(["drift", "--which", "spectral", "--input", bad]) == 2


@pytest.mark.parametrize("argv, named", [
    (["oracle", "--target", "qv", "--n", "0", "--samples", "10"], "n=0"),
    (["oracle", "--target", "qv", "--n", "-2", "--samples", "10"], "n=-2"),
    (["oracle", "--target", "qv", "--samples", "0"], "samples=0"),
    (["oracle", "--target", "qv", "--dt", "-1", "--samples", "10"], "dt=-1"),
    (["oracle", "--target", "qv", "--seed", "-1", "--samples", "10"], "seed=-1"),
    (["oracle", "--target", "fd-gradient", "--input", "{P}", "--R", "{BAD}"], "BAD.csv"),
    (["control", "--schedule", "{SCHED}", "--P0", "{P}", "--out", "{OUT}",
      "--substeps", "0"], "substeps=0"),
    (["verify", "--suite", "control", "--seed", "-1"], "seed=-1"),
    (["simulate", "--process", "wishart", "--t", "0.01", "--out", "{OUT}",
      "--seed", "-1"], "seed=-1"),
    (["simulate", "--process", "wishart", "--t", "0.01", "--out", "{OUT}",
      "--stream", "-1"], "stream=-1"),
    # factors whose Gram the Lyapunov solve rejects (singular-value ratio at
    # most 1e-5), although the 1e-8 rank guard would pass the second one
    (["simulate", "--process", "vertical-bm", "--M0", "{M0_RANK1}", "--t", "0.01",
      "--out", "{OUT}"], "--M0 {M0_RANK1}: singular-value ratio"),
    (["simulate", "--process", "vertical-bm", "--M0", "{M0_1E6}", "--t", "0.01",
      "--out", "{OUT}"], "--M0 {M0_1E6}: singular-value ratio 1e-06 is at most 1e-05"),
    (["simulate", "--process", "vertical-bm", "--M0", "{M0_1E9}", "--t", "0.01",
      "--out", "{OUT}"], "--M0 {M0_1E9}: singular-value ratio 1e-09 is at most 1e-05"),
    # a metric whose size does not fit the input
    (["drift", "--which", "J-R", "--input", "{P3}", "--R", "{P}"],
     "--R {P} is 2x2, but --input {P3} is 3x3"),
    (["oracle", "--target", "fd-gradient", "--input", "{M43}", "--R", "{P3}"],
     "--R {P3} is 3x3, but --input {M43} is 4x3"),
    # schedule durations and matrix entries that are not finite
    (["control", "--schedule", "{SCHED_NAN}", "--P0", "{P}", "--out", "{OUT}"],
     "schedule line 1: segment duration must be finite and positive; got nan"),
    (["control", "--schedule", "{SCHED_INF}", "--P0", "{P}", "--out", "{OUT}"],
     "schedule line 1: segment duration must be finite and positive; got inf"),
    (["drift", "--which", "spectral", "--input", "{INF}"],
     "{INF} line 1: entry 'inf' is not finite"),
    (["control", "--schedule", "{SCHED}", "--P0", "{NAN}", "--out", "{OUT}"],
     "{NAN} line 2: entry 'nan' is not finite"),
    # schedule segments whose size does not fit --P0
    (["control", "--schedule", "{SCHED}", "--P0", "{P3}", "--out", "{OUT}"],
     "--schedule {SCHED} --P0 {P3}: segment 1 holds a 2x2 R, but the start is 3x3"),
    (["control", "--schedule", "{SCHED_MIXED}", "--P0", "{P}", "--out", "{OUT}"],
     "--schedule {SCHED_MIXED} --P0 {P}: segment 2 holds a 3x3 R, but the start is 2x2"),
    # a config key set twice, named with the file and both lines
    (["simulate", "--process", "wishart", "--config", "{DUP}", "--t", "0.01",
      "--out", "{OUT}"], "{DUP}:3: key 'n' is set again; line 1 set it first"),
    # empty or blank entries of a comma-separated list, and a start the
    # process's builder rejects
    (["simulate", "--process", "eigen-wishart", "--n", "3", "--k", "2", "--lam0", "3,,1",
      "--t", "0.01", "--out", "{OUT}"], "bad --lam0 '3,,1': empty entry"),
    (["simulate", "--process", "eigen-wishart", "--n", "3", "--k", "2", "--lam0", "3,1,",
      "--t", "0.01", "--out", "{OUT}"], "bad --lam0 '3,1,': empty entry"),
    (["simulate", "--process", "eigen-wishart", "--n", "3", "--k", "2", "--lam0", ",1",
      "--t", "0.01", "--out", "{OUT}"], "bad --lam0 ',1': empty entry"),
    (["simulate", "--process", "eigen-wishart", "--n", "3", "--k", "2", "--lam0", "3, ,1",
      "--t", "0.01", "--out", "{OUT}"], "bad --lam0 '3, ,1': empty entry"),
    (["simulate", "--process", "eigen-bw", "--lam0", "", "--t", "0.01", "--out", "{OUT}"],
     "bad --lam0 '': empty entry"),
    (["simulate", "--process", "poincare", "--z0", ",1", "--t", "0.01", "--out", "{OUT}"],
     "bad --z0 ',1': empty entry"),
    (["simulate", "--process", "poincare", "--z0", "0,1,", "--t", "0.01", "--out", "{OUT}"],
     "bad --z0 '0,1,': empty entry"),
    (["simulate", "--process", "eigen-bw", "--lam0", "1,3", "--t", "0.01", "--out", "{OUT}"],
     "--process eigen-bw: lam0 must be strictly descending"),
    # an empty path is not an absent flag, nor the current directory
    (["simulate", "--config", "", "--process", "wishart", "--t", "0.01", "--out", "{OUT}"],
     "--config is an empty path"),
    (["simulate", "--process", "bw-bm", "--P0", "", "--t", "0.01", "--out", "{OUT}"],
     "--P0 is an empty path"),
    (["simulate", "--process", "vertical-bm", "--M0", "", "--t", "0.01", "--out", "{OUT}"],
     "--M0 is an empty path"),
    (["oracle", "--target", "fd-gradient", "--input", "{P}", "--R", ""], "--R is an empty path"),
    (["drift", "--which", "spectral", "--input", "{P}", "--out", ""], "--out is an empty path"),
    (["verify", "--suite", "constants", "--out", ""], "--out is an empty path"),
    (["simulate", "--process", "wishart", "--config", "{NO_OUT}", "--t", "0.01"],
     "{NO_OUT}:1: key 'out' has no value"),
    # starts that the process's builder rejects, named with the process,
    # the start file and the value
    (["simulate", "--process", "bw-bm", "--P0", "{M43}", "--t", "0.01", "--out", "{OUT}"],
     "--P0 {M43} is 4x3, but the sizes ask for 4x4"),
    (["simulate", "--process", "eigen-wishart", "--n", "3", "--k", "3", "--lam0", "2,1",
      "--t", "0.01", "--out", "{OUT}"],
     "--lam0 2,1 is k=2, but the sizes ask for k=3"),
    (["simulate", "--process", "poincare", "--z0", "0,-1", "--t", "0.01", "--out", "{OUT}"],
     "--process poincare: need y > 0; got y=-1"),
    (["simulate", "--process", "poincare", "--z0", "0,1,2", "--t", "0.01", "--out", "{OUT}"],
     "bad --z0 '0,1,2': need two entries x,y"),
    (["simulate", "--process", "on-bm", "--n", "1", "--t", "0.01", "--out", "{OUT}"],
     "--process on-bm: so(n) needs n >= 2; got n=1"),
    # an output that cannot be written is named before any work is done
    (["simulate", "--process", "wishart", "--t", "0.01", "--out", "{FILE}"],
     "--out {FILE}: File exists"),
    (["control", "--schedule", "{SCHED}", "--P0", "{P}", "--out", "{FILE}"],
     "--out {FILE}: File exists"),
    (["verify", "--suite", "constants", "--out", "{FILE}"], "--out {FILE}: File exists"),
    (["drift", "--which", "spectral", "--input", "{P}", "--out", "{NODIR}"],
     "--out {NODIR}: No such file or directory"),
    # a matrix entry that is not a number, named with its file and line
    (["simulate", "--process", "bw-bm", "--P0", "{WORD}", "--t", "0.01", "--out", "{OUT}"],
     "{WORD} line 2: entry 'x' is not a number"),
    # times that are not finite, from a flag or a config key, and a step
    # count too large to hold
    (["simulate", "--process", "wishart", "--t", "inf", "--out", "{OUT}"], "t=inf"),
    (["simulate", "--process", "wishart", "--config", "{T_INF}", "--out", "{OUT}"], "t=inf"),
    (["simulate", "--process", "wishart", "--t", "nan", "--out", "{OUT}"], "t=nan"),
    (["simulate", "--process", "wishart", "--dt", "nan", "--out", "{OUT}"], "dt=nan"),
    (["oracle", "--target", "qv", "--dt", "nan"], "dt=nan"),
    (["oracle", "--target", "qv", "--dt", "inf", "--samples", "10"], "dt=inf"),
    (["simulate", "--process", "wishart", "--t", "1e308", "--dt", "1e-10", "--out", "{OUT}"],
     "t=1e+308 / dt=1e-10 overflows"),
    # seeds and streams are 64-bit Philox key words, and the constants suite
    # keys seed + 1 ... seed + 3
    (["simulate", "--process", "wishart", "--t", "0.01", "--seed", "18446744073709551616",
      "--out", "{OUT}"], "seed=18446744073709551616"),
    (["simulate", "--process", "wishart", "--t", "0.01", "--stream", "18446744073709551616",
      "--out", "{OUT}"], "stream=18446744073709551616"),
    (["simulate", "--process", "wishart", "--config", "{SEED_2_64}", "--t", "0.01",
      "--out", "{OUT}"], "seed=18446744073709551616"),
    (["oracle", "--target", "qv", "--seed", "18446744073709551616", "--samples", "10"],
     "seed=18446744073709551616"),
    (["verify", "--suite", "constants", "--seed", "18446744073709551615"],
     "seed=18446744073709551615"),
    # an empty schedule matrix
    (["control", "--schedule", "{SCHED_EMPTY}", "--P0", "{P}", "--out", "{OUT}"],
     "schedule line 1: empty entry"),
    # a start entry that is not finite never reaches a builder
    (["simulate", "--process", "eigen-bw", "--lam0", "nan,1", "--t", "0.01", "--out", "{OUT}"],
     "bad --lam0 'nan,1': entry 'nan' is not finite"),
    (["simulate", "--process", "eigen-bw", "--lam0", "inf,1", "--t", "0.01", "--out", "{OUT}"],
     "bad --lam0 'inf,1': entry 'inf' is not finite"),
    (["simulate", "--process", "poincare", "--z0", "nan,1", "--t", "0.01", "--out", "{OUT}"],
     "bad --z0 'nan,1': entry 'nan' is not finite"),
    (["simulate", "--process", "poincare", "--z0", "0,inf", "--t", "0.01", "--out", "{OUT}"],
     "bad --z0 '0,inf': entry 'inf' is not finite"),
    (["simulate", "--process", "eigen-wishart", "--lam0", "5,x", "--t", "0.01", "--out", "{OUT}"],
     "bad --lam0 '5,x': entry 'x' is not a number"),
    # --lam0 sets k, as a start file sets its sizes; a k that disagrees,
    # from a flag or a config key, is named with both sizes
    (["simulate", "--process", "eigen-bw", "--n", "3", "--k", "2", "--lam0", "5,2,1",
      "--t", "0.01", "--out", "{OUT}"], "--lam0 5,2,1 is k=3, but the sizes ask for k=2"),
    (["simulate", "--process", "eigen-bw", "--config", "{K2}", "--n", "3", "--lam0", "5,2,1",
      "--t", "0.01", "--out", "{OUT}"], "--lam0 5,2,1 is k=3, but the sizes ask for k=2"),
    # a spectrum that ends below 0 is a start the builder rejects
    (["simulate", "--process", "eigen-bw", "--n", "2", "--lam0", "5,-1", "--t", "0.01",
      "--out", "{OUT}"], "--process eigen-bw: lam0 ends in the negative eigenvalue -1.0"),
    (["simulate", "--process", "eigen-wishart", "--n", "2", "--lam0", "5,-1", "--t", "0.01",
      "--out", "{OUT}"], "--process eigen-wishart: lam0 ends in the negative eigenvalue -1.0"),
])
def test_bad_input_exits_two_and_names_the_value(tmp_path, capsys, argv, named):
    files = {"{P}": _spd_csv(tmp_path),
             "{BAD}": _spd_csv(tmp_path, "BAD.csv", "1, 0\n0, -1\n"),
             "{SCHED}": _write(tmp_path / "sched.txt", "0.2; R = [1, 0, 0, 1]\n"),
             "{DUP}": _write(tmp_path / "dup.cfg", "n = 2\nk = 2\nn = 3\n"),
             "{OUT}": str(tmp_path / "out"),
             "{M0_RANK1}": _write(tmp_path / "M0_rank1.csv", "1, 2\n2, 4\n0, 0\n"),
             "{M0_1E6}": _write(tmp_path / "M0_1e-6.csv", "1, 0\n0, 1e-6\n0, 0\n"),
             "{M0_1E9}": _write(tmp_path / "M0_1e-9.csv", "1, 0\n0, 1e-9\n0, 0\n"),
             "{P3}": _spd_csv(tmp_path, "P3.csv", "3, 0, 0\n0, 2, 0\n0, 0, 1\n"),
             "{M43}": _write(tmp_path / "M43.csv", "1, 0, 0\n0, 1, 0\n0, 0, 1\n1, 1, 1\n"),
             "{SCHED_NAN}": _write(tmp_path / "nan.txt", "nan; R = [1,0,0,1]\n"),
             "{SCHED_INF}": _write(tmp_path / "inf.txt", "inf; R = [1,0,0,1]\n"),
             "{SCHED_EMPTY}": _write(tmp_path / "empty.txt", "1; R = []\n"),
             "{SCHED_MIXED}": _write(tmp_path / "mixed.txt", "0.2; R = [1, 0, 0, 1]\n"
                                     "0.2; R = [1, 0, 0, 0, 1, 0, 0, 0, 1]\n"),
             "{INF}": _write(tmp_path / "INF.csv", "inf,0\n0,1\n"),
             "{NAN}": _write(tmp_path / "NAN.csv", "1, 0\n0, nan\n"),
             "{NO_OUT}": _write(tmp_path / "no_out.cfg", "out =\n"),
             "{FILE}": _write(tmp_path / "file.txt", "not a directory\n"),
             "{NODIR}": str(tmp_path / "nodir" / "J.csv"),
             "{WORD}": _write(tmp_path / "WORD.csv", "1, 0\n0, x\n"),
             "{T_INF}": _write(tmp_path / "t_inf.cfg", "t = inf\n"),
             "{SEED_2_64}": _write(tmp_path / "seed.cfg", "seed = 18446744073709551616\n"),
             "{K2}": _write(tmp_path / "k2.cfg", "k = 2\n")}
    assert main([files.get(a, a) for a in argv]) == 2
    for key, path in files.items():
        named = named.replace(key, path)
    captured = capsys.readouterr()
    assert named in captured.err
    assert not captured.out
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "nodir").exists()


def test_drift_rejects_ragged_csv(tmp_path, capsys):
    bad = _write(tmp_path / "ragged.csv", "1, 0\n2\n")
    assert main(["drift", "--which", "spectral", "--input", bad]) == 2
    assert "malformed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# control


def test_control_run_writes_artifacts(tmp_path, capsys):
    sched = _write(tmp_path / "sched.txt",
                   "0.2; R = [1, 0, 0, 1]\n0.2; G = [1, 0.5, 0, 1]\n")
    out = tmp_path / "ctl"
    rc = main(["control", "--schedule", sched, "--P0", _spd_csv(tmp_path),
               "--out", str(out), "--substeps", "16"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "min increment eigenvalue" in text
    t, vals, _ = read_path_csv(out / "trajectory.csv")
    assert t.shape == (33,)
    # closed form: each leg scales P by 1 + t / tr(R P), so the first ends at
    # P1 = 1.05 diag(3, 1) and the second at (1 + 0.2 / tr(R P1)) P1, R = G^T G
    g = np.array([[1.0, 0.5], [0.0, 1.0]])
    p1 = 1.05 * np.diag([3.0, 1.0])
    want = (1.0 + 0.2 / np.trace(g.T @ g @ p1)) * p1
    assert np.abs(vals[-1].reshape(2, 2) - want).max() <= 1e-12 * np.abs(want).max()
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["segments"] == 2
    # every increment of the flow is positive semidefinite up to rounding
    assert man["config"]["loewner_min"] >= -1e-10
    assert set(man["inputs"]) == {"P0", "schedule"}


@pytest.mark.parametrize("argv, named", [
    # 10^18 steps: the time grid alone asks for 6.94 EiB
    (["simulate", "--process", "wishart", "--t", "1e12", "--dt", "1e-6"],
     "simulate failed at path 0: "),
    # 10^17 and 10^18 substeps: the trajectory asks for 1.39 EiB, and then
    # for more than numpy can index
    (["control", "--schedule", "{SCHED}", "--P0", "{P}", "--substeps", str(10**17)],
     f"control failed at --substeps {10**17}: "),
    (["control", "--schedule", "{SCHED}", "--P0", "{P}", "--substeps", str(10**18)],
     f"control failed at --substeps {10**18}: "),
], ids=["simulate-1e18-steps", "control-1e17-substeps", "control-1e18-substeps"])
def test_a_run_too_large_to_allocate_exits_one_with_one_error_line(tmp_path, capsys, argv,
                                                                    named):
    # every allocation asked for is above 2^57 bytes, so it fails at once
    out = tmp_path / "run"
    files = {"{SCHED}": _write(tmp_path / "sched.txt", "0.2; R = [1, 0, 0, 1]\n"),
             "{P}": _spd_csv(tmp_path)}
    assert main([files.get(a, a) for a in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {named}")
    assert not (out / "manifest.json").exists()


def test_control_bad_schedule_returns_two(tmp_path, capsys):
    sched = _write(tmp_path / "sched.txt", "0.2; R = [1, 0, 0]\n")
    rc = main(["control", "--schedule", sched, "--P0", _spd_csv(tmp_path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_control_missing_schedule_returns_two(tmp_path, capsys):
    rc = main(["control", "--schedule", str(tmp_path / "nope.txt"),
               "--P0", _spd_csv(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 2


# ---------------------------------------------------------------------------
# oracle


def test_oracle_qv_prints_contractions(capsys):
    rc = main(["oracle", "--target", "qv", "--kind", "wiener", "--n", "2",
               "--samples", "500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "qv oracle: kind=wiener n=2 k=2 dt=0.001 samples=500"
    assert "E[dX dX^T]/dt" in out and "E[dX dX]/dt" in out


def test_oracle_qv_skew_rejects_n_one(capsys):
    rc = main(["oracle", "--target", "qv", "--kind", "skew", "--n", "1",
               "--samples", "10"])
    assert rc == 2
    assert "n=1" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["skew", "sphere"])
def test_oracle_qv_rejects_k_for_kinds_that_ignore_it(capsys, kind):
    rc = main(["oracle", "--target", "qv", "--kind", kind, "--n", "3", "--k", "7",
               "--samples", "10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--k" in err and kind in err
    # without --k the run succeeds, and its header names no k either
    assert main(["oracle", "--target", "qv", "--kind", kind, "--n", "3",
                 "--samples", "10"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == f"qv oracle: kind={kind} n=3 dt=0.001 samples=10"


def test_oracle_fd_gradient(tmp_path, capsys):
    m = _write(tmp_path / "M.csv", "1, 0\n0, 2\n")
    rc = main(["oracle", "--target", "fd-gradient", "--input", m])
    assert rc == 0
    rows = [[float(v) for v in line.split(",")]
            for line in capsys.readouterr().out.strip().splitlines()]
    # gradient of the log orbit volume at diag(1, 2): M / tr(M^T M)
    assert_allclose(rows, [[0.2, 0.0], [0.0, 0.4]], rtol=0, atol=1e-8)


def test_oracle_fd_gradient_needs_input(capsys):
    assert main(["oracle", "--target", "fd-gradient"]) == 2
