"""Acceptance gate: the shipped guarantees, one check per criterion.

Each test prints a single pass/fail line with the measured value and its
pinned tolerance, then asserts.  Time budgets are enforced where stated.
"""

import json
import time

import numpy as np

from orbitflow import sde
from orbitflow.cli import main as cli_main
from orbitflow.ensembles import (bw_ensemble, cartan_hadamard_ensemble,
                                 grassmann_pushforward_ensemble,
                                 orthogonal_ensemble, poincare_ensemble,
                                 wishart_ensemble)
from orbitflow.geom import (drift_J_gradient, drift_J_spectral, ito_correction_sum,
                            metric_gram, MetricR, orbit_log_volume)
from orbitflow.matcore import sqrtm_spd, sym_part
from orbitflow.processes import (ProcessConfig, mcf_ode, sphere_vertical_bm,
                                 vertical_bm)
from orbitflow.verify import control_suite, eigen_consistency_suite, run_suite


def _report(num: int, ok: bool, detail: str) -> None:
    tag = "pass" if ok else "FAIL"
    print(f"criterion {num:02d} [{tag}]: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _rand_spd(rng, n, spread=1.0):
    lam = np.exp(spread * rng.standard_normal(n))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return sym_part((q * lam) @ q.T)


def test_criterion_01_sphere_radial_growth():
    # tangential noise on R^3: squared radius grows at slope n - 1 = 2,
    # within 2% pointwise along the whole path, in under a second
    start = time.perf_counter()
    xp, s = sphere_vertical_bm(3, ProcessConfig(t_end=1.0, dt=1e-4, seed=7))
    elapsed = time.perf_counter() - start
    ref = s[0] + 2.0 * xp.times
    dev = float(np.max(np.abs(s - ref) / ref))
    ok = (not xp.stopped) and dev <= 0.02 and elapsed < 1.0
    _report(1, ok, f"max radial deviation {100 * dev:.2f}% (tol 2%), "
                   f"elapsed {elapsed:.2f}s (budget 1s)")


def test_criterion_02_doubling_flows():
    # P0 = diag(3, 1) doubles at t = 4 under the quotient flow; the ODE
    # route is tight, the fiber-noise image route lands within 2%
    p0 = np.diag([3.0, 1.0])
    ode_err = float(np.max(np.abs(mcf_ode(p0, 4.0, 800).final - 2.0 * p0)))
    m0 = np.diag([np.sqrt(3.0), 1.0])
    _, image = vertical_bm(m0, ProcessConfig(t_end=4.0, dt=1e-4, seed=0))
    bm_rel = float(np.max(np.abs(image.final - 2.0 * p0)) / np.max(2.0 * p0))
    ok = ode_err <= 1e-6 and (not image.stopped) and bm_rel <= 0.02
    _report(2, ok, f"ODE endpoint error {ode_err:.2e} (tol 1e-6), "
                   f"noise-image deviation {100 * bm_rel:.2f}% (tol 2%)")


def test_criterion_03_gradient_route_and_ito_identity():
    # the log-volume gradient route reproduces the spectral drift on 100
    # seeded points, and the summed fiber-frame outer products match exactly
    rng = np.random.default_rng(0)
    worst_grad = 0.0
    worst_ito = 0.0
    for i in range(100):
        n = 2 + i % 4
        p = _rand_spd(rng, n)
        m = sqrtm_spd(p)
        j = drift_J_spectral(p)
        scale = float(np.abs(j).max())
        worst_grad = max(worst_grad,
                         float(np.abs(drift_J_gradient(m) - j).max()) / scale)
        worst_ito = max(worst_ito,
                        float(np.abs(ito_correction_sum(m) - j).max()))
    ok = worst_grad <= 1e-4 and worst_ito <= 1e-10
    _report(3, ok, f"gradient-vs-spectral max relative gap {worst_grad:.2e} "
                   f"(tol 1e-4), fiber-sum identity max gap {worst_ito:.2e} "
                   f"(tol 1e-10), 100 points, n = 2..5")


def test_criterion_04_trace_identity():
    # tr J(P) = n(n-1)/2 over a thousand seeded SPD matrices, n = 2..8
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(1000):
        n = 2 + i % 7
        p = _rand_spd(rng, n)
        worst = max(worst, abs(float(np.trace(drift_J_spectral(p)))
                               - n * (n - 1) / 2.0))
    ok = worst <= 1e-12
    _report(4, ok, f"max |tr J - n(n-1)/2| = {worst:.2e} (tol 1e-12), "
                   f"1000 draws, n = 2..8")


def test_criterion_05_gram_determinant_and_volume_invariance():
    # n = 2: the orbit-frame Gram matrix is 1 x 1 and its determinant (the
    # single entry) equals tr P / 2 bit for bit; the orbit log-volume is
    # invariant under right rotations of the factor
    rng = np.random.default_rng(2)
    exact = all(float(metric_gram(p := _rand_spd(rng, 2))[0, 0])
                == 0.5 * float(np.trace(p)) for _ in range(100))
    worst = 0.0
    for n, k in ((2, 2), (3, 3), (4, 3)):
        m = rng.standard_normal((n, k))
        metric = MetricR(_rand_spd(rng, n, 0.5))
        for met in (None, metric):
            base = orbit_log_volume(m, met)
            for _ in range(5):
                q, r = np.linalg.qr(rng.standard_normal((k, k)))
                q = q * np.sign(np.diag(r))
                worst = max(worst, abs(orbit_log_volume(m @ q, met) - base))
    ok = exact and worst <= 1e-10
    _report(5, ok, f"det g == tr P / 2 exactly on 100 draws: {exact}; "
                   f"right-invariance max gap {worst:.2e} (tol 1e-10)")


def test_criterion_06_ensemble_guards():
    # 100 paths to t = 1 at dt = 1e-4: the orthogonal ensemble stays within
    # 1e-3 of the group, Grassmann projectors within 1e-3 of idempotent
    start = time.perf_counter()
    q = orthogonal_ensemble(3, ProcessConfig(1.0, 1e-4, seed=0, stream=0), 100)
    orth = float(np.linalg.norm(np.transpose(q, (0, 2, 1)) @ q - np.eye(3),
                                axis=(1, 2)).max())
    p = grassmann_pushforward_ensemble(3, 1,
                                       ProcessConfig(1.0, 1e-4, seed=0, stream=1), 100)
    proj = float(np.linalg.norm(p @ p - p, axis=(1, 2)).max())
    trace = float(np.abs(np.einsum("pii->p", p) - 1.0).max())
    elapsed = time.perf_counter() - start
    ok = orth <= 1e-3 and proj <= 1e-3 and trace <= 1e-6 and elapsed < 30.0
    _report(6, ok, f"orthogonality defect {orth:.2e} (tol 1e-3), projector "
                   f"defect {proj:.2e} (tol 1e-3), trace drift {trace:.2e}, "
                   f"elapsed {elapsed:.1f}s (budget 30s)")


def test_criterion_07_expectation_laws():
    # four closed-form first moments at t = 0.25, 10^4 paths each, all
    # within 3 standard errors of the Monte Carlo mean
    n_paths, t_end, dt = 10000, 0.25, 1e-3
    start = time.perf_counter()
    gaps = {}

    g = cartan_hadamard_ensemble(2, ProcessConfig(t_end, dt, seed=0, stream=0),
                                 n_paths)
    trp = np.einsum("pij,pij->p", g, g)
    target = 2.0 * np.exp(3.0 * t_end)
    gaps["full-group trace"] = abs(trp.mean() - target) / (trp.std() / np.sqrt(n_paths))

    w = wishart_ensemble(np.eye(3, 2), ProcessConfig(t_end, dt, seed=0, stream=1), n_paths)
    trw = np.einsum("pij,pij->p", w, w)
    target = 2.0 + 3 * 2 * t_end
    gaps["wishart trace slope"] = abs(trw.mean() - target) / (trw.std() / np.sqrt(n_paths))

    pb, alive = bw_ensemble(np.diag([4.0, 2.0]),
                            ProcessConfig(t_end, dt, seed=0, stream=2), n_paths)
    trb = np.einsum("pii->p", pb)
    target = 6.0 + 3.0 * t_end
    gaps["cone-noise trace slope"] = abs(trb.mean() - target) / (trb.std() / np.sqrt(n_paths))

    z, valid = poincare_ensemble(ProcessConfig(t_end, dt, seed=0, stream=3), n_paths)
    logy = np.log(z[valid, 1])
    x = z[valid, 0]
    m = float(valid.sum())
    gaps["half-plane log-height"] = abs(logy.mean() + t_end / 2.0) / (logy.std() / np.sqrt(m))
    gaps["half-plane x-mean"] = abs(x.mean()) / (x.std() / np.sqrt(m))

    elapsed = time.perf_counter() - start
    worst = max(gaps.values())
    ok = worst <= 3.0 and alive.mean() >= 0.98 and elapsed < 300.0
    detail = ", ".join(f"{k} {v:.2f} SE" for k, v in gaps.items())
    _report(7, ok, f"{detail} (tol 3 SE each), elapsed {elapsed:.1f}s (budget 300s)")


def test_criterion_08_eigenvalue_matrix_consistency():
    # autonomous eigenvalue diffusions against eigenvalues of the matrix
    # simulations, both cones, first and second moments within 3 pooled SE
    result = eigen_consistency_suite(paths=2000, seed=0)
    _report(8, result.passed, "; ".join(c.line() for c in result.checks))


def test_criterion_09_control_certificates():
    # interaction-field routes agree bit for bit, the Jacobian certificate
    # holds over a thousand spectra, scheduled flows are Loewner monotone
    # across 100 schedules, and the conjugation identity closes the loop
    result = control_suite(seed=0, schedules=100)
    failed = [c.name for c in result.checks if not c.passed]
    detail = f"{sum(c.passed for c in result.checks)}/{len(result.checks)} checks"
    if failed:
        detail += "; failed: " + ", ".join(failed)
    _report(9, result.passed, detail)


def test_criterion_10_constants_adjudication(capsys):
    # the constants suite flags exactly three stated values as divergent,
    # each backed by a Monte Carlo oracle with SE below 5% of the derived value
    rc = cli_main(["verify", "--suite", "constants"])
    out = capsys.readouterr().out
    with capsys.disabled():
        n_div = sum(line.startswith("[diverges]") for line in out.splitlines())
        _, report = run_suite("constants")
        tight = all(e.oracle_se < 0.05 * abs(e.derived_value)
                    for e in report.divergences)
        ok = rc == 0 and n_div == 3 and len(report.divergences) == 3 and tight
        _report(10, ok, f"exit {rc}, {n_div} divergent constants (want 3), "
                        f"oracle SEs below 5% of derived: {tight}")


def test_criterion_11_chunking_independence(tmp_path, monkeypatch):
    # identical bytes from the simulate command however its paths are split:
    # the default word budget draws all 4 paths in one block, a budget of 5
    # words makes every chunk one path drawn from the source itself, and a
    # lone path is a run of 1
    args = ["simulate", "--process", "wishart", "--n", "2", "--k", "2",
            "--t", "0.1", "--dt", "1e-3", "--seed", "3"]
    rcs = [cli_main(args + ["--paths", "4", "--out", str(tmp_path / "block")]),
           cli_main(args + ["--paths", "1", "--out", str(tmp_path / "lone")])]
    monkeypatch.setattr(sde, "_WINDOW_WORDS", 5)
    rcs.append(cli_main(args + ["--paths", "4", "--out", str(tmp_path / "split")]))
    names = [f"path_{p:04d}.csv" for p in range(4)] + ["manifest.json"]
    budgets = all((tmp_path / "block" / name).read_bytes()
                  == (tmp_path / "split" / name).read_bytes() for name in names)
    lone = ((tmp_path / "lone" / names[0]).read_bytes()
            == (tmp_path / "block" / names[0]).read_bytes())
    man = json.loads((tmp_path / "block" / "manifest.json").read_text())
    ok = rcs == [0, 0, 0] and budgets and lone and man["config"]["paths"] == 4
    _report(11, ok, f"4 path files + manifest byte-identical across word budgets "
                    f"2^14 and 5: {budgets}; path 0 of 4 paths = the lone path: {lone}")
