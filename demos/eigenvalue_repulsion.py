"""
Two cones, one repulsion term
=============================

The eigenvalues of the matrix diffusions obey autonomous SDEs with an
interaction drift that keeps the spectrum ordered.  The full-rank cone
process and the rank-aware variant differ by exactly the quotient drift
J_i = sum_j l_i / (l_i + l_j): same noise, shifted deterministic part.

This script prints the closed-form drifts, runs one eigenvalue path to
show the trajectories staying separated, and demonstrates the collision
guard stopping (never clamping) a nearly degenerate start.

Run:  python3 demos/eigenvalue_repulsion.py
"""

from pathlib import Path

import numpy as np

from orbitflow.processes import ProcessConfig, eigen_drift, eigen_sde
from orbitflow.reporting import emit_eigen_csv, emit_svg

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)


def main() -> None:
    lam = np.array([2.0, 1.0])
    wi = eigen_drift("wishart", lam, n=2)
    bw = eigen_drift("bw", lam, n=2)
    j = np.array([lam[i] / (lam[i] + lam[1 - i]) for i in range(2)])
    print("drifts at spectrum (2, 1), ambient n = 2:")
    print(f"  full-rank cone drift  = {wi}")
    print(f"  rank-aware drift      = {bw}")
    print(f"  difference            = {wi - bw}  (the quotient drift J_i = {j})")

    cfg = ProcessConfig(t_end=0.5, dt=1e-3, seed=11)
    path = eigen_sde("wishart", [5.0, 1.0], n=2, cfg=cfg)
    gap = float((path.states[:, 0] - path.states[:, 1]).min())
    print(f"one path from (5, 1): min eigenvalue gap along t in [0, 0.5] = {gap:.3f}")
    with open(OUT / "eigen_path.csv", "w", encoding="utf-8", newline="\n") as fh:
        emit_eigen_csv(path.times, path.states, fh)
    with open(OUT / "eigen_path.svg", "w", encoding="utf-8", newline="\n") as fh:
        emit_svg(path.times, {"l_1": path.states[:, 0],
                              "l_2": path.states[:, 1]}, fh,
                 title="ordered eigenvalue diffusion, full-rank cone")

    # near-degenerate start: the interaction term is singular at collisions,
    # so the integrator stops rather than clamping through the guard
    tight = eigen_sde("wishart", [1.0 + 1e-9, 1.0], n=2, cfg=cfg)
    print(f"near-collision start (gap 1e-9): stopped = {tight.stopped}, "
          f"reason = {tight.stop_reason!r}, at step {tight.stopped_step}")
    print(f"wrote {OUT / 'eigen_path.csv'} and {OUT / 'eigen_path.svg'}")


if __name__ == "__main__":
    main()
