"""Final states of many paths of the named processes, for the Monte Carlo
verification suites.

Each ensemble builds its process's problem in `processes`, runs it over a
path axis with `sde.integrate_batch` and applies the process's pushforward.
Row p equals the single-path run with path_index=p bit for bit; a path whose
guard trips keeps its last valid state.  Full trajectories of large
ensembles are deliberately not stored.
"""

import numpy as np

from .processes import (ProcessConfig, bures_wasserstein_problem,
                        cartan_hadamard_problem, eigen_problem, gram,
                        grassmann_ito_problem, orthogonal_problem,
                        poincare_problem, sl2_to_halfplane, sphere_problem,
                        squared_norm, wishart_problem)
from .sde import SdeProblem, integrate_batch


def _run(problem: SdeProblem, cfg: ProcessConfig, paths: int) -> tuple[np.ndarray, np.ndarray]:
    return integrate_batch(problem, cfg.grid(), cfg.source(), paths)


def orthogonal_ensemble(n: int, cfg: ProcessConfig, paths: int) -> np.ndarray:
    """Final states of `paths` paths of Brownian motion on O(n)."""
    return _run(orthogonal_problem(n), cfg, paths)[0]


def grassmann_pushforward_ensemble(n: int, k: int, cfg: ProcessConfig,
                                   paths: int) -> np.ndarray:
    """Final projectors Q I_kn Q^T from O(n) paths."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return gram(orthogonal_ensemble(n, cfg, paths)[..., :k])


def grassmann_ito_ensemble(n: int, k: int, cfg: ProcessConfig, paths: int,
                           guard_tol: float = 1e-2) -> np.ndarray:
    """Final projectors from the direct Ito scheme."""
    return _run(grassmann_ito_problem(n, k, guard_tol), cfg, paths)[0]


def cartan_hadamard_ensemble(n: int, cfg: ProcessConfig, paths: int) -> np.ndarray:
    """Final G states of dG = G dW + G/2 dt (Euler-Maruyama)."""
    return _run(cartan_hadamard_problem(n), cfg, paths)[0]


def wishart_ensemble(w0, cfg: ProcessConfig, paths: int) -> np.ndarray:
    """Final Wiener factors W_t from the factor w0; the Wishart states are W W^T."""
    return _run(wishart_problem(w0), cfg, paths)[0]


def bw_ensemble(p0, cfg: ProcessConfig, paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Final states and alive mask for the SPD-cone Brownian motion."""
    return _run(bures_wasserstein_problem(p0), cfg, paths)


def poincare_ensemble(cfg: ProcessConfig, paths: int,
                      z0: tuple[float, float] = (0.0, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """Final (x, y) points of hyperbolic Brownian motion; alive mask."""
    m, alive = _run(poincare_problem(z0), cfg, paths)
    return sl2_to_halfplane(m), alive


def eigen_ensemble(kind: str, lam0, n: int, cfg: ProcessConfig,
                   paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Final eigenvalue vectors and alive mask for the eigenvalue diffusions."""
    return _run(eigen_problem(kind, lam0, n), cfg, paths)


def sphere_ensemble(n: int, cfg: ProcessConfig, paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Final points and squared radii of the sphere-tangent diffusion."""
    x = _run(sphere_problem(n), cfg, paths)[0]
    return x, squared_norm(x)
