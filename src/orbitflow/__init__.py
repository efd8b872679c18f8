"""orbitflow: geometry and stochastic flows of matrix orbits.

The package studies the map M -> M M^T from full-rank n x k matrices to
positive semidefinite matrices as a Riemannian submersion.  It provides

- the vertical/horizontal splitting of tangent vectors along orthogonal-group
  fibers, fiber orthonormal frames, second fundamental form and mean
  curvature (`geom`),
- the quotient drift field J in three cross-validating forms (spectral
  closed form, log-volume gradient route, general-metric conjugation) and
  the fiber Ito-correction identity (`geom`),
- deterministic counter-keyed noise, one Euler-Maruyama integrator for one
  path or a batch of paths, RK4, and a quadratic-variation Monte Carlo
  oracle (`sde`),
- named diffusions: Brownian motion on O(n), Stiefel, Grassmann, the
  Poincare half-plane, the SPD cone under the trace metric, Wishart
  processes, factor-noise SPD diffusions, eigenvalue SDEs, vertical
  Brownian motion, and the mean-curvature ODE (`processes`, each defined
  once and run over a path axis by `ensembles`),
- the eigenvalue interaction field of controlled flows, its negative
  definite Jacobian with a sum-of-squares certificate, schedule
  integration, and reachability probes (`control`),
- CSV/SVG/manifest reporting and the adjudicated-constants report
  (`reporting`), with self-check suites (`verify`) and a CLI (`cli`).
"""

import types

from .matcore import (eigh_desc, fd_gradient, require_skew, require_spd,
                      require_symmetric, sl2_basis, skew_part, so_basis,
                      solve_lyapunov, sqrtm_spd, sym_part)
from .geom import (KAPPA_DRIFT, MetricR, drift_J_R, drift_J_gradient,
                   drift_J_spectral, fiber_dim, horizontal_project,
                   ito_correction_sum, mean_curvature, metric_gram,
                   orbit_log_volume, sff_vertical, vertical_onb,
                   vertical_project)
from .sde import (NoiseSource, Path, QvEstimate, SdeProblem, TimeGrid,
                  integrate, integrate_batch, qv_kind, qv_oracle, rk4)
from .processes import (ProcessConfig, bm_bures_wasserstein,
                        bm_cartan_hadamard, bm_grassmann, bm_orthogonal,
                        bm_poincare, bm_stiefel, eigen_drift, eigen_sde,
                        halfplane_start, invariant_bm, mcf_ode,
                        sl2_to_halfplane, sphere_vertical_bm, vertical_bm,
                        wishart)
from .control import (ControlSchedule, ProbeReport, ScheduleSegment, alpha,
                      alpha_from_pairs, alpha_jacobian, alpha_sos,
                      alpha_sos_sum, integrate_control, load_schedule,
                      parse_schedule, reach_probe)
from .reporting import (ConstantsEntry, ConstantsReport, build_manifest,
                        content_hash, emit_csv, emit_eigen_csv, emit_svg,
                        read_matrix_csv, read_path_csv, write_matrix_csv)
from .verify import run_suite

__version__ = "0.1.0"

# every name imported above, and the version; the submodules that those
# imports bind on the package are not part of it
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
__all__.append("__version__")
