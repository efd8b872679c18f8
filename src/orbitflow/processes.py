"""Named stochastic processes and deterministic flows on matrix manifolds.

Each process is defined once, by a problem builder (`*_problem`) whose drift,
diffusion, guard and post_step accept states with any leading batch axes and
give the same bits on a batch as on one slice (all but `vertical_problem`,
whose projection works on one matrix).  The single-path functions
here run that problem through `sde.integrate`; `ensembles` runs the same
problem over a path axis with `sde.integrate_batch`.  The builders validate
their inputs; the step functions do not.

Group-valued diffusions integrate the right-invariant Stratonovich equation
dX = X o dW by Cayley group steps, which keep O(n) and SL(2) exact to
rounding; quotient-valued processes are either pushforwards of a group path
or direct Ito schemes whose correction terms were fixed by the
quadratic-variation oracle (see the constants verification suite for the
adjudicated values).
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .matcore import TAU_SPD, LieBasis, as_matrix, eigh_desc, mT, require_spd, \
    sl2_basis, so_basis, sym_part
from .geom import MetricR, drift_J_kernel, drift_J_R_kernel, vertical_project
from .sde import NoiseSource, Path, SdeProblem, TimeGrid, integrate, rk4


@dataclass(frozen=True)
class ProcessConfig:
    """Shared simulation settings for the named processes."""

    t_end: float
    dt: float
    seed: int = 0
    stream: int = 0

    def grid(self) -> TimeGrid:
        return TimeGrid.regular(self.t_end, self.dt)

    def source(self) -> NoiseSource:
        return NoiseSource(self.seed, self.stream)


def _run(problem: SdeProblem, cfg: ProcessConfig, path_index: int) -> Path:
    return integrate(problem, cfg.grid(), cfg.source(), path_index)


def _pushforward(path: Path, states: np.ndarray) -> Path:
    """The same path (times and stop record) with mapped states."""
    return dataclasses.replace(path, states=states)


def gram(x) -> np.ndarray:
    """X X^T over the last two axes."""
    return np.einsum("...ij,...kj->...ik", x, x)


def _dot(a, b) -> np.ndarray:
    return (a * b).sum(axis=-1)


def squared_norm(x) -> np.ndarray:
    """|x|^2 over the last axis."""
    return _dot(x, x)


# --- group-valued diffusions -------------------------------------------------

def invariant_problem(basis: LieBasis, x0, guard=None,
                      guard_name: str = "group guard") -> SdeProblem:
    """Right-invariant Brownian motion dX = X o dW on a matrix group.

    dW = sum_a B_a dW^a over the given Lie-algebra basis with independent
    standard Wiener coefficients.  Each step multiplies by the Cayley map of
    the increment A, cay(A) = (I - A/2)^-1 (I + A/2), written as the Euler
    increment X (cay(A) - I) = X (I - A/2)^-1 A.  cay agrees with exp through
    second order, which gives the Stratonovich law at weak order one, and it
    maps every quadratic Lie algebra (so(n), and sl(2) = sp(2)) into its
    group exactly, so such paths stay on the group to rounding.
    """
    x0 = as_matrix(x0)
    eye = np.eye(x0.shape[-1])

    def diffusion(t, x, dw):
        a = basis.combine(dw)
        return x @ np.linalg.solve(eye - 0.5 * a, a)

    return SdeProblem(x0=x0, diffusion=diffusion, noise_shape=(basis.dim,),
                      guard=guard, guard_name=guard_name)


def invariant_bm(basis: LieBasis, x0, cfg: ProcessConfig, guard=None,
                 guard_name: str = "group guard", path_index: int = 0) -> Path:
    """One path of `invariant_problem`."""
    return _run(invariant_problem(basis, x0, guard, guard_name), cfg, path_index)


def orthogonal_problem(n: int) -> SdeProblem:
    """Brownian motion on O(n), started at the identity.  The Cayley step
    keeps Q orthogonal to rounding; the orthogonality guard stays as a check
    and stops (never clamps) a path once ||Q^T Q - I||_F exceeds 1e-2."""
    eye = np.eye(n)

    def guard(q):
        return np.linalg.norm(mT(q) @ q - eye, axis=(-2, -1)) <= 1e-2

    return invariant_problem(so_basis(n), eye, guard=guard,
                             guard_name="orthogonality guard")


def bm_orthogonal(n: int, cfg: ProcessConfig, path_index: int = 0) -> Path:
    """One path of `orthogonal_problem`."""
    return _run(orthogonal_problem(n), cfg, path_index)


def bm_stiefel(n: int, k: int, cfg: ProcessConfig, path_index: int = 0) -> Path:
    """Brownian motion on the Stiefel manifold of orthonormal k-frames.

    Pushforward of the O(n) path through column truncation; for k = n the
    path coincides with bm_orthogonal exactly.  The O(n) path's guard (1e-2)
    applies.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    qp = bm_orthogonal(n, cfg, path_index=path_index)
    return _pushforward(qp, qp.states[:, :, :k].copy())


def grassmann_ito_problem(n: int, k: int, guard_tol: float = 1e-2) -> SdeProblem:
    """Direct Euler-Maruyama on the Grassmann projector P,
        dP = Q (dA I_kn - I_kn dA) Q^T + (k/2 I - n/2 P) dt,
    with Q the eigenframe of the current P (eigenvalues descending) and dA
    the skew increment.  The drift constants come from the
    quadratic-variation oracle; they make tr P a conserved quantity in
    expectation, which the stated -2nP correction in circulation fails to do.
    Paths stop when ||P^2 - P||_F or |tr P - k| exceeds guard_tol.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    ikn = np.diag((np.arange(n) < k).astype(np.float64))
    eye = np.eye(n)
    basis = so_basis(n)

    def diffusion(t, p, dw):
        a = basis.combine(dw)
        u = eigh_desc(p)[1]
        return u @ (a @ ikn - ikn @ a) @ mT(u)

    def drift(t, p):
        return 0.5 * k * eye - 0.5 * n * p

    def guard(p):
        return ((np.linalg.norm(p @ p - p, axis=(-2, -1)) <= guard_tol)
                & (np.abs(np.trace(p, axis1=-2, axis2=-1) - k) <= guard_tol))

    return SdeProblem(x0=ikn, drift=drift, diffusion=diffusion,
                      noise_shape=(basis.dim,), guard=guard,
                      guard_name="projector guard", post_step=sym_part)


def bm_grassmann(n: int, k: int, cfg: ProcessConfig, route: str = "pushforward",
                 path_index: int = 0) -> Path:
    """Brownian motion on the Grassmannian in projector coordinates.

    route="pushforward": map an O(n) path Q through
        P = Q I_kn Q^T  (I_kn = diag of k ones),
    which keeps P a projector to rounding, as Q is orthogonal to rounding.

    route="ito": one path of `grassmann_ito_problem` with guard_tol 1e-2.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if route == "pushforward":
        qp = bm_orthogonal(n, cfg, path_index=path_index)
        return _pushforward(qp, gram(qp.states[..., :k]))
    if route != "ito":
        raise ValueError(f"unknown route {route!r}")
    return _run(grassmann_ito_problem(n, k), cfg, path_index)


def sl2_to_halfplane(m) -> np.ndarray:
    """Moebius action of real 2x2 matrices (any leading axes) on the base
    point i; returns the points (x, y) along a last axis of length 2."""
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    den = c * c + d * d
    return np.stack([(a * c + b * d) / den, (a * d - b * c) / den], axis=-1)


def halfplane_start(x: float, y: float) -> np.ndarray:
    """A determinant-one matrix sending i to x + i y (y > 0)."""
    if y <= 0:
        raise ValueError("need y > 0")
    s = np.sqrt(y)
    return np.array([[s, x / s], [0.0, 1.0 / s]])


def poincare_problem(z0: tuple[float, float] = (0.0, 1.0)) -> SdeProblem:
    """Hyperbolic Brownian motion on the upper half-plane, as the invariant
    diffusion on the determinant-one group with the three-generator basis
    (boost, dilation, rotation); `sl2_to_halfplane` projects its states
    through the Moebius action, and the rotation generator spans the fiber
    over the base point.  Paths stop when |det - 1| exceeds 1e-2 or the
    height falls to 1e-8.
    """

    def guard(m):
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        height = det / (m[..., 1, 0] ** 2 + m[..., 1, 1] ** 2)
        return (np.abs(det - 1.0) <= 1e-2) & (height > 1e-8)

    return invariant_problem(sl2_basis(), halfplane_start(*z0), guard=guard,
                             guard_name="half-plane guard")


def bm_poincare(cfg: ProcessConfig, z0: tuple[float, float] = (0.0, 1.0),
                path_index: int = 0) -> Path:
    """One path of `poincare_problem`; states are (x, y) pairs."""
    mp = _run(poincare_problem(z0), cfg, path_index)
    return _pushforward(mp, sl2_to_halfplane(mp.states))


# --- SPD-cone diffusions -----------------------------------------------------

def cartan_hadamard_problem(n: int) -> SdeProblem:
    """Brownian motion on the full matrix group, Ito form dG = G dW + G/2 dt
    (the drift is the Stratonovich correction dW dW = I dt contracted once),
    started at the identity.

    The image P = G G^T satisfies dP = G (dW + dW^T) G^T + (n + 1) P dt, so
    E[tr P_t] grows like exp((n + 1) t).  Paths stop when G has a non-finite
    entry or |det G| falls to 1e-12.
    """

    def drift(t, g):
        return 0.5 * g

    def diffusion(t, g, dw):
        return g @ dw

    def guard(g):
        return np.isfinite(g).all(axis=(-2, -1)) & (np.abs(np.linalg.det(g)) > 1e-12)

    return SdeProblem(x0=np.eye(n), drift=drift, diffusion=diffusion,
                      noise_shape=(n, n), guard=guard,
                      guard_name="invertibility guard")


def bm_cartan_hadamard(n: int, cfg: ProcessConfig,
                       path_index: int = 0) -> tuple[Path, Path]:
    """One path of `cartan_hadamard_problem` and its SPD image G G^T."""
    gp = _run(cartan_hadamard_problem(n), cfg, path_index)
    return gp, _pushforward(gp, gram(gp.states))


def wishart_problem(n: int, k: int, w0=None) -> SdeProblem:
    """Wishart process: P = W W^T along an n x k matrix Wiener path W.

    The Wiener path is exact (cumulative increments), so P is a Gram matrix
    at every grid point and stays positive semidefinite by construction.
    Ito form: dP = dW W^T + W dW^T + k I dt, the additive constant being the
    column count k (the square-dimension constant in circulation is only
    correct for k = n).  The start is w0, else I_nk.  No guard.
    """
    if w0 is None:
        w0 = np.eye(n, k)
    else:
        w0 = as_matrix(w0)
        if w0.shape != (n, k):
            raise ValueError("w0 must be n x k")

    def diffusion(t, w, dw):
        return dw

    return SdeProblem(x0=w0, diffusion=diffusion, noise_shape=(n, k))


def wishart(n: int, k: int, cfg: ProcessConfig, w0=None,
            path_index: int = 0) -> tuple[Path, Path]:
    """One factor path of `wishart_problem` and its Wishart image W W^T."""
    wp = _run(wishart_problem(n, k, w0), cfg, path_index)
    return wp, _pushforward(wp, gram(wp.states))


def _spectrum_cache():
    """Descending eigenpairs of the last state asked for.  Euler evaluates
    drift and diffusion at the state the guard accepted one step earlier, so
    one decomposition per step serves all three."""
    last = [None, None]

    def spectrum(p):
        if last[0] is not p:
            last[0], last[1] = p, eigh_desc(p)
        return last[1]

    return spectrum


def bures_wasserstein_problem(p0) -> SdeProblem:
    """Brownian motion on the SPD cone for the quotient metric.

    Euler-Maruyama on
        dP = dW M^T + M dW^T + (n I - J(P)) dt,   M = U diag(sqrt(lam)),
    with P = U diag(lam) U^T (eigenvalues descending), dW an n x n Wiener
    increment and J the spectral quotient drift; subtracting J removes the
    drift that orbit-valued noise would otherwise push onto the image.  The
    factor is square: noise of width k < n needs a rank-k P, which the rank
    guard excludes.  The eigenvector factor and the symmetric square root
    give the same law but different paths from the same noise.  Paths stop
    when lam_min <= 1e-8 * lam_max.
    """
    p0 = require_spd(as_matrix(p0))
    n = p0.shape[0]
    eye = np.eye(n)
    spectrum = _spectrum_cache()

    def drift(t, p):
        lam, u = spectrum(p)
        d = (lam[..., :, None] / (lam[..., :, None] + lam[..., None, :])).sum(axis=-1) - 0.5
        return n * eye - (u * d[..., None, :]) @ mT(u)

    def diffusion(t, p, dw):
        lam, u = spectrum(p)
        mdw = dw @ mT(u * np.sqrt(np.maximum(lam, 0.0))[..., None, :])
        return mdw + mT(mdw)

    def guard(p):
        lam, _ = spectrum(p)
        return (lam[..., -1] > 1e-8 * np.maximum(lam[..., 0], 0.0)) & (lam[..., 0] > 0.0)

    return SdeProblem(x0=p0, drift=drift, diffusion=diffusion,
                      noise_shape=(n, n), guard=guard,
                      guard_name="rank guard", post_step=sym_part)


def bm_bures_wasserstein(p0, cfg: ProcessConfig, path_index: int = 0) -> Path:
    """One path of `bures_wasserstein_problem`."""
    return _run(bures_wasserstein_problem(p0), cfg, path_index)


# --- eigenvalue diffusions ---------------------------------------------------

def eigen_drift(kind: str, lam, n: int) -> np.ndarray:
    """Drift of the eigenvalue diffusions (lam may carry leading axes).

    kind="wishart": d_i = n + sum_{j != i} (l_i + l_j) / (l_i - l_j)
    kind="bw":      d_i = n + sum_{j != i} l_j (3 l_i + l_j) / (l_i^2 - l_j^2)

    The two differ exactly by the spectral quotient drift
    sum_{j != i} l_i / (l_i + l_j).
    """
    lam = np.asarray(lam, dtype=np.float64)
    li = lam[..., :, None]
    lj = lam[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "wishart":
            term = (li + lj) / (li - lj)
        elif kind == "bw":
            term = lj * (3.0 * li + lj) / (li * li - lj * lj)
        else:
            raise ValueError(f"unknown kind {kind!r}")
    term = np.where(np.eye(lam.shape[-1], dtype=bool), 0.0, term)
    return n + term.sum(axis=-1)


def eigen_problem(kind: str, lam0, n: int, k: int) -> SdeProblem:
    """Autonomous eigenvalue diffusion d l_i = 2 sqrt(l_i) d b_i + drift dt.

    lam0 holds the k nonzero eigenvalues in strictly descending order; the
    additive drift constant is n.  Paths stop (never clamp) when positivity
    or the strict ordering is about to fail, since the interaction terms are
    singular at collisions: when an entry is not finite, the smallest
    eigenvalue falls to 1e-12, or a gap falls to 1e-10.
    """
    if kind not in ("wishart", "bw"):
        raise ValueError(f"unknown kind {kind!r}")
    lam0 = np.asarray(lam0, dtype=np.float64)
    if lam0.shape != (k,):
        raise ValueError("lam0 must hold k eigenvalues")
    if np.any(np.diff(lam0) >= 0) and k > 1:
        raise ValueError("lam0 must be strictly descending")

    def drift(t, lam):
        return eigen_drift(kind, lam, n)

    def diffusion(t, lam, dw):
        return 2.0 * np.sqrt(np.maximum(lam, 0.0)) * dw

    def guard(lam):
        gaps = lam[..., :-1] - lam[..., 1:]
        return (np.isfinite(lam).all(axis=-1) & (lam[..., -1] > 1e-12)
                & (gaps > 1e-10).all(axis=-1))

    return SdeProblem(x0=lam0, drift=drift, diffusion=diffusion,
                      noise_shape=(k,), guard=guard,
                      guard_name="spectrum guard")


def eigen_sde(kind: str, lam0, n: int, k: int, cfg: ProcessConfig,
              path_index: int = 0) -> Path:
    """One path of `eigen_problem`; states are eigenvalue vectors."""
    return _run(eigen_problem(kind, lam0, n, k), cfg, path_index)


# --- fiber-valued noise and the quotient flow --------------------------------

def vertical_problem(m0, metric: MetricR | None = None) -> SdeProblem:
    """Fiber-valued Brownian motion dX = Pr_vertical(dW), started at m0.

    Paths stop when the smallest singular value of X falls to 1e-8 times the
    largest.  m0 is rejected when the Lyapunov solve of vertical_project
    rejects its Gram M0^T R M0 (lam_min <= TAU_SPD lam_max, a singular-value
    ratio of G M0 at most sqrt(TAU_SPD)); the error names that ratio.
    Single path only: the vertical projection works on one matrix.
    """
    m0 = as_matrix(m0)
    gi = None if metric is None else metric.factor_inv
    try:
        vertical_project(m0, np.zeros_like(m0), metric)
    except ValueError:
        sv = np.linalg.svd(m0 if metric is None else metric.factor @ m0, compute_uv=False)
        raise ValueError(f"singular-value ratio {sv[-1] / max(sv[0], 1e-300):.3g} is at "
                         f"most {np.sqrt(TAU_SPD):g}: the start is too close to rank "
                         f"deficient for the vertical projection") from None

    def diffusion(t, x, dw):
        w = dw if gi is None else gi @ dw
        return vertical_project(x, w, metric)

    def guard(x):
        sv = np.linalg.svd(x, compute_uv=False)
        return sv[-1] > 1e-8 * sv[0]

    return SdeProblem(x0=m0, diffusion=diffusion, noise_shape=m0.shape,
                      guard=guard, guard_name="rank guard")


def vertical_bm(m0, cfg: ProcessConfig, metric: MetricR | None = None,
                path_index: int = 0) -> tuple[Path, Path]:
    """One path of `vertical_problem` and its image X X^T.  The image has no
    martingale part (vertical pushforwards cancel in X K X^T + X K^T X^T), so
    it tracks the quotient flow up to an O(sqrt(dt)) discretization halo."""
    xp = _run(vertical_problem(m0, metric), cfg, path_index)
    return xp, _pushforward(xp, gram(xp.states))


def sphere_problem(n: int) -> SdeProblem:
    """Sphere-tangent noise on a radial line: dX = (I - x x^T / |x|^2) dW.

    The squared radius S = |X|^2 then grows at the deterministic rate n - 1
    (the full quadratic variation of the projected increments, with no 1/2:
    the radial martingale part is annihilated by the projector).  The start
    is the first unit vector; paths stop when |X| falls to 1e-8.
    """
    x0 = np.zeros(n)
    x0[0] = 1.0

    def diffusion(t, x, dw):
        rad = _dot(x, dw) / squared_norm(x)
        return dw - x * rad[..., None]

    def guard(x):
        return squared_norm(x) > 1e-8 ** 2

    return SdeProblem(x0=x0, diffusion=diffusion, noise_shape=(n,),
                      guard=guard, guard_name="origin guard")


def sphere_vertical_bm(n: int, cfg: ProcessConfig,
                       path_index: int = 0) -> tuple[Path, np.ndarray]:
    """One path of `sphere_problem` and its squared-radius trajectory S."""
    xp = _run(sphere_problem(n), cfg, path_index)
    return xp, squared_norm(xp.states)


def mcf_ode(p0, t_end: float, steps: int, metric: MetricR | None = None) -> Path:
    """Classical RK4 integration of the quotient flow dP/dt = J(P).

    With a metric argument the transported drift drift_J_R is used.  The
    trace grows exactly linearly with slope n(n-1)/2 in the Euclidean case,
    which RK4 reproduces to rounding.  `p0` may carry leading stack axes;
    the states then carry them after the time axis, and each start's flow
    has the same bits as when it runs alone.  `p0` is validated here; rk4
    keeps every stage exactly symmetric, so the stages go straight to the
    drift kernels.
    """
    p0 = require_spd(p0)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    f = (drift_J_kernel if metric is None
         else (lambda p: drift_J_R_kernel(p, metric.factor, metric.factor_inv)))
    return Path(times=np.linspace(0.0, t_end, steps + 1), states=rk4(f, p0, t_end, steps))
