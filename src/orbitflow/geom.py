"""Geometry of the factorization map M -> M M^T on full-rank n x k matrices.

The fibers are the right orbits M O(k); the quotient is the cone of positive
(semi)definite matrices.  This module provides the vertical/horizontal
splitting, fiber orthonormal frames, second fundamental form and mean
curvature of the fibers, orbit log-volume, and the induced drift field on the
quotient in three independent forms:

* drift_J_spectral - closed spectral form,
* drift_J_gradient - finite-difference gradient of the orbit log-volume,
* drift_J_R        - the spectral form transported to a left-invariant
                     metric tr(R V W^T).

The three are cross-validated against each other in the test suite; none is
defined in terms of another beyond what the formulas below state.

Every matrix argument except drift_J_gradient's may carry leading stack
axes, and each matrix of a stack gets the bits of a call on it alone.  A
fiber frame is one (fiber_dim(k), ...) stack in matcore.pair_index order
with the stack axes after the frame axis, and mean_curvature and
ito_correction_sum sum over it with matcore.add_in_order, the order of a
loop over the frame.  The drift forms and metric_gram check
their argument once and run the unchecked drift_J_kernel and
metric_gram_kernel (which orbit_log_volume calls directly); quotient_flow,
behind mcf_ode and integrate_control, makes one eigh_desc per start.
eigh_desc needs exactly symmetric input: the Grams M^T R M built here pass
through sym_part, and a caller's matrix is checked where it enters.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .matcore import (
    add_in_order,
    as_matrices,
    as_matrix,
    eigh_desc,
    fd_gradient,
    mT,
    pair_index,
    require_skew,
    require_spd,
    require_symmetric,
    solve_lyapunov,
    sqrtm_spd,
    sym_part,
    TAU_RANK,
)
from .sde import rk4

# Scale applied to the pushed-forward log-volume gradient so that the gradient
# route reproduces the spectral drift.  The naive fiber-dimension/2 scaling is
# correct only for k = 2 fibers; the cross-validation tests pin 1/2 for all k.
KAPPA_DRIFT = 0.5


@dataclass(frozen=True)
class MetricR:
    """Left inner product <V, W> = tr(R V W^T) with R symmetric positive definite.

    The cached factor is the symmetric square root G (G^T G = G G^T = R), which
    makes the conjugation formulas below independent of factor choice.  R, G
    and G^-1 are stored read-only, so one instance can be shared freely.
    """

    R: np.ndarray
    factor: np.ndarray = field(init=False, repr=False)
    factor_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r = require_spd(self.R)
        g = sqrtm_spd(r)
        g_inv = np.linalg.inv(g)
        for name, value in (("R", r), ("factor", g), ("factor_inv", g_inv)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    @cache
    def euclidean(cls, n: int) -> "MetricR":
        """The identity metric on R^n: one shared instance per n."""
        return cls(np.eye(n))

    def inner(self, v, w):
        """tr(R V W^T): one value per pair of the stacks v and w, broadcast
        against each other; a scalar for one pair."""
        return np.trace(self.R @ as_matrices(v) @ mT(as_matrices(w)), axis1=-2, axis2=-1)


def _metric_or_euclidean(metric, n: int) -> MetricR:
    return MetricR.euclidean(n) if metric is None else metric


def fiber_dim(k: int) -> int:
    """Dimension of the orthogonal-group fiber, k(k-1)/2."""
    return k * (k - 1) // 2


def vertical_project(m, w, metric: MetricR | None = None) -> np.ndarray:
    """Project a tangent vector onto the fiber tangent M * skew(k).

    The output is M K where the skew matrix K solves
        (M^T R M) K + K (M^T R M) = M^T R W - W^T R M,
    which is the normal equation for metric-orthogonal projection onto the
    orbit direction space.  M and W may carry leading stack axes, broadcast
    against each other; each matrix gets the bits of a call on it alone.
    """
    r = _metric_or_euclidean(metric, m.shape[-2]).R
    rm = r @ m
    k = solve_lyapunov(sym_part(mT(m) @ rm), mT(rm) @ w - mT(w) @ rm)
    return m @ k


def horizontal_project(m, w, metric: MetricR | None = None) -> np.ndarray:
    """Metric-orthogonal complement of the vertical part; vertical + horizontal
    recovers the input exactly.  Takes stacks as vertical_project does."""
    return w - vertical_project(m, w, metric)


def _onb_generators(m, metric: MetricR | None) -> np.ndarray:
    """Skew generators A with {M A} an orthonormal fiber frame at M, as one
    (fiber_dim(k), ..., k, k) stack in pair_index order over the stack `m`.

    Diagonalize M^T R M = V diag(l^2) V^T; the generators are
    V A~_ij V^T with A~_ij = (E_ij - E_ji) / sqrt(l_i^2 + l_j^2).
    """
    r = _metric_or_euclidean(metric, m.shape[-2]).R
    lam, v = eigh_desc(sym_part(mT(m) @ r @ m))
    if (lam[..., -1] <= TAU_RANK * lam[..., 0]).any():
        raise ValueError("fiber frame needs full-rank M")
    i, j, units = pair_index(m.shape[-1])
    scale = np.sqrt(np.moveaxis(lam[..., i] + lam[..., j], -1, 0))[..., None, None]
    return v @ (np.expand_dims(units, tuple(range(1, m.ndim - 1))) / scale) @ mT(v)


def vertical_onb(m, metric: MetricR | None = None) -> np.ndarray:
    """Orthonormal basis of the fiber tangent space at M under the metric, as
    a (fiber_dim(k), ..., n, k) stack over the stack `m`."""
    m = as_matrices(m)
    return m @ _onb_generators(m, metric)


def sff_vertical(m, a, metric: MetricR | None = None) -> np.ndarray:
    """Second fundamental form of the fiber along the vertical field M A.

    For the curve t -> M exp(t A) the acceleration is M A^2; the form is its
    component normal to the fiber, i.e. the horizontal part of M A^2.  Each
    skew matrix of a stack `a` is checked to 1e-12 relative; `m` and `a`
    broadcast against each other.
    """
    m = as_matrices(m)
    a = require_skew(a)
    return horizontal_project(m, m @ a @ a, metric)


def mean_curvature(m, metric: MetricR | None = None) -> np.ndarray:
    """Mean curvature vector of the fiber through each M of the stack `m`
    (average of sff over an orthonormal fiber frame, summed in frame order)."""
    m = as_matrices(m)
    dim = fiber_dim(m.shape[-1])
    if dim == 0:
        return np.zeros_like(m)
    sff = sff_vertical(m, _onb_generators(m, metric), metric)
    return add_in_order(np.zeros_like(m), sff) / dim


def metric_gram_kernel(p) -> np.ndarray:
    """metric_gram without validation; `p` must be exactly symmetric.  Each
    entry adds its four masked terms from 0.0 in the order of the formula."""
    i, j, _ = pair_index(p.shape[-1])
    ia, ja, ib, jb = i[:, None], j[:, None], i[None, :], j[None, :]
    return 0.5 * (0.0 + np.where(ja == jb, p[..., ia, ib], 0.0)
                  + np.where(ia == ib, p[..., ja, jb], 0.0)
                  - np.where(ja == ib, p[..., ia, jb], 0.0)
                  - np.where(ia == jb, p[..., ja, ib], 0.0))


def metric_gram(p) -> np.ndarray:
    """Gram matrix of the orbit tangent frame {M A_ij / sqrt(2)} given P = M^T M.

    Entries over pairs (i<j), (m<l):
        g = (d_jl P_im + d_im P_jl - d_jm P_il - d_il P_jm) / 2.
    Symmetric positive definite whenever P is, which require_spd checks.
    """
    return metric_gram_kernel(require_spd(p))


def orbit_log_volume(m, metric: MetricR | None = None):
    """Log-volume of the orbit M O(k) under the metric, up to the constant
    group-volume factor: (1/2) log det of the orbit-frame Gram matrix.  One
    value per matrix of a stack; a scalar for one matrix."""
    m = as_matrices(m)
    if m.shape[-1] == 1:
        # single-column orbits are points; volume factor is trivial
        return np.zeros(m.shape[:-2])[()]
    r = _metric_or_euclidean(metric, m.shape[-2]).R
    sign, logdet = np.linalg.slogdet(metric_gram_kernel(sym_part(mT(m) @ r @ m)))
    if (sign <= 0).any():
        raise ValueError("orbit frame is degenerate")
    return 0.5 * logdet


def _spectral_rate(lam) -> np.ndarray:
    """drift_J_spectral's diagonal d(lam), rank rule included, for descending
    spectra with any leading stack axes; the kept j are summed in ascending
    order, so each spectrum of a stack gets the bits of a call on it alone."""
    pos = lam > TAU_RANK * lam[..., :1]
    keep = pos[..., :, None] & pos[..., None, :] & ~np.eye(lam.shape[-1], dtype=bool)
    li = lam[..., :, None]
    ratio = np.divide(li, li + lam[..., None, :], out=np.zeros(keep.shape), where=keep)
    return np.add.accumulate(ratio, axis=-1)[..., -1]


def drift_J_kernel(s) -> np.ndarray:
    """drift_J_spectral without validation, over any leading stack axes: `s`
    must be exactly symmetric (unchecked), and the whole stack goes through
    one eigh_desc call, so every matrix gets the bits of a call on it alone."""
    lam, u = eigh_desc(s)
    top = lam[..., :1]
    if (top <= 0.0).any():
        raise ValueError("drift needs a nonzero positive semidefinite matrix")
    if (lam[..., -1:] < -TAU_RANK * top).any():
        raise ValueError("negative eigenvalue outside rank tolerance")
    return sym_part((u * _spectral_rate(lam)[..., None, :]) @ mT(u))


def drift_J_spectral(p) -> np.ndarray:
    """Quotient drift field in closed spectral form.

    For P = U diag(lam) U^T with positive eigenvalues the drift is
        U diag( sum_{j != i} lam_i / (lam_i + lam_j) ) U^T.
    Trailing eigenvalues at most TAU_RANK * lam_max are held at zero, with
    the sums running over the positive part of the spectrum only.  Takes any
    leading stack axes: each matrix is checked for symmetry (to 1e-10
    relative), symmetrized, and passed to drift_J_kernel.
    """
    return drift_J_kernel(require_symmetric(p, tol=1e-10))


def drift_J_gradient(m, metric: MetricR | None = None) -> np.ndarray:
    """Quotient drift via the log-volume gradient route (finite differences).

    Computes V = grad orbit_log_volume at the metric-flattened point G M and
    pushes it to the quotient: KAPPA_DRIFT * (V (GM)^T + (GM) V^T), pulled back
    through G^-1 on both sides.  With the Euclidean metric this is
    KAPPA_DRIFT * (V M^T + M V^T).
    """
    m = as_matrix(m)
    met = _metric_or_euclidean(metric, m.shape[0])
    mt = met.factor @ m
    v = fd_gradient(orbit_log_volume, mt)
    j = KAPPA_DRIFT * (v @ mt.T + mt @ v.T)
    gi = met.factor_inv
    return sym_part(gi @ j @ gi.T)


def drift_J_R(p, metric: MetricR) -> np.ndarray:
    """Quotient drift under the metric tr(R V W^T), R = G^T G.

    Conjugate to the Euclidean drift through the isometry M -> G M:
        G^-T  drift_J_spectral(G^T P G)  G^-1
    with the symmetric factor G cached in the metric (for which this agrees
    with the orientation G^-1 J(G P G^T) G^-T, and orthogonal-equivariance of
    the spectral form makes the value factor-independent).  Takes any
    leading stack axes: each matrix of `p` is checked for symmetry (to 1e-10
    relative), and the unsymmetrized `p` is conjugated.
    """
    p = np.asarray(p, dtype=np.float64)
    require_symmetric(p, tol=1e-10)
    g, g_inv = metric.factor, metric.factor_inv
    return sym_part(mT(g_inv) @ drift_J_kernel(sym_part(mT(g) @ p @ g)) @ g_inv)


def quotient_flow(p0, duration, steps: int, g, g_inv) -> np.ndarray:
    """RK4 states (steps + 1, ..., n, n) of dP/dt = G^-T J(G^T P G) G^-1 from
    the SPD stack p0 (unchecked), for a metric's factors g = G, g_inv = G^-1.

    J(Q) commutes with Q, so the eigenframe U of Q = G^T P0 G stays fixed
    and only the spectrum moves, by dlam/dt = d(lam): one eigh_desc per
    start, rk4 on the spectra (forward in time the rates are >= 0 and keep
    them descending), and each state maps back as G^-T U diag(lam) U^T G^-1,
    symmetrized; state 0 is p0.  g, g_inv and `duration` are shared or one
    per start; every start gets the bits of a run on it alone."""
    lam, u = eigh_desc(sym_part(mT(g) @ p0 @ g))
    lams = rk4(_spectral_rate, lam, duration, steps)
    states = sym_part(mT(g_inv) @ (u * lams[..., None, :]) @ mT(u) @ g_inv)
    states[0] = p0
    return states


def ito_correction_sum(m, metric: MetricR | None = None) -> np.ndarray:
    """Sum of xi xi^T over the fiber orthonormal frame at M, in frame order.

    This is the quadratic-variation contribution of fiber-valued noise to the
    image process; it must reproduce drift_J_spectral(M M^T) exactly in the
    Euclidean metric.  One (n, n) sum per matrix of the stack `m`.
    """
    xi = vertical_onb(m, metric)
    return add_in_order(np.zeros(xi.shape[1:-1] + (xi.shape[-2],)), xi @ mT(xi))
