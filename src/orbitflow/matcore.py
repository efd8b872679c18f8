"""Dense matrix kernels: validators, spectral ops, Lyapunov solves,
finite-difference gradients, and the Lie-algebra bases used by the geometry layer.

Everything operates on plain float64 ndarrays.  The require_* validators check
a caller's matrix where it enters: sqrtm_spd here, and elsewhere MetricR, the
process builders, the drift routes and the CLI.  eigh_desc and solve_lyapunov
validate nothing and need exactly symmetric input (as sym_part and
require_symmetric leave it), because np.linalg.eigh reads only the lower
triangle.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Shared tolerances. SPD and rank checks are relative to the largest
# eigenvalue/singular value; TAU_LYAP is absolute on unit-scale residuals.
TAU_SPD = 1e-10
TAU_LYAP = 1e-10
TAU_RANK = 1e-8


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array without copying when possible."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def mT(a) -> np.ndarray:
    """Transpose over the last two axes of a stack of matrices."""
    return np.swapaxes(a, -1, -2)


def sym_part(a: np.ndarray) -> np.ndarray:
    """Symmetric part over the last two axes (any leading batch axes)."""
    a = np.asarray(a, dtype=np.float64)
    return 0.5 * (a + mT(a))


def skew_part(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return 0.5 * (a - mT(a))


def require_symmetric(a, tol: float = 1e-12) -> np.ndarray:
    """Validate symmetry of each matrix to `tol` (relative to that matrix's
    largest entry, at least 1) and return the symmetrized array.  Takes any
    leading stack axes.  A non-finite entry is rejected by name, since
    neither test below can see it (an inf scale passes any deviation)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices over the last two axes, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"matrix entry {float(a[idx])!r} at index {idx} is not finite")
    dev = np.abs(a - mT(a))
    # every scale is at least 1, so a deviation within tol passes every
    # matrix without the per-matrix scales
    if dev.max() > tol:
        scale = np.maximum(np.abs(a).max(axis=(-2, -1), keepdims=True), 1.0)
        if (dev > tol * scale).any():
            raise ValueError("matrix is not symmetric")
    return sym_part(a)


def require_skew(a, tol: float = 1e-12) -> np.ndarray:
    a = as_matrix(a)
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a + a.T).max() > tol * scale:
        raise ValueError("matrix is not skew-symmetric")
    return skew_part(a)


def require_spd(a, tol: float = TAU_SPD) -> np.ndarray:
    """Validate symmetric positive definiteness: every eigenvalue must exceed
    tol * lambda_max.  Takes any leading stack axes; the error names the
    eigenvalues of the first matrix that fails."""
    s = require_symmetric(a, tol=1e-10)
    w = np.linalg.eigvalsh(s)
    bad = (w[..., -1] <= 0.0) | (w[..., 0] <= tol * w[..., -1])
    if bad.any():
        raise ValueError(f"matrix is not positive definite (eigenvalues {w[bad][0]})")
    return s


def eigh_desc(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lam, u) of symmetric matrices, eigenvalues descending,
    over any leading stack axes: s = u diag(lam) u^T, lam[..., 0] largest.

    Validates nothing.  np.linalg.eigh reads only the lower triangle, so `s`
    must be exactly symmetric for the pair to describe it.  lam and u are
    reversed views of one eigh call on the whole stack, so every matrix of a
    stack gets the same bits as a call on it alone.
    """
    w, v = np.linalg.eigh(s)
    return w[..., ::-1], v[..., ::-1]


def sqrtm_spd(p) -> np.ndarray:
    """Symmetric square root of an SPD matrix via eigendecomposition.

    `p` is checked for symmetry (to 1e-10 relative) and symmetrized.  The
    output is symmetrized in storage so that callers may rely on G == G.T
    exactly.
    """
    return sqrtm_spd_kernel(require_symmetric(as_matrix(p), tol=1e-10))


def sqrtm_spd_kernel(s) -> np.ndarray:
    """sqrtm_spd without the symmetry check, for flows whose states are
    already exactly symmetric (see eigh_desc).  Still raises unless `s` is
    positive definite."""
    lam, u = eigh_desc(s)
    if lam[-1] <= 0.0:
        raise ValueError("square root needs a positive definite matrix")
    return sym_part((u * np.sqrt(lam)) @ u.T)


def solve_lyapunov(p, b) -> np.ndarray:
    """Solve P X + X P = B for X, with P symmetric positive definite.

    Parameters
    ----------
    p : (k, k) array, SPD and exactly symmetric (not checked; see eigh_desc)
    b : (k, k) array

    Returns
    -------
    x : (k, k) array
        In the eigenbasis of P the solution is elementwise:
        x_ij = b_ij / (lam_i + lam_j).  If `b` is exactly symmetric (or
        exactly skew) the output is canonicalized to the same storage class,
        which the true solution belongs to.

    Raises
    ------
    ValueError
        If P is not SPD; lam_i + lam_j may then vanish and the pencil is
        singular.
    """
    b = as_matrix(b)
    lam, u = eigh_desc(as_matrix(p))
    if lam[-1] <= TAU_SPD * max(lam[0], 0.0) or lam[-1] <= 0.0:
        raise ValueError("Lyapunov solve needs a positive definite coefficient")
    bt = u.T @ b @ u
    x = u @ (bt / np.add.outer(lam, lam)) @ u.T
    # the exact solution inherits b's symmetry class; canonicalize storage
    if np.array_equal(b, b.T):
        x = sym_part(x)
    elif np.array_equal(b, -b.T):
        x = skew_part(x)
    return x


def fd_gradient(f, m) -> np.ndarray:
    """Entrywise central-difference gradient of a scalar field on matrices.

    Parameters
    ----------
    f : callable
        Maps an (n, k) array to a finite float.
    m : (n, k) array
        Point at which to differentiate.

    Returns
    -------
    g : (n, k) array with g[a, b] = (f(m + h E_ab) - f(m - h E_ab)) / (2 h),
        with the step h = 1e-5 * (1 + max|m|).
    """
    m = as_matrix(m)
    h = 1e-5 * (1.0 + float(np.abs(m).max()))
    g = np.empty_like(m)
    pert = m.copy()
    for a in range(m.shape[0]):
        for b in range(m.shape[1]):
            orig = pert[a, b]
            pert[a, b] = orig + h
            fp = f(pert)
            pert[a, b] = orig - h
            fm = f(pert)
            pert[a, b] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise ValueError(f"non-finite field value at entry ({a}, {b})")
            g[a, b] = (fp - fm) / (2.0 * h)
    return g


@dataclass(frozen=True)
class LieBasis:
    """An ordered basis of a matrix Lie algebra."""

    name: str
    mats: tuple

    @property
    def dim(self) -> int:
        return len(self.mats)

    @cached_property
    def _stacked(self) -> np.ndarray:
        return np.stack(self.mats)

    def combine(self, coeffs) -> np.ndarray:
        """Linear combination sum_a coeffs[..., a] * mats[a] over any leading
        axes of coeffs."""
        return np.einsum("...a,aij->...ij", np.asarray(coeffs, dtype=np.float64),
                         self._stacked)


def so_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def so_basis(n: int) -> LieBasis:
    """Frobenius-orthonormal basis of the skew matrices: (E_ij - E_ji)/sqrt(2)."""
    if n < 2:
        raise ValueError(f"so(n) needs n >= 2; got n={n}")
    mats = []
    for i, j in so_pairs(n):
        a = np.zeros((n, n))
        a[i, j] = 1.0 / np.sqrt(2.0)
        a[j, i] = -1.0 / np.sqrt(2.0)
        mats.append(a)
    return LieBasis(name=f"so({n})", mats=tuple(mats))


def sl2_basis() -> LieBasis:
    """Traceless 2x2 basis (symmetric off-diag, diagonal, rotation generator).

    The three matrices are orthonormal for the inner product in which the
    hyperbolic-plane projection of the group diffusion is standard Brownian
    motion; the rotation generator spans the stabilizer of the base point.
    """
    x = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    y = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]])
    z = 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]])
    return LieBasis(name="sl2", mats=(x, y, z))
