"""Dense matrix kernels: validators, spectral ops, Lyapunov solves, the
in-order adder, finite-difference gradients, the pair index used by the
geometry layer, and the Lie-algebra bases as (d, n, n) generator stacks.

Everything operates on plain float64 ndarrays.  The require_* validators check
a caller's matrix where it enters: sqrtm_spd here, and elsewhere MetricR, the
process builders, the drift routes and the CLI.  eigh_desc and solve_lyapunov
take any leading stack axes, validate nothing and need exactly symmetric
input (as sym_part and require_symmetric leave it), because np.linalg.eigh
reads only the lower triangle.
"""

from functools import cache

import numpy as np

# Shared tolerances, relative to the largest eigenvalue/singular value.
TAU_SPD = 1e-10
TAU_RANK = 1e-8


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array without copying when possible."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def as_matrices(a) -> np.ndarray:
    """as_matrix for any leading stack axes: at least 2-D, float64."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim < 2:
        raise ValueError(f"expected matrices over the last two axes, got shape {m.shape}")
    return m


def mT(a) -> np.ndarray:
    """Transpose over the last two axes of a stack of matrices."""
    return np.asarray(a).swapaxes(-1, -2)


def sym_part(a: np.ndarray) -> np.ndarray:
    """Symmetric part over the last two axes (any leading batch axes)."""
    a = np.asarray(a, dtype=np.float64)
    return 0.5 * (a + mT(a))


def skew_part(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return 0.5 * (a - mT(a))


def require_finite(a) -> np.ndarray:
    """`a` as float64 once it has an entry and every entry is finite; the
    error names an empty array by its shape and the first entry that is not
    finite by its value and index."""
    a = np.asarray(a, dtype=np.float64)
    if not a.size:
        raise ValueError(f"an array of shape {a.shape} has no entries")
    if not np.isfinite(a).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        what = "matrix entry" if a.ndim >= 2 else "entry"
        raise ValueError(f"{what} {float(a[idx])!r} at index {idx} is not finite")
    return a


def _require_class(a, tol: float, sign: int, name: str) -> np.ndarray:
    """`a` as float64 once each matrix equals sign times its transpose to tol
    (relative to that matrix's largest entry, at least 1)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError(f"expected square matrices over the last two axes, got shape {a.shape}")
    # the tolerance test cannot see a non-finite entry: an inf scale passes
    # any deviation, and a NaN deviation passes every comparison; an empty
    # stack of matrices has no entry to check
    if a.size:
        require_finite(a)
    dev = np.abs(a - sign * mT(a))
    # every scale is at least 1, so a deviation within tol passes every
    # matrix without the per-matrix scales
    if dev.max(initial=0.0) > tol:
        bad = dev > tol * np.maximum(np.abs(a).max(axis=(-2, -1), keepdims=True), 1.0)
        if bad.any():
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise ValueError(f"matrix is not {name}: entry {float(a[idx])!r} at index {idx} "
                             f"is off by {float(dev[idx]):.3g}")
    return a


def require_symmetric(a, tol: float = 1e-12) -> np.ndarray:
    """Validate symmetry of each matrix to `tol` (relative to that matrix's
    largest entry, at least 1) and return the symmetrized array.  Takes any
    leading stack axes; a non-square or 0 x 0 input is rejected by shape and
    a non-finite entry by value and index."""
    return sym_part(_require_class(a, tol, 1, "symmetric"))


def require_skew(a, tol: float = 1e-12) -> np.ndarray:
    """require_symmetric for skew-symmetry; returns the skew part."""
    return skew_part(_require_class(a, tol, -1, "skew-symmetric"))


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
    """Solve P X + X P = B for X, with P symmetric positive definite; P and B
    may carry leading stack axes, broadcast against each other.

    P must be exactly symmetric (not checked; see eigh_desc).  In the
    eigenbasis of P the solution is elementwise x_ij = b_ij / (lam_i + lam_j),
    and where a matrix of B is exactly symmetric (or exactly skew) its
    solution is canonicalized to that storage class, which the true solution
    belongs to.  One eigh_desc call takes the whole stack and every product
    is per matrix, so each matrix gets the bits of a call on it alone.
    Raises ValueError if any P is not SPD: lam_i + lam_j may then vanish.
    """
    lam, u = eigh_desc(p)
    # lam is sorted, so this one test also fails wherever lam_min <= 0
    if not (lam[..., -1:] > TAU_SPD * lam[..., :1]).all():
        raise ValueError("Lyapunov solve needs a positive definite coefficient")
    ut, bt = mT(u), mT(b)
    x = u @ ((ut @ b @ u) / (lam[..., :, None] + lam[..., None, :])) @ ut
    # each exact solution inherits its b's symmetry class; canonicalize each
    # matrix's storage, a zero b (in both classes) as symmetric
    sym = np.logical_and.reduce(b == bt, axis=(-2, -1), keepdims=True)
    skew = np.logical_and.reduce(b == -bt, axis=(-2, -1), keepdims=True)
    out = np.where(skew, skew_part(x), x) if skew.any() else x
    return np.where(sym, sym_part(x), out) if sym.any() else out


def add_in_order(s: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """s + terms[0] + terms[1] + ..., added left to right; terms.sum(axis=0)
    would regroup the additions and change the rounding."""
    return np.add.accumulate(np.concatenate((s[None], terms)), axis=0)[-1]


def fd_gradient(f, m) -> np.ndarray:
    """Entrywise central-difference gradient of a scalar field on matrices.

    Parameters
    ----------
    f : callable
        Maps a (count, n, k) stack to its count finite field values, each
        the value at that matrix alone.
    m : (n, k) array
        Point at which to differentiate.

    Returns
    -------
    g : (n, k) array with g[a, b] = (f(m + h E_ab) - f(m - h E_ab)) / (2 h),
        with the step h = 1e-5 * (1 + max|m|).  f is called twice, on the
        n * k forward and the n * k backward points in row-major entry order.
    """
    m = as_matrix(m)
    h = 1e-5 * (1.0 + float(np.abs(m).max()))
    eye = np.eye(m.size, dtype=bool).reshape((m.size,) + m.shape)
    fp = f(np.where(eye, m + h, m))
    fm = f(np.where(eye, m - h, m))
    bad = ~(np.isfinite(fp) & np.isfinite(fm))
    if bad.any():
        a, b = divmod(int(np.argmax(bad)), m.shape[1])
        raise ValueError(f"non-finite field value at entry ({a}, {b})")
    return ((fp - fm) / (2.0 * h)).reshape(m.shape)


@cache
def pair_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (i, j, units): the pairs i < j < n in lexicographic order and
    the stack of E_ij - E_ji over them, the order of so_basis and of every
    fiber frame."""
    i, j = np.triu_indices(n, 1)
    units = np.zeros((len(i), n, n))
    units[np.arange(len(i)), i, j] = 1.0
    units[np.arange(len(i)), j, i] = -1.0
    for a in (i, j, units):
        a.flags.writeable = False
    return i, j, units


def so_basis(n: int) -> np.ndarray:
    """Frobenius-orthonormal basis of the skew matrices, (E_ij - E_ji)/sqrt(2)
    in pair_index order, as one (n(n-1)/2, n, n) generator stack."""
    if n < 2:
        raise ValueError(f"so(n) needs n >= 2; got n={n}")
    return pair_index(n)[2] / np.sqrt(2.0)


def sl2_basis() -> np.ndarray:
    """Traceless 2x2 basis (symmetric off-diag, diagonal, rotation generator)
    as one (3, 2, 2) generator stack.

    The three matrices are orthonormal for the inner product in which the
    hyperbolic-plane projection of the group diffusion is standard Brownian
    motion; the rotation generator spans the stabilizer of the base point.
    """
    return 0.5 * np.array([[[0.0, 1.0], [1.0, 0.0]],
                           [[1.0, 0.0], [0.0, -1.0]],
                           [[0.0, -1.0], [1.0, 0.0]]])
