"""Controllability layer: the eigenvalue interaction field, its Jacobian and
sum-of-squares certificate, schedule integration, and a reachability probe
along commuting controls.

The central object is the vector field
    alpha(lam)_i = sum_{j != i} 1 / (lam_i + lam_j)
on descending positive spectra; the matrix controls realize directions
M V diag(alpha) V^T M^T at a base point P = M M^T.

alpha and alpha_from_pairs are sequential routes, compared bit for bit;
alpha_jacobian, alpha_sos and alpha_sos_sum take leading stack axes, and
each spectrum of a stack gets the bits of a call on it alone.
"""

from dataclasses import dataclass

import numpy as np

from .matcore import (add_in_order, as_matrix, mT, pair_index, require_spd,
                      sqrtm_spd_kernel, sym_part)
from .geom import MetricR, quotient_flow
from .reporting import parse_entries
from .sde import Path, require_count, rk4


def alpha(lam) -> np.ndarray:
    """Interaction field alpha(lam)_i = sum_{j != i} 1/(lam_i + lam_j).

    Summation runs over j ascending so that the cone-sum route
    (alpha_from_pairs) accumulates the identical floating-point values.
    """
    lam = np.asarray(lam, dtype=np.float64)
    n = lam.shape[0]
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            if j != i:
                acc += 1.0 / (lam[i] + lam[j])
        out[i] = acc
    return out


def alpha_from_pairs(lam) -> np.ndarray:
    """Cone-sum route: alpha(lam) = sum_{i<j} (e_i + e_j) / (lam_i + lam_j).

    Exhibits alpha as a strictly positive combination of the cone generators
    e_i + e_j; agrees with `alpha` exactly (same additions, same order).
    """
    lam = np.asarray(lam, dtype=np.float64)
    n = lam.shape[0]
    out = np.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            w = 1.0 / (lam[i] + lam[j])
            out[i] += w
            out[j] += w
    return out


def alpha_jacobian(lam) -> np.ndarray:
    """Closed-form Jacobian of alpha.

    d_alpha[i, j] = -1/(lam_i + lam_j)^2 for i != j and
    d_alpha[i, i] = -sum_{j != i} 1/(lam_i + lam_j)^2, summed over ascending
    j.  Negative semidefinite always; singular for n = 2 (row sums vanish)
    and negative definite for n >= 3.  `lam` may carry leading stack axes;
    each spectrum gets the bits of a call on it alone.
    """
    lam = np.asarray(lam, dtype=np.float64)
    off = ~np.eye(lam.shape[-1], dtype=bool)
    w = np.where(off, 1.0 / (lam[..., :, None] + lam[..., None, :]) ** 2, 0.0)
    diag = add_in_order(np.zeros(lam.shape), np.moveaxis(w, -1, 0))
    return np.where(off, -w, -diag[..., None])


def alpha_sos(lam) -> np.ndarray:
    """Sum-of-squares factors for the Jacobian: -d_alpha = sum_k M_k M_k^T,
    as one (n - 1, ..., n, n) array over lam's leading stack axes.

    M_k is supported on rows k..n-1: row k holds 1/(lam_k + lam_j) in
    column j for j > k, and each row j > k holds the same value on its own
    diagonal position.  rank(M_k) = n - 1 - k (zero-based), so the ladder
    certifies negative definiteness for n >= 3 and the rank-one defect at
    n = 2.
    """
    lam = np.asarray(lam, dtype=np.float64)
    n = lam.shape[-1]
    i, j, _ = pair_index(n)
    w = np.moveaxis(1.0 / (lam[..., i] + lam[..., j]), -1, 0)
    mats = np.zeros((n - 1,) + lam.shape + (n,))
    mats[i, ..., i, j] = mats[i, ..., j, j] = w
    return mats


def alpha_sos_sum(lam) -> np.ndarray:
    """Assembled certificate sum_k M_k M_k^T (should equal -alpha_jacobian),
    added in ladder order, over lam's leading stack axes."""
    mats = alpha_sos(lam)
    return add_in_order(np.zeros(mats.shape[1:]), mats @ mT(mats))


@dataclass(frozen=True)
class ScheduleSegment:
    """One piecewise-constant control: hold the metric R for `duration`."""

    duration: float
    R: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"segment duration must be finite and positive; "
                             f"got {self.duration}")
        object.__setattr__(self, "R", require_spd(self.R))


@dataclass(frozen=True)
class ControlSchedule:
    """A finite sequence of piecewise-constant metric controls."""

    segments: tuple

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))


def parse_schedule(text: str) -> ControlSchedule:
    """Parse the schedule file format.

    One segment per line: `duration; R = [r11, r12, ..., rnn]` with the n^2
    entries row-major, or `G = [...]` for a factor (the metric is then
    G^T G).  `#` starts a comment and blank lines are skipped; the entries
    keep `reporting.parse_entries`'s rule, so `[]` holds one empty entry.
    """
    segments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            dur_part, mat_part = line.split(";", 1)
            duration = float(dur_part.strip())
            name, payload = mat_part.split("=", 1)
            name = name.strip()
            if name not in ("R", "G"):
                raise ValueError(f"expected R or G, got {name!r}")
            payload = payload.strip()
            if not (payload.startswith("[") and payload.endswith("]")):
                raise ValueError("matrix entries must be bracketed")
            entries = parse_entries(payload[1:-1])
            n = int(round(np.sqrt(entries.size)))
            if n * n != entries.size:
                raise ValueError(f"{entries.size} entries do not form a square matrix")
            mat = entries.reshape(n, n)
            r = mat.T @ mat if name == "G" else mat
            segments.append(ScheduleSegment(duration=duration, R=r))
        except ValueError as exc:
            raise ValueError(f"schedule line {lineno}: {exc}") from exc
    if not segments:
        raise ValueError("schedule contains no segments")
    return ControlSchedule(segments=tuple(segments))


def load_schedule(path) -> ControlSchedule:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schedule(fh.read())


def check_control_inputs(p0, schedule, substeps: int) -> tuple:
    """Validate `integrate_control`'s arguments before any step is taken;
    returns (single, schedules, starts) with the starts as an SPD (B, n, n)
    stack and one schedule per start whose segments all fit n."""
    require_count(substeps, "substeps")
    single = isinstance(schedule, ControlSchedule)
    schedules = [schedule] if single else list(schedule)
    starts = require_spd(p0)
    if single:
        starts = starts[None]
    if starts.ndim != 3 or starts.shape[0] != len(schedules):
        raise ValueError(f"integrate_control needs one (n, n) start with one schedule "
                         f"or a (B, n, n) stack with B schedules; got a start of shape "
                         f"{np.shape(p0)} with {len(schedules)} schedule(s)")
    n = starts.shape[-1]
    for b, sched in enumerate(schedules):
        for k, seg in enumerate(sched.segments, start=1):
            if seg.R.shape != (n, n):
                where = f"segment {k}" if single else f"schedule {b} segment {k}"
                raise ValueError(f"{where} holds a {seg.R.shape[0]}x{seg.R.shape[1]} R, "
                                 f"but the start is {n}x{n}")
    return single, schedules, starts


def integrate_control(p0, schedule, substeps: int = 64) -> Path | list[Path]:
    """RK4 integration of dP/dt = drift under the scheduled metrics.

    Each segment holds its metric constant for `substeps` RK4 steps of
    geom.quotient_flow.  Every Loewner increment of the exact flow is
    positive definite, so consecutive saved states satisfy
    P(t2) - P(t1) > 0 up to integrator rounding.

    `p0` is one (n, n) start with one ControlSchedule, which returns a Path,
    or a (B, n, n) stack with a sequence of B schedules, which returns a
    list of B Paths.  Both run the same loop, the single start as a batch of
    one: segment index s runs every row whose schedule has an s-th segment
    as one stacked flow (one eigh_desc), each row with its own duration and
    metric factors, and row b gets the bits, states and times, of a single
    call with its own start and schedule.  `check_control_inputs` validates.
    """
    single, schedules, starts = check_control_inputs(p0, schedule, substeps)

    counts = np.array([len(sched.segments) for sched in schedules])
    times = [[np.zeros(1)] for _ in schedules]
    states = [[start[None]] for start in starts]
    p = starts.copy()  # the saved starts must not see the updates below
    t = np.zeros(len(schedules))
    for s in range(counts.max()):
        rows = np.flatnonzero(counts > s)
        segs = [schedules[b].segments[s] for b in rows]
        metrics = [MetricR(seg.R) for seg in segs]
        g = np.stack([m.factor for m in metrics])
        g_inv = np.stack([m.factor_inv for m in metrics])
        duration = np.array([seg.duration for seg in segs])
        seg_states = quotient_flow(p[rows], duration, substeps, g, g_inv)[1:]
        # t += h step by step, left to right, as a scalar loop would add
        h = np.broadcast_to(duration / substeps, (substeps, rows.size))
        seg_times = np.add.accumulate(np.concatenate((t[None, rows], h)), axis=0)[1:]
        for i, b in enumerate(rows):
            times[b].append(seg_times[:, i])
            states[b].append(seg_states[:, i])
        p[rows] = seg_states[-1]
        t[rows] = seg_times[-1]
    paths = [Path(times=np.concatenate(ts), states=np.concatenate(xs))
             for ts, xs in zip(times, states)]
    return paths[0] if single else paths


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of a reachability probe along commuting controls.

    log_gain is the achieved change of log-eigenvalues in the probe frame;
    target is the requested cone vector.  loewner_min is the smallest
    eigenvalue of endpoint - start (should be nonnegative up to rounding).
    """

    endpoint: np.ndarray
    target: np.ndarray
    log_gain: np.ndarray
    log_gain_error: float
    frame_offdiag: float
    loewner_min: float
    duration: float


def reach_probe(p0, u, cone_coeffs) -> ProbeReport:
    """Drive P along commuting controls toward a cone direction.

    cone_coeffs[(i, j)] >= 0 weight the generators e_i + e_j of the target
    log-spectrum move sum c_ij (e_i + e_j) in the frame u.  Each active pair
    runs for unit duration (256 RK4 steps) with the control spectrum
    (1/(2 c_ij)) on the pair and 1e8 elsewhere, making the realized
    interaction field approximate c_ij (e_i + e_j); the probe's duration is
    the number of active pairs.  All controls share the eigenframe u, so the
    flow stays diagonal in that frame and the eigenvalue logs integrate the
    interaction field directly.
    """
    p0 = require_spd(as_matrix(p0))
    n = p0.shape[0]
    u = as_matrix(u)
    target = np.zeros(n)
    legs = []
    for (i, j), c in sorted(cone_coeffs.items()):
        if c < 0:
            raise ValueError("cone coefficients must be nonnegative")
        if c == 0:
            continue
        if not 0 <= i < j < n:
            raise ValueError(f"bad pair ({i}, {j})")
        target[i] += c
        target[j] += c
        legs.append((i, j, c))

    p = p0
    for (i, j, c) in legs:
        mu = np.full(n, 1e8)
        mu[i] = mu[j] = 1.0 / (2.0 * c)
        cmat = (u * alpha(mu)) @ u.T

        def fdir(q):
            # p0 and the values are exactly symmetric, so every stage is too
            m = sqrtm_spd_kernel(q)
            return sym_part(m @ cmat @ m.T)

        p = rk4(fdir, p, 1.0, 256)[-1]

    # express the endpoint in the probe frame to read off eigenvalue moves
    in_frame = u.T @ p @ u
    diag = np.diagonal(in_frame)
    off = in_frame - np.diag(diag)
    frame_offdiag = float(np.abs(off).max() / max(np.abs(diag).max(), 1e-300))
    lam0_frame = np.diagonal(u.T @ p0 @ u)
    log_gain = np.log(np.maximum(diag, 1e-300)) - np.log(np.maximum(lam0_frame, 1e-300))
    log_err = float(np.abs(log_gain - target).max())
    loewner_min = float(np.linalg.eigvalsh(sym_part(p - p0))[0]) if legs else 0.0
    return ProbeReport(endpoint=p, target=target, log_gain=log_gain,
                       log_gain_error=log_err, frame_offdiag=frame_offdiag,
                       loewner_min=loewner_min, duration=float(len(legs)))
