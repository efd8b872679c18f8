"""Integration kernel: deterministic noise streams, one Euler-Maruyama
stepper with state guards for one path or a batch of paths, the RK4 used by
the deterministic flows, and a quadratic-variation oracle.

Noise determinism contract: the standard normal attached to
(seed, stream, path, step, entry) is a pure function of those indices,
realized through a counter-based bit generator.  It does not depend on how
many paths are simulated or on evaluation order.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .matcore import mT, sym_part

_U64_SHIFT = np.uint64(11)
_U64_SCALE = 2.0 ** -53


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t0 + m * dt, m = 0..steps."""

    t0: float
    dt: float
    steps: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * self.steps

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)

    @classmethod
    def regular(cls, t_end: float, dt: float, t0: float = 0.0) -> "TimeGrid":
        """Grid from t0 to t_end; (t_end - t0) / dt must be a positive whole
        number to 1e-9 (relative), so the grid never ends short of or past
        t_end."""
        ratio = (t_end - t0) / dt
        steps = int(round(ratio))
        if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
            raise ValueError(f"t={t_end:g} is not a whole number of dt={dt:g} steps "
                             f"from t0={t0:g} (ratio {ratio:.12g})")
        return cls(t0=t0, dt=dt, steps=steps)


class NoiseSource:
    """Counter-based standard-normal supply keyed by (seed, stream).

    Step m's words come from the Philox stream keyed (seed, stream) whose
    counter's last word is m; they are read in blocks of four, block b at
    counter [b + 1, 0, 0, m].  Path p owns the contiguous words
    [p * count, (p + 1) * count) of every step, which the inverse normal CDF
    maps to normals.  Philox is counter-based, so a path's words are addressed
    directly: one generator per path starts at the block holding word
    p * count and, for each step, moves to that step's counter and reads
    p * count % 4 + count words, dropping the leading p * count % 4.  A draw
    costs O(count) per step whatever p is, and earlier paths' values never
    depend on how many paths are drawn.
    """

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0 or stream < 0:
            raise ValueError("seed and stream must be non-negative")
        self.seed = int(seed)
        self.stream = int(stream)

    def _generator(self, path: int, step: int, count: int) -> tuple:
        """Philox generator whose next word, after dropping the returned
        skip, is word path * count of step `step`; returns (generator, skip)."""
        start = path * count
        # numpy generates the first block at counter + 1, so this counter
        # makes block start // 4 the first one read
        bg = np.random.Philox(key=[self.seed, self.stream], counter=[start // 4, 0, 0, step])
        return bg, start % 4

    @staticmethod
    def _to_normal(words: np.ndarray) -> np.ndarray:
        u = ((words >> _U64_SHIFT).astype(np.float64) + 0.5) * _U64_SCALE
        return ndtri(u)

    def normals(self, path: int, step: int, count: int) -> np.ndarray:
        """Standard normals for one (path, step); shape (count,)."""
        bg, skip = self._generator(path, step, count)
        return self._to_normal(bg.random_raw(skip + count)[skip:])

    def path_normals(self, path: int, steps: int, count: int) -> np.ndarray:
        """Standard normals of one path at steps 0..steps-1 from one
        generator; shape (steps, count).  Row m is bit-identical to
        normals(path, m, count)."""
        bg, skip = self._generator(path, 0, count)
        state = bg.state  # taken with an empty buffer, so every reset drops buffered words
        words = np.empty((steps, count), dtype=np.uint64)
        for m in range(steps):
            state["state"]["counter"][3] = m
            bg.state = state
            words[m] = bg.random_raw(skip + count)[skip:]
        return self._to_normal(words)

    def normals_block(self, step: int, n_paths: int, count: int) -> np.ndarray:
        """Standard normals for paths 0..n_paths-1 at one step; shape
        (n_paths, count).  Row p is bit-identical to normals(p, step, count)."""
        if count == 0:
            return np.empty((n_paths, 0))
        words = self._generator(0, step, count)[0].random_raw(n_paths * count)
        return self._to_normal(words).reshape(n_paths, count)


@dataclass
class SdeProblem:
    """Problem description for `integrate` and `integrate_batch`.

    drift(t, x) -> array or None; diffusion(t, x, dw) -> array or None (the
    whole noise increment of one step, not a coefficient: b(x) dw for an Ito
    equation, or a group step such as X (cay(dW) - I)); noise_shape is the
    shape of dw per step.  guard(x) -> bool is checked on every proposed
    state; on failure the path stops at the last valid state rather than
    clamping.  For `integrate_batch` every function must also accept states
    with a leading path axis, and the guard then returns one bool per path.
    """

    x0: np.ndarray
    drift: object = None
    diffusion: object = None
    noise_shape: tuple = ()
    guard: object = None
    guard_name: str = "state guard"
    post_step: object = None  # optional state correction applied before the guard

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=np.float64)


@dataclass
class Path:
    """A single realized trajectory on a uniform grid.

    If the guard tripped, `stopped_step` is the index of the first rejected
    step and times/states end at the last valid state.
    """

    times: np.ndarray
    states: np.ndarray
    path_index: int = 0
    stopped_step: int | None = None
    stop_reason: str | None = None

    @property
    def stopped(self) -> bool:
        return self.stopped_step is not None

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _advance(problem: SdeProblem, t: float, x: np.ndarray, dw,
             dt: float) -> np.ndarray:
    """One Euler-Maruyama step from x, then post_step.  x may carry leading
    batch axes; the arithmetic is the same either way.

        x' = x + drift(t, x) dt + diffusion(t, x, dw)
    """
    nxt = x
    if problem.drift is not None:
        nxt = nxt + problem.drift(t, x) * dt
    if problem.diffusion is not None:
        nxt = nxt + problem.diffusion(t, x, dw)
    if problem.post_step is not None:
        nxt = problem.post_step(nxt)
    return nxt


def _check_source(problem: SdeProblem, source) -> None:
    if problem.noise_shape and source is None:
        raise ValueError("problem has noise but no noise source was given")


def integrate(problem: SdeProblem, grid: TimeGrid, source: NoiseSource | None = None,
              path_index: int = 0) -> Path:
    """Integrate one path of the problem over the grid (see `_advance`).

    The path's increments for every step are drawn before the loop, with one
    `NoiseSource.path_normals` call (one generator for the path); step m uses
    row m, which equals normals(path_index, m, count) scaled by sqrt(dt).
    """
    _check_source(problem, source)
    x = problem.x0.copy()
    states = np.empty((grid.steps + 1,) + x.shape)
    states[0] = x
    times = grid.times()
    dws = None
    if problem.noise_shape:
        count = int(np.prod(problem.noise_shape))
        dws = (np.sqrt(grid.dt) * source.path_normals(path_index, grid.steps, count)
               ).reshape((grid.steps,) + problem.noise_shape)
    for m in range(grid.steps):
        dw = None if dws is None else dws[m]
        nxt = _advance(problem, times[m], x, dw, grid.dt)
        if problem.guard is not None and not problem.guard(nxt):
            return Path(times=times[: m + 1], states=states[: m + 1], path_index=path_index,
                        stopped_step=m, stop_reason=problem.guard_name)
        x = nxt
        states[m + 1] = x
    return Path(times=times, states=states, path_index=path_index)


def integrate_batch(problem: SdeProblem, grid: TimeGrid, source: NoiseSource | None,
                    n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Final states of paths 0..n_paths-1 and the mask of paths that never
    tripped the guard; only the current states are kept.

    The problem's drift, diffusion, guard and post_step receive the states
    with a leading path axis.  Row p draws the noise of path p, so it equals
    integrate(problem, grid, source, p).final bit for bit as long as the
    problem's functions give the same bits on a batch as on one slice.  A path
    whose guard trips keeps its last valid state.
    """
    _check_source(problem, source)
    x = np.broadcast_to(problem.x0, (n_paths,) + problem.x0.shape).copy()
    alive = np.ones(n_paths, dtype=bool)
    count = int(np.prod(problem.noise_shape))
    times = grid.times()
    for m in range(grid.steps):
        dw = None
        if problem.noise_shape:
            z = source.normals_block(m, n_paths, count)
            dw = (np.sqrt(grid.dt) * z).reshape((n_paths,) + problem.noise_shape)
        nxt = _advance(problem, times[m], x, dw, grid.dt)
        if problem.guard is not None:
            alive &= problem.guard(nxt)
            if not alive.all():
                nxt = np.where(alive.reshape((-1,) + (1,) * (x.ndim - 1)), nxt, x)
        x = nxt
    return x, alive


def rk4(f, x0: np.ndarray, duration, steps: int) -> np.ndarray:
    """Classical RK4 for a symmetric-matrix flow dP/dt = f(P); every stage
    and step is symmetrized, so f only ever sees exactly symmetric input
    after x0.  Returns the states at the steps+1 grid points, time axis
    first.

    x0 may carry leading stack axes, which f must then accept.  `duration`
    is one float for every matrix, or one per matrix (shape x0.shape[:-2]);
    each matrix steps by h = duration / steps, broadcast as (..., 1, 1).
    The products h * k are elementwise, so every matrix of a stack gets the
    same bits as a run on it alone with its own scalar duration.
    """
    h = np.asarray(duration, dtype=np.float64)[..., None, None] / steps
    half, sixth = 0.5 * h, h / 6.0
    states = np.empty((steps + 1,) + x0.shape)
    states[0] = x0
    p = x0
    for m in range(steps):
        k1 = f(p)
        k2 = f(sym_part(p + half * k1))
        k3 = f(sym_part(p + half * k2))
        k4 = f(sym_part(p + h * k3))
        p = sym_part(p + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        states[m + 1] = p
    return states


@dataclass(frozen=True)
class QvEstimate:
    """Monte Carlo estimate of quadratic-variation contractions of a diffusion.

    outer ~ E[dX dX^T] / dt, inner ~ E[dX^T dX] / dt, and for square states
    square ~ E[dX dX] / dt.  Each *_se field holds entrywise standard errors.
    """

    outer: np.ndarray
    outer_se: np.ndarray
    inner: np.ndarray
    inner_se: np.ndarray
    square: np.ndarray | None
    square_se: np.ndarray | None
    samples: int


def _add_in_order(s: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """s + terms[0] + terms[1] + ..., added left to right; terms.sum(axis=0)
    would regroup the additions and change the rounding."""
    return np.add.accumulate(np.concatenate((s[None], terms)), axis=0)[-1]


def qv_oracle(diffusion, state, noise_shape, dt: float, samples: int,
              seed: int = 0) -> QvEstimate:
    """Estimate quadratic-variation contractions of `diffusion` at `state`.

    Draws `samples` fresh increments dw ~ N(0, dt) of `noise_shape` from the
    dedicated oracle stream 104729 of `seed`, forms
    dX = diffusion(0, state, dw), and averages dX dX^T / dt (and the
    transposed/product contractions).  Standard errors shrink as
    samples^(-1/2).

    Sample b takes row b % 4096 of normals_block at step b // 4096.  As in
    `integrate_batch`, `diffusion` receives a leading sample axis on both
    `state` and `dw` (slices of at most 512 samples) and must give the same
    bits on a slice as on one sample.  The running sums add the samples in
    index order, so the estimate does not depend on the slice size.
    """
    if samples < 1:
        raise ValueError(f"qv_oracle needs samples >= 1; got samples={samples}")
    if not dt > 0.0:
        raise ValueError(f"qv_oracle needs dt > 0; got dt={dt:g}")
    source = NoiseSource(seed, stream=104729)
    state = np.asarray(state, dtype=np.float64)
    nr, nc = state.shape
    sq = nr == nc
    # running sums of dX dX^T, dX^T dX and (square states) dX dX over dt,
    # and of their squares
    sums = [np.zeros((nr, nr)), np.zeros((nc, nc))] + ([np.zeros((nr, nc))] if sq else [])
    sums2 = [np.zeros_like(a) for a in sums]
    count = int(np.prod(noise_shape))
    block, piece = 4096, 512
    done = 0
    step = 0
    while done < samples:
        take = min(block, samples - done)
        z = source.normals_block(step, take, count) * np.sqrt(dt)
        for lo in range(0, take, piece):
            dw = z[lo:lo + piece].reshape((-1,) + tuple(noise_shape))
            dx = diffusion(0.0, np.broadcast_to(state, (len(dw), nr, nc)), dw)
            dxt = mT(dx)
            terms = [dx @ dxt / dt, dxt @ dx / dt] + ([dx @ dx / dt] if sq else [])
            sums = [_add_in_order(s, t) for s, t in zip(sums, terms)]
            sums2 = [_add_in_order(s, t * t) for s, t in zip(sums2, terms)]
        done += take
        step += 1
    n = float(samples)

    def moments(s, s2):
        mean = s / n
        var = np.maximum(s2 / n - mean * mean, 0.0)
        return mean, np.sqrt(var / n)

    est = [moments(s, s2) for s, s2 in zip(sums, sums2)] + [(None, None)]
    (outer, outer_se), (inner, inner_se), (square, square_se) = est[:3]
    return QvEstimate(outer=outer, outer_se=outer_se, inner=inner, inner_se=inner_se,
                      square=square, square_se=square_se, samples=samples)
