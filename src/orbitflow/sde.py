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
    maps to normals.  Philox is counter-based, so any window of paths and
    steps is addressed directly: `normals_block` starts one generator at the
    block holding word first * count and, for each step, moves it to that
    step's counter and reads the window's words plus the first * count % 4
    before them, which it drops.  A draw costs O(paths * count) per step
    whatever `first` is, and no value depends on how many paths or steps are
    drawn with it.
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
        """Standard normals for one (path, step); shape (count,).  This is
        the definition `normals_block` reproduces."""
        bg, skip = self._generator(path, step, count)
        return self._to_normal(bg.random_raw(skip + count)[skip:])

    def normals_block(self, step: int, n_paths: int, count: int, first: int = 0,
                      steps: int = 1) -> np.ndarray:
        """Standard normals for paths first..first+n_paths-1 at steps
        step..step+steps-1, from one generator; shape (steps, n_paths, count).
        Entry [m, p] is bit-identical to normals(first + p, step + m, count)."""
        if count == 0:
            return np.empty((steps, n_paths, 0))
        bg, skip = self._generator(first, step, count)
        state = bg.state  # taken with an empty buffer, so every reset drops buffered words
        words = np.empty((steps, n_paths * count), dtype=np.uint64)
        for m in range(steps):
            state["state"]["counter"][3] = step + m
            bg.state = state
            words[m] = bg.random_raw(skip + n_paths * count)[skip:]
        return self._to_normal(words).reshape(steps, n_paths, count)


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


# the Euler loop draws its noise max(1, _WINDOW_WORDS // (paths * count))
# steps at a time; every value is elementwise, so the window changes no bit
_WINDOW_WORDS = 2 ** 14


def _euler(problem: SdeProblem, grid: TimeGrid, source: NoiseSource | None,
           first: int, n_paths: int | None = None) -> tuple:
    """The one Euler-Maruyama loop behind `integrate` and `integrate_batch`:

        x' = post_step(x + drift(t, x) dt + diffusion(t, x, dw))

    Step m of path p uses dw = sqrt(dt) normals(p, m, count), reshaped to
    noise_shape and drawn in windows of steps by `normals_block`.

    With n_paths None, path `first` runs alone with no path axis and the
    trajectory is kept; returns (states, stop), where stop is the first
    rejected step (states past it are unset) or None.  Otherwise paths
    first..first+n_paths-1 run along a leading axis and only the current
    states are kept; returns (final states, alive).  A row whose guard trips
    is frozen by the running alive mask, so it never resumes.
    """
    if problem.noise_shape and source is None:
        raise ValueError("problem has noise but no noise source was given")
    lone = n_paths is None
    rows = 1 if lone else n_paths
    lead = () if lone else (n_paths,)
    x = np.broadcast_to(problem.x0, lead + problem.x0.shape).copy()
    if lone:
        states = np.empty((grid.steps + 1,) + x.shape)
        states[0] = x
    else:
        alive = np.ones(n_paths, dtype=bool)
    count = int(np.prod(problem.noise_shape))
    window = max(1, _WINDOW_WORDS // max(1, rows * count))
    times = grid.times()
    dws = None
    for lo in range(0, grid.steps, window):
        hi = min(lo + window, grid.steps)
        if problem.noise_shape:
            z = source.normals_block(lo, rows, count, first, hi - lo)
            dws = (np.sqrt(grid.dt) * z).reshape((hi - lo,) + lead + problem.noise_shape)
        for m in range(lo, hi):
            dw = None if dws is None else dws[m - lo]
            nxt = x
            if problem.drift is not None:
                nxt = nxt + problem.drift(times[m], x) * grid.dt
            if problem.diffusion is not None:
                nxt = nxt + problem.diffusion(times[m], x, dw)
            if problem.post_step is not None:
                nxt = problem.post_step(nxt)
            if problem.guard is not None:
                ok = problem.guard(nxt)
                if lone:
                    if not ok:
                        return states, m
                else:
                    alive &= ok
                    if not alive.all():
                        nxt = np.where(alive.reshape((-1,) + (1,) * (x.ndim - 1)), nxt, x)
            x = nxt
            if lone:
                states[m + 1] = x
    return (states, None) if lone else (x, alive)


def integrate(problem: SdeProblem, grid: TimeGrid, source: NoiseSource | None = None,
              path_index: int = 0) -> Path:
    """Integrate path `path_index` of the problem over the grid (see
    `_euler`); the path ends at the last valid state if the guard trips."""
    states, stop = _euler(problem, grid, source, path_index)
    times = grid.times()
    if stop is None:
        return Path(times=times, states=states, path_index=path_index)
    return Path(times=times[: stop + 1], states=states[: stop + 1], path_index=path_index,
                stopped_step=stop, stop_reason=problem.guard_name)


def integrate_batch(problem: SdeProblem, grid: TimeGrid, source: NoiseSource | None,
                    n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Final states of paths 0..n_paths-1 and the mask of paths that never
    tripped the guard; only the current states are kept (see `_euler`).

    The problem's drift, diffusion, guard and post_step receive the states
    with a leading path axis, and the guard returns one bool per path.  Row p
    draws the noise of path p, so it equals
    integrate(problem, grid, source, p).final bit for bit as long as the
    problem's functions give the same bits on a batch as on one slice.  A path
    whose guard trips keeps its last valid state to the end of the grid.
    """
    return _euler(problem, grid, source, 0, n_paths)


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

    Sample b takes path b % 4096 of normals_block at step b // 4096.  As in
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
        z = source.normals_block(step, take, count)[0] * np.sqrt(dt)
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
