"""Integration kernel: deterministic noise streams, one Euler-Maruyama
stepper with state guards for a batch of paths (one path is a batch of one),
the RK4 used by the deterministic flows, and a quadratic-variation oracle
with its named kinds.

Noise determinism contract: the standard normal attached to
(seed, stream, path, step, entry) is a pure function of those indices,
realized through a counter-based bit generator.  It does not depend on how
many paths are simulated or on evaluation order.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .matcore import add_in_order, mT, so_basis

_U64_SHIFT = np.uint64(11)
_U64_SCALE = 2.0 ** -53
_U_MAX = np.nextafter(1.0, 0.0)


def require_count(value, name: str = "steps") -> int:
    """A count of steps or samples as an int: an integer >= 1, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1; got {name}={value!r}")
    return int(value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid m * dt, m = 0..steps, from t = 0."""

    dt: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive; got dt={self.dt:g}")
        require_count(self.steps)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

    @classmethod
    def regular(cls, t_end: float, dt: float) -> "TimeGrid":
        """Grid from 0 to t_end; t_end / dt must be a positive whole number
        to 1e-9 (relative), so the grid never ends short of or past t_end."""
        if not (np.isfinite(t_end) and np.isfinite(dt) and dt > 0.0):
            raise ValueError(f"need a finite t and a finite dt > 0; got t={t_end:g}, dt={dt:g}")
        ratio = t_end / dt
        if not np.isfinite(ratio):
            raise ValueError(f"t={t_end:g} / dt={dt:g} overflows (ratio {ratio:g})")
        steps = int(round(ratio))
        if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
            raise ValueError(f"t={t_end:g} is not a whole number of dt={dt:g} steps "
                             f"(ratio {ratio:.12g})")
        return cls(dt=dt, steps=steps)


def _word(name: str, value) -> int:
    """A Philox key or counter word as an int: an integer in [0, 2^64), not a bool."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and 0 <= value < 2 ** 64):
        raise ValueError(f"a noise key is an integer in [0, 2^64); got {name}={value!r}")
    return int(value)


class NoiseSource:
    """Counter-based standard-normal supply keyed by (seed, stream).

    Step m's words come from the Philox stream keyed (seed, stream) whose
    counter's last word is m; they are read in blocks of four, block b at
    counter [b + 1, 0, 0, m].  Path p owns the contiguous words
    [p * count, (p + 1) * count) of every step, which the inverse normal CDF
    maps to normals: word w becomes u = ((w >> 11) + 0.5) 2^-53, which rounds
    to 1.0 for the 2^11 words w >= 2^64 - 2^11 and is clamped to the largest
    double below 1 so that no word maps to an infinite normal; every other
    word keeps its bits.  Philox is counter-based, so any window of paths and
    steps is addressed directly: `normals_block` starts one generator at the
    block holding word first * count and, for each step, moves it to that
    step's counter and reads the window's words plus the first * count % 4
    before them, which it drops.  A draw costs O(paths * count) per step
    whatever `first` is, and no value depends on how many paths or steps are
    drawn with it.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed, self.stream = _word("seed", seed), _word("stream", stream)

    def _generator(self, path: int, step: int, count: int, n_paths: int = 1,
                   steps: int = 1) -> tuple:
        """Philox generator whose next word, after dropping the returned
        skip, is word path * count of step `step`; returns (generator, skip).
        The last block and step of the draw it starts must fit in 64 bits."""
        path, step = _word("path", path), _word("step", step)
        if -((path + n_paths) * count // -4) >= 2 ** 64 or step + steps > 2 ** 64:
            raise ValueError(f"{n_paths} path(s) from path={path} and {steps} step(s) from "
                             f"step={step} of {count} word(s) pass the 64-bit Philox counter")
        start = path * count
        # numpy generates the first block at counter + 1, so this counter
        # makes block start // 4 the first one read; the words go in as
        # uint64, since numpy reads a list holding one >= 2^63 as float64
        bg = np.random.Philox(key=np.array([self.seed, self.stream], dtype=np.uint64),
                              counter=np.array([start // 4, 0, 0, step], dtype=np.uint64))
        return bg, start % 4

    @staticmethod
    def _to_normal(words: np.ndarray) -> np.ndarray:
        u = ((words >> _U64_SHIFT).astype(np.float64) + 0.5) * _U64_SCALE
        return ndtri(np.minimum(u, _U_MAX, out=u))

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
        bg, skip = self._generator(first, step, count, n_paths, steps)
        if count == 0:
            return np.empty((steps, n_paths, 0))
        state = bg.state  # taken with an empty buffer, so every reset drops buffered words
        words = np.empty((steps, n_paths * count), dtype=np.uint64)
        for m in range(steps):
            state["state"]["counter"][3] = step + m
            bg.state = state
            words[m] = bg.random_raw(skip + n_paths * count)[skip:]
        return self._to_normal(words).reshape(steps, n_paths, count)


class NoiseBlock:
    """The normals of paths first..first+n_paths-1 at steps 0..steps-1,
    drawn by one `source.normals_block` call.  Its `normals_block` answers a
    window inside that draw by slicing, with the bits of the source's own
    draw, so it stands in for the source in `integrate`."""

    def __init__(self, source: NoiseSource, first: int, n_paths: int, count: int,
                 steps: int):
        self.first = first
        self.z = source.normals_block(0, n_paths, count, first, steps)

    def normals_block(self, step: int, n_paths: int, count: int, first: int = 0,
                      steps: int = 1) -> np.ndarray:
        lo = first - self.first
        if (count != self.z.shape[2] or lo < 0 or lo + n_paths > self.z.shape[1]
                or step < 0 or step + steps > self.z.shape[0]):
            raise ValueError(f"{n_paths} path(s) from {first}, {steps} step(s) from {step}, "
                             f"count {count}: outside the block {self.z.shape} from {self.first}")
        return self.z[step:step + steps, lo:lo + n_paths]


@dataclass
class SdeProblem:
    """Problem description for `integrate` and `integrate_batch`.

    drift(t, x) -> array or None; diffusion(t, x, dw) -> array or None (the
    whole noise increment of one step, not a coefficient: b(x) dw for an Ito
    equation, or a group step such as X (cay(dW) - I)); noise_shape is the
    shape of dw per step.  x0 is one state, but every function receives
    states (and dw) with a leading path axis, one row per live path, even
    for a lone path, and must give each row the bits it would give that row
    alone.  guard(x) returns one bool per row and is checked on every
    proposed state; a row that fails stops at its last valid state rather
    than being clamped, and the rows shrink to the paths still running.
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
    stopped_step: int | None = None
    stop_reason: str | None = None

    @property
    def stopped(self) -> bool:
        return self.stopped_step is not None

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


# the Euler loop draws its noise max(1, _WINDOW_WORDS // (paths * count))
# steps at a time, and `path_chunks` draws whole runs of paths within the
# same budget; every value is elementwise, so neither size changes a bit
_WINDOW_WORDS = 2 ** 14


def _euler(problem: SdeProblem, grid: TimeGrid, source: NoiseSource | None,
           first: int, n_paths: int, keep: bool) -> tuple:
    """The one Euler-Maruyama loop behind `integrate` and `integrate_batch`:

        x' = post_step(x + drift(t, x) dt + diffusion(t, x, dw))

    Paths first..first+n_paths-1 are the rows of a leading path axis; step m
    of path p uses dw = sqrt(dt) normals(p, m, count), reshaped to noise_shape
    and drawn in windows of steps by `normals_block`.  A row stops at its
    first rejected step and leaves the live states and the noise window; the
    loop ends when no row is left.  Returns (out, stop): stop[r] is row r's
    first rejected step, or grid.steps if it never stopped.  With `keep`, out
    is the (steps + 1, n_paths, ...) trajectory, unset past each row's stop;
    without, out holds each row's last valid state.
    """
    if problem.noise_shape and source is None:
        raise ValueError("problem has noise but no noise source was given")
    dt, times = grid.dt, grid.times()
    x = np.broadcast_to(problem.x0, (n_paths,) + problem.x0.shape).copy()
    out = np.empty(((grid.steps + 1,) if keep else ()) + x.shape)
    if keep:
        out[0] = x
    stop = np.full(n_paths, grid.steps)
    # the live rows, and the same rows as an index into out and into a
    # window's draw: a slice, so a view, until the first row stops
    live, rows = np.arange(n_paths), slice(None)
    count = int(np.prod(problem.noise_shape))
    window = max(1, _WINDOW_WORDS // max(1, n_paths * count))
    dws = None
    for lo in range(0, grid.steps, window):
        hi = min(lo + window, grid.steps)
        if problem.noise_shape:
            z = source.normals_block(lo, n_paths, count, first, hi - lo)
            dws = (np.sqrt(dt) * z).reshape((hi - lo, n_paths) + problem.noise_shape)[:, rows]
        for m in range(lo, hi):
            nxt = x
            if problem.drift is not None:
                nxt = nxt + problem.drift(times[m], x) * dt
            if problem.diffusion is not None:
                nxt = nxt + problem.diffusion(times[m], x, None if dws is None else dws[m - lo])
            if problem.post_step is not None:
                nxt = problem.post_step(nxt)
            if problem.guard is not None:
                ok = problem.guard(nxt)
                # count_nonzero costs a third of ok.all() on a few rows
                if np.count_nonzero(ok) < len(live):
                    stop[live[~ok]] = m
                    if not keep:
                        out[live[~ok]] = x[~ok]
                    live = rows = live[ok]
                    if not live.size:
                        return out, stop
                    nxt = nxt[ok]
                    dws = None if dws is None else dws[:, ok]
            x = nxt
            if keep:
                out[m + 1, rows] = x
    if not keep:
        out[rows] = x
    return out, stop


def integrate(problem: SdeProblem, grid: TimeGrid, source: NoiseSource | None = None,
              path_index: int = 0) -> Path:
    """Path `path_index` of the problem over the grid: row 0 of a batch of
    one that keeps its trajectory (see `_euler`).  If the guard trips, the
    path ends at its last valid state."""
    states, stop = _euler(problem, grid, source, path_index, 1, keep=True)
    end = int(stop[0])
    stopped = end < grid.steps
    return Path(times=grid.times()[:end + 1], states=states[:end + 1, 0],
                stopped_step=end if stopped else None,
                stop_reason=problem.guard_name if stopped else None)


def integrate_batch(problem: SdeProblem, grid: TimeGrid, source: NoiseSource | None,
                    n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Final states of paths 0..n_paths-1 and the mask of paths that never
    tripped the guard; only the current states are kept (see `_euler`).
    Row p draws the noise of path p, so it equals integrate(problem, grid,
    source, p).final bit for bit when the problem keeps the row contract of
    `SdeProblem`."""
    final, stop = _euler(problem, grid, source, 0, require_count(n_paths, "n_paths"),
                         keep=False)
    return final, stop == grid.steps


def path_chunks(source: NoiseSource, n_paths: int, count: int, steps: int):
    """Split paths 0..n_paths-1 into runs of max(1, _WINDOW_WORDS //
    (steps * count)) paths, the Euler loop's word budget, and yield
    (paths, noise) per run: noise is a `NoiseBlock` drawn for the run's
    `steps` steps, or the source itself for a run of one path.  Each path's
    draws keep their bits, so the split changes no value."""
    size = max(1, _WINDOW_WORDS // max(1, steps * count))
    for lo in range(0, n_paths, size):
        hi = min(lo + size, n_paths)
        yield range(lo, hi), (source if hi - lo == 1
                              else NoiseBlock(source, lo, hi - lo, count, steps))


def rk4(f, x0: np.ndarray, duration, steps: int) -> np.ndarray:
    """Classical RK4 for dx/dt = f(x) with h = duration / steps; returns the
    states at the steps+1 grid points, time axis first.

    x0 may carry leading stack axes, which f must then accept.  `duration`
    is one float, or an array of x0's leading shape with one per stack entry,
    broadcast over the trailing axes.  The products h * k are elementwise, so every entry of
    a stack gets the bits of a run on it alone with its own duration.
    """
    h = np.asarray(duration, dtype=np.float64) / steps
    h = h.reshape(h.shape + (1,) * (x0.ndim - h.ndim))
    half, sixth = 0.5 * h, h / 6.0
    states = np.empty((steps + 1,) + x0.shape)
    states[0] = x = x0
    for m in range(steps):
        k1 = f(x)
        k2 = f(x + half * k1)
        k3 = f(x + half * k2)
        k4 = f(x + h * k3)
        states[m + 1] = x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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
    require_count(samples, "samples")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"qv_oracle needs a finite dt > 0; got dt={dt:g}")
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
            sums = [add_in_order(s, t) for s, t in zip(sums, terms)]
            sums2 = [add_in_order(s, t * t) for s, t in zip(sums2, terms)]
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
                      square=square, square_se=square_se)


QV_KINDS = ("wiener", "skew", "sphere")


def qv_kind(kind: str, n: int, k: int | None = None) -> tuple:
    """The (diffusion, state, noise_shape) that `qv_oracle` takes for a named
    kind: "wiener" is dX = dW at the n x k zero matrix (k = n unless given),
    "skew" is dX = dA = sum_a dw_a so_basis(n)[a] at I, and "sphere" is the
    tangent-projected dX = dW - x x^T dW at the unit point e_1 of R^n."""
    if kind == "wiener":
        k = n if k is None else k
        return (lambda t, s, dw: dw), np.zeros((n, k)), (n, k)
    if kind == "skew":
        basis = so_basis(n)
        return ((lambda t, s, dw: np.einsum("...a,aij->...ij", dw, basis)), np.eye(n),
                (len(basis),))
    if kind == "sphere":
        return (lambda t, s, dw: dw - s @ (mT(s) @ dw)), np.eye(n, 1), (n, 1)
    raise ValueError(f"unknown qv kind {kind!r}; choose from {', '.join(QV_KINDS)}")
