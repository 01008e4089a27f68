"""Reflecting diffusion with boundary local time, and stochastic path integrals.

Paths follow the driftless reflecting dynamics

    X_{j+1} = X_j + dB_j + (dL_j / 2) * n(foot_j),

where the Euler proposal is projected back to the nearest boundary point
whenever it leaves the domain, and the projection distance, the overshoot,
is the Skorokhod pushing magnitude.  The one boundary increment recorded is

    dL_j = 2 * overshoot_j  (LOCAL_TIME_FACTOR),

so that L carries the surface measure as its occupation (Revuz) measure:
E^x[int f(X) dL] = int int p_t(x, y) f(y) sigma(dy) dt, and under a uniform
start E[L_T] / T -> sigma(dD) / |D| (rate 2 on the unit disk, 3 on the unit
3-ball).  The pushing process that actually appears in the dynamics is dL/2,
and path functionals that need it (e.g. the martingale-residual check) read it so.

Reproducibility.  Path i of a probe draws all of its randomness from a
counter-based Philox stream keyed by (seed, i), seed the probe's: the same
(seed, i) gives the same path bit for bit, independently of batch size,
chunking and the other probes of the run.

The batch engine.  :func:`run_paths` steps a chunk of paths one step at a
time and hands observers a :class:`StepBlock` of k consecutive steps at a
time: the positions, increments, local-time increments, hit masks and
normals of those steps, as views into buffers that the engine reuses,
valid only during the observer's call.  An observer evaluates its data once
per block, on all k m points of a chunk of m paths, and keeps its sums in
step order, so nothing it returns depends on k.  The engine's memory is the
increments of ``block`` steps (min(n_paths, chunk_size) * block * d doubles),
drawn through a tile of 64 paths, plus the buffers of one observer block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain, check_acceptance, outside, project_points

LOCAL_TIME_FACTOR = 2.0  # reported dL per unit of projection overshoot


class StepTooLarge(ValueError):
    """Time step too coarse for the reflection approximation (h_t > (diam/10)^2)."""


# ---------------------------------------------------------------------------
# estimates


@dataclass(frozen=True)
class Estimate:
    """Monte-Carlo estimate of one sample set, as sufficient statistics.

    Stores (n, mean, m2), m2 the sum of squared deviations from the mean,
    taken in two passes over the samples so that the variance stays accurate
    also when the mean is large against the spread; the variance and the
    standard error are derived.
    """

    n_samples: int
    mean: float
    m2: float

    @classmethod
    def from_samples(cls, values) -> "Estimate":
        v = np.asarray(values, dtype=float)
        mean = float(v.sum()) / v.size
        dev = v - mean
        return cls(n_samples=v.size, mean=mean, m2=float((dev * dev).sum()))

    @property
    def variance(self) -> float:
        if self.n_samples < 2:
            return 0.0
        return self.m2 / (self.n_samples - 1)

    @property
    def standard_error(self) -> float:
        if self.n_samples < 2:
            return 0.0
        return math.sqrt(self.variance / self.n_samples)

    def scaled(self, c: float) -> "Estimate":
        return Estimate(self.n_samples, c * self.mean, c * c * self.m2)


# ---------------------------------------------------------------------------
# stored paths


@dataclass
class PathGrid:
    """One stored path on a uniform time grid.

    times: (n+1,), states: (n+1, d) in the closed domain,
    brownian_increments: (n, d), local_time_increments: (n,) reported dL
    (sigma-normalized, = 2 * overshoot), reflection_normals: (n, d) inward unit
    normal at the projection foot on boundary steps and zero elsewhere.
    """

    domain: Domain
    times: np.ndarray
    states: np.ndarray
    brownian_increments: np.ndarray
    local_time_increments: np.ndarray
    reflection_normals: np.ndarray
    seed: int
    path_index: int = 0

    @property
    def n_steps(self) -> int:
        return len(self.local_time_increments)

    @property
    def local_time(self) -> np.ndarray:
        """L at the grid nodes: (n+1,), L_0 = 0."""
        out = np.zeros(len(self.times))
        np.cumsum(self.local_time_increments, out=out[1:])
        return out

    def save_npz(self, path):
        np.savez_compressed(
            path,
            times=self.times,
            states=self.states,
            brownian_increments=self.brownian_increments,
            local_time_increments=self.local_time_increments,
            reflection_normals=self.reflection_normals,
            seed=np.int64(self.seed),
            path_index=np.int64(self.path_index),
        )


def _path_generator(seed: int, path_index: int) -> np.random.Generator:
    key = np.array([seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_start(domain: Domain, gen: np.random.Generator) -> np.ndarray:
    half = np.array(domain.semi_axes)
    while True:
        cand = gen.uniform(-1.0, 1.0, size=(16, domain.dim)) * half
        inside = np.flatnonzero(~outside(domain, cand))
        if inside.size:
            return cand[inside[0]]


def check_step(domain: Domain, T: float, h_t: float) -> int:
    """Validate the horizon and step; returns the number of steps."""
    if h_t <= 0 or T < 0:
        raise ValueError("need h_t > 0 and T >= 0")
    if T > 0 and h_t > T:
        raise ValueError("h_t must not exceed the horizon")
    if h_t > (domain.diameter / 10.0) ** 2:
        raise StepTooLarge(
            f"h_t={h_t:g} exceeds (diameter/10)^2={(domain.diameter / 10.0) ** 2:g}"
        )
    return int(round(T / h_t)) if T > 0 else 0


def _reflect(domain: Domain, proposals: np.ndarray, out):
    """Project proposals back into the closed domain.

    Returns (x_new, dl, hit, normal): dl is the local-time increment, LOCAL_TIME_FACTOR
    times the overshoot, normal the inward unit normal at the foot (both zero off
    the boundary).  ``out = (x_new, dl, normal)`` are the arrays to write the results
    into: x_new holding the proposals (it may be ``proposals`` itself), dl and normal zero.
    """
    x_new, dl, normal = out
    hit = outside(domain, proposals)
    at = hit.nonzero()[0]  # few hits: indices index faster than the mask
    if at.size:
        foot, inward, overshoot = project_points(domain, proposals[at])
        x_new[at], normal[at], dl[at] = foot, inward, LOCAL_TIME_FACTOR * overshoot
    return x_new, dl, hit, normal


# ---------------------------------------------------------------------------
# path integrals (single stored path)


def star_integral(path: PathGrid, field) -> float:
    """Two-sided (forward + backward) integral with the boundary correction:

        sum <field(X_j), dB_j>  +  sum <field(X_{j+1}), -dB_j - 2 n_j dL_j>
            + 2 sum <field(X_{j+1}), n_j> dL_j.

    The reflection terms cancel pathwise, so a constant field integrates to
    exactly zero, and for smooth fields the mean converges to
    -int div field (X_r) dr as h_t -> 0.
    """
    left = np.asarray(field(path.states[:-1]), dtype=float)
    right = np.asarray(field(path.states[1:]), dtype=float)
    dB = path.brownian_increments
    n_dl = path.local_time_increments[:, None] * path.reflection_normals
    fwd = np.einsum("jd,jd->", left, dB)
    bwd = np.einsum("jd,jd->", right, -dB - 2.0 * n_dl)
    corr = 2.0 * np.einsum("jd,jd->", right, n_dl)
    return float(fwd + bwd + corr)


# ---------------------------------------------------------------------------
# batch engine


BLOCK_PATH_STEPS = 16384  # path-steps per observer call: k = this // paths per chunk
_TILE_PATHS = 64  # paths drawn per noise tile: 64 paths of 256 2-d steps are 256 KB, in L2


class StepBlock:
    """k consecutive steps of a chunk's m paths, handed to observers at once.

    Attributes: j (index of the block's first step), h, x ((k+1, m, d): the
    positions before steps j, ..., j+k-1 and after the last; step j+s moves
    x[s] to x[s+1]), x_prev and x_new (x[:-1] and x[1:] as (k m, d) rows,
    step-major), dB (k, m, d), dl (k, m) local-time increment (the pushing one
    is dl / 2), hit (k, m) mask, normal (k, m, d) inward unit normal at the
    foot, zero rows off the boundary.  Every array is a view into buffers that
    the engine reuses: valid only during the observer call.
    """

    __slots__ = ("j", "h", "x", "x_prev", "x_new", "dB", "dl", "hit", "normal")


class PathObserver:
    """Accumulates path functionals over a batch run.

    Engine contract: ``start_chunk(indices, x0)`` once per chunk of paths,
    ``step(blk)`` once per :class:`StepBlock` of consecutive steps, in order,
    ``end_chunk(x_final)`` at the horizon.  The arrays passed are valid only
    during the call; an observer copies what it keeps.
    """

    def start_chunk(self, indices, x0):  # pragma: no cover - trivial default
        pass

    def step(self, blk: StepBlock):  # pragma: no cover - trivial default
        pass

    def end_chunk(self, x_final):  # pragma: no cover - trivial default
        pass


class LocalTimeObserver(PathObserver):
    """Collects the terminal reported local time L_T of every path."""

    def __init__(self):
        self.samples: list = []
        self._acc = None

    def start_chunk(self, indices, x0):
        self._acc = np.zeros(len(indices))

    def step(self, blk):
        for dl in blk.dl:
            self._acc += dl

    def end_chunk(self, x_final):
        self.samples.append(self._acc)

    def estimate(self) -> Estimate:
        return Estimate.from_samples(np.concatenate(self.samples))


class StarObserver(PathObserver):
    """Star integral of a fixed vector field over the whole horizon.

    Per path it accumulates -sum <field(X_{j+1}) - field(X_j), dB_j>, which
    is :func:`star_integral` of the stored path with the reflection terms
    cancelled before summing.
    """

    def __init__(self, field):
        self.field = field
        self.samples: list = []
        self._acc = None
        self._prev = None

    def start_chunk(self, indices, x0):
        self._acc = np.zeros(len(indices))
        self._prev = np.array(self.field(x0), dtype=float)

    def step(self, blk):
        cur = np.asarray(self.field(blk.x_new), dtype=float).reshape(blk.dB.shape)
        prev = np.concatenate([self._prev[None], cur[:-1]])
        for term in np.einsum("spd,spd->sp", cur - prev, blk.dB):
            self._acc -= term
        self._prev = cur[-1].copy()  # the field may return its argument, an engine view

    def end_chunk(self, x_final):
        self.samples.append(self._acc)

    def estimate(self) -> Estimate:
        return Estimate.from_samples(np.concatenate(self.samples))


def run_paths(
    domain: Domain,
    n_paths: int,
    T: float,
    h_t: float,
    seed: int,
    observers,
    x0=None,
    chunk_size: int = 2048,
    block: int = 256,
) -> int:
    """Drive observers over ``n_paths`` reflecting paths; returns the step count.

    ``seed`` (an int, or one per probe) and ``x0`` (None, one point, or one
    per probe) give the probes, which take equal contiguous blocks of the
    paths: path j of probe g draws from the stream keyed (seed_g, j) and
    starts at x0_g, or at its own uniform draw when ``x0`` is None.  Paths
    are simulated in chunks, vectorized across the chunk; results do not
    depend on ``chunk_size`` or ``block``.  The normals of ``block`` steps are
    drawn at a time through a tile of 64 paths, scaled there and copied into a
    step-major (block, m, d) buffer, which bounds the engine's noise memory to
    min(n_paths, chunk_size) * block * d doubles.  Each :class:`StepBlock` of
    k = min(block, BLOCK_PATH_STEPS // m) steps (at least one) for a chunk of
    m paths, the last of a noise block shorter, views its increments there;
    each path then steps one step at a time, into buffers of the chunk that
    every block reuses (its position, and its dL and normal from :func:`_reflect`),
    and the block goes to the observers, its arrays valid only during the
    call.  Raises ValueError when ``n_paths``, ``chunk_size``
    or ``block`` is below 1, when the probes disagree in number or do not
    divide ``n_paths``, or when a start is not a point of the closed domain;
    :class:`~reflectpde.geometry.LowAcceptance` when ``x0`` is None on a domain
    too thin in its bounding box to draw starts from.
    """
    for name, value in (("n_paths", n_paths), ("chunk_size", chunk_size), ("block", block)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    n_steps = check_step(domain, T, h_t)
    d = domain.dim
    sqh = math.sqrt(h_t)
    # Python ints, exact where a seed near 2^63 plus an offset passes int64 and float
    seeds = [seed] if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]
    starts = None if x0 is None else np.atleast_2d(np.asarray(x0, dtype=float))
    counts = {len(seeds), 1 if starts is None else len(starts)}
    n_probes = max(counts)
    if min(counts) < 1 or counts - {1, n_probes} or n_paths % n_probes:
        raise ValueError(f"seed and x0 must give one probe count that divides n_paths = "
                         f"{n_paths}; got {sorted(counts)}")
    if starts is None:
        check_acceptance(domain)  # _draw_start rejects from the bounding box
    else:
        bad = np.flatnonzero(~np.isfinite(starts).all(axis=1) | outside(domain, starts)
                             if starts.shape[1] == d else np.ones(len(starts)))
        if len(bad):
            raise ValueError(f"probe {bad[0]} starts at {starts[bad[0]]}, not a point of the "
                             f"closed {d}-d domain")
    m_max = min(chunk_size, n_paths)
    nb_max = min(block, n_steps)
    k = max(1, min(nb_max, BLOCK_PATH_STEPS // m_max))
    # step-major increments, drawn path-major through a tile; one path-step is one item
    increments, tile = np.empty(m_max * nb_max * d), np.empty(min(_TILE_PATHS, m_max) * nb_max * d)
    step_item = np.dtype((np.void, 8 * d))
    blk = StepBlock()
    blk.h = h_t
    for c0 in range(0, n_paths, chunk_size):
        idx = np.arange(c0, min(c0 + chunk_size, n_paths))
        m = len(idx)
        probe, index = np.divmod(idx, n_paths // n_probes)  # a lone seed or start serves all
        gens = [_path_generator(seeds[p % len(seeds)], int(i)) for p, i in zip(probe, index)]
        if starts is None:
            x_start = np.stack([_draw_start(domain, g) for g in gens])
        else:
            x_start = starts[probe % len(starts)]
        xs, normals = np.empty((k + 1, m, d)), np.empty((k, m, d))
        dB = increments[: nb_max * m * d].reshape(nb_max, m, d)
        dls, hits = np.empty((k, m)), np.empty((k, m), dtype=bool)
        for obs in observers:
            obs.start_chunk(idx, x_start)
        xs[0] = x_start
        j = 0
        while j < n_steps:
            nb = min(block, n_steps - j)
            for p0 in range(0, m, _TILE_PATHS):
                noise = tile[: min(_TILE_PATHS, m - p0) * nb * d].reshape(-1, nb, d)
                for g, row in zip(gens[p0:], noise):
                    g.standard_normal(out=row)
                noise *= sqh
                dB[:nb, p0 : p0 + len(noise)].view(step_item)[..., 0] = (
                    noise.view(step_item)[..., 0].T)
            for s0 in range(0, nb, k):
                kb = min(k, nb - s0)
                dBs = dB[s0 : s0 + kb]
                dls[:kb] = 0.0
                normals[:kb] = 0.0
                for s in range(kb):
                    np.add(xs[s], dBs[s], out=xs[s + 1])
                    hits[s] = _reflect(domain, xs[s + 1], out=(xs[s + 1], dls[s], normals[s]))[2]
                blk.j = j
                blk.x = xs[: kb + 1]
                blk.x_prev = xs[:kb].reshape(kb * m, d)
                blk.x_new = xs[1 : kb + 1].reshape(kb * m, d)
                blk.dB, blk.dl, blk.hit, blk.normal = dBs, dls[:kb], hits[:kb], normals[:kb]
                for obs in observers:
                    obs.step(blk)
                xs[0] = xs[kb]
                j += kb
        for obs in observers:
            obs.end_chunk(xs[0])
    return n_steps


class _PathRecorder(PathObserver):
    """Stores every step of every path, chunk by chunk, for simulate_paths."""

    def __init__(self, n_steps: int):
        self.n_steps = n_steps
        self.chunks: list = []

    def start_chunk(self, indices, x0):
        m, d = x0.shape
        n = self.n_steps
        self.states = np.empty((m, n + 1, d))
        self.states[:, 0] = x0
        self.dB = np.empty((m, n, d))
        self.dl = np.empty((m, n))
        self.normals = np.empty((m, n, d))

    def step(self, blk):
        j, k = blk.j, len(blk.dl)
        self.states[:, j + 1 : j + k + 1] = blk.x[1:].swapaxes(0, 1)
        self.dB[:, j : j + k] = blk.dB.swapaxes(0, 1)
        self.dl[:, j : j + k] = blk.dl.T
        self.normals[:, j : j + k] = blk.normal.swapaxes(0, 1)

    def end_chunk(self, x_final):
        self.chunks.append((self.states, self.dB, self.dl, self.normals))


def simulate_paths(
    domain: Domain, n_paths: int, T: float, h_t: float, seed: int, x0=None
) -> list[PathGrid]:
    """Simulate ``n_paths`` reflecting paths with :func:`run_paths` and store them.

    Returns a list of :class:`PathGrid`, path i being path i of the batch
    engine: the same (seed, i) gives the same stored path bit for bit.
    ``x0=None`` draws each start uniformly on the domain from the path's own
    stream.
    """
    recorder = _PathRecorder(check_step(domain, T, h_t))
    run_paths(domain, n_paths, T, h_t, seed, [recorder], x0=x0)
    times = h_t * np.arange(recorder.n_steps + 1)
    rows = (row for chunk in recorder.chunks for row in zip(*chunk))
    return [PathGrid(domain, times, *row, seed, i) for i, row in enumerate(rows)]
