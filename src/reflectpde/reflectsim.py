"""Reflecting diffusion with boundary local time, and stochastic path integrals.

Paths follow the driftless reflecting dynamics

    X_{j+1} = X_j + dB_j + push_j * n(foot_j),

where the Euler proposal is projected back to the nearest boundary point
whenever it leaves the domain, and ``push_j`` is the projection distance
(the Skorokhod pushing magnitude).

Local-time normalization.  The *reported* local-time increments are

    dL_j = 2 * push_j,

so that L carries the surface measure as its occupation (Revuz) measure:
E^x[int f(X) dL] = int int p_t(x, y) f(y) sigma(dy) dt, and under a uniform
start E[L_T] / T -> sigma(dD) / |D| (rate 2 on the unit disk, 3 on the unit
3-ball).  The pushing process that actually appears in the dynamics is dL/2;
path functionals that need it (e.g. the martingale-residual check) use the
``push`` increments directly.

Reproducibility.  Path i of a run draws all of its randomness from a
counter-based Philox stream keyed by (seed, i): the same (seed, i) gives the
same path bit for bit, independently of batch size or chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain, eval_psi, outside, project_points

LOCAL_TIME_FACTOR = 2.0  # reported dL per unit of projection overshoot


class StepTooLarge(ValueError):
    """Time step too coarse for the reflection approximation (h_t > (diam/10)^2)."""


# ---------------------------------------------------------------------------
# estimates


@dataclass(frozen=True)
class Estimate:
    """Monte-Carlo estimate as mergeable sufficient statistics.

    Stores (n, mean, m2), m2 the sum of squared deviations from the mean; the
    variance, the standard error and the sum of squares ``total_sq`` are
    derived.  Merging is the pairwise update of Chan, Golub & LeVeque, so it
    preserves the pooled mean and variance, also when the mean is large
    against the spread.
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
    def total_sq(self) -> float:
        return self.m2 + self.n_samples * self.mean * self.mean

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

    def merge(self, other: "Estimate") -> "Estimate":
        n = self.n_samples + other.n_samples
        delta = other.mean - self.mean
        return Estimate(
            n,
            self.mean + delta * (other.n_samples / n),
            self.m2 + other.m2 + delta * delta * (self.n_samples * other.n_samples / n),
        )

    __add__ = merge

    def scaled(self, c: float) -> "Estimate":
        return Estimate(self.n_samples, c * self.mean, c * c * self.m2)


# ---------------------------------------------------------------------------
# stored paths


@dataclass
class PathGrid:
    """One stored path on a uniform time grid.

    times: (n+1,), states: (n+1, d) in the closed domain,
    brownian_increments: (n, d), local_time_increments: (n,) reported dL
    (sigma-normalized, = 2 * push), reflection_normals: (n, d) inward unit
    normal at the projection foot on push steps and zero elsewhere.
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
        val, _ = eval_psi(domain, cand)
        inside = np.nonzero(val > 0)[0]
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


def _reflect(domain: Domain, proposals: np.ndarray):
    """Project proposals back into the closed domain.

    Returns (x_new, push, hit, normal); push is the raw overshoot distance,
    normal the inward unit normal at the foot (zero rows off the boundary).
    """
    x_new = proposals.copy()
    push = np.zeros(len(proposals))
    normal = np.zeros_like(proposals)
    hit = outside(domain, proposals)
    if hit.any():
        x_new[hit], normal[hit], push[hit] = project_points(domain, proposals[hit])
    return x_new, push, hit, normal


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


class StepContext:
    """Per-step arrays handed to observers (views into engine state).

    Attributes: j (step index), h, x_prev, x_new, dB, push (raw overshoot),
    dl (reported local-time increment), hit mask, normal (inward unit normal
    at the foot; zero rows off the boundary).
    """

    __slots__ = ("j", "h", "x_prev", "x_new", "dB", "push", "dl", "hit", "normal")


class PathObserver:
    """Accumulates path functionals over a batch run.

    Engine contract: ``start_chunk(indices, x0)`` once per chunk of paths,
    ``step(ctx)`` once per time step, ``end_chunk(x_final)`` at the horizon.
    """

    def start_chunk(self, indices, x0):  # pragma: no cover - trivial default
        pass

    def step(self, ctx: StepContext):  # pragma: no cover - trivial default
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

    def step(self, ctx):
        self._acc += ctx.dl

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
        self._prev = np.asarray(self.field(x0), dtype=float)

    def step(self, ctx):
        cur = np.asarray(self.field(ctx.x_new), dtype=float)
        self._acc -= np.einsum("pd,pd->p", cur - self._prev, ctx.dB)
        self._prev = cur

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
    block: int = 512,
) -> int:
    """Drive observers over ``n_paths`` reflecting paths; returns the step count.

    Paths are simulated in chunks, vectorized across the chunk; every path
    uses its own (seed, index)-keyed stream, so results do not depend on
    ``chunk_size`` or ``block``.  The normals of ``block`` steps are drawn at
    a time into one buffer, which bounds the engine's noise memory to
    min(n_paths, chunk_size) * block * d doubles.  ``x0`` is a fixed start
    point or None for uniform starts.  Raises ValueError when ``n_paths``,
    ``chunk_size`` or ``block`` is below 1.
    """
    for name, value in (("n_paths", n_paths), ("chunk_size", chunk_size), ("block", block)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    n_steps = check_step(domain, T, h_t)
    d = domain.dim
    sqh = math.sqrt(h_t)
    ctx = StepContext()
    ctx.h = h_t
    fixed = None if x0 is None else np.asarray(x0, dtype=float)
    buffer = np.empty((min(chunk_size, n_paths), min(block, n_steps), d))
    for c0 in range(0, n_paths, chunk_size):
        idx = np.arange(c0, min(c0 + chunk_size, n_paths))
        gens = [_path_generator(seed, int(i)) for i in idx]
        if fixed is None:
            starts = np.stack([_draw_start(domain, g) for g in gens])
        else:
            starts = np.broadcast_to(fixed, (len(idx), d)).copy()
        for obs in observers:
            obs.start_chunk(idx, starts)
        x = starts
        j = 0
        while j < n_steps:
            nb = min(block, n_steps - j)
            noise = buffer[: len(idx), :nb]
            for g, row in zip(gens, noise):
                g.standard_normal(out=row)
            for jj in range(nb):
                dB = noise[:, jj, :] * sqh
                x_new, push, hit, normal = _reflect(domain, x + dB)
                ctx.j = j
                ctx.x_prev = x
                ctx.x_new = x_new
                ctx.dB = dB
                ctx.push = push
                ctx.dl = LOCAL_TIME_FACTOR * push
                ctx.hit = hit
                ctx.normal = normal
                for obs in observers:
                    obs.step(ctx)
                x = x_new
                j += 1
        for obs in observers:
            obs.end_chunk(x)
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

    def step(self, ctx):
        self.states[:, ctx.j + 1] = ctx.x_new
        self.dB[:, ctx.j] = ctx.dB
        self.dl[:, ctx.j] = ctx.dl
        self.normals[:, ctx.j] = ctx.normal

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
