import math
import tracemalloc

import numpy as np
import pytest

from reflectpde import geometry
from reflectpde.geometry import Domain
from reflectpde.reflectsim import (
    Estimate,
    LocalTimeObserver,
    PathObserver,
    StarObserver,
    StepTooLarge,
    _draw_start,
    _path_generator,
    _reflect,
    run_paths,
    simulate_paths,
    star_integral,
)
from .conftest import Unrolled


def const_field(c):
    c = np.asarray(c, dtype=float)

    def field(x):
        return np.broadcast_to(c, np.atleast_2d(x).shape)

    return field


# ---------------------------------------------------------------------------
# path simulation basics


def test_zero_horizon(disk):
    (p,) = simulate_paths(disk, 1, 0.0, 1e-3, seed=1, x0=(0.2, 0.1))
    assert p.n_steps == 0
    assert p.states.shape == (1, 2)
    assert p.local_time[-1] == 0.0


def test_step_too_large(disk):
    with pytest.raises(StepTooLarge):
        simulate_paths(disk, 1, 1.0, 0.1, seed=1)


def test_determinism(disk):
    a = simulate_paths(disk, 4, 0.5, 1e-3, seed=42)[3]
    b = simulate_paths(disk, 4, 0.5, 1e-3, seed=42)[3]
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.brownian_increments, b.brownian_increments)
    assert np.array_equal(a.local_time_increments, b.local_time_increments)


def test_states_in_closure_and_dl_rules(disk):
    (p,) = simulate_paths(disk, 1, 1.0, 5e-4, seed=7)
    r = np.linalg.norm(p.states, axis=1)
    assert np.all(r <= 1.0 + 1e-12)
    proposals = p.states[:-1] + p.brownian_increments
    outside = np.linalg.norm(proposals, axis=1) > 1.0
    assert np.all(p.local_time_increments[outside] > 0)
    assert np.all(p.local_time_increments[~outside] == 0.0)
    # reported increments are twice the projection overshoot
    overshoot = np.linalg.norm(proposals[outside], axis=1) - 1.0
    assert np.allclose(p.local_time_increments[outside], 2.0 * overshoot, rtol=1e-12)


class Recorder(PathObserver):
    """Keeps every step's context arrays, by path index."""

    def __init__(self):
        self.all = {}

    def start_chunk(self, idx, x0):
        self.idx = idx
        self.xs = [x0.copy()]
        self.steps = []

    def step(self, ctx):
        self.xs.append(ctx.x_new.copy())
        self.steps.append(
            (ctx.dl.copy(), ctx.hit.copy(), ctx.normal.copy(), ctx.dB.copy())
        )

    def end_chunk(self, xf):
        xs = np.stack(self.xs)
        fields = [np.stack(f) for f in zip(*self.steps)]
        for row, i in enumerate(self.idx):
            self.all[int(i)] = (xs[:, row],) + tuple(f[:, row] for f in fields)


DOMAINS = {
    "disk": Domain.disk(),
    "ellipse": Domain.ellipse(1.5, 1.0),
    "ball": Domain.ball(3),
}


def _check_stored_paths(domain):
    # 600 steps: not a multiple of 13 nor of the default block of 256
    paths = simulate_paths(domain, 16, 0.6, 1e-3, seed=11)
    for chunk_size in (1, 2, 2048):
        for block in (1, 13, 512):
            rec = Recorder()
            run_paths(domain, 16, 0.6, 1e-3, seed=11, observers=[Unrolled(rec)],
                      chunk_size=chunk_size, block=block)
            for i, p in enumerate(paths):
                xs, dl, _, normal, dB = rec.all[i]
                for got, want in ((xs, p.states), (dl, p.local_time_increments),
                                  (normal, p.reflection_normals), (dB, p.brownian_increments)):
                    assert np.array_equal(got, want)
    x0 = (0.3, -0.2, 0.1)[: domain.dim]
    for i, p in enumerate(simulate_paths(domain, 16, 0.6, 1e-3, seed=11, x0=x0)):
        assert p.path_index == i and np.array_equal(p.states[0], x0)
        normals = _path_generator(11, i).standard_normal((600, domain.dim))
        assert np.array_equal(p.brownian_increments, normals * math.sqrt(1e-3))
    hits = 0
    for p in paths:
        # every step at once: a foot must not depend on the other hits in its batch
        proposals = p.states[:-1] + p.brownian_increments
        out = (proposals.copy(), np.zeros(len(proposals)), np.zeros_like(proposals))
        x_new, dl, hit, normal = _reflect(domain, proposals, out)
        assert np.array_equal(x_new, p.states[1:])
        assert np.array_equal(dl, p.local_time_increments)
        assert np.array_equal(normal, p.reflection_normals)
        hits += int(hit.sum())
    assert hits > 50  # the paths do reach the boundary


def test_batch_matches_single_paths():
    for domain in DOMAINS.values():
        _check_stored_paths(domain)


# The engine step and noise drawing as they were before the ellipse hit test
# became the quadratic's sign and the normals came from the foot in closed
# form: copies, except that the foot solver is called directly and the
# ellipse's level-set sign and gradient are written out here.  They are the
# reference for the disk, ball and ellipse steps alike, which the engine now
# all takes through geometry.outside and geometry.project_points.


def _ellipse_level_set(domain, pts):
    """The sign-carrying quadratic 1 - (x/a)^2 - (y/b)^2 and its gradient."""
    a, b = domain.semi_axes
    val = 1.0 - (pts[:, 0] / a) ** 2 - (pts[:, 1] / b) ** 2
    return val, np.stack([-2.0 * pts[:, 0] / a**2, -2.0 * pts[:, 1] / b**2], axis=1)


def _ref_project_points(domain, pts):
    foot = geometry._project_ellipse(domain, pts)
    _, grad = _ellipse_level_set(domain, foot)
    nrm = np.sqrt(np.einsum("ij,ij->i", grad, grad))
    normal = grad / nrm[:, None]
    dist = np.sqrt(np.einsum("ij,ij->i", pts - foot, pts - foot))
    return foot, normal, dist


def _ref_reflect(domain, proposals):
    if domain.kind in ("disk", "ball"):
        r0 = domain.radius
        r = np.sqrt(np.einsum("ij,ij->i", proposals, proposals))
        hit = r > r0
        x_new = proposals.copy()
        push = np.zeros(len(proposals))
        normal = np.zeros_like(proposals)
        if hit.any():
            rh = r[hit]
            x_new[hit] = proposals[hit] * (r0 / rh)[:, None]
            push[hit] = rh - r0
            normal[hit] = -x_new[hit] / r0
        return x_new, push, hit, normal
    val, _ = _ellipse_level_set(domain, proposals)
    hit = val < 0
    x_new = proposals.copy()
    push = np.zeros(len(proposals))
    normal = np.zeros_like(proposals)
    if hit.any():
        foot, inward, dist = _ref_project_points(domain, proposals[hit])
        x_new[hit] = foot
        push[hit] = dist
        normal[hit] = inward
    return x_new, push, hit, normal


def _ref_run(domain, n_paths, T, h_t, seed, chunk_size=2048, block=2048):
    """The earlier run_paths loop, returning each step's arrays by path index."""
    n_steps = int(round(T / h_t))
    d = domain.dim
    sqh = math.sqrt(h_t)
    out = {}
    for c0 in range(0, n_paths, chunk_size):
        idx = np.arange(c0, min(c0 + chunk_size, n_paths))
        gens = [_path_generator(seed, int(i)) for i in idx]
        x = np.stack([_draw_start(domain, g) for g in gens])
        xs, steps = [x], []
        j = 0
        while j < n_steps:
            nb = min(block, n_steps - j)
            noise = np.stack([g.standard_normal((nb, d)) for g in gens])
            for jj in range(nb):
                dB = noise[:, jj, :] * sqh
                x_new, push, hit, normal = _ref_reflect(domain, x + dB)
                xs.append(x_new)
                steps.append((2.0 * push, hit, normal, dB))
                x = x_new
                j += 1
        fields = [np.stack(f) for f in [xs] + list(zip(*steps))]
        for row, i in enumerate(idx):
            out[int(i)] = tuple(f[:, row] for f in fields)
    return out


class ContiguousIncrements(PathObserver):
    """Checks that every block's increments are one C-contiguous (k, m, d) view."""

    def step(self, blk):
        assert blk.dB.flags.c_contiguous and blk.dB.shape == blk.normal.shape


# (n_paths, chunk_size, block) over 600 steps.  70 paths in chunks of 67 give a
# 64-path noise tile, a 3-path tile and a 3-path last chunk; 600 is a multiple of
# neither block; k = min(block, 16384 // 67) = 244 splits a block of 256 unevenly,
# and a block of 7 is below it.
CUTS = [(7, 4, 256), (70, 67, 256), (70, 67, 7), (70, 2048, 13)]


@pytest.mark.parametrize("kind", list(DOMAINS))
def test_engine_step_matches_the_reference(kind):
    domain = DOMAINS[kind]
    ref = _ref_run(domain, 70, 0.6, 1e-3, seed=21)
    for n_paths, chunk_size, block in CUTS:
        rec = Recorder()
        run_paths(domain, n_paths, 0.6, 1e-3, seed=21, chunk_size=chunk_size, block=block,
                  observers=[Unrolled(rec), ContiguousIncrements()])
        hits = 0
        for i in range(n_paths):
            xs, dl, hit, normal, dB = rec.all[i]
            rxs, rdl, rhit, rnormal, rdB = ref[i]
            for got, want in ((xs, rxs), (dl, rdl), (hit, rhit), (dB, rdB)):
                assert np.array_equal(got, want)
            assert np.max(np.abs(normal - rnormal)) <= 1e-15
            hits += int(hit.sum())
        assert hits > 50  # the paths do reach the boundary


class NoPaths(PathObserver):
    def start_chunk(self, idx, x0):
        raise AssertionError("a path was drawn")


@pytest.mark.parametrize("arg", ["n_paths", "chunk_size", "block"])
def test_run_paths_rejects_bad_sizes(disk, arg):
    for bad in (0, -1):
        sizes = {"n_paths": 4, "chunk_size": 2, "block": 3, arg: bad}
        with pytest.raises(ValueError, match=arg):
            run_paths(disk, T=0.01, h_t=1e-3, seed=1, observers=[NoPaths()], **sizes)


def test_run_paths_rejects_probes_that_disagree(disk):
    starts = np.zeros((3, 2))
    for seed, x0, n_paths in (([1, 2], starts, 6), ([1, 2, 3], starts[:2], 6), ([], None, 4),
                              ([1, 2, 3], None, 4), (1, starts, 4)):
        with pytest.raises(ValueError, match="probe"):
            run_paths(disk, n_paths, 0.01, 1e-3, seed, [NoPaths()], x0=x0)


@pytest.mark.parametrize("kind", list(DOMAINS))
def test_run_paths_rejects_starts_off_the_closed_domain(kind):
    domain = DOMAINS[kind]
    d = domain.dim
    for bad in (1e6, np.nan, np.inf, -np.inf, 1.0 + 1e-9):
        starts = np.zeros((2, d))
        starts[1, -1] = bad * domain.semi_axes[-1]
        with pytest.raises(ValueError, match="probe 1 starts at"):
            run_paths(domain, 4, 0.01, 1e-3, 1, [NoPaths()], x0=starts)
    with pytest.raises(ValueError, match="probe 0 starts at"):
        run_paths(domain, 2, 0.01, 1e-3, 1, [NoPaths()], x0=np.zeros(d + 1))
    # points of the boundary are starts of the closed domain
    starts = np.diag(domain.semi_axes)
    starts = np.concatenate([starts, -starts, [np.zeros(d)]])
    rec = Recorder()
    run_paths(domain, len(starts), 0.01, 1e-3, 1, [Unrolled(rec)], x0=starts)
    assert all(np.array_equal(rec.all[i][0][0], x) for i, x in enumerate(starts))


def test_run_paths_probes_of_one_seed_share_its_streams(disk):
    # probe g's path j starts at x0_g and draws from the stream keyed (seed, j)
    starts = np.array([[0.0, 0.0], [0.5, 0.5], [-0.9, 0.1]])
    rec = Recorder()
    run_paths(disk, 6, 0.05, 1e-3, 3, [Unrolled(rec)], x0=starts, chunk_size=4)
    for i in range(6):
        xs, *_, dB = rec.all[i]
        assert np.array_equal(xs[0], starts[i // 2])
        normals = _path_generator(3, i % 2).standard_normal((50, 2))
        assert np.array_equal(dB, normals * math.sqrt(1e-3))


def test_noise_memory_is_bounded_by_the_block(disk):
    # 1024 steps of 2048 paths, with the default block of 256 steps
    tracemalloc.start()
    try:
        run_paths(disk, 2048, 1.024, 1e-3, seed=1, observers=[PathObserver()])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 256 * 2 * 8 + 8 * 2**20


# ---------------------------------------------------------------------------
# stochastic integrals: exact algebra


def test_forward_backward_correction_identity():
    # star_integral sums forward, backward and boundary-correction terms on a
    # stored path; StarObserver cancels the reflection terms before summing on
    # the engine.  The two agree path by path on the same seed.
    field = lambda x: x[:, :1] * x  # noqa: E731
    for domain in DOMAINS.values():
        paths = simulate_paths(domain, 8, 0.5, 1e-3, seed=4)
        assert any(p.local_time[-1] > 0 for p in paths)
        obs = StarObserver(field)
        run_paths(domain, 8, 0.5, 1e-3, seed=4, observers=[obs])
        (engine,) = obs.samples
        stored = np.array([star_integral(p, field) for p in paths])
        assert np.max(np.abs(stored - engine)) <= 1e-12


def test_star_constant_exactly_zero_pathwise(disk):
    (p,) = simulate_paths(disk, 1, 1.0, 1e-3, seed=5)
    val = star_integral(p, const_field([0.8, -1.1]))
    assert abs(val) <= 1e-12


# ---------------------------------------------------------------------------
# estimates


def test_estimate_from_samples_matches_numpy():
    rng = np.random.default_rng(1)
    v = rng.normal(2.0, 3.0, 500)
    e = Estimate.from_samples(v)
    assert e.mean == pytest.approx(v.mean(), rel=1e-12)
    assert e.standard_error == pytest.approx(v.std(ddof=1) / np.sqrt(500), rel=1e-10)


def test_estimate_variance_is_stable_for_a_large_mean():
    rng = np.random.default_rng(3)
    v = 1e8 + 1e-3 * rng.standard_normal(3000)
    mean = math.fsum(v) / len(v)
    var = math.fsum((x - mean) ** 2 for x in v) / (len(v) - 1)
    whole = Estimate.from_samples(v)
    assert whole.n_samples == 3000
    assert whole.variance == pytest.approx(var, rel=1e-6)
    assert whole.mean == float(v.sum()) / 3000


def test_estimate_single_sample():
    e = Estimate.from_samples([3.0])
    assert e.mean == 3.0 and e.standard_error == 0.0


# ---------------------------------------------------------------------------
# statistical identities (small scale; the acceptance suite runs them full size)


def test_local_time_rate_small(disk):
    obs = LocalTimeObserver()
    run_paths(disk, 600, 3.0, 2e-4, seed=9, observers=[obs])
    rate = obs.estimate().scaled(1.0 / 3.0)
    assert rate.mean == pytest.approx(2.0, abs=3 * rate.standard_error + 0.12)


def test_divergence_identity_rotation_field(disk):
    # div (x2, -x1) = 0: star integral has zero mean
    obs = StarObserver(lambda x: np.stack([x[:, 1], -x[:, 0]], axis=1))
    run_paths(disk, 800, 1.0, 5e-4, seed=10, observers=[obs])
    est = obs.estimate()
    assert abs(est.mean) <= 3 * est.standard_error + 0.02


def test_divergence_identity_gradient_field(disk):
    # g = grad(x1^3 + x2^2) = (3 x1^2, 2 x2), div g = 6 x1 + 2
    field = lambda x: np.stack([3 * x[:, 0] ** 2, 2 * x[:, 1]], axis=1)  # noqa: E731
    div = lambda x: 6 * x[:, 0] + 2  # noqa: E731
    vals = []
    for ht in (1e-3, 2.5e-4):
        obs = StarObserver(field)
        run_paths(disk, 1500, 1.0, ht, seed=12, observers=[obs])
        est = obs.estimate()
        # oracle: E int div g(X) dr = 2 T under a uniform start (odd part drops)
        vals.append((est.mean, est.standard_error))
    for mean, se in vals:
        assert mean == pytest.approx(-2.0, abs=3 * se + 0.1)
    # bias shrinks with the step (allow statistical slack)
    assert abs(vals[1][0] + 2.0) <= abs(vals[0][0] + 2.0) + 3 * vals[1][1]


def test_ball_3d_paths(consts_k0):
    ball = Domain.ball(3)
    (p,) = simulate_paths(ball, 1, 0.5, 5e-4, seed=15)
    assert np.all(np.linalg.norm(p.states, axis=1) <= 1.0 + 1e-12)
    obs = LocalTimeObserver()
    run_paths(ball, 400, 2.0, 2e-4, seed=16, observers=[obs])
    rate = obs.estimate().scaled(0.5)
    assert rate.mean == pytest.approx(3.0, abs=3 * rate.standard_error + 0.25)
