import decimal
import math

import numpy as np
import pytest

from reflectpde import geometry, reflectsim
from reflectpde.geometry import (
    Domain,
    LowAcceptance,
    boundary_points,
    interior_grid,
    outside,
    project_points,
    sample_uniform,
)


def test_builtin_measures_analytic():
    assert Domain.disk().volume == pytest.approx(np.pi, rel=1e-12)
    assert Domain.disk().boundary_measure == pytest.approx(2 * np.pi, rel=1e-12)
    assert Domain.disk(radius=2.0).volume == pytest.approx(4 * np.pi, rel=1e-12)
    assert Domain.ball(3).volume == pytest.approx(4 * np.pi / 3, rel=1e-12)


def test_projection_examples():
    d = Domain.disk()
    foot, n, dist = project_points(d, np.array([[1.5, 0.0], [0.5, 0.0], [0.0, 0.0]]))
    assert foot == pytest.approx(np.array([[1, 0]] * 3))
    assert n[0] == pytest.approx([-1, 0]) and list(dist[:2]) == [0.5, 0.5]
    # symmetry center resolved along the first axis
    assert n[2] == pytest.approx([-1, 0]) and dist[2] == 1.0


def test_boundary_quadrature_uniform_rule():
    nodes = boundary_points(Domain.disk(), 4)
    angles = np.mod(np.arctan2(nodes[:, 1], nodes[:, 0]), 2 * np.pi)
    assert sorted(angles) == pytest.approx([0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_boundary_quadrature_weights_and_cos2():
    # the points are the nodes of the trapezoid rule, each of weight 2 pi / m;
    # analytic oracle: the integral of cos^2 over the circle is pi
    nodes = boundary_points(Domain.disk(), 64)
    assert 2 * np.pi * np.mean(nodes[:, 0] ** 2) == pytest.approx(np.pi, abs=1e-10)


@pytest.mark.parametrize("m", [8, 16, 33])
def test_boundary_quadrature_trig_exactness(m):
    # at equal weights the nodes integrate the trigonometric polynomials of degree < m
    nodes = boundary_points(Domain.disk(), m)
    theta = np.arctan2(nodes[:, 1], nodes[:, 0])
    for k in range(1, m):
        assert abs(np.sum(np.cos(k * theta))) < 1e-10
        assert abs(np.sum(np.sin(k * theta))) < 1e-10


def _ref_quadrature_nodes(domain, m):
    """The nodes of the earlier boundary quadrature rule, whose weights only tests read."""
    if domain.kind == "ball" and domain.dim == 2:
        theta = 2.0 * math.pi * np.arange(m) / m
        r0 = domain.radius
        return np.stack([r0 * np.cos(theta), r0 * np.sin(theta)], axis=1)
    if domain.kind == "ellipse":
        a, b = domain.semi_axes
        theta = 2.0 * math.pi * np.arange(m) / m
        return np.stack([a * np.cos(theta), b * np.sin(theta)], axis=1)
    i = np.arange(m)
    z = 1.0 - 2.0 * (i + 0.5) / m
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return domain.radius * np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


@pytest.mark.parametrize("domain", [Domain.disk(), Domain.disk(0.7), Domain.ellipse(2.0, 1.0),
                                    Domain.ball(3), Domain.ball(3, 1.5)],
                         ids=["disk", "disk-0.7", "ellipse", "ball", "ball-1.5"])
def test_boundary_points_are_the_quadrature_nodes_bit_for_bit(domain):
    # fk_linear_frozen reads sup|H| at these points: its tail bound must not move
    for m in (3, 8, 32, 33, 500):
        got = boundary_points(domain, m)
        assert got.shape == (m, domain.dim)
        assert got.tobytes() == _ref_quadrature_nodes(domain, m).tobytes()


def _unit(rng, n):
    theta = rng.uniform(0, 2 * np.pi, n)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def test_unit_inward_normal():
    d = Domain.disk()
    rng = np.random.default_rng(9)
    bpts = _unit(rng, 10_000)
    _, normal, _ = project_points(d, bpts)
    assert np.allclose(np.linalg.norm(normal, axis=1), 1.0, atol=1e-10)
    assert np.allclose(normal, -bpts, atol=1e-12)


def test_ellipse_measures_and_normals():
    e = Domain.ellipse(2.0, 1.0)
    assert e.volume == pytest.approx(2 * np.pi, rel=1e-12)
    nodes = boundary_points(e, 512)
    assert (nodes[:, 0] / 2) ** 2 + nodes[:, 1] ** 2 == pytest.approx(np.ones(512), abs=1e-14)
    theta = np.linspace(0, 2 * np.pi, 101)
    bpts = np.stack([2 * np.cos(theta), np.sin(theta)], axis=1)
    foot, normal, dist = project_points(e, bpts)
    assert np.allclose(foot, bpts, atol=1e-12) and np.all(dist <= 1e-12)
    assert np.allclose(np.linalg.norm(normal, axis=1), 1.0, atol=1e-10)
    # the inward normal is -(x/a^2, y/b^2) normalized
    grad = -bpts / np.array([4.0, 1.0])
    assert np.allclose(normal, grad / np.linalg.norm(grad, axis=1)[:, None], atol=1e-12)


def test_ellipse_projection_against_brute_force():
    e = Domain.ellipse(2.0, 1.0)
    rng = np.random.default_rng(12)
    pts = rng.uniform(-3, 3, (300, 2))
    _, _, dist = project_points(e, pts)
    theta = np.linspace(0, 2 * np.pi, 400_001)
    boundary = np.stack([2 * np.cos(theta), np.sin(theta)], axis=1)
    for i in range(0, 300, 17):
        brute = np.min(np.linalg.norm(boundary - pts[i], axis=1))
        assert dist[i] == pytest.approx(brute, abs=5e-7)


def test_ellipse_medial_axis_tiebreak():
    e = Domain.ellipse(2.0, 1.0)
    foot, _, dist = project_points(e, np.array([[0.0, 0.0]]))
    # nearest points are (0, +-1); the tie-break picks the positive one
    assert foot[0] == pytest.approx([0, 1]) and dist[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the Newton projection against the bisection it replaced
#
# _ref_project_ellipse is a verbatim copy of the earlier vectorized bisection
# (renamed only), kept as the reference for the Newton projection.


def _ref_project_ellipse(domain, pts: np.ndarray):
    """Nearest-point projection onto the ellipse boundary (vectorized bisection).

    Solves sum_i (axes_i p_i / (t + axes_i^2))^2 = 1 for the unique root
    t > -b^2; valid for interior and exterior points off the medial axis.
    Medial-axis points (second coordinate ~0, first inside the evolute) get
    the positive-y foot; the exact center gets the foot (0, b).
    """
    a, b = domain.semi_axes
    px, py = pts[:, 0], pts[:, 1]
    sx, sy = np.where(px >= 0, 1.0, -1.0), np.where(py >= 0, 1.0, -1.0)
    ax_, ay_ = np.abs(px), np.abs(py)

    c2 = a * a - b * b
    on_axis = ay_ < 1e-14 * a
    # points on the major axis inside the evolute have an off-axis nearest foot
    medial = on_axis & (ax_ * a < c2) if c2 > 0 else on_axis & (ax_ == 0.0)

    foot = np.empty_like(pts)
    # generic branch: bisection for t
    gen = ~medial
    if gen.any():
        gx, gy = ax_[gen], ay_[gen]
        lo = np.full(gx.shape, -(b * b))
        # root is below t_hi = b|y| + a|x| comfortably; expand to be safe
        hi = a * np.hypot(gx, gy) + a * a + b * b
        # G is decreasing in t; keep G(lo+)>0 side on the left
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fx = a * gx / (mid + a * a)
            fy = b * gy / (mid + b * b)
            g = fx * fx + fy * fy - 1.0
            take = g > 0.0
            lo = np.where(take, mid, lo)
            hi = np.where(take, hi, mid)
        t = 0.5 * (lo + hi)
        foot[gen, 0] = a * a * gx / (t + a * a)
        foot[gen, 1] = b * b * gy / (t + b * b)
    if medial.any():
        if c2 > 0:
            fx = np.minimum(a * a * ax_[medial] / c2, a)
            foot[medial, 0] = fx
            foot[medial, 1] = b * np.sqrt(np.maximum(0.0, 1.0 - (fx / a) ** 2))
            sy[medial] = 1.0  # tie-break: positive-y foot
        else:
            # circle written as an ellipse: center resolves along the first axis
            foot[medial, 0] = a
            foot[medial, 1] = 0.0
    foot[:, 0] *= sx
    foot[:, 1] *= sy
    return foot


def _overshoots(a, b, n, rng, depth=0.1):
    """Points up to ``depth`` outside the ellipse along its outward normal."""
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    normal = np.stack([np.cos(theta) / a, np.sin(theta) / b], axis=1)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    on = np.stack([a * np.cos(theta), b * np.sin(theta)], axis=1)
    return on + rng.uniform(0.0, depth, (n, 1)) * normal


def _decimal_feet(axes, pts):
    """Feet by 200 bisection steps in s = t + b^2 on 40-digit decimals.

    An independent reference for points where the float bisection in t of
    _ref_project_ellipse leaves the ellipse (close to the major axis inside
    the evolute, where s is tiny).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a, b = decimal.Decimal(axes[0]), decimal.Decimal(axes[1])
        c = a * a - b * b
        feet = []
        for x, y in pts:
            A, B = a * abs(decimal.Decimal(x)), b * abs(decimal.Decimal(y))
            lo, hi = max(B, A - c), A + B + 1  # G >= 0 at lo, G < 0 at hi
            for _ in range(200):
                mid = (lo + hi) / 2
                if (A / (mid + c)) ** 2 + (B / mid) ** 2 > 1:
                    lo = mid
                else:
                    hi = mid
            s = (lo + hi) / 2
            feet.append((math.copysign(float(a * A / (s + c)), x),
                         math.copysign(float(b * B / s), y)))
    return np.array(feet)


def _level(axes, foot):
    return np.abs((foot[:, 0] / axes[0]) ** 2 + (foot[:, 1] / axes[1]) ** 2 - 1.0)


@pytest.mark.parametrize("axes", [(1.5, 1.0), (2.0, 1.0)])
def test_newton_projection_of_overshoots(axes):
    e = Domain.ellipse(*axes)
    rng = np.random.default_rng(31)
    for depth in (1e-6, 0.1, 10.0):
        pts = _overshoots(*axes, 2000, rng, depth)
        ref = _ref_project_ellipse(e, pts)
        for batch in (pts[:1], pts[:74], pts):  # the engine's batches are small
            foot = geometry._project_ellipse(e, batch)
            assert np.max(np.abs(foot - ref[: len(batch)])) <= 1e-14
        # Newton stops with the foot on the ellipse to rounding
        assert np.max(_level(axes, foot)) <= 4e-15


@pytest.mark.parametrize("axes", [(1.5, 1.0), (2.0, 1.0), (1.0, 1.0)])
def test_newton_projection_matches_bisection(axes):
    a, b = axes
    e = Domain.ellipse(a, b)
    rng = np.random.default_rng(32)
    box = rng.uniform(-1.3 * a, 1.3 * a, (4000, 2))
    s = np.linspace(-2.0 * a, 2.0 * a, 41)
    on_axes = np.concatenate([np.stack([s, 0 * s], 1), np.stack([0 * s, s], 1)])
    # just off the major axis inside the evolute: the generic branch, near its pole
    x = rng.uniform(-1.0, 1.0, 200) * (a * a - b * b) / a
    near = np.stack([x, rng.choice([-2e-14, 2e-14], 200) * a], axis=1)
    for pts, ref in ((box, _ref_project_ellipse(e, box)),
                     (on_axes, _ref_project_ellipse(e, on_axes)),
                     (near, _decimal_feet(axes, near))):
        foot = geometry._project_ellipse(e, pts)
        assert np.max(np.abs(foot - ref)) <= 1e-12
        assert np.max(_level(axes, foot)) <= 4e-15


def test_newton_projection_near_the_major_axis():
    e = Domain.ellipse(1.5, 1.0)
    rng = np.random.default_rng(33)
    ys = 1.5 * np.concatenate([np.full(50, 2e-14), np.logspace(-13.5, np.log10(0.05), 50)])
    near = np.stack([rng.uniform(-0.8, 0.8, 100), ys * rng.choice([-1, 1], 100)], axis=1)
    pts = np.concatenate([_overshoots(1.5, 1.0, 50, rng), near])
    foot = geometry._project_ellipse(e, pts)
    # in s the foot stays on the ellipse where t's resolution of ulp(b^2)
    # left the bisection in t up to 7.3e-3 off it
    assert np.max(np.abs(foot[50:] - _decimal_feet((1.5, 1.0), near))) <= 1e-12
    assert np.max(_level((1.5, 1.0), foot)) <= 4e-15
    assert np.max(np.abs(foot[:50] - _ref_project_ellipse(e, pts[:50]))) <= 1e-14


def test_newton_projection_near_the_cusp():
    a, b = 1.5, 1.0
    e = Domain.ellipse(a, b)
    rng = np.random.default_rng(34)
    cusp = (a * a - b * b) / a
    pts = np.array([cusp, 0.0]) + rng.uniform(-1e-6, 1e-6, (200, 2))
    pts[:20, 1] = rng.choice([-1.0, 1.0], 20) * np.logspace(-13.8, -8, 20) * a
    pts[20:25] = [[cusp, 0.0], [-cusp, 0.0], [np.nextafter(cusp, 2.0), 0.0],
                  [np.nextafter(cusp, 2.0), 1e-300], [cusp, 2e-14 * a]]
    foot = geometry._project_ellipse(e, pts)
    assert np.all(np.isfinite(foot))
    assert np.max(_level((a, b), foot)) <= 4e-15
    # near the cusp the distance is flat along the ellipse to fourth order, so
    # |G| <= 2e-15 fixes the distance to rounding but the foot only to ~1e-12
    generic = np.abs(pts[:, 1]) >= 1e-14 * a
    ref = _decimal_feet((a, b), pts[generic])
    assert np.max(np.abs(foot[generic] - ref)) <= 1e-10
    dist = np.linalg.norm(pts[generic] - foot[generic], axis=1)
    assert np.max(np.abs(dist - np.linalg.norm(pts[generic] - ref, axis=1))) <= 1e-15
    assert np.array_equal(foot[20:23], [[a, 0.0], [-a, 0.0], [a, 0.0]])


def test_newton_feet_do_not_depend_on_the_batch():
    # a converged foot took further Newton steps while others in its batch
    # had not converged, which moved it by an ulp
    a, b = 1.5, 1.0
    e = Domain.ellipse(a, b)
    rng = np.random.default_rng(35)
    cusp = (a * a - b * b) / a
    pts = np.concatenate([
        _overshoots(a, b, 100, rng, 1e-3),
        np.array([cusp, 0.0]) + rng.uniform(-1e-6, 1e-6, (100, 2)),
    ])
    foot = geometry._project_ellipse(e, pts)
    alone = np.concatenate([geometry._project_ellipse(e, p[None, :]) for p in pts])
    assert np.array_equal(foot, alone)


# ---------------------------------------------------------------------------
# the projection against its earlier numpy form
#
# The _prev_* functions are verbatim copies of the earlier outside, Newton
# projection, secular start, 2-column norm and project_points (renamed only),
# kept as the bit-for-bit reference for the form with fewer numpy calls.

_TINY = np.finfo(float).tiny
_G_TOL = 3.0 * np.finfo(float).eps


def _prev_norm(pts: np.ndarray) -> np.ndarray:
    if pts.shape[1] != 2:  # d >= 3 keeps einsum's rounding, not that of a sequential sum
        return np.sqrt(np.einsum("ij,ij->i", pts, pts))
    sq = pts * pts  # both columns in one contiguous product
    return np.sqrt(sq[:, 0] + sq[:, 1])


def _prev_outside(domain, pts: np.ndarray) -> np.ndarray:
    if domain.kind == "ball":
        return _prev_norm(pts) > domain.radius
    a, b = domain.semi_axes
    return 1.0 - (pts[:, 0] / a) ** 2 - (pts[:, 1] / b) ** 2 < 0


def _prev_project_ellipse(domain, pts: np.ndarray):
    a, b = domain.semi_axes
    ax_, ay_ = np.abs(pts[:, 0]), np.abs(pts[:, 1])
    c2 = a * a - b * b
    on_axis = ay_ < 1e-14 * a
    # points on the major axis up to the evolute's cusp have an off-axis nearest foot
    medial = on_axis & (ax_ * a <= c2) if c2 > 0 else on_axis & (ax_ == 0.0)
    any_medial = medial.any()
    # the engine's hits are all exterior, so it never pays for the masked copies
    gen = ~medial if any_medial else slice(None)
    gx, gy = (ax_[gen], ay_[gen]) if any_medial else (ax_, ay_)

    foot = np.empty_like(pts)
    if gx.size:
        A, B = a * gx, b * gy
        s = _prev_secular_start(a, b, A, B)
        # outside the ellipse the root has t >= 0, that is s >= b^2
        s = np.where((gx / a) ** 2 + (gy / b) ** 2 > 1.0, np.maximum(s, b * b), s)
        for _ in range(12):  # a cap well above the seven checks the sweep needed
            sc = s + c2
            fx, fy = A / sc, B / s
            fx2, fy2 = fx * fx, fy * fy
            g = fx2 + fy2 - 1.0
            # a converged foot stays put, so it does not depend on its batch
            open_ = np.abs(g) > _G_TOL
            if not open_.any():
                break
            s = np.where(open_, s + g / (2.0 * (fx2 / sc + fy2 / s)), s)
        foot[gen, 0] = a * fx
        foot[gen, 1] = b * fy
    np.copysign(foot, pts, out=foot)
    if any_medial:
        if c2 > 0:
            mx = np.minimum(a * a * ax_[medial] / c2, a)
            my = b * np.sqrt(np.maximum(0.0, 1.0 - (mx / a) ** 2))  # tie-break: positive y
        else:
            # circle written as an ellipse: center resolves along the first axis
            mx, my = a, 0.0
        foot[medial, 0] = np.where(pts[medial, 0] >= 0, mx, -mx)
        foot[medial, 1] = my
    return foot


def _prev_secular_start(a, b, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d = A - (a * a - b * b)
    beta = B * math.sqrt((a * a - b * b) / 2.0)  # sqrt(K)
    # _TINY keeps 0 / 0 out on the major axis beyond the cusp (B = 0, e <= 0)
    cusp = beta / np.sqrt(np.cbrt(beta) ** 2 + np.maximum(-d, 0.0) + _TINY)
    return np.maximum(np.maximum(B, d), cusp)


def _prev_project_points(domain, x) -> tuple:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if domain.kind == "ball":
        r0 = domain.radius
        r = _prev_norm(pts)
        foot = pts * (r0 / np.where(r > 0, r, np.inf))[:, None]
        foot[:, 0][r == 0] = r0  # tie-break at the exact center; faster than [r == 0, 0]
        return foot, -foot / r0, np.abs(r - r0)
    foot = _prev_project_ellipse(domain, pts)
    a, b = domain.semi_axes
    normal = foot / np.array([-a * a, -b * b])  # -(x/a^2, y/b^2): inward at the foot
    normal /= _prev_norm(normal)[:, None]
    dist = _prev_norm(pts - foot)
    return foot, normal, dist


def _engine_hits(domain, monkeypatch):
    """The points that a short run of the path engine projects, one batch per step."""
    batches = []

    def record(dom, x):
        batches.append(np.array(x))
        return project_points(dom, x)

    monkeypatch.setattr(reflectsim, "project_points", record)
    reflectsim.run_paths(domain, 512, 0.1, 1e-3, 7, [])  # uniform starts
    monkeypatch.undo()
    return batches


def _sweep(domain, rng):
    """Box points, the axes, the cusp, medial-axis points and the exact center."""
    a, b = domain.semi_axes[:2]
    d = domain.dim
    box = rng.uniform(-1.3 * a, 1.3 * a, (4000, d))
    box[:1000] *= np.exp(rng.uniform(-30.0, 1.0, (1000, 1)))  # down to the center
    s = np.linspace(-2.0 * a, 2.0 * a, 41)
    axes = np.zeros((len(s) * d, d))
    for i in range(d):
        axes[i * len(s) : (i + 1) * len(s), i] = s
    pts = [box, axes, np.zeros((1, d)), -np.zeros((1, d))]
    if domain.kind == "ellipse":
        cusp = (a * a - b * b) / a
        near = np.array([cusp, 0.0]) + rng.uniform(-1e-6, 1e-6, (200, 2))
        near[:20, 1] = rng.choice([-1.0, 1.0], 20) * np.logspace(-13.8, -8, 20) * a
        medial = np.stack([rng.uniform(-1.0, 1.0, 200) * max(cusp, 1e-3),
                           rng.choice([-2e-14, 2e-14, -0.0, 0.0, 1e-300], 200) * a], axis=1)
        pts += [near, medial, [[cusp, 0.0], [-cusp, 0.0], [np.nextafter(cusp, 2.0), 1e-300]]]
    return np.concatenate(pts)


@pytest.mark.parametrize("domain", [Domain.ellipse(1.5, 1.0), Domain.ellipse(2.0, 1.0),
                                    Domain.ellipse(1.0, 1.0), Domain.disk(), Domain.disk(0.7),
                                    Domain.ball(3, 1.5)],
                         ids=["ellipse", "ellipse-2", "circle", "disk", "disk-0.7", "ball"])
def test_projection_is_the_previous_form_bit_for_bit(domain, monkeypatch):
    rng = np.random.default_rng(36)
    hits = _engine_hits(domain, monkeypatch)
    assert sum(map(len, hits)) > 1000  # a few hundred steps of a few hits each
    sweep = _sweep(domain, rng)
    # the engine's batches one by one; the sweep whole, in small batches and point by point
    batches = hits + [sweep] + np.array_split(sweep, 97) + [sweep[i : i + 1] for i in range(300)]
    for pts in batches:
        assert np.array_equal(outside(domain, pts), _prev_outside(domain, pts))
        for new, prev in zip(project_points(domain, pts), _prev_project_points(domain, pts)):
            assert np.array_equal(new, prev)
            assert np.array_equal(np.signbit(new), np.signbit(prev))
    # the exact center keeps its tie-break: (0, b) on the ellipse, else the first axis
    a, b = domain.semi_axes[:2]
    want = np.zeros(domain.dim)
    if a > b:
        want[1] = b
    else:
        want[0] = a
    for center in (np.zeros((1, domain.dim)), -np.zeros((1, domain.dim))):
        assert np.array_equal(project_points(domain, center)[0], [want])


@pytest.mark.parametrize("r", [1.0, 0.7, 1.5, 0.3])
def test_the_disk_is_the_2_ball(r):
    disk = Domain.disk(r)
    assert disk == Domain.ball(2, r) and disk.kind == "ball"
    assert disk.dim == 2 and disk.radius == r and disk.semi_axes == (r, r)
    # the ball formulas give the disk's own, bit for bit
    assert disk.volume == math.pi * r**2
    assert disk.boundary_measure == 2.0 * math.pi * r
    # the 2-ball has the disk's points on its circle; the 4-ball has none
    nodes = boundary_points(Domain.ball(2, r), 8)
    assert np.array_equal(nodes, boundary_points(disk, 8))
    assert np.linalg.norm(nodes, axis=1) == pytest.approx(np.full(8, r), rel=1e-14)
    with pytest.raises(NotImplementedError):
        boundary_points(Domain.ball(4), 8)


def test_ellipse_x1_semi_axis_is_the_longer():
    # the x1 semi-axis a must be the longer: b > a once swapped the axes silently
    with pytest.raises(ValueError, match="a >= b"):
        Domain.ellipse(1.0, 1.5)
    e = Domain.ellipse(1.5, 1.0)
    assert e.semi_axes == (1.5, 1.0) and not outside(e, np.array([[1.4, 0.0]]))[0]
    assert Domain.ellipse(1.0, 1.0).semi_axes == (1.0, 1.0)


def test_ball_measures_and_sphere_rule():
    b = Domain.ball(3)
    assert b.volume == pytest.approx(4 * np.pi / 3, rel=1e-12)
    assert b.boundary_measure == pytest.approx(4 * np.pi, rel=1e-12)
    nodes = boundary_points(b, 500)
    assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-12)


def test_sampling_and_grid_deterministic():
    d = Domain.disk()
    a = interior_grid(d, 16)
    b = interior_grid(d, 16)
    assert np.array_equal(a, b)
    assert np.all(np.linalg.norm(a, axis=1) < 1.0)


def test_uniform_sampling_refuses_a_ball_too_thin_in_its_box():
    # rejection from the box accepts |D| / (2r)^n of the draws: 2.5e-8 on the 20-ball,
    # where interior_grid never returned
    for n in (14, 20, 64):
        with pytest.raises(LowAcceptance, match=f"the {n}-d ball fills"):
            interior_grid(Domain.ball(n), 32)
        with pytest.raises(LowAcceptance, match="below the 0.0001"):
            sample_uniform(Domain.ball(n, 0.5), 1, np.random.default_rng(0))
    # the 13-ball accepts 1.1e-4 of its draws
    grid = interior_grid(Domain.ball(13), 4)
    assert grid.shape == (4, 13) and not outside(Domain.ball(13), grid).any()


def test_gamma_is_scipys_bit_for_bit_in_every_ball_dimension():
    from scipy.special import gamma

    # volume and boundary measure read Gamma(n/2 + 1) and Gamma(n/2)
    for n in range(2, 65):
        for x in (n / 2, n / 2 + 1):
            assert geometry._gamma(x) == gamma(x), x
        ball = Domain.ball(n, 0.7)
        assert ball.volume == math.pi ** (n / 2) / gamma(n / 2 + 1) * 0.7**n
        assert ball.boundary_measure == 2.0 * math.pi ** (n / 2) / gamma(n / 2) * 0.7 ** (n - 1)


def test_ball_dimension_past_the_rational_branch_of_gamma_is_refused():
    # from n = 65 Gamma(n/2 + 1) > 33, where Cephes, and so scipy, takes Stirling's series
    for n in (1, 65, 100):
        with pytest.raises(ValueError, match="between 2 and 64"):
            Domain.ball(n)


def test_elliptic_e_is_scipys_bit_for_bit():
    from scipy.special import ellipe

    # the m = 1 - (b/a)^2 of every ellipse the tests and the benchmark build
    built = [1.0 - (b / a) ** 2 for a, b in [(1.5, 1.0), (2.0, 1.0), (1.2, 1.0), (1.0, 1.0)]]
    m = np.concatenate([built, np.random.default_rng(11).random(20_000),
                        1.0 - np.logspace(-12, 0, 2001)])
    assert np.all((m >= 0.0) & (m < 1.0))
    ours = np.array([geometry._ellipe(float(v)) for v in m])
    assert ours.tobytes() == ellipe(m).tobytes()
    for a, b in [(1.5, 1.0), (2.0, 1.0), (1.2, 1.0)]:
        assert Domain.ellipse(a, b).boundary_measure == 4.0 * a * ellipe(1.0 - (b / a) ** 2)


def test_two_column_norm_is_einsums_bit_for_bit():
    # the ball's 2-d norm sqrt(x*x + y*y) rounds as the einsum it replaced
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 7, 8, 15, 16, 17, 100, 1000, 4097, 65_537, 100_000):
        for scale in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3):
            wide = rng.standard_normal((n, 3)) * scale
            for pts in (np.ascontiguousarray(wide[:, :2]), wide[:, 1:]):
                want = np.sqrt(np.einsum("ij,ij->i", pts, pts))
                assert np.array_equal(geometry._norm(pts), want)


@pytest.mark.parametrize("r", [1.0, 0.7, 1.5, 1e-3, 1e3])
def test_outside_and_projection_round_the_circle_alike(r):
    # points at |x| = r (1 - 1 ulp), r and r (1 + 1 ulp): their computed norms land on
    # both sides of r and on it, and both functions read the same norm
    theta = np.linspace(0.0, 2.0 * math.pi, 20_001)
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = np.concatenate([unit * rr for rr in (np.nextafter(r, 0), r, np.nextafter(r, 2 * r))])
    norm = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    assert (norm < r).any() and (norm == r).any() and (norm > r).any()
    disk = Domain.disk(r)
    hit = outside(disk, pts)
    assert np.array_equal(hit, norm > r)
    _, _, dist = project_points(disk, pts)
    assert np.array_equal(dist, np.abs(norm - r))
    assert np.all(dist[hit] > 0) and not hit[dist == 0].any()
