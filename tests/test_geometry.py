import numpy as np
import pytest

from reflectpde import geometry
from reflectpde.geometry import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    BadOrder,
    Domain,
    PenalizationField,
    boundary_quadrature,
    contains,
    eval_psi,
    interior_grid,
    project_points,
    project_to_boundary,
    sample_uniform,
)


def test_psi_disk_boundary_point():
    val, grad = eval_psi(Domain.disk(), (0.6, 0.8))
    assert val == pytest.approx(0.0, abs=1e-15)
    assert grad == pytest.approx([-0.6, -0.8])


def test_psi_disk_center_and_exterior():
    d = Domain.disk()
    val, grad = eval_psi(d, (0.0, 0.0))
    assert val == 0.5 and np.all(grad == 0.0)
    val, grad = eval_psi(d, (2.0, 0.0))
    assert val == pytest.approx(-1.5)
    assert grad == pytest.approx([-2.0, 0.0])


def test_builtin_measures_analytic():
    assert Domain.disk().volume == pytest.approx(np.pi, rel=1e-12)
    assert Domain.disk().boundary_measure == pytest.approx(2 * np.pi, rel=1e-12)
    assert Domain.disk(radius=2.0).volume == pytest.approx(4 * np.pi, rel=1e-12)
    assert Domain.ball(3).volume == pytest.approx(4 * np.pi / 3, rel=1e-12)


def test_contains_classification():
    d = Domain.disk()
    assert contains(d, (0, 0)) == INTERIOR
    assert contains(d, (1, 0)) == BOUNDARY
    assert contains(d, (1.1, 0)) == EXTERIOR


def test_projection_examples():
    d = Domain.disk()
    foot, n, dist = project_to_boundary(d, (1.5, 0.0))
    assert foot == pytest.approx([1, 0]) and n == pytest.approx([-1, 0]) and dist == 0.5
    foot, n, dist = project_to_boundary(d, (0.5, 0.0))
    assert foot == pytest.approx([1, 0]) and dist == 0.5
    # symmetry center resolved along the first axis
    foot, n, dist = project_to_boundary(d, (0.0, 0.0))
    assert foot == pytest.approx([1, 0]) and n == pytest.approx([-1, 0]) and dist == 1.0


def test_boundary_quadrature_uniform_rule():
    d = Domain.disk()
    rule = boundary_quadrature(d, 4)
    nodes = np.array([node for node, _ in rule])
    weights = np.array([w for _, w in rule])
    angles = np.mod(np.arctan2(nodes[:, 1], nodes[:, 0]), 2 * np.pi)
    assert sorted(angles) == pytest.approx([0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert weights == pytest.approx(np.full(4, np.pi / 2))


def test_boundary_quadrature_weights_and_cos2():
    d = Domain.disk()
    rule = boundary_quadrature(d, 64)
    total = sum(w for _, w in rule)
    assert total == pytest.approx(2 * np.pi, rel=1e-14)
    # analytic oracle: integral of cos^2 over the circle is pi
    val = sum(w * (node[0] ** 2) for node, w in rule)
    assert val == pytest.approx(np.pi, abs=1e-10)


@pytest.mark.parametrize("m", [8, 16, 33])
def test_boundary_quadrature_trig_exactness(m):
    rule = boundary_quadrature(Domain.disk(), m)
    nodes = np.array([node for node, _ in rule])
    w = np.array([wt for _, wt in rule])
    theta = np.arctan2(nodes[:, 1], nodes[:, 0])
    for k in range(1, m):
        assert abs(np.sum(w * np.cos(k * theta))) < 1e-10
        assert abs(np.sum(w * np.sin(k * theta))) < 1e-10


def test_bad_order():
    with pytest.raises(BadOrder):
        boundary_quadrature(Domain.disk(), 2)


def test_penalization_matches_projection_on_exterior_points():
    d = Domain.disk()
    pen = PenalizationField(d)
    rng = np.random.default_rng(7)
    pts = rng.uniform(1.0, 3.0, 10_000)[:, None] * _unit(rng, 10_000)
    foot, normal, dist = project_points(d, pts)
    dval = pen.d(pts)
    delta = pen.delta(pts)
    assert np.allclose(dval, dist**2, rtol=1e-8)
    assert np.allclose(delta, 2.0 * dist[:, None] * (-normal), rtol=1e-8)


def _unit(rng, n):
    theta = rng.uniform(0, 2 * np.pi, n)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def test_penalization_vanishes_inside():
    d = Domain.disk()
    pen = PenalizationField(d)
    rng = np.random.default_rng(8)
    pts = sample_uniform(d, 2000, rng)
    assert np.all(pen.d(pts) == 0.0)
    assert np.all(pen.delta(pts) == 0.0)


def test_unit_inward_normal_and_penalization_sign():
    d = Domain.disk()
    rng = np.random.default_rng(9)
    bpts = _unit(rng, 10_000)
    _, grad = eval_psi(d, bpts)
    assert np.allclose(np.linalg.norm(grad, axis=1), 1.0, atol=1e-10)
    # <grad psi, delta> <= 0 at random ambient points
    pen = PenalizationField(d)
    amb = rng.uniform(-2.5, 2.5, (10_000, 2))
    _, g = eval_psi(d, amb)
    assert np.all(np.einsum("ij,ij->i", g, pen.delta(amb)) <= 1e-12)


def test_ellipse_measures_and_normals():
    e = Domain.ellipse(2.0, 1.0)
    assert e.volume == pytest.approx(2 * np.pi, rel=1e-12)
    rule = boundary_quadrature(e, 512)
    assert sum(w for _, w in rule) == pytest.approx(e.boundary_measure, rel=1e-14)
    theta = np.linspace(0, 2 * np.pi, 101)
    bpts = np.stack([2 * np.cos(theta), np.sin(theta)], axis=1)
    val, grad = eval_psi(e, bpts)
    assert np.allclose(val, 0.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(grad, axis=1), 1.0, atol=1e-10)


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
    foot, _, dist = project_to_boundary(e, (0.0, 0.0))
    # nearest points are (0, +-1); the tie-break picks the positive one
    assert foot == pytest.approx([0, 1]) and dist == pytest.approx(1.0)


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


def _bisected_counts(monkeypatch):
    """Record the number of points of every bisection fallback."""
    counts = []
    bisect = geometry._bisect_secular

    def counting(a, b, gx, gy):
        counts.append(len(gx))
        return bisect(a, b, gx, gy)

    monkeypatch.setattr(geometry, "_bisect_secular", counting)
    return counts


@pytest.mark.parametrize("axes", [(1.5, 1.0), (2.0, 1.0)])
def test_newton_projection_of_overshoots(monkeypatch, axes):
    e = Domain.ellipse(*axes)
    rng = np.random.default_rng(31)
    counts = _bisected_counts(monkeypatch)
    for depth in (1e-6, 0.1, 10.0):
        pts = _overshoots(*axes, 2000, rng, depth)
        ref = _ref_project_ellipse(e, pts)
        for batch in (pts[:1], pts[:74], pts):  # the engine's batches are small
            foot = geometry._project_ellipse(e, batch)
            assert np.max(np.abs(foot - ref[: len(batch)])) <= 1e-14
        # Newton stops with the foot on the ellipse to rounding
        level = (foot[:, 0] / axes[0]) ** 2 + (foot[:, 1] / axes[1]) ** 2 - 1.0
        assert np.max(np.abs(level)) <= 4e-15
    assert counts == []  # no exterior point needs the fallback


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
    for pts in (box, on_axes, near):
        foot = geometry._project_ellipse(e, pts)
        assert np.max(np.abs(foot - _ref_project_ellipse(e, pts))) <= 1e-12


def test_newton_projection_falls_back_to_bisection(monkeypatch):
    e = Domain.ellipse(1.5, 1.0)
    rng = np.random.default_rng(33)
    near = np.stack([rng.uniform(-0.8, 0.8, 50), np.full(50, 2e-14 * 1.5)], axis=1)
    pts = np.concatenate([_overshoots(1.5, 1.0, 50, rng), near])
    counts = _bisected_counts(monkeypatch)
    foot = geometry._project_ellipse(e, pts)
    # G jumps by more than the tolerance between adjacent floats of t near its
    # pole, so Newton cannot converge there and the bisection takes over
    assert counts == [50]
    assert np.array_equal(foot[50:], _ref_project_ellipse(e, near))
    assert np.max(np.abs(foot[:50] - _ref_project_ellipse(e, pts[:50]))) <= 1e-14


def test_ball_measures_and_sphere_rule():
    b = Domain.ball(3)
    assert b.volume == pytest.approx(4 * np.pi / 3, rel=1e-12)
    assert b.boundary_measure == pytest.approx(4 * np.pi, rel=1e-12)
    rule = boundary_quadrature(b, 500)
    assert sum(w for _, w in rule) == pytest.approx(4 * np.pi, rel=1e-12)
    nodes = np.array([n for n, _ in rule])
    assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-12)


def test_sampling_and_grid_deterministic():
    d = Domain.disk()
    a = interior_grid(d, 16)
    b = interior_grid(d, 16)
    assert np.array_equal(a, b)
    val, _ = eval_psi(d, a)
    assert np.all(val > 0)
