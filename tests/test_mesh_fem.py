import numpy as np
import pytest
from scipy.special import iv

from reflectpde import PointLocationError as ExportedPointLocationError
from reflectpde import mesh_fem
from reflectpde.geometry import Domain, eval_psi, project_points
from reflectpde.mesh_fem import (
    BadResolution,
    FemFunction,
    FieldLoadError,
    InnerDivergence,
    Mesh,
    MeshLoadError,
    MeshMismatch,
    PointLocationError,
    build_mesh,
    export_field,
    export_mesh,
    h1_error,
    h1_norm,
    h1_seminorm,
    import_field,
    import_mesh,
    l2_norm,
    min_angle,
    residual_dual_norm,
    solve_g_lifting,
    solve_semilinear_g_frozen,
)
from reflectpde.reflectsim import PathObserver, run_paths
from .conftest import exact_solution


# ---------------------------------------------------------------------------
# meshing


def test_mesh_area_and_perimeter(meshes):
    mesh = meshes[0.1]
    assert mesh.areas.sum() == pytest.approx(np.pi, rel=0.02)
    assert mesh.edge_len.sum() == pytest.approx(2 * np.pi, rel=0.02)


def test_mesh_area_error_second_order(meshes):
    errs = [abs(meshes[h].areas.sum() - np.pi) for h in (0.1, 0.05, 0.025)]
    assert errs[0] / errs[1] > 3.0  # O(h^2) polygon deficit
    assert errs[1] / errs[2] > 3.0


def test_mesh_quality_contract(meshes):
    for h, mesh in meshes.items():
        assert mesh.h_max <= 1.5 * h
        assert min_angle(mesh) >= 20.0


def test_mesh_boundary_nodes_on_curve(disk, meshes):
    mesh = meshes[0.05]
    bnodes = np.unique(mesh.boundary_edges)
    val, _ = eval_psi(disk, mesh.nodes[bnodes])
    assert np.max(np.abs(val)) <= 1e-12


def test_mesh_conforming(meshes):
    mesh = meshes[0.1]
    edges = np.sort(mesh.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    boundary = np.sort(mesh.boundary_edges, axis=1)
    bset = {tuple(e) for e in boundary}
    for e, c in zip(uniq, counts):
        expected = 1 if tuple(e) in bset else 2
        assert c == expected
    assert np.all(mesh.areas > 0)


def test_bad_resolution():
    d = Domain.disk()
    with pytest.raises(BadResolution):
        build_mesh(d, 0.0)
    with pytest.raises(BadResolution):
        build_mesh(d, 5.0)
    with pytest.raises(BadResolution):
        build_mesh(d, 0.004, node_budget=50_000)


def test_meshing_is_2d_only():
    with pytest.raises(BadResolution):
        build_mesh(Domain.ball(3), 0.2)


def test_ellipse_mesh():
    e = Domain.ellipse(2.0, 1.0)
    mesh = build_mesh(e, 0.2)
    assert mesh.areas.sum() == pytest.approx(2 * np.pi, rel=0.02)
    val, _ = eval_psi(e, mesh.nodes[np.unique(mesh.boundary_edges)])
    assert np.max(np.abs(val)) <= 1e-12


# ---------------------------------------------------------------------------
# norms


def test_norms_constant_and_zero(meshes):
    mesh = meshes[0.05]
    one = FemFunction(mesh, np.ones(mesh.n_nodes))
    assert l2_norm(one) == pytest.approx(np.sqrt(mesh.areas.sum()), rel=1e-12)
    assert l2_norm(one) == pytest.approx(np.sqrt(np.pi), rel=0.01)
    zero = FemFunction(mesh, np.zeros(mesh.n_nodes))
    assert l2_norm(zero) == 0.0 and h1_norm(zero) == 0.0


def test_h1_norm_of_linear_interpolant(meshes):
    # integral of x1^2 over the unit disk is pi/4, of |grad x1|^2 is pi
    mesh = meshes[0.05]
    fn = FemFunction(mesh, mesh.nodes[:, 0])
    assert h1_norm(fn) ** 2 == pytest.approx(np.pi / 4 + np.pi, rel=0.01)
    assert h1_seminorm(fn) ** 2 == pytest.approx(np.pi, rel=0.01)


def test_h1_error_against_callable(meshes):
    mesh = meshes[0.05]
    vals = mesh.nodes[:, 0] ** 2 + mesh.nodes[:, 1] ** 2
    err = h1_error(FemFunction(mesh, vals), exact_solution)
    assert 0 < err < 0.1


def test_mesh_mismatch(meshes):
    a = FemFunction(meshes[0.1], np.zeros(meshes[0.1].n_nodes))
    b = FemFunction(meshes[0.05], np.zeros(meshes[0.05].n_nodes))
    with pytest.raises(MeshMismatch):
        _ = a - b


# ---------------------------------------------------------------------------
# Riesz lift of the divergence functional


def test_g_lifting_zero(meshes):
    G = solve_g_lifting(meshes[0.1], np.zeros_like(meshes[0.1].quad_x))
    assert np.max(np.abs(G.values)) < 1e-12


def test_g_lifting_residual(meshes):
    mesh = meshes[0.05]
    G = solve_g_lifting(mesh, mesh.quad_x)
    rhs = mesh.gradient_load(mesh.quad_x)
    sys = mesh.stiffness() + mesh.mass()
    assert mesh.dual_norm(sys @ G.values - rhs) <= 1e-10


def test_g_lifting_refinement_self_oracle(meshes):
    # reference solve at h/2; H^1 difference must be O(h)
    G1 = solve_g_lifting(meshes[0.05], meshes[0.05].quad_x)
    G2 = solve_g_lifting(meshes[0.025], meshes[0.025].quad_x)

    def as_callable(fn):
        def wrapped(points):
            return fn.value_grad_at(points)

        return wrapped

    diff = h1_error(G1, as_callable(G2))
    assert diff < 0.08
    # analytic radial solution: G(r) = -2 + I0(r)/I1(1)
    r = np.linalg.norm(meshes[0.025].nodes, axis=1)
    exact = -2.0 + iv(0, r) / iv(1, 1.0)
    assert np.max(np.abs(G2.values - exact)) < 5e-3


def test_g_lifting_bounded_under_refinement(meshes):
    sups = [
        np.max(np.abs(solve_g_lifting(meshes[h], meshes[h].quad_x).values))
        for h in (0.1, 0.05, 0.025)
    ]
    assert max(sups) / min(sups) < 1.05


# ---------------------------------------------------------------------------
# semilinear solve with frozen divergence


def test_trivial_solution_zero(meshes, corpus_a):
    from reflectpde.coeffexpr import CoefficientSet

    zero = CoefficientSet.from_strings(2, f="0", g=["0", "0"], h="0", q="-1")
    u = solve_semilinear_g_frozen(meshes[0.1], zero, inner_tol=1e-12)
    assert np.max(np.abs(u.values)) < 1e-12


def test_trivial_solution_one(meshes):
    from reflectpde.coeffexpr import CoefficientSet

    c = CoefficientSet.from_strings(2, f="1", g=["0", "0"], h="0", q="-1")
    u = solve_semilinear_g_frozen(meshes[0.1], c, inner_tol=1e-12)
    assert np.max(np.abs(u.values - 1.0)) < 1e-10


def test_manufactured_convergence(meshes, corpus_a):
    errs = []
    for h in (0.1, 0.05, 0.025):
        u = solve_semilinear_g_frozen(meshes[h], corpus_a, inner_tol=1e-11)
        errs.append(h1_error(u, exact_solution))
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


def test_galerkin_orthogonality(meshes):
    # linear (u-independent) data: the discrete residual vanishes on the test space
    from reflectpde.coeffexpr import CoefficientSet

    c = CoefficientSet.from_strings(
        2, f="x1 + 0.3*x2", g=["x2", "x1"], h="x1", q="-1"
    )
    mesh = meshes[0.05]
    u = solve_semilinear_g_frozen(mesh, c, g_quad=mesh.quad_x[..., ::-1], inner_tol=1e-12)
    res = residual_dual_norm(mesh, c, u)
    assert res <= 1e-10


def test_inner_divergence_reported(meshes):
    from reflectpde.coeffexpr import CoefficientSet

    # f increasing steeply in y breaks the damped fixed point
    c = CoefficientSet.from_strings(2, f="25*y + 1", g=["0", "0"], h="0", q="-1")
    with pytest.raises(InnerDivergence) as err:
        solve_semilinear_g_frozen(meshes[0.1], c, inner_tol=1e-12, budget=40)
    assert err.value.residual > 0 or not np.isfinite(err.value.residual)


def test_weak_form_consistency_rate(meshes, corpus_a):
    # discrete bilinear form on interpolants of a smooth pair converges
    def smooth(points):
        pts = np.atleast_2d(points)
        return np.sin(pts[:, 0]) * np.cos(pts[:, 1])

    def bilinear(mesh):
        u = FemFunction(mesh, smooth(mesh.nodes))
        v = FemFunction(mesh, mesh.nodes[:, 0])
        return 0.5 * float(u.values @ (mesh.stiffness() @ v.values))

    exact = None
    vals = [bilinear(meshes[h]) for h in (0.1, 0.05, 0.025)]
    # Richardson: the sequence must be Cauchy with decreasing gaps
    gaps = [abs(vals[0] - vals[1]), abs(vals[1] - vals[2])]
    assert gaps[1] < gaps[0]


# ---------------------------------------------------------------------------
# export / import


def test_mesh_and_field_roundtrip(tmp_path, meshes, corpus_a):
    mesh = meshes[0.1]
    u = solve_semilinear_g_frozen(mesh, corpus_a, inner_tol=1e-11)
    mpath = tmp_path / "mesh.txt"
    fpath = tmp_path / "field.csv"
    export_mesh(mesh, mpath)
    export_field(u, fpath)
    mesh2 = import_mesh(mpath)
    assert np.array_equal(mesh2.nodes, mesh.nodes)
    assert np.array_equal(mesh2.triangles, mesh.triangles)
    u2 = import_field(fpath, mesh2)
    assert np.array_equal(u2.values, u.values)


def test_mesh_load_errors(tmp_path, meshes):
    good = tmp_path / "mesh.txt"
    export_mesh(meshes[0.1], good)
    text = good.read_text()
    bad_tag = tmp_path / "bad_tag.txt"
    bad_tag.write_text(text.replace("triangles ", "triangels "))
    truncated = tmp_path / "truncated.txt"
    truncated.write_text(text[: len(text) // 2])
    not_mesh = tmp_path / "not_mesh.txt"
    not_mesh.write_text("node,x,y,value\n")
    for path in (bad_tag, truncated, not_mesh):
        with pytest.raises(MeshLoadError):
            import_mesh(path)


def test_field_load_errors(tmp_path, meshes):
    mesh = meshes[0.1]
    bad = tmp_path / "bad.csv"
    bad.write_text("node,x,y,value\n0,99.0,99.0,1.0\n")
    with pytest.raises(FieldLoadError):
        import_field(bad, mesh)


def _field_lines(tmp_path, mesh):
    """Header and rows of an exported field of ``mesh``."""
    path = tmp_path / "field.csv"
    export_field(FemFunction(mesh, mesh.nodes[:, 0] - mesh.nodes[:, 1]), path)
    return path.read_text().splitlines(keepends=True)


def test_field_import_takes_rows_in_any_order(tmp_path, meshes):
    mesh = meshes[0.1]
    lines = _field_lines(tmp_path, mesh)
    rows = lines[1:]
    np.random.default_rng(5).shuffle(rows)
    # a position off by less than the per-row allclose tolerance still loads
    i, x, y, v = rows[3].split(",")
    rows[3] = f"{i},{float(x) + 5e-10!r},{y},{v}"
    path = tmp_path / "shuffled.csv"
    path.write_text(lines[0] + "".join(rows))
    u = import_field(path, mesh)
    assert np.array_equal(u.values, mesh.nodes[:, 0] - mesh.nodes[:, 1])


@pytest.mark.parametrize("fault", ["duplicate", "negative", "out_of_range", "fraction",
                                   "unparsable", "short_row", "moved"])
def test_field_import_rejects_bad_rows(tmp_path, meshes, fault):
    mesh = meshes[0.1]
    lines = _field_lines(tmp_path, mesh)
    n = mesh.n_nodes
    last = lines[n].split(",", 1)[1]  # the row of node n - 1 without its index
    if fault == "duplicate":
        lines[2] = lines[1]  # node 0 twice, node 1 missing
    elif fault == "negative":
        lines[n] = "-1," + last  # wraps around to node n - 1 if taken as an index
    elif fault == "out_of_range":
        lines[n] = f"{n}," + last
    elif fault == "fraction":
        lines[n] = f"{n - 1.5}," + last
    elif fault == "unparsable":
        lines[5] = lines[5].rsplit(",", 1)[0] + ",zero\n"
    elif fault == "short_row":
        lines[5] = lines[5].rsplit(",", 1)[0] + "\n"
    else:
        i, x, y, v = lines[5].split(",")
        lines[5] = f"{i},{float(x) + 1e-3!r},{y},{v}"
    path = tmp_path / "bad.csv"
    path.write_text("".join(lines))
    with pytest.raises(FieldLoadError):
        import_field(path, mesh)


def test_point_location_and_eval(meshes):
    mesh = meshes[0.05]
    vals = mesh.nodes[:, 0] ** 2 + mesh.nodes[:, 1] ** 2
    fn = FemFunction(mesh, vals)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.6, 0.6, (500, 2))
    v, g = fn.value_grad_at(pts)
    exact_v, exact_g = exact_solution(pts)
    assert np.max(np.abs(v - exact_v)) < 5e-3
    assert np.max(np.linalg.norm(g - exact_g, axis=1)) < 0.12
    # points slightly outside the polygon evaluate by linear extension
    theta = np.linspace(0, 2 * np.pi, 64)
    outside = 1.02 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    v, _ = fn.value_grad_at(outside)
    assert np.all(np.isfinite(v))
    assert np.max(np.abs(v - 1.04)) < 0.1


def test_point_far_outside_raises(meshes):
    mesh = meshes[0.05]
    fn = FemFunction(mesh, mesh.nodes[:, 0])
    theta = np.linspace(0, 2 * np.pi, 16)
    far = 1.5 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for points in (far, np.vstack([np.zeros((3, 2)), far[:1]])):
        with pytest.raises(PointLocationError):
            fn.value_grad_at(points)
        with pytest.raises(PointLocationError):
            mesh.find_triangles(points, np.zeros(len(points), dtype=np.int64))
    assert issubclass(ExportedPointLocationError, ValueError)
    assert ExportedPointLocationError is PointLocationError


# ---------------------------------------------------------------------------
# point location: the walk against the bucket locator it replaced
#
# _TriLocator is a verbatim copy of the uniform-grid bucket locator that
# Mesh.find_triangles used before the walk.  It takes, among the triangles
# overlapping the point's grid cell, the one with the largest containment
# score (the smallest barycentric coordinate).


class _TriLocator:
    """Uniform-grid bucket index over triangles for O(1) point location."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        p = mesh.nodes[mesh.triangles]
        self.lo = mesh.nodes.min(axis=0) - 1e-9
        hi = mesh.nodes.max(axis=0) + 1e-9
        self.cell = max(mesh.h_max, 1e-12)
        self.shape = np.maximum(1, np.ceil((hi - self.lo) / self.cell).astype(int))
        tlo = ((p.min(axis=1) - self.lo) / self.cell).astype(int)
        thi = ((p.max(axis=1) - self.lo) / self.cell).astype(int)
        buckets: dict = {}
        for t in range(len(p)):
            for ix in range(tlo[t, 0], min(thi[t, 0], self.shape[0] - 1) + 1):
                for iy in range(tlo[t, 1], min(thi[t, 1], self.shape[1] - 1) + 1):
                    buckets.setdefault((ix, iy), []).append(t)
        maxc = max(len(v) for v in buckets.values())
        self.cand = -np.ones((self.shape[0], self.shape[1], maxc), dtype=np.int64)
        for (ix, iy), lst in buckets.items():
            self.cand[ix, iy, : len(lst)] = lst

    def _best_of(self, points, cand):
        m = self.mesh
        safe = np.maximum(cand, 0)
        p0 = m.nodes[m.triangles[safe, 0]]                   # (n, maxc, 2)
        d = points[:, None, :] - p0
        # barycentric coordinates via the cached basis gradients
        g1 = m.grads[safe, 1]
        g2 = m.grads[safe, 2]
        l1 = np.einsum("ncd,ncd->nc", g1, d)
        l2 = np.einsum("ncd,ncd->nc", g2, d)
        l0 = 1.0 - l1 - l2
        score = np.minimum(np.minimum(l0, l1), l2)
        score = np.where(cand < 0, -np.inf, score)
        best = np.argmax(score, axis=1)
        return cand[np.arange(len(points)), best]

    def query(self, points) -> np.ndarray:
        ij = np.clip(
            ((points - self.lo) / self.cell).astype(int), 0, self.shape - 1
        )
        out = self._best_of(points, self.cand[ij[:, 0], ij[:, 1]])
        missing = np.nonzero(out < 0)[0]
        # exterior points can land in empty cells; widen the search ring
        for row in missing:
            found = -1
            for ring in (1, 2, 4):
                x0 = max(0, ij[row, 0] - ring)
                x1 = min(self.shape[0], ij[row, 0] + ring + 1)
                y0 = max(0, ij[row, 1] - ring)
                y1 = min(self.shape[1], ij[row, 1] + ring + 1)
                cand = np.unique(self.cand[x0:x1, y0:y1])
                cand = cand[cand >= 0]
                if cand.size:
                    found = self._best_of(points[row][None, :], cand[None, :])[0]
                    break
            if found < 0:
                raise ValueError("point location failed: point far outside the mesh")
            out[row] = found
        return out


def _scores(mesh, points, t):
    """Containment score of each point in its triangle: its smallest barycentric."""
    d = points - mesh.nodes[mesh.triangles[t, 0]]
    l1 = np.einsum("nd,nd->n", mesh.grads[t, 1], d)
    l2 = np.einsum("nd,nd->n", mesh.grads[t, 2], d)
    return np.minimum(np.minimum(1.0 - l1 - l2, l1), l2)


def _area2(u, v, w):
    return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])


def _angle(at, u, v):
    x, y = u - at, v - at
    return np.arccos(x @ y / np.linalg.norm(x) / np.linalg.norm(y))


def _flip_one_edge(mesh):
    """The mesh with the interior edge flipped whose flip breaks the Delaunay
    property most, among those whose two new triangles keep positive area."""
    best = None
    for t, i in zip(*np.nonzero(mesh.neighbors >= 0)):
        s = mesh.neighbors[t, i]
        a, e1, e2 = mesh.triangles[t, [i, (i + 1) % 3, (i + 2) % 3]]
        b = next(v for v in mesh.triangles[s] if v not in (e1, e2))
        pa, p1, p2, pb = mesh.nodes[[a, e1, e2, b]]
        if _area2(pa, p1, pb) <= 1e-12 or _area2(pa, pb, p2) <= 1e-12:
            continue
        opposite = _angle(p1, pa, pb) + _angle(p2, pa, pb)  # > pi: not Delaunay
        if best is None or opposite > best[0]:
            best = (opposite, t, s, [a, e1, b], [a, b, e2])
    opposite, t, s, new_t, new_s = best
    assert opposite > np.pi + 0.1
    tris = mesh.triangles.copy()
    tris[t], tris[s] = new_t, new_s
    flipped = Mesh(mesh.nodes, tris, mesh.boundary_edges)
    assert np.all(flipped.areas > 0)
    return flipped


CASES = ["disk-0.1", "disk-0.05", "ellipse-0.05", "disk-0.1-flipped"]


@pytest.fixture(scope="module")
def location_cases():
    disk, ellipse = Domain.disk(), Domain.ellipse(1.5, 1.0)
    disk_01 = build_mesh(disk, 0.1)
    meshes = [disk_01, build_mesh(disk, 0.05), build_mesh(ellipse, 0.05), _flip_one_edge(disk_01)]
    return dict(zip(CASES, zip([disk, disk, ellipse, disk], meshes)))


def _check_against_reference(mesh, ref, points, hint=None):
    fn = FemFunction(mesh, np.sin(3 * mesh.nodes[:, 0]) + mesh.nodes[:, 1] ** 2)
    t_ref = ref.query(points)
    t = mesh.find_triangles(points, hint)
    assert np.max(np.abs(_scores(mesh, points, t) - _scores(mesh, points, t_ref))) <= 1e-12
    assert np.max(np.abs(fn.value_at(points, t) - fn.value_at(points, t_ref))) <= 1e-12
    assert np.max(np.abs(fn.value_at(points) - fn.value_at(points, t_ref))) <= 1e-12
    # the hint changes the walk, not the answer
    far = np.argmax(np.linalg.norm(mesh.nodes[mesh.triangles[:, 0]], axis=1))
    for other in (None, t_ref, np.full(len(points), far)):
        assert np.array_equal(mesh.find_triangles(points, other), t)
    return t


@pytest.mark.parametrize("case", CASES)
def test_walk_matches_bucket_locator(location_cases, case):
    domain, mesh = location_cases[case]
    ref = _TriLocator(mesh)
    rng = np.random.default_rng(5)
    half = np.array(domain.semi_axes if domain.kind == "ellipse" else (1.0, 1.0))
    box = rng.uniform(-1.0, 1.0, (4000, 2)) * half
    uniform = box[eval_psi(domain, box)[0] > 0]
    _check_against_reference(mesh, ref, uniform)
    # feet on the curved boundary lie just outside the mesh polygon
    theta = rng.uniform(0, 2 * np.pi, 2000)
    raw = 1.2 * half * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    feet = project_points(domain, raw)[0]
    assert np.max(np.abs(eval_psi(domain, feet)[0])) < 1e-9
    _check_against_reference(mesh, ref, feet)


class _HintedLocation(PathObserver):
    """Locates every path position with its previous triangle as the hint."""

    def __init__(self, mesh):
        self.mesh, self.ref = mesh, _TriLocator(mesh)
        self.steps = 0

    def start_chunk(self, indices, x0):
        self.tri = _check_against_reference(self.mesh, self.ref, x0)

    def step(self, ctx):
        self.tri = _check_against_reference(self.mesh, self.ref, ctx.x_new, self.tri)
        self.steps += 1


@pytest.mark.parametrize("case", CASES)
def test_walk_along_reflected_paths(location_cases, case):
    domain, mesh = location_cases[case]
    obs = _HintedLocation(mesh)
    run_paths(domain, 200, 0.06, 2e-3, 17, [obs])
    assert obs.steps == 30


def test_neighbor_table(meshes):
    mesh = meshes[0.1]
    nb = mesh.neighbors
    assert np.count_nonzero(nb < 0) == len(mesh.boundary_edges)
    for t, i in zip(*np.nonzero(nb >= 0)):
        s = nb[t, i]
        assert t in nb[s]
        shared = set(mesh.triangles[t]) - {mesh.triangles[t, i]}
        assert shared <= set(mesh.triangles[s])


def test_orientation_is_counter_clockwise(meshes):
    mesh = meshes[0.1]
    mixed = mesh.triangles.copy()
    mixed[::2] = mixed[::2, ::-1]  # every other triangle clockwise
    fixed = Mesh(mesh.nodes, mixed, mesh.boundary_edges)
    assert np.array_equal(fixed.triangles[::2], mixed[::2][:, [0, 2, 1]])
    assert np.array_equal(fixed.triangles[1::2], mesh.triangles[1::2])
    assert np.allclose(fixed.areas, mesh.areas, rtol=1e-12, atol=0)
    assert np.array_equal(fixed.grads[1::2], mesh.grads[1::2])


def test_walk_cap_finishes_by_best_score(monkeypatch, meshes):
    # with the step cap at zero every point takes the exact finish, which must
    # agree with the walk inside the mesh
    mesh = meshes[0.05]
    pts = np.random.default_rng(8).uniform(-0.65, 0.65, (300, 2))
    walked = mesh.find_triangles(pts)
    monkeypatch.setattr(mesh_fem.math, "isqrt", lambda n: -4)
    assert np.array_equal(mesh.find_triangles(pts, np.zeros(len(pts), dtype=np.int64)), walked)
