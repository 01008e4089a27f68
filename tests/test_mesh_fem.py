import numpy as np
import pytest
from scipy.special import iv

from reflectpde.geometry import Domain, eval_psi
from reflectpde.mesh_fem import (
    BadResolution,
    FemFunction,
    FieldLoadError,
    InnerDivergence,
    Mesh,
    MeshLoadError,
    MeshMismatch,
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
