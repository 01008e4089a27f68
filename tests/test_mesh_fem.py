import math

import numpy as np
import pytest
from scipy.special import iv

from reflectpde import PointLocationError as ExportedPointLocationError
from reflectpde import mesh_fem
from reflectpde.coeffexpr import CoefficientSet, DomainError, PointMismatch
from reflectpde.geometry import Domain, project_points
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
    solve_semilinear_g_frozen,
)
from reflectpde.reflectsim import PathObserver, run_paths
from .conftest import F_A, F_B, G_B, H_A, H_B, Unrolled, exact_solution


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
    r = np.linalg.norm(mesh.nodes[bnodes], axis=1)
    assert np.max(np.abs(r - disk.radius)) <= 1e-12


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
        build_mesh(d, 0.003)  # ~336k nodes, refused before meshing


def test_meshing_is_2d_only():
    with pytest.raises(BadResolution):
        build_mesh(Domain.ball(3), 0.2)


def test_ellipse_mesh():
    e = Domain.ellipse(2.0, 1.0)
    mesh = build_mesh(e, 0.2)
    assert mesh.areas.sum() == pytest.approx(2 * np.pi, rel=0.02)
    x, y = mesh.nodes[np.unique(mesh.boundary_edges)].T
    assert np.max(np.abs((x / 2.0) ** 2 + y**2 - 1.0)) <= 1e-12


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
# Riesz lift of the divergence functional: the checks of Mesh.gradient_load and
# Mesh.gram_solve, which the solve and the dual norms read


def solve_g_lifting(mesh, g_quad):
    """G with (grad G, grad v) + (G, v) = (g, grad v) for all P1 test v; g at mesh.quad_x."""
    return FemFunction(mesh, mesh.gram_solve(mesh.gradient_load(g_quad)))


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


def test_manufactured_convergence_with_drift(meshes):
    from reflectpde.coeffexpr import CoefficientSet

    # u* = |x|^2 with b = (0.5, 0): <b, grad u*> = x1 moves into f
    errs = {}
    for b in ("0.5", "0"):
        drift = CoefficientSet.from_strings(
            2, f=F_A + " - x1", g=["0", "0"], h=H_A, q="-1", b=[b, "0"]
        )
        errs[b] = [
            h1_error(solve_semilinear_g_frozen(meshes[h], drift, inner_tol=1e-11), exact_solution)
            for h in (0.1, 0.05, 0.025)
        ]
    assert errs["0.5"][0] / errs["0.5"][1] >= 1.8
    assert errs["0.5"][1] / errs["0.5"][2] >= 1.8
    assert errs["0"][2] > 10 * errs["0.5"][2]  # without the convection term: no convergence


def test_galerkin_orthogonality(meshes):
    # linear (u-independent) data: the discrete residual vanishes on the test space
    from reflectpde.coeffexpr import CoefficientSet

    c = CoefficientSet.from_strings(
        2, f="x1 + 0.3*x2", g=["x2", "x1"], h="x1", q="-1"
    )
    mesh = meshes[0.05]
    g_load = mesh.gradient_load(mesh.quad_x[..., ::-1])
    u = mesh_fem.WeakForm(mesh, c).solve(g_load, inner_tol=1e-12)
    res = residual_dual_norm(mesh, c, u)
    assert res <= 1e-10


def test_inner_divergence_reported(meshes):
    from reflectpde.coeffexpr import CoefficientSet

    # no solution: against v = 1 the weak form asks int (e^u - u + 1) = 0, and the
    # integrand is at least 2, so any inner solver must give up
    c = CoefficientSet.from_strings(2, f="exp(y) + 1", g=["0", "0"], h="0", q="-1")
    form = mesh_fem.WeakForm(meshes[0.1], c)
    with pytest.raises(InnerDivergence) as err:
        form.solve(np.zeros(meshes[0.1].n_nodes), inner_tol=1e-12)
    assert err.value.residual > 0 or not np.isfinite(err.value.residual)


def _damped_solve(form, g_load, inner_tol, u0=None, budget=200):
    """The plain damped fixed point of WeakForm.solve before Anderson acceleration."""
    u = np.zeros(form.mesh.n_nodes) if u0 is None else np.array(u0, dtype=float)
    resid = float("inf")
    for _ in range(budget):
        rhs = form.load(u, g_load)
        resid = form.mesh.dual_norm(form.lhs @ u - rhs)
        if not np.isfinite(resid):
            raise InnerDivergence("inner iteration diverged (non-finite residual)", resid)
        if resid <= inner_tol:
            return FemFunction(form.mesh, u)
        u = (1.0 - mesh_fem._DAMPING) * u + mesh_fem._DAMPING * form._lu.solve(rhs)
    raise InnerDivergence(
        f"inner iteration did not reach tol={inner_tol:g} in {budget} steps", resid
    )


def _count_loads(monkeypatch):
    """Spy on Mesh.dual_norm, which the inner loop calls once per load."""
    calls = []
    dual_norm = Mesh.dual_norm

    def counting(self, residual):
        calls.append(1)
        return dual_norm(self, residual)

    monkeypatch.setattr(Mesh, "dual_norm", counting)
    return calls


def test_inner_loads_corpus_b(monkeypatch, meshes, corpus_b):
    loads = _count_loads(monkeypatch)
    solve_semilinear_g_frozen(meshes[0.05], corpus_b, inner_tol=1e-10)
    assert len(loads) <= 16  # the plain damped iteration takes 44


def test_inner_loads_data_independent_of_the_solution(monkeypatch, meshes):
    # an affine map: two steps of the accelerated iteration reach its fixed point
    data = CoefficientSet.from_strings(2, f="x1^2 - 2", g=["0", "0"], h="2", q="-1")
    loads = _count_loads(monkeypatch)
    solve_semilinear_g_frozen(meshes[0.05], data, inner_tol=1e-11)
    assert len(loads) <= 3  # the plain damped iteration takes 38


def test_accelerated_solve_matches_damped_iteration(meshes, corpus_b):
    mesh = meshes[0.05]
    form = mesh_fem.WeakForm(mesh, corpus_b)
    u_star = mesh.nodes[:, 0] ** 2 + mesh.nodes[:, 1] ** 2
    for g_load in (np.zeros(mesh.n_nodes), mesh.gradient_load(form.divergence(u_star))):
        fast = form.solve(g_load, inner_tol=1e-11)
        slow = _damped_solve(form, g_load, inner_tol=1e-11)
        assert h1_norm(fast - slow) <= 1e-9
        warm = form.solve(g_load, inner_tol=1e-11, u0=0.5 * u_star)
        assert h1_norm(warm - slow) <= 1e-9


def _unbound_load(mesh, coeffs, values, g_load):
    """WeakForm.load with f and h evaluated in full at every call, z always built."""
    y = mesh.quad_values(values).reshape(-1)
    z = np.repeat(mesh.tri_gradients(values), 6, axis=0)
    f = coeffs.f_at(mesh.quad_x.reshape(-1, 2), y, z).reshape(mesh.quad_w.shape)
    h = coeffs.h_at(mesh.edge_x.reshape(-1, 2), mesh.edge_values(values).reshape(-1))
    return mesh.load(f) + g_load + 0.5 * mesh.boundary_load(h.reshape(mesh.edge_w.shape))


def _linear_data():
    """Data that does not read the solution."""
    return CoefficientSet.from_strings(2, f="x1^2 - 2", g=["0", "0"], h="2 - x2", q="-1")


def test_bound_load_is_bit_identical(meshes, corpus_b):
    mesh = meshes[0.05]
    u = mesh.nodes[:, 0] ** 2 + np.sin(mesh.nodes[:, 1])
    z_reading = CoefficientSet.from_strings(2, f=F_B + " + 0.1*x1*z2", g=G_B, h=H_B, q="-1")
    for coeffs in (corpus_b, z_reading, _linear_data()):
        form = mesh_fem.WeakForm(mesh, coeffs)
        g_load = mesh.gradient_load(form.divergence(u))
        assert np.array_equal(form.load(u, g_load), _unbound_load(mesh, coeffs, u, g_load))
    g_reading = CoefficientSet.from_strings(2, f=F_A, g=["0.1*tanh(z1)", "x1*y"], h=H_A, q="-1")
    want = g_reading.g_at(mesh.quad_x.reshape(-1, 2), mesh.quad_values(u).reshape(-1),
                          np.repeat(mesh.tri_gradients(u), 6, axis=0))
    got = mesh_fem.WeakForm(mesh, g_reading).divergence(u)
    assert np.array_equal(got, want.reshape(mesh.quad_x.shape))


def test_load_builds_the_gradient_only_when_f_reads_it(monkeypatch, meshes, corpus_b):
    mesh = meshes[0.05]
    u = mesh.nodes[:, 0] ** 2
    z_reading = CoefficientSet.from_strings(2, f=F_B + " + 0.1*z1", g=G_B, h=H_B, q="-1")
    plain, with_z = mesh_fem.WeakForm(mesh, corpus_b), mesh_fem.WeakForm(mesh, z_reading)
    calls = []
    tri_gradients = Mesh.tri_gradients

    def counting(self, values):
        calls.append(1)
        return tri_gradients(self, values)

    monkeypatch.setattr(Mesh, "tri_gradients", counting)
    g_load = mesh.gradient_load(plain.divergence(u))  # g = 0.1 tanh(y) e1 reads no z either
    plain.load(u, g_load)
    assert calls == []
    with_z.load(u, g_load)
    assert calls == [1]


def test_bound_data_refuses_other_points(meshes):
    mesh = meshes[0.1]
    for data in (CoefficientSet.from_strings(2, f=F_A, g=["0", "0"], h=H_A, q="-1"),
                 _linear_data()):
        form = mesh_fem.WeakForm(mesh, data)
        y = np.zeros(mesh.n_nodes)
        with pytest.raises(PointMismatch):
            form.coeffs.f_at(mesh.nodes, y, None)
        with pytest.raises(PointMismatch):
            form.coeffs.h_at(mesh.quad_x.reshape(-1, 2), y)


def test_weak_form_names_a_coefficient_undefined_at_the_quadrature_points(meshes):
    c = CoefficientSet.from_strings(2, f=F_A, g=["0", "0"], h="log(x1 + 0.5) - y", q="-1")
    with pytest.raises(DomainError, match=r"^h = log\(x1 \+ 0\.5\) - y: log of"):
        mesh_fem.WeakForm(meshes[0.1], c)


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


def _export_mesh_by_row(mesh, path):
    """export_mesh as it wrote one row at a time."""
    with open(path, "w") as out:
        out.write("mesh-p1 1\n")
        out.write(f"nodes {mesh.n_nodes}\n")
        for i, (x, y) in enumerate(mesh.nodes):
            out.write(f"{i} {float(x)!r} {float(y)!r}\n")
        out.write(f"triangles {len(mesh.triangles)}\n")
        for i, (a, b, c) in enumerate(mesh.triangles):
            out.write(f"{i} {a} {b} {c}\n")
        out.write(f"boundary_edges {len(mesh.boundary_edges)}\n")
        for a, b in mesh.boundary_edges:
            out.write(f"{a} {b}\n")


def _export_field_by_row(fn, path):
    """export_field as it wrote one row at a time."""
    with open(path, "w") as out:
        out.write("node,x,y,value\n")
        for i, ((x, y), v) in enumerate(zip(fn.mesh.nodes, fn.values)):
            out.write(f"{i},{float(x)!r},{float(y)!r},{float(v)!r}\n")


def test_export_matches_row_writers_byte_for_byte(tmp_path, meshes, corpus_a):
    mesh = meshes[0.05]
    values = solve_semilinear_g_frozen(mesh, corpus_a, inner_tol=1e-11).values.copy()
    values[:4] = [-0.0, 1e-300, -1.5e17, 1.0 / 3.0]
    fields = [FemFunction(mesh, values), FemFunction(mesh, np.zeros(mesh.n_nodes))]
    export_mesh(mesh, tmp_path / "mesh.txt")
    _export_mesh_by_row(mesh, tmp_path / "mesh_ref.txt")
    assert (tmp_path / "mesh.txt").read_bytes() == (tmp_path / "mesh_ref.txt").read_bytes()
    for fn in fields:
        export_field(fn, tmp_path / "field.csv")
        _export_field_by_row(fn, tmp_path / "field_ref.csv")
        assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "field_ref.csv").read_bytes()


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


@pytest.mark.parametrize("section, index", [("triangles", 999999), ("triangles", -1),
                                            ("boundary_edges", -1)])
def test_mesh_load_refuses_a_node_index_outside_the_nodes(tmp_path, meshes, section, index):
    # 999999 raised IndexError in Mesh; -1 wrapped silently to the last node
    path = tmp_path / "mesh.txt"
    export_mesh(meshes[0.1], path)
    lines = path.read_text().splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if line.startswith(section + " "))
    row = lines[head + 1].split()
    row[-1] = str(index)
    lines[head + 1] = " ".join(row) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(MeshLoadError, match=section):
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
                                   "unparsable", "short_row", "moved", "nan", "inf"])
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
    elif fault in ("nan", "inf"):
        lines[5] = lines[5].rsplit(",", 1)[0] + f",-{fault}\n"
    else:
        i, x, y, v = lines[5].split(",")
        lines[5] = f"{i},{float(x) + 1e-3!r},{y},{v}"
    path = tmp_path / "bad.csv"
    path.write_text("".join(lines))
    with pytest.raises(FieldLoadError, match="node 4 " if fault in ("nan", "inf") else ""):
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
            mesh.find_triangles(points)
    assert issubclass(ExportedPointLocationError, ValueError)
    assert ExportedPointLocationError is PointLocationError


def test_non_finite_points_raise(meshes):
    # no cell, no walk and no score is defined for them
    mesh = meshes[0.05]
    fn = FemFunction(mesh, mesh.nodes[:, 0])
    for bad in ([[np.nan, 0.0]], [[0.0, 0.0], [0.1, np.inf]], [[-np.inf, np.nan]]):
        with pytest.raises(PointLocationError, match="finite"):
            mesh.find_triangles(np.array(bad))
        with pytest.raises(PointLocationError, match="finite"):
            fn.value_grad_at(np.array(bad))


def test_fem_function_keeps_a_read_only_copy(meshes):
    mesh = meshes[0.1]
    source = mesh.nodes[:, 0] ** 2 + mesh.nodes[:, 1]
    fn = FemFunction(mesh, source)
    pts = np.random.default_rng(2).uniform(-0.5, 0.5, (50, 2))
    val, grad = fn.value_grad_at(pts)
    source *= -2.0
    for fresh, kept in zip(fn.value_grad_at(pts), (val, grad)):
        assert np.array_equal(fresh, kept)
    assert np.array_equal(FemFunction(mesh, source).value_at(pts), -2.0 * val)
    with pytest.raises(ValueError):
        fn.values[0] = 1.0


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


def _located(mesh, points, t):
    """The location (t, barycentrics) of the points in the triangles ``t``."""
    return t, mesh._barycentric(points[:, 0], points[:, 1], t)


def _value_in(fn, located):
    """The P1 value of ``fn`` read from a location (t, (l0, l1, l2))."""
    t, lam = located
    return sum(l * fn.values[fn.mesh.triangles[t, i]] for i, l in enumerate(lam))


def _check_against_reference(mesh, ref_t, points):
    """find_triangles against the reference triangles ``ref_t``; returns its triangles."""
    fn = FemFunction(mesh, np.sin(3 * mesh.nodes[:, 0]) + mesh.nodes[:, 1] ** 2)
    at = mesh.find_triangles(points)
    t = at[0]
    assert np.max(np.abs(_scores(mesh, points, t) - _scores(mesh, points, ref_t))) <= 1e-12
    ref_val = _value_in(fn, _located(mesh, points, ref_t))
    assert np.array_equal(fn.value_at(points), _value_in(fn, at))  # read from that location
    assert np.max(np.abs(fn.value_at(points) - ref_val)) <= 1e-12
    # the barycentrics are those of the points in the triangles found
    for lam, exact in zip(at[1], _located(mesh, points, t)[1]):
        assert np.array_equal(lam, exact)
    # the location depends on the point alone: any permutation or subset of the batch
    perm = np.random.default_rng(len(points)).permutation(len(points))
    for rows in (perm, perm[: len(perm) // 3], perm[-1:]):
        t_rows, lam_rows = mesh.find_triangles(points[rows])
        assert np.array_equal(t_rows, t[rows])
        for lam, full in zip(lam_rows, at[1]):
            assert np.array_equal(lam, full[rows])
    return t


def _ellipse_level(domain, pts):
    """(x/a)^2 + (y/b)^2 with the semi-axes (a, b): 1 on the boundary, the disk's too."""
    a, b = domain.semi_axes
    return (pts[:, 0] / a) ** 2 + (pts[:, 1] / b) ** 2


@pytest.mark.parametrize("case", CASES)
def test_walk_matches_bucket_locator(location_cases, case):
    domain, mesh = location_cases[case]
    ref = _TriLocator(mesh)
    rng = np.random.default_rng(5)
    half = np.array(domain.semi_axes)
    box = rng.uniform(-1.0, 1.0, (4000, 2)) * half
    uniform = box[_ellipse_level(domain, box) < 1.0]
    _check_against_reference(mesh, ref.query(uniform), uniform)
    # feet on the curved boundary lie just outside the mesh polygon
    theta = rng.uniform(0, 2 * np.pi, 2000)
    raw = 1.2 * half * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    feet = project_points(domain, raw)[0]
    assert np.max(np.abs(_ellipse_level(domain, feet) - 1.0)) < 1e-9
    _check_against_reference(mesh, ref.query(feet), feet)


class _PathLocation(PathObserver):
    """Locates every path position, one step at a time, against the bucket locator."""

    def __init__(self, mesh):
        self.mesh, self.ref = mesh, _TriLocator(mesh)
        self.steps = 0

    def start_chunk(self, indices, x0):
        _check_against_reference(self.mesh, self.ref.query(x0), x0)

    def step(self, ctx):
        _check_against_reference(self.mesh, self.ref.query(ctx.x_new), ctx.x_new)
        self.steps += 1


@pytest.mark.parametrize("case", CASES)
def test_walk_along_reflected_paths(location_cases, case):
    domain, mesh = location_cases[case]
    obs = _PathLocation(mesh)
    run_paths(domain, 200, 0.06, 2e-3, 17, [Unrolled(obs)])
    assert obs.steps == 30


def _brute_force(mesh, points):
    """Over all triangles, the one where each point's smallest barycentric is largest."""
    best = []
    for part in np.array_split(points, -(-len(points) // 100)):
        d = part[:, None, :] - mesh.nodes[mesh.triangles[:, 0]][None]
        l1 = np.einsum("nmd,md->nm", d, mesh.grads[:, 1])
        l2 = np.einsum("nmd,md->nm", d, mesh.grads[:, 2])
        best.append(np.minimum(np.minimum(1.0 - l1 - l2, l1), l2).argmax(axis=1))
    return np.concatenate(best)


@pytest.mark.parametrize("case", ["disk-0.05", "ellipse-0.05"])
def test_location_matches_brute_force(location_cases, case):
    domain, mesh = location_cases[case]
    rng = np.random.default_rng(23)
    half = np.array(domain.semi_axes)
    box = rng.uniform(-1.0, 1.0, (3000, 2)) * half
    inner = box[_ellipse_level(domain, box) < 1.0]
    ref_t = _brute_force(mesh, inner)
    assert np.array_equal(_check_against_reference(mesh, ref_t, inner), ref_t)
    # within 1e-12 of shared edges and of vertices
    t, i = rng.integers(len(mesh.triangles), size=600), rng.integers(3, size=600)
    a, b = mesh.nodes[mesh.triangles[t, i]], mesh.nodes[mesh.triangles[t, (i + 1) % 3]]
    edges = a + rng.uniform(0.0, 1.0, (600, 1)) * (b - a)
    vertices = mesh.nodes[rng.integers(mesh.n_nodes, size=300)]
    near = np.vstack([edges, vertices]) + rng.uniform(-1e-12, 1e-12, (900, 2))
    _check_against_reference(mesh, _brute_force(mesh, near), near)
    # the strip between the boundary polygon and the curved boundary
    e = mesh.boundary_edges[rng.integers(len(mesh.boundary_edges), size=600)]
    chord = mesh.nodes[e[:, 0]] + rng.uniform(0.0, 1.0, (600, 1)) * (
        mesh.nodes[e[:, 1]] - mesh.nodes[e[:, 0]])
    curve = chord / np.sqrt(_ellipse_level(domain, chord))[:, None]
    strip = chord + rng.uniform(0.0, 1.0, (600, 1)) * (curve - chord)
    _check_against_reference(mesh, _brute_force(mesh, strip), strip)
    # beyond h_max, alone or in a batch
    beyond = curve[:20] * (1.0 + 2.0 * mesh.h_max)
    for row in beyond:
        with pytest.raises(PointLocationError):
            mesh.find_triangles(row[None])
    with pytest.raises(PointLocationError):
        mesh.find_triangles(np.vstack([inner[:50], beyond[:1]]))


# ---------------------------------------------------------------------------
# point location: the walk against its earlier loop
#
# _ref_find_triangles is Mesh.find_triangles as it was when every pass computed
# the crossing side of all points and the barycentrics of the points that moved
# were computed once more at the end, with the barycentric formula of that time.


def _ref_barycentric(mesh, x, y, t):
    x0, y0, a1, b1, a2, b2 = mesh._frames.take(t, axis=1)
    dx, dy = x - x0, y - y0
    l1 = a1 * dx + b1 * dy
    l2 = a2 * dx + b2 * dy
    return 1.0 - l1 - l2, l1, l2


def _ref_best_score(mesh, x, y, cand):
    l0, l1, l2 = _ref_barycentric(mesh, x[:, None], y[:, None], cand)
    return cand[np.arange(len(cand)), np.minimum(np.minimum(l0, l1), l2).argmax(axis=1)]


def _ref_find_triangles(mesh, points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    lo, cell, start = mesh._cells
    i, j = (np.clip((c - c0) / cell, 0, n - 1).astype(int)
            for c, c0, n in zip((x, y), lo, start.shape))
    t0 = start[i, j]
    t, out, idx = t0.copy(), np.zeros(len(pts), dtype=bool), np.arange(len(pts))
    lam = l0, l1, l2 = _ref_barycentric(mesh, x, y, t0)
    for _ in range(4 * math.isqrt(len(mesh.triangles)) + 16):
        l01 = np.minimum(l0, l1)
        walking = np.minimum(l01, l2) < -1e-13
        side = np.where(l2 < l01, 2, l1 < l0)
        idx = idx[walking]
        if not idx.size:
            break
        nxt = mesh.neighbors.ravel()[3 * t[idx] + side[walking]]
        inside = nxt >= 0
        if not inside.all():
            out[idx[~inside]] = True
            idx, nxt = idx[inside], nxt[inside]
        t[idx] = nxt
        l0, l1, l2 = _ref_barycentric(mesh, x[idx], y[idx], nxt)
    else:
        m = len(mesh.triangles)
        t[idx] = _ref_best_score(mesh, x[idx], y[idx],
                                 np.broadcast_to(np.arange(m), (len(idx), m)))
    normal, offset, near = mesh._boundary
    rows = np.flatnonzero(out)
    for s in range(0, len(rows), 1024):
        part = rows[s:s + 1024]
        gap = pts[part] @ normal.T - offset
        assert gap.max() <= mesh.h_max
        t[part] = _ref_best_score(mesh, x[part], y[part], near[gap.argmax(axis=1)])
    moved = np.flatnonzero(t != t0)
    for l, new in zip(lam, _ref_barycentric(mesh, x[moved], y[moved], t[moved])):
        l[moved] = new
    return t, lam


class _Blocks(PathObserver):
    """Keeps a copy of every block's positions after the step."""

    def __init__(self):
        self.blocks = []

    def step(self, blk):
        self.blocks.append(blk.x_new.copy())


def _assert_same_location(mesh, points):
    (t, lam), (ref_t, ref_lam) = mesh.find_triangles(points), _ref_find_triangles(mesh, points)
    assert np.array_equal(t, ref_t)
    for got, want in zip(lam, ref_lam):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case", CASES)
def test_location_is_the_earlier_loops_bit_for_bit(monkeypatch, location_cases, case):
    domain, mesh = location_cases[case]
    rng = np.random.default_rng(31)
    half = np.array(domain.semi_axes)
    # blocks of reflected paths: 500 paths, k = 32 steps a block
    obs = _Blocks()
    run_paths(domain, 500, 0.02, 1e-4, 9, [obs])
    assert len(obs.blocks) == 7 and sum(map(len, obs.blocks)) == 500 * 200
    box = rng.uniform(-1.0, 1.0, (20_000, 2)) * half
    inner = box[_ellipse_level(domain, box) < 1.0]
    # up to 0.9 h_max beyond the curved boundary, along its outward normal
    theta = rng.uniform(0, 2 * np.pi, 4000)
    rim, inward, _ = project_points(domain, half * np.stack([np.cos(theta), np.sin(theta)], 1))
    ring = rim - rng.uniform(0.0, 0.9 * mesh.h_max, (4000, 1)) * inward
    for points in obs.blocks + [inner, ring]:
        _assert_same_location(mesh, points)
    # long walks, all from the centre's triangle; then cut off after 16 passes, which
    # some finish, and at once
    far = Mesh(mesh.nodes, mesh.triangles, mesh.boundary_edges)
    far._cells = (mesh.nodes.min(axis=0), 1e3, mesh.find_triangles(np.zeros((1, 2)))[0][None])
    mixed = np.vstack([obs.blocks[-1][:200], inner[:200], ring[:200]])
    _assert_same_location(far, mixed)
    for isqrt in (lambda n: 0, lambda n: -4):
        monkeypatch.setattr(mesh_fem.math, "isqrt", isqrt)
        _assert_same_location(far, mixed)


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
    walked, lam = mesh.find_triangles(pts)
    monkeypatch.setattr(mesh_fem.math, "isqrt", lambda n: -4)
    finished, lam_finished = mesh.find_triangles(pts)
    assert np.array_equal(finished, walked)
    for a, b in zip(lam_finished, lam):
        assert np.array_equal(a, b)
