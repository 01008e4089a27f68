import numpy as np
import pytest

from reflectpde import mesh_fem
from reflectpde.coeffexpr import CoefficientSet, StructureConstants
from reflectpde.mesh_fem import (
    FemFunction,
    Mesh,
    build_mesh,
    h1_error,
    h1_norm,
    solve_semilinear_g_frozen,
)
from reflectpde.picard import (
    NoContraction,
    PicardTrace,
    TooFewIterates,
    contraction_report,
    run_picard,
    weighted_increment_ratios,
)
from reflectpde.probeval import McParams
from .conftest import exact_solution


def located_g_quad(mesh, coeffs, u):
    """g(., u, grad u) at ``mesh.quad_x``, with u evaluated by point location."""
    val, grad = u.value_grad_at(mesh.quad_x.reshape(-1, 2))
    g = coeffs.g_at(mesh.quad_x.reshape(-1, 2), val, grad)
    return np.asarray(g, dtype=float).reshape(mesh.quad_x.shape)


def test_frozen_g_converges_in_two_steps(disk, corpus_a, consts_k0):
    # g independent of (y, z): iterate 2 equals iterate 1 within solver tolerance
    trace = run_picard(disk, corpus_a, consts_k0, h_mesh=0.1, tol=1e-8)
    assert trace.converged
    assert trace.n_iterations == 2
    assert trace.increments[1] <= 1e-8
    assert h1_norm(trace.iterates[2] - trace.iterates[1]) <= 1e-8


def test_manufactured_nonlinear_run(disk, corpus_b, consts_k01, meshes):
    trace = run_picard(disk, corpus_b, consts_k01, h_mesh=0.05, tol=1e-9, mesh=meshes[0.05])
    assert trace.converged
    err = h1_error(trace.solution, exact_solution)
    assert err < 0.08
    # squared ratios below 1 from iteration 2 on
    assert all(r * r < 1.0 for r in trace.ratios)
    assert trace.final_residual < 1e-8


def test_convergence_rate_across_meshes(disk, corpus_b, consts_k01, meshes):
    errs = []
    for h in (0.1, 0.05, 0.025):
        trace = run_picard(disk, corpus_b, consts_k01, h_mesh=h, tol=1e-9, mesh=meshes[h])
        errs.append(h1_error(trace.solution, exact_solution))
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


def test_discrete_fixed_point(disk, corpus_b, consts_k01, meshes):
    trace = run_picard(disk, corpus_b, consts_k01, h_mesh=0.05, tol=1e-9, mesh=meshes[0.05])
    # one extra outer step changes the iterate by at most the tolerance scale
    u = trace.solution
    u_next = solve_semilinear_g_frozen(
        meshes[0.05], corpus_b, located_g_quad(meshes[0.05], corpus_b, u),
        inner_tol=1e-10, u0=u.values,
    )
    assert h1_norm(u_next - u) <= 10 * 1e-9


def test_contraction_report_rows(disk, corpus_b, consts_k01, meshes):
    trace = run_picard(disk, corpus_b, consts_k01, h_mesh=0.05, tol=1e-9, mesh=meshes[0.05])
    report = contraction_report(trace)
    assert len(report.rows) == len(trace.ratios)
    assert not report.any_exceeds  # observed ratios stay below gamma ~ 0.194
    assert "gamma" in str(report)


def test_contraction_report_squared_ratios():
    # increments [1, 0.2, 0.04] -> squared ratios [0.04, 0.04]
    trace = PicardTrace(
        iterates=[None, None, None, None],
        increments=[1.0, 0.2, 0.04],
        ratios=[0.2, 0.2],
        gamma=0.194,
        converged=True,
        n_iterations=3,
    )
    report = contraction_report(trace)
    assert [r.squared_ratio for r in report.rows] == pytest.approx([0.04, 0.04])


def test_too_few_iterates():
    trace = PicardTrace(
        iterates=[None, None], increments=[1.0], ratios=[], gamma=0.1,
        converged=False, n_iterations=1,
    )
    with pytest.raises(TooFewIterates):
        contraction_report(trace)


def test_no_contraction_raised(disk):
    # strong divergence feedback: g amplifies the iterate change
    coeffs = CoefficientSet.from_strings(
        2, f="1 - y", g=["3*y", "3*z2"], h="-y", q="-1"
    )
    consts = StructureConstants(alpha=1, beta=1, K=0.1, M=25, k=0.1, beta_prime=1)
    with pytest.raises(NoContraction) as err:
        run_picard(disk, coeffs, consts, h_mesh=0.1, tol=1e-12, max_iter=25)
    assert err.value.trace.no_contraction


def test_no_contraction_override_continues(disk):
    coeffs = CoefficientSet.from_strings(
        2, f="1 - y", g=["3*y", "3*z2"], h="-y", q="-1"
    )
    consts = StructureConstants(alpha=1, beta=1, K=0.1, M=25, k=0.1, beta_prime=1)
    trace = run_picard(
        disk, coeffs, consts, h_mesh=0.1, tol=1e-12, max_iter=8, override=True
    )
    assert trace.no_contraction
    assert trace.n_iterations == 8


def test_underived_constants_report_nan_gamma(disk, corpus_a):
    raw = StructureConstants(alpha=1, beta=1, K=0.1, M=4, k=0.0, beta_prime=1)
    trace = run_picard(disk, corpus_a, raw, h_mesh=0.1, tol=1e-8)
    assert np.isnan(trace.gamma)
    report = contraction_report(trace) if len(trace.iterates) >= 3 else None
    if report is not None:
        assert "unavailable" in str(report)


def test_weighted_increment_ratios_smoke(disk, corpus_b, consts_k01, meshes):
    trace = run_picard(disk, corpus_b, consts_k01, h_mesh=0.05, tol=1e-9, mesh=meshes[0.05])
    ratios = weighted_increment_ratios(
        disk, trace, corpus_b, consts_k01, McParams(n_paths=200, horizon=1.0, step=1e-3, seed=1)
    )
    assert len(ratios) == len(trace.increments) - 1
    assert all(np.isfinite(r) or np.isnan(r) for r in ratios)
    report = contraction_report(trace, weighted_ratios=ratios)
    assert np.isfinite(report.rows[0].weighted_squared_ratio)


def test_trace_export_csv(tmp_path, disk, corpus_a, consts_k0):
    trace = run_picard(disk, corpus_a, consts_k0, h_mesh=0.1, tol=1e-8)
    path = tmp_path / "trace.csv"
    trace.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,increment,ratio,residual"
    assert len(lines) == 1 + trace.n_iterations
    assert len(trace.residuals) == trace.n_iterations


def test_picard_factorizes_once_and_locates_no_points(monkeypatch, disk, corpus_b, consts_k01):
    mesh = build_mesh(disk, 0.1)  # fresh: no cached Gram factorization
    calls = {"splu": 0, "find_triangles": 0}
    splu, find_triangles = mesh_fem.spla.splu, Mesh.find_triangles

    def counting_splu(*args, **kwargs):
        calls["splu"] += 1
        return splu(*args, **kwargs)

    def counting_find_triangles(self, points):
        calls["find_triangles"] += 1
        return find_triangles(self, points)

    monkeypatch.setattr(mesh_fem.spla, "splu", counting_splu)
    monkeypatch.setattr(Mesh, "find_triangles", counting_find_triangles)
    trace = run_picard(disk, corpus_b, consts_k01, h_mesh=0.1, tol=1e-9, mesh=mesh)
    assert trace.converged and trace.n_iterations >= 3
    assert calls == {"splu": 2, "find_triangles": 0}  # left-hand side and Gram matrix
    assert trace.final_residual == trace.residuals[-1]


def test_picard_matches_located_reference(disk, corpus_b, consts_k01, meshes):
    mesh = meshes[0.1]
    trace = run_picard(disk, corpus_b, consts_k01, h_mesh=0.1, tol=1e-9, mesh=mesh)
    # reference: freeze g through point location at the quadrature points,
    # with one full solve per outer step
    u = FemFunction(mesh, np.zeros(mesh.n_nodes))
    for n in range(1, 51):
        u_new = solve_semilinear_g_frozen(
            mesh, corpus_b, located_g_quad(mesh, corpus_b, u), inner_tol=1e-10, u0=u.values
        )
        inc = h1_norm(u_new - u)
        u = u_new
        if inc <= 1e-9:
            break
    assert trace.n_iterations == n
    assert np.max(np.abs(trace.solution.values - u.values)) <= 1e-12
