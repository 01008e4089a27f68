from dataclasses import replace

import numpy as np
import pytest

from reflectpde import coeffexpr, mesh_fem
from reflectpde.coeffexpr import CoefficientSet, StructureConstants, parse_expr
from reflectpde.mesh_fem import FemFunction, Mesh, WeakForm, build_mesh, h1_error, h1_norm
from reflectpde.picard import (
    NoContraction,
    PicardTrace,
    adjoint_weight,
    run_picard,
    weighted_increment_norms,
    weighted_increment_ratios,
)
from reflectpde.probeval import TimeIntegralObserver
from reflectpde.reflectsim import run_paths
from .conftest import exact_solution


def located_g_load(mesh, coeffs, u):
    """The load of g(., u, grad u) at ``mesh.quad_x``, with u evaluated by point location."""
    val, grad = u.value_grad_at(mesh.quad_x.reshape(-1, 2))
    g = coeffs.g_at(mesh.quad_x.reshape(-1, 2), val, grad)
    return mesh.gradient_load(g.reshape(mesh.quad_x.shape))


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


def test_picard_measures_each_residual_once(monkeypatch, disk, corpus_b, consts_k01, meshes):
    # the residual recorded after step n is where step n + 1 starts: reused, not redone
    residuals = []
    dual_norm = Mesh.dual_norm

    def recording(self, residual):
        residuals.append(residual.tobytes())
        return dual_norm(self, residual)

    monkeypatch.setattr(Mesh, "dual_norm", recording)
    trace = run_picard(disk, corpus_b, consts_k01, h_mesh=0.05, mesh=meshes[0.05])
    assert trace.n_iterations == 7
    # 64 with the 6 repeats, one per outer step after the first
    assert len(residuals) == len(set(residuals)) == 58


def test_picard_evaluates_x_only_subtrees_once(monkeypatch, disk, corpus_b, consts_k01, meshes):
    mesh = meshes[0.05]
    # all of f and of h but their last term, "- y", read x alone
    x_only = {"f": corpus_b.f.root.left, "h": corpus_b.h.root.left}
    seen = []
    evaluate = coeffexpr._eval

    def spy(node, env):
        out = evaluate(node, env)
        seen.extend((name, np.size(out)) for name, part in x_only.items() if node == part)
        return out

    monkeypatch.setattr(coeffexpr, "_eval", spy)
    trace = run_picard(disk, corpus_b, consts_k01, h_mesh=0.05, mesh=mesh)
    assert trace.n_iterations == 7
    assert sorted(seen) == [("f", mesh.quad_w.size), ("h", mesh.edge_w.size)]


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
    u_next = WeakForm(meshes[0.05], corpus_b).solve(
        located_g_load(meshes[0.05], corpus_b, u), inner_tol=1e-10, u0=u.values
    )
    assert h1_norm(u_next - u) <= 10 * 1e-9


def test_h1_squared_ratios_stay_below_gamma(disk, corpus_b, consts_k01, meshes):
    trace = run_picard(disk, corpus_b, consts_k01, h_mesh=0.05, tol=1e-9, mesh=meshes[0.05])
    assert len(trace.ratios) == trace.n_iterations - 1
    assert all(r * r <= trace.gamma for r in trace.ratios)  # gamma ~ 0.194


def test_trace_ratios_follow_the_increments():
    # increments [1, 0.2, 0.04] -> ratios [0.2, 0.2]; a zero increment is followed by 0
    trace = PicardTrace(iterates=[None] * 6, increments=[1.0, 0.2, 0.04, 0.0, 0.0], gamma=0.194)
    assert trace.n_iterations == 5
    assert trace.ratios == pytest.approx([0.2, 0.2, 0.0, 0.0])
    assert PicardTrace(iterates=[None], increments=[], gamma=0.194).ratios == []


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


def test_weighted_increment_ratios_smoke(disk, corpus_b, consts_k01, meshes):
    trace = run_picard(disk, corpus_b, consts_k01, h_mesh=0.05, tol=1e-9, mesh=meshes[0.05])
    ratios = weighted_increment_ratios(trace, corpus_b, consts_k01)
    assert len(ratios) == len(trace.increments) - 1
    assert all(np.isfinite(r) for r in ratios)
    assert all(r <= trace.gamma for r in ratios)  # the paper's claim: gamma ~ 0.194 bounds them


def test_adjoint_weight_constant_closed_form(meshes, consts_k01):
    # with mu = 0 and constant q, psi solves (2q + lam) psi + 1 = 0 with no flux
    coeffs = CoefficientSet.from_strings(2, f="0", g=["0", "0"], h="0", q="-1")
    consts = replace(consts_k01, mu=0.0)
    psi = adjoint_weight(meshes[0.05], coeffs, consts)
    assert np.max(np.abs(psi.values - 1.0 / abs(2.0 * -1.0 + consts.lam))) <= 1e-12


def test_weighted_norm_matches_monte_carlo(disk, corpus_b, consts_k01, meshes):
    # E int_0^T e^{2 int q + lam t + mu L} (|d|^2 + |grad d|^2)(X_t) dt under uniform
    # starts, for the first increment d; T = 2 leaves a tail below e^{-7}.  The
    # reflection scheme overstates the norm by 3-9 % at this step.
    mesh = meshes[0.05]
    trace = run_picard(disk, corpus_b, consts_k01, h_mesh=0.05, tol=1e-9, mesh=mesh)
    fem = weighted_increment_norms(trace, corpus_b, consts_k01)[0]
    delta = trace.iterates[1] - trace.iterates[0]

    def weight_field(x, u, du):
        return u * u + np.einsum("pd,pd->p", du, du)

    obs = TimeIntegralObserver(
        corpus_b.q_at, F=weight_field, lam=consts_k01.lam, mu=consts_k01.mu, power=2, field=delta,
    )
    run_paths(disk, 400, 2.0, 1e-3, 1, [obs])
    mc = obs.estimate()
    assert abs(mc.mean - fem) <= 3.0 * mc.standard_error + 0.1 * fem


def test_weighted_norm_refuses_a_drift_and_underived_constants(disk, corpus_b, consts_k01, meshes):
    trace = run_picard(disk, corpus_b, consts_k01, h_mesh=0.1, tol=1e-9, mesh=meshes[0.1])
    drift = replace(corpus_b, b=(parse_expr("x1", ("x1", "x2")), parse_expr("0")))
    with pytest.raises(ValueError, match="b = 0"):
        weighted_increment_ratios(trace, drift, consts_k01)
    raw = StructureConstants(alpha=1, beta=1, K=0.1, M=4, k=0.1, beta_prime=1)
    with pytest.raises(ValueError, match="derived"):
        weighted_increment_ratios(trace, corpus_b, raw)


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
        u_new = WeakForm(mesh, corpus_b).solve(
            located_g_load(mesh, corpus_b, u), inner_tol=1e-10, u0=u.values
        )
        inc = h1_norm(u_new - u)
        u = u_new
        if inc <= 1e-9:
            break
    assert trace.n_iterations == n
    assert np.max(np.abs(trace.solution.values - u.values)) <= 1e-12
