import numpy as np
import pytest

from reflectpde import probeval
from reflectpde.coeffexpr import CoefficientSet
from reflectpde.mesh_fem import FemFunction, solve_g_lifting, solve_semilinear_g_frozen
from reflectpde.probeval import (
    AdmissibilityError,
    McParams,
    ResidualObserver,
    calibrate_boundary_constant,
    check_conditions_C,
    compare_frozen_at_probes,
    estimate_decay,
    fem_linear_solve,
    fk_frozen_with_divergence,
    fk_linear_frozen,
    fk_pure_boundary,
    martingale_residual_test,
)
from .conftest import F_A, H_A

Q_MINUS_ONE = lambda x: -np.ones(len(x))  # noqa: E731
ONE = lambda x: np.ones(len(x))  # noqa: E731
ZERO = lambda x: np.zeros(len(x))  # noqa: E731


def params(n=400, T=8.0, h=1e-3, seed=0):
    return McParams(n_paths=n, horizon=T, step=h, seed=seed)


# ---------------------------------------------------------------------------
# decay fitting


def test_decay_fit_constant_q(disk):
    fit = estimate_decay(disk, Q_MINUS_ONE, params(n=50), x0=np.zeros(2), power=1)
    assert fit.theta == pytest.approx(1.0, rel=1e-6)
    assert fit.C == pytest.approx(1.0, rel=1e-6)
    fit2 = estimate_decay(disk, Q_MINUS_ONE, params(n=50), x0=np.zeros(2), power=2)
    assert fit2.theta == pytest.approx(2.0, rel=1e-6)


def test_admissibility_error_for_flat_weight(disk):
    with pytest.raises(AdmissibilityError):
        fk_pure_boundary(disk, np.zeros(2), ZERO, ONE, params(n=50, T=2.0))


# ---------------------------------------------------------------------------
# Feynman-Kac estimators


def test_fk_zero_data_is_zero(disk):
    p = params(n=50, T=3.0)
    est = fk_pure_boundary(disk, np.zeros(2), Q_MINUS_ONE, ZERO, p)
    assert est.mean == 0.0 and est.standard_error == 0.0
    est = fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, ZERO, ZERO, p)
    assert est.mean == 0.0 and est.standard_error == 0.0


def test_fk_unit_source_exact(disk):
    # F = 1, H = 0, q = -1: v = 1; the in-step exponential rule is exact here
    p = params(n=40, T=16.0)
    est = fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, ONE, ZERO, p)
    assert abs(est.mean - 1.0) <= 3 * est.standard_error + p.truncation_tail_bound + 1e-12
    assert p.truncation_tail_bound < 1e-5


def test_fk_pure_boundary_medium_scale(disk):
    # coarse-step run against the radial oracle, wide allowance
    from scipy.special import iv

    p = params(n=1500, T=12.0, h=1e-3, seed=4)
    est = fk_pure_boundary(disk, np.zeros(2), Q_MINUS_ONE, ONE, p)
    oracle = 1.0 / (np.sqrt(2.0) * iv(1, np.sqrt(2.0)))
    assert est.mean == pytest.approx(oracle, abs=3 * est.standard_error + 0.05)


def test_fk_boundary_reduces_to_linear_frozen(disk):
    p1 = params(n=300, T=10.0, seed=6)
    p2 = params(n=300, T=10.0, seed=6)
    a = fk_pure_boundary(disk, np.zeros(2), Q_MINUS_ONE, ONE, p1)
    b = fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, ZERO, ONE, p2)
    assert a.mean == pytest.approx(b.mean, abs=1e-12)


def test_fem_linear_solve_matches_bessel(disk, meshes):
    from scipy.special import iv

    v = fem_linear_solve(meshes[0.025], Q_MINUS_ONE, ZERO, ONE)
    r = np.array([0.0, 0.3, 0.6, 0.9])
    probes = np.stack([r, np.zeros(4)], axis=1)
    exact = iv(0, np.sqrt(2) * r) / (np.sqrt(2) * iv(1, np.sqrt(2)))
    assert np.max(np.abs(v.value_at(probes) - exact)) < 2e-3


def test_fk_with_divergence_against_fem(disk, meshes):
    # frozen problem with g = x: compare the lifted FK route to the FEM solve
    coeffs = CoefficientSet.from_strings(
        2, f="1 - x1", g=["x1", "x2"], h="0.5 + x2", q="-1"
    )
    mesh = meshes[0.05]
    u = solve_semilinear_g_frozen(mesh, coeffs, g_quad=mesh.quad_x, inner_tol=1e-11)
    x0 = np.array([0.2, -0.1])
    p = params(n=1500, T=10.0, h=1e-3, seed=8)
    est = fk_frozen_with_divergence(
        disk, x0, Q_MINUS_ONE, lambda x: 1 - x[:, 0], lambda x: 0.5 + x[:, 1],
        solve_g_lifting(mesh, mesh.quad_x), p,
    )
    fem_val = float(u.value_at(x0[None, :])[0])
    assert est.mean == pytest.approx(fem_val, abs=3 * est.standard_error + 0.06)


# ---------------------------------------------------------------------------
# calibration


def test_calibration_constant_near_half(disk):
    p = params(n=1200, T=10.0, h=1e-3, seed=3)
    cal = calibrate_boundary_constant(disk, p, mesh_h=0.05)
    assert cal.c_bd == pytest.approx(0.5, abs=0.06)
    assert "c_bd" in str(cal)


# ---------------------------------------------------------------------------
# integrability conditions


def test_conditions_q_minus_one(disk):
    p = params(n=300, T=9.0, h=2e-3, seed=5)
    rep = check_conditions_C(disk, Q_MINUS_ONE, p, grid_n=4)
    assert rep.all_clear
    # deterministic exponent: the q^2 time integral is exactly 1/2 - tail
    c3 = rep.q_square_sup
    assert c3.estimate.mean == pytest.approx(
        0.5, abs=3 * c3.estimate.standard_error + c3.tail_bound + 1e-12
    )
    assert not c3.divergent


def test_conditions_monotone_in_horizon(disk):
    # nonnegative integrands: the half-horizon estimate cannot exceed the full one
    from reflectpde.probeval import BoundaryIntegralObserver
    from reflectpde.reflectsim import run_paths

    obs = BoundaryIntegralObserver(
        Q_MINUS_ONE, ONE, c=0.5, snapshot_steps=[1500]
    )
    run_paths(disk, 300, 6.0, 2e-3, seed=21, observers=[obs], x0=np.zeros(2))
    half = obs.snapshot_estimate(1500)
    full = obs.estimate()
    assert half.mean <= full.mean + 1e-15


def test_conditions_q_zero_divergent(disk):
    p = params(n=200, T=4.0, h=2e-3, seed=5)
    rep = check_conditions_C(disk, ZERO, p, grid_n=2)
    assert rep.boundary_weight.divergent
    assert not rep.all_clear


def test_conditions_c1_equals_fk_quantity(disk):
    # same quantity by definition (both carry the calibrated constant)
    p1 = params(n=250, T=8.0, seed=7)
    rep = check_conditions_C(disk, Q_MINUS_ONE, p1, grid_n=2)
    p2 = params(n=250, T=8.0, seed=7)
    est = fk_pure_boundary(disk, np.zeros(2), Q_MINUS_ONE, ONE, p2)
    assert rep.boundary_weight.estimate.mean == pytest.approx(est.mean, abs=1e-12)


# ---------------------------------------------------------------------------
# martingale residual


def test_residual_constant_solution_exact(disk, meshes, consts_k0):
    # u = c, f = -q c, h = 0, g = 0: every pathwise term cancels exactly
    coeffs = CoefficientSet.from_strings(2, f="0.7", g=["0", "0"], h="0", q="-1")
    mesh = meshes[0.1]
    u = FemFunction(mesh, np.full(mesh.n_nodes, 0.7))
    p = params(n=200, T=1.0, h=1e-3, seed=9)
    rep = martingale_residual_test(disk, u, coeffs, consts_k0, p, t_res=0.5)
    assert abs(rep.mean_residual) < 1e-10
    assert rep.var_residual < 1e-20
    assert rep.pass_mean


def test_residual_manufactured_medium(disk, meshes, corpus_a, consts_k0):
    u = solve_semilinear_g_frozen(meshes[0.05], corpus_a, inner_tol=1e-11)
    p = params(n=2000, T=0.4, h=2e-4, seed=10)
    rep = martingale_residual_test(disk, u, corpus_a, consts_k0, p, t_res=0.2)
    assert rep.pass_mean and rep.pass_variance and rep.pass_terminal


def test_residual_fewer_paths_same_decision_wider_se(disk, meshes, corpus_a, consts_k0):
    u = solve_semilinear_g_frozen(meshes[0.05], corpus_a, inner_tol=1e-11)
    reps = []
    for n in (2000, 200):
        p = params(n=n, T=0.4, h=2e-4, seed=10)
        reps.append(martingale_residual_test(disk, u, corpus_a, consts_k0, p, t_res=0.2))
    assert reps[0].passed and reps[1].passed
    assert reps[1].se_residual > reps[0].se_residual


def test_residual_negative_control(disk, meshes, corpus_a, consts_k0):
    u = solve_semilinear_g_frozen(meshes[0.05], corpus_a, inner_tol=1e-11)
    rng = np.random.default_rng(1234)
    bad = FemFunction(u.mesh, u.values * (1 + 0.1 * rng.standard_normal(u.mesh.n_nodes)))
    p = params(n=2000, T=0.4, h=2e-4, seed=10)
    rep = martingale_residual_test(disk, bad, corpus_a, consts_k0, p, t_res=0.2)
    assert not rep.passed


def test_residual_requires_zero_drift(disk, meshes, consts_k0):
    coeffs = CoefficientSet.from_strings(
        2, f="-y", g=["0", "0"], h="-y", q="-1", b=["1", "0"]
    )
    u = FemFunction(meshes[0.1], np.zeros(meshes[0.1].n_nodes))
    with pytest.raises(ValueError):
        martingale_residual_test(disk, u, coeffs, consts_k0, params(n=10, T=0.5))


def test_residual_observer_keeps_star_term(meshes, corpus_a, corpus_b):
    # g vanishing on the diagonal x1 = x2 = y = z1 = z2 is not g = 0
    u = FemFunction(meshes[0.1], np.zeros(meshes[0.1].n_nodes))
    for g1 in ("x1 - x2", "0.1*tanh(y - z1)"):
        coeffs = CoefficientSet.from_strings(2, f=F_A, g=[g1, "0"], h=H_A, q="-1")
        assert not ResidualObserver(u, coeffs, 10)._g_zero, g1
    assert ResidualObserver(u, corpus_a, 10)._g_zero
    assert not ResidualObserver(u, corpus_b, 10)._g_zero


def test_probe_comparison_smoke(monkeypatch, disk, meshes, corpus_a):
    u = solve_semilinear_g_frozen(meshes[0.05], corpus_a, inner_tol=1e-11)
    p = params(n=600, T=10.0, h=1e-3, seed=11)
    lifts = []

    def spy_lift(mesh, g_quad):
        lifts.append(g_quad.shape)
        return solve_g_lifting(mesh, g_quad)

    monkeypatch.setattr(probeval, "solve_g_lifting", spy_lift)
    cmp = compare_frozen_at_probes(disk, u, corpus_a, p, allowance=0.08)
    assert cmp.passed, str(cmp)
    assert lifts == [u.mesh.quad_x.shape]  # one lift for all probes
