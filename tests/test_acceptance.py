"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line (collected into acceptance_report.txt as
well).  Statistical assertions use 3 standard errors plus the stated fixed
allowances; infinite-horizon estimates additionally carry their reported
truncation tail bound, which is the honest account of the discarded tail
(it matters only where the sampling variance is exactly zero).
"""

import filecmp
import math
import time
from pathlib import Path

import numpy as np
import pytest

from reflectpde.cli import main
from reflectpde.coeffexpr import (
    InadmissibleConstants,
    StructureConstants,
    choose_constants,
)
from reflectpde.geometry import Domain
from reflectpde.mesh_fem import FemFunction, h1_error, solve_semilinear_g_frozen
from reflectpde.picard import run_picard
from reflectpde.probeval import (
    McParams,
    calibrate_boundary_constant,
    check_conditions_C,
    fk_linear_frozen,
    martingale_residual_test,
)
from reflectpde.reflectsim import (
    LocalTimeObserver,
    StarObserver,
    run_paths,
    simulate_paths,
    star_integral,
)
from .conftest import exact_solution, q_only

REPORT = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
_LINES: list = []

Q_MINUS_ONE = lambda x: -np.ones(len(x))  # noqa: E731
ONE = lambda x: np.ones(len(x))  # noqa: E731


def _record(line: str):
    _LINES.append(line)
    REPORT.write_text("\n".join(_LINES) + "\n")
    print(line)


def _criterion(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    _record(
        f"[criterion {num}] {status}  {detail}  ({elapsed:.1f}s of {budget:.0f}s budget)"
    )
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded {budget}s"


# ---------------------------------------------------------------------------
# 1. constant-field star integral: exactly zero pathwise


def test_criterion_1_constant_star(disk):
    t0 = time.time()
    c = np.array([0.8, -0.6])
    field = lambda x: np.broadcast_to(c, np.atleast_2d(x).shape)  # noqa: E731
    worst = 0.0
    for path in simulate_paths(disk, 100, 1.0, 1e-3, seed=101):
        worst = max(worst, abs(star_integral(path, field)))
    _criterion(
        1, worst <= 1e-12,
        f"constant-field star integral, 100 paths: max |value| = {worst:.2e}",
        time.time() - t0, 1.0,
    )


# ---------------------------------------------------------------------------
# 2. divergence identity for g(x) = x


def test_criterion_2_divergence_identity(disk):
    t0 = time.time()
    obs = StarObserver(lambda x: x)
    run_paths(disk, 10_000, 1.0, 1e-4, seed=202, observers=[obs])
    est = obs.estimate()
    tol = 3 * est.standard_error + 0.05
    ok = abs(est.mean + 2.0) <= tol
    _criterion(
        2, ok,
        f"mean star(g=x) = {est.mean:.4f} (target -2, tol {tol:.4f})",
        time.time() - t0, 120.0,
    )


# ---------------------------------------------------------------------------
# 3. local-time rate under uniform starts


def test_criterion_3_local_time_rate(disk):
    t0 = time.time()
    obs = LocalTimeObserver()
    run_paths(disk, 10_000, 5.0, 1e-4, seed=303, observers=[obs])
    rate = obs.estimate().scaled(1.0 / 5.0)
    tol = 3 * rate.standard_error + 0.1
    ok_disk = abs(rate.mean - 2.0) <= tol
    detail = f"disk rate {rate.mean:.4f} (target 2, tol {tol:.4f})"

    obs3 = LocalTimeObserver()
    run_paths(Domain.ball(3), 10_000, 5.0, 1e-4, seed=304, observers=[obs3])
    rate3 = obs3.estimate().scaled(1.0 / 5.0)
    tol3 = 3 * rate3.standard_error + 0.15
    ok_ball = abs(rate3.mean - 3.0) <= tol3
    detail += f"; 3-ball rate {rate3.mean:.4f} (target 3, tol {tol3:.4f})"
    _criterion(3, ok_disk and ok_ball, detail, time.time() - t0, 300.0)


# ---------------------------------------------------------------------------
# 4. linear pure-boundary Feynman-Kac vs Bessel and FEM


def _bessel_i(nu: int, x: float) -> float:
    """Modified Bessel I_nu by power series (independent oracle)."""
    total, term = 0.0, (x / 2.0) ** nu / math.factorial(nu)
    m = 0
    while term > 1e-18 * (1 + total):
        total += term
        m += 1
        term *= (x / 2.0) ** 2 / (m * (m + nu))
    return total


def test_bessel_series_cross_check():
    from scipy.special import iv

    for nu in (0, 1):
        for x in (0.5, math.sqrt(2.0), 3.0):
            assert _bessel_i(nu, x) == pytest.approx(float(iv(nu, x)), rel=1e-12)


def test_criterion_4_fk_pure_boundary(disk):
    t0 = time.time()
    cal = calibrate_boundary_constant(
        disk, McParams(n_paths=4000, horizon=12.0, step=1e-3, seed=404), mesh_h=0.05
    )
    assert 0.40 < cal.c_bd < 0.62, f"calibrated c_bd = {cal.c_bd:.4f}"

    oracle = 1.0 / (math.sqrt(2.0) * _bessel_i(1, math.sqrt(2.0)))
    p = McParams(n_paths=10_000, horizon=14.0, step=1e-3, seed=405)
    est = fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, None, ONE, p, c_bd=cal.c_bd)
    tol0 = 3 * est.standard_error + 0.02
    ok_center = abs(est.mean - oracle) <= tol0

    # FEM comparison at the five calibration probes, reusing the raw runs
    mc_vals = cal.c_bd * cal.mc_raw_means
    mc_ses = cal.c_bd * cal.mc_raw_ses
    gaps = np.abs(mc_vals - cal.fem_values)
    ok_prob = bool(np.all(gaps <= 3 * mc_ses + 0.02))
    detail = (
        f"c_bd {cal.c_bd:.4f}; u(0) {est.mean:.4f} vs oracle {oracle:.4f} "
        f"(tol {tol0:.4f}); max probe gap {gaps.max():.4f}"
    )
    _criterion(4, ok_center and ok_prob, detail, time.time() - t0, 120.0)


# ---------------------------------------------------------------------------
# 5. manufactured semilinear solve: O(h) convergence and contraction


def test_criterion_5_manufactured_corpus(disk, corpus_a, corpus_b, consts_k0, consts_k01, meshes):
    t0 = time.time()
    details = []
    ok = True
    for label, coeffs, consts in (
        ("k=0", corpus_a, consts_k0),
        ("k=0.1", corpus_b, consts_k01),
    ):
        errs = []
        for h in (0.1, 0.05, 0.025):
            trace = run_picard(disk, coeffs, consts, h, tol=1e-9, mesh=meshes[h])
            ok &= trace.converged
            ok &= all(r * r < 1.0 for r in trace.ratios)
            errs.append(h1_error(trace.solution, exact_solution))
        f1, f2 = errs[0] / errs[1], errs[1] / errs[2]
        ok &= f1 >= 1.8 and f2 >= 1.8
        details.append(f"{label}: H1 errors {['%.4f' % e for e in errs]} factors {f1:.2f}/{f2:.2f}")
    _criterion(5, ok, "; ".join(details), time.time() - t0, 120.0)


# ---------------------------------------------------------------------------
# 6. constants recipe


def test_criterion_6_constants_recipe():
    t0 = time.time()
    consts = choose_constants(
        StructureConstants(alpha=2.0, beta=1.0, K=1.0, M=4.0, k=0.1, beta_prime=1.0)
    )
    # direct formula evaluation (independent of the implementation path)
    eps1 = (1.0 - 2.0 * math.sqrt(2.0) * 0.1) / 2.0
    eps2 = (1.0 - eps1) / 2.0
    gamma = 2.0 * 0.1**2 / (eps2 * (1.0 - eps1 - eps2))
    ok = abs(consts.gamma - gamma) < 1e-6
    rejected = False
    message = ""
    try:
        choose_constants(
            StructureConstants(alpha=2.0, beta=1.0, K=1.0, M=4.0, k=0.4, beta_prime=1.0)
        )
    except InadmissibleConstants as err:
        rejected = "1/(2*sqrt(2))" in str(err)
        message = str(err)
    _criterion(
        6, ok and rejected,
        f"gamma {consts.gamma:.6f} vs direct {gamma:.6f}; k=0.4 rejected: {message!r}",
        time.time() - t0, 60.0,
    )


# ---------------------------------------------------------------------------
# 7. martingale residual on the corpus plus a corrupted negative control


def test_criterion_7_martingale_residual(disk, corpus_a, corpus_b, consts_k01, meshes):
    t0 = time.time()
    mesh = meshes[0.05]
    u_a = solve_semilinear_g_frozen(mesh, corpus_a, inner_tol=1e-11)
    u_b = run_picard(
        disk, corpus_b, consts_k01, 0.05, tol=1e-9, mesh=mesh
    ).solution

    ok = True
    details = []
    for label, u, coeffs in (("k=0", u_a, corpus_a), ("k=0.1", u_b, corpus_b)):
        p = McParams(n_paths=10_000, horizon=0.3, step=5e-5, seed=707)
        rep = martingale_residual_test(disk, u, coeffs, consts_k01, p, t_res=0.15)
        ok &= rep.passed
        details.append(
            f"{label}: mean {rep.mean_residual:+.4f}+/-{rep.se_residual:.4f} "
            f"var {rep.var_residual:.3f}/{rep.predicted_variance:.3f} "
            f"{'pass' if rep.passed else 'FAIL'}"
        )
    rng = np.random.default_rng(7007)
    bad = FemFunction(mesh, u_a.values * (1 + 0.1 * rng.standard_normal(mesh.n_nodes)))
    p = McParams(n_paths=10_000, horizon=0.3, step=5e-5, seed=707)
    rep_bad = martingale_residual_test(disk, bad, corpus_a, consts_k01, p, t_res=0.15)
    ok &= not rep_bad.passed
    details.append(f"corrupted control fails: {not rep_bad.passed}")
    _criterion(7, ok, "; ".join(details), time.time() - t0, 180.0)


# ---------------------------------------------------------------------------
# 8. integrability conditions checker


def test_criterion_8_conditions(disk):
    t0 = time.time()
    p = McParams(n_paths=400, horizon=9.0, step=2e-3, seed=808)
    rep = check_conditions_C(disk, q_only("-1"), p, grid_n=16)
    c3 = rep.q_square_sup
    tol = 3 * c3.estimate.standard_error + c3.tail_bound + 1e-12
    ok = abs(c3.estimate.mean - 0.5) <= tol and rep.all_clear

    p0 = McParams(n_paths=300, horizon=4.0, step=2e-3, seed=809)
    rep0 = check_conditions_C(disk, q_only("0"), p0, grid_n=2)
    ok &= rep0.boundary_weight.divergent
    _criterion(
        8, ok,
        f"q=-1: C3 {c3.estimate.mean:.6f} (tol {tol:.2e}); "
        f"q=0 divergence flag {rep0.boundary_weight.divergent}",
        time.time() - t0, 60.0,
    )


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_9_determinism(tmp_path, disk):
    t0 = time.time()
    from .test_cli import BASE_A, write

    cfg = write(tmp_path, BASE_A)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    same = all(
        filecmp.cmp(out1 / name, out2 / name, shallow=False)
        for name in ("solution.csv", "trace.csv", "summary.json", "mesh.txt")
    )
    p1 = simulate_paths(disk, 5, 1.0, 1e-3, seed=99)[4]
    p2 = simulate_paths(disk, 5, 1.0, 1e-3, seed=99)[4]
    same_paths = np.array_equal(p1.states, p2.states) and np.array_equal(
        p1.local_time_increments, p2.local_time_increments
    )
    # batch estimates are reproducible and independent of chunking
    est = []
    for chunk in (512, 2048):
        obs = LocalTimeObserver()
        run_paths(disk, 600, 1.0, 1e-3, seed=99, observers=[obs], chunk_size=chunk)
        est.append(obs.estimate())
    same_batch = est[0].mean == est[1].mean and est[0].m2 == est[1].m2
    _criterion(
        9, same and same_paths and same_batch,
        f"byte-identical outputs {same}; path reproducibility {same_paths}; "
        f"chunking invariance {same_batch}",
        time.time() - t0, 120.0,
    )
