import numpy as np
import pytest

from reflectpde import probeval
from reflectpde.coeffexpr import CoefficientSet
from reflectpde.geometry import Domain
from reflectpde.mesh_fem import FemFunction, Mesh, solve_g_lifting, solve_semilinear_g_frozen
from reflectpde.probeval import (
    AdmissibilityError,
    BoundaryIntegralObserver,
    McParams,
    ResidualObserver,
    TerminalObserver,
    TimeIntegralObserver,
    WeightedObserver,
    _phi1,
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
from reflectpde.reflectsim import Estimate, PathObserver, run_paths
from .conftest import F_A, H_A

Q_MINUS_ONE = lambda x: -np.ones(len(x))  # noqa: E731
ONE = lambda x: np.ones(len(x))  # noqa: E731
ZERO = lambda x: np.zeros(len(x))  # noqa: E731


def params(n=400, T=8.0, h=1e-3, seed=0):
    return McParams(n_paths=n, horizon=T, step=h, seed=seed)


# ---------------------------------------------------------------------------
# decay fitting


def _spy(monkeypatch, name):
    """Record the arguments of every call of ``probeval.<name>`` (and its results)."""
    calls, results = [], []
    fn = getattr(probeval, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        results.append(fn(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(probeval, name, spy)
    return calls, results


def test_decay_fit_read_off_the_run(monkeypatch, disk):
    # q = -1: the weight is e^{-power t} on every path, so the fit is exact
    _, fits = _spy(monkeypatch, "estimate_decay")
    fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, ONE, ZERO, params(n=50))
    check_conditions_C(disk, Q_MINUS_ONE, params(n=50, seed=1), grid_n=1)
    assert [fit.power for fit in fits] == [1, 1, 2]
    for fit in fits:
        assert np.array_equal(fit.times, np.arange(1.0, 9.0))  # eighths of T = 8
        assert fit.C == pytest.approx(1.0, abs=1e-9)
        assert fit.theta == pytest.approx(fit.power, abs=1e-9)
    assert estimate_decay(np.arange(1.0, 3.0), np.array([0.5, 0.0]), 1).theta == 0.0


def test_admissibility_error_for_flat_weight(disk):
    with pytest.raises(AdmissibilityError):
        fk_pure_boundary(disk, np.zeros(2), ZERO, ONE, params(n=50, T=2.0))


def test_admissibility_error_after_the_run(monkeypatch, disk):
    runs, _ = _spy(monkeypatch, "run_paths")
    p = params(n=50, T=2.0)
    with pytest.raises(AdmissibilityError):
        fk_linear_frozen(disk, np.zeros(2), ZERO, ONE, ONE, p)
    ((args, _),) = runs  # the fit is read off the main run: its paths and seed
    assert args[1:5] == (p.n_paths, p.horizon, p.step, p.seed)
    assert p.truncation_tail_bound == 0.0


def test_fk_estimators_run_once(monkeypatch, disk, meshes):
    runs, _ = _spy(monkeypatch, "run_paths")
    x0 = np.array([0.2, 0.1])
    fk_linear_frozen(disk, x0, Q_MINUS_ONE, ONE, ONE, params(n=20, T=0.5))
    assert len(runs) == 1
    fk_pure_boundary(disk, x0, Q_MINUS_ONE, ONE, params(n=20, T=0.5))
    assert len(runs) == 2
    G = solve_g_lifting(meshes[0.1], meshes[0.1].quad_x)
    fk_frozen_with_divergence(disk, x0, Q_MINUS_ONE, ONE, ONE, G, params(n=20, T=0.5))
    assert len(runs) == 3


def test_probe_estimators_run_once_per_probe(monkeypatch, disk, meshes, corpus_b):
    runs, _ = _spy(monkeypatch, "run_paths")
    probes = np.array([[0.0, 0.1], [0.5, -0.2], [-0.3, 0.3]])
    calibrate_boundary_constant(disk, params(n=20, T=0.5), mesh_h=0.1, probes=probes)
    assert len(runs) == len(probes)
    u = FemFunction(meshes[0.1], meshes[0.1].nodes[:, 0] ** 2)
    compare_frozen_at_probes(disk, u, corpus_b, params(n=20, T=0.5), probes=probes)
    assert len(runs) == 2 * len(probes)
    runs.clear()
    check_conditions_C(disk, Q_MINUS_ONE, params(n=20, T=0.5), grid_n=3)
    assert len(runs) == 2 + 3  # two boundary probes, one run per grid start


# ---------------------------------------------------------------------------
# the weighted path functional against the three observers it replaced
#
# The Ref* classes below are a verbatim copy of the separate time, boundary
# and terminal observers (renamed only), kept as the reference that the one
# WeightedObserver must reproduce bit for bit.


class _RefWeighted(PathObserver):
    """Shared exponent state E_j = lam t_j + mu L_j + power int_0^{t_j} q."""

    def __init__(self, q, lam=0.0, mu=0.0, power=1):
        self.q = q
        self.lam = lam
        self.mu = mu
        self.power = power
        self._expo = None

    def start_chunk(self, indices, x0):
        self._expo = np.zeros(len(indices))

    def _advance(self, ctx, q_prev):
        self._expo += (self.lam + self.power * q_prev) * ctx.h + self.mu * ctx.dl


class RefBoundaryIntegralObserver(_RefWeighted):
    """Accumulates sum_j w_j f(X_{j+1}) c dL_j with left-node weights w_j."""

    def __init__(self, q, f, lam=0.0, mu=0.0, power=1, c=1.0, snapshot_steps=()):
        super().__init__(q, lam, mu, power)
        self.f = f
        self.c = c
        self.snapshot_steps = set(snapshot_steps)
        self.samples: list = []
        self.snapshots: dict = {}
        self._acc = None

    def start_chunk(self, indices, x0):
        super().start_chunk(indices, x0)
        self._acc = np.zeros(len(indices))

    def step(self, ctx):
        q_prev = np.asarray(self.q(ctx.x_prev), dtype=float)
        if ctx.hit.any():
            hit = ctx.hit
            w = np.exp(self._expo[hit])
            fv = np.asarray(self.f(ctx.x_new[hit]), dtype=float)
            self._acc[hit] += w * fv * self.c * ctx.dl[hit]
        self._advance(ctx, q_prev)
        if ctx.j + 1 in self.snapshot_steps:
            self.snapshots.setdefault(ctx.j + 1, []).append(self._acc.copy())

    def end_chunk(self, x_final):
        self.samples.append(self._acc)

    def estimate(self) -> Estimate:
        return Estimate.from_samples(np.concatenate(self.samples))

    def snapshot_estimate(self, step) -> Estimate:
        return Estimate.from_samples(np.concatenate(self.snapshots[step]))


class RefTimeIntegralObserver(_RefWeighted):
    """Accumulates int w_t f(X_t) dt with the exponential in-step rule.

    Per step the weight factor int_{t_j}^{t_{j+1}} e^{E(s)} ds is taken as
    e^{E_j} h phi1((lam + power q_j) h), which is exact for frozen q and makes
    constant-q integrands reproduce their closed forms to rounding error.
    """

    def __init__(self, q, f, lam=0.0, mu=0.0, power=1, snapshot_steps=()):
        super().__init__(q, lam, mu, power)
        self.f = f
        self.snapshot_steps = set(snapshot_steps)
        self.samples: list = []
        self.snapshots: dict = {}
        self._acc = None

    def start_chunk(self, indices, x0):
        super().start_chunk(indices, x0)
        self._acc = np.zeros(len(indices))

    def step(self, ctx):
        q_prev = np.asarray(self.q(ctx.x_prev), dtype=float)
        a = (self.lam + self.power * q_prev) * ctx.h
        fv = np.asarray(self.f(ctx.x_prev), dtype=float)
        self._acc += fv * np.exp(self._expo) * ctx.h * _phi1(a)
        self._advance(ctx, q_prev)
        if ctx.j + 1 in self.snapshot_steps:
            self.snapshots.setdefault(ctx.j + 1, []).append(self._acc.copy())

    def end_chunk(self, x_final):
        self.samples.append(self._acc)

    def estimate(self) -> Estimate:
        return Estimate.from_samples(np.concatenate(self.samples))

    def snapshot_estimate(self, step) -> Estimate:
        return Estimate.from_samples(np.concatenate(self.snapshots[step]))


class RefTerminalObserver(_RefWeighted):
    """Records e^{E} f(X) at a set of horizon steps (f=1 probes the decay)."""

    def __init__(self, q, f=None, lam=0.0, mu=0.0, power=1, horizons=()):
        super().__init__(q, lam, mu, power)
        self.f = f
        self.horizons = set(horizons)
        self.records: dict = {h: [] for h in self.horizons}

    def step(self, ctx):
        q_prev = np.asarray(self.q(ctx.x_prev), dtype=float)
        self._advance(ctx, q_prev)
        if ctx.j + 1 in self.horizons:
            w = np.exp(self._expo)
            if self.f is not None:
                w = w * np.asarray(self.f(ctx.x_new), dtype=float)
            self.records[ctx.j + 1].append(w.copy())

    def estimate(self, step) -> Estimate:
        return Estimate.from_samples(np.concatenate(self.records[step]))


@pytest.mark.parametrize("domain", [Domain.disk(), Domain.ellipse(1.5, 1.0)],
                         ids=["disk", "ellipse"])
@pytest.mark.parametrize("weights", [{}, {"lam": 0.3, "mu": -0.2, "power": 2}],
                         ids=["plain", "lam_mu_power"])
def test_weighted_observer_matches_reference(domain, weights):
    n_steps, marks = 300, [1, 120, 299]
    q = lambda x: -1.0 - 0.5 * x[:, 0] ** 2  # noqa: E731
    F = lambda x: 1.0 + x[:, 0] * x[:, 1]  # noqa: E731
    H = lambda x: 0.5 + x[:, 1]  # noqa: E731
    Phi = lambda x: x[:, 0] ** 2 + 0.1  # noqa: E731
    c = 0.47
    ref = {
        "time": RefTimeIntegralObserver(q, F, snapshot_steps=marks, **weights),
        "bnd": RefBoundaryIntegralObserver(q, H, c=c, snapshot_steps=marks, **weights),
        "one": RefTerminalObserver(q, None, horizons=marks + [n_steps], **weights),
        "term": RefTerminalObserver(q, Phi, horizons=marks + [n_steps], **weights),
    }
    new = {
        "time": TimeIntegralObserver(q, F=F, marks=marks, **weights),
        "bnd": BoundaryIntegralObserver(q, H=H, c=c, marks=marks, **weights),
        "one": TerminalObserver(q, Phi=ONE, marks=marks, **weights),
        "term": TerminalObserver(q, Phi=Phi, marks=marks, **weights),
        "fh": WeightedObserver(q, F=F, H=H, c=c, marks=marks, **weights),
        "fhphi": WeightedObserver(q, F=F, H=H, Phi=Phi, c=c, marks=marks, **weights),
    }
    run_paths(domain, 150, n_steps * 2e-3, 2e-3, seed=13,
              observers=list(ref.values()) + list(new.values()),
              x0=np.array([0.8, 0.1]), chunk_size=64)
    assert new["bnd"].estimate().mean != 0.0  # the paths reach the boundary
    for key in ("time", "bnd"):
        assert new[key].estimate() == ref[key].estimate()
        for m in marks:
            assert new[key].estimate(m) == ref[key].snapshot_estimate(m)
    for key in ("one", "term"):
        assert new[key].estimate() == ref[key].estimate(n_steps)
        for m in marks:
            assert new[key].estimate(m) == ref[key].estimate(m)
    vt, vb = np.concatenate(ref["time"].samples), np.concatenate(ref["bnd"].samples)
    assert new["fh"].estimate() == Estimate.from_samples(vt + vb)
    for m in marks:
        st = np.concatenate(ref["time"].snapshots[m])
        sb = np.concatenate(ref["bnd"].snapshots[m])
        assert new["fh"].estimate(m) == Estimate.from_samples(st + sb)
        phi = np.concatenate(ref["term"].records[m])
        assert new["fhphi"].estimate(m) == Estimate.from_samples(st + sb + phi)


# ---------------------------------------------------------------------------
# Feynman-Kac estimators


def test_fk_zero_data_is_zero(disk):
    p = params(n=50, T=3.0)
    est = fk_pure_boundary(disk, np.zeros(2), Q_MINUS_ONE, ZERO, p)
    assert est.mean == 0.0 and est.standard_error == 0.0
    est = fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, ZERO, ZERO, p)
    assert est.mean == 0.0 and est.standard_error == 0.0


def test_fk_linear_tail_bound_takes_h_on_the_boundary(monkeypatch, disk):
    # H = |x|^8 is 1 on the unit circle and smaller everywhere inside
    _, fits = _spy(monkeypatch, "estimate_decay")
    p = params(n=20, T=0.5, h=1e-2)
    H = lambda x: (x[:, 0] ** 2 + x[:, 1] ** 2) ** 4  # noqa: E731
    fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, ZERO, H, p, c_bd=0.5)
    (fit,) = fits  # the run's own fit
    rate = disk.boundary_measure / disk.volume
    assert p.truncation_tail_bound == pytest.approx(
        0.5 * 1.0 * rate * fit.tail_integral(0.5), rel=1e-12
    )


def test_fk_linear_evaluates_q_once_per_step(disk):
    calls = []

    def q(x):
        calls.append(len(x))
        return -np.ones(len(x))

    # 20 engine steps in one chunk of 30 paths; the decay fit reads the same run
    p = params(n=30, T=0.2, h=1e-2)
    fk_linear_frozen(disk, np.zeros(2), q, ONE, ONE, p)
    assert len(calls) == 20


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


def test_fk_with_divergence_evaluates_q_once_per_step(disk, meshes):
    calls = []

    def q(x):
        calls.append(len(x))
        return -np.ones(len(x))

    # 20 engine steps in one chunk of 30 paths; the decay fit reads the same run
    G = solve_g_lifting(meshes[0.1], meshes[0.1].quad_x)
    fk_frozen_with_divergence(disk, np.zeros(2), q, ONE, ONE, G, params(n=30, T=0.2, h=1e-2))
    assert calls.count(30) == 20  # one per path-step: the observer's, shared with f_tilde
    assert len(calls) == 21  # and one on the tail-bound grid


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
        Q_MINUS_ONE, H=ONE, c=0.5, marks=[1500]
    )
    run_paths(disk, 300, 6.0, 2e-3, seed=21, observers=[obs], x0=np.zeros(2))
    half = obs.estimate(1500)
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


def test_residual_evaluates_q_once_per_step(monkeypatch, disk, meshes, corpus_a, consts_k0):
    calls = []
    q_at = CoefficientSet.q_at

    def counting_q_at(self, x):
        calls.append(len(x))
        return q_at(self, x)

    monkeypatch.setattr(CoefficientSet, "q_at", counting_q_at)
    u = solve_semilinear_g_frozen(meshes[0.1], corpus_a, inner_tol=1e-11)
    calls.clear()
    # t_res = 10 steps, run to 20: the residual observer and the terminal
    # observer share one evaluation per step
    martingale_residual_test(disk, u, corpus_a, consts_k0, params(n=20, T=0.02, h=1e-3),
                             t_res=0.01)
    assert calls == [20] * 20


def _count_locations(monkeypatch):
    """Record (number of points, hint given) for every Mesh.find_triangles call."""
    calls = []
    find_triangles = Mesh.find_triangles

    def counting(self, points, *hint):
        calls.append((len(points), bool(hint) and hint[0] is not None))
        return find_triangles(self, points, *hint)

    monkeypatch.setattr(Mesh, "find_triangles", counting)
    return calls


def test_residual_locates_once_per_step_from_the_last_triangle(
    monkeypatch, disk, meshes, corpus_b, consts_k01
):
    u = FemFunction(meshes[0.1], meshes[0.1].nodes[:, 0] ** 2)
    calls = _count_locations(monkeypatch)
    martingale_residual_test(disk, u, corpus_b, consts_k01, params(n=20, T=0.02, h=1e-3),
                             t_res=0.01)
    # x0, then one hinted call per step up to t_res, then the terminal value
    # at t_res and at 2 t_res
    assert calls == [(20, False)] + [(20, True)] * 10 + [(20, False)] * 2


def test_probe_comparison_locates_once_per_step(monkeypatch, disk, meshes, corpus_b):
    u = FemFunction(meshes[0.1], meshes[0.1].nodes[:, 0] ** 2 + meshes[0.1].nodes[:, 1] ** 2)
    calls = _count_locations(monkeypatch)
    probes = np.array([[0.0, 0.1], [0.5, -0.2]])
    compare_frozen_at_probes(disk, u, corpus_b, params(n=40, T=0.05, h=1e-3), probes=probes)
    n_steps = 50
    # the time term: u, grad u and the lift G from one location per path-step,
    # each but a probe's first walking from the last one's triangles
    time_term = [hinted for size, hinted in calls if size == 40]
    assert len(time_term) == len(probes) * n_steps
    assert time_term.count(False) == len(probes)
    # the boundary term: one location of the hits, on steps with a hit
    sizes = [size for size, _ in calls]
    hits = [size for size in sizes if size < 40]
    assert len(hits) <= len(probes) * n_steps + 6  # plus probes, shifts, boundary nodes


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
