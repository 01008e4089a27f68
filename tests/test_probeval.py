import warnings

import numpy as np
import pytest

from reflectpde import probeval, reflectsim
from reflectpde.coeffexpr import CoefficientSet, StructureConstants, choose_constants
from reflectpde.geometry import Domain, interior_grid
from reflectpde.mesh_fem import (
    FemFunction, Mesh, WeakForm, build_mesh, solve_semilinear_g_frozen,
)
from reflectpde.probeval import (
    AdmissibilityError,
    BoundaryIntegralObserver,
    McParams,
    ResidualObserver,
    TerminalObserver,
    TimeIntegralObserver,
    WeightedObserver,
    _phi1,
    _StepMemo,
    calibrate_boundary_constant,
    check_conditions_C,
    compare_frozen_at_probes,
    estimate_decay,
    fk_linear_frozen,
    martingale_residual_test,
)
from reflectpde.picard import run_picard
from reflectpde.reflectsim import Estimate, PathObserver, StarObserver, run_paths
from .conftest import F_A, H_A, Unrolled, count_locations, q_only

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


def test_phi1_is_the_where_form_bit_for_bit():
    # zero, tiny (|a| < 1e-8, the series branch), the branch edge, negative and positive
    a = np.array([[0.0, -0.0, 1e-9, -1e-9, 9.99e-9, -9.99e-9, 1e-8, -1e-8],
                  [-3.0, 2.5, 1e-3, -1e-3, -700.0, 700.0, -0.5, 40.0]])
    small = np.abs(a) < 1e-8
    safe = np.where(small, 1.0, a)
    ref = np.where(small, 1.0 + 0.5 * a, np.expm1(safe) / safe)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            got = _phi1(a)
    assert got.tobytes() == ref.tobytes()


def test_decay_fit_read_off_the_run(monkeypatch, disk):
    # q = -1: the weight is e^{-power t} on every path, so the fit is exact
    _, fits = _spy(monkeypatch, "estimate_decay")
    fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, ONE, ZERO, params(n=50))
    check_conditions_C(disk, q_only("-1"), params(n=50, seed=1), grid_n=1)
    assert [fit.power for fit in fits] == [1, 1, 2]
    for fit in fits:
        assert np.array_equal(fit.times, np.arange(1.0, 9.0))  # eighths of T = 8
        assert fit.C == pytest.approx(1.0, abs=1e-9)
        assert fit.theta == pytest.approx(fit.power, abs=1e-9)
    assert estimate_decay(np.arange(1.0, 3.0), np.array([0.5, 0.0]), 1).theta == 0.0


def test_decay_fit_needs_two_distinct_times(disk):
    # a horizon of one step leaves one fit time, through which any slope fits
    fit = estimate_decay(np.array([1e-3]), np.array([0.999]), 1)
    assert fit.theta == 0.0 and fit.tail_integral(1.0) == float("inf")
    with pytest.raises(AdmissibilityError):
        fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, ONE, ZERO, params(n=20, T=1e-3))
    report = check_conditions_C(disk, q_only("-1"), params(n=20, T=1e-3), grid_n=1)
    assert report.boundary_weight.tail_bound == float("inf")
    assert report.q_square_sup.tail_bound == float("inf")


@pytest.mark.parametrize("T", [0.0, 1e-3], ids=["zero-steps", "one-step"])
def test_a_zero_horizon_has_the_outcome_of_one_step(disk, T):
    # no step reaches the first fit step: the estimators once died in np.concatenate
    p = McParams(10, T, 1e-3, 1)
    mesh = build_mesh(disk, 0.5)
    u = FemFunction(mesh, np.zeros(mesh.n_nodes))
    with pytest.raises(AdmissibilityError):
        fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, None, ONE, p)
    with pytest.raises(AdmissibilityError):
        compare_frozen_at_probes(disk, u, q_only("-1"), p, probes=np.zeros((1, 2)))
    report = check_conditions_C(disk, q_only("-1"), p, grid_n=1)
    assert all(c.divergent for c in report.conditions)
    assert str(report).count("DIVERGENT") == 3


def test_admissibility_error_for_flat_weight(disk):
    with pytest.raises(AdmissibilityError):
        fk_linear_frozen(disk, np.zeros(2), ZERO, None, ONE, params(n=50, T=2.0))


def test_admissibility_error_after_the_run(monkeypatch, disk):
    runs, _ = _spy(monkeypatch, "run_paths")
    p = params(n=50, T=2.0)
    with pytest.raises(AdmissibilityError):
        fk_linear_frozen(disk, np.zeros(2), ZERO, ONE, ONE, p)
    ((args, _),) = runs  # the fit is read off the main run: its paths and seed
    assert args[1:5] == (p.n_paths, p.horizon, p.step, p.seed)
    assert p.truncation_tail_bound == 0.0


def test_fk_refuses_a_start_off_the_closed_domain(disk):
    # these returned 999.8 and nan: a path from (1e6, 0) is projected onto the disk
    x1 = lambda x: x[:, 0]  # noqa: E731
    for x0 in ((1e6, 0.0), (np.nan, 0.0)):
        with pytest.raises(ValueError, match="probe 0 starts at"):
            fk_linear_frozen(disk, np.array(x0), Q_MINUS_ONE, x1, ZERO, params(n=200, T=2.0))


def test_fk_estimators_run_once(monkeypatch, disk, meshes):
    runs, _ = _spy(monkeypatch, "run_paths")
    x0 = np.array([0.2, 0.1])
    fk_linear_frozen(disk, x0, Q_MINUS_ONE, ONE, ONE, params(n=20, T=0.5))
    assert len(runs) == 1
    fk_linear_frozen(disk, x0, Q_MINUS_ONE, None, ONE, params(n=20, T=0.5))
    assert len(runs) == 2


def test_probe_estimators_run_once_per_path_functional(monkeypatch, disk, meshes, corpus_b):
    runs, _ = _spy(monkeypatch, "run_paths")
    probes = np.array([[0.0, 0.1], [0.5, -0.2], [-0.3, 0.3]])
    calibrate_boundary_constant(disk, params(n=20, T=0.5), mesh_h=0.1, probes=probes)
    assert len(runs) == 1
    u = FemFunction(meshes[0.1], meshes[0.1].nodes[:, 0] ** 2)
    compare_frozen_at_probes(disk, u, corpus_b, params(n=20, T=0.5), probes=probes)
    assert len(runs) == 2
    check_conditions_C(disk, q_only("-1"), params(n=20, T=0.5), grid_n=3)
    assert len(runs) == 2 + 3  # two boundary probes on two observers, then the grid
    # each run carries every probe of its functional, 20 paths each
    assert [args[1] for args, _ in runs] == [60, 60, 20, 20, 60]


@pytest.mark.parametrize("x0, base, chunk", [
    (np.array([[0.0, 0.0], [0.9, 0.0], [-0.3, 0.6]]), 11, 4),  # a chunk splits each probe
    (None, 11, 2048),                                          # uniform starts
    (np.array([[0.0, 0.0], [0.9, 0.0], [-0.3, 0.6]]), 2**63 - 1, 2048),
], ids=["chunk-4", "uniform-starts", "seed-2^63-1"])
def test_grouped_run_is_the_per_probe_loop_bit_for_bit(monkeypatch, disk, x0, base, chunk):
    # one run of three probes of 7 paths against one run per probe, as the estimators
    # ran them: samples, estimates and decay-fit means, bit for bit; seed + offset above
    # 2^63 must stay an exact key (through float, or wrapped as an int64, it would not)
    seeds = [base + off for off in (0, 7, 100)]
    q = lambda x: -1.0 - x[:, 0] ** 2  # noqa: E731

    def observer():
        return TimeIntegralObserver(q, F=lambda x: 1.0 + x[:, 1], H=lambda x: 2.0 - x[:, 0],
                                    c=0.5, stops=[5, 10, 20])

    monkeypatch.setattr(probeval, "run_paths", lambda *a, **k: run_paths(*a, **k,
                                                                          chunk_size=chunk))
    grouped = observer()
    p = params(n=7, T=0.2, h=1e-2)
    ests, fits = probeval._run_probes(disk, x0, seeds, grouped, p)
    samples = np.split(grouped.samples()[0], 3)
    for g, (seed, est, fit) in enumerate(zip(seeds, ests, fits)):
        alone = observer()
        run_paths(disk, 7, 0.2, 1e-2, seed, [alone], x0=None if x0 is None else x0[g],
                  chunk_size=chunk)
        want = alone.samples()[0]
        assert samples[g].tobytes() == want.tobytes()
        assert est == alone.estimate() == Estimate.from_samples(want)
        means = [alone.samples(s)[1].mean() for s in (5, 10, 20)]
        assert fit.values.tobytes() == np.array(means).tobytes()
    assert len({s.tobytes() for s in samples}) == 3  # three streams, not one


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
        "time": TimeIntegralObserver(q, F=F, stops=marks, **weights),
        "bnd": BoundaryIntegralObserver(q, H=H, c=c, stops=marks, **weights),
        "one": TerminalObserver(q, Phi=ONE, stops=marks, **weights),
        "term": TerminalObserver(q, Phi=Phi, stops=marks, **weights),
        "fh": WeightedObserver(q, F=F, H=H, c=c, stops=marks, **weights),
        "fhphi": WeightedObserver(q, F=F, H=H, Phi=Phi, c=c, stops=marks, **weights),
    }
    run_paths(domain, 150, n_steps * 2e-3, 2e-3, seed=13,
              observers=[Unrolled(obs) for obs in ref.values()] + list(new.values()),
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
# block edges: the block observers against one-step-at-a-time references


class RefResidualObserver(PathObserver):
    """The one-step-at-a-time ResidualObserver, verbatim (renamed only)."""

    def __init__(self, u: FemFunction, coeffs, n_end: int):
        self.u = u
        self.coeffs = coeffs
        self.n_end = n_end
        self.q_at = _StepMemo(coeffs.q_at)
        self.res_samples: list = []
        self.qv_samples: list = []
        self.mg_samples: list = []
        self._g_zero = all(e.is_zero() for e in coeffs.g)

    def start_chunk(self, indices, x0):
        val, grad = self.u.value_grad_at(x0)
        self._u0 = val.copy()
        self._uprev = val
        self._gprev = grad
        if not self._g_zero:
            self._gpath_prev = self.coeffs.g_at(x0, val, grad)
        self._drift = np.zeros(len(indices))
        self._star = np.zeros(len(indices))
        self._lt = np.zeros(len(indices))
        self._mg = np.zeros(len(indices))
        self._qv = np.zeros(len(indices))
        self._uend = None

    def step(self, ctx):
        if ctx.j >= self.n_end:
            return
        val, grad = self.u.value_grad_at(ctx.x_new)
        q_prev = self.q_at(ctx.x_prev)
        f_prev = np.asarray(
            self.coeffs.f_at(ctx.x_prev, self._uprev, self._gprev), dtype=float
        )
        self._drift += (q_prev * self._uprev + f_prev) * ctx.h
        if not self._g_zero:
            g_cur = self.coeffs.g_at(ctx.x_new, val, grad)
            self._star -= np.einsum("pd,pd->p", g_cur - self._gpath_prev, ctx.dB)
            self._gpath_prev = g_cur
        if ctx.hit.any():
            hit = ctx.hit
            flux = -np.asarray(self.coeffs.h_at(ctx.x_new[hit], val[hit]), dtype=float)
            if not self._g_zero:
                flux = flux + 2.0 * np.einsum(
                    "pd,pd->p", g_cur[hit], ctx.normal[hit]
                )
            self._lt[hit] += flux * (0.5 * ctx.dl[hit])
        self._mg += np.einsum("pd,pd->p", self._gprev, ctx.dB)
        self._qv += np.einsum("pd,pd->p", self._gprev, self._gprev) * ctx.h
        self._uprev = val
        self._gprev = grad
        if ctx.j + 1 == self.n_end:
            self._uend = val.copy()

    def end_chunk(self, x_final):
        uend = self._uend if self._uend is not None else self._uprev
        res = uend - self._u0 + self._drift + self._star - self._lt
        self.res_samples.append(res)
        self.qv_samples.append(self._qv)
        self.mg_samples.append(self._mg)


EDGE_DOMAINS = {"disk": Domain.disk(), "ellipse": Domain.ellipse(1.5, 1.0), "ball": Domain.ball(3)}


@pytest.mark.parametrize("kind", list(EDGE_DOMAINS))
def test_block_observers_match_step_references(monkeypatch, kind):
    # 40 path-steps per block: 4 steps for the chunk of 9 paths, the noise block of 13
    # for chunks of 1 and 2 paths; 101 steps are a multiple of neither, and the marks,
    # fit steps and n_end = 55 lie off the block edges, but for the mark at 26
    monkeypatch.setattr(reflectsim, "BLOCK_PATH_STEPS", 40)
    domain = EDGE_DOMAINS[kind]
    n_steps, n_end, marks, fits = 101, 55, [6, 26, 27, 50], [3, 41, 76]
    weights = {"lam": 0.3, "mu": -0.2, "power": 2}
    q = lambda x: -1.0 - 0.5 * x[:, 0] ** 2  # noqa: E731
    F = lambda x: 1.0 + x[:, 0] * x[:, 1]  # noqa: E731
    H = lambda x: 0.5 + x[:, 1]  # noqa: E731
    Phi = lambda x: x[:, 0] ** 2 + 0.1  # noqa: E731
    if domain.dim == 2:
        mesh = build_mesh(domain, 0.15)
        u = FemFunction(mesh, mesh.nodes[:, 0] ** 2 - 0.3 * mesh.nodes[:, 1])

        def F_u(x, val, grad):  # the gradient tells the triangles apart
            return val + grad[:, 0] * grad[:, 1] + x[:, 0]

        def H_u(x, val):
            return val + 0.5 + x[:, 1]

        def g_u(x, val, grad):
            return np.column_stack([0.1 * np.tanh(val) + x[:, 0], grad[:, 1] - x[:, 1]])

        def fresh(fn):  # the data of the field, with u evaluated afresh at every point
            return lambda x: fn(x, *u.value_grad_at(x))

        def fresh_h(x):
            return H_u(x, u.value_at(x))

        coeffs = {"g0": CoefficientSet.from_strings(2, f=F_A, g=["0", "0"], h=H_A, q="-1"),
                  "g": CoefficientSet.from_strings(2, f=F_A, g=["0.1*tanh(y)", "x1"], h=H_A,
                                                   q="-1 - x1^2")}
    for chunk_size in (1, 2, 2048):
        ref = {
            "time": RefTimeIntegralObserver(q, F, snapshot_steps=marks, **weights),
            "bnd": RefBoundaryIntegralObserver(q, H, c=0.47, snapshot_steps=marks, **weights),
            "term": RefTerminalObserver(q, Phi, horizons=marks + [n_steps], **weights),
            "fit": RefTerminalObserver(q, None, horizons=fits, **weights),
        }
        new = {"w": WeightedObserver(q, F=F, H=H, Phi=Phi, c=0.47,
                                     stops=marks + fits, **weights)}
        if domain.dim == 2:
            ref["time_u"] = RefTimeIntegralObserver(q, fresh(F_u), snapshot_steps=marks,
                                                    **weights)
            ref["bnd_u"] = RefBoundaryIntegralObserver(q, fresh_h, c=0.47, snapshot_steps=marks,
                                                       **weights)
            ref["div_u"] = RefDivergenceTerm(q, fresh(g_u), 0.47, **weights)
            new["w_u"] = WeightedObserver(q, F=F_u, H=H_u, c=0.47, stops=marks, field=u,
                                          **weights)
            new["div_u"] = WeightedObserver(q, g=g_u, c=0.47, stops=marks, field=u, **weights)
            for key, c in coeffs.items():
                ref["res_" + key] = RefResidualObserver(u, c, n_end)
                ref["term_" + key] = RefTerminalObserver(c.q_at, Phi, horizons=[n_end, n_steps],
                                                         **weights)
                new["res_" + key] = res = ResidualObserver(u, c, n_end)
                new["term_" + key] = TerminalObserver(res.q_at, Phi=Phi, stops=[n_end], **weights)
        run_paths(domain, 9, n_steps * 2e-3, 2e-3, seed=31, chunk_size=chunk_size,
                  observers=[Unrolled(obs) for obs in ref.values()] + list(new.values()))

        def cat(arrays):
            return np.concatenate(arrays)

        assert cat(ref["bnd"].samples).any()  # the paths reach the boundary
        w, term = new["w"], ref["term"].records
        for step, want in [(m, cat(ref["time"].snapshots[m]) + cat(ref["bnd"].snapshots[m])
                            + cat(term[m])) for m in marks] + [
                (None, cat(ref["time"].samples) + cat(ref["bnd"].samples) + cat(term[n_steps]))]:
            assert np.array_equal(w.samples(step)[0], want)
        for s in fits:
            assert np.array_equal(w.samples(s)[1], cat(ref["fit"].records[s]))
        if domain.dim == 2:
            w = new["w_u"]
            for m in marks:
                want = cat(ref["time_u"].snapshots[m]) + cat(ref["bnd_u"].snapshots[m])
                assert np.array_equal(w.samples(m)[0], want)
            want = cat(ref["time_u"].samples) + cat(ref["bnd_u"].samples)
            assert np.array_equal(w.samples()[0], want)
            # the star and flux sums, in two accumulators against the reference's one
            np.testing.assert_allclose(new["div_u"].samples()[0], cat(ref["div_u"].samples),
                                       rtol=1e-12, atol=1e-15)
            for key in coeffs:
                got, want = new["res_" + key], ref["res_" + key]
                for name in ("res_samples", "qv_samples", "mg_samples"):
                    assert np.array_equal(cat(getattr(got, name)), cat(getattr(want, name)))
                got, want = new["term_" + key], ref["term_" + key].records
                assert np.array_equal(got.samples(n_end)[0], cat(want[n_end]))
                assert np.array_equal(got.samples()[0], cat(want[n_steps]))


# ---------------------------------------------------------------------------
# the divergence term: the star integral and the flux, weighted at the left node


def _g_field(x):
    """A vector field in any dimension; it does not vanish on the boundary."""
    return np.sin(x[:, ::-1]) + 0.5 * x


class FluxSum(PathObserver):
    """sum_j <g(X_{j+1}), n_j> dL_j, one step at a time (n and dL vanish off the hits)."""

    def __init__(self, g):
        self.g, self.samples = g, []

    def start_chunk(self, indices, x0):
        self._acc = np.zeros(len(indices))

    def step(self, ctx):
        self._acc += np.einsum("pd,pd->p", self.g(ctx.x_new), ctx.normal) * ctx.dl

    def end_chunk(self, x_final):
        self.samples.append(self._acc)


@pytest.mark.parametrize("kind", list(EDGE_DOMAINS))
def test_divergence_term_at_unit_weight_is_the_star_sum_less_the_flux(kind):
    # q = 0 and lam = mu = 0: every weight is e^0 = 1, and the new term is
    # StarObserver's sum minus 2 c sum <g, n> dL, path by path
    domain, c = EDGE_DOMAINS[kind], 0.47
    obs = WeightedObserver(ZERO, g=_g_field, c=c, stops=[40])
    star, flux = StarObserver(_g_field), FluxSum(_g_field)
    run_paths(domain, 50, 0.4, 2e-3, seed=17, observers=[obs, star, Unrolled(flux)],
              x0=np.full(domain.dim, 0.7 / np.sqrt(domain.dim)), chunk_size=16)
    values, weights = obs.samples()
    fluxes = np.concatenate(flux.samples)
    assert np.count_nonzero(fluxes) > 10  # the paths reach the boundary
    assert np.all(weights == 1.0)
    want = np.concatenate(star.samples) - 2.0 * c * fluxes
    np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)


class RefDivergenceTerm(PathObserver):
    """The weighted star and flux sums, one step at a time:

    sum_j e^{E_j} (-<g(X_{j+1}) - g(X_j), dB_j> - 2 c <g(X_{j+1}), n_j> dL_j).
    """

    def __init__(self, q, g, c, lam, mu, power):
        self.q, self.g, self.c = q, g, c
        self.lam, self.mu, self.power = lam, mu, power
        self.samples = []

    def start_chunk(self, indices, x0):
        self._expo, self._acc = np.zeros(len(indices)), np.zeros(len(indices))
        self._g = self.g(x0)

    def step(self, ctx):
        g = self.g(ctx.x_new)
        star = -np.einsum("pd,pd->p", g - self._g, ctx.dB)
        flux = -2.0 * self.c * np.einsum("pd,pd->p", g, ctx.normal) * ctx.dl
        self._acc += np.exp(self._expo) * (star + flux)
        self._expo += (self.lam + self.power * self.q(ctx.x_prev)) * ctx.h + self.mu * ctx.dl
        self._g = g

    def end_chunk(self, x_final):
        self.samples.append(self._acc)


@pytest.mark.parametrize("kind", list(EDGE_DOMAINS))
def test_weighted_divergence_term_matches_a_step_reference(monkeypatch, kind):
    # block edges off the stops as in the block test; the block observer sums the
    # star and flux terms in two accumulators, the reference in one
    monkeypatch.setattr(reflectsim, "BLOCK_PATH_STEPS", 40)
    domain = EDGE_DOMAINS[kind]
    weights = {"lam": 0.3, "mu": -0.2, "power": 2}
    q = lambda x: -1.0 - 0.5 * x[:, 0] ** 2  # noqa: E731
    for chunk_size in (1, 2, 2048):
        obs = WeightedObserver(q, g=_g_field, c=0.47, stops=[6, 26, 50], **weights)
        ref = RefDivergenceTerm(q, _g_field, 0.47, **weights)
        run_paths(domain, 9, 101 * 2e-3, 2e-3, seed=31, chunk_size=chunk_size,
                  observers=[obs, Unrolled(ref)])
        np.testing.assert_allclose(obs.samples()[0], np.concatenate(ref.samples),
                                   rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# Feynman-Kac estimators


def test_fk_zero_data_is_zero(disk):
    p = params(n=50, T=3.0)
    est = fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, None, ZERO, p)
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
    assert sum(calls) == 20 * 30  # each path-step point once, in blocks of steps


def test_fk_without_a_boundary_rule_fails_before_any_run(monkeypatch):
    # no boundary quadrature on the 4-ball: sup|H| of the tail bound is taken first
    ball = Domain.ball(4)
    runs, _ = _spy(monkeypatch, "run_paths")
    p = params(n=50, T=0.5, h=1e-2)
    with pytest.raises(NotImplementedError):
        fk_linear_frozen(ball, np.zeros(4), Q_MINUS_ONE, None, ONE, p)
    with pytest.raises(NotImplementedError):
        fk_linear_frozen(ball, np.zeros(4), Q_MINUS_ONE, ONE, ONE, p)
    assert runs == []


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
    est = fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, None, ONE, p)
    oracle = 1.0 / (np.sqrt(2.0) * iv(1, np.sqrt(2.0)))
    assert est.mean == pytest.approx(oracle, abs=3 * est.standard_error + 0.05)


def test_fk_boundary_reduces_to_linear_frozen(disk):
    # F = None, the pure boundary functional, is F = 0 without the time integral
    p1 = params(n=300, T=10.0, seed=6)
    p2 = params(n=300, T=10.0, seed=6)
    a = fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, None, ONE, p1)
    b = fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, ZERO, ONE, p2)
    assert a.mean == pytest.approx(b.mean, abs=1e-12)


def test_calibration_problem_fem_matches_bessel(disk, meshes):
    from scipy.special import iv

    calibration = CoefficientSet.from_strings(2, f="0", g=["0", "0"], h="1", q="-1")
    v = solve_semilinear_g_frozen(meshes[0.025], calibration, inner_tol=1e-11)
    r = np.array([0.0, 0.3, 0.6, 0.9])
    probes = np.stack([r, np.zeros(4)], axis=1)
    exact = iv(0, np.sqrt(2) * r) / (np.sqrt(2) * iv(1, np.sqrt(2)))
    assert np.max(np.abs(v.value_at(probes) - exact)) < 2e-3


def test_fk_with_divergence_against_fem(disk, meshes):
    # frozen problem with g = x: compare the FK route with its star term to the FEM solve
    coeffs = CoefficientSet.from_strings(
        2, f="1 - x1", g=["x1", "x2"], h="0.5 + x2", q="-1"
    )
    mesh = meshes[0.05]
    u = WeakForm(mesh, coeffs).solve(mesh.gradient_load(mesh.quad_x), inner_tol=1e-11)
    x0 = np.array([0.2, -0.1])
    p = params(n=1500, T=10.0, h=1e-3, seed=8)
    cmp = compare_frozen_at_probes(disk, u, coeffs, p, probes=[x0])
    mean, se = cmp.mc_means[0], cmp.mc_ses[0]
    assert mean == pytest.approx(cmp.fem_values[0], abs=3 * se + 0.06)


class _CountingQ:
    """Coefficients whose q_at records the number of points of each call."""

    def __init__(self, coeffs):
        self.coeffs, self.calls = coeffs, []

    def __getattr__(self, name):
        return getattr(self.coeffs, name)

    def q_at(self, x):
        self.calls.append(len(x))
        return self.coeffs.q_at(x)


def test_fk_with_divergence_evaluates_q_once_per_step(disk, meshes):
    coeffs = _CountingQ(CoefficientSet.from_strings(2, f="1", g=["x1", "x2"], h="1", q="-1"))
    u = FemFunction(meshes[0.1], np.zeros(meshes[0.1].n_nodes))
    # 20 engine steps in one chunk of 30 paths; the decay fit reads the same run
    compare_frozen_at_probes(disk, u, coeffs, params(n=30, T=0.2, h=1e-2), probes=[[0.0, 0.0]])
    # each path-step point once: the observer's evaluation
    assert sum(coeffs.calls) == 20 * 30


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
    rep = check_conditions_C(disk, q_only("-1"), p, grid_n=4)
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
        Q_MINUS_ONE, H=ONE, c=0.5, stops=[1500]
    )
    run_paths(disk, 300, 6.0, 2e-3, seed=21, observers=[obs], x0=np.zeros(2))
    half = obs.estimate(1500)
    full = obs.estimate()
    assert half.mean <= full.mean + 1e-15


def test_conditions_q_zero_divergent(disk):
    p = params(n=200, T=4.0, h=2e-3, seed=5)
    rep = check_conditions_C(disk, q_only("0"), p, grid_n=2)
    assert rep.boundary_weight.divergent
    assert not rep.all_clear


def test_conditions_flagged_by_the_decay_fit(disk):
    # q = -1 fits theta = 1 exactly; a 10 % window test once flagged E[int w dL]
    # at this horizon although the fit bounds its tail at 0.05
    rep = check_conditions_C(disk, q_only("-1"), params(n=200, T=3.0, seed=7), grid_n=1)
    assert rep.all_clear
    assert rep.boundary_weight.tail_bound < 0.05
    assert "theta=1 " in rep.boundary_weight.detail


def test_conditions_exploding_weight_divergent(disk):
    # q = +100: the weights overflow, the fits read theta = nan, which does not decay
    with np.errstate(over="ignore", invalid="ignore"):
        rep = check_conditions_C(
            disk, q_only("100"), params(n=20, T=8.0, h=1e-2), grid_n=1
        )
    conds = (rep.boundary_weight, rep.boundary_weight_sq, rep.q_square_sup)
    assert all(c.divergent and c.tail_bound == float("inf") for c in conds)


def test_conditions_q_zero_third_tail_is_zero(disk):
    # with q = 0 the q^2 integrand vanishes: its tail is 0, not 0 * inf = nan
    rep = check_conditions_C(disk, q_only("0"), params(n=20, T=0.1), grid_n=1)
    assert rep.boundary_weight.divergent and rep.boundary_weight_sq.divergent
    assert rep.q_square_sup.tail_bound == 0.0
    assert not rep.q_square_sup.divergent


# a bump of radius 0.02 at (0.3, 0.2), between the 64 points of the grid sup of q^2
BUMP = "10*max(0, 1 - 2500*((x1 - 0.3)^2 + (x2 - 0.2)^2))"
NEGATIVE_BUMP = "10*min(0, 2500*((x1 - 0.3)^2 + (x2 - 0.2)^2) - 1)"


def test_conditions_bump_q_is_not_taken_for_zero(disk):
    # the weight grows, so condition 3 diverges too: q vanishing on the grid
    # once passed it with tail 0 and the note "q = 0"
    rep = check_conditions_C(disk, q_only(BUMP), params(n=200, T=2.0, h=2e-3, seed=3),
                             grid_n=2)
    assert rep.boundary_weight.divergent and rep.boundary_weight_sq.divergent
    c3 = rep.q_square_sup
    assert c3.divergent and c3.tail_bound == float("inf")
    assert "q = 0" not in c3.detail and "q = 0" not in str(rep)


def test_conditions_negative_bump_is_not_taken_for_zero(disk):
    rep = check_conditions_C(disk, q_only(NEGATIVE_BUMP),
                             params(n=200, T=2.0, h=2e-3, seed=3), grid_n=2)
    assert "q = 0" not in rep.q_square_sup.detail


def test_conditions_flag_a_tail_bound_above_the_estimate(disk):
    # both boundary fits barely decay (theta ~ 0.002 and 0.004), so their tails are
    # bounded at 423 and 258 beside estimates of 1.6 and 1.7; both rows once read "ok"
    rep = check_conditions_C(disk, q_only(NEGATIVE_BUMP),
                             params(n=200, T=2.0, h=2e-3, seed=3), grid_n=2)
    rows = str(rep).splitlines()
    for c, row in zip((rep.boundary_weight, rep.boundary_weight_sq), rows):
        assert not c.divergent and c.tail_bound > 100.0 * c.estimate.mean
        assert "  TAIL>EST fit C=" in row and " ok " not in row
    assert rep.all_clear  # the flag is report text; the verdicts are the fits'


def test_conditions_run_exactly_grid_n_starts(monkeypatch, disk):
    runs, _ = _spy(monkeypatch, "run_paths")
    p = params(n=10, T=0.1, h=1e-2)
    for grid_n in (1, 2, 5):
        runs.clear()
        rep = check_conditions_C(disk, q_only("-1"), p, grid_n=grid_n)
        args, kwargs = runs[-1]  # the grid's run: the origin, then interior_grid
        want = np.vstack([np.zeros((1, 2)), interior_grid(disk, grid_n - 1)])
        assert np.array_equal(kwargs["x0"], want)
        assert args[1] == 10 * grid_n and len(args[4]) == grid_n
        assert f"grid max over {grid_n} starts" in rep.q_square_sup.detail
    runs.clear()
    for grid_n in (0, -2):
        with pytest.raises(ValueError, match="grid_n"):
            check_conditions_C(disk, q_only("-1"), p, grid_n=grid_n)
    assert runs == []


def test_conditions_on_a_ball_without_a_boundary_rule():
    # the 4-ball has no boundary quadrature; the probes' tail needs none (sup|H| = 1)
    rep = check_conditions_C(Domain.ball(4), q_only("-1", 4), params(n=20, T=1.0), grid_n=1)
    assert np.isfinite(rep.boundary_weight.estimate.mean)
    assert rep.boundary_weight.tail_bound >= 0.0


def test_conditions_c1_equals_fk_quantity(disk):
    # same quantity by definition (both carry c_bd = DEFAULT_C_BD and run alike)
    p1 = params(n=250, T=8.0, seed=7)
    rep = check_conditions_C(disk, q_only("-1"), p1, grid_n=2)
    p2 = params(n=250, T=8.0, seed=7)
    est = fk_linear_frozen(disk, np.zeros(2), Q_MINUS_ONE, None, ONE, p2)
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
    # observer share one evaluation of each path-step point
    martingale_residual_test(disk, u, corpus_a, consts_k0, params(n=20, T=0.02, h=1e-3),
                             t_res=0.01)
    assert sum(calls) == 20 * 20


def test_residual_locates_once_per_step(monkeypatch, disk, meshes, corpus_b, consts_k01):
    u = FemFunction(meshes[0.1], meshes[0.1].nodes[:, 0] ** 2)
    calls = count_locations(monkeypatch)
    martingale_residual_test(disk, u, corpus_b, consts_k01, params(n=20, T=0.02, h=1e-3),
                             t_res=0.01)
    # x0, then each path-step point up to t_res located once, a block at a time,
    # then the terminal value at t_res and at 2 t_res
    start, *steps, t1, t2 = calls
    assert start == t1 == t2 == 20
    assert sum(steps) == 20 * 10


def test_probe_comparison_locates_once_per_step(monkeypatch, disk, meshes, corpus_b):
    u = FemFunction(meshes[0.1], meshes[0.1].nodes[:, 0] ** 2 + meshes[0.1].nodes[:, 1] ** 2)
    h_calls, evaluated = [], []
    h_at, value_grad_at = CoefficientSet.h_at, FemFunction.value_grad_at

    def counting_h_at(self, x, y):
        h_calls.append(len(x))
        return h_at(self, x, y)

    def counting_value_grad_at(self, points):
        evaluated.append(len(points))
        return value_grad_at(self, points)

    monkeypatch.setattr(CoefficientSet, "h_at", counting_h_at)
    monkeypatch.setattr(FemFunction, "value_grad_at", counting_value_grad_at)
    calls = count_locations(monkeypatch)
    probes = np.array([[0.0, 0.1], [0.8, -0.3]])
    compare_frozen_at_probes(disk, u, corpus_b, params(n=40, T=0.05, h=1e-3), probes=probes)
    n_steps = 50
    # one run of both probes: the 80 start points, each path-step's new point located
    # and evaluated once, a block at a time, f, g and h reading those values; then the
    # FEM values
    for counts in (calls, evaluated):
        starts, *blocks, fem = counts
        assert starts == len(probes) * 40
        assert sum(blocks) == len(probes) * 40 * n_steps
        assert fem == len(probes)
    assert h_calls  # the boundary term reads the hits' values from the block's


def test_probe_comparison_smoke(monkeypatch, disk, meshes, corpus_a):
    u = solve_semilinear_g_frozen(meshes[0.05], corpus_a, inner_tol=1e-11)
    p = params(n=600, T=10.0, h=1e-3, seed=11)
    loads = []
    gradient_load = Mesh.gradient_load
    monkeypatch.setattr(Mesh, "gradient_load",
                        lambda self, g_quad: loads.append(g_quad) or gradient_load(self, g_quad))
    cmp = compare_frozen_at_probes(disk, u, corpus_a, p, allowance=0.08)
    assert cmp.passed, str(cmp)
    assert loads == []  # the check reads nothing of the assembly of the divergence term


def test_probe_comparison_catches_a_sign_flipped_divergence_load(monkeypatch, disk, meshes):
    # the divergence load of the solve times -1 moves u by up to 0.9; the comparison
    # once removed g by the Riesz lift of that same load, and passed the flipped field
    coeffs = CoefficientSet.from_strings(2, f="1 - y", g=["0.3*tanh(y) + x1", "x2"],
                                         h="1 - y", q="-1")
    consts = choose_constants(
        StructureConstants(alpha=1.0, beta=1.0, K=0.1, M=4.0, k=0.3, beta_prime=1.0)
    )
    p = params(n=400, T=6.0, h=5e-4, seed=5)
    right = run_picard(disk, coeffs, consts, 0.05, tol=1e-9, mesh=meshes[0.05]).solution
    cmp_right = compare_frozen_at_probes(disk, right, coeffs, p)
    # the defect stays in place for the check, as a defect in the assembly would
    gradient_load = Mesh.gradient_load
    monkeypatch.setattr(Mesh, "gradient_load", lambda self, g_quad: -gradient_load(self, g_quad))
    flipped = run_picard(disk, coeffs, consts, 0.05, tol=1e-9, mesh=meshes[0.05]).solution
    assert np.max(np.abs(flipped.values - right.values)) > 0.5
    cmp_flipped = compare_frozen_at_probes(disk, flipped, coeffs, p)
    assert cmp_right.passed, str(cmp_right)
    assert not cmp_flipped.passed, str(cmp_flipped)


def test_probe_verdicts_are_the_pass_rule_per_probe():
    # |fem - mc| <= 3 SE + allowance, probe by probe; passed is their conjunction
    cmp = probeval.ProbeComparison(
        probes=np.zeros((3, 2)), fem_values=np.array([1.0, 1.0, 1.0]),
        mc_means=np.array([1.0, 1.25, 1.5]), mc_ses=np.array([0.0, 0.05, 0.1]),
        allowance=0.1,
    )
    assert cmp.verdicts.tolist() == [True, True, False]
    assert not cmp.passed
    cmp.mc_means[2] = 1.3
    assert cmp.verdicts.all() and cmp.passed
