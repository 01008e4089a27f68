"""Stochastic evaluation and verification against the deterministic backend.

Implements point evaluation of linear problems by weighted path functionals
(Feynman-Kac with a boundary local-time term), integrability probes for the
killing weight exp(int q), and the martingale-residual test that checks a
candidate solution field along simulated reflecting paths.

Boundary-constant convention.  All boundary integrals carry a constant
``c_bd`` multiplying the reported local-time increments.  With the
sigma-normalized local time of :mod:`reflectpde.reflectsim` the analytic
value is 1/2: the estimator

    u(x0) ~= E^{x0}[ int_0^T w_t F(X_t) dt + c_bd int_0^T w_t H(X_t) dL_t ],
    w_t = exp(int_0^t q(X_s) ds),

solves (1/2) lap u + q u + F = 0 with the inward-flux condition
<grad u, n> + 2 c_bd H = 0.  ``calibrate_boundary_constant`` fits c_bd once
against the finite-element solve of the fixed calibration problem
(q = -1, F = 0, H = 1 on the disk) and the fitted value is then frozen for
all runs; fitting rather than hard-coding absorbs the O(sqrt(h_t)) local-time
discretization bias as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain, boundary_quadrature, interior_grid
from .mesh_fem import (
    FemFunction, Mesh, WeakForm, build_mesh, solve_g_lifting, solve_semilinear_g_frozen,
)
from .reflectsim import Estimate, PathObserver, run_paths

DEFAULT_C_BD = 0.5


class AdmissibilityError(RuntimeError):
    """The empirical decay of the killing weight is too weak for truncation."""


# ---------------------------------------------------------------------------
# parameters and small containers


@dataclass
class McParams:
    """Monte-Carlo run parameters.

    ``truncation_tail_bound`` is filled by the estimators with the empirical
    bound on the discarded ``[T, infinity)`` tail, derived from the fitted
    exponential decay of the killing weight.
    """

    n_paths: int
    horizon: float
    step: float
    seed: int
    truncation_tail_bound: float = 0.0


@dataclass
class DecayFit:
    """Fit of sup_x E^x[exp(p int_0^t q)] <= C exp(-theta t)."""

    C: float
    theta: float
    power: int
    times: np.ndarray
    values: np.ndarray

    def tail_integral(self, T: float) -> float:
        """Bound on int_T^inf C e^{-theta t} dt (zero decay gives inf)."""
        if self.theta <= 0:
            return float("inf")
        return self.C * math.exp(-self.theta * T) / self.theta


# ---------------------------------------------------------------------------
# seed streams
#
# Every Monte-Carlo run draws from its caller's base seed plus an offset, so
# that the runs of one call use disjoint streams.  The values are part of the
# reproducibility contract: changing one changes every estimate built on it.

SEED_CALIBRATION_PROBES = 0      # calibrate_boundary_constant: + i for probe i
SEED_SECOND_BOUNDARY_PROBE = 1   # check_conditions_C: the E[int w^2 dL] probe
SEED_CONDITIONS_GRID = 100       # check_conditions_C: + i for grid start i
SEED_PROBE_STRIDE = 7            # compare_frozen_at_probes: + 7 i for probe i
SEED_PICARD_INCREMENTS = 1000    # picard.weighted_increment_ratios: + n for increment n


def _shifted(params: McParams, seed_shift: int) -> McParams:
    """The run parameters of one probe, on the seed stream ``seed_shift``."""
    return McParams(params.n_paths, params.horizon, params.step, params.seed + seed_shift)


# ---------------------------------------------------------------------------
# the weighted path functional (engine hook)
#
# One observer computes, along every path,
#
#     int e^{E} F dt  +  c sum_j e^{E_j} H(X_{j+1}) dL_j  +  e^{E} Phi(X),
#     E_j = lam t_j + mu L_j + power int_0^{t_j} q,
#
# with each of the three terms switched on by passing its function.  The
# exponent is advanced once per step whatever terms are on; the time and
# boundary terms accumulate every step and the terminal term is evaluated
# only where it is read: at marked steps and at the horizon.


def _phi1(a: np.ndarray) -> np.ndarray:
    """(e^a - 1)/a, stable near zero; exact in-step growth factor."""
    small = np.abs(a) < 1e-8
    safe = np.where(small, 1.0, a)
    return np.where(small, 1.0 + 0.5 * a, np.expm1(safe) / safe)


class _StepMemo:
    """``fn`` evaluated once per input array.

    The engine hands every observer of a step the same ``x_prev`` array, so
    functions of it called by several observers, or by an observer and its
    data, share one evaluation.  The array is held, so its identity is not
    reused; the engine does not modify it in place.
    """

    def __init__(self, fn):
        self.fn, self._x, self._v = fn, None, None

    def __call__(self, x):
        if x is not self._x:
            self._x, self._v = x, np.asarray(self.fn(x), dtype=float)
        return self._v


class PathLocator:
    """Triangles of points that move along paths, for ``FemFunction.value_grad_at``.

    Each call walks from the triangles of the previous call when it has as
    many points: the same paths one step on.  Any other call (a tail-bound
    grid, a new chunk) starts without a hint.  A hint shortens the walk and
    never changes its answer, so a stale one costs time only.
    """

    def __init__(self, mesh: Mesh):
        self.mesh, self._tri = mesh, None

    def __call__(self, x):
        same = self._tri is not None and len(self._tri) == len(x)
        self._tri = self.mesh.find_triangles(x, self._tri if same else None)
        return self._tri


class WeightedObserver(PathObserver):
    """Samples of the weighted path functional at marked steps and at the horizon.

    The time term uses the exponential in-step rule: per step the weight
    factor int_{t_j}^{t_{j+1}} e^{E(s)} ds is taken as
    e^{E_j} h phi1((lam + power q_j) h), which is exact for frozen q and makes
    constant-q integrands reproduce their closed forms to rounding error.  The
    boundary term takes left-node weights and H at the projection foot.  The
    time and boundary terms keep separate accumulators and are summed only
    when a value is recorded.  ``estimate(step)`` reads a marked step and
    ``estimate()`` the horizon.  At ``fit_steps`` the weight e^{E} itself is
    recorded, and ``decay_fit`` fits its decay from the run's own paths.
    """

    def __init__(self, q, F=None, H=None, Phi=None, c=1.0, lam=0.0, mu=0.0, power=1,
                 marks=(), fit_steps=()):
        self.q, self.F, self.H, self.Phi, self.c = q, F, H, Phi, c
        self.lam, self.mu, self.power = lam, mu, power
        self._values: dict = {step: [] for step in (*marks, None)}
        self._weights: dict = {step: [] for step in fit_steps}

    def start_chunk(self, indices, x0):
        n = len(indices)
        self._expo = np.zeros(n)
        self._time = None if self.F is None else np.zeros(n)
        self._bnd = None if self.H is None else np.zeros(n)

    def step(self, ctx):
        a = (self.lam + self.power * np.asarray(self.q(ctx.x_prev), dtype=float)) * ctx.h
        if self._time is not None:
            fv = np.asarray(self.F(ctx.x_prev), dtype=float)
            self._time += fv * np.exp(self._expo) * ctx.h * _phi1(a)
        if self._bnd is not None and ctx.hit.any():
            hit = ctx.hit
            hv = np.asarray(self.H(ctx.x_new[hit]), dtype=float)
            self._bnd[hit] += np.exp(self._expo[hit]) * hv * self.c * ctx.dl[hit]
        self._expo += a + self.mu * ctx.dl
        if ctx.j + 1 in self._values:
            self._values[ctx.j + 1].append(self._value(ctx.x_new))
        if ctx.j + 1 in self._weights:
            self._weights[ctx.j + 1].append(np.exp(self._expo))

    def end_chunk(self, x_final):
        self._values[None].append(self._value(x_final))

    def _value(self, x) -> np.ndarray:
        parts = [acc for acc in (self._time, self._bnd) if acc is not None]
        if self.Phi is not None:
            parts.append(np.exp(self._expo) * np.asarray(self.Phi(x), dtype=float))
        return sum(parts[1:], parts[0].copy())

    def estimate(self, step=None) -> Estimate:
        return Estimate.from_samples(np.concatenate(self._values[step]))

    def decay_fit(self, h: float) -> DecayFit:
        """``estimate_decay`` of the mean weight at the fit steps, h the step length."""
        steps = sorted(self._weights)
        means = [np.concatenate(self._weights[s]).mean() for s in steps]
        return estimate_decay(np.array(steps) * h, np.array(means), self.power)


# perfbench's tracer times observers by class name, one span per class; these
# names keep that split per functional.  Siblings, so no span nests in another.
class TimeIntegralObserver(WeightedObserver):
    """A weighted functional with the time integral of F, alone or with a boundary term."""


class BoundaryIntegralObserver(WeightedObserver):
    """A weighted functional of the boundary local-time integral of H alone."""


class TerminalObserver(WeightedObserver):
    """A weighted functional of the terminal value Phi alone."""


class ResidualObserver(PathObserver):
    """Pathwise residual of a candidate solution field over [0, t_end].

    For the driftless problem the exact solution satisfies, pathwise,

        u(X_t) - u(X_0) + int (q u + f(., u, grad u)) dr + star(g(., u, grad u))
            - int <grad u, n> dpush  =  int <grad u, dB>,

    with ``dpush = dL / 2`` the Skorokhod pushing increments.  On the
    boundary the flux equals its data, <grad u, n> = 2 <g, n> - h(., u), and
    the local-time work is accumulated in that substituted form (the shape
    the backward-equation representation uses).  This keeps the quadrature
    independent of the candidate's own normal gradient, whose accuracy for a
    P1 field degrades exactly where the local time lives; the remaining
    scheme bias is the field-independent O(sqrt(h_t)) overshoot effect.  The
    observer also accumulates the quadratic-variation predictor
    int |grad u|^2 dr and the explicit martingale sum for diagnostics.
    Each path keeps its triangle from step to step as the hint of the next
    point location.  ``q_at`` is evaluated once per step; an observer of the
    same run that takes it as its q shares that evaluation.
    """

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
        self._tri = self.u.mesh.find_triangles(x0)
        val, grad = self.u.value_grad_at(x0, self._tri)
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
        self._tri = self.u.mesh.find_triangles(ctx.x_new, self._tri)
        val, grad = self.u.value_grad_at(ctx.x_new, self._tri)
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
            self._lt[hit] += flux * ctx.push[hit]
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


# ---------------------------------------------------------------------------
# decay fitting and admissibility


def estimate_decay(times, values, power: int) -> DecayFit:
    """Fit C, theta in E[exp(power int_0^t q)] <= C exp(-theta t) by least squares.

    ``values`` are the mean weights at ``times``: a line is fitted through
    their logarithms.  A mean that is not positive gives theta = 0.
    """
    if np.any(values <= 0):
        return DecayFit(C=float("nan"), theta=0.0, power=power, times=times, values=values)
    slope, intercept = np.polyfit(times, np.log(values), 1)
    return DecayFit(
        C=float(np.exp(intercept)), theta=float(-slope), power=power,
        times=times, values=values,
    )


def _fit_steps(params: McParams) -> list:
    """The steps of the decay fit: max(1, round(n k / 8)) for k = 1..8, n steps in all."""
    n_steps = int(round(params.horizon / params.step))
    return sorted({max(1, int(round(n_steps * k / 8.0))) for k in range(1, 9)})


# ---------------------------------------------------------------------------
# Feynman-Kac estimators


def _boundary_max(domain: Domain, data) -> float:
    """max |data| over the boundary quadrature nodes, for the tail bounds."""
    nodes = np.stack([node for node, _ in boundary_quadrature(domain, 32)])
    return float(np.max(np.abs(np.asarray(data(nodes)))))


def _run_fk(domain: Domain, x0, obs: WeightedObserver, params: McParams, context) -> Estimate:
    """Run a Feynman-Kac observer from x0; the tail bound comes from its own decay fit.

    Raises :class:`AdmissibilityError`, after the run, when the fit shows no
    exponential decay; otherwise fills ``params.truncation_tail_bound``.
    """
    run_paths(domain, params.n_paths, params.horizon, params.step, params.seed, [obs], x0=x0)
    fit = obs.decay_fit(params.step)
    if not (fit.theta > 1e-6):
        raise AdmissibilityError(
            f"{context}: killing weight shows no exponential decay "
            f"(fitted theta={fit.theta:g}); the infinite-horizon integral "
            "cannot be truncated"
        )
    fmax = 0.0 if obs.F is None else float(
        np.max(np.abs(np.asarray(obs.F(interior_grid(domain, 32)))))
    )
    rate = domain.boundary_measure / domain.volume
    params.truncation_tail_bound = float(
        (fmax + abs(obs.c) * _boundary_max(domain, obs.H) * rate)
        * fit.tail_integral(params.horizon)
    )
    return obs.estimate()


def fk_pure_boundary(
    domain: Domain, x0, q, phi, params: McParams, c_bd: float = DEFAULT_C_BD
) -> Estimate:
    """Estimate u(x0) = E^{x0}[int_0^T w_t phi(X_t) c_bd dL_t], w = e^{int q}.

    The estimated value solves (1/2) lap u + q u = 0 with boundary data
    <grad u, n> + 2 c_bd phi = 0 (outward flux = 2 c_bd phi).  Raises
    :class:`AdmissibilityError`, after the run, when the decay fit of the
    run's own weight fails; fills ``params.truncation_tail_bound`` from that fit.
    """
    obs = BoundaryIntegralObserver(q, H=phi, c=c_bd, fit_steps=_fit_steps(params))
    return _run_fk(domain, x0, obs, params, "fk_pure_boundary")


def fk_linear_frozen(
    domain: Domain, x0, q, f_frozen, h_frozen, params: McParams, c_bd: float = DEFAULT_C_BD
) -> Estimate:
    """Estimate E^{x0}[int w F dt + c_bd int w H dL] for frozen data F, H.

    Agrees with the finite-element solution of
    (1/2) lap v + q v + F = 0, <grad v, n> + 2 c_bd H = 0 at x0.  Raises
    :class:`AdmissibilityError`, after the run, when the decay fit of the
    run's own weight fails; fills ``params.truncation_tail_bound`` from that fit.
    """
    obs = TimeIntegralObserver(q, F=f_frozen, H=h_frozen, c=c_bd, fit_steps=_fit_steps(params))
    return _run_fk(domain, x0, obs, params, "fk_linear_frozen")


def fk_frozen_with_divergence(
    domain: Domain, x0, q, f_frozen, h_frozen, G: FemFunction, params: McParams,
    c_bd: float = DEFAULT_C_BD,
) -> Estimate:
    """FK evaluation of the frozen problem including a divergence field g.

    The divergence term is removed by the Riesz lift G of g (solve_g_lifting):
    the shifted unknown v = u - 2G solves the g-free problem with data
    F + 2 q G + G and the same H, so u(x0) = fk(F + 2qG + G, H) + 2 G(x0).
    Raises :class:`AdmissibilityError` and fills the tail bound as
    :func:`fk_linear_frozen` does.
    """
    q = _StepMemo(q)  # the observer's q evaluation serves f_tilde too
    locate = PathLocator(G.mesh)

    def f_tilde(x):
        gv = G.value_at(x, locate(x))
        return np.asarray(f_frozen(x), dtype=float) + (2.0 * np.asarray(q(x)) + 1.0) * gv

    return _fk_lifted(domain, x0, q, f_tilde, h_frozen, G, params, c_bd)


def _fk_lifted(domain, x0, q, f_tilde, h_frozen, G, params, c_bd) -> Estimate:
    """fk_linear_frozen of the lifted data f_tilde = F + 2 q G + G, shifted by 2 G(x0)."""
    est = fk_linear_frozen(domain, x0, q, f_tilde, h_frozen, params, c_bd=c_bd)
    shift = 2.0 * float(G.value_at(np.asarray(x0, dtype=float)[None, :])[0])
    return Estimate(
        est.n_samples,
        est.total + est.n_samples * shift,
        est.total_sq + 2.0 * shift * est.total + est.n_samples * shift * shift,
    )


# ---------------------------------------------------------------------------
# boundary-constant calibration


@dataclass
class CalibrationResult:
    c_bd: float
    probes: np.ndarray
    fem_values: np.ndarray
    mc_raw_means: np.ndarray
    mc_raw_ses: np.ndarray

    def __str__(self) -> str:
        rows = [
            f"  probe ({p[0]:+.3f},{p[1]:+.3f})  fem {f:.5f}  raw-mc {m:.5f} +/- {s:.5f}"
            for p, f, m, s in zip(
                self.probes, self.fem_values, self.mc_raw_means, self.mc_raw_ses
            )
        ]
        return "\n".join([f"c_bd = {self.c_bd:.5f}"] + rows)


class _LinearData:
    """Adapter exposing frozen fields with the coefficient-set call signatures."""

    def __init__(self, q, F, H, dim=2):
        self.dim = dim
        self._q, self._F, self._H = q, F, H

    def q_at(self, x):
        return np.asarray(self._q(x), dtype=float)

    def f_at(self, x, y, z):
        return np.asarray(self._F(x), dtype=float)

    def h_at(self, x, y):
        return np.asarray(self._H(x), dtype=float)

    def b_at(self, x):
        return np.zeros_like(np.atleast_2d(x))


def fem_linear_solve(mesh: Mesh, q, F, H) -> FemFunction:
    """Finite-element solution of (1/2) lap v + q v + F = 0, <grad v, n> + H = 0."""
    return solve_semilinear_g_frozen(mesh, _LinearData(q, F, H), inner_tol=1e-11)


def calibrate_boundary_constant(
    domain: Domain,
    params: McParams,
    mesh_h: float = 0.05,
    probes=None,
) -> CalibrationResult:
    """One-time fit of the boundary constant on the calibration problem.

    Solves q = -1, F = 0, H = 1 on the disk with the finite-element backend
    (authoritative) and with raw Monte-Carlo boundary integrals (c = 1), then
    fits c_bd through the origin over the probe points.  The analytic value
    is 1/2; the fit also absorbs the scheme's O(sqrt(h_t)) local-time bias.
    """
    if probes is None:
        probes = np.array([[0.0, 0.0], [0.35, 0.0], [0.0, 0.55], [-0.75, 0.0], [0.5, 0.5]])
        probes = probes * domain.radius if domain.kind == "disk" else probes
    probes = np.asarray(probes, dtype=float)
    q = lambda x: -np.ones(len(x))  # noqa: E731
    one = lambda x: np.ones(len(x))  # noqa: E731
    zero = lambda x: np.zeros(len(x))  # noqa: E731
    mesh = build_mesh(domain, mesh_h)
    # FEM problem with h-data = 2 c_bd * phi at the analytic c_bd = 1/2
    v = fem_linear_solve(mesh, q, zero, one)
    fem_vals = v.value_at(probes)
    ests = [
        fk_pure_boundary(
            domain, p, q, one, _shifted(params, SEED_CALIBRATION_PROBES + i), c_bd=1.0
        )
        for i, p in enumerate(probes)
    ]
    means = np.array([est.mean for est in ests])
    ses = np.array([est.standard_error for est in ests])
    c = float(np.dot(fem_vals, means) / np.dot(means, means))
    return CalibrationResult(
        c_bd=c, probes=probes, fem_values=fem_vals, mc_raw_means=means, mc_raw_ses=ses
    )


# ---------------------------------------------------------------------------
# integrability conditions for the killing weight


@dataclass
class ConditionEstimate:
    name: str
    estimate: Estimate
    tail_bound: float
    divergent: bool
    detail: str = ""


@dataclass
class ConditionsCReport:
    boundary_weight: ConditionEstimate        # E^{x0}[int e^{int q} dL]
    boundary_weight_sq: ConditionEstimate     # E^{x1}[int e^{2 int q} dL]
    q_square_sup: ConditionEstimate           # grid sup of E^x[int e^{2 int q} |q|^2 dt]
    grid_values: list = field(default_factory=list)

    @property
    def all_clear(self) -> bool:
        return not (
            self.boundary_weight.divergent
            or self.boundary_weight_sq.divergent
            or self.q_square_sup.divergent
        )

    def __str__(self) -> str:
        rows = []
        for c in (self.boundary_weight, self.boundary_weight_sq, self.q_square_sup):
            flag = "DIVERGENT" if c.divergent else "ok"
            rows.append(
                f"{c.name:22s} {c.estimate.mean:12.5f} +/- {c.estimate.standard_error:.5f}"
                f"  tail<= {c.tail_bound:.2e}  {flag} {c.detail}"
            )
        return "\n".join(rows)


def _doubling_flag(half: Estimate, full: Estimate) -> tuple:
    """Divergence heuristic: the [T/2, T] window must stop growing.

    Flags when the window increment exceeds 10 percent of the half-horizon
    value (plus 3 pooled SEs), i.e. when the running integral keeps growing
    at a near-linear rate instead of saturating.
    """
    inc = full.mean - half.mean
    se = math.hypot(full.standard_error, half.standard_error)
    thresh = 0.10 * abs(half.mean) + 3.0 * se + 1e-12
    return inc > thresh, f"window increment {inc:+.3e} (threshold {thresh:.3e})"


def check_conditions_C(
    domain: Domain,
    q,
    params: McParams,
    x0=None,
    x1=None,
    grid_n: int = 16,
    c_bd: float = DEFAULT_C_BD,
) -> ConditionsCReport:
    """Monte-Carlo probes of the three integrability conditions on q.

    Estimates E^{x0}[int e^{int q} c_bd dL], E^{x1}[int e^{2 int q} c_bd dL],
    and the grid maximum over ``grid_n`` interior starts of
    E^x[int e^{2 int q} |q|^2 dt].  The boundary integrals carry the same
    calibrated constant as the Feynman-Kac estimators, so the first probe
    coincides with ``fk_pure_boundary`` at constant data.  Divergence flags
    come from a truncation-doubling test on each running integral; divergence
    is report content, not an exception.
    """
    x0 = np.zeros(domain.dim) if x0 is None else np.asarray(x0, dtype=float)
    x1 = x0 if x1 is None else np.asarray(x1, dtype=float)
    n_steps = int(round(params.horizon / params.step))
    half = max(1, n_steps // 2)
    one = lambda x: np.ones(len(x))  # noqa: E731

    rate = domain.boundary_measure / domain.volume

    def _bnd(start, power, seed_shift):
        """The boundary probe and the decay fit of its own weight."""
        obs = BoundaryIntegralObserver(q, H=one, power=power, c=c_bd, marks=[half],
                                       fit_steps=_fit_steps(params))
        run_paths(
            domain, params.n_paths, params.horizon, params.step,
            params.seed + seed_shift, [obs], x0=start,
        )
        est, fit = obs.estimate(), obs.decay_fit(params.step)
        flag, detail = _doubling_flag(obs.estimate(half), est)
        return est, flag, detail, abs(c_bd) * rate * fit.tail_integral(params.horizon), fit

    est1, flag1, det1, tail1, _ = _bnd(x0, 1, 0)
    est2, flag2, det2, tail2, fit2 = _bnd(x1, 2, SEED_SECOND_BOUNDARY_PROBE)

    def q_sq(x):
        v = np.asarray(q(x), dtype=float)
        return v * v

    grid = np.vstack([x0[None, :], interior_grid(domain, max(1, grid_n - 1))])
    grid_vals = []
    worst = None
    qmax2 = float(np.max(q_sq(interior_grid(domain, 64))))
    for i, g0 in enumerate(grid):
        obs = TimeIntegralObserver(q, F=q_sq, power=2, marks=[half])
        run_paths(
            domain, params.n_paths, params.horizon, params.step,
            params.seed + SEED_CONDITIONS_GRID + i, [obs], x0=g0,
        )
        est = obs.estimate()
        flag, detail = _doubling_flag(obs.estimate(half), est)
        grid_vals.append((g0, est, flag))
        if worst is None or est.mean > worst[1].mean:
            worst = (g0, est, flag, detail)
    tail3 = qmax2 * fit2.tail_integral(params.horizon)
    c3 = ConditionEstimate(
        "sup_x E[int w^2 q^2 dt]", worst[1], tail3,
        worst[2] or any(fl for _, _, fl in grid_vals),
        f"grid max over {len(grid)} starts at ({worst[0][0]:+.2f},{worst[0][1]:+.2f})"
        if domain.dim == 2 else f"grid max over {len(grid)} starts",
    )
    return ConditionsCReport(
        boundary_weight=ConditionEstimate("E[int w dL]", est1, tail1, flag1, det1),
        boundary_weight_sq=ConditionEstimate("E[int w^2 dL]", est2, tail2, flag2, det2),
        q_square_sup=c3,
        grid_values=grid_vals,
    )


# ---------------------------------------------------------------------------
# martingale-residual test


@dataclass
class ResidualReport:
    """Outcome of the pathwise residual test for a candidate solution field."""

    n_paths: int
    t_res: float
    mean_residual: float
    se_residual: float
    var_residual: float
    se_var_residual: float
    predicted_variance: float
    se_predicted: float
    terminal: list                      # [(T, mean, se), (2T, mean, se)]
    pass_mean: bool
    pass_variance: bool
    pass_terminal: bool

    @property
    def passed(self) -> bool:
        return self.pass_mean and self.pass_variance and self.pass_terminal

    def __str__(self) -> str:
        t1, t2 = self.terminal
        return "\n".join(
            [
                f"residual mean      {self.mean_residual:+.5f} +/- {self.se_residual:.5f}"
                f"   [{'pass' if self.pass_mean else 'FAIL'}]",
                f"residual variance  {self.var_residual:.5f} vs predicted "
                f"{self.predicted_variance:.5f} +/- "
                f"{math.hypot(self.se_var_residual, self.se_predicted):.5f}"
                f"   [{'pass' if self.pass_variance else 'FAIL'}]",
                f"terminal decay     {t1[1]:.3e}@T={t1[0]:g} -> {t2[1]:.3e}@T={t2[0]:g}"
                f"   [{'pass' if self.pass_terminal else 'FAIL'}]",
            ]
        )


def martingale_residual_test(
    domain: Domain,
    u: FemFunction,
    coeffs,
    consts,
    params: McParams,
    t_res: float | None = None,
) -> ResidualReport:
    """Check a candidate solution along reflecting paths (driftless problems).

    (a) the mean pathwise residual must vanish within 3 SE; (b) the residual
    variance must match the quadratic-variation predictor int |grad u|^2 dr
    within 3 pooled SEs; (c) the weighted terminal value
    E[e^{2 int q + lam t + mu L} u(X_t)^2] must decay when the horizon doubles.
    Failures are report flags, not exceptions.
    """
    if not coeffs.b_is_zero:
        raise ValueError("the stochastic backend requires b = 0")
    t_res = 0.5 * params.horizon if t_res is None else t_res
    n_res = max(1, int(round(t_res / params.step)))
    n_total = 2 * n_res
    horizon = n_total * params.step

    res_obs = ResidualObserver(u, coeffs, n_res)
    u_sq = lambda x: u.value_at(x) ** 2  # noqa: E731
    term_obs = TerminalObserver(  # shares res_obs's q evaluation on [0, t_res]
        res_obs.q_at, Phi=u_sq, lam=consts.lam, mu=consts.mu, power=2, marks=[n_res]
    )
    run_paths(
        domain,
        params.n_paths,
        T=horizon,
        h_t=params.step,
        seed=params.seed,
        observers=[res_obs, term_obs],
        x0=None,
    )
    res = np.concatenate(res_obs.res_samples)
    qv = np.concatenate(res_obs.qv_samples)
    n = len(res)
    e_res = Estimate.from_samples(res)
    e_qv = Estimate.from_samples(qv)
    var_r = e_res.variance
    se_var = var_r * math.sqrt(2.0 / max(1, n - 1))
    t1 = term_obs.estimate(n_res)
    t2 = term_obs.estimate()

    pass_mean = abs(e_res.mean) <= 3.0 * e_res.standard_error + 1e-12
    pass_var = abs(var_r - e_qv.mean) <= 3.0 * math.hypot(se_var, e_qv.standard_error)
    dec_tol = 3.0 * math.hypot(t1.standard_error, t2.standard_error)
    pass_term = t2.mean <= 0.75 * t1.mean + dec_tol + 1e-12
    return ResidualReport(
        n_paths=params.n_paths,
        t_res=n_res * params.step,
        mean_residual=e_res.mean,
        se_residual=e_res.standard_error,
        var_residual=var_r,
        se_var_residual=se_var,
        predicted_variance=e_qv.mean,
        se_predicted=e_qv.standard_error,
        terminal=[
            (n_res * params.step, t1.mean, t1.standard_error),
            (n_total * params.step, t2.mean, t2.standard_error),
        ],
        pass_mean=pass_mean,
        pass_variance=pass_var,
        pass_terminal=pass_term,
    )


# ---------------------------------------------------------------------------
# probe comparison of a solved field against FK evaluation


@dataclass
class ProbeComparison:
    probes: np.ndarray
    fem_values: np.ndarray
    mc_means: np.ndarray
    mc_ses: np.ndarray
    allowance: float

    @property
    def max_gap(self) -> float:
        return float(np.max(np.abs(self.fem_values - self.mc_means)))

    @property
    def passed(self) -> bool:
        gaps = np.abs(self.fem_values - self.mc_means)
        return bool(np.all(gaps <= 3.0 * self.mc_ses + self.allowance))

    def __str__(self) -> str:
        rows = [
            f"  ({p[0]:+.3f},{p[1]:+.3f})  fem {f:.5f}  mc {m:.5f} +/- {s:.5f}"
            f"  gap {abs(f - m):.5f}"
            for p, f, m, s in zip(self.probes, self.fem_values, self.mc_means, self.mc_ses)
        ]
        status = "pass" if self.passed else "FAIL"
        return "\n".join([f"probe comparison [{status}], allowance {self.allowance:g}"] + rows)


def compare_frozen_at_probes(
    domain: Domain,
    u: FemFunction,
    coeffs,
    params: McParams,
    probes=None,
    c_bd: float = DEFAULT_C_BD,
    allowance: float = 0.02,
) -> ProbeComparison:
    """FK-evaluate the problem frozen at the candidate field and compare.

    Freezes F(x) = f(x, u, grad u), H(x) = h(x, u), g(x) = g(x, u, grad u) at
    the candidate solution and evaluates the resulting linear problem
    stochastically at the probe points.
    """
    if probes is None:
        probes = interior_grid(domain, 5)
    probes = np.asarray(probes, dtype=float)

    G = solve_g_lifting(u.mesh, WeakForm(u.mesh, coeffs).divergence(u.values))
    q = _StepMemo(coeffs.q_at)  # the observer's q evaluation serves f_tilde too
    locate = PathLocator(u.mesh)

    def f_tilde(x):
        """F + 2 q G + G of fk_frozen_with_divergence, with u and G from one location."""
        tri = locate(x)
        val, grad = u.value_grad_at(x, tri)
        f = coeffs.f_at(np.atleast_2d(x), val, grad)
        gv = G.value_at(x, tri)
        return np.asarray(f, dtype=float) + (2.0 * np.asarray(q(x)) + 1.0) * gv

    def H(x):
        val = u.value_at(x)
        return coeffs.h_at(np.atleast_2d(x), val)

    fem_vals = u.value_at(probes)
    ests = [
        _fk_lifted(domain, p, q, f_tilde, H, G, _shifted(params, SEED_PROBE_STRIDE * i), c_bd)
        for i, p in enumerate(probes)
    ]
    return ProbeComparison(
        probes=probes,
        fem_values=np.asarray(fem_vals),
        mc_means=np.array([est.mean for est in ests]),
        mc_ses=np.array([est.standard_error for est in ests]),
        allowance=allowance,
    )
