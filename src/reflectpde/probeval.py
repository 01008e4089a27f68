"""Stochastic evaluation and verification against the deterministic backend.

Implements point evaluation of linear problems by weighted path functionals
(Feynman-Kac with a boundary local-time term), integrability probes for the
killing weight exp(int q), and the martingale-residual test that checks a
candidate solution field along simulated reflecting paths.

Boundary-constant convention.  All boundary integrals carry a constant
``c_bd`` multiplying the reported local-time increments.  With the
sigma-normalized local time of :mod:`reflectpde.reflectsim` the analytic
value is 1/2: the estimator

    u(x0) ~= E^{x0}[ int_0^T w_t F(X_t) dt + c_bd int_0^T w_t (H - 2 <g, n>)(X_t) dL_t
                     - int_0^T w_t <d g(X_t), dB_t> ],   w_t = exp(int_0^t q(X_s) ds),

with the star integral of g last, solves (1/2) lap u + q u - div g + F = 0
with the inward-flux condition <grad u, n> + 2 c_bd (H - 2 <g, n>) = 0, at
c_bd = 1/2 the problem's <grad u - 2 g, n> + H = 0.  Every estimator uses that
value, ``DEFAULT_C_BD``; only ``fk_linear_frozen`` takes another.
``calibrate_boundary_constant`` fits c_bd against the finite-element solve of
the fixed calibration problem (q = -1, F = 0, H = 1 on the disk); the fit
absorbs the O(sqrt(h_t)) local-time bias as well, but only a caller that
passes it on uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffexpr import CoefficientSet
from .geometry import Domain, boundary_points, interior_grid
from .mesh_fem import FemFunction, build_mesh, solve_semilinear_g_frozen
from .reflectsim import Estimate, PathObserver, run_paths

DEFAULT_C_BD = 0.5


class AdmissibilityError(RuntimeError):
    """The empirical decay of the killing weight is too weak for truncation."""


# ---------------------------------------------------------------------------
# parameters and small containers


@dataclass
class McParams:
    """Monte-Carlo run parameters.

    ``truncation_tail_bound`` is filled by ``fk_linear_frozen`` with the empirical
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

    @property
    def decays(self) -> bool:
        """The one test of whether the weight decays; a nan theta does not."""
        return self.theta > 1e-6

    def tail_integral(self, T: float) -> float:
        """Bound on int_T^inf C e^{-theta t} dt (inf when the fit does not decay)."""
        if not self.decays:
            return float("inf")
        return self.C * math.exp(-self.theta * T) / self.theta


# ---------------------------------------------------------------------------
# seed streams
#
# Every probe of an estimator draws from its caller's base seed plus an offset,
# so that the probes of one call use disjoint streams.  The values are part of
# the reproducibility contract: changing one changes every estimate built on it.

SEED_CALIBRATION_PROBES = 0      # calibrate_boundary_constant: + i for probe i
SEED_SECOND_BOUNDARY_PROBE = 1   # check_conditions_C: the E[int w^2 dL] probe
SEED_CONDITIONS_GRID = 100       # check_conditions_C: + i for grid start i
SEED_PROBE_STRIDE = 7            # compare_frozen_at_probes: + 7 i for probe i


# ---------------------------------------------------------------------------
# the weighted path functional (engine hook)
#
# One observer computes the functional of its docstring along every path.  The
# exponent is advanced once per step whatever terms are on; the time, star and
# boundary terms accumulate every step and the terminal term is evaluated only
# where it is read: at the stops and at the horizon.


def _phi1(a: np.ndarray) -> np.ndarray:
    """(e^a - 1)/a, stable near zero; exact in-step growth factor."""
    small = np.abs(a) < 1e-8
    out = np.divide(np.expm1(a), a, out=np.empty_like(a), where=~small)
    out[small] = 1.0 + 0.5 * a[small]
    return out


class _StepMemo:
    """``fn`` evaluated once per step block.

    The engine hands every observer of a block the same ``x_prev`` array, a
    view it makes afresh for each block, so functions of it called by several
    observers, or by an observer and its data, share one evaluation.  The
    view is held while its value is, so its identity is not reused for
    another block's points although the engine reuses the memory under it.
    """

    def __init__(self, fn):
        self.fn, self._x, self._v = fn, None, None

    def __call__(self, x):
        if x is not self._x:
            self._x, self._v = x, np.asarray(self.fn(x), dtype=float)
        return self._v


def _rows(first, rest, m: int):
    """Values at a block's step starts: ``first``, then ``rest`` less its last m rows."""
    return np.concatenate([first, rest[:-m]])


def _divergence_terms(g_prev, g_cur, dB, hit, normal):
    """Per step -<g_{j+1} - g_j, dB_j>, and -2 <g_{j+1}, n_j> at the flat indices ``hit``."""
    star = -np.einsum("pd,pd->p", g_cur - g_prev, dB)
    return star, -2.0 * np.einsum("pd,pd->p", g_cur[hit], normal)


class WeightedObserver(PathObserver):
    """Samples of the weighted path functional and its weight, at stops and the horizon.

    Per path, with E_j = lam t_j + mu L_j + power int_0^{t_j} q, a_j the
    step's (lam + power q_j) h and g_j = g(X_j), the value is

        sum_j e^{E_j} F_j h phi1(a_j) + c sum_hits e^{E_j} (H_{j+1} - 2 <g_{j+1}, n_j>) dL_j
            - sum_j e^{E_j} <g_{j+1} - g_j, dB_j> + e^{E} Phi(X),

    each term on when its data is passed.  The time term is the exponential
    in-step rule, exact for frozen q: constant-q integrands reproduce their
    closed forms to rounding error.  g enters as :class:`ResidualObserver`'s
    star and flux terms weighted at the left node, the backward (star)
    integral by which the paper gives div g its weak meaning (Lyons & Zheng,
    Asterisque 157-158, 1988).  H and g at a hit are read at the projection
    foot.  The terms are added up only when a value is recorded, beside the
    weight e^{E}: at each of ``stops`` and at the horizon (step None), for
    ``samples(step)`` and ``estimate(step)``.  Without a ``field`` the data
    are F(x), H(x) and g(x).  With a ``field`` u, a :class:`FemFunction`, they
    are the coefficient set's functions of (u, grad u), as the paper's BSDE
    reads the candidate: F(x, u, grad u) at the step starts, g(x, u, grad u)
    at the step ends and H(x, u) at the hits.  Each block's new points are
    evaluated once, by ``field.value_grad_at``, and a step's start takes the
    values of the step before.  Phi is always Phi(x).  q, F, H and g are
    evaluated once per block; the sums run in the order of a
    one-step-at-a-time loop, so the samples do not depend on the block length.
    """

    def __init__(self, q, F=None, H=None, Phi=None, c=1.0, lam=0.0, mu=0.0, power=1,
                 stops=(), field=None, g=None):
        self.q, self.F, self.H, self.Phi, self.g, self.c = q, F, H, Phi, g, c
        self.lam, self.mu, self.power, self.field = lam, mu, power, field
        self.stops = sorted(set(stops))
        self._records: dict = {step: [] for step in (*self.stops, None)}  # (values, weights)

    def start_chunk(self, indices, x0):
        n = len(indices)
        self._expo = np.zeros(n)
        self._time = None if self.F is None and self.g is None else np.zeros(n)
        self._bnd = None if self.H is None and self.g is None else np.zeros(n)
        self._u = () if self.field is None else self.field.value_grad_at(x0)
        if self.g is not None:
            self._g = np.array(self.g(x0, *self._u), float)

    def step(self, blk):
        k, m = blk.dl.shape
        q = np.asarray(self.q(blk.x_prev), dtype=float).reshape(k, m)
        a = (self.lam + self.power * q) * blk.h
        u_prev = u_new = ()  # (u, grad u) at the step starts and ends, with a field
        if self.field is not None:
            u_new = self.field.value_grad_at(blk.x_new)
            u_prev = tuple(_rows(first, v, m) for first, v in zip(self._u, u_new))
            self._u = tuple(v[-m:] for v in u_new)
        # expo[s]: the exponent before step j + s, advanced as expo += a + mu dl
        expo = np.empty((k + 1, m))
        expo[0] = self._expo
        expo[1:] = a + self.mu * blk.dl
        for s in range(k):  # row by row: np.add.accumulate over axis 0 is slower
            expo[s + 1] += expo[s]
        if self._bnd is not None:
            flat = np.flatnonzero(blk.hit)  # step-major, as the loop met them
            rows, cols = flat // m, flat % m
        if self.g is not None:
            gv = np.asarray(self.g(blk.x_new, *u_new), dtype=float)
            star, flux = _divergence_terms(_rows(self._g, gv, m), gv, blk.dB.reshape(k * m, -1),
                                           flat, blk.normal[rows, cols])
            self._g = gv[-m:].copy()  # g may return its argument, an engine view
        if self._time is not None:
            w, time = np.exp(expo[:-1]), 0.0
            if self.F is not None:
                fv = np.asarray(self.F(blk.x_prev, *u_prev), dtype=float).reshape(k, m)
                time = fv * w * blk.h * _phi1(a)
            if self.g is not None:
                time = time + w * star.reshape(k, m)
        if self._bnd is not None:
            bnd = np.zeros(0)
            if flat.size:
                u_hit = (u_new[0][flat],) if u_new else ()  # H reads u, not grad u
                hv = 0.0 if self.H is None else np.asarray(self.H(blk.x_new[flat], *u_hit), float)
                if self.g is not None:
                    hv = hv + flux
                bnd = np.exp(expo[rows, cols]) * hv * self.c * blk.dl[rows, cols]
        # the sums up to each stop, then to the block's end
        stops = [s for s in range(1, k) if blk.j + s in self._records]
        lo = 0
        for s0, s1 in zip([0] + stops, stops + [k]):
            if self._time is not None:
                for row in time[s0:s1]:
                    self._time += row
            if self._bnd is not None:
                hi = np.searchsorted(rows, s1)
                np.add.at(self._bnd, cols[lo:hi], bnd[lo:hi])
                lo = hi
            self._expo = expo[s1]
            if blk.j + s1 in self._records:
                self._record(blk.j + s1, blk.x[s1])

    def end_chunk(self, x_final):
        self._record(None, x_final)

    def _record(self, step, x):
        weight = np.exp(self._expo)
        parts = [acc for acc in (self._time, self._bnd) if acc is not None]
        if self.Phi is not None:
            parts.append(weight * np.asarray(self.Phi(x), dtype=float))
        self._records[step].append((sum(parts[1:], parts[0].copy()), weight))

    def samples(self, step=None) -> tuple:
        """(values, weights) of the paths at ``step``, in path order."""
        return tuple(np.concatenate(a) for a in zip(*self._records[step]))

    def estimate(self, step=None) -> Estimate:
        return Estimate.from_samples(self.samples(step)[0])


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
    Each block's new points are located once.  ``q_at`` is evaluated once per
    block, on all of a block that ``n_end`` cuts short too; an observer of the
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
        self._g_zero = coeffs.g_is_zero

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

    def step(self, blk):
        k = min(len(blk.dl), self.n_end - blk.j)  # the block's steps before n_end
        if k <= 0:
            return
        m = blk.dl.shape[1]
        n = k * m
        x_prev, x_new = blk.x_prev[:n], blk.x_new[:n]
        dB = blk.dB[:k].reshape(n, -1)
        val, grad = self.u.value_grad_at(x_new)
        u_prev, g_prev = _rows(self._uprev, val, m), _rows(self._gprev, grad, m)
        q_prev = self.q_at(blk.x_prev)[:n]
        f_prev = np.asarray(self.coeffs.f_at(x_prev, u_prev, g_prev), dtype=float)
        hit = np.flatnonzero(blk.hit[:k])
        rows, cols = hit // m, hit % m
        sums = [(self._drift, (q_prev * u_prev + f_prev) * blk.h)]
        if not self._g_zero:
            g_cur = self.coeffs.g_at(x_new, val, grad)
            star, gflux = _divergence_terms(_rows(self._gpath_prev, g_cur, m), g_cur, dB,
                                            hit, blk.normal[rows, cols])
            sums.append((self._star, star))
            self._gpath_prev = g_cur[-m:]
        sums.append((self._mg, np.einsum("pd,pd->p", g_prev, dB)))
        sums.append((self._qv, np.einsum("pd,pd->p", g_prev, g_prev) * blk.h))
        for acc, terms in sums:
            for row in terms.reshape(k, m):
                acc += row
        if hit.size:
            flux = -np.asarray(self.coeffs.h_at(x_new[hit], val[hit]), dtype=float)
            if not self._g_zero:
                flux = flux - gflux  # -(h - 2 <g, n>)
            np.add.at(self._lt, cols, flux * (0.5 * blk.dl[rows, cols]))
        self._uprev = val[-m:]
        self._gprev = grad[-m:]
        if blk.j + k == self.n_end:
            self._uend = self._uprev.copy()

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
    their logarithms.  A mean that is not positive, or fewer than two distinct
    times (a horizon of one step), gives theta = 0: no decay is shown.
    """
    if np.unique(times).size < 2 or np.any(values <= 0):
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


def _run_probes(domain: Domain, x0, seed, obs: WeightedObserver, params: McParams,
                must_decay: bool = False) -> tuple:
    """Run ``obs`` once over probes: their estimates, and the decay fits of their weights.

    ``seed`` and ``x0`` give the probes as :func:`run_paths` takes them, each
    with ``params.n_paths`` paths; a probe's samples and weights are its
    contiguous block of the run's.  An observer without stops gives no fits;
    a fit reads the stops the run reached, and below two (a horizon of one
    step or none) it shows no decay.  With
    ``must_decay``, raises :class:`AdmissibilityError` after the run for the
    first probe whose fit shows no exponential decay.
    """
    n_probes = len(seed) if isinstance(seed, list) else 1
    n_steps = run_paths(domain, n_probes * params.n_paths, params.horizon, params.step, seed,
                        [obs], x0=x0)
    steps = [s for s in obs.stops if s <= n_steps]
    weights = [np.split(obs.samples(s)[1], n_probes) for s in steps]
    times = np.array(steps) * params.step
    fits = [estimate_decay(times, np.array([w[g].mean() for w in weights]), obs.power)
            for g in range(n_probes)] if obs.stops else []
    for fit in fits:
        if must_decay and not fit.decays:
            raise AdmissibilityError(
                "fk_linear_frozen: killing weight shows no exponential decay "
                f"(fitted theta={fit.theta:g}); the infinite-horizon integral "
                "cannot be truncated"
            )
    samples = np.split(obs.samples()[0], n_probes)
    return [Estimate.from_samples(v) for v in samples], fits


def fk_linear_frozen(
    domain: Domain, x0, q, f_frozen, h_frozen, params: McParams, c_bd: float = DEFAULT_C_BD
) -> Estimate:
    """Estimate E^{x0}[int w F dt + c_bd int w H dL] for frozen data F, H.

    Agrees with the finite-element solution of
    (1/2) lap v + q v + F = 0, <grad v, n> + 2 c_bd H = 0 at x0.  F = None
    leaves out the time integral: the pure boundary functional.  Raises
    :class:`AdmissibilityError`, after the run, when the decay fit of the
    run's own weight fails; otherwise fills ``params.truncation_tail_bound``
    with (sup|F| + |c_bd| sup|H| rate) times the fit's tail integral past the
    horizon.
    """
    kind = BoundaryIntegralObserver if f_frozen is None else TimeIntegralObserver
    obs = kind(q, F=f_frozen, H=h_frozen, c=c_bd, stops=_fit_steps(params))
    # both sups before the run: a domain with no boundary points fails before any path
    fmax = 0.0 if f_frozen is None else float(
        np.max(np.abs(np.asarray(f_frozen(interior_grid(domain, 32)))))
    )
    hmax = float(np.max(np.abs(np.asarray(h_frozen(boundary_points(domain, 32))))))
    [est], [fit] = _run_probes(domain, x0, params.seed, obs, params, must_decay=True)
    rate = domain.boundary_measure / domain.volume
    params.truncation_tail_bound = float(
        (fmax + abs(c_bd) * hmax * rate) * fit.tail_integral(params.horizon)
    )
    return est


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


def calibrate_boundary_constant(
    domain: Domain,
    params: McParams,
    mesh_h: float = 0.05,
    probes=None,
) -> CalibrationResult:
    """One-time fit of the boundary constant on the calibration problem.

    Solves q = -1, F = 0, H = 1 on the 2-d domain with the finite-element
    backend (authoritative) and with raw Monte-Carlo boundary integrals (c =
    1) at probes scaled by the semi-axes, then fits c_bd through the origin.
    The analytic value is 1/2; the fit also absorbs the scheme's O(sqrt(h_t))
    local-time bias.
    """
    if probes is None:
        probes = np.array([[0.0, 0.0], [0.35, 0.0], [0.0, 0.55], [-0.75, 0.0], [0.5, 0.5]])
        probes = probes * np.array(domain.semi_axes)
    probes = np.asarray(probes, dtype=float)
    q = lambda x: -np.ones(len(x))  # noqa: E731
    one = lambda x: np.ones(len(x))  # noqa: E731
    # FEM problem with h-data = 2 c_bd * phi at the analytic c_bd = 1/2
    calibration = CoefficientSet.from_strings(2, f="0", g=["0", "0"], h="1", q="-1")
    v = solve_semilinear_g_frozen(build_mesh(domain, mesh_h), calibration, inner_tol=1e-11)
    fem_vals = v.value_at(probes)
    obs = BoundaryIntegralObserver(q, H=one, c=1.0, stops=_fit_steps(params))
    seeds = [params.seed + SEED_CALIBRATION_PROBES + i for i in range(len(probes))]
    ests, _ = _run_probes(domain, probes, seeds, obs, params, must_decay=True)
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
    boundary_weight_sq: ConditionEstimate     # E^{x0}[int e^{2 int q} dL]
    q_square_sup: ConditionEstimate           # grid sup of E^x[int e^{2 int q} |q|^2 dt]

    @property
    def conditions(self) -> tuple:
        return self.boundary_weight, self.boundary_weight_sq, self.q_square_sup

    @property
    def all_clear(self) -> bool:
        return not any(c.divergent for c in self.conditions)

    def __str__(self) -> str:
        rows = []
        for c in self.conditions:
            flag = ("DIVERGENT" if c.divergent
                    else "TAIL>EST" if c.tail_bound > c.estimate.mean else "ok")
            rows.append(
                f"{c.name:22s} {c.estimate.mean:12.5f} +/- {c.estimate.standard_error:.5f}"
                f"  tail<= {c.tail_bound:.2e}  {flag} {c.detail}"
            )
        return "\n".join(rows)


def _fit_detail(fit: DecayFit) -> str:
    """The decay fit that decided a condition."""
    return f"fit C={fit.C:.4g} theta={fit.theta:.4g} (power {fit.power})"


def check_conditions_C(
    domain: Domain, coeffs: CoefficientSet, params: McParams, grid_n: int = 16
) -> ConditionsCReport:
    """Monte-Carlo probes of the three integrability conditions on ``coeffs.q``.

    Estimates E^0[int e^{int q} c dL] and E^0[int e^{2 int q} c dL] from the
    origin, with c = ``DEFAULT_C_BD`` (the first is ``fk_linear_frozen`` with
    F = None and H = 1), and the maximum over ``grid_n`` starts (the origin
    and ``interior_grid``) of E^x[int e^{2 int q} |q|^2 dt].  A condition is
    flagged divergent when the decay fit of its weight does not decay
    (``DecayFit.decays``, the rule that makes the estimators raise):
    condition 1 by the power-1 fit, conditions 2 and 3 by the power-2 fit,
    since the decay rate of E^x[e^{p int q}] is the same from every start.
    Condition 3 is neither flagged nor given a tail when q is zero by its form
    (``Expr.is_zero``, conservative: ``x1 - x1`` is not known to be zero).
    Divergence is report content, not an exception.  Raises ValueError when
    ``grid_n`` is below 1.
    """
    if grid_n < 1:
        raise ValueError(f"grid_n must be at least 1, got {grid_n}")
    q = coeffs.q_at
    x0 = np.zeros(domain.dim)
    one = lambda x: np.ones(len(x))  # noqa: E731
    rate = domain.boundary_measure / domain.volume

    def _condition(name, power, seed_shift):
        """A boundary probe, flagged by the decay fit of its own weight."""
        obs = BoundaryIntegralObserver(q, H=one, power=power, c=DEFAULT_C_BD,
                                       stops=_fit_steps(params))
        [est], [fit] = _run_probes(domain, x0, params.seed + seed_shift, obs, params)
        tail = DEFAULT_C_BD * rate * fit.tail_integral(params.horizon)  # sup|H| = 1
        return ConditionEstimate(name, est, tail, not fit.decays, _fit_detail(fit)), fit

    c1, _ = _condition("E[int w dL]", 1, 0)
    c2, fit2 = _condition("E[int w^2 dL]", 2, SEED_SECOND_BOUNDARY_PROBE)

    def q_sq(x):
        v = np.asarray(q(x), dtype=float)
        return v * v

    grid = np.vstack([x0[None, :], interior_grid(domain, grid_n - 1)])
    seeds = [params.seed + SEED_CONDITIONS_GRID + i for i in range(grid_n)]
    obs = TimeIntegralObserver(q, F=q_sq, power=2)
    ests, _ = _run_probes(domain, grid, seeds, obs, params)
    worst = max(range(grid_n), key=lambda i: ests[i].mean)  # the first of equal maxima
    at = f" at ({grid[worst][0]:+.2f},{grid[worst][1]:+.2f})" if domain.dim == 2 else ""
    q_zero = coeffs.q.is_zero()  # the integrand vanishes, whatever the weight does
    tail = 0.0 if q_zero else fit2.tail_integral(params.horizon)  # inf without decay
    if fit2.decays and not q_zero:  # the grid max of q^2 stands in for its sup
        tail *= float(np.max(q_sq(interior_grid(domain, 64))))
    c3 = ConditionEstimate(
        "sup_x E[int w^2 q^2 dt]", ests[worst], tail, not (q_zero or fit2.decays),
        f"grid max over {len(grid)} starts{at}; " + ("q = 0" if q_zero else _fit_detail(fit2)),
    )
    return ConditionsCReport(boundary_weight=c1, boundary_weight_sq=c2, q_square_sup=c3)


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
        res_obs.q_at, Phi=u_sq, lam=consts.lam, mu=consts.mu, power=2, stops=[n_res]
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
    def verdicts(self) -> np.ndarray:
        """Per probe: the gap lies within three SEs plus the allowance."""
        return np.abs(self.fem_values - self.mc_means) <= 3.0 * self.mc_ses + self.allowance

    @property
    def passed(self) -> bool:
        return bool(np.all(self.verdicts))

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
    allowance: float = 0.02,
) -> ProbeComparison:
    """FK-evaluate the problem frozen at the candidate field and compare.

    Freezes F(x) = f(x, u, grad u), H(x) = h(x, u), g(x) = g(x, u, grad u) at
    the candidate solution and evaluates the resulting linear problem
    stochastically at the probe points, by the weighted functional of
    :class:`WeightedObserver` with c = ``DEFAULT_C_BD``: its time integral of
    F, its boundary term in H - 2 <g, n>, and its star integral of g, which
    is left out when g is zero by its form (``Expr.is_zero``).  So the check
    reads nothing of the finite-element assembly of the term it checks.  The
    observer takes u as its field: it evaluates u and grad u once at each
    path-step point, and f, h and g read those values.  All probes share one
    run, probe i on the seed shifted by ``SEED_PROBE_STRIDE * i``.
    """
    if probes is None:
        probes = interior_grid(domain, 5)
    probes = np.asarray(probes, dtype=float)

    obs = TimeIntegralObserver(coeffs.q_at, F=coeffs.f_at, H=coeffs.h_at,
                               g=None if coeffs.g_is_zero else coeffs.g_at, c=DEFAULT_C_BD,
                               stops=_fit_steps(params), field=u)
    seeds = [params.seed + SEED_PROBE_STRIDE * i for i in range(len(probes))]
    ests, _ = _run_probes(domain, probes, seeds, obs, params, must_decay=True)
    return ProbeComparison(
        probes=probes,
        fem_values=np.asarray(u.value_at(probes)),
        mc_means=np.array([est.mean for est in ests]),
        mc_ses=np.array([est.standard_error for est in ests]),
        allowance=allowance,
    )
