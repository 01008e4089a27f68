"""Outer Picard iteration: freeze the divergence field, solve, repeat.

Starting from u^0 = 0, step n solves the linearized problem in which
g(., u, grad u) is frozen at the previous iterate while f and h stay implicit
(resolved inside the inner fixed point of the element backend).  The H^1
increments are recorded together with their squared ratios, which the theory
bounds by the contraction factor gamma < 1 whenever the structure constants
are admissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import mesh_fem
from .geometry import Domain
from .mesh_fem import FemFunction, Mesh, h1_norm
from .probeval import SEED_PICARD_INCREMENTS, McParams, TimeIntegralObserver
from .reflectsim import run_paths


class NoContraction(RuntimeError):
    """Increment ratios exceeded 1 for three consecutive iterations."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class TooFewIterates(ValueError):
    """Contraction reporting needs at least three iterates."""


@dataclass
class PicardTrace:
    """Full record of one Picard run."""

    iterates: list                  # FemFunction, u^0 .. u^n
    increments: list                # ||u^n - u^{n-1}||_{H^1}, length n_iterations
    ratios: list                    # increment ratios, length n_iterations - 1
    gamma: float                    # theoretical squared-increment factor (nan if unset)
    converged: bool
    n_iterations: int
    residuals: list = field(default_factory=list)  # full weak residual per iterate
    no_contraction: bool = False
    final_residual: float = float("nan")

    @property
    def solution(self) -> FemFunction:
        return self.iterates[-1]

    def export_csv(self, path):
        with open(path, "w") as out:
            out.write("iteration,increment,ratio,residual\n")
            for i, inc in enumerate(self.increments, start=1):
                r = float(self.ratios[i - 2]) if i >= 2 else float("nan")
                res = float(self.residuals[i - 1]) if i <= len(self.residuals) else float("nan")
                out.write(f"{i},{float(inc)!r},{r!r},{res!r}\n")


def run_picard(
    domain: Domain,
    coeffs,
    consts,
    h_mesh: float,
    tol: float = 1e-8,
    max_iter: int = 50,
    inner_tol: float = 1e-10,
    override: bool = False,
    mesh: Mesh | None = None,
) -> PicardTrace:
    """Run the Picard sequence until the H^1 increment drops below ``tol``.

    ``consts`` should carry the derived constants (see ``choose_constants``);
    running with inadmissible constants requires ``override=True`` upstream
    and voids the contraction guarantee (gamma is reported as nan).  Raises
    :class:`NoContraction` (with the partial trace attached) when increment
    ratios exceed 1 three times in a row and ``override`` is not set.
    """
    mesh = mesh if mesh is not None else mesh_fem.build_mesh(domain, h_mesh)
    form = mesh_fem.WeakForm(mesh, coeffs)
    gamma = consts.gamma if getattr(consts, "derived_filled", False) else float("nan")
    u = FemFunction(mesh, np.zeros(mesh.n_nodes))
    trace = PicardTrace(
        iterates=[u], increments=[], ratios=[], gamma=gamma,
        converged=False, n_iterations=0,
    )
    # g at the latest iterate: its residual's divergence part, and the next step's frozen field
    g_load = mesh.gradient_load(form.divergence(u.values))
    start = None  # load and residual at the latest iterate, where the next solve starts
    bad_run = 0
    for n in range(1, max_iter + 1):
        u_prev = trace.iterates[-1]
        u_new = form.solve(g_load, inner_tol=inner_tol, u0=u_prev.values, start=start)
        g_load = mesh.gradient_load(form.divergence(u_new.values))
        inc = h1_norm(u_new - u_prev)
        trace.iterates.append(u_new)
        trace.increments.append(inc)
        start = form.load_residual(u_new.values, g_load)
        trace.residuals.append(start[1])
        trace.n_iterations = n
        if n >= 2:
            prev = trace.increments[-2]
            ratio = inc / prev if prev > 0 else 0.0
            trace.ratios.append(ratio)
            bad_run = bad_run + 1 if ratio > 1.0 else 0
            if bad_run >= 3:
                trace.no_contraction = True
                if not override:
                    msg = f"increment ratios exceeded 1 for 3 consecutive iterations at n={n}"
                    raise NoContraction(msg, trace)
        if inc <= tol:
            trace.converged = True
            break
    trace.final_residual = (
        trace.residuals[-1] if trace.residuals else form.residual(u.values, g_load)
    )
    return trace


@dataclass
class ContractionRow:
    iteration: int
    increment: float
    squared_ratio: float
    theoretical_gamma: float
    exceeds_gamma: bool
    weighted_squared_ratio: float = float("nan")


@dataclass
class ContractionReport:
    rows: list
    gamma: float

    @property
    def any_exceeds(self) -> bool:
        return any(r.exceeds_gamma for r in self.rows)

    def __str__(self) -> str:
        out = [
            f"theoretical gamma = {self.gamma:.6f}"
            if math.isfinite(self.gamma)
            else "theoretical gamma unavailable (constants not derived)"
        ]
        for r in self.rows:
            extra = (
                f"  weighted {r.weighted_squared_ratio:.4f}"
                if math.isfinite(r.weighted_squared_ratio)
                else ""
            )
            out.append(
                f"  n={r.iteration:3d} increment {r.increment:.3e} "
                f"squared ratio {r.squared_ratio:.4f}"
                f"{'  (> gamma)' if r.exceeds_gamma else ''}{extra}"
            )
        return "\n".join(out)


def contraction_report(trace: PicardTrace, weighted_ratios=None) -> ContractionReport:
    """Per-iteration squared increment ratios against the theoretical gamma.

    ``weighted_ratios`` (optional) attaches the stochastic weighted-norm
    ratios computed by :func:`weighted_increment_ratios`.
    """
    if len(trace.iterates) < 3:
        raise TooFewIterates(
            f"need at least 3 iterates, have {len(trace.iterates)}"
        )
    rows = []
    for i, ratio in enumerate(trace.ratios):
        sq = ratio * ratio
        wrow = float("nan")
        if weighted_ratios is not None and i < len(weighted_ratios):
            wrow = weighted_ratios[i]
        rows.append(
            ContractionRow(
                iteration=i + 2,
                increment=trace.increments[i + 1],
                squared_ratio=sq,
                theoretical_gamma=trace.gamma,
                exceeds_gamma=bool(math.isfinite(trace.gamma) and sq > trace.gamma),
                weighted_squared_ratio=wrow,
            )
        )
    return ContractionReport(rows=rows, gamma=trace.gamma)


def weighted_increment_ratios(
    domain: Domain,
    trace: PicardTrace,
    coeffs,
    consts,
    params: McParams,
) -> list:
    """Stochastic weighted-norm ratios of consecutive Picard increments.

    For each increment d_n = u^n - u^{n-1} estimates
    E int_0^T e^{2 int q + lam r + mu L_r} (|d_n|^2 + |grad d_n|^2)(X_r) dr
    under uniform starts and returns the consecutive ratios.
    """
    norms = []
    for n in range(1, len(trace.iterates)):
        delta = trace.iterates[n] - trace.iterates[n - 1]

        def weight_field(x, tri, _d=delta):
            val, grad = _d.value_grad_at(x, tri)
            return val * val + np.einsum("pd,pd->p", grad, grad)

        obs = TimeIntegralObserver(
            coeffs.q_at, F=weight_field, lam=consts.lam, mu=consts.mu, power=2,
            mesh=delta.mesh,
        )
        run_paths(
            domain, params.n_paths, params.horizon, params.step,
            params.seed + SEED_PICARD_INCREMENTS + n, [obs],
        )
        norms.append(obs.estimate().mean)
    return [
        norms[i + 1] / norms[i] if norms[i] > 0 else float("nan")
        for i in range(len(norms) - 1)
    ]
