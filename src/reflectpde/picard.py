"""Outer Picard iteration: freeze the divergence field, solve, repeat.

Starting from u^0 = 0, step n solves the linearized problem in which
g(., u, grad u) is frozen at the previous iterate while f and h stay implicit
(resolved inside the inner fixed point of the element backend).  The H^1
increments and their ratios are recorded for reference.  What the theory
bounds by the contraction factor gamma < 1, when the structure constants are
admissible, is the squared ratio of the increments in the paper's weighted
norm; :func:`weighted_increment_ratios` computes those with one adjoint
solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mesh_fem
from .coeffexpr import CoefficientSet, print_expr
from .geometry import Domain
from .mesh_fem import FemFunction, Mesh, h1_norm
from .reflectsim import run_paths  # noqa: F401  perfbench/tracing.py patches picard.run_paths


class NoContraction(RuntimeError):
    """Increment ratios exceeded 1 for three consecutive iterations."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass
class PicardTrace:
    """Full record of one Picard run."""

    iterates: list                  # FemFunction, u^0 .. u^n
    increments: list                # ||u^n - u^{n-1}||_{H^1}, length n_iterations
    gamma: float                    # theoretical squared-increment factor (nan if unset)
    converged: bool = False
    residuals: list = field(default_factory=list)  # full weak residual per iterate
    no_contraction: bool = False
    final_residual: float = float("nan")

    @property
    def n_iterations(self) -> int:
        return len(self.increments)

    @property
    def ratios(self) -> list:
        """Consecutive H^1 increment ratios (0 after a zero increment), length n_iterations - 1."""
        return [b / a if a > 0 else 0.0 for a, b in zip(self.increments, self.increments[1:])]

    @property
    def solution(self) -> FemFunction:
        return self.iterates[-1]

    def export_csv(self, path):
        ratios = self.ratios
        with open(path, "w") as out:
            out.write("iteration,increment,ratio,residual\n")
            for i, inc in enumerate(self.increments, start=1):
                r = float(ratios[i - 2]) if i >= 2 else float("nan")
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
    trace = PicardTrace(iterates=[u], increments=[], gamma=gamma)
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
        if n >= 2:
            bad_run = bad_run + 1 if trace.ratios[-1] > 1.0 else 0
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


def adjoint_weight(mesh: Mesh, coeffs, consts) -> FemFunction:
    """The weight psi of the paper's norm under uniform starts.

    For the driftless generator, which is self-adjoint,
    E int_0^inf e^{2 int q + lam t + mu L} F(X_t) dt = (1/|D|) int psi F dx under
    uniform starts on D, where psi solves

        (1/2) lap psi + (2q + lam) psi + 1 = 0  in D,    <grad psi, n> + 2 mu psi = 0  on dD

    (inward n): the weak form with f = 1, g = 0, h = 2 mu y and q replaced by
    2q + lam.  Raises ValueError for a nonzero drift b, under which the generator
    is not self-adjoint, and for constants without the derived lam and mu.
    """
    if not coeffs.b_is_zero:
        raise ValueError("the weighted norm needs b = 0: a drift breaks self-adjointness")
    if not getattr(consts, "derived_filled", False):
        raise ValueError("the weighted norm needs the derived constants lam and mu")
    weight = CoefficientSet.from_strings(
        coeffs.dim, f="1", g=["0"] * coeffs.dim, h=f"2*({consts.mu!r})*y",
        q=f"2*({print_expr(coeffs.q)}) + ({consts.lam!r})",
    )
    return mesh_fem.solve_semilinear_g_frozen(mesh, weight)


def weighted_increment_norms(trace: PicardTrace, coeffs, consts) -> list:
    """The paper's squared norm of each Picard increment d_n = u^n - u^{n-1},

        ||d_n||^2 = E int_0^inf e^{2 int q + lam t + mu L} (|d_n|^2 + |grad d_n|^2)(X_t) dt

    under uniform starts, as (1/|D|) int psi (d_n^2 + |grad d_n|^2) dx by the
    element quadrature, with psi from :func:`adjoint_weight` solved once.
    """
    mesh = trace.iterates[0].mesh
    psi = mesh.quad_w * mesh.quad_values(adjoint_weight(mesh, coeffs, consts).values)
    psi /= mesh.areas.sum()
    norms = []
    for prev, new in zip(trace.iterates, trace.iterates[1:]):
        d = new.values - prev.values
        grad = mesh.tri_gradients(d)
        sq = mesh.quad_values(d) ** 2 + np.einsum("md,md->m", grad, grad)[:, None]
        norms.append(float(np.sum(psi * sq)))
    return norms


def weighted_increment_ratios(trace: PicardTrace, coeffs, consts) -> list:
    """Ratios of consecutive squared weighted norms (:func:`weighted_increment_norms`),
    the quantities that the contraction factor gamma bounds."""
    norms = weighted_increment_norms(trace, coeffs, consts)
    return [b / a if a > 0 else float("nan") for a, b in zip(norms, norms[1:])]
