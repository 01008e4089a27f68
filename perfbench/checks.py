"""Correctness checks against references that reflectpde does not compute.

Each check returns ``(ok, details)``.  The finite-element check reads the
files ``reflectpde solve`` writes and measures the error against the exact
solution u*(x) = |x|^2 with its own parser and its own quadrature rule
(Radon's 7-point degree-5 rule, where the program uses a 6-point degree-4
rule).  The Monte-Carlo checks compare with closed-form values.
"""

from __future__ import annotations

import math

import numpy as np

# O(h) and O(h^2) constants for u* = |x|^2 with h the longest mesh edge.  At
# h_max = 0.018 (mesh_h = 0.0125) this commit measures an H^1 error of 0.86 h
# and a nodal error of 0.36 h^2; the bounds leave a factor of 2.3 and 2.8.
H1_CONST = 2.0
NODAL_CONST = 1.0

# Allowance for the O(sqrt(h_t)) local-time bias of the projection scheme in
# the Feynman-Kac check, as a multiple of sqrt(h_t).
FK_BIAS_CONST = 2.0

_S15 = math.sqrt(15.0)
_A, _B = (6.0 - _S15) / 21.0, (9.0 + 2.0 * _S15) / 21.0
_C, _D = (6.0 + _S15) / 21.0, (9.0 - 2.0 * _S15) / 21.0
_W1, _W2 = (155.0 - _S15) / 1200.0, (155.0 + _S15) / 1200.0
RADON_BARY = np.array(
    [[1 / 3, 1 / 3, 1 / 3],
     [_A, _A, _B], [_A, _B, _A], [_B, _A, _A],
     [_C, _C, _D], [_C, _D, _C], [_D, _C, _C]]
)
RADON_W = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])


def exact(points):
    """u*(x) = |x|^2 and its gradient 2x."""
    return np.einsum("...d,...d->...", points, points), 2.0 * points


def read_mesh(path):
    """Nodes and triangles of a ``mesh-p1 1`` file."""
    with open(path) as src:
        lines = src.read().split("\n")
    if lines[0].split()[:1] != ["mesh-p1"]:
        raise ValueError(f"{path}: not a mesh-p1 file")
    tag, n = lines[1].split()
    if tag != "nodes":
        raise ValueError(f"{path}: expected a nodes section")
    n = int(n)
    nodes = np.array([row.split()[1:3] for row in lines[2 : 2 + n]], dtype=float)
    tag, m = lines[2 + n].split()
    if tag != "triangles":
        raise ValueError(f"{path}: expected a triangles section")
    m = int(m)
    tris = np.array([row.split()[1:4] for row in lines[3 + n : 3 + n + m]], dtype=np.int64)
    return nodes, tris


def read_solution(path, nodes):
    """Nodal values of a ``node,x,y,value`` file, checked against the mesh nodes."""
    with open(path) as src:
        header = src.readline().strip()
        rows = [line.split(",") for line in src if line.strip()]
    if header != "node,x,y,value":
        raise ValueError(f"{path}: unexpected header {header!r}")
    table = np.array(rows, dtype=float)
    if len(table) != len(nodes):
        raise ValueError(f"{path}: {len(table)} rows for {len(nodes)} nodes")
    idx = table[:, 0].astype(np.int64)
    if not np.array_equal(np.sort(idx), np.arange(len(nodes))):
        raise ValueError(f"{path}: node indices are not 0..{len(nodes) - 1}")
    if np.max(np.abs(table[:, 1:3] - nodes[idx])) > 1e-9:
        raise ValueError(f"{path}: node coordinates differ from the mesh")
    values = np.empty(len(nodes))
    values[idx] = table[:, 3]
    return values


def fe_errors(nodes, tris, values) -> dict:
    """Longest edge, max nodal error and H^1 error of the P1 field against u*."""
    p = nodes[tris]                                     # (m, 3, 2)
    edges = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    h_max = float(np.max(np.hypot(edges[:, 0], edges[:, 1])))
    nodal = float(np.max(np.abs(values - exact(nodes)[0])))

    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    v = values[tris]
    dv1, dv2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    # gradient g solves [e1; e2] g = [dv1; dv2]
    grad = np.stack(
        [(dv1 * e2[:, 1] - dv2 * e1[:, 1]) / det, (e1[:, 0] * dv2 - e2[:, 0] * dv1) / det],
        axis=1,
    )
    qx = np.einsum("qi,mid->mqd", RADON_BARY, p)        # (m, 7, 2)
    ux, gx = exact(qx)
    uh = RADON_BARY @ v.T                               # (7, m)
    err = (uh.T - ux) ** 2 + np.sum((grad[:, None, :] - gx) ** 2, axis=2)
    h1 = float(math.sqrt(np.sum(0.5 * np.abs(det)[:, None] * RADON_W[None, :] * err)))
    return {"h_max": h_max, "nodal_error": nodal, "h1_error": h1}


def check_solve(exit_code, summary, errors, n_nodes) -> tuple:
    """Verdict on one ``reflectpde solve`` run of the manufactured corpus."""
    h = errors["h_max"]
    gamma = summary.get("gamma")
    sq = summary.get("squared_ratios", [])
    checks = {
        "exit_code_0": exit_code == 0,
        "converged": bool(summary.get("converged")),
        "squared_ratios_at_most_gamma": gamma is not None and all(r <= gamma for r in sq),
        "mesh_nodes": summary.get("mesh", {}).get("nodes") == n_nodes,
        "nodal_error_O(h^2)": errors["nodal_error"] <= NODAL_CONST * h * h,
        "h1_error_O(h)": errors["h1_error"] <= H1_CONST * h,
    }
    return all(checks.values()), {
        **checks, **errors, "gamma": gamma, "max_squared_ratio": max(sq, default=None),
        "outer_steps": summary.get("n_iterations"),
    }


def _residual_row(rep) -> dict:
    return {
        "passed": rep.passed, "mean": rep.mean_residual, "se": rep.se_residual,
        "variance": rep.var_residual, "predicted_variance": rep.predicted_variance,
        "pass_mean": rep.pass_mean, "pass_variance": rep.pass_variance,
        "pass_terminal": rep.pass_terminal,
    }


def check_residual(solution_report, control_report) -> tuple:
    """The solution field passes all three sub-tests; the corrupted control fails."""
    ok = bool(solution_report.passed) and not control_report.passed
    return ok, {"solution": _residual_row(solution_report),
                "control": _residual_row(control_report)}


def check_fk(mean, se, tail_bound, exact_value, step) -> tuple:
    """|estimate - u*(x0)| <= 3 SE + tail bound + FK_BIAS_CONST sqrt(h_t)."""
    tol = 3.0 * se + tail_bound + FK_BIAS_CONST * math.sqrt(step)
    err = mean - exact_value
    return abs(err) <= tol, {"estimate": mean, "se": se, "exact": exact_value,
                             "error": err, "tolerance": tol, "tail_bound": tail_bound}
