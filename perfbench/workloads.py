"""The three workloads: inputs, operations, checks and checker self-tests.

Every workload is batch and closed-loop: one process runs one operation at a
time.  A round is the workload's fixed list of operations, and every round of
a run repeats the same operations on the same inputs.

- ``solve_disk``: ``reflectpde solve`` through the CLI entry point on the
  manufactured corpus (u* = |x|^2 on the unit disk) at mesh_h = 0.0125, once
  for corpus A (g = 0, k = 0) and once for corpus B (g = 0.1 tanh(u) e1,
  k = 0.1).  The seed is the config seed, which drives the sampling of the
  structure validation.
- ``residual_disk``: the martingale-residual test at the step and window of
  acceptance criterion 7 on corpus B's Picard solution at mesh_h = 0.05, then
  on criterion 7's corrupted corpus-A field as a negative control.  The seed
  keys the path streams.
- ``fk_ellipse``: ``fk_linear_frozen`` with its decay pilot on the ellipse
  a = 1.5, b = 1 at x0 = (0.9, 0), for data manufactured from u* = |x|^2.
  The seed keys the path streams.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
from reflectpde import cli, mesh_fem, picard, probeval
from reflectpde.coeffexpr import CoefficientSet, StructureConstants, choose_constants
from reflectpde.geometry import Domain
from reflectpde.mesh_fem import FemFunction
from reflectpde.probeval import McParams

import checks

# Package functions are called through their modules, so that the tracer's
# wrappers see these calls too.

# The manufactured corpus of tests/conftest.py, copied so that the benchmark's
# inputs do not change when the tests do.
F_A = "2*(x1^2 + x2^2) - 2 - y"
H_A = "3 - y"
F_B = "-2 + x1^2 + x2^2 + 0.2*x1*(1 - tanh(x1^2 + x2^2)^2) + (x1^2 + x2^2) - y"
H_B = "3 - 0.2*tanh(1)*x1 - y"
G_B = "0.1*tanh(y)"

CONFIG = """[domain]
kind = disk
radius = 1.0

[coefficients]
f = {f}
g1 = {g1}
g2 = 0
h = {h}
q = -1

[constants]
alpha = 1.0
beta = 1.0
K = 0.1
M = 4.0
k = {k}
beta_prime = 1.0

[solver]
backend = fem
mesh_h = {mesh_h}
tol = 1e-8
seed = {seed}
"""


class SolveDisk:
    """CLI solve of corpora A and B on the unit disk at mesh_h = 0.0125."""

    MESH_H = 0.0125
    CORPORA = {"A": (F_A, "0", H_A, 0.0), "B": (F_B, G_B, H_B, 0.1)}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.configs = {}
        for label, (f, g1, h, k) in self.CORPORA.items():
            path = self.workdir / f"corpus_{label}.ini"
            path.write_text(CONFIG.format(f=f, g1=g1, h=h, k=k, mesh_h=self.MESH_H,
                                          seed=self.seed))
            self.configs[label] = path
        self.n_nodes = mesh_fem.build_mesh(Domain.disk(), self.MESH_H).n_nodes

    def _solve(self, label):
        out = self.workdir / f"solve_{label}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["solve", "--config", str(self.configs[label]), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"reflectpde solve exited with code {code}")
        return code, out

    def operations(self):
        return [(f"solve_{label}", lambda label=label: self._solve(label))
                for label in self.CORPORA]

    def _check_one(self, result, solution_csv=None):
        code, out = result
        summary = json.loads((out / "summary.json").read_text())
        nodes, tris = checks.read_mesh(out / "mesh.txt")
        values = checks.read_solution(solution_csv or out / "solution.csv", nodes)
        return checks.check_solve(code, summary, checks.fe_errors(nodes, tris, values),
                                  self.n_nodes)

    def check(self, results) -> tuple:
        verdicts = {name: self._check_one(r) for name, r in results.items()}
        return all(ok for ok, _ in verdicts.values()), {
            name: details for name, (_, details) in verdicts.items()}

    def self_test(self, results) -> dict:
        """A solution.csv perturbed by 0.01 sin(3 x1 + 2 x2) must be rejected."""
        code, out = results["solve_B"]
        lines = (out / "solution.csv").read_text().splitlines()
        bad = [lines[0]]
        for row in lines[1:]:
            i, x, y, v = row.split(",")
            v = float(v) + 0.01 * math.sin(3.0 * float(x) + 2.0 * float(y))
            bad.append(f"{i},{x},{y},{v!r}")
        path = out / "solution_perturbed.csv"
        path.write_text("\n".join(bad) + "\n")
        ok, _ = self._check_one((code, out), solution_csv=path)
        return {"perturbed_solution_rejected": not ok}


class ResidualDisk:
    """Martingale-residual test of criterion 7 with 1000 paths, plus its control."""

    MESH_H = 0.05
    N_PATHS = 1000
    HORIZON = 0.3
    STEP = 5e-5
    T_RES = 0.15

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self):
        disk = Domain.disk()
        self.disk = disk
        self.corpus_a = CoefficientSet.from_strings(2, f=F_A, g=["0", "0"], h=H_A, q="-1")
        self.corpus_b = CoefficientSet.from_strings(2, f=F_B, g=[G_B, "0"], h=H_B, q="-1")
        self.consts = choose_constants(
            StructureConstants(alpha=1.0, beta=1.0, K=0.1, M=4.0, k=0.1, beta_prime=1.0))
        mesh = mesh_fem.build_mesh(disk, self.MESH_H)
        self.u_b = picard.run_picard(disk, self.corpus_b, self.consts, self.MESH_H, tol=1e-9,
                                     mesh=mesh).solution
        u_a = mesh_fem.solve_semilinear_g_frozen(mesh, self.corpus_a, inner_tol=1e-11)
        # criterion 7's corruption: 10 % multiplicative noise from its own stream
        noise = np.random.default_rng(7007).standard_normal(mesh.n_nodes)
        self.u_bad = FemFunction(mesh, u_a.values * (1 + 0.1 * noise))

    def _test(self, u, coeffs):
        params = McParams(n_paths=self.N_PATHS, horizon=self.HORIZON, step=self.STEP,
                          seed=self.seed)
        return probeval.martingale_residual_test(self.disk, u, coeffs, self.consts, params,
                                                 t_res=self.T_RES)

    def operations(self):
        return [("residual_B", lambda: self._test(self.u_b, self.corpus_b)),
                ("residual_control", lambda: self._test(self.u_bad, self.corpus_a))]

    def check(self, results) -> tuple:
        return checks.check_residual(results["residual_B"], results["residual_control"])

    def self_test(self, results) -> dict:
        """A control that passes (here: the passing solution report) must be rejected."""
        ok, _ = checks.check_residual(results["residual_B"], results["residual_B"])
        return {"passing_control_rejected": not ok}


class FkEllipse:
    """Feynman-Kac point value on the ellipse a = 1.5, b = 1 at x0 = (0.9, 0).

    u*(x) = |x|^2 solves (1/2) lap u - u + F = 0 with F = |x|^2 - 2, and the
    boundary data is H = -<grad u*, n> = 2 / |(x1/a^2, x2/b^2)| on the
    boundary.  Inside, H is extended along rays from the centre, which keeps
    it between 2b and 2a.
    """

    A, B = 1.5, 1.0
    X0 = (0.9, 0.0)
    N_PATHS = 2048
    HORIZON = 6.0
    STEP = 1e-3
    C_BD = 0.5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self):
        self.domain = Domain.ellipse(self.A, self.B)
        self.x0 = np.array(self.X0)

    @staticmethod
    def q(x):
        return -np.ones(len(x))

    @staticmethod
    def F(x):
        return x[:, 0] ** 2 + x[:, 1] ** 2 - 2.0

    @classmethod
    def H(cls, x):
        a, b = cls.A, cls.B
        s = np.hypot(x[:, 0] / a, x[:, 1] / b)
        d = np.hypot(x[:, 0] / a**2, x[:, 1] / b**2)
        return np.where(d > 0, 2.0 * s / np.where(d > 0, d, 1.0), 2.0 * b)

    def _estimate(self):
        params = McParams(n_paths=self.N_PATHS, horizon=self.HORIZON, step=self.STEP,
                          seed=self.seed)
        est = probeval.fk_linear_frozen(self.domain, self.x0, self.q, self.F, self.H, params,
                                        c_bd=self.C_BD)
        return est.mean, est.standard_error, params.truncation_tail_bound

    def operations(self):
        return [("fk_x0", self._estimate)]

    def _check(self, mean, se, tail):
        return checks.check_fk(mean, se, tail, float(self.x0 @ self.x0), self.STEP)

    def check(self, results) -> tuple:
        return self._check(*results["fk_x0"])

    def self_test(self, results) -> dict:
        """Estimates offset by +0.3 and by -0.3 must both be rejected."""
        mean, se, tail = results["fk_x0"]
        return {f"offset_{d:+.1f}_rejected": not self._check(mean + d, se, tail)[0]
                for d in (0.3, -0.3)}


WORKLOADS = {"solve_disk": SolveDisk, "residual_disk": ResidualDisk, "fk_ellipse": FkEllipse}
