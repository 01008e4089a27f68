"""Shared fixtures: the unit disk, cached meshes, and the manufactured corpus.

The corpus is built from the exact solution u*(x) = x1^2 + x2^2 on the unit
disk with q = -1.  Inserting u* into the strong problem (inward normal n,
<grad u*, n> = -2 on the boundary) gives consistent data; the y-dependent
terms -(y - u*) in f and h make the monotonicity conditions hold with
alpha = beta = 1 without changing the solution.

  variant A (k = 0):    f = 2 r^2 - 2 - y,  g = 0,           h = 3 - y
  variant B (k = 0.1):  g = 0.1 tanh(y) e1, so the interior picks up
                        div g(., u*, grad u*) = 0.2 x1 sech^2(r^2) and the
                        boundary h compensates 2 <g, n> = -0.2 tanh(1) x1.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from reflectpde.coeffexpr import CoefficientSet, StructureConstants, choose_constants
from reflectpde.geometry import Domain
from reflectpde.mesh_fem import Mesh, build_mesh
from reflectpde.reflectsim import PathObserver

F_A = "2*(x1^2 + x2^2) - 2 - y"
H_A = "3 - y"
F_B = "-2 + x1^2 + x2^2 + 0.2*x1*(1 - tanh(x1^2 + x2^2)^2) + (x1^2 + x2^2) - y"
H_B = "3 - 0.2*tanh(1)*x1 - y"
G_B = ["0.1*tanh(y)", "0"]


def count_locations(monkeypatch):
    """Record the number of points of every Mesh.find_triangles call."""
    calls = []
    find_triangles = Mesh.find_triangles

    def counting(self, points):
        calls.append(len(points))
        return find_triangles(self, points)

    monkeypatch.setattr(Mesh, "find_triangles", counting)
    return calls


class Unrolled(PathObserver):
    """Feeds a one-step-at-a-time observer: each engine block unrolled into per-step contexts.

    Step j + s of a block starting at step j gets x_prev = x[s], x_new = x[s+1]
    and row s of dB, dl, hit and normal, so reference observers written
    against single steps run unchanged beside the block observers.
    """

    def __init__(self, obs):
        self.obs = obs

    def start_chunk(self, indices, x0):
        self.obs.start_chunk(indices, x0)

    def step(self, blk):
        for s in range(len(blk.dl)):
            self.obs.step(SimpleNamespace(
                j=blk.j + s, h=blk.h, x_prev=blk.x[s], x_new=blk.x[s + 1], dB=blk.dB[s],
                dl=blk.dl[s], hit=blk.hit[s], normal=blk.normal[s],
            ))

    def end_chunk(self, x_final):
        self.obs.end_chunk(x_final)


def q_only(q: str, dim: int = 2) -> CoefficientSet:
    """A coefficient set whose q is ``q``; check_conditions_C reads nothing else."""
    return CoefficientSet.from_strings(dim, f="0", g=["0"] * dim, h="0", q=q)


def exact_solution(points):
    """u*(x) = |x|^2 with its gradient, vectorized."""
    pts = np.atleast_2d(points)
    return pts[:, 0] ** 2 + pts[:, 1] ** 2, 2.0 * pts


@pytest.fixture(scope="session")
def disk():
    return Domain.disk()


@pytest.fixture(scope="session")
def meshes(disk):
    return {h: build_mesh(disk, h) for h in (0.1, 0.05, 0.025)}


@pytest.fixture(scope="session")
def corpus_a():
    return CoefficientSet.from_strings(2, f=F_A, g=["0", "0"], h=H_A, q="-1")


@pytest.fixture(scope="session")
def corpus_b():
    return CoefficientSet.from_strings(2, f=F_B, g=G_B, h=H_B, q="-1")


@pytest.fixture(scope="session")
def consts_k0():
    return choose_constants(
        StructureConstants(alpha=1.0, beta=1.0, K=0.1, M=4.0, k=0.0, beta_prime=1.0)
    )


@pytest.fixture(scope="session")
def consts_k01():
    return choose_constants(
        StructureConstants(alpha=1.0, beta=1.0, K=0.1, M=4.0, k=0.1, beta_prime=1.0)
    )
