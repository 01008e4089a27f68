"""P1 finite elements on the disk/ellipse: meshing, assembly, linearized solves.

The deterministic backend discretizes the weak form obtained from the strong
problem

    (1/2) lap u + <b, grad u> + q u - div g(. , u, grad u) + f(., u, grad u) = 0   in D
    <grad u - 2 g(., u, grad u), n> + h(., u) = 0                                  on dD

by integration by parts against the *inward* normal n:

    (1/2) (grad u, grad v) - (<b, grad u>, v) - (q u, v) - (f, v)
        - (g, grad v) - (1/2) <h, v>_dD  =  0            for all P1 test v.

Within one outer (Picard) step the divergence field g is frozen; the
remaining semilinearity in f and h is resolved by a damped fixed-point
iteration measured in the discrete dual norm of H^1.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import Delaunay

from .geometry import Domain

# Dunavant degree-4 rule on the reference triangle (barycentric coordinates)
_QW = np.array(
    [0.223381589678011] * 3 + [0.109951743655322] * 3
)
_QL = np.array(
    [
        [0.108103018168070, 0.445948490915965, 0.445948490915965],
        [0.445948490915965, 0.108103018168070, 0.445948490915965],
        [0.445948490915965, 0.445948490915965, 0.108103018168070],
        [0.816847572980459, 0.091576213509771, 0.091576213509771],
        [0.091576213509771, 0.816847572980459, 0.091576213509771],
        [0.091576213509771, 0.091576213509771, 0.816847572980459],
    ]
)

# 3-point Gauss on [0, 1] (degree 5)
_ET = np.array([0.5 - 0.5 * math.sqrt(3.0 / 5.0), 0.5, 0.5 + 0.5 * math.sqrt(3.0 / 5.0)])
_EW = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


class BadResolution(ValueError):
    """Mesh resolution nonpositive, too coarse to resolve the domain, or over budget."""


class SingularSystem(RuntimeError):
    """Sparse factorization failed; the assembled bilinear form lost coercivity."""


class InnerDivergence(RuntimeError):
    """Damped fixed-point iteration for the implicit semilinearity failed to contract."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class MeshMismatch(ValueError):
    """Fields live on different meshes."""


class Mesh:
    """Conforming P1 triangulation, immutable after construction.

    nodes: (n, 2) coordinates; triangles: (m, 3) CCW node indices;
    boundary_edges: (k, 2) node indices ordered CCW along the boundary
    (domain on the left); h_max: longest edge.
    """

    def __init__(self, nodes, triangles, boundary_edges):
        self.nodes = np.asarray(nodes, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.boundary_edges = np.asarray(boundary_edges, dtype=np.int64)
        self._orient()
        self._precompute()
        self._cache: dict = {}

    # -- construction helpers ------------------------------------------------

    def _orient(self):
        p = self.nodes[self.triangles]
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        flip = det < 0
        if flip.any():
            tri = self.triangles.copy()
            tri[flip, 1], tri[flip, 2] = self.triangles[flip, 2], self.triangles[flip, 1]
            self.triangles = tri

    def _precompute(self):
        p = self.nodes[self.triangles]                       # (m, 3, 2)
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        self.areas = 0.5 * det
        if np.any(self.areas <= 0):
            raise BadResolution("degenerate (zero-area) triangle in mesh")
        # gradient of barycentric basis i: rotate opposite edge by 90 deg / (2A)
        grads = np.empty((len(p), 3, 2))
        for i in range(3):
            a, b = p[:, (i + 1) % 3], p[:, (i + 2) % 3]
            grads[:, i, 0] = a[:, 1] - b[:, 1]
            grads[:, i, 1] = b[:, 0] - a[:, 0]
        self.grads = grads / (2.0 * self.areas)[:, None, None]
        self.quad_x = np.einsum("qi,mid->mqd", _QL, p)       # (m, 6, 2)
        self.quad_w = self.areas[:, None] * _QW[None, :]     # (m, 6)

        be = self.nodes[self.boundary_edges]                 # (k, 2, 2)
        seg = be[:, 1] - be[:, 0]
        self.edge_len = np.hypot(seg[:, 0], seg[:, 1])
        self.edge_x = be[:, 0][:, None, :] + _ET[None, :, None] * seg[:, None, :]
        self.edge_w = self.edge_len[:, None] * _EW[None, :]  # (k, 3)
        self.edge_lambda = np.stack([1.0 - _ET, _ET], axis=1)  # (3, 2)

        edges = np.sort(self.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
        self.h_max = float(
            np.max(np.linalg.norm(self.nodes[edges[:, 0]] - self.nodes[edges[:, 1]], axis=1))
        )

    # -- basic matrices (cached) ----------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def _assemble(self, local):
        """Scatter per-triangle 3x3 blocks (m, 3, 3) into a CSR matrix."""
        tri = self.triangles
        rows = np.repeat(tri, 3, axis=1).ravel()
        cols = np.tile(tri, (1, 3)).ravel()
        mat = sp.coo_matrix(
            (local.ravel(), (rows, cols)), shape=(self.n_nodes, self.n_nodes)
        )
        return mat.tocsr()

    def stiffness(self):
        if "K" not in self._cache:
            loc = self.areas[:, None, None] * np.einsum(
                "mid,mjd->mij", self.grads, self.grads
            )
            self._cache["K"] = self._assemble(loc)
        return self._cache["K"]

    def mass(self):
        if "M" not in self._cache:
            base = (np.ones((3, 3)) + np.eye(3)) / 12.0
            loc = self.areas[:, None, None] * base[None, :, :]
            self._cache["M"] = self._assemble(loc)
        return self._cache["M"]

    def weighted_mass(self, w_quad):
        """Mass matrix with a per-quad-point weight array (m, 6)."""
        ww = self.quad_w * w_quad
        loc = np.einsum("mq,qi,qj->mij", ww, _QL, _QL)
        return self._assemble(loc)

    def convection(self, b_quad):
        """Matrix of (v_i, <b, grad u_j>) with b given per quad point (m, 6, 2)."""
        bg = np.einsum("mqd,mjd->mqj", b_quad, self.grads)
        loc = np.einsum("mq,qi,mqj->mij", self.quad_w, _QL, bg)
        return self._assemble(loc)

    def load(self, f_quad):
        """Vector of (f, v_i) with f given per quad point (m, 6)."""
        loc = np.einsum("mq,qi->mi", self.quad_w * f_quad, _QL)
        vec = np.zeros(self.n_nodes)
        np.add.at(vec, self.triangles.ravel(), loc.ravel())
        return vec

    def gradient_load(self, g_quad):
        """Vector of (g, grad v_i) with a vector field g per quad point (m, 6, 2)."""
        wg = np.einsum("mq,mqd->md", self.quad_w, g_quad)
        loc = np.einsum("md,mid->mi", wg, self.grads)
        vec = np.zeros(self.n_nodes)
        np.add.at(vec, self.triangles.ravel(), loc.ravel())
        return vec

    def boundary_load(self, h_edge):
        """Vector of <h, v_i>_dD with h given per edge quad point (k, 3)."""
        loc = np.einsum("kq,qi->ki", self.edge_w * h_edge, self.edge_lambda)
        vec = np.zeros(self.n_nodes)
        np.add.at(vec, self.boundary_edges.ravel(), loc.ravel())
        return vec

    def gram_solve(self, rhs):
        """Apply the inverse H^1 Gram matrix (K + M); used for dual norms."""
        if "gram_lu" not in self._cache:
            gram = (self.stiffness() + self.mass()).tocsc()
            self._cache["gram_lu"] = spla.splu(gram)
        return self._cache["gram_lu"].solve(rhs)

    def dual_norm(self, residual) -> float:
        return float(np.sqrt(abs(residual @ self.gram_solve(residual))))

    # -- point location --------------------------------------------------------

    def _locator(self):
        if "locator" not in self._cache:
            self._cache["locator"] = _TriLocator(self)
        return self._cache["locator"]

    def find_triangles(self, points) -> np.ndarray:
        """Triangle index containing (or nearest to) each point."""
        return self._locator().query(np.atleast_2d(points))

    def quad_values(self, values):
        """P1 field values at the domain quadrature points, shape (m, 6)."""
        return np.einsum("qi,mi->mq", _QL, values[self.triangles])

    def edge_values(self, values):
        """P1 field values at the boundary quadrature points, shape (k, 3)."""
        return np.einsum("qi,ki->kq", self.edge_lambda, values[self.boundary_edges])

    def tri_gradients(self, values):
        """Piecewise-constant gradient per triangle, shape (m, 2)."""
        return np.einsum("mi,mid->md", values[self.triangles], self.grads)


class _TriLocator:
    """Uniform-grid bucket index over triangles for O(1) point location."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        p = mesh.nodes[mesh.triangles]
        self.lo = mesh.nodes.min(axis=0) - 1e-9
        hi = mesh.nodes.max(axis=0) + 1e-9
        self.cell = max(mesh.h_max, 1e-12)
        self.shape = np.maximum(1, np.ceil((hi - self.lo) / self.cell).astype(int))
        tlo = ((p.min(axis=1) - self.lo) / self.cell).astype(int)
        thi = ((p.max(axis=1) - self.lo) / self.cell).astype(int)
        buckets: dict = {}
        for t in range(len(p)):
            for ix in range(tlo[t, 0], min(thi[t, 0], self.shape[0] - 1) + 1):
                for iy in range(tlo[t, 1], min(thi[t, 1], self.shape[1] - 1) + 1):
                    buckets.setdefault((ix, iy), []).append(t)
        maxc = max(len(v) for v in buckets.values())
        self.cand = -np.ones((self.shape[0], self.shape[1], maxc), dtype=np.int64)
        for (ix, iy), lst in buckets.items():
            self.cand[ix, iy, : len(lst)] = lst

    def _best_of(self, points, cand):
        m = self.mesh
        safe = np.maximum(cand, 0)
        p0 = m.nodes[m.triangles[safe, 0]]                   # (n, maxc, 2)
        d = points[:, None, :] - p0
        # barycentric coordinates via the cached basis gradients
        g1 = m.grads[safe, 1]
        g2 = m.grads[safe, 2]
        l1 = np.einsum("ncd,ncd->nc", g1, d)
        l2 = np.einsum("ncd,ncd->nc", g2, d)
        l0 = 1.0 - l1 - l2
        score = np.minimum(np.minimum(l0, l1), l2)
        score = np.where(cand < 0, -np.inf, score)
        best = np.argmax(score, axis=1)
        return cand[np.arange(len(points)), best]

    def query(self, points) -> np.ndarray:
        ij = np.clip(
            ((points - self.lo) / self.cell).astype(int), 0, self.shape - 1
        )
        out = self._best_of(points, self.cand[ij[:, 0], ij[:, 1]])
        missing = np.nonzero(out < 0)[0]
        # exterior points can land in empty cells; widen the search ring
        for row in missing:
            found = -1
            for ring in (1, 2, 4):
                x0 = max(0, ij[row, 0] - ring)
                x1 = min(self.shape[0], ij[row, 0] + ring + 1)
                y0 = max(0, ij[row, 1] - ring)
                y1 = min(self.shape[1], ij[row, 1] + ring + 1)
                cand = np.unique(self.cand[x0:x1, y0:y1])
                cand = cand[cand >= 0]
                if cand.size:
                    found = self._best_of(points[row][None, :], cand[None, :])[0]
                    break
            if found < 0:
                raise ValueError("point location failed: point far outside the mesh")
            out[row] = found
        return out


class FemFunction:
    """Piecewise-linear nodal field on a mesh."""

    def __init__(self, mesh: Mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_nodes,):
            raise MeshMismatch("nodal value count does not match the mesh")
        self.mesh = mesh
        self.values = values

    def __sub__(self, other: "FemFunction") -> "FemFunction":
        if other.mesh is not self.mesh:
            raise MeshMismatch("fields live on different meshes")
        return FemFunction(self.mesh, self.values - other.values)

    def __add__(self, other: "FemFunction") -> "FemFunction":
        if other.mesh is not self.mesh:
            raise MeshMismatch("fields live on different meshes")
        return FemFunction(self.mesh, self.values + other.values)

    def value_grad_at(self, points):
        """Field value and (piecewise-constant) gradient at arbitrary points.

        Points slightly outside the mesh polygon (e.g. on the curved boundary)
        are evaluated by linear extension of the nearest triangle.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        t = self.mesh.find_triangles(pts)
        tri = self.mesh.triangles[t]
        p0 = self.mesh.nodes[tri[:, 0]]
        g1 = self.mesh.grads[t, 1]
        g2 = self.mesh.grads[t, 2]
        d = pts - p0
        l1 = np.einsum("nd,nd->n", g1, d)
        l2 = np.einsum("nd,nd->n", g2, d)
        l0 = 1.0 - l1 - l2
        v = self.values[tri]
        val = l0 * v[:, 0] + l1 * v[:, 1] + l2 * v[:, 2]
        grad = np.einsum("ni,nid->nd", v, self.mesh.grads[t])
        return val, grad

    def value_at(self, points):
        return self.value_grad_at(points)[0]


# ---------------------------------------------------------------------------
# meshing


def build_mesh(domain: Domain, h_target: float, node_budget: int = 200_000) -> Mesh:
    """Quasi-uniform triangulation of the disk or ellipse.

    Concentric rings of nodes (6j nodes on ring j) triangulated by Delaunay;
    boundary nodes are placed exactly on the curved boundary.  Guarantees
    h_max <= 1.5 h_target and minimum angle >= 20 degrees.
    """
    if domain.kind == "ball" and domain.dim != 2:
        raise BadResolution("meshing is 2-d only (disk/ellipse)")
    if not (0 < h_target < domain.diameter):
        raise BadResolution(f"h_target must lie in (0, diameter), got {h_target}")
    if domain.kind == "ellipse":
        a, b = domain.semi_axes
        scale = np.array([a, b])
        h_unit = h_target / a
    else:
        scale = np.array([domain.radius, domain.radius])
        h_unit = h_target / domain.radius

    n_r = max(2, math.ceil(1.0 / h_unit))
    est = 3 * n_r * (n_r + 1) + 1
    if est > node_budget:
        raise BadResolution(f"mesh would need ~{est} nodes (budget {node_budget})")

    pts = [np.zeros((1, 2))]
    for j in range(1, n_r + 1):
        mj = 6 * j
        theta = 2.0 * math.pi * (np.arange(mj) + 0.5 * (j % 2)) / mj
        r = j / n_r
        pts.append(np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1))
    nodes = np.vstack(pts) * scale

    tri = Delaunay(nodes)
    simplices = tri.simplices
    # drop slivers Delaunay may create between co-circular boundary nodes
    p = nodes[simplices]
    s1, s2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area2 = s1[:, 0] * s2[:, 1] - s1[:, 1] * s2[:, 0]
    simplices = simplices[np.abs(area2) > 1e-14 * float(np.max(np.abs(area2)))]

    m_out = 6 * n_r
    first_out = len(nodes) - m_out
    ring = np.arange(first_out, len(nodes))
    boundary_edges = np.stack([ring, np.roll(ring, -1)], axis=1)

    mesh = Mesh(nodes, simplices, boundary_edges)
    if mesh.h_max > 1.5 * h_target:
        raise BadResolution(
            f"mesh generator exceeded the edge bound: h_max={mesh.h_max:g} > 1.5*{h_target:g}"
        )
    if min_angle(mesh) < 20.0 - 1e-9:
        raise BadResolution(f"mesh quality too low: min angle {min_angle(mesh):.2f} deg")
    return mesh


def min_angle(mesh: Mesh) -> float:
    """Smallest interior angle over all triangles, in degrees."""
    p = mesh.nodes[mesh.triangles]
    ang = []
    for i in range(3):
        u = p[:, (i + 1) % 3] - p[:, i]
        v = p[:, (i + 2) % 3] - p[:, i]
        c = np.einsum("md,md->m", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        ang.append(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))
    return float(np.min(ang))


# ---------------------------------------------------------------------------
# norms


def l2_norm(fn: FemFunction) -> float:
    v = fn.values[fn.mesh.triangles]
    s = v.sum(axis=1)
    val = np.sum(fn.mesh.areas / 12.0 * (np.einsum("mi,mi->m", v, v) + s * s))
    return float(np.sqrt(val))


def h1_seminorm(fn: FemFunction) -> float:
    g = fn.mesh.tri_gradients(fn.values)
    return float(np.sqrt(np.sum(fn.mesh.areas * np.einsum("md,md->m", g, g))))


def h1_norm(fn: FemFunction) -> float:
    return float(math.hypot(l2_norm(fn), h1_seminorm(fn)))


def h1_error(fn: FemFunction, reference) -> float:
    """H^1 distance to a callable reference.

    ``reference(points)`` must return (values, gradients); the integrand is
    evaluated with the degree-4 element rule.
    """
    mesh = fn.mesh
    qx = mesh.quad_x.reshape(-1, 2)
    rv, rg = reference(qx)
    rv = np.asarray(rv, dtype=float).reshape(mesh.quad_w.shape)
    rg = np.asarray(rg, dtype=float).reshape(mesh.quad_w.shape + (2,))
    uv = mesh.quad_values(fn.values)
    ug = mesh.tri_gradients(fn.values)[:, None, :]
    err = (uv - rv) ** 2 + np.sum((ug - rg) ** 2, axis=2)
    return float(np.sqrt(np.sum(mesh.quad_w * err)))


# ---------------------------------------------------------------------------
# solves


_DAMPING = 0.5  # relaxation of the inner fixed point


def solve_g_lifting(mesh: Mesh, g_quad) -> FemFunction:
    """Riesz lift of the divergence functional: find G with

        (grad G, grad v) + (G, v) = (g, grad v)   for all P1 test v.

    ``g_quad`` is g at the element quadrature points ``mesh.quad_x``, shape (m, 6, 2).
    """
    return FemFunction(mesh, mesh.gram_solve(mesh.gradient_load(g_quad)))


class WeakForm:
    """The discretized weak form of one (mesh, coefficients) pair.

    The left-hand side is assembled on first use and factorized once, on the
    first solve.  The divergence part (g, grad v) of the right-hand side is
    passed in as a load vector, so a caller freezing g evaluates it once.
    """

    def __init__(self, mesh: Mesh, coeffs):
        self.mesh = mesh
        self.coeffs = coeffs

    @cached_property
    def lhs(self):
        mesh = self.mesh
        qx = mesh.quad_x.reshape(-1, 2)
        nq = mesh.quad_w.shape
        q_quad = np.asarray(self.coeffs.q_at(qx), dtype=float).reshape(nq)
        b_quad = np.asarray(self.coeffs.b_at(qx), dtype=float).reshape(nq + (2,))
        lhs = 0.5 * mesh.stiffness() - mesh.weighted_mass(q_quad)
        if np.any(b_quad != 0.0):
            lhs = lhs - mesh.convection(b_quad)
        return lhs

    @cached_property
    def _lu(self):
        try:
            return spla.splu(self.lhs.tocsc())
        except RuntimeError as exc:
            raise SingularSystem(str(exc)) from exc

    def _state(self, values):
        """Points, field values and gradients at the quadrature points, flattened."""
        mesh = self.mesh
        y = mesh.quad_values(values).reshape(-1)
        z = np.repeat(mesh.tri_gradients(values), len(_QW), axis=0)
        return mesh.quad_x.reshape(-1, 2), y, z

    def divergence(self, values):
        """g(., u, grad u) at ``mesh.quad_x`` for the nodal ``values``, shape (m, 6, 2)."""
        g = self.coeffs.g_at(*self._state(values))
        return np.asarray(g, dtype=float).reshape(self.mesh.quad_x.shape)

    def load(self, values, g_load):
        """Right-hand side with f and h at the nodal ``values``, plus ``g_load``."""
        mesh = self.mesh
        f = self.coeffs.f_at(*self._state(values))
        h = self.coeffs.h_at(mesh.edge_x.reshape(-1, 2), mesh.edge_values(values).reshape(-1))
        f_quad = np.asarray(f, dtype=float).reshape(mesh.quad_w.shape)
        h_edge = np.asarray(h, dtype=float).reshape(mesh.edge_w.shape)
        return mesh.load(f_quad) + g_load + 0.5 * mesh.boundary_load(h_edge)

    def residual(self, values, g_load) -> float:
        """Dual norm of H^1 of the weak-form residual at the nodal ``values``."""
        return self.mesh.dual_norm(self.lhs @ values - self.load(values, g_load))

    def solve(self, g_load, inner_tol: float = 1e-10, u0=None, budget: int = 200) -> FemFunction:
        """Solve with the divergence load ``g_load`` frozen.

        The implicit dependence of f and h on the solution is resolved by a
        damped fixed-point iteration; raises :class:`InnerDivergence` when the
        residual (dual norm of H^1) fails to reach ``inner_tol`` within
        ``budget`` steps.
        """
        u = np.zeros(self.mesh.n_nodes) if u0 is None else np.array(u0, dtype=float)
        resid = float("inf")
        for _ in range(budget):
            rhs = self.load(u, g_load)
            resid = self.mesh.dual_norm(self.lhs @ u - rhs)
            if not np.isfinite(resid):
                raise InnerDivergence("inner iteration diverged (non-finite residual)", resid)
            if resid <= inner_tol:
                return FemFunction(self.mesh, u)
            u = (1.0 - _DAMPING) * u + _DAMPING * self._lu.solve(rhs)
        raise InnerDivergence(
            f"inner iteration did not reach tol={inner_tol:g} in {budget} steps", resid
        )


def solve_semilinear_g_frozen(
    mesh: Mesh, coeffs, g_quad=None, inner_tol: float = 1e-10, u0=None, budget: int = 200
) -> FemFunction:
    """One outer step: solve the problem with the divergence field frozen.

    ``coeffs`` provides vectorized ``f_at(x, y, z)``, ``h_at(x, y)``,
    ``q_at(x)``, ``b_at(x)``; ``g_quad`` is the frozen g at ``mesh.quad_x``,
    shape (m, 6, 2), or None for g = 0.  See :meth:`WeakForm.solve`.
    """
    g_load = np.zeros(mesh.n_nodes) if g_quad is None else mesh.gradient_load(g_quad)
    return WeakForm(mesh, coeffs).solve(g_load, inner_tol=inner_tol, u0=u0, budget=budget)


def residual_dual_norm(mesh: Mesh, coeffs, u: FemFunction) -> float:
    """Dual norm of the full nonlinear weak-form residual, with f, h and g at ``u``."""
    form = WeakForm(mesh, coeffs)
    return form.residual(u.values, mesh.gradient_load(form.divergence(u.values)))


# ---------------------------------------------------------------------------
# plain-text export / import


def export_mesh(mesh: Mesh, path):
    with open(path, "w") as out:
        out.write("mesh-p1 1\n")
        out.write(f"nodes {mesh.n_nodes}\n")
        for i, (x, y) in enumerate(mesh.nodes):
            out.write(f"{i} {float(x)!r} {float(y)!r}\n")
        out.write(f"triangles {len(mesh.triangles)}\n")
        for i, (a, b, c) in enumerate(mesh.triangles):
            out.write(f"{i} {a} {b} {c}\n")
        out.write(f"boundary_edges {len(mesh.boundary_edges)}\n")
        for a, b in mesh.boundary_edges:
            out.write(f"{a} {b}\n")


class MeshLoadError(ValueError):
    """Mesh file malformed or truncated."""


def import_mesh(path) -> Mesh:
    with open(path) as src:
        if src.readline().split()[:1] != ["mesh-p1"]:
            raise MeshLoadError(f"{path}: not a mesh file")
        nodes = _read_section(src, path, "nodes", 1, 2, float)
        tris = _read_section(src, path, "triangles", 1, 3, np.int64)
        edges = _read_section(src, path, "boundary_edges", 0, 2, np.int64)
    return Mesh(nodes, tris, edges)


def _read_section(src, path, tag, skip, width, dtype):
    """Rows of a ``tag count`` section, each with ``skip`` leading index columns."""
    head = src.readline().split()
    if len(head) != 2 or head[0] != tag or not head[1].isdigit():
        raise MeshLoadError(f"{path}: expected '{tag} <count>', got {' '.join(head)!r}")
    rows = [src.readline().split()[skip:] for _ in range(int(head[1]))]
    if any(len(row) != width for row in rows):
        raise MeshLoadError(f"{path}: section {tag!r} is truncated or malformed")
    return np.array(rows, dtype=dtype)


def export_field(fn: FemFunction, path):
    """Write the field as CSV rows of (node index, x, y, value)."""
    with open(path, "w") as out:
        out.write("node,x,y,value\n")
        for i, ((x, y), v) in enumerate(zip(fn.mesh.nodes, fn.values)):
            out.write(f"{i},{float(x)!r},{float(y)!r},{float(v)!r}\n")


class FieldLoadError(ValueError):
    """Field file malformed or inconsistent with its mesh."""


def import_field(path, mesh: Mesh) -> FemFunction:
    with open(path) as src:
        header = src.readline().strip()
        if header != "node,x,y,value":
            raise FieldLoadError(f"{path}: unexpected header {header!r}")
        rows = [line.split(",") for line in src if line.strip()]
    if len(rows) != mesh.n_nodes:
        raise FieldLoadError(
            f"{path}: {len(rows)} rows for a mesh with {mesh.n_nodes} nodes"
        )
    vals = np.empty(mesh.n_nodes)
    for row in rows:
        i = int(row[0])
        x, y = float(row[1]), float(row[2])
        if not np.allclose(mesh.nodes[i], (x, y), atol=1e-9):
            raise FieldLoadError(f"{path}: node {i} position mismatch")
        vals[i] = float(row[3])
    return FemFunction(mesh, vals)
