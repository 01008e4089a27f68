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
from scipy.spatial import Delaunay, cKDTree

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


class PointLocationError(ValueError):
    """A point lies farther than h_max outside the mesh."""


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
        self._precompute()
        self._cache: dict = {}

    # -- construction helpers ------------------------------------------------

    def _precompute(self):
        p = self.nodes[self.triangles]                       # (m, 3, 2)
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        flip = det < 0
        if flip.any():  # orient counter-clockwise; swapping two vertices negates det exactly
            self.triangles = self.triangles.copy()
            self.triangles[flip] = self.triangles[flip][:, [0, 2, 1]]
            p, det = self.nodes[self.triangles], np.abs(det)
        self.areas = 0.5 * det
        if np.any(self.areas <= 0):
            raise BadResolution("degenerate (zero-area) triangle in mesh")
        # gradient of barycentric basis i: rotate opposite edge by 90 deg / (2A)
        a, b = np.roll(p, -1, axis=1), np.roll(p, -2, axis=1)  # vertices i + 1 and i + 2
        grads = np.stack([a[..., 1] - b[..., 1], b[..., 0] - a[..., 0]], axis=-1)
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

    @cached_property
    def neighbors(self) -> np.ndarray:
        """(m, 3): the triangle across the edge opposite local vertex i, or -1 on the boundary."""
        edges = np.sort(self.triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2), axis=1)
        key = edges[:, 0] * self.n_nodes + edges[:, 1]
        order = np.argsort(key, kind="stable")
        same = key[order[1:]] == key[order[:-1]]  # the two sides of an interior edge
        a, b = order[:-1][same], order[1:][same]
        nb = np.full(len(key), -1, dtype=np.int64)
        nb[a], nb[b] = b // 3, a // 3
        return nb.reshape(-1, 3)

    @cached_property
    def _centroids(self):
        return cKDTree(self.nodes[self.triangles].mean(axis=1))

    @cached_property
    def _frames(self):
        """(6, m): first vertex and gradients of barycentrics 1 and 2, one row each."""
        return np.vstack([self.nodes[self.triangles[:, 0]].T, self.grads[:, 1:].reshape(-1, 4).T])

    def _barycentric(self, x, y, t):
        """Barycentric coordinates (l0, l1, l2) of the points (x, y) in triangles ``t``."""
        x0, y0, a1, b1, a2, b2 = self._frames[:, t]
        dx, dy = x - x0, y - y0
        l1 = a1 * dx + b1 * dy
        l2 = a2 * dx + b2 * dy
        return 1.0 - l1 - l2, l1, l2

    @cached_property
    def _boundary(self):
        """Per boundary edge: outward unit normal, offset, and its triangle and neighbours."""
        t, i = np.nonzero(self.neighbors < 0)
        normal = -self.grads[t, i] / np.linalg.norm(self.grads[t, i], axis=1)[:, None]
        offset = np.einsum("kd,kd->k", normal, self.nodes[self.triangles[t, (i + 1) % 3]])
        near = np.column_stack([t, self.neighbors[t]])
        return normal, offset, np.where(near < 0, t[:, None], near)

    def find_triangles(self, points, hint=None) -> np.ndarray:
        """Index of the triangle containing each point, found by a walk.

        Each walk starts from ``hint`` (say, a path's triangle at its last step) or from
        the nearest centroid, and crosses the edge of the most negative barycentric until
        the point is contained (to 1e-13) or that edge is on the boundary, assumed convex.
        A point outside the mesh gets, of the triangle of the boundary edge it lies
        farthest beyond and that triangle's neighbours, the one whose smallest
        barycentric is largest; beyond ``h_max`` it raises PointLocationError.  So the
        answer depends on the point alone, save on shared edges.  A walk that cycles
        (on a non-Delaunay mesh) ends in the triangle of the best such score overall.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        t = self._centroids.query(pts)[1] if hint is None else np.array(hint, dtype=np.int64)
        out, idx, xs, ys, ts = np.zeros(len(pts), dtype=bool), np.arange(len(pts)), x, y, t
        for _ in range(4 * math.isqrt(len(self.triangles)) + 16):
            l0, l1, l2 = self._barycentric(xs, ys, ts)
            l01 = np.minimum(l0, l1)
            walking = np.minimum(l01, l2) < -1e-13  # slack for rounding on shared edges
            side = np.where(l2 < l01, 2, l1 < l0)
            idx = idx[walking]
            if not idx.size:
                break
            nxt = self.neighbors.ravel()[3 * ts[walking] + side[walking]]
            inside = nxt >= 0
            if not inside.all():
                out[idx[~inside]] = True
                idx, nxt = idx[inside], nxt[inside]
            t[idx] = ts = nxt
            xs, ys = x[idx], y[idx]
        else:  # the walk cycled
            m = len(self.triangles)
            t[idx] = self._best_score(x[idx], y[idx], np.broadcast_to(np.arange(m), (len(idx), m)))
        normal, offset, near = self._boundary
        rows = np.flatnonzero(out)
        for s in range(0, len(rows), 1024):  # bounded blocks of (points, boundary edges)
            part = rows[s:s + 1024]
            gap = pts[part] @ normal.T - offset
            if gap.max() > self.h_max:
                raise PointLocationError(f"a point lies {gap.max():.3g} > h_max outside the mesh")
            t[part] = self._best_score(x[part], y[part], near[gap.argmax(axis=1)])
        return t

    def _best_score(self, x, y, cand):
        """For each point, the candidate triangle (a row of ``cand``) where its smallest
        barycentric is largest."""
        l0, l1, l2 = self._barycentric(x[:, None], y[:, None], cand)
        return cand[np.arange(len(cand)), np.minimum(np.minimum(l0, l1), l2).argmax(axis=1)]

    def quad_values(self, values):
        """P1 field values at the domain quadrature points, shape (m, 6)."""
        return np.einsum("qi,mi->mq", _QL, values[self.triangles])

    def edge_values(self, values):
        """P1 field values at the boundary quadrature points, shape (k, 3)."""
        return np.einsum("qi,ki->kq", self.edge_lambda, values[self.boundary_edges])

    def tri_gradients(self, values):
        """Piecewise-constant gradient per triangle, shape (m, 2)."""
        return np.einsum("mi,mid->md", values[self.triangles], self.grads)


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

    def value_grad_at(self, points, tri=None):
        """Field value and (piecewise-constant) gradient at arbitrary points.

        ``tri`` gives the points' triangles when the caller knows them; else
        :meth:`Mesh.find_triangles` locates the points.  On an edge shared by
        two triangles the gradient may come from either.  Points slightly
        outside the mesh polygon (e.g. on the curved boundary) are evaluated
        by linear extension of their boundary triangle.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        t = self.mesh.find_triangles(pts) if tri is None else tri
        l0, l1, l2 = self.mesh._barycentric(pts[:, 0], pts[:, 1], t)
        v = self.values[self.mesh.triangles[t]]
        val = l0 * v[:, 0] + l1 * v[:, 1] + l2 * v[:, 2]
        return val, np.einsum("ni,nid->nd", v, self.mesh.grads[t])

    def value_at(self, points, tri=None):
        return self.value_grad_at(points, tri)[0]


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
    u, v = p[:, [1, 2, 0]] - p, p[:, [2, 0, 1]] - p
    c = np.einsum("mid,mid->mi", u, v) / (np.linalg.norm(u, axis=2) * np.linalg.norm(v, axis=2))
    return float(np.min(np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))))


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
    """Read a field of ``mesh``: rows in any order, each node once at its position."""
    with open(path) as src:
        header = src.readline().strip()
        if header != "node,x,y,value":
            raise FieldLoadError(f"{path}: unexpected header {header!r}")
        rows = [line.split(",") for line in src if line.strip()]
    if len(rows) != mesh.n_nodes:
        raise FieldLoadError(
            f"{path}: {len(rows)} rows for a mesh with {mesh.n_nodes} nodes"
        )
    try:
        table = np.array(rows, dtype=float).reshape(mesh.n_nodes, 4)
    except ValueError as exc:
        raise FieldLoadError(f"{path}: rows are not four numbers: {exc}") from None
    table = table[np.argsort(table[:, 0], kind="stable")]
    if not np.array_equal(table[:, 0], np.arange(mesh.n_nodes)):
        raise FieldLoadError(f"{path}: node indices are not 0..{mesh.n_nodes - 1}, each once")
    far = ~np.isclose(mesh.nodes, table[:, 1:3], atol=1e-9).all(axis=1)
    if far.any():
        raise FieldLoadError(f"{path}: node {int(np.argmax(far))} position mismatch")
    return FemFunction(mesh, table[:, 3].copy())
