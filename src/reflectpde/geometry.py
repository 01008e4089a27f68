"""Bounded smooth domains: level-set description, normals, projection, quadrature.

A domain is described by a smooth level-set function ``psi`` with ``psi > 0``
inside, ``psi = 0`` on the boundary, and a gradient that equals the unit
inward normal on the boundary.  Built-in shapes are the disk (2-d), the
N-ball, and the axis-aligned ellipse.  The exterior penalization field
``d(x) = dist(x, closure)^2`` and its gradient ``delta = grad d`` support the
penalized reflection scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipe, gamma as _gamma

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


class BadOrder(ValueError):
    """Boundary quadrature order below the minimum of 3."""


class DegenerateProjection(RuntimeError):
    """Nearest boundary point is non-unique and no tie-break applies.

    Not raised for the built-in shapes: symmetry centers and medial-axis
    points are resolved by a fixed deterministic tie-break (first coordinate
    axis for the disk/ball center, positive second coordinate for ellipse
    medial-axis points).
    """


@dataclass(frozen=True)
class Domain:
    """Immutable description of a built-in smooth bounded domain.

    kind: "disk" (2-d), "ball" (N-d, N >= 2), or "ellipse" (2-d, semi-axes a >= b).
    """

    kind: str
    dim: int
    radius: float = 1.0
    semi_axes: tuple[float, float] = (1.0, 1.0)

    @classmethod
    def disk(cls, radius: float = 1.0) -> "Domain":
        if radius <= 0:
            raise ValueError("radius must be positive")
        return cls(kind="disk", dim=2, radius=float(radius))

    @classmethod
    def ball(cls, dim: int = 3, radius: float = 1.0) -> "Domain":
        if dim < 2:
            raise ValueError("ball dimension must be >= 2")
        if radius <= 0:
            raise ValueError("radius must be positive")
        return cls(kind="ball", dim=int(dim), radius=float(radius))

    @classmethod
    def ellipse(cls, a: float, b: float) -> "Domain":
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        if b > a:
            a, b = b, a
        return cls(kind="ellipse", dim=2, semi_axes=(float(a), float(b)))

    @property
    def volume(self) -> float:
        if self.kind == "disk":
            return math.pi * self.radius**2
        if self.kind == "ball":
            n = self.dim
            return math.pi ** (n / 2) / _gamma(n / 2 + 1) * self.radius**n
        a, b = self.semi_axes
        return math.pi * a * b

    @property
    def boundary_measure(self) -> float:
        if self.kind == "disk":
            return 2.0 * math.pi * self.radius
        if self.kind == "ball":
            n = self.dim
            return n * self.volume / self.radius
        a, b = self.semi_axes
        # perimeter of the ellipse, complete elliptic integral of 2nd kind
        return 4.0 * a * ellipe(1.0 - (b / a) ** 2)

    @property
    def diameter(self) -> float:
        if self.kind == "ellipse":
            return 2.0 * self.semi_axes[0]
        return 2.0 * self.radius


def eval_psi(domain: Domain, x) -> tuple:
    """Evaluate the level-set function and its gradient at ``x``.

    For the disk/ball of radius r the canonical choice is
    ``psi(x) = (r^2 - |x|^2) / (2 r)``, whose gradient ``-x/r`` is the exact
    unit inward normal on the boundary.  For the ellipse, the value is the
    implicit quadratic scaled by the local gradient magnitude (floored away
    from the center) and the returned gradient is the scaled quadratic
    gradient, which is the exact unit inward normal on the boundary.

    Accepts a single point (shape (d,)) or a batch (m, d); returns
    (value, gradient) with matching leading shape.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if domain.kind in ("disk", "ball"):
        r0 = domain.radius
        sq = np.einsum("ij,ij->i", pts, pts)
        val = (r0 * r0 - sq) / (2.0 * r0)
        grad = -pts / r0
    else:
        a, b = domain.semi_axes
        q = 1.0 - (pts[:, 0] / a) ** 2 - (pts[:, 1] / b) ** 2
        gq = np.stack([-2.0 * pts[:, 0] / a**2, -2.0 * pts[:, 1] / b**2], axis=1)
        # floor the normalization so psi stays finite at the center where grad q = 0
        norm = np.maximum(np.hypot(gq[:, 0], gq[:, 1]), 1.0 / a)
        val = q / norm
        grad = gq / norm[:, None]
    if single:
        return float(val[0]), grad[0]
    return val, grad


def contains(domain: Domain, x, tol: float = 1e-12) -> str:
    """Classify a point as interior, boundary, or exterior.

    The boundary band is ``tol`` relative to the domain diameter.
    """
    val, _ = eval_psi(domain, np.asarray(x, dtype=float))
    band = tol * domain.diameter
    if abs(val) <= band:
        return BOUNDARY
    return INTERIOR if val > 0 else EXTERIOR


def _project_ellipse(domain: Domain, pts: np.ndarray):
    """Nearest-point projection onto the ellipse boundary (Newton, bisection fallback).

    Solves G(t) = sum_i (axes_i p_i / (t + axes_i^2))^2 - 1 = 0 for the unique
    root t > -b^2 off the medial axis.  G is convex and decreasing, so Newton
    from Eberly's left bracket max(b|y| - b^2, a|x| - a^2), or from t = 0 for a
    point outside, rises monotonically to the root.  G + 1 is the ellipse
    equation at the foot; points with |G| > 2e-15 after 12 checks (interior
    points near an axis, where G jumps by more between adjacent floats of t)
    are bisected.  Medial-axis points (second coordinate ~0, first inside the
    evolute) get the positive-y foot; the exact center gets the foot (0, b).
    """
    a, b = domain.semi_axes
    px, py = pts[:, 0], pts[:, 1]
    sx, sy = np.where(px >= 0, 1.0, -1.0), np.where(py >= 0, 1.0, -1.0)
    ax_, ay_ = np.abs(px), np.abs(py)

    c2 = a * a - b * b
    on_axis = ay_ < 1e-14 * a
    # points on the major axis inside the evolute have an off-axis nearest foot
    medial = on_axis & (ax_ * a < c2) if c2 > 0 else on_axis & (ax_ == 0.0)

    foot = np.empty_like(pts)
    gen = ~medial
    if gen.any():
        gx, gy = ax_[gen], ay_[gen]
        t = np.maximum(b * gy - b * b, a * gx - a * a)
        t = np.where((gx / a) ** 2 + (gy / b) ** 2 > 1.0, np.maximum(t, 0.0), t)
        for _ in range(12):
            fx = a * gx / (t + a * a)
            fy = b * gy / (t + b * b)
            g = fx * fx + fy * fy - 1.0
            slow = ~(np.abs(g) <= 2e-15)  # NaN counts as not converged
            if not slow.any():
                break
            step = g / (2.0 * (fx * fx / (t + a * a) + fy * fy / (t + b * b)))
            t = np.where(slow, t + step, t)
        if slow.any():
            t[slow] = _bisect_secular(a, b, gx[slow], gy[slow])
        foot[gen, 0] = a * a * gx / (t + a * a)
        foot[gen, 1] = b * b * gy / (t + b * b)
    if medial.any():
        if c2 > 0:
            fx = np.minimum(a * a * ax_[medial] / c2, a)
            foot[medial, 0] = fx
            foot[medial, 1] = b * np.sqrt(np.maximum(0.0, 1.0 - (fx / a) ** 2))
            sy[medial] = 1.0  # tie-break: positive-y foot
        else:
            # circle written as an ellipse: center resolves along the first axis
            foot[medial, 0] = a
            foot[medial, 1] = 0.0
    foot[:, 0] *= sx
    foot[:, 1] *= sy
    return foot


def _bisect_secular(a: float, b: float, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Root t > -b^2 of G at the points (|x|, |y|) = (gx, gy), by 80 bisection steps."""
    lo = np.full(gx.shape, -(b * b))
    hi = a * np.hypot(gx, gy) + a * a + b * b  # comfortably above the root
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fx = a * gx / (mid + a * a)
        fy = b * gy / (mid + b * b)
        g = fx * fx + fy * fy - 1.0
        take = g > 0.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    return 0.5 * (lo + hi)


def project_points(domain: Domain, x) -> tuple:
    """Vectorized nearest-boundary projection.

    Returns (foot, inward_normal, distance) for points of shape (m, d);
    ``distance`` is |x - foot| >= 0 regardless of side.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if domain.kind in ("disk", "ball"):
        r0 = domain.radius
        r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        dirs = np.zeros_like(pts)
        dirs[:, 0] = 1.0  # tie-break at the exact center
        ok = r > 0
        dirs[ok] = pts[ok] / r[ok, None]
        foot = r0 * dirs
        normal = -dirs
        dist = np.abs(r - r0)
        return foot, normal, dist
    foot = _project_ellipse(domain, pts)
    _, grad = eval_psi(domain, foot)
    nrm = np.sqrt(np.einsum("ij,ij->i", grad, grad))
    normal = grad / nrm[:, None]
    dist = np.sqrt(np.einsum("ij,ij->i", pts - foot, pts - foot))
    return foot, normal, dist


def project_to_boundary(domain: Domain, x) -> tuple:
    """Nearest boundary point of a single point ``x``.

    Returns (foot, inward_normal, distance).  Symmetry centers are resolved
    deterministically (see :class:`DegenerateProjection`).
    """
    foot, normal, dist = project_points(domain, np.asarray(x, dtype=float)[None, :])
    return foot[0], normal[0], float(dist[0])


def boundary_quadrature(domain: Domain, m: int) -> list:
    """Quadrature rule for the boundary measure: list of (node, weight).

    Weights are positive and sum to the analytic boundary measure.  On the
    disk the rule is the uniform trapezoid rule (exact for trigonometric
    polynomials of degree < m); on the ellipse the arclength-weighted
    trapezoid rule rescaled to the exact perimeter; on the sphere a Fibonacci
    lattice with equal weights (constants exact).
    """
    if m < 3:
        raise BadOrder(f"boundary quadrature needs m >= 3, got {m}")
    sigma = domain.boundary_measure
    if domain.kind == "disk":
        theta = 2.0 * math.pi * np.arange(m) / m
        r0 = domain.radius
        nodes = np.stack([r0 * np.cos(theta), r0 * np.sin(theta)], axis=1)
        w = np.full(m, sigma / m)
    elif domain.kind == "ellipse":
        a, b = domain.semi_axes
        theta = 2.0 * math.pi * np.arange(m) / m
        nodes = np.stack([a * np.cos(theta), b * np.sin(theta)], axis=1)
        speed = np.hypot(a * np.sin(theta), b * np.cos(theta))
        w = speed * (2.0 * math.pi / m)
        w *= sigma / w.sum()
    elif domain.kind == "ball" and domain.dim == 3:
        i = np.arange(m)
        z = 1.0 - 2.0 * (i + 0.5) / m
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        nodes = domain.radius * np.stack(
            [rho * np.cos(phi), rho * np.sin(phi), z], axis=1
        )
        w = np.full(m, sigma / m)
    else:
        raise NotImplementedError(f"no boundary rule for kind={domain.kind} dim={domain.dim}")
    return [(nodes[j], float(w[j])) for j in range(m)]


class PenalizationField:
    """Squared exterior distance ``d`` and its gradient ``delta = grad d``.

    Both vanish on the closed domain; outside, ``d(x) = dist(x, boundary)^2``
    and ``delta(x) = 2 (x - foot(x))`` points away from the domain, so
    ``<grad psi, delta> <= 0`` everywhere.
    """

    def __init__(self, domain: Domain):
        self.domain = domain

    def d(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        val, _ = eval_psi(self.domain, pts)
        _, _, dist = project_points(self.domain, pts)
        out = np.where(val < 0, dist**2, 0.0)
        return float(out[0]) if np.asarray(x).ndim == 1 else out

    def delta(self, x):
        xarr = np.asarray(x, dtype=float)
        pts = np.atleast_2d(xarr)
        val, _ = eval_psi(self.domain, pts)
        foot, _, _ = project_points(self.domain, pts)
        vec = 2.0 * (pts - foot)
        vec[val >= 0] = 0.0
        return vec[0] if xarr.ndim == 1 else vec


def sample_uniform(domain: Domain, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points uniformly on the domain by rejection from its bounding box."""
    if domain.kind == "ellipse":
        half = np.array(domain.semi_axes)
    else:
        half = np.full(domain.dim, domain.radius)
    out = np.empty((n, domain.dim))
    got = 0
    while got < n:
        cand = rng.uniform(-1.0, 1.0, size=(2 * (n - got) + 8, domain.dim)) * half
        val, _ = eval_psi(domain, cand)
        cand = cand[val > 0]
        take = min(len(cand), n - got)
        out[got : got + take] = cand[:take]
        got += take
    return out


def interior_grid(domain: Domain, n: int, seed: int = 20_250_101) -> np.ndarray:
    """Deterministic pseudo-grid of n interior points (seeded rejection sample)."""
    rng = np.random.default_rng(seed)
    return sample_uniform(domain, n, rng)
