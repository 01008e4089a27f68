"""Bounded smooth domains: hit test, projection, measures, points on and in them.

A domain is what the path engine asks of it: ``outside``, the mask of the
points that left the closed domain, and ``project_points``, their nearest
boundary points with the inward unit normal there and the distance to them.
Built-in shapes are the N-ball (the disk is the 2-ball) and the axis-aligned
ellipse.  Only this module branches on the shape; other modules read
``semi_axes`` or call ``outside`` and ``project_points``.  It imports numpy
alone: the measures' Gamma and E(m) port scipy.special's Cephes code bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# The ellipse's hot loops hold their constants as 0-d arrays: numpy takes one
# faster than a Python float (about 0.45 against 0.7 us on 75 points) and rounds alike.
_ONE, _TWO, _ZERO = np.array(1.0), np.array(2.0), np.array(0.0)
_TINY = np.array(np.finfo(float).tiny)
# |G| at which a foot has converged: three ulps of 1, which every point of the
# sweep in _secular_start reaches; 2e-15 left feet near the major vertex of the
# 1.5 x 1 ellipse up to 1.5e-15 off it
_G_TOL = np.array(3.0 * np.finfo(float).eps)
_GRID_SEED = 20_250_101  # the rejection sample of interior_grid
# the least share of bounding-box draws that rejection sampling accepts: the 13-ball's
# 1.1e-4 passes, the 14-ball's 3.7e-5 and every higher ball's fewer are refused
_MIN_ACCEPTANCE = 1e-4
# Cephes (S. L. Moshier, Methods and Programs for Mathematical Functions, 1989)
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
            4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
            1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)
_ELLPE_P = (1.53552577301013293365e-4, 2.50888492163602060990e-3, 8.68786816565889628429e-3,
            1.07350949056076193403e-2, 7.77395492516787092951e-3, 7.58395289413514708519e-3,
            1.15688436810574127319e-2, 2.18317996015557253103e-2, 5.68051945617860553470e-2,
            4.43147180560990850618e-1, 1.00000000000000000299e0)
_ELLPE_Q = (3.27954898576485872656e-5, 1.00962792679356715133e-3, 6.50609489976927491433e-3,
            1.68862163993311317300e-2, 2.61769742454493659583e-2, 3.34833904888224918614e-2,
            4.27180926518931511717e-2, 5.85936634471101055642e-2, 9.37499997197644278445e-2,
            2.49999999999888314361e-1)


def _polevl(x: float, coef) -> float:
    """Cephes' polevl: Horner's rule from the leading coefficient."""
    return functools.reduce(lambda ans, c: ans * x + c, coef)


def _gamma(x: float) -> float:
    """Cephes' Gamma for 1 <= x <= 33, the branch below Stirling's series."""
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        z /= x
        x += 1.0
    return z * _polevl(x - 2.0, _GAMMA_P) / _polevl(x - 2.0, _GAMMA_Q)  # P/Q(0) is 1.0/1.0


def _ellipe(m: float) -> float:
    """Cephes' ellpe: E(m) = int_0^{pi/2} sqrt(1 - m sin^2 t) dt for 0 <= m < 1."""
    x = 1.0 - m
    return _polevl(x, _ELLPE_P) - math.log(x) * (x * _polevl(x, _ELLPE_Q))


@dataclass(frozen=True)
class Domain:
    """Immutable description of a built-in smooth bounded domain.

    kind: "ball" (N-d, 2 <= N <= 64) or "ellipse" (2-d).  semi_axes holds one
    half-width per axis: the radius on every axis of a ball, and (a, b) with
    a >= b on the ellipse.  The disk is the 2-ball.
    """

    kind: str
    semi_axes: tuple[float, ...]

    @classmethod
    def disk(cls, radius: float = 1.0) -> "Domain":
        return cls.ball(2, radius)

    @classmethod
    def ball(cls, dim: int = 3, radius: float = 1.0) -> "Domain":
        if not 2 <= dim <= 64:  # Gamma(dim/2 + 1) <= 33, on the branch _gamma ports
            raise ValueError(f"ball dimension must be between 2 and 64, got {dim}")
        if not radius > 0:
            raise ValueError("radius must be positive")
        return cls(kind="ball", semi_axes=(float(radius),) * int(dim))

    @classmethod
    def ellipse(cls, a: float, b: float) -> "Domain":
        if not a >= b > 0:
            raise ValueError(f"need a >= b > 0, the x1 semi-axis a the longer; got a={a}, b={b}")
        return cls(kind="ellipse", semi_axes=(float(a), float(b)))

    @property
    def dim(self) -> int:
        return len(self.semi_axes)

    @property
    def radius(self) -> float:
        """The ball's radius; on the ellipse, its semi-major axis."""
        return self.semi_axes[0]

    @property
    def volume(self) -> float:
        if self.kind == "ball":
            n = self.dim
            return math.pi ** (n / 2) / _gamma(n / 2 + 1) * self.radius**n
        a, b = self.semi_axes
        return math.pi * a * b

    @property
    def boundary_measure(self) -> float:
        if self.kind == "ball":
            n = self.dim
            # 2 pi^(n/2) / Gamma(n/2) r^(n-1): exactly 2 pi r on the disk
            return 2.0 * math.pi ** (n / 2) / _gamma(n / 2) * self.radius ** (n - 1)
        a, b = self.semi_axes
        # perimeter of the ellipse, complete elliptic integral of 2nd kind
        return 4.0 * a * _ellipe(1.0 - (b / a) ** 2)

    @property
    def diameter(self) -> float:
        return 2.0 * self.semi_axes[0]

    @functools.cached_property
    def _ellipse(self) -> "_EllipseConstants":
        a, b = self.semi_axes
        c = a * a - b * b
        axes, scale = np.array([a, b]), np.array([-a * a, -b * b])
        axes.flags.writeable = scale.flags.writeable = False
        return _EllipseConstants(np.array(a), np.array(b), np.array(c), np.array(b * b),
                                 np.array(math.sqrt(c / 2.0)), axes, scale)


class _EllipseConstants(NamedTuple):
    """An ellipse's constants as numpy takes them fastest: scalars as 0-d arrays."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray  # a^2 - b^2
    bb: np.ndarray  # b^2
    root_half_c: np.ndarray  # sqrt(c / 2)
    axes: np.ndarray  # (a, b)
    gradient_scale: np.ndarray  # (-a^2, -b^2): the foot divided by it points inward


def _norm(pts: np.ndarray) -> np.ndarray:
    """Row norms of (m, d) points; in 2-d sqrt(x*x + y*y), rounded as einsum rounds it."""
    if pts.shape[1] != 2:  # d >= 3 keeps einsum's rounding, not that of a sequential sum
        return np.sqrt(np.einsum("ij,ij->i", pts, pts))
    sq = pts * pts  # both columns in one contiguous product
    return np.sqrt(sq[:, 0] + sq[:, 1])


def outside(domain: Domain, pts: np.ndarray) -> np.ndarray:
    """Mask of the points (m, d) outside the closed domain.

    On the ball |x| > r with |x| rounded as project_points rounds it (|x|^2 >
    r^2 differs on the last ulp of the sphere); on the ellipse the sign of the
    implicit quadratic 1 - (x/a)^2 - (y/b)^2.
    """
    if domain.kind == "ball":
        return _norm(pts) > domain.radius
    k = domain._ellipse
    x, y = pts[:, 0] / k.a, pts[:, 1] / k.b
    x *= x
    y *= y
    # a rounded difference is negative exactly where the exact one is, so this is
    # 1 - x^2 - y^2 < 0 to the bit, in one subtraction fewer
    return _ONE - x < y


def _project_ellipse(domain: Domain, pts: np.ndarray):
    """Nearest-point projection onto the ellipse boundary, by Newton's method.

    With c = a^2 - b^2, A = a|x| and B = b|y|, the foot of (|x|, |y|) is
    (a fx, b fy) with fx = A / (s + c) and fy = B / s, where s > 0 is the root
    of G(s) = fx^2 + fy^2 - 1 off the medial axis.  Solving in s rather than in
    t = s - b^2 keeps the foot on the ellipse also when s is tiny (points close
    to the major axis inside the evolute), where t would be resolved only to
    ulp(b^2).  G is convex and decreasing, so Newton from a lower bound of the
    root rises monotonically to it; see :func:`_secular_start`.  Medial-axis
    points (second coordinate ~0, first up to the evolute's cusp) get the
    positive-y foot; the exact center gets the foot (0, b).

    A step's hits are few (about 75 on ``fk_ellipse``), so a call costs per numpy
    call more than per point: (A, B), (s + c, s) and (fx, fy) are each one (m, 2)
    array, which one call divides and squares.
    """
    a, b = domain.semi_axes
    k = domain._ellipse
    apts = np.abs(pts)
    ax_, ay_ = apts[:, 0], apts[:, 1]
    c2 = a * a - b * b
    medial = None
    # only points within 1e-14 a of the major axis can be medial; the engine's hits,
    # all outside the ellipse, are not, so they never pay for the mask
    if np.minimum.reduce(ay_, initial=np.inf) < 1e-14 * a:
        on_axis = ay_ < 1e-14 * a
        # points on the major axis up to the evolute's cusp have an off-axis nearest foot
        mask = on_axis & (ax_ * a <= c2) if c2 > 0 else on_axis & (ax_ == 0.0)
        if mask.any():
            medial = mask
            apts = apts[~mask]

    foot = np.empty_like(pts)
    if len(apts):
        AB = apts * k.axes  # (A, B)
        S = np.empty_like(AB)  # (s + c, s)
        sc, s = S[:, 0], S[:, 1]
        _secular_start(k, AB[:, 0], AB[:, 1], out=s)
        q = apts / k.axes
        q *= q
        # outside the ellipse the root has t >= 0, that is s >= b^2
        np.maximum(s, k.bb, out=s, where=q[:, 0] + q[:, 1] > _ONE)
        F2 = np.empty_like(AB)
        fx2, fy2 = F2[:, 0], F2[:, 1]
        for _ in range(12):  # a cap well above the seven checks the sweep needed
            np.add(s, k.c, out=sc)
            F = AB / S  # (fx, fy)
            np.multiply(F, F, out=F2)
            g = fx2 + fy2
            g -= _ONE
            # a converged foot stays put, so it does not depend on its batch
            open_ = np.abs(g) > _G_TOL
            if not np.count_nonzero(open_):
                break
            # the step s + g / (2 (fx^2 / sc + fy^2 / s))
            F2 /= S
            den = fx2 + fy2
            den *= _TWO
            g /= den
            g += s
            np.copyto(s, g, where=open_)
        if medial is None:
            np.multiply(F, k.axes, out=foot)
        else:
            foot[~medial] = F * k.axes
    np.copysign(foot, pts, out=foot)
    if medial is not None:
        if c2 > 0:
            mx = np.minimum(a * a * ax_[medial] / c2, a)
            my = b * np.sqrt(np.maximum(0.0, 1.0 - (mx / a) ** 2))  # tie-break: positive y
        else:
            # circle written as an ellipse: center resolves along the first axis
            mx, my = a, 0.0
        foot[medial, 0] = np.where(pts[medial, 0] >= 0, mx, -mx)
        foot[medial, 1] = my
    return foot


def _secular_start(k: _EllipseConstants, A: np.ndarray, B: np.ndarray, out: np.ndarray):
    """A lower bound of the root s of G, the start of the Newton iteration, into out.

    At the root fx <= 1 and fy <= 1, so s >= B and s >= A - c.  With e = c - A,
    1 - fx^2 = (s + e)(s + c + A) / (s + c)^2 <= 2 (s + e) / c, so the root
    has s^2 (s + e) >= K = B^2 c / 2 and lies at or above the root s* of
    s^2 (s + e) = K.  If e >= 0, s* <= cbrt(K) and so s*^2 >= K / (cbrt(K) + e);
    if e < 0, s* >= cbrt(K).  Either way s >= sqrt(K / (cbrt(K) + max(e, 0))),
    which stays within a few times the root near the evolute's cusp, where the
    first two bounds fall far short.  From the largest of the three, every
    point of a dense sweep (interior and exterior points, the axes, and points
    within 1e-6 of the cusp, on six ellipses from 1 x 1 to 10 x 1) reached
    |G| <= _G_TOL within seven checks.
    """
    d = A - k.c
    beta = B * k.root_half_c  # sqrt(K)
    den = np.cbrt(beta)
    den *= den
    den -= np.minimum(d, _ZERO)  # + max(e, 0), to the bit
    den += _TINY  # keeps 0 / 0 out on the major axis beyond the cusp (B = 0, e <= 0)
    beta /= np.sqrt(den, out=den)
    np.maximum(B, d, out=d)
    np.maximum(d, beta, out=out)


def project_points(domain: Domain, x) -> tuple:
    """Vectorized nearest-boundary projection.

    Returns (foot, inward_normal, distance) for points of shape (m, d);
    ``distance`` is |x - foot| >= 0 regardless of side.  Where the nearest
    boundary point is not unique, a fixed tie-break decides: the first
    coordinate axis at the ball's center, the positive second coordinate at
    the ellipse's medial-axis points.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if domain.kind == "ball":
        r0 = domain.radius
        r = _norm(pts)
        pos = r > 0
        if np.count_nonzero(pos) == len(r):  # no point at the center: every engine hit
            foot = pts * (r0 / r)[:, None]
        else:
            foot = pts * (r0 / np.where(pos, r, np.inf))[:, None]
            foot[:, 0][r == 0] = r0  # tie-break at the exact center; faster than [r == 0, 0]
        return foot, foot / -r0, np.abs(r - r0)
    foot = _project_ellipse(domain, pts)
    normal = foot / domain._ellipse.gradient_scale  # -(x/a^2, y/b^2): inward at the foot
    normal /= _norm(normal)[:, None]
    dist = _norm(pts - foot)
    return foot, normal, dist


def boundary_points(domain: Domain, m: int) -> np.ndarray:
    """(m, d) boundary points: m equal angles times the semi-axes, or a Fibonacci sphere."""
    if domain.kind == "ball" and domain.dim == 3:
        i = np.arange(m)
        z = 1.0 - 2.0 * (i + 0.5) / m
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return domain.radius * np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    if domain.dim != 2:
        raise NotImplementedError(f"no boundary points for kind={domain.kind} dim={domain.dim}")
    theta = 2.0 * math.pi * np.arange(m) / m
    return np.stack([np.cos(theta), np.sin(theta)], axis=1) * domain.semi_axes


class LowAcceptance(ValueError):
    """The domain fills too little of its bounding box to be sampled by rejection."""


def check_acceptance(domain: Domain) -> None:
    """Raise LowAcceptance where rejection from the bounding box accepts under 1e-4."""
    acceptance = domain.volume / math.prod(2.0 * h for h in domain.semi_axes)
    if acceptance < _MIN_ACCEPTANCE:
        raise LowAcceptance(
            f"the {domain.dim}-d {domain.kind} fills {acceptance:.3g} of its bounding box, "
            f"below the {_MIN_ACCEPTANCE:g} that sampling it uniformly by rejection needs")


def sample_uniform(domain: Domain, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points uniformly on the domain by rejection from its bounding box.

    Raises LowAcceptance before any draw where the box accepts under 1e-4 of them,
    as it does on balls of 14 dimensions and more.
    """
    check_acceptance(domain)
    half = np.array(domain.semi_axes)
    out = np.empty((n, domain.dim))
    got = 0
    while got < n:
        cand = rng.uniform(-1.0, 1.0, size=(2 * (n - got) + 8, domain.dim)) * half
        cand = cand[~outside(domain, cand)]
        take = min(len(cand), n - got)
        out[got : got + take] = cand[:take]
        got += take
    return out


def interior_grid(domain: Domain, n: int) -> np.ndarray:
    """Deterministic pseudo-grid of n points of the domain: a fixed-seed rejection sample."""
    return sample_uniform(domain, n, np.random.default_rng(_GRID_SEED))
