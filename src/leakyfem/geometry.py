"""Interaction-support geometries and their side classification.

The interaction support is a curve Sigma that splits the computational
box into two open regions Omega1 and Omega2.  Four catalog geometries are
provided: a broken line through the origin, a closed circle (polygonalized),
a horizontal line plus a disjoint circle, and the meridian ray of an
axisymmetric cone.  Problems posed on the whole plane are truncated to a
box with Dirichlet boundary; the box halfwidth is part of the geometry.

Every geometry stores Sigma as an ordered list of straight segments; each
segment is oriented so that Omega1 lies to the left of a -> b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

BROKEN_LINE = "broken_line"
CIRCLE = "circle"
LINE_PLUS_CIRCLE = "line_plus_circle"
CONE_MERIDIAN = "cone_meridian"

OMEGA1 = 1
OMEGA2 = 2
ON_INTERFACE = 0

# box side ids, counterclockwise from the bottom edge
SIDE_BOTTOM, SIDE_RIGHT, SIDE_TOP, SIDE_LEFT = 0, 1, 2, 3


@dataclass(frozen=True)
class Segment:
    """One straight piece of the interface, Omega1 to the left of a -> b."""

    a: tuple[float, float]
    b: tuple[float, float]
    unbounded: bool = False  # stands for a branch that escapes to infinity

    @property
    def length(self) -> float:
        return math.hypot(self.b[0] - self.a[0], self.b[1] - self.a[1])


@dataclass(frozen=True)
class InterfaceGeometry:
    """The interface Sigma, the two sides it separates, and the truncation box.

    Attributes
    ----------
    kind : str
        One of BROKEN_LINE, CIRCLE, LINE_PLUS_CIRCLE, CONE_MERIDIAN.
    halfwidth : float
        Box halfwidth L.  The box is [-L, L]^2, except for the cone
        meridian where it is [0, L] x [-L, L] in (r, z) coordinates.
    segments : tuple of Segment
        Sigma clipped to the box, polygonalized for circles.
    radial_weight : bool
        True only for the cone meridian; assembly then integrates with
        the axisymmetric weight r.
    """

    kind: str
    halfwidth: float
    segments: tuple[Segment, ...]
    theta: float | None = None
    radial_weight: bool = False
    _circle_poly: tuple | None = field(default=None, repr=False)

    # -- box ---------------------------------------------------------------

    @property
    def box(self):
        """((xmin, ymin), (xmax, ymax)) of the computational box."""
        L = self.halfwidth
        if self.kind == CONE_MERIDIAN:
            return ((0.0, -L), (L, L))
        return ((-L, -L), (L, L))

    @property
    def box_corners(self):
        (x0, y0), (x1, y1) = self.box
        return ((x0, y0), (x1, y0), (x1, y1), (x0, y1))

    @property
    def dirichlet_sides(self):
        """Box sides carrying the Dirichlet condition.

        For the cone meridian the left side is the symmetry axis r = 0,
        which is not a physical boundary; no condition is imposed there.
        """
        if self.kind == CONE_MERIDIAN:
            return (SIDE_BOTTOM, SIDE_RIGHT, SIDE_TOP)
        return (SIDE_BOTTOM, SIDE_RIGHT, SIDE_TOP, SIDE_LEFT)

    @property
    def apex_points(self):
        """Corner points of Sigma where eigenfunctions may be singular."""
        if self.kind in (BROKEN_LINE, CONE_MERIDIAN):
            return ((0.0, 0.0),)
        return ()

    # -- side classification ------------------------------------------------

    def classify_points(self, pts):
        """(n,) int array labelling each of the (n, 2) points pts OMEGA1,
        OMEGA2 or ON_INTERFACE, relative to the polygonalized interface:
        points within 1e-12 * halfwidth of a segment are ON_INTERFACE."""
        pts = np.asarray(pts, dtype=float)
        tol = 1e-12 * self.halfwidth
        x, y = pts[:, 0], pts[:, 1]

        if self.kind in (BROKEN_LINE, CONE_MERIDIAN):
            cot = math.cos(self.theta) / math.sin(self.theta)
            if self.kind == BROKEN_LINE:
                f = y - cot * np.abs(x)
            else:
                f = y - cot * x
            scale = math.hypot(1.0, cot)
            out = np.where(f > 0, OMEGA1, OMEGA2)
            out[np.abs(f) <= tol * scale] = ON_INTERFACE
            return out

        if self.kind == CIRCLE:
            inside = self._inside_polygon(pts)
            out = np.where(inside, OMEGA1, OMEGA2)
            on = self._near_polygon(pts, tol)
            out[on] = ON_INTERFACE
            return out

        if self.kind == LINE_PLUS_CIRCLE:
            inside = self._inside_polygon(pts)
            out = np.where((y < 0) | inside, OMEGA1, OMEGA2)
            on_line = (np.abs(y) <= tol)
            on_circ = self._near_polygon(pts, tol)
            out[on_line | on_circ] = ON_INTERFACE
            return out

        raise DomainError(f"unknown geometry kind {self.kind!r}")

    def _inside_polygon(self, pts):
        verts = np.asarray(self._circle_poly)
        a = verts
        b = np.roll(verts, -1, axis=0)
        # convex CCW polygon: inside iff strictly left of every edge
        cross = ((b[:, 0] - a[:, 0])[None, :] * (pts[:, 1, None] - a[None, :, 1])
                 - (b[:, 1] - a[:, 1])[None, :] * (pts[:, 0, None] - a[None, :, 0]))
        return np.all(cross > 0, axis=1)

    def _near_polygon(self, pts, tol):
        verts = np.asarray(self._circle_poly)
        a = verts
        d = np.roll(verts, -1, axis=0) - verts
        ap = pts[:, None, :] - a[None, :, :]
        denom = (d * d).sum(axis=1)
        t = np.clip((ap * d[None, :, :]).sum(axis=2) / denom[None, :], 0.0, 1.0)
        closest = a[None, :, :] + t[:, :, None] * d[None, :, :]
        dist2 = ((pts[:, None, :] - closest) ** 2).sum(axis=2)
        return dist2.min(axis=1) <= tol * tol


@dataclass(frozen=True)
class MaterialData:
    """Piecewise-constant interaction strengths: alpha (1/length), beta (length).

    One value per geometry segment; both must be positive everywhere,
    which is the regime 0 < beta <= 4/alpha of the eigenvalue comparison.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        b = np.asarray(self.beta, dtype=float)
        if a.ndim != 1 or b.shape != a.shape:
            raise DomainError("alpha and beta must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise DomainError("material values must be finite")
        if np.any(a <= 0) or np.any(b <= 0):
            raise DomainError("alpha and beta must be positive on every segment")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @classmethod
    def constant(cls, geometry: InterfaceGeometry, alpha: float, beta: float):
        n = len(geometry.segments)
        return cls(np.full(n, float(alpha)), np.full(n, float(beta)))

    @classmethod
    def borderline(cls, geometry: InterfaceGeometry, alpha: float):
        """Constant alpha with beta = 4/alpha on every segment."""
        n = len(geometry.segments)
        return cls(np.full(n, float(alpha)), np.full(n, 4.0 / float(alpha)))

    def n_segments(self) -> int:
        return self.alpha.shape[0]


def _ray_exit(theta, L):
    """Where the ray from the origin along (sin theta, cos theta) leaves
    the box of halfwidth L: through the top edge when cot(theta) >= 1,
    through the side edge otherwise."""
    if not (0.0 < theta < math.pi / 2):
        raise DomainError(f"theta must lie strictly in (0, pi/2), got {theta}")
    if L <= 0:
        raise DomainError(f"box halfwidth must be positive, got {L}")
    cot = math.cos(theta) / math.sin(theta)
    if cot >= 1.0:
        return L / cot, L
    return L, L * cot


def make_broken_line(theta: float, L: float) -> InterfaceGeometry:
    """Broken line y = cot(theta) * |x| through the origin.

    Omega1 is the wedge above the line, Omega2 the region below.  Two
    segments run from the apex (0, 0) to the box boundary.
    """
    xe, ye = _ray_exit(theta, L)
    segs = (
        Segment((-xe, ye), (0.0, 0.0), unbounded=True),
        Segment((0.0, 0.0), (xe, ye), unbounded=True),
    )
    return InterfaceGeometry(kind=BROKEN_LINE, halfwidth=float(L), segments=segs,
                             theta=float(theta))


def _circle_vertices(R, center, n_chords):
    cx, cy = center
    ang = 2.0 * math.pi * np.arange(n_chords) / n_chords
    return [(cx + R * math.cos(a), cy + R * math.sin(a)) for a in ang]


def make_circle(R: float, center: tuple[float, float], L: float,
                n_chords: int) -> InterfaceGeometry:
    """Closed polygonal circle of n_chords segments inscribed in radius R.

    Omega1 is the interior.  The circle must lie strictly inside the box.
    """
    if R <= 0 or L <= 0:
        raise DomainError("radius and halfwidth must be positive")
    if n_chords < 16:
        raise DomainError(f"n_chords must be at least 16, got {n_chords}")
    cx, cy = center
    if max(abs(cx), abs(cy)) + R >= L:
        raise DomainError("circle touches or exceeds the box")
    verts = _circle_vertices(R, center, n_chords)
    segs = tuple(Segment(verts[k], verts[(k + 1) % n_chords])
                 for k in range(n_chords))
    return InterfaceGeometry(kind=CIRCLE, halfwidth=float(L), segments=segs,
                             _circle_poly=tuple(verts))


def make_line_plus_circle(h: float, R: float, L: float,
                          n_chords: int) -> InterfaceGeometry:
    """Horizontal line y = 0 plus a polygonal circle centered at (0, h).

    Omega1 is the lower half plane together with the circle interior, so
    it has two connected components; h > R keeps the circle at positive
    distance from the line.
    """
    if R <= 0 or L <= 0:
        raise DomainError("radius and halfwidth must be positive")
    if h - R <= 0:
        raise DomainError(f"need positive distance h - R > 0, got h={h}, R={R}")
    if n_chords < 16:
        raise DomainError(f"n_chords must be at least 16, got {n_chords}")
    if h + R >= L:
        raise DomainError("circle touches or exceeds the box")
    # line oriented right to left so Omega1 (below) lies to the left
    segs = [Segment((L, 0.0), (-L, 0.0), unbounded=True)]
    verts = _circle_vertices(R, (0.0, h), n_chords)
    segs += [Segment(verts[k], verts[(k + 1) % n_chords])
             for k in range(n_chords)]
    return InterfaceGeometry(kind=LINE_PLUS_CIRCLE, halfwidth=float(L),
                             segments=tuple(segs), _circle_poly=tuple(verts))


def make_cone_meridian(theta: float, L: float) -> InterfaceGeometry:
    """Meridian reduction of an axisymmetric cone: ray z = cot(theta) * r.

    The domain is the half strip [0, L] x [-L, L] in (r, z); assembly uses
    the radial weight r (lowest angular mode of the 3d problem).  Omega1
    is the region above the ray.
    """
    re, ze = _ray_exit(theta, L)
    segs = (Segment((0.0, 0.0), (re, ze), unbounded=True),)
    return InterfaceGeometry(kind=CONE_MERIDIAN, halfwidth=float(L),
                             segments=segs, theta=float(theta),
                             radial_weight=True)
