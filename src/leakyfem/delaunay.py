"""Constrained Delaunay triangulation with Ruppert-style quality refinement.

Incremental insertion with Lawson flips, constraint recovery by midpoint
splitting (a missing constraint piece gets a vertex at its midpoint until
every piece is an edge), and a refinement loop that splits encroached
constrained edges and inserts circumcenters of skinny or oversized
triangles.  Predicates use floating point with an exact rational fallback
near ties, so the triangulation stays topologically consistent for the
collinear and cocircular point sets that box-clipped interfaces produce.

Concentric-shell splitting protects constraint junctions with small
angles.  A triangle whose short edge spans the shells of such a junction
need only meet that junction's angle floor, the one its caller passes to
mark_corners, in place of the refinement's minimum angle.

Callers build a mesh through insert_points, insert_segment, mark_corners
and refine, and read it back through triangles(), constrained_edges(), px
and py; the triangle, edge and constraint tables stay inside this module.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from .errors import MeshingError

_ORIENT_EPS = 4e-16
_INCIRCLE_EPS = 4e-15


def _orient_exact(ax, ay, bx, by, cx, cy):
    det = ((Fraction(ax) - Fraction(cx)) * (Fraction(by) - Fraction(cy))
           - (Fraction(ay) - Fraction(cy)) * (Fraction(bx) - Fraction(cx)))
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def orient(ax, ay, bx, by, cx, cy):
    """Sign of the signed area of (a, b, c): +1 for counterclockwise."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    bound = _ORIENT_EPS * (abs(detleft) + abs(detright))
    if det > bound:
        return 1
    if det < -bound:
        return -1
    if detleft == 0.0 and detright == 0.0:
        return 0
    return _orient_exact(ax, ay, bx, by, cx, cy)


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy):
    ax, ay = Fraction(ax) - Fraction(dx), Fraction(ay) - Fraction(dy)
    bx, by = Fraction(bx) - Fraction(dx), Fraction(by) - Fraction(dy)
    cx, cy = Fraction(cx) - Fraction(dx), Fraction(cy) - Fraction(dy)
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    det = ((ax * by - ay * bx) * c2
           + (bx * cy - by * cx) * a2
           + (cx * ay - cy * ax) * b2)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def incircle(ax, ay, bx, by, cx, cy, dx, dy):
    """+1 if d lies strictly inside the circumcircle of CCW (a, b, c)."""
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    det = ((adx * bdy - ady * bdx) * cd2
           + (bdx * cdy - bdy * cdx) * ad2
           + (cdx * ady - cdy * adx) * bd2)
    perm = ((abs(adx * bdy) + abs(ady * bdx)) * cd2
            + (abs(bdx * cdy) + abs(bdy * cdx)) * ad2
            + (abs(cdx * ady) + abs(cdy * adx)) * bd2)
    bound = _INCIRCLE_EPS * perm
    if det > bound:
        return 1
    if det < -bound:
        return -1
    return _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy)


def _circumcenter(ax, ay, bx, by, cx, cy):
    dx1, dy1 = bx - ax, by - ay
    dx2, dy2 = cx - ax, cy - ay
    d1 = dx1 * dx1 + dy1 * dy1
    d2 = dx2 * dx2 + dy2 * dy2
    denom = 2.0 * (dx1 * dy2 - dy1 * dx2)
    ux = ax + (dy2 * d1 - dy1 * d2) / denom
    uy = ay + (dx1 * d2 - dx2 * d1) / denom
    return ux, uy


class Triangulation:
    """Mutable CDT over a convex boxed domain.

    Vertices are only ever inserted inside the initial box or on its
    (constrained) edges.  Constraint labels are arbitrary hashable values
    attached to undirected edges and survive edge splits.
    """

    def __init__(self, corners):
        self.px = []
        self.py = []
        self.tris = {}
        self.edge_tri = {}
        self.constraint = {}
        self.vtri = {}
        self.coord_index = {}
        self.corner_of = {}
        self.corner_floor = {}
        self._next_tid = 0
        self._walk_tick = 0
        c = [self._new_vertex(x, y) for x, y in corners]
        if orient(corners[0][0], corners[0][1], corners[1][0], corners[1][1],
                  corners[2][0], corners[2][1]) <= 0:
            raise MeshingError("box corners must be counterclockwise")
        self._add_tri(c[0], c[1], c[2])
        self._add_tri(c[0], c[2], c[3])
        self.box_vertices = tuple(c)

    # -- basic bookkeeping ---------------------------------------------------

    def _new_vertex(self, x, y):
        key = (x, y)
        if key in self.coord_index:
            return self.coord_index[key]
        vid = len(self.px)
        self.px.append(x)
        self.py.append(y)
        self.coord_index[key] = vid
        return vid

    def _add_tri(self, a, b, c):
        tid = self._next_tid
        self._next_tid += 1
        self.tris[tid] = (a, b, c)
        self.edge_tri[(a, b)] = tid
        self.edge_tri[(b, c)] = tid
        self.edge_tri[(c, a)] = tid
        self.vtri[a] = tid
        self.vtri[b] = tid
        self.vtri[c] = tid
        return tid

    def _remove_tri(self, tid):
        a, b, c = self.tris.pop(tid)
        for e in ((a, b), (b, c), (c, a)):
            if self.edge_tri.get(e) == tid:
                del self.edge_tri[e]

    def _ekey(self, u, v):
        return (u, v) if u < v else (v, u)

    def is_constrained(self, u, v):
        return self._ekey(u, v) in self.constraint

    def _incircle_v(self, i, j, k, l):
        return incircle(self.px[i], self.py[i], self.px[j], self.py[j],
                        self.px[k], self.py[k], self.px[l], self.py[l])

    def triangles(self):
        """Vertex triples of the live triangles, in creation order."""
        return [self.tris[t] for t in sorted(self.tris)]

    def constrained_edges(self):
        """Sorted ((u, v), label) pairs of the constrained edges, u < v."""
        return sorted(self.constraint.items())

    # -- point location ------------------------------------------------------

    def locate(self, x, y, hint=None):
        """Return ('tri', tid), ('edge', (u, v)), or ('vertex', v) for (x, y)."""
        if hint is None or hint not in self.tris:
            hint = next(iter(self.tris))
        tid = hint
        for _ in range(4 * len(self.tris) + 64):
            a, b, c = self.tris[tid]
            self._walk_tick += 1
            start = self._walk_tick % 3
            zeros = []
            for k in range(3):
                u, v = ((a, b), (b, c), (c, a))[(start + k) % 3]
                s = orient(self.px[u], self.py[u], self.px[v], self.py[v], x, y)
                if s == 0:
                    zeros.append((u, v))
                if s < 0:
                    tid = self.edge_tri.get((v, u))
                    if tid is None:
                        raise MeshingError("walk left the triangulated domain")
                    break
            else:  # no edge has the point on its far side: stop here
                break
        else:
            raise MeshingError("point location walk failed to terminate")
        if not zeros:
            return ("tri", tid)
        if len(zeros) == 1:
            return ("edge", zeros[0])
        verts = set(zeros[0]) & set(zeros[1])
        return ("vertex", verts.pop())

    # -- insertion with Lawson flips ------------------------------------------

    def _legalize(self, p, edges):
        stack = list(edges)
        while stack:
            a, b = stack.pop()
            if self.is_constrained(a, b):
                continue
            t1 = self.edge_tri.get((a, b))
            t2 = self.edge_tri.get((b, a))
            if t1 is None or t2 is None:
                continue
            if p in self.tris[t2]:
                a, b = b, a
                t1, t2 = t2, t1
            if p not in self.tris[t1]:
                continue
            d = [v for v in self.tris[t2] if v not in (a, b)][0]
            if self._incircle_v(a, b, p, d) > 0:
                self._remove_tri(t1)
                self._remove_tri(t2)
                self._add_tri(p, a, d)
                self._add_tri(p, d, b)
                stack.append((a, d))
                stack.append((d, b))

    def insert_point(self, x, y, hint=None):
        """Insert a vertex, returning its id (existing id for duplicates)."""
        key = (x, y)
        if key in self.coord_index:
            return self.coord_index[key]
        kind, where = self.locate(x, y, hint)
        if kind == "vertex":
            return where
        p = self._new_vertex(x, y)
        if kind == "tri":
            a, b, c = self.tris[where]
            self._remove_tri(where)
            self._add_tri(a, b, p)
            self._add_tri(b, c, p)
            self._add_tri(c, a, p)
            self._legalize(p, [(a, b), (b, c), (c, a)])
        else:
            self._split_edge_at(where, p)
        return p

    def insert_points(self, points):
        """Insert (x, y) points in order and return their vertex ids; each
        walk starts from the triangle of the vertex inserted before."""
        ids = []
        hint = None
        for x, y in points:
            ids.append(self.insert_point(x, y, hint))
            hint = self.vtri.get(ids[-1])
        return ids

    def _split_edge_at(self, edge, p):
        """Split edge (u, v) at vertex p, inheriting any constraint label."""
        u, v = edge
        key = self._ekey(u, v)
        label = self.constraint.pop(key, None)
        if label is not None:
            self.constraint[self._ekey(u, p)] = label
            self.constraint[self._ekey(p, v)] = label
        out = []
        t1 = self.edge_tri.get((u, v))
        if t1 is not None:
            w1 = [w for w in self.tris[t1] if w not in (u, v)][0]
            self._remove_tri(t1)
            self._add_tri(u, p, w1)
            self._add_tri(p, v, w1)
            out += [(u, w1), (w1, v)]
        t2 = self.edge_tri.get((v, u))
        if t2 is not None:
            w2 = [w for w in self.tris[t2] if w not in (u, v)][0]
            self._remove_tri(t2)
            self._add_tri(v, p, w2)
            self._add_tri(p, u, w2)
            out += [(v, w2), (w2, u)]
        self._legalize(p, out)

    def _fan_around(self, u):
        """All triangles incident to u, as (u, a, b) tuples."""
        out = []
        t0 = self.vtri.get(u)
        if t0 not in self.tris:
            raise MeshingError(f"vertex {u} has no incident triangle")
        seen = set()
        stack = [t0]
        while stack:
            tid = stack.pop()
            if tid in seen:
                continue
            tri = self.tris[tid]
            seen.add(tid)
            i = tri.index(u)
            a, b = tri[(i + 1) % 3], tri[(i + 2) % 3]
            out.append((tid, a, b))
            for nbr_edge in ((u, a), (b, u)):
                nbr = self.edge_tri.get((nbr_edge[1], nbr_edge[0]))
                if nbr is not None:
                    stack.append(nbr)
        return out

    # -- constraint segment recovery ------------------------------------------

    def insert_segment(self, u, v, label):
        """Force edge (u, v) into the triangulation and constrain it.

        A piece that is not yet an edge is split at its midpoint, inserted
        through insert_point, and each half is recovered in turn (Ruppert's
        and Shewchuk's segment recovery: no edge flips).  A piece still
        missing once shorter than 1e-9 of the segment ends in MeshingError:
        it crosses another constraint or runs through a vertex.
        """
        if u == v:
            raise MeshingError("degenerate constraint segment")
        floor = 1e-18 * self._edge_len2(u, v)   # squared, so 1e-9 of its length
        pieces = [(u, v)]
        while pieces:
            a, b = pieces.pop()
            if (a, b) in self.edge_tri or (b, a) in self.edge_tri:
                self.constraint[self._ekey(a, b)] = label
                continue
            m = None
            if self._edge_len2(a, b) >= floor:
                m = self.insert_point(0.5 * (self.px[a] + self.px[b]),
                                      0.5 * (self.py[a] + self.py[b]),
                                      hint=self.vtri.get(a))
            if m in (None, a, b):
                raise MeshingError(
                    f"constraint {u}-{v} cannot be recovered: its piece "
                    f"{a}-{b} crosses another constraint or a vertex")
            pieces += [(m, b), (a, m)]

    # -- refinement -----------------------------------------------------------

    def mark_corners(self, floors):
        """Mark junction vertices {vertex: angle floor in degrees} as corners
        and let each claim its unclaimed constrained neighbours, so that
        refine splits the constraints at a corner on shells around it."""
        for vid, floor in floors.items():
            self.corner_of[vid] = vid
            self.corner_floor[vid] = math.radians(floor)
        for (u, v) in list(self.constraint):
            for a, b in ((u, v), (v, u)):
                if self.corner_of.get(a) == a and b not in self.corner_of:
                    self.corner_of[b] = a

    def _edge_len2(self, u, v):
        dx = self.px[u] - self.px[v]
        dy = self.py[u] - self.py[v]
        return dx * dx + dy * dy

    def _encroached(self, u, v):
        """A constrained edge is encroached if an adjacent apex lies strictly
        inside its diametral circle."""
        for e in ((u, v), (v, u)):
            tid = self.edge_tri.get(e)
            if tid is None:
                continue
            w = [q for q in self.tris[tid] if q not in (u, v)][0]
            if self._point_encroaches(u, v, self.px[w], self.py[w]):
                return True
        return False

    def _point_encroaches(self, u, v, x, y):
        mx = 0.5 * (self.px[u] + self.px[v])
        my = 0.5 * (self.py[u] + self.py[v])
        r2 = 0.25 * self._edge_len2(u, v)
        dx, dy = x - mx, y - my
        return dx * dx + dy * dy < r2 * (1.0 - 1e-12)

    def _split_position(self, u, v):
        """Split point of a constrained edge: midpoint, or a power-of-two
        shell radius around an acute junction endpoint."""
        is_u, is_v = self.corner_of.get(u) == u, self.corner_of.get(v) == v
        if is_u == is_v:  # neither end or both ends are junctions
            return (0.5 * (self.px[u] + self.px[v]),
                    0.5 * (self.py[u] + self.py[v]), None)
        anchor, other = (u, v) if is_u else (v, u)
        d = math.sqrt(self._edge_len2(u, v))
        r = 2.0 ** math.floor(math.log2(0.5 * d) + 0.5)  # ties round up
        t = min(max(r / d, 0.33), 0.67)
        x = self.px[anchor] + t * (self.px[other] - self.px[anchor])
        y = self.py[anchor] + t * (self.py[other] - self.py[anchor])
        return (x, y, anchor)

    def _tri_quality(self, tri):
        """Returns (min_angle_rad, max_edge_len, shortest_edge)."""
        a, b, c = tri
        l2 = [self._edge_len2(b, c), self._edge_len2(c, a), self._edge_len2(a, b)]
        lens = [math.sqrt(q) for q in l2]
        angles = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            cosv = (l2[j] + l2[k] - l2[i]) / (2.0 * lens[j] * lens[k])
            angles.append(math.acos(min(1.0, max(-1.0, cosv))))
        imin = angles.index(min(angles))
        edges = [(b, c), (c, a), (a, b)]
        return min(angles), max(lens), edges[imin]

    def _angle_floor(self, short_edge, min_angle):
        """Smallest angle (radians) a triangle with this short edge must
        reach: its corner's floor where the edge spans that corner's
        shells, min_angle elsewhere."""
        u, v = short_edge
        cu = self.corner_of.get(u)
        if cu is None or cu != self.corner_of.get(v) or cu in (u, v):
            return min_angle
        return self.corner_floor[cu]

    def refine(self, min_angle_deg, size_fn, max_vertices):
        """Ruppert loop: split encroached constrained edges, then insert
        circumcenters of triangles violating the angle or size criterion.

        A triangle whose circumcenter is unreachable or encroaching forces
        a split of the offending constrained edge; a per-triangle retry cap
        keeps the loop finite even in degenerate corner configurations.
        """
        min_angle = math.radians(min_angle_deg)
        seg_queue = deque(self.constraint.keys())
        tri_queue = deque(self.tris.keys())
        retries = {}

        def after_insert(p):
            if len(self.px) > max_vertices:
                raise MeshingError(
                    "refinement exceeded its vertex budget",
                    diagnostics={
                        "vertices": len(self.px),
                        "budget": max_vertices,
                        "pending_segments": len(seg_queue),
                        "pending_triangles": len(tri_queue),
                    })
            for tid, a, b in self._fan_around(p):
                tri_queue.append(tid)
                for e in ((p, a), (a, b), (b, p)):
                    if self.is_constrained(*e):
                        seg_queue.append(self._ekey(*e))

        def split_seg(key, forced=False):
            if key not in self.constraint:
                return
            u, v = key
            if not forced and not self._encroached(u, v):
                return
            # on the edge by fiat: locating it could miss the edge by roundoff
            x, y, anchor = self._split_position(u, v)
            p = self._new_vertex(x, y)
            self._split_edge_at((u, v), p)
            if anchor is not None:
                self.corner_of[p] = self.corner_of.get(anchor, anchor)
            after_insert(p)
            for e in ((u, p), (p, v)):
                if self.is_constrained(*e) and self._encroached(*e):
                    seg_queue.append(self._ekey(*e))

        while seg_queue or tri_queue:
            while seg_queue:
                split_seg(seg_queue.popleft())
            if not tri_queue:
                break
            tid = tri_queue.popleft()
            if tid not in self.tris:
                continue
            tri = self.tris[tid]
            ang, hmax, short_edge = self._tri_quality(tri)
            too_small_angle = (ang < min_angle
                               and ang < self._angle_floor(short_edge,
                                                           min_angle))
            cx = (self.px[tri[0]] + self.px[tri[1]] + self.px[tri[2]]) / 3.0
            cy = (self.py[tri[0]] + self.py[tri[1]] + self.py[tri[2]]) / 3.0
            too_big = hmax > size_fn(cx, cy)
            if not (too_small_angle or too_big):
                continue
            ux, uy = _circumcenter(self.px[tri[0]], self.py[tri[0]],
                                   self.px[tri[1]], self.py[tri[1]],
                                   self.px[tri[2]], self.py[tri[2]])
            blocked = self._walk_blocking_constraint(tid, ux, uy)
            if blocked is not None:
                offending = [self._ekey(*blocked)]
            else:
                offending = [key for key in self._nearby_constraints(tid)
                             if self._point_encroaches(*key, ux, uy)]
            if offending:
                if retries.get(tid, 0) < 8:
                    retries[tid] = retries.get(tid, 0) + 1
                    for key in offending:
                        split_seg(key, forced=True)
                    tri_queue.append(tid)
                continue
            if (ux, uy) in self.coord_index:
                continue  # degenerate duplicate circumcenter; give up on tid
            p = self.insert_point(ux, uy, hint=tid)
            after_insert(p)

    def _nearby_constraints(self, tid):
        """Constrained edges among the triangle's own edges and neighbors."""
        out = set()
        a, b, c = self.tris[tid]
        for u, v in ((a, b), (b, c), (c, a)):
            if self.is_constrained(u, v):
                out.add(self._ekey(u, v))
            nbr = self.edge_tri.get((v, u))
            if nbr is not None:
                na, nb, nc = self.tris[nbr]
                for e in ((na, nb), (nb, nc), (nc, na)):
                    if self.is_constrained(*e):
                        out.add(self._ekey(*e))
        return out

    def _walk_blocking_constraint(self, tid, x, y):
        """Visibility walk from triangle tid toward (x, y); return the first
        constrained edge that blocks the walk, or None if (x, y) is reachable."""
        cur = tid
        prev_edge = None
        for _ in range(4 * len(self.tris) + 16):
            tri = self.tris[cur]
            self._walk_tick += 1
            start = self._walk_tick % 3
            exit_edge = None
            for k in range(3):
                i = (start + k) % 3
                u, v = tri[i], tri[(i + 1) % 3]
                if (u, v) == prev_edge:
                    continue
                if orient(self.px[u], self.py[u], self.px[v], self.py[v], x, y) < 0:
                    exit_edge = (u, v)
                    break
            if exit_edge is None:
                return None
            u, v = exit_edge
            if self.is_constrained(u, v):
                return (u, v)
            nxt = self.edge_tri.get((v, u))
            if nxt is None:
                return None  # reached the hull; treat as reachable
            prev_edge = (v, u)
            cur = nxt
        raise MeshingError("circumcenter walk failed to terminate")
