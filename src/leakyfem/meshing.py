"""Interface-conforming triangulation and degree-of-freedom maps.

triangulate() meshes the truncation box of a geometry with the interface
segments as constrained edges, refined to a target edge length and a
minimum-angle bound.  build_dofs() produces the two discrete spaces: a
continuous one (one dof per free node) and a broken one in which nodes on
the interface carry one dof per side, realizing functions that may jump
across the interface.  It fixes the numbering of both at once, by one
nested-dissection order of the free nodes, so every matrix is assembled
in the order it is factored in and nothing downstream handles orderings.

Optional inner rings (axis-aligned boxes at smaller halfwidths) can be
constrained into the mesh; restricting the assembled problem to nodes
strictly inside a ring then reproduces the smaller-box problem exactly,
which makes box-truncation studies monotone by construction.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import delaunay
from .errors import DomainError, MeshingError
from .geometry import InterfaceGeometry, OMEGA1, OMEGA2

CONTINUOUS = "continuous"
BROKEN = "broken"

_SHUFFLE_SEED = 987654321
MIN_ANGLE_DEG = 20.0  # Ruppert's bound, lowered only at sharp junctions
# red refinement: the corners of triangle t's children, rows 4t..4t+3 of
# the refined mesh, among t's corners a, b, c and its edge midpoints ab,
# bc, ca (positions 0..5); refine_uniform and femforms.prolong read it
RED_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of the truncation box.

    nodes            (N, 2) float64 coordinates
    triangles        (T, 3) int32 node triples, counterclockwise
    tri_region       (T,)  int8, OMEGA1 or OMEGA2 per triangle
    iface_edges      (E, 2) int32 node pairs lying on the interface
    iface_seg        (E,)  int32 geometry segment id per interface edge
    boundary_edges   (B, 2) int32 node pairs on the outer box boundary
    boundary_dirichlet (B,) bool, True where the Dirichlet condition applies
    radial_weight    bool, True for the cone meridian domain
    angle_floor      float, smallest angle allowed (degrees): MIN_ANGLE_DEG,
                     or half the smallest junction angle of the PSLG if less
    """

    nodes: np.ndarray
    triangles: np.ndarray
    tri_region: np.ndarray
    iface_edges: np.ndarray
    iface_seg: np.ndarray
    boundary_edges: np.ndarray
    boundary_dirichlet: np.ndarray
    radial_weight: bool = False
    angle_floor: float = MIN_ANGLE_DEG

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def boundary_nodes(self):
        """Sorted node ids pinned by the Dirichlet condition."""
        e = self.boundary_edges[self.boundary_dirichlet]
        return np.unique(e)

    @property
    def interface_nodes(self):
        return np.unique(self.iface_edges)

    def signed_areas(self):
        p = self.nodes[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))

    def edge_lengths(self):
        p = self.nodes[self.iface_edges]
        return np.hypot(p[:, 1, 0] - p[:, 0, 0], p[:, 1, 1] - p[:, 0, 1])

    def min_angle_deg(self):
        p = self.nodes[self.triangles]
        angs = []
        for i in range(3):
            a = p[:, (i + 1) % 3] - p[:, i]
            b = p[:, (i + 2) % 3] - p[:, i]
            na = np.hypot(a[:, 0], a[:, 1])
            nb = np.hypot(b[:, 0], b[:, 1])
            cosv = np.clip((a * b).sum(axis=1) / (na * nb), -1.0, 1.0)
            angs.append(np.degrees(np.arccos(cosv)))
        return float(np.min(np.stack(angs)))

    def max_edge(self):
        p = self.nodes[self.triangles]
        m = 0.0
        for i in range(3):
            d = p[:, i] - p[:, (i + 1) % 3]
            m = max(m, float(np.hypot(d[:, 0], d[:, 1]).max()))
        return m


@dataclass(frozen=True)
class DofMap:
    """Node-to-dof assignment for one of the two discrete spaces.

    node_dof1 / node_dof2 give the dof of a nodal value seen from the
    Omega1 / Omega2 side (-1 for Dirichlet nodes).  They coincide except
    at duplicated interface nodes of the broken map.  tri_dofs resolves
    each triangle's vertices to the side matching its region tag.
    """

    kind: str
    ndof: int
    node_dof1: np.ndarray
    node_dof2: np.ndarray
    tri_dofs: np.ndarray


def _segment_pieces(a, b, h):
    """Split segment a-b into pieces of length <= h (exact endpoints kept)."""
    ax, ay = a
    bx, by = b
    n = max(1, math.ceil(math.hypot(bx - ax, by - ay) / h))
    pts = [(ax + (bx - ax) * i / n, ay + (by - ay) * i / n) for i in range(1, n)]
    return [a] + pts + [b]


def _snap_points(points, tol):
    """Unify points closer than tol; returns canonical-point lookup."""
    canon = []
    lookup = {}
    for p in points:
        if p in lookup:
            continue
        hit = None
        for q in canon:
            if abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol:
                hit = q
                break
        if hit is None:
            canon.append(p)
            hit = p
        lookup[p] = hit
    return lookup


def _point_on_segment(a, b, p, tol):
    dx, dy = b[0] - a[0], b[1] - a[1]
    t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy)
    if t <= 0.0 or t >= 1.0:
        return None
    cx, cy = a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])
    if math.hypot(p[0] - cx, p[1] - cy) <= tol:
        return t
    return None


def _proper_intersection(a, b, c, d, tol):
    """Intersection params of segments a-b and c-d if they properly cross."""
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0.0:
        return None
    qp = (c[0] - a[0], c[1] - a[1])
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    la = math.hypot(*r)
    lc = math.hypot(*s)
    eps_t = tol / la
    eps_u = tol / lc
    if eps_t < t < 1 - eps_t and eps_u < u < 1 - eps_u:
        return t, u
    return None


def _ring_sides(geometry, Lr):
    """Sides (a, b) of the inner ring of halfwidth Lr."""
    if geometry.kind == "cone_meridian":
        ring = [(0.0, -Lr), (Lr, -Lr), (Lr, Lr), (0.0, Lr)]
        sides = [(0, 1), (1, 2), (2, 3)]  # leave the axis side open
    else:
        ring = [(-Lr, -Lr), (Lr, -Lr), (Lr, Lr), (-Lr, Lr)]
        sides = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return [(ring[i], ring[j]) for i, j in sides]


def _crossing_ring(geometry, inner_rings):
    """Halfwidth of the first inner ring whose sides properly cross an
    interface segment, or None."""
    tol = 1e-12 * geometry.halfwidth
    for Lr in inner_rings or ():
        for a, b in _ring_sides(geometry, Lr):
            if any(_proper_intersection(a, b, s.a, s.b, tol)
                   for s in geometry.segments):
                return Lr
    return None


def _build_pslg(geometry, h, inner_rings):
    """Segments with labels, split at mutual intersections, chopped to <= h.

    Returns (pieces, floors, angle_floor): pieces is a list of (p, q, label);
    floors maps junction points where constraints meet below 60 deg to
    min(MIN_ANGLE_DEG, half the smallest angle there) (Shewchuk, CGTA 22,
    2002, ties the reachable angle near a small input angle to that angle);
    angle_floor is the smallest of them, or MIN_ANGLE_DEG.
    """
    L = geometry.halfwidth
    tol = 1e-12 * L
    segs = []
    corners = geometry.box_corners
    for side in range(4):
        segs.append([corners[side], corners[(side + 1) % 4], ("box", side)])
    for sid, s in enumerate(geometry.segments):
        segs.append([s.a, s.b, ("iface", sid)])
    for k, Lr in enumerate(inner_rings or ()):
        if not (0 < Lr < L):
            raise DomainError(f"inner ring halfwidth {Lr} must lie in (0, {L})")
        for a, b in _ring_sides(geometry, Lr):
            segs.append([a, b, ("ring", k)])

    snap = _snap_points([s[0] for s in segs] + [s[1] for s in segs], tol)
    for s in segs:
        s[0] = snap[s[0]]
        s[1] = snap[s[1]]

    cuts = [[] for _ in segs]
    for i in range(len(segs)):
        a, b, _ = segs[i]
        for j in range(len(segs)):
            if i == j:
                continue
            c, d, _ = segs[j]
            for p in (c, d):
                if p == a or p == b:
                    continue
                t = _point_on_segment(a, b, p, tol)
                if t is not None:
                    cuts[i].append((t, p))
            if j > i:
                hit = _proper_intersection(a, b, c, d, tol)
                if hit is not None:
                    t, u = hit
                    p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                    cuts[i].append((t, p))
                    cuts[j].append((u, p))

    split = []
    for (a, b, label), cl in zip(segs, cuts):
        pts = [a] + [p for _, p in sorted(cl, key=lambda c: c[0])] + [b]
        dedup = [pts[0]]
        for p in pts[1:]:
            if p != dedup[-1]:
                dedup.append(p)
        for k in range(len(dedup) - 1):
            split.append((dedup[k], dedup[k + 1], label))

    by_point = defaultdict(list)
    for a, b, label in split:
        d = math.hypot(b[0] - a[0], b[1] - a[1])
        by_point[a].append(((b[0] - a[0]) / d, (b[1] - a[1]) / d))
        by_point[b].append(((a[0] - b[0]) / d, (a[1] - b[1]) / d))
    floors = {}
    for p, dirs in by_point.items():
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                dot = dirs[i][0] * dirs[j][0] + dirs[i][1] * dirs[j][1]
                if dot > 0.5 + 1e-9:  # angle below 60 degrees
                    ang = math.degrees(math.acos(min(1.0, dot)))
                    floors[p] = min(floors.get(p, MIN_ANGLE_DEG), ang / 2)

    pieces = []
    for a, b, label in split:
        pts = _segment_pieces(a, b, h)
        for k in range(len(pts) - 1):
            pieces.append((pts[k], pts[k + 1], label))
    return pieces, floors, min([MIN_ANGLE_DEG, *floors.values()])


def _iface_adjacency(triangles, tri_region, iface_edges):
    """Adjacent (Omega1, Omega2) triangle per interface edge, with checks.

    Each triangle owns its three directed edges (a, b), (b, c), (c, a);
    an interface edge (u, v) looks up the owners of (u, v) and (v, u) as
    integer keys u n + v in the sorted key list.  A directed edge owned
    twice resolves to the last triangle, and the first bad edge decides
    which error is raised.
    """
    tris = np.asarray(triangles, dtype=np.int64)
    edges = np.asarray(iface_edges, dtype=np.int64).reshape(-1, 2)
    n = int(max(tris.max(initial=-1), edges.max(initial=-1))) + 1
    keys = (tris * n + np.roll(tris, -1, axis=1)).ravel()
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]

    def owner(u, v):
        q = u * n + v
        pos = np.searchsorted(skeys, q, side="right") - 1
        hit = (pos >= 0) & (skeys[np.maximum(pos, 0)] == q)
        return np.where(hit, order[np.maximum(pos, 0)] // 3, -1)

    t1 = owner(edges[:, 0], edges[:, 1])
    t2 = owner(edges[:, 1], edges[:, 0])
    missing = (t1 < 0) | (t2 < 0)
    region = np.asarray(tri_region)
    r1, r2 = region[np.maximum(t1, 0)], region[np.maximum(t2, 0)]
    split = (((r1 == OMEGA1) & (r2 == OMEGA2))
             | ((r1 == OMEGA2) & (r2 == OMEGA1)))
    bad = missing | ~split
    if bad.any():
        if missing[np.argmax(bad)]:
            raise MeshingError("interface edge lacks a triangle on one side")
        raise MeshingError("interface edge not separating the two regions")
    first = r1 == OMEGA1
    return np.column_stack([np.where(first, t1, t2),
                            np.where(first, t2, t1)]).astype(np.int32)


def triangulate(geometry: InterfaceGeometry, h_target: float,
                inner_rings=None) -> Mesh:
    """Conforming constrained Delaunay mesh of the truncation box.

    The interface segments (and any inner rings) become unions of mesh
    edges; triangles are refined until every edge is at most h_target
    (h_target/2 within h_target of an interface apex) and no angle is
    below MIN_ANGLE_DEG, or, near a junction where two constraints meet at
    an angle phi below 40 deg, below phi/2: a ring that meets the interface
    at angle phi meshes with angles down to phi/2.  The mesh's angle_floor
    is the smallest of these floors.  Raises MeshingError with
    diagnostics when the refinement budget is exhausted or an angle lies
    below the floor; its message names an inner ring that crosses the
    interface, when one does.
    """
    L = geometry.halfwidth
    if not (0 < h_target <= L / 4):
        raise DomainError(f"h_target must lie in (0, L/4], got {h_target}")
    pieces, floors, floor = _build_pslg(geometry, h_target, inner_rings)
    try:
        return _mesh_pslg(geometry, h_target, pieces, floors, floor)
    except MeshingError as exc:
        Lr = _crossing_ring(geometry, inner_rings)
        if Lr is None:
            raise
        raise MeshingError(f"the inner ring of halfwidth {Lr} crosses the "
                           f"interface: {exc}", exc.diagnostics) from exc


def _mesh_pslg(geometry, h_target, pieces, floors, floor):
    """triangulate's constrained Delaunay refinement of the PSLG pieces."""
    tri = delaunay.Triangulation(geometry.box_corners)
    box = tri.box_vertices
    for side in range(4):
        tri.insert_segment(box[side], box[(side + 1) % 4], ("box", side))

    pts = list(dict.fromkeys(p for a, b, _ in pieces for p in (a, b)))
    order = np.random.default_rng(_SHUFFLE_SEED).permutation(len(pts))
    pts = [pts[int(i)] for i in order]
    vid = dict(zip(pts, tri.insert_points(pts)))
    for a, b, label in pieces:
        if vid[a] != vid[b]:
            tri.insert_segment(vid[a], vid[b], label)
    tri.mark_corners({vid[p]: f for p, f in floors.items()})

    (x0, y0), (x1, y1) = geometry.box
    area = (x1 - x0) * (y1 - y0)
    expected = area / (0.433 * h_target * h_target)
    budget = int(64 + 10 * expected + 8 * sum(
        math.hypot(b[0] - a[0], b[1] - a[1]) for a, b, _ in pieces) / h_target)

    apexes = geometry.apex_points

    def size_fn(cx, cy):
        for ax, ay in apexes:
            if (cx - ax) ** 2 + (cy - ay) ** 2 <= h_target * h_target:
                return 0.5 * h_target
        return h_target

    tri.refine(MIN_ANGLE_DEG, size_fn, budget)
    mesh = _extract(tri, geometry, floor)
    check_mesh(mesh, geometry)
    return mesh


def _extract(tri, geometry, floor):
    nodes = np.column_stack([np.asarray(tri.px), np.asarray(tri.py)])
    triangles = np.asarray(tri.triangles(), dtype=np.int32)

    cent = nodes[triangles].mean(axis=1)
    region = geometry.classify_points(cent).astype(np.int8)
    if np.any(region == 0):
        raise MeshingError("triangle centroid classified on the interface")

    iface, iseg, bedges, bside = [], [], [], []
    for (u, v), label in tri.constrained_edges():
        if label[0] == "iface":
            iface.append((u, v))
            iseg.append(label[1])
        elif label[0] == "box":
            bedges.append((u, v))
            bside.append(label[1])
    iface = np.asarray(iface, dtype=np.int32).reshape(-1, 2)
    iseg = np.asarray(iseg, dtype=np.int32)
    bedges = np.asarray(bedges, dtype=np.int32).reshape(-1, 2)
    dirset = set(geometry.dirichlet_sides)
    bdir = np.asarray([s in dirset for s in bside], dtype=bool)
    return Mesh(nodes=nodes, triangles=triangles, tri_region=region,
                iface_edges=iface, iface_seg=iseg,
                boundary_edges=bedges, boundary_dirichlet=bdir,
                radial_weight=geometry.radial_weight, angle_floor=floor)


def refine_uniform(m: Mesh) -> Mesh:
    """Red refinement: every triangle into four similar ones, triangle
    t's at rows 4t..4t+3 with the corners RED_CHILDREN lists.

    The refined space contains the coarse one (nested meshes), interface
    and boundary edges are bisected, and all angles are preserved.
    """
    tris = m.triangles
    nv = m.num_nodes
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    edges = np.sort(edges, axis=1).astype(np.int64)
    # integer keys u nv + v sort like the rows (u, v), so the midpoints keep
    # the order of np.unique(edges, axis=0)
    ukeys, inverse = np.unique(edges[:, 0] * nv + edges[:, 1],
                               return_inverse=True)
    mids = 0.5 * (m.nodes[ukeys // nv] + m.nodes[ukeys % nv])
    nodes = np.vstack([m.nodes, mids])

    T = tris.shape[0]
    mid = (inverse.reshape(3, T).T + nv).astype(np.int32)  # [ab, bc, ca]
    children = np.hstack([tris, mid])[:, RED_CHILDREN].reshape(-1, 3)
    region = np.repeat(m.tri_region, 4)

    def split_edges(earr):
        u, v = earr[:, 0].astype(np.int64), earr[:, 1].astype(np.int64)
        q = np.minimum(u, v) * nv + np.maximum(u, v)
        pos = np.minimum(np.searchsorted(ukeys, q), ukeys.size - 1)
        if not np.array_equal(ukeys[pos], q):
            raise MeshingError("edge to split is not a triangle edge")
        w = pos + nv
        return np.column_stack([u, w, w, v]).reshape(-1, 2).astype(np.int32)

    iface = split_edges(m.iface_edges)
    iseg = np.repeat(m.iface_seg, 2)
    bedges = split_edges(m.boundary_edges)
    bdir = np.repeat(m.boundary_dirichlet, 2)
    _iface_adjacency(children, region, iface)  # checks the refined interface
    return Mesh(nodes=nodes, triangles=children, tri_region=region,
                iface_edges=iface, iface_seg=iseg,
                boundary_edges=bedges, boundary_dirichlet=bdir,
                radial_weight=m.radial_weight, angle_floor=m.angle_floor)


def nested_dissection(xy, u, v, leaf=16):
    """Geometric nested-dissection ordering of a graph with vertex
    coordinates xy (n, 2) and undirected edges (u[i], v[i]).

    Each subset of more than `leaf` vertices is split at the median of its
    longer coordinate extent (ties by vertex number); the left vertices
    with an edge to the right side form its separator, and the order is
    left, right, separator (George, SIAM J. Numer. Anal. 10, 1973).  The
    recursion runs one tree level at a time over all subsets of that
    level, passing down the edges that stay inside a subset.  Returns
    perm with perm[new position] = vertex.
    """
    n = xy.shape[0]
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    # per axis, the position of each vertex in (coordinate, number) order
    rank = np.empty((2, n), dtype=np.int64)
    for axis in (0, 1):
        rank[axis, np.lexsort((np.arange(n), xy[:, axis]))] = np.arange(n)
    # ids: vertices not yet placed, grouped by subset; code: their subset
    # (root 1, children of c are 2c and 2c+1); node, depth: the subset
    # that placed each vertex
    ids = np.arange(n)
    code = np.ones(n, dtype=np.int64)
    node = np.zeros(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    live = np.zeros(n, dtype=bool)
    right = np.zeros(n, dtype=bool)
    level = 0
    while ids.size:
        starts = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
        sizes = np.diff(np.r_[starts, ids.size])
        sub = np.repeat(np.arange(starts.size), sizes)
        p = xy[ids]
        axis = np.argmax(np.maximum.reduceat(p, starts)
                         - np.minimum.reduceat(p, starts), axis=1)
        o = np.argsort(sub * n + rank[axis[sub], ids])
        ids, code = ids[o], code[o]
        node[ids] = code
        depth[ids] = level
        live[ids] = sizes[sub] > leaf       # leaves are placed whole
        right[ids] = np.arange(ids.size) - starts[sub] >= sizes[sub] // 2
        e = live[u]
        u, v = u[e], v[e]
        ru = right[u]
        cross = ru != right[v]
        live[np.where(ru[cross], v[cross], u[cross])] = False  # separators
        e = ~cross & live[u] & live[v]
        u, v = u[e], v[e]
        keep = live[ids]
        ids = ids[keep]
        code = 2 * code[keep] + right[ids]
        level += 1
    # postorder of the subset tree: pad each code with ones to the full
    # depth, so a subtree sorts before its root and left before right;
    # a root ties with its rightmost descendants, which go first
    pad = (int(depth.max()) if n else 0) - depth
    key = (node << pad) | ((np.int64(1) << pad) - 1)
    return np.lexsort((np.arange(n), -depth, key))


def build_dofs(m: Mesh) -> tuple[DofMap, DofMap]:
    """The continuous and the broken dof map, numbered once.

    The free (non-Dirichlet) nodes are ordered by nested dissection of
    their coordinates and the mesh edges between them, the graph of the
    continuous pencil; it keeps the fill of every sparse factorization
    small.  In that order each free node takes the next dof, and in the
    broken space a free interface node also takes the one after it, its
    Omega2-side dof.  So a node's continuous dof (continuous.node_dof1)
    is included into its broken dofs (broken.node_dof1 and node_dof2).
    """
    N = m.num_nodes
    free = np.ones(N, dtype=bool)
    free[m.boundary_nodes] = False
    on_iface = np.zeros(N, dtype=bool)
    on_iface[m.interface_nodes] = True

    # the mesh edges between free nodes, in positions among the free nodes
    d = np.where(free, np.cumsum(free) - 1, -1)[m.triangles]
    u, v = d.ravel(), np.roll(d, -1, axis=1).ravel()
    edge = (u >= 0) & (v >= 0)
    order = np.flatnonzero(free)[nested_dissection(m.nodes[free], u[edge],
                                                   v[edge])]
    side1 = m.tri_region == OMEGA1
    maps = []
    for kind, twin in ((CONTINUOUS, np.zeros(order.size, dtype=np.int64)),
                       (BROKEN, on_iface[order].astype(np.int64))):
        last = np.cumsum(1 + twin) - 1  # each node's last dof
        dof1 = np.full(N, -1, dtype=np.int64)
        dof1[order] = last - twin
        dof2 = dof1.copy()
        dof2[order] = last
        tri_dofs = np.where(side1[:, None], dof1[m.triangles],
                            dof2[m.triangles])
        maps.append(DofMap(kind=kind, ndof=order.size + int(twin.sum()),
                           node_dof1=dof1, node_dof2=dof2,
                           tri_dofs=tri_dofs))
    return tuple(maps)


def interface_quadrature(m: Mesh) -> np.ndarray:
    """Exact (E, 2, 2) mass matrix of the linear traces on each interface
    edge, in the order of Mesh.iface_edges, with the radial weight folded
    in on meridian meshes."""
    e = m.iface_edges
    ell = m.edge_lengths()
    mass = np.empty((e.shape[0], 2, 2))
    if m.radial_weight:
        r1, r2 = m.nodes[e[:, 0], 0], m.nodes[e[:, 1], 0]
        mass[:, 0, 0] = ell * (r1 / 4 + r2 / 12)
        mass[:, 1, 1] = ell * (r1 / 12 + r2 / 4)
        mass[:, 0, 1] = mass[:, 1, 0] = ell * (r1 + r2) / 12
    else:
        mass[:, 0, 0] = mass[:, 1, 1] = ell / 3.0
        mass[:, 0, 1] = mass[:, 1, 0] = ell / 6.0
    return mass


def check_mesh(m: Mesh, geometry: InterfaceGeometry):
    """Validate mesh invariants; raises MeshingError on violation.  No
    angle may lie below m.angle_floor, which triangulate read off the PSLG."""
    areas = m.signed_areas()
    if np.any(areas <= 0):
        raise MeshingError("non-positive triangle area")
    ang = m.min_angle_deg()
    floor = m.angle_floor - 1e-9
    if ang < floor:
        raise MeshingError(f"minimum angle {ang:.3f} below bound {floor:.3f}",
                           diagnostics={"min_angle": ang})
    cent = m.nodes[m.triangles].mean(axis=1)
    if np.any(geometry.classify_points(cent) != m.tri_region):
        raise MeshingError("region tag disagrees with side classification")
    # conformity: interface edges partition the geometry segments
    ell = m.edge_lengths()
    for sid, s in enumerate(geometry.segments):
        got = float(ell[m.iface_seg == sid].sum())
        if abs(got - s.length) > 1e-10 * max(1.0, s.length):
            raise MeshingError(
                f"segment {sid} of length {s.length} covered by edges "
                f"of total length {got}")
    _iface_adjacency(m.triangles, m.tri_region, m.iface_edges)
    return {"min_angle_deg": ang, "max_edge": m.max_edge(),
            "nodes": m.num_nodes, "triangles": m.num_triangles}

