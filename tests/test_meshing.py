import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import forms_reference as ref
from test_mesh_digests import sampled_configs
from leakyfem import geometry as geo
from leakyfem import delaunay, femforms, meshing, pipeline
from leakyfem.errors import DomainError, MeshingError


@pytest.fixture(scope="module")
def broken_mesh():
    g = geo.make_broken_line(math.pi / 4, 4.0)
    return g, meshing.triangulate(g, 1.0)


@pytest.fixture(scope="module")
def circle_mesh():
    g = geo.make_circle(1.0, (0.0, 0.0), 8.0, 64)
    return g, meshing.triangulate(g, 0.5)


def _unique_edges(m):
    e = np.concatenate([m.triangles[:, [0, 1]], m.triangles[:, [1, 2]],
                        m.triangles[:, [2, 0]]])
    return np.unique(np.sort(e, axis=1), axis=0)


def test_euler_relation(broken_mesh):
    g, m = broken_mesh
    V, F = m.num_nodes, m.num_triangles
    E = _unique_edges(m).shape[0]
    assert V - E + F == 1  # triangulated disk


def test_interface_conformity(broken_mesh):
    g, m = broken_mesh
    ell = m.edge_lengths()
    for sid, s in enumerate(g.segments):
        total = ell[m.iface_seg == sid].sum()
        assert abs(total - s.length) <= 1e-10


def test_circle_all_chords_covered(circle_mesh):
    g, m = circle_mesh
    assert set(np.unique(m.iface_seg)) == set(range(64))
    ell = m.edge_lengths()
    for sid, s in enumerate(g.segments):
        total = ell[m.iface_seg == sid].sum()
        assert abs(total - s.length) <= 1e-10


def test_positive_areas_and_angle(broken_mesh):
    g, m = broken_mesh
    assert np.all(m.signed_areas() > 0)
    assert m.min_angle_deg() >= 20.0 - 1e-9
    assert m.max_edge() <= 1.0 + 1e-12


def test_region_tags_match_classification(circle_mesh):
    g, m = circle_mesh
    cent = m.nodes[m.triangles].mean(axis=1)
    assert np.array_equal(g.classify_points(cent), m.tri_region)


def test_interface_edges_separate_regions(circle_mesh):
    g, m = circle_mesh
    r = m.tri_region
    t = meshing._iface_adjacency(m.triangles, r, m.iface_edges)
    assert np.all(r[t[:, 0]] == geo.OMEGA1)
    assert np.all(r[t[:, 1]] == geo.OMEGA2)


def test_h_target_precondition():
    g = geo.make_broken_line(math.pi / 4, 4.0)
    with pytest.raises(DomainError):
        meshing.triangulate(g, 2.0)  # h > L/4
    with pytest.raises(DomainError):
        meshing.triangulate(g, 0.0)


def test_refine_uniform_counts(broken_mesh):
    g, m = broken_mesh
    f = meshing.refine_uniform(m)
    assert f.num_triangles == 4 * m.num_triangles
    assert f.iface_edges.shape[0] == 2 * m.iface_edges.shape[0]
    # nested: parent nodes appear unchanged at the same indices
    assert np.array_equal(f.nodes[:m.num_nodes], m.nodes)
    assert abs(f.min_angle_deg() - m.min_angle_deg()) < 1e-9  # similar children
    ell = f.edge_lengths()
    for sid, s in enumerate(g.segments):
        assert abs(ell[f.iface_seg == sid].sum() - s.length) <= 1e-10


def test_dof_counts(broken_mesh):
    g, m = broken_mesh
    cont, brok = meshing.build_dofs(m)
    assert (cont.kind, brok.kind) == (meshing.CONTINUOUS, meshing.BROKEN)
    dirichlet = set(m.boundary_nodes.tolist())
    free_iface = [n for n in m.interface_nodes.tolist() if n not in dirichlet]
    assert brok.ndof - cont.ndof == len(free_iface)
    duplicated = np.nonzero(brok.node_dof1 != brok.node_dof2)[0]
    assert len(duplicated) == len(free_iface)
    # every triangle resolves its vertices to dofs of its own side
    assert cont.tri_dofs.shape == (m.num_triangles, 3)


def _dissection_order(m):
    """The free nodes in meshing.nested_dissection order of their
    coordinates and the mesh edges between them."""
    free = np.setdiff1d(np.arange(m.num_nodes), m.boundary_nodes)
    local = np.full(m.num_nodes, -1)
    local[free] = np.arange(free.size)
    e = local[_unique_edges(m)]
    e = e[(e >= 0).all(axis=1)]
    return free[meshing.nested_dissection(m.nodes[free], e[:, 0], e[:, 1])]


@pytest.mark.parametrize("make", [
    lambda: geo.make_broken_line(math.pi / 5, 4.0),
    lambda: geo.make_circle(1.0, (0.3, -0.2), 3.5, 24),
    lambda: geo.make_cone_meridian(math.pi / 4, 4.0)],
    ids=["broken_line", "circle", "cone"])
def test_build_dofs_matches_a_node_loop(make):
    # both maps number the free nodes one by one in one dissection order
    m = meshing.triangulate(make(), 0.8)
    for level in range(2):
        order = _dissection_order(m)
        for dm in meshing.build_dofs(m):
            want = ref.loop_dofs(m, order, dm.kind)
            assert dm.ndof == want.ndof
            assert np.array_equal(dm.node_dof1, want.node_dof1)
            assert np.array_equal(dm.node_dof2, want.node_dof2)
            assert np.array_equal(dm.tri_dofs, want.tri_dofs)
        m = meshing.refine_uniform(m)


def _bare(m):
    """The mesh with no interface edges marked."""
    return dataclasses.replace(
        m, iface_edges=np.empty((0, 2), dtype=np.int32),
        iface_seg=np.empty(0, dtype=np.int32))


def test_dofs_no_interface_marked(broken_mesh):
    # with no interface nodes marked, both maps have identical counts
    g, m = broken_mesh
    cont, brok = meshing.build_dofs(_bare(m))
    assert cont.ndof == brok.ndof
    assert np.array_equal(cont.node_dof1, brok.node_dof1)


def test_interface_quadrature_edge_mass(broken_mesh):
    g, m = broken_mesh
    q = meshing.interface_quadrature(m)
    assert q.shape == (m.iface_seg.size, 2, 2)
    # exact linear edge mass: ell/6 * [[2, 1], [1, 2]]
    for k, ell in enumerate(m.edge_lengths()):
        expect = ell / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(q[k], expect, rtol=1e-14, atol=0)
    total = q.sum()  # the entries of each block sum to ell
    expect_total = sum(s.length for s in g.segments)
    assert abs(total - expect_total) <= 1e-10


def test_interface_quadrature_empty(broken_mesh):
    # no interface edges: an empty quadrature, and no interface terms in
    # the assembled forms
    g, m = broken_mesh
    bare = _bare(m)
    assert meshing.interface_quadrature(bare).shape == (0, 2, 2)
    F = femforms.assemble(bare, geo.MaterialData.constant(g, 2.0, 1.0))
    assert F.T_alpha.shape == (F.continuous.ndof,) * 2
    assert F.J_beta.shape == (F.broken.ndof,) * 2
    assert F.T_alpha.nnz == F.J_beta.nnz == 0


def test_cone_mesh_axis_not_dirichlet():
    g = geo.make_cone_meridian(math.pi / 4, 4.0)
    m = meshing.triangulate(g, 0.5)
    bn = m.nodes[m.boundary_nodes]
    on_axis_only = (np.abs(bn[:, 0]) < 1e-12) & (np.abs(np.abs(bn[:, 1]) - 4.0) > 1e-9)
    assert not np.any(on_axis_only)
    # axis nodes exist but are free
    axis = np.nonzero(np.abs(m.nodes[:, 0]) < 1e-12)[0]
    assert len(axis) > len(np.nonzero(np.abs(np.abs(m.nodes[axis, 1]) - 4.0) < 1e-9)[0])


def test_inner_rings_are_conforming():
    g = geo.make_broken_line(math.pi / 4, 8.0)
    m = meshing.triangulate(g, 1.0, inner_rings=[4.0])
    # every node is clearly inside, on, or outside the ring; edges may not
    # straddle it, so nodes at |coord|max == 4 form a closed loop
    on_ring = np.nonzero(np.max(np.abs(m.nodes), axis=1) == 4.0)[0]
    assert len(on_ring) >= 16
    inside = set(np.nonzero(np.max(np.abs(m.nodes), axis=1) < 4.0)[0].tolist())
    crossing = 0
    for (u, v) in _unique_edges(m):
        du, dv = int(u) in inside, int(v) in inside
        mu = max(abs(m.nodes[u, 0]), abs(m.nodes[u, 1]))
        mv = max(abs(m.nodes[v, 0]), abs(m.nodes[v, 1]))
        if du and not dv and mv > 4.0:
            crossing += 1
        if dv and not du and mu > 4.0:
            crossing += 1
    assert crossing == 0


def test_ring_across_the_interface_is_named(monkeypatch):
    # a mesh that fails says which ring crosses the interface, ahead of the
    # refinement's own message, and keeps its diagnostics
    def fail(*args):
        raise MeshingError("minimum angle 1.000 below bound 16.875",
                           diagnostics={"min_angle": 1.0})

    monkeypatch.setattr(meshing, "_mesh_pslg", fail)
    g = geo.make_circle(1.2, (0.0, 0.0), 4.0, 16)
    with pytest.raises(MeshingError, match=r"^the inner ring of halfwidth "
                       r"1\.0 crosses the interface: minimum angle 1\.000 "
                       r"below bound 16\.875$") as info:
        pipeline.mesh_levels(g, 1.0, 0, inner_rings=[1.0])
    assert info.value.diagnostics == {"min_angle": 1.0}
    # without a crossing ring the error passes through as it is
    with pytest.raises(MeshingError, match=r"^minimum angle 1\.000"):
        meshing.triangulate(g, 1.0, inner_rings=[2.0])
    # only a ring that properly crosses an interface segment is named
    g = geo.make_circle(1.0, (0.2, 0.0), 4.447, 16)
    assert meshing._crossing_ring(g, [2.0, 0.957, 0.5]) == 0.957
    assert meshing._crossing_ring(g, [2.0]) is None


_THETAS = np.linspace(0.02, 1.55, 50)
_FLOORS = {
    # kind -> (geometry from one parameter and L, expected floor in degrees)
    "broken_line": (geo.make_broken_line,  # half the apex angle 2 theta
                    lambda t: min(20.0, math.degrees(t))),
    "cone_meridian": (geo.make_cone_meridian,  # the ray meets the axis
                      lambda t: min(20.0, math.degrees(t) / 2)),
    "circle": (lambda t, L: geo.make_circle(L * t / 4, (0.0, 0.0), L, 16),
               lambda t: 20.0),
    "line_plus_circle": (
        lambda t, L: geo.make_line_plus_circle(L * t / 3, L * t / 8, L, 16),
        lambda t: 20.0),
}


@pytest.mark.parametrize("kind", list(_FLOORS))
def test_angle_floor_is_read_off_the_junctions(kind):
    # no ring: the floor is half the sharpest junction of the interface and
    # the box, read off the PSLG without meshing
    make, expected = _FLOORS[kind]
    for L in (2.5, 4.0, 12.0):
        for t in _THETAS:
            _, _, floor = meshing._build_pslg(make(t, L), L / 4, None)
            assert abs(floor - expected(t)) < 1e-9, (kind, L, t, floor)


@pytest.mark.parametrize("kind,t,h", [("broken_line", 0.3, 1.0),
                                      ("cone_meridian", 0.5, 0.8),
                                      ("circle", 1.0, 1.0),
                                      ("line_plus_circle", 1.2, 1.0)])
def test_mesh_carries_its_angle_floor(kind, t, h):
    make, expected = _FLOORS[kind]
    g = make(t, 4.0)
    m = meshing.triangulate(g, h)
    assert abs(m.angle_floor - expected(t)) < 1e-9
    assert m.min_angle_deg() >= m.angle_floor - 1e-9
    f = meshing.refine_uniform(m)
    assert f.angle_floor == m.angle_floor
    meshing.check_mesh(f, g)


def test_meshing_uses_only_the_triangulators_methods():
    # meshing builds and reads a Triangulation through its methods and the
    # coordinates px, py and box_vertices; its tables stay in delaunay, so
    # a change of their data structures cannot reach meshing
    tri = delaunay.Triangulation([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0),
                                  (0.0, 1.0)])
    hidden = set(vars(tri)) - {"px", "py", "box_vertices"}
    hidden |= {n for n in vars(delaunay.Triangulation)
               if n.startswith("_") and not n.startswith("__")}
    tree = ast.parse(inspect.getsource(meshing))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in hidden, (node.lineno, node.attr)
            assert isinstance(node.ctx, ast.Load), (node.lineno, node.attr)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
            for t in targets:
                while isinstance(t, ast.Subscript):
                    t = t.value
                assert not isinstance(t, ast.Attribute), (node.lineno, t.attr)


def _straddling_edges(m, r):
    """Number of mesh edges with one end inside the ring of halfwidth r and
    the other outside, by more than the mesher's snapping tolerance."""
    d = np.max(np.abs(m.nodes), axis=1)[_unique_edges(m)]
    inside, outside = d < r * (1 - 1e-12), d > r * (1 + 1e-12)
    return int(np.sum((inside[:, 0] & outside[:, 1])
                      | (outside[:, 0] & inside[:, 1])))


def test_ring_close_to_the_interface_is_recovered():
    # the top side of the ring of halfwidth 1 runs through the circle of
    # radius 0.5 at height 1, and some of its pieces are no Delaunay edges
    # once the points are in: they are split at their midpoints
    g = geo.make_line_plus_circle(1.0, 0.5, 4.0, 16)
    m = meshing.triangulate(g, 1.0, inner_rings=[1.0])
    meshing.check_mesh(m, g)
    assert _straddling_edges(m, 1.0) == 0
    # the ring of halfwidth 0.957 meets a chord of the circle about
    # (0.2, 0) at 11.25 degrees: the mesh may go down to half of that
    g = geo.make_circle(1.0, (0.2, 0.0), 4.447, 16)
    m = meshing.triangulate(g, 1.0, inner_rings=[0.957])
    meshing.check_mesh(m, g)
    assert abs(m.angle_floor - 5.625) < 1e-9
    assert _straddling_edges(m, 0.957) == 0
    # the ring of halfwidth 1 meets chords of the circle of radius 1.2 at
    # 33.75 degrees: refinement works down to half of that, as the check does
    g = geo.make_circle(1.2, (0.0, 0.0), 4.0, 16)
    m = meshing.triangulate(g, 1.0, inner_rings=[1.0])
    meshing.check_mesh(m, g)
    assert abs(m.angle_floor - 16.875) < 1e-9
    assert _straddling_edges(m, 1.0) == 0


@st.composite
def _ringed_geometries(draw):
    """(kind, geometry args, h, rings) with one ring near or across the
    interface."""
    kind = draw(st.sampled_from(["broken_line", "circle", "line_plus_circle",
                                 "cone_meridian"]))
    L = draw(st.floats(2.5, 6.0))
    if kind in ("broken_line", "cone_meridian"):
        args = (draw(st.floats(0.2, 1.4)), L)
        near = L * draw(st.floats(0.1, 0.9))
    elif kind == "circle":
        R = L * draw(st.floats(0.1, 0.4))
        c = (draw(st.floats(-0.2, 0.2)) * L, draw(st.floats(-0.2, 0.2)) * L)
        args = (R, c, L, draw(st.integers(16, 32)))
        near = max(abs(c[0]), abs(c[1])) + R
    else:
        R = L * draw(st.floats(0.05, 0.3))
        height = R + L * draw(st.floats(0.05, 0.3))
        args = (height, R, L, draw(st.integers(16, 32)))
        near = draw(st.sampled_from([height - R, height, height + R]))
    Lr = min(max(near * draw(st.floats(0.9, 1.1)), 0.05 * L), 0.95 * L)
    h = L * draw(st.floats(1 / 8, 1 / 4))
    return kind, args, h, [Lr]


@settings(max_examples=25)
@example(case=("line_plus_circle", (1.0, 0.5, 4.0, 16), 1.0, [1.0]))
@given(case=_ringed_geometries())
def test_rings_near_the_interface_mesh_or_fail_explicitly(case):
    kind, args, h, rings = case
    try:
        g = getattr(geo, "make_" + kind)(*args)
        m = meshing.triangulate(g, h, inner_rings=rings)
    except DomainError:
        return
    except MeshingError as exc:
        # a ring that meets the interface at a small angle may miss the
        # angle floor or the vertex budget; no constraint is left missing
        assert {"min_angle", "budget"} & set(exc.diagnostics), exc
        return
    meshing.check_mesh(m, g)
    assert _straddling_edges(m, rings[0]) == 0


def test_crossing_constraints_are_refused():
    # two constraints that cross away from any vertex: the pieces of the
    # second around the crossing stay missing however often they are split
    tri = delaunay.Triangulation([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0),
                                  (0.0, 4.0)])
    a, b, c, d = (tri.insert_point(x, y) for x, y in
                  ((1.0, 1.0), (3.0, 3.0), (0.5, 2.9), (3.3, 1.1)))
    tri.insert_segment(a, b, "first")
    with pytest.raises(MeshingError, match="crosses another constraint"):
        tri.insert_segment(c, d, "second")


def _dict_adjacency(triangles, tri_region, iface_edges):
    """Plain reference: each directed edge maps to its (last) triangle."""
    owner = {}
    for t, (a, b, c) in enumerate(triangles.tolist()):
        owner[(a, b)] = owner[(b, c)] = owner[(c, a)] = t
    out = []
    for u, v in iface_edges.tolist():
        t1, t2 = owner[(u, v)], owner[(v, u)]
        out.append((t1, t2) if tri_region[t1] == geo.OMEGA1 else (t2, t1))
    return np.asarray(out, dtype=np.int32).reshape(-1, 2)


@pytest.mark.parametrize("case", ["broken_line", "circle"])
def test_iface_adjacency_matches_dict_reference(case):
    if case == "broken_line":
        g = geo.make_broken_line(math.pi / 4, 6.0)
        m = meshing.triangulate(g, 0.6, inner_rings=[3.0])
    else:
        g = geo.make_circle(1.0, (0.0, 0.0), 3.5, 48)
        m = meshing.triangulate(g, 0.4)
    for _ in range(3):
        got = meshing._iface_adjacency(m.triangles, m.tri_region,
                                       m.iface_edges)
        assert got.dtype == np.int32
        assert np.array_equal(got, _dict_adjacency(m.triangles, m.tri_region,
                                                   m.iface_edges))
        m = meshing.refine_uniform(m)


def test_iface_adjacency_errors(broken_mesh):
    _, m = broken_mesh
    t = meshing._iface_adjacency(m.triangles, m.tri_region, m.iface_edges)
    t_in = t[0, 0]
    keep = np.arange(m.triangles.shape[0]) != t_in
    with pytest.raises(MeshingError, match="lacks a triangle"):
        meshing._iface_adjacency(m.triangles[keep], m.tri_region[keep],
                                 m.iface_edges)
    region = m.tri_region.copy()
    region[t[-1, 1]] = geo.OMEGA1
    with pytest.raises(MeshingError, match="not separating"):
        meshing._iface_adjacency(m.triangles, region, m.iface_edges)


def _dict_split(m):
    """Plain reference for refine_uniform's new nodes and split edges: a
    dict from each sorted edge to its midpoint node."""
    e = np.concatenate([m.triangles[:, [0, 1]], m.triangles[:, [1, 2]],
                        m.triangles[:, [2, 0]]])
    uedges = np.unique(np.sort(e, axis=1), axis=0)
    edge_mid = {(int(u), int(v)): m.num_nodes + k
                for k, (u, v) in enumerate(uedges)}

    def split(earr):
        out = []
        for u, v in earr.tolist():
            w = edge_mid[(min(u, v), max(u, v))]
            out += [(u, w), (w, v)]
        return np.asarray(out, dtype=np.int32).reshape(-1, 2)

    mids = 0.5 * (m.nodes[uedges[:, 0]] + m.nodes[uedges[:, 1]])
    return (np.vstack([m.nodes, mids]), split(m.iface_edges),
            split(m.boundary_edges))


@pytest.mark.parametrize("case", ["broken_line", "circle"])
def test_refine_uniform_matches_dict_reference(case):
    if case == "broken_line":
        g = geo.make_broken_line(math.pi / 4, 6.0)
        m = meshing.triangulate(g, 0.6, inner_rings=[3.0])
    else:
        g = geo.make_circle(1.0, (0.0, 0.0), 3.5, 48)
        m = meshing.triangulate(g, 0.4)
    for _ in range(2):
        nodes, iface, bedges = _dict_split(m)
        m = meshing.refine_uniform(m)
        assert np.array_equal(m.nodes, nodes)
        assert m.iface_edges.dtype == np.int32
        assert np.array_equal(m.iface_edges, iface)
        assert np.array_equal(m.boundary_edges, bedges)


def test_refine_uniform_rejects_an_edge_of_no_triangle(broken_mesh):
    # the leftmost and the rightmost node of the box share no triangle
    _, m = broken_mesh
    far = [np.argmin(m.nodes[:, 0]), np.argmax(m.nodes[:, 0])]
    bad = dataclasses.replace(m, boundary_edges=np.vstack(
        [m.boundary_edges, [far]]).astype(np.int32))
    with pytest.raises(MeshingError, match="not a triangle edge"):
        meshing.refine_uniform(bad)


@pytest.mark.parametrize("s", [2.0, 0.5])
def test_dilated_broken_line_meshes_to_the_scaled_mesh(s):
    # a shell exponent log2(d/2) that sits exactly on a tie (-1.5 for the
    # 45 deg piece from (2.5, 2.5) to (3, 3)) and one ulp past it in the
    # dilated copy must round the same way, so the copy is the same mesh
    # with every coordinate scaled exactly
    g = geo.make_broken_line(math.pi / 4, 4.0)
    m = meshing.triangulate(g, 0.8, inner_rings=[2.5])
    gs = geo.make_broken_line(math.pi / 4, 4.0 * s)
    ms = meshing.triangulate(gs, 0.8 * s, inner_rings=[2.5 * s])
    assert np.array_equal(ms.triangles, m.triangles)
    assert np.array_equal(ms.nodes, s * m.nodes)
    assert np.array_equal(ms.iface_edges, m.iface_edges)


# the four geometry kinds, each with a ring, and a share of the sampler
DILATED = [
    ("broken_line", (math.pi / 4, 4.0), 0.8, [2.5]),
    ("circle", (1.0, (0.2, 0.0), 4.0, 16), 0.8, [2.0]),
    ("cone_meridian", (0.6, 3.0), 0.6, [2.0]),
    ("line_plus_circle", (1.2, 0.5, 3.0, 16), 0.6, [2.0]),
] + sampled_configs(4242, 12)


def _dilated_args(kind, args, s):
    if kind == "circle":
        R, (cx, cy), L, n = args
        return s * R, (s * cx, s * cy), s * L, n
    if kind == "line_plus_circle":
        height, R, L, n = args
        return s * height, s * R, s * L, n
    theta, L = args
    return theta, s * L


@pytest.mark.parametrize("kind, args, h, rings", DILATED,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(DILATED)])
def test_dilation_scales_the_mesh_and_the_pencils_exactly(kind, args, h,
                                                          rings):
    # every length times a power of two s, alpha / s and s beta: the same
    # mesh with every node scaled exactly, K, T_alpha and J_beta unchanged
    # and M times s^2, bit for bit; the cone's radial weight r adds one
    # more factor s to each
    alpha, beta = 2.7, 1.3
    g = getattr(geo, "make_" + kind)(*args)
    m = meshing.triangulate(g, h, inner_rings=rings)
    forms = femforms.assemble(m, geo.MaterialData.constant(g, alpha, beta))
    for s in (2.0, 0.5):
        gs = getattr(geo, "make_" + kind)(*_dilated_args(kind, args, s))
        rings_s = None if rings is None else [s * r for r in rings]
        ms = meshing.triangulate(gs, s * h, inner_rings=rings_s)
        assert np.array_equal(ms.triangles, m.triangles)
        assert np.array_equal(ms.nodes, s * m.nodes)
        fs = femforms.assemble(ms, geo.MaterialData.constant(
            gs, alpha / s, s * beta))
        w = s if m.radial_weight else 1.0
        for name, c in (("K_cont", w), ("K_brok", w), ("T_alpha", w),
                        ("J_beta", w), ("M_cont", w * s * s),
                        ("M_brok", w * s * s)):
            X, Y = getattr(forms, name), getattr(fs, name)
            assert np.array_equal(Y.indptr, X.indptr), name
            assert np.array_equal(Y.indices, X.indices), name
            assert np.array_equal(Y.data, c * X.data), name
