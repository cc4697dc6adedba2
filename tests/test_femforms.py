import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import forms_reference as ref
from leakyfem import femforms, geometry as geo, meshing, pipeline
from leakyfem.eigensolver import inertia_count


@pytest.fixture(scope="module")
def broken_forms():
    g = geo.make_broken_line(math.pi / 4, 4.0)
    m = meshing.triangulate(g, 0.6)
    mat = geo.MaterialData.borderline(g, alpha=2.0)  # beta = 2
    return g, m, mat, femforms.assemble(m, mat)


@pytest.fixture(scope="module")
def cone_forms():
    g = geo.make_cone_meridian(math.pi / 4, 4.0)
    m = meshing.triangulate(g, 0.6)
    mat = geo.MaterialData.constant(g, alpha=1.5, beta=1.0)
    return g, m, mat, femforms.assemble(m, mat)


def _node_values(dofmap, u, side):
    """Nodal values of a coefficient vector (zeros on Dirichlet nodes)."""
    nd = dofmap.node_dof1 if side == 1 else dofmap.node_dof2
    vals = np.zeros(nd.shape[0])
    ok = nd >= 0
    vals[ok] = u[nd[ok]]
    return vals


def _quadrature_form_oracle(mesh, mat, dofmap, u, which, forms):
    """Recompute the form value by numerical quadrature, independently of
    the closed-form assembly: a 4-point degree-3 rule on triangles and
    2-point Gauss on edges (exact for these polynomial integrands)."""
    tri_pts = np.array([[1 / 3, 1 / 3], [0.6, 0.2], [0.2, 0.6], [0.2, 0.2]])
    tri_w = np.array([-27.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0])
    g1 = 0.5 - 0.5 / math.sqrt(3.0)
    edge_pts = np.array([g1, 1.0 - g1])
    edge_w = np.array([0.5, 0.5])

    v1 = _node_values(dofmap, u, 1)
    v2 = _node_values(dofmap, u, 2)
    total = 0.0
    for t in range(mesh.num_triangles):
        a, b, c = mesh.triangles[t]
        pa, pb, pc = mesh.nodes[a], mesh.nodes[b], mesh.nodes[c]
        vals = (v1 if mesh.tri_region[t] == 1 else v2)[[a, b, c]]
        det = ((pb[0] - pa[0]) * (pc[1] - pa[1])
               - (pb[1] - pa[1]) * (pc[0] - pa[0]))
        gx = np.array([pb[1] - pc[1], pc[1] - pa[1], pa[1] - pb[1]]) / det
        gy = np.array([pc[0] - pb[0], pa[0] - pc[0], pb[0] - pa[0]]) / det
        grad2 = (vals @ gx) ** 2 + (vals @ gy) ** 2
        for (l1, l2), w in zip(tri_pts, tri_w):
            lam = np.array([1 - l1 - l2, l1, l2])
            x = lam[0] * pa[0] + lam[1] * pb[0] + lam[2] * pc[0]
            weight = x if mesh.radial_weight else 1.0
            total += w * abs(det) / 2.0 * weight * grad2

    quad_sum = 0.0
    for k in range(mesh.iface_edges.shape[0]):
        n1, n2 = mesh.iface_edges[k]
        p1, p2 = mesh.nodes[n1], mesh.nodes[n2]
        ell = math.hypot(p2[0] - p1[0], p2[1] - p1[1])
        seg = mesh.iface_seg[k]
        if which == femforms.DELTA:
            f1, f2 = v1[n1], v1[n2]
            coef = mat.alpha[seg]
        else:
            f1, f2 = v1[n1] - v2[n1], v1[n2] - v2[n2]
            coef = 1.0 / mat.beta[seg]
        for tq, w in zip(edge_pts, edge_w):
            val = f1 * (1 - tq) + f2 * tq
            x = p1[0] * (1 - tq) + p2[0] * tq
            weight = x if mesh.radial_weight else 1.0
            quad_sum += w * ell * coef * weight * val * val
    return total - quad_sum


def test_trace_mass_local_block(broken_forms):
    g, m, mat, F = broken_forms
    alpha = mat.alpha[m.iface_seg]
    cont_dofs = F.continuous.node_dof1[m.iface_edges]
    checked = 0
    for k, ell in enumerate(m.edge_lengths()):
        d1, d2 = cont_dofs[k]
        if d1 < 0 or d2 < 0:
            continue
        # the off-diagonal pair receives contributions from this edge only
        assert F.T_alpha[d1, d2] == pytest.approx(alpha[k] * ell / 6.0, rel=1e-13)
        checked += 1
    assert checked > 0


def test_jump_mass_local_block(broken_forms):
    g, m, mat, F = broken_forms
    beta = mat.beta[m.iface_seg]
    e = m.iface_edges
    brok_dofs = np.stack([F.broken.node_dof1[e], F.broken.node_dof2[e]],
                         axis=2)  # [edge, node, side]
    checked = 0
    for k, ell in enumerate(m.edge_lengths()):
        (d1p, d1m), (d2p, d2m) = brok_dofs[k]
        if min(d1p, d1m, d2p, d2m) < 0:
            continue
        base = ell / (6.0 * beta[k])
        assert F.J_beta[d1p, d2p] == pytest.approx(base, rel=1e-13)
        assert F.J_beta[d1p, d2m] == pytest.approx(-base, rel=1e-13)
        assert F.J_beta[d1m, d2m] == pytest.approx(base, rel=1e-13)
        checked += 1
    assert checked > 0


def test_vanishing_alpha_limit(broken_forms):
    g, m, mat, F = broken_forms
    tiny = femforms.assemble(
        m, geo.MaterialData(np.full(mat.n_segments(), 1e-13), mat.beta))
    diff = abs(tiny.A_delta - tiny.K_cont).max()
    assert diff < 1e-12  # trace term scales linearly to zero with alpha
    rng = np.random.default_rng(5)
    x = rng.standard_normal(tiny.continuous.ndof)
    assert x @ (tiny.K_cont @ x) >= 0  # pure Dirichlet energy


@pytest.mark.parametrize("which", [femforms.DELTA, femforms.DELTA_PRIME])
def test_form_value_against_quadrature_oracle(broken_forms, which):
    g, m, mat, F = broken_forms
    rng = np.random.default_rng(42)
    dofmap = F.continuous if which == femforms.DELTA else F.broken
    for _ in range(5):
        u = rng.standard_normal(dofmap.ndof)
        got = ref.form(F, which, u)
        want = _quadrature_form_oracle(m, mat, dofmap, u, which, F)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("which", [femforms.DELTA, femforms.DELTA_PRIME])
def test_radial_form_value_against_quadrature_oracle(cone_forms, which):
    g, m, mat, F = cone_forms
    rng = np.random.default_rng(43)
    dofmap = F.continuous if which == femforms.DELTA else F.broken
    for _ in range(5):
        u = rng.standard_normal(dofmap.ndof)
        got = ref.form(F, which, u)
        want = _quadrature_form_oracle(m, mat, dofmap, u, which, F)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_embed_properties(broken_forms):
    g, m, mat, F = broken_forms
    rng = np.random.default_rng(7)
    u = rng.standard_normal(F.continuous.ndof)
    E = ref.embed_map(F)
    w = u[E]
    assert w @ (F.J_beta @ w) == pytest.approx(0.0, abs=1e-12)  # zero jump
    assert w @ (F.K_brok @ w) == pytest.approx(u @ (F.K_cont @ u), rel=1e-12)
    assert w @ (F.M_brok @ w) == pytest.approx(u @ (F.M_cont @ u), rel=1e-12)
    assert np.array_equal(np.unique(E), np.arange(F.continuous.ndof))


def test_apply_U_involution_and_invariance(broken_forms):
    g, m, mat, F = broken_forms
    rng = np.random.default_rng(8)
    w = rng.standard_normal(F.broken.ndof)
    U = ref.sign_omega2(F)
    assert np.array_equal(U * (U * w), w)
    flipped = U * w
    assert flipped @ (F.K_brok @ flipped) == pytest.approx(
        w @ (F.K_brok @ w), rel=1e-12)
    assert flipped @ (F.M_brok @ flipped) == pytest.approx(
        w @ (F.M_brok @ w), rel=1e-12)


def test_flipped_embedding_doubles_the_jump(broken_forms):
    # jump of U embed(u) equals twice the trace of u on every edge
    g, m, mat, F = broken_forms
    rng = np.random.default_rng(9)
    u = rng.standard_normal(F.continuous.ndof)
    w = ref.flipped_embedding(F, u)
    got = w @ (F.J_beta @ w)
    edge_mass = meshing.interface_quadrature(m)
    beta = mat.beta[m.iface_seg]
    vals = _node_values(F.continuous, u, 1)
    want = 0.0
    for k, (n1, n2) in enumerate(m.iface_edges):
        tr = np.array([vals[n1], vals[n2]])
        want += (4.0 / beta[k]) * tr @ (edge_mass[k] @ tr)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _comparison_gap(F, u):
    """a_deltaprime[U E u] - a_delta[u]: zero up to rounding where
    beta = 4/alpha on every edge, negative where beta < 4/alpha on an edge
    with a nonzero trace of u."""
    return (ref.form(F, femforms.DELTA_PRIME, ref.flipped_embedding(F, u))
            - ref.form(F, femforms.DELTA, u))


def test_borderline_identity(broken_forms):
    g, m, mat, F = broken_forms  # beta = 4/alpha everywhere
    rng = np.random.default_rng(10)
    for _ in range(10):
        u = rng.standard_normal(F.continuous.ndof)
        res = _comparison_gap(F, u)
        scale = abs(ref.form(F, femforms.DELTA, u)) + u @ u
        assert abs(res) <= 1e-12 * scale


def test_below_borderline_strictly_negative(broken_forms):
    g, m, mat, F = broken_forms
    beta = mat.beta.copy()
    beta[m.iface_seg[0]] *= 0.5  # beta < 4/alpha on the segment of edge 0
    F2 = femforms.assemble(m, geo.MaterialData(mat.alpha, beta))
    n1, n2 = m.iface_edges[0]
    d1 = F2.continuous.node_dof1[n1]
    d2 = F2.continuous.node_dof1[n2]
    u = np.zeros(F2.continuous.ndof)
    if d1 >= 0:
        u[d1] = 1.0
    if d2 >= 0:
        u[d2] = 0.7
    assert _comparison_gap(F2, u) < 0

    # zero trace on the interface: residual vanishes for any beta
    z = np.zeros(F2.continuous.ndof)
    free = np.setdiff1d(np.arange(F2.continuous.ndof),
                        F2.continuous.node_dof1[m.interface_nodes])
    z[free[:10]] = 1.0
    assert _comparison_gap(F2, z) == pytest.approx(0.0, abs=1e-12)


def _symmetry_error(A):
    """max |A - A^T| / max |A|, zero for exactly symmetric matrices."""
    amax = abs(A).max() if A.nnz else 0.0
    return float(abs(A - A.T).max() / amax) if amax else 0.0


def test_symmetry_and_signs(broken_forms):
    g, m, mat, F = broken_forms
    for A in (F.K_cont, F.M_cont, F.K_brok, F.M_brok, F.T_alpha, F.J_beta):
        assert _symmetry_error(A) <= 1e-12
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal(F.continuous.ndof)
        assert x @ (F.M_cont @ x) > 0
        assert x @ (F.T_alpha @ x) >= -1e-14
        y = rng.standard_normal(F.broken.ndof)
        assert y @ (F.M_brok @ y) > 0
        assert y @ (F.J_beta @ y) >= -1e-14


def test_monotonicity_in_alpha(broken_forms):
    g, m, mat, F = broken_forms
    mat2 = geo.MaterialData.constant(g, alpha=3.0, beta=2.0)  # alpha' >= alpha
    F2 = femforms.assemble(m, mat2)
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.standard_normal(F.continuous.ndof)
        a1 = x @ (F.A_delta @ x)
        a2 = x @ (F2.A_delta @ x)
        assert a2 <= a1 + 1e-12 * abs(a1)


def test_form_comparison_random_materials(broken_forms):
    # discrete counterpart of the operator ordering, with the gap recomputed
    # independently edge by edge
    g, m, mat, F = broken_forms
    rng = np.random.default_rng(13)
    edge_mass = meshing.interface_quadrature(m)
    seg_beta = (4.0 / mat.alpha) * rng.uniform(0.3, 1.0,
                                               size=mat.n_segments())
    F2 = femforms.assemble(m, geo.MaterialData(mat.alpha, seg_beta))
    alpha = mat.alpha[m.iface_seg]
    beta = seg_beta[m.iface_seg]
    for _ in range(20):
        u = rng.standard_normal(F2.continuous.ndof)
        a_d = ref.form(F2, femforms.DELTA, u)
        a_dp = ref.form(F2, femforms.DELTA_PRIME, ref.flipped_embedding(F2, u))
        assert a_dp <= a_d + 1e-10 * (abs(a_d) + 1)
        tr = _node_values(F2.continuous, u, 1)
        gap = 0.0
        for k, (n1, n2) in enumerate(m.iface_edges):
            t = np.array([tr[n1], tr[n2]])
            gap += (4.0 / beta[k] - alpha[k]) * t @ (edge_mass[k] @ t)
        assert a_d - a_dp == pytest.approx(gap, rel=1e-10, abs=1e-12)


def test_embedded_mass_matrix_identity(broken_forms):
    # E^T M_brok E equals M_cont: the broken mass restricted to the
    # embedded continuous subspace reproduces the continuous mass matrix
    import scipy.sparse as sp
    g, m, mat, F = broken_forms
    nb, nc = F.broken.ndof, F.continuous.ndof
    E = sp.csr_matrix((np.ones(nb), (np.arange(nb), ref.embed_map(F))),
                      shape=(nb, nc))
    diff = abs((E.T @ F.M_brok @ E) - F.M_cont)
    assert diff.max() <= 1e-14 * abs(F.M_cont).max()
    diffK = abs((E.T @ F.K_brok @ E) - F.K_cont)
    assert diffK.max() <= 1e-13 * abs(F.K_cont).max()


def _gap_levels(A, M, count=4):
    """Dense pencil eigenvalues and levels in their widest gaps, from
    below the ground state to the middle of the spectrum."""
    lam = sla.eigvalsh(A.toarray(), M.toarray())
    half = lam[:lam.size // 2 + 1]
    gaps = np.argsort(np.diff(half))[::-1][:count - 1]
    return lam, [lam[0] - 1.0] + [0.5 * (lam[i] + lam[i + 1]) for i in gaps]


@pytest.mark.parametrize("kind", [geo.BROKEN_LINE, geo.CIRCLE,
                                  geo.CONE_MERIDIAN, geo.LINE_PLUS_CIRCLE])
@settings(max_examples=4)
@given(data=st.data())
def test_forms_invariants_on_random_geometries(data, kind):
    # the numbered dof maps, through the E and U that forms_reference
    # reads off them, must realize the form comparison for every geometry
    # kind (each its own branch of classify_points; the cone carries the
    # radial weight) and any strengths
    if kind == geo.BROKEN_LINE:
        g = geo.make_broken_line(data.draw(st.floats(0.3, 1.3)), 3.0)
        ring = 2.0
    elif kind == geo.CIRCLE:
        center = (data.draw(st.floats(-0.3, 0.3)),
                  data.draw(st.floats(-0.3, 0.3)))
        g = geo.make_circle(data.draw(st.floats(0.5, 1.0)), center, 2.5, 16)
        ring = 1.8
    elif kind == geo.CONE_MERIDIAN:
        g = geo.make_cone_meridian(data.draw(st.floats(0.3, 1.3)), 3.0)
        ring = 2.0
    else:
        # h + R <= 1.9 keeps the circle inside the ring
        g = geo.make_line_plus_circle(data.draw(st.floats(1.0, 1.3)),
                                      data.draw(st.floats(0.3, 0.6)), 3.0, 16)
        ring = 2.0
    n = len(g.segments)
    segs = st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)
    alpha = 4.0 * np.array(data.draw(segs))
    c = np.array(data.draw(segs))  # beta = c 4/alpha <= 4/alpha per segment
    mesh, fine = pipeline.mesh_levels(g, 0.6, 1, inner_rings=[ring])
    meshing.check_mesh(mesh, g)
    mat = geo.MaterialData(alpha, c * 4.0 / alpha)
    F = femforms.assemble(mesh, mat)
    Fb = femforms.assemble(mesh, geo.MaterialData(alpha, 4.0 / alpha))
    rng = np.random.default_rng(n)

    for X in (F.K_cont, F.M_cont, F.K_brok, F.M_brok, F.T_alpha, F.J_beta):
        assert _symmetry_error(X) == 0.0
    for _ in range(5):
        u = rng.standard_normal(F.continuous.ndof)
        a_d = ref.form(F, femforms.DELTA, u)
        a_dp = ref.form(F, femforms.DELTA_PRIME, ref.flipped_embedding(F, u))
        assert a_dp <= a_d + 1e-10 * (abs(a_d) + 1)
        scale = abs(ref.form(Fb, femforms.DELTA, u)) + u @ u
        assert abs(_comparison_gap(Fb, u)) <= 1e-12 * scale

    Ff = femforms.assemble(fine, mat)
    for which in (femforms.DELTA, femforms.DELTA_PRIME):
        # full and inner-box pencils, coarse and red-refined
        pencils = []
        for forms in (F, Ff):
            A, M = forms.matrices(which)
            keep = pipeline.interior_dofs(forms, which, ring)
            assert 0 < keep.size < A.shape[0]
            pencils.append(((A, M), (A[keep][:, keep], M[keep][:, keep])))
        for (A, M), (Af, Mf) in zip(*pencils):
            lam, mus = _gap_levels(A, M)
            for mu in mus:
                assert inertia_count(A, M, mu) == int((lam < mu).sum())
            # red refinement nests the spaces, so lambda_i can only
            # decrease: the fine pencil has i eigenvalues up to lambda_i
            for i in range(3):
                mu = lam[i] + 1e-8 * max(1.0, abs(lam[i]))
                assert inertia_count(Af, Mf, mu) >= i + 1


_NESTED = {
    "broken_line": (lambda: geo.make_broken_line(math.pi / 4, 4.0), 0.8,
                    None),
    "circle_ring": (lambda: geo.make_circle(1.0, (0.0, 0.0), 3.0, 16), 0.7,
                    [2.0]),
}


@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_prolonged_functions_keep_every_form(kind):
    # red refinement nests both spaces, so a coarse function u and its
    # prolongation P u are one function: mass, stiffness and the
    # interface form take the same value on both levels.  This pins the
    # children at rows 4t..4t+3 and, on the broken space, midpoints that
    # take their own side's values
    make, h, rings = _NESTED[kind]
    g = make()
    coarse = meshing.triangulate(g, h, inner_rings=rings)
    mat = geo.MaterialData.constant(g, alpha=1.5, beta=1.0)
    Fc = femforms.assemble(coarse, mat)
    Ff = femforms.assemble(meshing.refine_uniform(coarse), mat)
    rng = np.random.default_rng(3)
    for space, names in (("continuous", ("M_cont", "K_cont", "T_alpha")),
                         ("broken", ("M_brok", "K_brok", "J_beta"))):
        dc, df = getattr(Fc, space), getattr(Ff, space)
        U = rng.standard_normal((dc.ndof, 3))
        PU = femforms.prolong(dc, df, U)
        assert PU.shape == (df.ndof, 3)
        for name in names:
            c = np.einsum("ij,ij->j", U, getattr(Fc, name) @ U)
            f = np.einsum("ij,ij->j", PU, getattr(Ff, name) @ PU)
            assert np.abs(f - c).max() <= 1e-12 * np.abs(c).max(), name
