"""Nested-dissection dof numbering (meshing.build_dofs): the continuous
space is numbered in the dissection order of its natural-order pencil
and the broken space by the same node order, the broken numbering fills
about as little as a dissection of its own, the dissection agrees with a
plain recursive reference, and factorization inertia in that numbering
matches dense eigenvalues.  The natural-order maps come from the node
loop of forms_reference, walking the nodes in their mesh order."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import forms_reference as ref
from leakyfem import femforms, geometry as geo, meshing, pipeline
from leakyfem.eigensolver import inertia_count


def _reference_dissection(ids, xy, u, v, leaf, out):
    """Recursive form of meshing.nested_dissection on the subset ids
    (local edges u, v); appends the ordered vertices to out."""
    m = ids.size
    if m <= leaf:
        out.append(ids)
        return
    axis = int(np.argmax(xy.max(axis=0) - xy.min(axis=0)))
    right = np.zeros(m, dtype=bool)
    right[np.argsort(xy[:, axis], kind="stable")[m // 2:]] = True
    cross = right[u] != right[v]
    sep = np.zeros(m, dtype=bool)
    sep[np.where(right[u[cross]], v[cross], u[cross])] = True
    local = np.empty(m, dtype=np.int64)
    for part in (~(right | sep), right):
        idx = np.flatnonzero(part)
        local[idx] = np.arange(idx.size)
        inner = part[u] & part[v]
        _reference_dissection(ids[idx], xy[idx], local[u[inner]],
                              local[v[inner]], leaf, out)
    out.append(ids[sep])


def _broken_line():
    g = geo.make_broken_line(math.pi / 3, 4.0)
    return g, geo.MaterialData.borderline(g, alpha=2.0), [2.5]


def _circle():
    g = geo.make_circle(1.0, (0.2, -0.1), 2.5, 24)
    return g, geo.MaterialData.constant(g, alpha=5.0, beta=0.7), [1.8]


@pytest.fixture(scope="module", params=[_broken_line, _circle],
                ids=["broken_line", "circle"])
def forms(request):
    g, mat, rings = request.param()
    mesh = pipeline.mesh_levels(g, 0.6, 0, inner_rings=rings)[0]
    return femforms.assemble(mesh, mat), rings[0]


def _levels(A, M, count=4):
    """Levels strictly inside gaps of the dense pencil spectrum, spread
    from below the ground state to the middle of the spectrum."""
    lam = sla.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    picks = np.unique(np.linspace(0, lam.size // 2, count).astype(int))
    mus = [lam[0] - 1.0] + [0.5 * (lam[i] + lam[i + 1]) for i in picks[1:]]
    return lam, mus


def _numbering(F, which):
    """(perm, natural): the natural dof map of the space of `which`, its
    nodes numbered in mesh order, and the assembled numbering as
    perm[assembled dof] = natural dof."""
    dofmap = F.continuous if which == femforms.DELTA else F.broken
    natural = ref.loop_dofs(F.mesh, range(F.mesh.num_nodes), dofmap.kind)
    perm = np.full(dofmap.ndof, -1, dtype=np.int64)
    for nd, nat in ((dofmap.node_dof1, natural.node_dof1),
                    (dofmap.node_dof2, natural.node_dof2)):
        ok = nd >= 0
        perm[nd[ok]] = nat[ok]
    return perm, natural


@pytest.mark.parametrize("which", [femforms.DELTA, femforms.DELTA_PRIME])
def test_ordering_is_a_permutation(forms, which):
    # the assembled numbering is a renumbering of the natural dof map:
    # same dofs, same Dirichlet nodes, triangles resolved alike
    F, _ = forms
    A, _ = F.matrices(which)
    dofmap = F.continuous if which == femforms.DELTA else F.broken
    perm, natural = _numbering(F, which)
    assert perm.size > 64  # the dissection has at least one separator
    assert np.array_equal(np.sort(perm), np.arange(A.shape[0]))
    for nd, nat in ((dofmap.node_dof1, natural.node_dof1),
                    (dofmap.node_dof2, natural.node_dof2),
                    (dofmap.tri_dofs, natural.tri_dofs)):
        assert np.array_equal(nd < 0, nat < 0)
        assert np.array_equal(perm[nd[nd >= 0]], nat[nat >= 0])


@pytest.mark.parametrize("which", [femforms.DELTA, femforms.DELTA_PRIME])
def test_assembled_numbering_is_the_dissection_of_the_natural_pencil(
        forms, which):
    # dof i of the assembled space is dof perm[i] of the natural one.  For
    # the continuous space perm is nested_dissection of the natural-order
    # pencil's graph with the natural dof coordinates; the broken space
    # takes the nodes in the same order, each Omega2 twin right after its
    # Omega1 dof
    F, _ = forms
    if which == femforms.DELTA_PRIME:
        perm_c, nat_c = _numbering(F, femforms.DELTA)
        perm, natural = _numbering(F, which)
        nodes = np.flatnonzero(nat_c.node_dof1 >= 0)[perm_c]
        d1, d2 = natural.node_dof1[nodes], natural.node_dof2[nodes]
        twin = d2 != d1
        assert twin.sum() == natural.ndof - perm_c.size > 0
        expected = np.concatenate([[a] if a == b else [a, b]
                                   for a, b in zip(d1, d2)])
        assert np.array_equal(perm, expected)
        return
    A, M = F.matrices(which)
    perm, natural = _numbering(F, which)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    An, Mn = A[inv][:, inv], M[inv][:, inv]
    xy = np.empty((natural.ndof, 2))
    for nd in (natural.node_dof1, natural.node_dof2):
        ok = nd >= 0
        xy[nd[ok]] = F.mesh.nodes[ok]
    G = sp.triu(abs(An) + abs(Mn), k=1).tocoo()
    assert np.array_equal(meshing.nested_dissection(xy, G.row, G.col), perm)


def _fill(A, M):
    """Nonzeros of L + U of the pencil's pattern factored in its own
    order, as eigensolver._factor factors A - sigma M; the diagonal is
    made dominant so that the diagonal pivots hold."""
    B = abs(A) + abs(M)
    B = (B + sp.diags(np.asarray(B.sum(axis=1)).ravel())).tocsc()
    lu = splu(B, permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True))
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("case, refinements", [
    (_broken_line, 0), (_circle, 1),
    (lambda: (geo.make_cone_meridian(math.pi / 5, 3.0), None, [2.0]), 1)],
    ids=["broken_line-0", "circle-1", "cone-1"])
def test_broken_numbering_fills_like_its_own_dissection(case, refinements):
    # the broken pencil in the continuous node order fills at most 5%
    # more than in a nested dissection of its own natural-order graph
    g, mat, rings = case()
    mat = mat or geo.MaterialData.borderline(g, alpha=2.0)
    mesh = pipeline.mesh_levels(g, 0.6, refinements, inner_rings=rings)[-1]
    F = femforms.assemble(mesh, mat)
    A, M = F.matrices(femforms.DELTA_PRIME)
    perm, natural = _numbering(F, femforms.DELTA_PRIME)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    An, Mn = A[inv][:, inv], M[inv][:, inv]
    xy = np.empty((natural.ndof, 2))
    for nd in (natural.node_dof1, natural.node_dof2):
        ok = nd >= 0
        xy[nd[ok]] = mesh.nodes[ok]
    G = sp.triu(abs(An) + abs(Mn), k=1).tocoo()
    own = meshing.nested_dissection(xy, G.row, G.col)
    assert _fill(A, M) <= 1.05 * _fill(An[own][:, own], Mn[own][:, own])


@pytest.mark.parametrize("which", [femforms.DELTA, femforms.DELTA_PRIME])
def test_ordering_matches_recursive_reference(forms, which):
    F, _ = forms
    A, M = F.matrices(which)
    dofmap = F.continuous if which == femforms.DELTA else F.broken
    xy = np.empty((dofmap.ndof, 2))
    for nd in (dofmap.node_dof1, dofmap.node_dof2):
        ok = nd >= 0
        xy[nd[ok]] = F.mesh.nodes[ok]
    G = sp.triu(abs(A) + abs(M), k=1).tocoo()
    for leaf in (4, 16, 64):
        out = []
        _reference_dissection(np.arange(xy.shape[0]), xy, G.row, G.col,
                              leaf, out)
        assert np.array_equal(
            meshing.nested_dissection(xy, G.row, G.col, leaf=leaf),
            np.concatenate(out))


@pytest.mark.parametrize("which", [femforms.DELTA, femforms.DELTA_PRIME])
def test_inertia_with_ordering_matches_dense(forms, which):
    F, _ = forms
    A, M = F.matrices(which)
    lam, mus = _levels(A, M)
    for mu in mus:
        assert inertia_count(A, M, mu) == int((lam < mu).sum())


@pytest.mark.parametrize("which", [femforms.DELTA, femforms.DELTA_PRIME])
def test_restricted_ordering_matches_dense(forms, which):
    # the inner-box pencil keeps a sorted subset of the assembled dofs,
    # so it is factored in their relative dissection order
    F, halfwidth = forms
    A, M = F.matrices(which)
    keep = pipeline.interior_dofs(F, which, halfwidth)
    assert 0 < keep.size < A.shape[0]
    assert np.all(np.diff(keep) > 0)
    Ar = A[keep][:, keep].tocsr()
    Mr = M[keep][:, keep].tocsr()
    lam, mus = _levels(Ar, Mr)
    for mu in mus:
        assert inertia_count(Ar, Mr, mu) == int((lam < mu).sum())
