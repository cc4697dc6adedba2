"""Assembly of the quadratic forms for the two surface couplings.

Both operators share the Dirichlet energy; they differ in the interface
term.  The "delta" form lives on the continuous space and subtracts a
weighted trace mass,

    a_delta[u]      = int |grad u|^2  -  int_Sigma alpha |u|^2,

while the "delta-prime" form lives on the broken space and penalizes the
jump across the interface,

    a_deltaprime[u] = int |grad u|^2  -  int_Sigma (1/beta) |u_1 - u_2|^2.

All integrals of products of linear basis functions are evaluated in
closed form, including the radial weight r used on meridian meshes, so
assembly is exact up to rounding.

The dofs of both spaces are numbered once, before any matrix is
scattered, by one nested-dissection order of the nodes (_numbered).  It
keeps the fill of every sparse factorization small, so each pencil is
assembled in the order it is factored in and nothing downstream handles
orderings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import DomainError
from .geometry import MaterialData
from .meshing import (BROKEN, CONTINUOUS, DofMap, Mesh, build_dofs,
                      interface_quadrature)

DELTA = "delta"
DELTA_PRIME = "delta_prime"


@dataclass(frozen=True)
class AssembledForms:
    """Sparse symmetric matrices of both discrete forms on one mesh.

    K_cont / M_cont  stiffness and mass on the continuous space
    K_brok / M_brok  stiffness and mass on the broken space
    T_alpha          interface trace mass (continuous space)
    J_beta           interface jump mass (broken space)

    Both spaces are numbered by one nested-dissection order of the
    nodes, fixed before assembly (_numbered).  The dof maps alone relate
    the two spaces: a node's continuous dof (continuous.node_dof1) is
    included into its broken dofs (broken.node_dof1 and node_dof2).
    """

    mesh: Mesh
    material: MaterialData
    continuous: DofMap
    broken: DofMap
    K_cont: sp.csr_matrix
    M_cont: sp.csr_matrix
    K_brok: sp.csr_matrix
    M_brok: sp.csr_matrix
    T_alpha: sp.csr_matrix
    J_beta: sp.csr_matrix

    @property
    def A_delta(self):
        return (self.K_cont - self.T_alpha).tocsr()

    @property
    def A_deltaprime(self):
        return (self.K_brok - self.J_beta).tocsr()

    def matrices(self, which):
        """(A, M) pencil for the requested operator."""
        if which == DELTA:
            return self.A_delta, self.M_cont
        if which == DELTA_PRIME:
            return self.A_deltaprime, self.M_brok
        raise DomainError(f"unknown operator kind {which!r}")


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


def _tri_geometry(mesh):
    p = mesh.nodes[mesh.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    bx = np.stack([x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]], axis=1)
    by = np.stack([y[:, 1] - y[:, 0], y[:, 2] - y[:, 0]], axis=1)
    det = bx[:, 0] * by[:, 1] - bx[:, 1] * by[:, 0]
    area = 0.5 * det
    # gradients of the three hat functions
    gx = np.stack([(y[:, 1] - y[:, 2]), (y[:, 2] - y[:, 0]),
                   (y[:, 0] - y[:, 1])], axis=1) / det[:, None]
    gy = np.stack([(x[:, 2] - x[:, 1]), (x[:, 0] - x[:, 2]),
                   (x[:, 1] - x[:, 0])], axis=1) / det[:, None]
    return x, area, gx, gy


def _local_stiffness(geom, radial_weight):
    x, area, gx, gy = geom
    Ke = (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])
    Ke *= area[:, None, None]
    if radial_weight:
        Ke *= x.mean(axis=1)[:, None, None]  # int_T r = area * centroid radius
    return Ke


def _local_mass(geom, radial_weight):
    x, area, _, _ = geom
    T = area.shape[0]
    Me = np.empty((T, 3, 3))
    if not radial_weight:
        Me[:] = area[:, None, None] / 12.0
        Me[:, [0, 1, 2], [0, 1, 2]] = area[:, None] / 6.0
        return Me
    # exact moments of r * phi_i * phi_j with r linear in the vertices
    r = x
    for i in range(3):
        a, b = [m for m in range(3) if m != i]
        Me[:, i, i] = area * (r[:, i] / 10.0 + (r[:, a] + r[:, b]) / 30.0)
        Me[:, a, b] = Me[:, b, a] = area * ((r[:, a] + r[:, b]) / 30.0
                                            + r[:, i] / 60.0)
    return Me


def _scatter(blocks, dofs, ndof):
    """Accumulate (N, k, k) element or edge blocks into a CSR matrix."""
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    vals = blocks.reshape(blocks.shape[0], k * k).ravel()
    keep = (rows >= 0) & (cols >= 0)
    A = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(ndof, ndof))
    return A.tocsr()


def _numbered(mesh, continuous, broken):
    """The two natural dof maps of the mesh (build_dofs) renumbered by one
    nested-dissection order of the free nodes, from their coordinates and
    the mesh edges between them, the graph of the continuous pencil.
    Returns the continuous and the broken map.  A continuous dof takes its
    node's position in that order; the broken dofs follow the same order,
    with the Omega2 dof of a doubled interface node right after its Omega1
    dof."""
    free = continuous.node_dof1 >= 0
    d = continuous.node_dof1[mesh.triangles]
    u, v = d.ravel(), np.roll(d, -1, axis=1).ravel()
    edge = (u >= 0) & (v >= 0)
    perm = nested_dissection(mesh.nodes[free], u[edge], v[edge])
    first = broken.node_dof1[free][perm]
    second = broken.node_dof2[free][perm]
    twin = (second != first).astype(np.int64)
    # new[old dof] = its new number; the extra last entry keeps the
    # Dirichlet marker -1 at -1
    new_c = np.full(continuous.ndof + 1, -1, dtype=np.int64)
    new_c[perm] = np.arange(perm.size)
    new_b = np.full(broken.ndof + 1, -1, dtype=np.int64)
    last = np.cumsum(1 + twin) - 1  # each node's last broken dof
    new_b[first] = last - twin
    new_b[second] = last
    return tuple(replace(m, node_dof1=new[m.node_dof1],
                         node_dof2=new[m.node_dof2], tri_dofs=new[m.tri_dofs])
                 for m, new in ((continuous, new_c), (broken, new_b)))


def assemble(mesh: Mesh, material: MaterialData) -> AssembledForms:
    """Assemble stiffness, mass, trace, and jump matrices for one mesh,
    in the dof order of _numbered.

    Parameters
    ----------
    mesh, material : the triangulation and per-segment strengths.

    Raises DomainError when the material has fewer segments than the mesh.
    """
    if mesh.iface_seg.size and material.n_segments() <= int(mesh.iface_seg.max()):
        raise DomainError("material carries fewer segments than the mesh")
    continuous, broken = _numbered(
        mesh, build_dofs(mesh, CONTINUOUS), build_dofs(mesh, BROKEN))

    quad = interface_quadrature(mesh, continuous, broken)
    alpha = material.alpha[quad.seg]
    beta = material.beta[quad.seg]

    geom = _tri_geometry(mesh)
    Ke = _local_stiffness(geom, mesh.radial_weight)
    Me = _local_mass(geom, mesh.radial_weight)
    del geom  # about 100 bytes per triangle, not needed by the scatters
    K_cont = _scatter(Ke, continuous.tri_dofs, continuous.ndof)
    M_cont = _scatter(Me, continuous.tri_dofs, continuous.ndof)
    K_brok = _scatter(Ke, broken.tri_dofs, broken.ndof)
    M_brok = _scatter(Me, broken.tri_dofs, broken.ndof)

    # trace mass on the continuous space: alpha * edge mass
    Tblocks = alpha[:, None, None] * quad.edge_mass
    T_alpha = _scatter(Tblocks, quad.cont_dofs, continuous.ndof)

    # jump mass on the broken space: (1/beta) * edge mass expanded with
    # signs +1 on the Omega1 copy and -1 on the Omega2 copy of each node
    jd = quad.brok_dofs.reshape(-1, 4)         # [n1s1, n1s2, n2s1, n2s2]
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    node_of = np.array([0, 0, 1, 1])
    Jblocks = (np.outer(signs, signs)
               * quad.edge_mass[:, node_of][:, :, node_of])
    Jblocks /= beta[:, None, None]
    J_beta = _scatter(Jblocks, jd, broken.ndof)

    return AssembledForms(mesh=mesh, material=material, continuous=continuous,
                          broken=broken, K_cont=K_cont, M_cont=M_cont,
                          K_brok=K_brok, M_brok=M_brok, T_alpha=T_alpha,
                          J_beta=J_beta)

