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

The dofs of both spaces come numbered from meshing.build_dofs, in one
nested-dissection order of the free nodes; each matrix is scattered in
that numbering, the order it is factored in.  prolong maps a function of
either space on a mesh into the same space on its red refinement, where
it is the same function (the spaces are nested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainError
from .geometry import MaterialData
from .meshing import DofMap, Mesh, build_dofs, interface_quadrature

DELTA = "delta"
DELTA_PRIME = "delta_prime"


@dataclass(frozen=True)
class AssembledForms:
    """Sparse symmetric matrices of both discrete forms on one mesh.

    K_cont / M_cont  stiffness and mass on the continuous space
    K_brok / M_brok  stiffness and mass on the broken space
    T_alpha          interface trace mass (continuous space)
    J_beta           interface jump mass (broken space)

    continuous / broken are the dof maps of meshing.build_dofs, which
    fixes the numbering of both spaces.  The dof maps alone relate the
    two spaces: a node's continuous dof (continuous.node_dof1) is
    included into its broken dofs (broken.node_dof1 and node_dof2).
    """

    mesh: Mesh
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


def assemble(mesh: Mesh, material: MaterialData) -> AssembledForms:
    """Assemble stiffness, mass, trace, and jump matrices for one mesh,
    in the dof numbering of meshing.build_dofs.

    Parameters
    ----------
    mesh, material : the triangulation and per-segment strengths.

    Raises DomainError when the material has fewer segments than the mesh.
    """
    if mesh.iface_seg.size and material.n_segments() <= int(mesh.iface_seg.max()):
        raise DomainError("material carries fewer segments than the mesh")
    continuous, broken = build_dofs(mesh)
    e = mesh.iface_edges
    edge_mass = interface_quadrature(mesh)
    alpha = material.alpha[mesh.iface_seg]
    beta = material.beta[mesh.iface_seg]

    geom = _tri_geometry(mesh)
    Ke = _local_stiffness(geom, mesh.radial_weight)
    Me = _local_mass(geom, mesh.radial_weight)
    del geom  # about 100 bytes per triangle, not needed by the scatters
    K_cont = _scatter(Ke, continuous.tri_dofs, continuous.ndof)
    M_cont = _scatter(Me, continuous.tri_dofs, continuous.ndof)
    K_brok = _scatter(Ke, broken.tri_dofs, broken.ndof)
    M_brok = _scatter(Me, broken.tri_dofs, broken.ndof)

    # trace mass on the continuous space: alpha * edge mass
    Tblocks = alpha[:, None, None] * edge_mass
    T_alpha = _scatter(Tblocks, continuous.node_dof1[e], continuous.ndof)

    # jump mass on the broken space: (1/beta) * edge mass expanded with
    # signs +1 on the Omega1 copy and -1 on the Omega2 copy of each node
    jd = np.stack([broken.node_dof1[e], broken.node_dof2[e]],
                  axis=2).reshape(-1, 4)  # [n1s1, n1s2, n2s1, n2s2]
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    node_of = np.array([0, 0, 1, 1])
    Jblocks = np.outer(signs, signs) * edge_mass[:, node_of][:, :, node_of]
    Jblocks /= beta[:, None, None]
    J_beta = _scatter(Jblocks, jd, broken.ndof)

    return AssembledForms(mesh=mesh, continuous=continuous, broken=broken,
                          K_cont=K_cont, M_cont=M_cont, K_brok=K_brok,
                          M_brok=M_brok, T_alpha=T_alpha, J_beta=J_beta)



def prolong(coarse: DofMap, fine: DofMap, U):
    """The columns of U, functions in the space of the DofMap coarse,
    as functions in the space of fine on the red refinement of its mesh
    (meshing.refine_uniform): the same P1 functions, so every form takes
    the same values on them.  Coarse triangle t's children are rows
    4t..4t+3, whose vertices are a, ab, ca / ab, b, bc / ca, bc, c /
    ab, bc, ca for its own a, b, c and edge midpoints; each child keeps
    its parent's region, so on the broken space a midpoint takes the mean
    of its own side's values.  Dirichlet nodes (dof -1) hold 0."""
    U = np.vstack([U, np.zeros((1, U.shape[1]))])  # row -1: Dirichlet
    a, b, c = (U[coarse.tri_dofs[:, i]] for i in range(3))
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    vals = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    out = np.zeros((fine.ndof + 1, U.shape[1]))
    out[fine.tri_dofs.reshape(-1)] = vals.reshape(-1, U.shape[1])
    return out[:-1]
