"""Test references for the dof maps and the form comparison.

loop_dofs numbers the nodes one by one in a given order, the rule that
meshing.build_dofs applies to its dissection order.

The form comparison reads a_dp[U E u] <= a_d[u].  E includes the
continuous space into the broken one and U negates the Omega2 side; with
beta = 4/alpha the comparison is an identity.  Both maps are read off
the public dof maps of an AssembledForms, so the tests that use them
check that the numbered maps realize the comparison.
"""

import numpy as np

from leakyfem.geometry import OMEGA1, OMEGA2
from leakyfem.meshing import BROKEN, DofMap


def loop_dofs(m, order, kind):
    """Node-by-node reference for a dof map: walking the nodes in the
    given order, each free node takes the next dof, and in the broken
    space a free interface node also the one after it."""
    dirichlet = set(m.boundary_nodes.tolist())
    iface = set(m.interface_nodes.tolist())
    dof1 = np.full(m.num_nodes, -1, dtype=np.int64)
    dof2 = np.full(m.num_nodes, -1, dtype=np.int64)
    nxt = 0
    for n in order:
        if n in dirichlet:
            continue
        dof1[n] = dof2[n] = nxt
        nxt += 1
        if kind == BROKEN and n in iface:
            dof2[n] = nxt
            nxt += 1
    side1 = m.tri_region == OMEGA1
    tri_dofs = np.where(side1[:, None], dof1[m.triangles], dof2[m.triangles])
    return DofMap(kind=kind, ndof=nxt, node_dof1=dof1, node_dof2=dof2,
                  tri_dofs=tri_dofs)


def embed_map(F):
    """E as an index array: broken dof -> continuous dof of its node."""
    c, b = F.continuous, F.broken
    free = c.node_dof1 >= 0
    E = np.full(b.ndof, -1, dtype=np.int64)
    E[b.node_dof1[free]] = c.node_dof1[free]
    E[b.node_dof2[free]] = c.node_dof1[free]
    assert np.all(E >= 0), "a broken dof has no node"
    return E


def sign_omega2(F):
    """U as a sign vector: -1 on the Omega2-side dof of every node of an
    Omega2 triangle (the twin of an interface node, the single dof of any
    other node), +1 elsewhere."""
    nodes = np.unique(F.mesh.triangles[F.mesh.tri_region == OMEGA2])
    d = F.broken.node_dof2[nodes]
    sign = np.ones(F.broken.ndof)
    sign[d[d >= 0]] = -1.0
    return sign


def form(F, which, u):
    """a[u] = u^T A u of the pencil F.matrices(which)."""
    A, _ = F.matrices(which)
    return float(u @ (A @ u))


def flipped_embedding(F, u):
    """U E u, for a vector or for one vector per column of u."""
    w = u[embed_map(F)]
    return sign_omega2(F).reshape((-1,) + (1,) * (w.ndim - 1)) * w
