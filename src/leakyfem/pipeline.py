"""Shared plumbing: mesh families, assembly, and cascaded eigensolves.

Refinement families are nested by construction (red refinement), so
eigenvalues decrease level by level (min-max) and the coarser level gives
the shift-invert pole for the next one.  From the second level on, the
pole sits just above the coarser level's k-th eigenvalue, and so above
the k-th of the finer level: its one factorization both counts the
eigenvalues below it and drives Lanczos.  That pole is
eigensolver.pole_above, the level at which the eigensolver certifies a
list solved below the spectrum; pipeline imports it from there.  The
coarser level's lowest eigenvector, prolonged into the finer space
(femforms.prolong), is that Lanczos run's start vector.  On one mesh,
and on every box of it, lambda_n(delta-prime) <= lambda_n(delta)
(min-max: the broken space holds U·E of the continuous one, with the
same mass and a_dp[U·Eu] <= a_d[u]), so the first level's delta-prime
pencil takes pole_above of the delta list on the same mesh, and only the
first delta level takes the certified shift search.  The first level
starts from the seed's random vector.  Every solve takes one pole, whose
side of the spectrum the eigensolver reads off its factorization.
solve_pencil is the one place that falls back: a given pole that fails
is followed by that search, unless the list it computed has a
certifying level that does not factor, which the search would certify
at the same level.  cascade_solve can resume from the results of the
levels already solved, so a caller may solve the finest level apart
from the coarser ones.

Restricted (smaller-box) pencils on one mesh have eigenvalues no smaller
than the full pencil's (min-max), so a pole just below the full-box
lambda_1 serves every delta box; a delta-prime box takes pole_above of
the same box's delta list.  Each box's start vector is the full
pencil's lowest eigenvector restricted to its dofs.  meshing.build_dofs
numbers both spaces' dofs once, by one nested-dissection order of the
free nodes, before any matrix is scattered; a restricted pencil keeps a
sorted subset of those dofs, so it inherits their order and is factored
as it is, like every full pencil.
"""

from __future__ import annotations

import numpy as np

from . import femforms, meshing
from .eigensolver import (DEFAULT_SEED, DEFAULT_TOL, pole_above,
                          smallest_eigenpairs)
from .errors import CertificationError, SolverError


def mesh_levels(geometry, h, refinements, inner_rings=None):
    """Coarse mesh plus `refinements` nested red refinements."""
    meshes = [meshing.triangulate(geometry, h, inner_rings=inner_rings)]
    for _ in range(refinements):
        meshes.append(meshing.refine_uniform(meshes[-1]))
    return meshes


def assemble_levels(meshes, material):
    return [femforms.assemble(m, material) for m in meshes]


def truncation_shift(values):
    """Pole for every restricted delta box of one mesh, just below the
    full box's lambda_1: by min-max no restricted eigenvalue is smaller."""
    lam1 = float(values[0])
    return lam1 - 1e-2 * max(1.0, abs(lam1))


def solve_pencil(A, M, k, tol=DEFAULT_TOL, seed=DEFAULT_SEED, pole=None,
                 start=None):
    """smallest_eigenpairs at a given pole, below the spectrum or above
    the k-th eigenvalue as its factorization tells, falling back to the
    certified shift search when that pole fails; both start Lanczos from
    the start vector.  A failed pole costs its one refused factorization,
    or the search it drove; a failed search raises SolverError.  A list
    whose certifying level does not factor raises CertificationError at
    once: the search would certify it at that same level."""
    if pole is not None:
        try:
            return smallest_eigenpairs(A, M, k, tol=tol, pole=pole,
                                       seed=seed, start=start)
        except CertificationError:
            raise
        except SolverError:
            pass
    return smallest_eigenpairs(A, M, k, tol=tol, seed=seed, start=start)


def cascade_solve(forms_list, which, k, tol=DEFAULT_TOL, seed=DEFAULT_SEED,
                  results=None, pole=None):
    """Solve one operator on every refinement level of forms_list, coarse
    to fine: above the coarser level's list (pole_above), from its
    prolonged lowest eigenvector, with the certified shift search as the
    fallback.  The first level takes pole (for delta-prime, pole_above of
    the delta list on the same mesh), or the search when it is None.

    results, when given, holds the results of the first levels of
    forms_list, already solved: the cascade resumes after them and
    appends to that list.  Returns the list of results."""
    results = [] if results is None else results
    for j in range(len(results), len(forms_list)):
        A, M = forms_list[j].matrices(which)
        start = None
        if results:
            pole = pole_above(results[-1].values)
            start = femforms.prolong(_dofmap(forms_list[j - 1], which),
                                     _dofmap(forms_list[j], which),
                                     results[-1].vectors[:, 0])
        results.append(solve_pencil(A, M, k, tol=tol, seed=seed, pole=pole,
                                    start=start))
    return results


def _dofmap(forms, which):
    return forms.continuous if which == femforms.DELTA else forms.broken


def box_nodes(mesh, halfwidth):
    """Mask of the nodes strictly inside the (inner) box of the given
    halfwidth."""
    tol = 1e-12 * max(np.abs(mesh.nodes).max(), 1.0)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    if not mesh.radial_weight:
        x = np.abs(x)
    return (x < halfwidth - tol) & (np.abs(y) < halfwidth - tol)


def interior_dofs(forms, which, halfwidth):
    """Dofs whose node lies strictly inside the (inner) box of the given
    halfwidth; pinning the rest reproduces the smaller-box problem exactly
    when that box was constrained into the mesh as a ring."""
    dofmap = _dofmap(forms, which)
    inside = box_nodes(forms.mesh, halfwidth)
    nd = np.concatenate([dofmap.node_dof1[inside], dofmap.node_dof2[inside]])
    return np.unique(nd[nd >= 0])


def solve_restricted(forms, which, halfwidth, k, tol=DEFAULT_TOL,
                     seed=DEFAULT_SEED, pole=None, start=None):
    """Solve the pencil restricted to dofs strictly inside an inner box,
    at the given pole (solve_pencil), from the full pencil's start
    vector on those dofs (interior_dofs)."""
    A, M = forms.matrices(which)
    keep = interior_dofs(forms, which, halfwidth)
    Ar = A[keep][:, keep].tocsr()
    Mr = M[keep][:, keep].tocsr()
    return solve_pencil(Ar, Mr, k, tol=tol, seed=seed, pole=pole,
                        start=None if start is None else start[keep])
