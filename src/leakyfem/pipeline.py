"""Shared plumbing: mesh families, assembly, and cascaded eigensolves.

Refinement families are nested by construction (red refinement), so
eigenvalues decrease level by level (min-max) and the coarser level gives
the shift-invert pole for the next one.  From the second level on, the
pole sits just above the coarser level's k-th eigenvalue (pole_above),
and so above the k-th of the finer level: its one factorization both
counts the eigenvalues below it and drives ARPACK.  The first level has
no coarser one and takes the certified shift search.  solve_pencil is
the one place that falls back: a guessed pole that fails is followed by
that search.  cascade_solve can resume from the results of the levels
already solved, so a caller may solve the finest level apart from the
coarser ones.

Restricted (smaller-box) pencils on one mesh have eigenvalues no smaller
than the full pencil's (min-max), so a pole just below the full-box
lambda_1 serves every box.  A restricted pencil keeps a sorted subset of
the assembled dofs, so it inherits their nested-dissection order and is
factored as it is, like every full pencil.
"""

from __future__ import annotations

import numpy as np

from . import femforms, meshing
from .eigensolver import DEFAULT_SEED, DEFAULT_TOL, smallest_eigenpairs
from .errors import DomainError, SolverError


def mesh_levels(geometry, h, refinements, inner_rings=None):
    """Coarse mesh plus `refinements` nested red refinements."""
    meshes = [meshing.triangulate(geometry, h, inner_rings=inner_rings)]
    for _ in range(refinements):
        meshes.append(meshing.refine_uniform(meshes[-1]))
    return meshes


def assemble_levels(meshes, material):
    return [femforms.assemble(m, material) for m in meshes]


def pole_above(values):
    """Pole just above the top of a coarser level's list: by min-max the
    finer level has at least as many eigenvalues below it."""
    lam = float(values[-1])
    return lam + 1e-3 * max(1.0, abs(lam))


def truncation_shift(values):
    """Pole for every restricted box of one mesh, just below the full
    box's lambda_1: by min-max no restricted eigenvalue is smaller."""
    lam1 = float(values[0])
    return lam1 - 1e-2 * max(1.0, abs(lam1))


def solve_pencil(A, M, k, tol=DEFAULT_TOL, seed=DEFAULT_SEED, shift=None,
                 above=None):
    """smallest_eigenpairs at a guessed pole, below the spectrum (shift)
    or above the k-th eigenvalue (above), falling back to the certified
    shift search when that pole fails.  A failed pole costs its one
    refused factorization, or the search it drove."""
    if shift is not None or above is not None:
        try:
            return smallest_eigenpairs(A, M, k, tol=tol, shift=shift,
                                       seed=seed, above=above)
        except SolverError:
            pass
    return smallest_eigenpairs(A, M, k, tol=tol, seed=seed)


def cascade_solve(forms_list, which, k, tol=DEFAULT_TOL, seed=DEFAULT_SEED,
                  results=None):
    """Solve one operator on every refinement level: above the coarser
    level's list (pole_above), with the certified shift search on the
    first level and as the fallback.

    results, when given, holds the results of the coarser levels already
    solved, coarse to fine: the cascade resumes after them, with
    forms_list the next levels, and appends to that list.  Returns the
    list of results."""
    results = [] if results is None else results
    for forms in forms_list:
        A, M = forms.matrices(which)
        above = pole_above(results[-1].values) if results else None
        results.append(solve_pencil(A, M, k, tol=tol, seed=seed,
                                    above=above))
    return results


def interior_dofs(forms, which, halfwidth):
    """Dofs whose node lies strictly inside the (inner) box of the given
    halfwidth; pinning the rest reproduces the smaller-box problem exactly
    when that box was constrained into the mesh as a ring."""
    mesh = forms.mesh
    dofmap = forms.continuous if which == femforms.DELTA else forms.broken
    tol = 1e-12 * max(np.abs(mesh.nodes).max(), 1.0)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    if mesh.radial_weight:
        inside = (x < halfwidth - tol) & (np.abs(y) < halfwidth - tol)
    else:
        inside = (np.abs(x) < halfwidth - tol) & (np.abs(y) < halfwidth - tol)
    keep = []
    for nd in (dofmap.node_dof1, dofmap.node_dof2):
        ok = (nd >= 0) & inside
        keep.append(nd[ok])
    keep = np.unique(np.concatenate(keep))
    return keep


def solve_restricted(forms, which, halfwidth, k, tol=DEFAULT_TOL,
                     seed=DEFAULT_SEED, shift=None):
    """Solve the pencil restricted to dofs strictly inside an inner box.
    DomainError when the box holds no dof."""
    A, M = forms.matrices(which)
    keep = interior_dofs(forms, which, halfwidth)
    if not keep.size:
        raise DomainError(f"the box of halfwidth {halfwidth} holds no dof "
                          "of this mesh")
    Ar = A[keep][:, keep].tocsr()
    Mr = M[keep][:, keep].tocsr()
    return solve_pencil(Ar, Mr, k, tol=tol, seed=seed, shift=shift), keep
