"""Sparse symmetric generalized eigensolver and inertia counting.

smallest_eigenpairs() runs shift-invert Lanczos in the M-inner product on
(A - sigma M)^-1 M: ARPACK's implicitly restarted Lanczos (scipy's eigsh)
drives the certified factor below, from a fixed-seed start vector for
reproducibility.  ARPACK only converges Ritz pairs; it certifies nothing.
Clustered or multiple eigenvalues, which a single-vector Krylov space
cannot see, are recovered by deflated restarts, and every list is
certified against factorization inertia.

inertia_count() realizes the eigenvalue counting function below a level:
the number of negative pivots of an LDL^T-type factorization of A - mu M
equals the number of pencil eigenvalues below mu (Sylvester's law).  The
factorization is SuperLU in symmetric mode with diagonal pivoting only,
so its U-diagonal carries the pivots; any off-diagonal pivoting or a tiny
pivot aborts the count instead of risking a wrong answer.

Every matrix is factored in the dof order it comes in (SuperLU's
NATURAL column order): meshing.build_dofs numbers the dofs in
nested-dissection order, which keeps the fill small.

smallest_eigenpairs() solves at the one pole it is given and raises
SolverError when that pole fails; falling back to another pole is the
caller's choice (pipeline.solve_pencil).  The pole's side of the spectrum
is read off its own factorization.  Each factorization certifies one
fact:
  a given pole     m = N(sigma) eigenvalues lie below the pole sigma.
                   m = 0 puts it below the spectrum, and the list is
                   certified at pole_above.  k <= m <= 2k + 4 puts it
                   above the k-th eigenvalue (on a refined level, by
                   min-max from the coarser one); the same factor drives
                   ARPACK on the most negative shifted values
                   1/(lambda - sigma), which belong to exactly those m,
                   and the list is certified once it holds m values below
                   sigma.  Any other m, a refused pole or an exhausted
                   search is an error;
  lower_shift      no negative pivot at the highest bisection level it
                   returns, whose factor drives Lanczos, so every
                   eigenvalue ARPACK can return lies above it;
  pole_above       after a pole below, one count at pole_above of the
                   computed list (the level a refined level takes as its
                   pole), equal to the list size, so no eigenvalue up to
                   the k-th was missed.  A level that does not factor is
                   a CertificationError, which no other pole can mend.
                   After a count above the list, the list is filled
                   below that same level, with no further count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, eigh, null_space, solve_triangular
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 splu)

from .errors import CertificationError, DomainError, SolverError

DEFAULT_SEED = 1729
DEFAULT_TOL = 1e-9
PIVOT_FLOOR = 1e-14


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with M-orthonormal eigenvectors and residuals."""

    values: np.ndarray     # (k,) ascending
    vectors: np.ndarray    # (n, k), vectors^T M vectors = identity
    residuals: np.ndarray  # (k,) 2-norm of A x - lambda M x over ||x||_M
    shift_used: float


def _factor(A, M, mu):
    """(factor, number of negative pivots) of A - mu M: SuperLU in
    symmetric mode with static diagonal pivoting, in the NATURAL order.

    Raises SolverError if the factorization had to pivot off the diagonal,
    met an exactly singular pivot or a pivot below PIVOT_FLOOR; in that
    case the level is too close to the spectrum for an inertia statement.

    Reading the pivots through lu.U makes SuperLU build CSC copies of L
    and U and keep them with the factor: on the finest `borderline`
    pencil (8.9M nonzeros in L+U) they would add 68 MB to the factor's
    91 MB.  lu.L and lu.U hand out those cached copies, so once the
    diagonal is read their data and indices are replaced by new empty
    arrays (a [:0] view would keep the buffers alive).  lu.solve does
    not read them, and their nnz, read off indptr, is kept.  Two
    finest-level factors alive at once then cost about 180 MB
    (spectral_analysis.solve_levels).
    """
    try:
        lu = splu((A - mu * M).tocsc(), permc_spec="NATURAL",
                  diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("factorization pivoted off the diagonal; "
                          "level too close to the spectrum")
    d = lu.U.diagonal()
    for T in (lu.L, lu.U):
        T.data = np.empty(0, T.data.dtype)
        T.indices = np.empty(0, T.indices.dtype)
    if d.size and np.min(np.abs(d)) < PIVOT_FLOOR:
        raise SolverError("level too close to spectrum: pivot below 1e-14")
    return lu, int((d < 0).sum())


def inertia_count(A, M, mu: float) -> int:
    """Number of pencil eigenvalues of (A, M) strictly below mu."""
    return _factor(A, M, mu)[1]


def pole_above(values):
    """Level just above the top of an ascending list, 1e-3 max(1, |top|)
    higher: the certificate of a list solved below the spectrum, and the
    pole of the next refinement level, which by min-max has at least as
    many eigenvalues below it."""
    lam = float(values[-1])
    return lam + 1e-3 * max(1.0, abs(lam))


def _inf_norm(A):
    return float(abs(A).sum(axis=1).max()) if A.nnz else 0.0


def lower_shift(A, M):
    """(sigma, factor of A - sigma M) with A - sigma M positive definite.

    sigma_s = -4 (1 + ||A||_inf / min diag M) lies below the spectrum, as
    lambda_min(A) >= -||A||_inf (Gershgorin) and every P1 mass matrix is a
    sum of blocks M_e >= diag(M_e) / 4.  Bisection on j in [0, j_max], the
    last j with |sigma_s / 2^j| >= 1e-6, finds the highest level
    sigma_s / 2^j whose factor has no negative pivot (an unfactorable level
    counts as a negative one) and returns it with that factor.  sigma_s is
    factored only when no probe succeeds; a negative pivot there is an error.
    """
    dm = M.diagonal()
    if np.any(dm <= 0):
        raise SolverError("mass matrix has non-positive diagonal entries")
    start = -4.0 * (1.0 + _inf_norm(A) / float(dm.min()))
    # hi = j_max + 1: with -start = m 2^e and 1e-6 = m6 2^e6,
    # j_max = e - e6 - (m < m6)
    (m, e), (m6, e6) = np.frexp(-start), np.frexp(1e-6)
    lo, hi, lu = 0, int(e - e6 + (m >= m6)), None
    while hi - lo > 1:
        j = (lo + hi) // 2
        try:
            lu_j, neg = _factor(A, M, start * 0.5 ** j)
        except SolverError:
            neg = 1
        if neg:
            hi = j
        else:
            lo, lu = j, lu_j
    if lu is None:
        lu, neg = _factor(A, M, start)
        if neg:
            raise SolverError(f"{neg} eigenvalues below the bound {start}")
    return start * 0.5 ** lo, lu


def _lanczos(solve, A, M, sigma, k, tol, rng, deflate, budget, which):
    """One deflated shift-invert Lanczos sweep, run by ARPACK's eigsh.

    which is ARPACK's choice among the shifted values 1/(lambda - sigma):
    "LM" for the pairs nearest above a pole below the spectrum, "SA" for
    the pairs nearest below a pole above the list.

    Each solve by the certified factor is followed by the M-projector off
    the deflation block D, x - D D^T M x, so a restart searches only the
    complement of the values already found.  rng gives the start vector
    and ARPACK's own restarts, so the sweep is deterministic given the
    seed.  An implicit restart costs ncv - k solves, so a sweep makes
    about budget solves at most.  A request for the whole complement,
    which ARPACK cannot make (it needs k < n), is a dense Rayleigh-Ritz
    on a basis of it.

    Returns (values, vectors, residuals, exhausted): ascending pairs of the
    pencil, M-orthogonal to D.  exhausted is set when ARPACK ran out of
    iterations (the pairs are the ones it converged) or a pair fails the
    explicit residual check.
    """
    n, d = A.shape[0], deflate.shape[1]
    k = min(k, n - d)
    if k <= 0:
        return np.empty(0), np.empty((n, 0)), np.empty(0), False

    def project(x):
        return x - deflate @ (deflate.T @ (M @ x)) if d else x

    exhausted = False
    if k == n - d:
        Z = null_space((M @ deflate).T)
        lams, Y = eigh(Z.T @ (A @ Z), Z.T @ (M @ Z))
        X = Z @ Y
    else:
        ncv = min(n - d, max(2 * k + 1, 20))
        op = LinearOperator((n, n), matvec=lambda b: project(solve(b)),
                            dtype=float)
        try:
            lams, X = eigsh(A, k, M=M, sigma=sigma, which=which, OPinv=op,
                            v0=project(rng.standard_normal(n)), ncv=ncv,
                            maxiter=max(1, budget // (ncv - k)),
                            tol=1e-2 * tol, rng=rng)
        except ArpackNoConvergence as exc:
            lams, X, exhausted = exc.eigenvalues, exc.eigenvectors, True
    order = np.argsort(lams)
    lams, X = lams[order], X[:, order]
    res = _residuals(A, M, X, lams)
    exhausted |= not np.all(res <= tol * np.maximum(1.0, np.abs(lams)))
    return lams, X, res, exhausted


def _residuals(A, M, X, lams):
    R = A @ X - (M @ X) * lams[None, :]
    mnorm = np.sqrt(np.einsum("ij,ij->j", X, M @ X))
    return np.linalg.norm(R, axis=0) / mnorm


def smallest_eigenpairs(A, M, k: int, tol: float = DEFAULT_TOL,
                        pole: float | None = None,
                        seed: int = DEFAULT_SEED) -> EigenResult:
    """k smallest eigenpairs of A x = lambda M x.

    Parameters
    ----------
    A, M : sparse symmetric matrices, M positive definite.
    k : number of eigenpairs (clamped to the pencil size, DomainError if 0).
    tol : residual tolerance for ||A x - lambda M x||_2 / ||x||_M.
    pole : optional shift-invert pole.  Its one factorization counts the
        m eigenvalues below it, which tells its side: m = 0 is a pole
        below the spectrum, k <= m <= 2k + 4 a pole above the k-th
        eigenvalue whose factor also drives the search for those m.  Any
        other m raises SolverError.  With no pole, a certified pole below
        is found by bisection up from a proven lower bound (lower_shift).
    seed : start-vector seed (results are deterministic given the seed).

    After a pole below, the list is certified by one inertia count at
    pole_above of its top value: it must hold every eigenvalue below that
    level, and a level that does not factor raises CertificationError.  A
    count above the list size restarts Lanczos, deflated against the whole
    list, for the eigenvalues a single Krylov sequence missed
    (multiplicities, or neighbours within the level's 1e-3 window); later
    sweeps keep only values below that level until the list holds the
    counted number, which certifies it with no new count.  A count below
    the list size raises SolverError.

    Raises SolverError (carrying the best partial result) when the list is
    not complete and certified within the iteration budget.
    """
    if k < 1:
        raise SolverError("need k >= 1")
    if tol <= 0:
        raise SolverError("need tol > 0")
    if not A.shape[0]:
        raise DomainError("the pencil is empty: it has no dof")
    k = min(k, A.shape[0])
    A = A.tocsr()
    M = M.tocsr()
    if pole is None:
        sigma, lu = lower_shift(A, M)
        m = 0
    else:
        sigma = float(pole)
        lu, m = _factor(A, M, sigma)
    if m and not k <= m <= 2 * k + 4:
        raise SolverError(f"{m} eigenvalues below the pole {sigma}, "
                          f"for k = {k}")
    return _search(A, M, k, tol, sigma, lu, seed, (sigma, m) if m else None)


def _search(A, M, k, tol, sigma, lu, seed, top):
    """Deflated Lanczos sweeps on the factor lu of A - sigma M until the
    list of the k smallest pairs is certified.

    top is the (level, count) of a count above the list: None for a pole
    below the spectrum, where it is counted at pole_above once the list
    holds k values, and (sigma, m) for a pole above, whose sweeps then ask
    ARPACK for the values nearest below it.
    """
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    budget = 10 * k + 200
    which = "LM" if top is None else "SA"

    vals = np.empty(0)
    X = np.empty((n, 0))
    want = k if top is None else top[1]
    for attempt in range(4):
        lv, lX, _, exhausted = _lanczos(lu.solve, A, M, sigma, want, tol,
                                        rng, X, budget, which)
        if top is not None:
            # the list is filled up to the first certified level only, so
            # it does not climb the spectrum one cluster at a time
            below = lv < top[0]
            lv, lX = lv[below], lX[:, below]
        if lv.size:
            vals = np.concatenate([vals, lv])
            X = np.hstack([X, lX])
            order = np.argsort(vals)
            vals = vals[order]
            X = X[:, order]
        if vals.shape[0] < k:
            if exhausted:
                break
            want = (k if top is None else top[1]) - vals.shape[0]
            continue
        if top is None:
            level = pole_above(vals)
            try:
                top = (level, inertia_count(A, M, level))
            except SolverError as exc:
                raise CertificationError(
                    f"certifying level {level} does not factor: {exc}"
                ) from exc
        count = top[1]
        if count == vals.shape[0]:
            return _finalize(A, M, vals[:k], X[:, :k], sigma)
        if count < vals.shape[0]:
            raise SolverError(f"inertia counts {count} eigenvalues below "
                              f"{top[0]}, but the list holds "
                              f"{vals.shape[0]}")
        # keep the whole list, deflate it, and search its complement for
        # the eigenvalues below the level that the Krylov sequence missed
        want = count - vals.shape[0]

    partial = _finalize(A, M, vals[:k], X[:, :k], sigma)
    raise SolverError("eigensolver did not converge within its budget",
                      partial=partial)


def _finalize(A, M, vals, X, sigma):
    if vals.size:
        # M-orthonormal in column order: X L^-T with L L^T = X^T M X
        L = cholesky(X.T @ (M @ X), lower=True)
        X = solve_triangular(L, X.T, lower=True).T
        res = _residuals(A, M, X, vals)
    else:
        res = np.empty(0)
    return EigenResult(values=vals.copy(), vectors=X, residuals=res,
                       shift_used=sigma)

