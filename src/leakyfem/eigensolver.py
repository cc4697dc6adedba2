"""Sparse symmetric generalized eigensolver and inertia counting.

smallest_eigenpairs() runs a shift-invert Lanczos in the M-inner
product on (A - sigma M)^-1 M (_lanczos), driven by the certified factor
below: each step adds one column, by one solve with the factor,
Gram-Schmidt against the whole basis, one product by M, and a
Rayleigh-Ritz step on the projected tridiagonal matrix.  The first sweep
starts from a given start vector (a coarser level's prolonged
eigenvector, or a full box's restricted one) or a fixed-seed random one,
so the result is reproducible.  The kernel only converges Ritz pairs; it
certifies nothing.  Eigenvalues its Krylov space missed (multiple
eigenvalues, which a single start vector cannot see, or close
neighbours) are recovered by further sweeps deflated against the list,
which go on while they add values, and every list is certified against
factorization inertia.

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
                   Lanczos on the most negative shifted values
                   1/(lambda - sigma), which belong to exactly those m,
                   and the list is certified once it holds m values below
                   sigma.  Any other m, a refused pole or an exhausted
                   search is an error;
  lower_shift      no negative pivot at the highest bisection level it
                   returns, whose factor drives Lanczos, so every
                   eigenvalue Lanczos can return lies above it;
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
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.blas import dcopy, ddot, dgemm, dgemv
from scipy.sparse.linalg import splu

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


def _project(x, bases):
    """x, a vector that is overwritten, minus its M-projections on the
    M-orthonormal columns of each (B, M B) in bases, by two passes of
    classical Gram-Schmidt, which are enough unless x lies in their span
    (Giraud, Langou and Rozloznik, Comput. Math. Appl. 50, 2005).  The
    inner products come from the stored M B, so no product by M is
    made.  Returns x and its summed coefficients on each B."""
    coefs = [np.zeros(B.shape[1]) for B, _ in bases]
    for _ in range(2):
        for i, (B, MB) in enumerate(bases):
            if B.shape[1]:
                c = dgemv(1.0, MB, x, trans=1)
                dgemv(-1.0, B, c, 1.0, x, overwrite_y=1)
                coefs[i] += c
    return x, coefs


def _fill(x, V, MV, p, bases, M, rng, Mx=None, norm=None):
    """Write the vector x, M-normalized, into V[:, p] and M x into
    MV[:, p]; return 1, or 0 when no column was written.  Given Mx = M x
    and norm, x is M-orthogonal to the bases and to V[:, :p] and norm is
    its M-norm before that projection; otherwise a copy of x is
    projected first.  A vector the projection cancelled to 1e-12 of its
    norm lay in their span and is replaced by a seeded random one, at
    most three times."""
    for _ in range(4):
        if Mx is None:
            x = np.array(x, dtype=float)
            norm = np.sqrt(ddot(x, M @ x))
            x, _ = _project(x, bases + [(V[:, :p], MV[:, :p])])
            Mx = M @ x
        g = ddot(Mx, x)
        if np.sqrt(max(g, 0.0)) > 1e-12 * norm:
            s = 1.0 / np.sqrt(g)
            V[:, p] = x * s
            MV[:, p] = Mx * s
            return 1
        x, Mx = rng.standard_normal(V.shape[0]), None
    return 0


def _lanczos(solve, A, M, sigma, want, tol, start, deflate, budget, above,
             rng):
    """One shift-invert Lanczos sweep in the M-inner product on
    Op = (A - sigma M)^-1 M, deflated against D = deflate.

    The wanted pairs are the `want` Ritz pairs of Op with the largest
    shifted values 1/(lambda - sigma) for a pole below the spectrum (the
    values nearest above it), or the most negative ones for a pole above
    the list (above: the values nearest below it).

    The basis V and its product M V, both kept, hold nv = max(10,
    2 want + 4) columns each, at most the complement of D.  The sweep
    starts from the start vector, or a random one from rng.  Each step
    adds one column: one solve by the factor; two passes of Gram-Schmidt
    of the result against D and V, whose inner products come from the
    stored M D and M V, and whose coefficients on V fill the step's
    column of the projected matrix H (tridiagonal up to rounding); one
    product by M of the residual; and a Rayleigh-Ritz step on H.  The
    dense products are BLAS calls (dgemv, ddot, dgemm) that keep the
    GIL: they are short, and each release would let a Python-bound
    thread hold the GIL for a switch interval.  A full basis is
    restarted from its `keep` best Ritz vectors (a thick restart, Wu and
    Simon, SIAM J. Matrix Anal. Appl. 22, 2000), whose block of H is
    then diagonal.

    The M-norm of each wanted Ritz pair's residual in Op is that of the
    step's residual r times the last entry of the pair's eigenvector of
    H.  Once it is at most tol |shifted value| max(1, |lambda|)
    for every wanted pair, times the largest ratio of explicit to
    estimated residual that a failed check saw, the explicit residual
    test ||A x - lambda M x|| / ||x||_M <= tol max(1, |lambda|) decides.
    A pair whose estimate is down to 1e-2 tol |shifted value| is
    settled: the Krylov space cannot improve it, so it is kept even when
    the explicit test finds the factor's rounding above tol.  A basis
    that spans the complement of D is exact.  After budget solves the
    sweep stops.

    Returns (values, vectors, residuals, exhausted): ascending pairs of
    the pencil, M-orthogonal to D, that pass the explicit test or are
    settled.  exhausted is set when a wanted pair is missing or fails
    the explicit test.
    """
    n, d = A.shape[0], deflate.shape[1]
    room = n - d
    want = min(want, room)
    if want <= 0:
        return np.empty(0), np.empty((n, 0)), np.empty(0), False
    nv = min(room, max(10, 2 * want + 4))
    keep = (nv + want - 1) // 2
    V = np.empty((n, nv), order="F")
    MV = np.empty((n, nv), order="F")
    H = np.zeros((nv, nv))
    D = np.asfortranarray(deflate)
    bases = [(D, np.asfortranarray(M @ D))]

    x = rng.standard_normal(n) if start is None else start
    p, q = 0, _fill(x, V, MV, 0, bases, M, rng)
    solved = 0
    scale = 1.0
    while True:
        if not q:
            raise SolverError("the Lanczos basis stopped growing")
        p += 1
        r, (cD, c) = _project(solve(MV[:, p - 1]),
                              bases + [(V[:, :p], MV[:, :p])])
        solved += 1
        H[:p, p - 1] = H[p - 1, :p] = c
        theta, S = np.linalg.eigh(H[:p, :p])
        order = np.argsort(theta if above else -theta, kind="stable")
        sel = order[:want]
        lams = sigma + 1.0 / theta[sel]
        Mr = M @ r
        g = ddot(Mr, r)
        est = np.sqrt(max(g, 0.0)) * np.abs(S[p - 1, sel])
        bound = tol * np.maximum(1.0, np.abs(lams))
        settled = est <= 1e-2 * tol * np.abs(theta[sel])
        done = p >= room or solved >= budget
        if done or (sel.size == want and np.all(
                settled | (est * scale <= bound * np.abs(theta[sel])))):
            Xs = dgemm(1.0, V[:, :p], S[:, sel])
            res = _residuals(A, Xs, dgemm(1.0, MV[:, :p], S[:, sel]), lams)
            ok = res <= bound
            if done or np.all(ok | settled):
                idx = np.flatnonzero(ok | settled)
                idx = idx[np.argsort(lams[idx])]
                return (lams[idx], Xs[:, idx], res[idx],
                        idx.size < want or not ok.all())
            scale = max(scale, float(np.max(
                (res * np.abs(theta[sel]) / np.maximum(est, 1e-300))[~ok])))
        if p == nv < room:
            kept = order[:keep]
            for B in (V, MV):
                dcopy(dgemm(1.0, B[:, :p], S[:, kept]).ravel(order="F"),
                      B[:, :keep].reshape(-1, order="F"))
            H[:] = 0.0
            H[np.arange(keep), np.arange(keep)] = theta[kept]
            p = keep
        q = _fill(r, V, MV, p, bases, M, rng, Mr,
                  np.sqrt(g + c @ c + cD @ cD))


def _residuals(A, X, MX, lams):
    """||A x - lambda M x||_2 / ||x||_M for the columns x of X, with MX =
    M X."""
    R = A @ X - MX * lams[None, :]
    return np.linalg.norm(R, axis=0) / np.sqrt(np.einsum("ij,ij->j", X, MX))


def smallest_eigenpairs(A, M, k: int, tol: float = DEFAULT_TOL,
                        pole: float | None = None,
                        seed: int = DEFAULT_SEED,
                        start=None) -> EigenResult:
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
    seed : seed of the random start vectors (results are deterministic
        given the seed and start).
    start : optional start vector, an n-vector approximation of the
        lowest eigenvector; the first Lanczos sweep starts from it.  It
        only steers the search.

    After a pole below, the list is certified by one inertia count at
    pole_above of its top value: it must hold every eigenvalue below that
    level, and a level that does not factor raises CertificationError.  A
    count above the list size sends Lanczos back, deflated against the
    whole list, for the eigenvalues its Krylov space missed
    (multiplicities, or neighbours within the level's 1e-3 window);
    later sweeps keep only values below that level until the list holds
    the counted number, which certifies it with no new count.  Sweeps go
    on past the fourth only while each adds a value.  A count
    below the list size raises SolverError.

    Raises SolverError (carrying the best partial result) when the list is
    not complete and certified within the sweeps' budget.
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
    return _search(A, M, k, tol, sigma, lu, seed,
                   (sigma, m) if m else None, start)


def _search(A, M, k, tol, sigma, lu, seed, top, start):
    """Deflated Lanczos sweeps on the factor lu of A - sigma M until the
    list of the k smallest pairs is certified.

    top is the (level, count) of a count above the list: None for a pole
    below the spectrum, where it is counted at pole_above once the list
    holds k values, and (sigma, m) for a pole above, whose sweeps then ask
    for the values nearest below it.  The first sweep starts from the
    start vector; a later one, deflated against the list, from a seeded
    random vector.  A one-column Krylov space sees few copies of a
    multiple eigenvalue per sweep, so after four sweeps another runs
    only while the last one added a value.  Each sweep may take 10 k +
    200 steps.
    """
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    budget = 10 * k + 200
    above = top is not None

    vals = np.empty(0)
    X = np.empty((n, 0))
    want = k if top is None else top[1]
    attempt = 0
    while attempt < 4 or lv.size:
        lv, lX, _, exhausted = _lanczos(
            lu.solve, A, M, sigma, want, tol, None if attempt else start, X,
            budget, above, rng)
        attempt += 1
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
        # the eigenvalues below the level that the Krylov space missed
        want = count - vals.shape[0]

    partial = _finalize(A, M, vals[:k], X[:, :k], sigma)
    raise SolverError("eigensolver did not converge within its budget",
                      partial=partial)


def _finalize(A, M, vals, X, sigma):
    if vals.size:
        # M-orthonormal in column order: X L^-T with L L^T = X^T M X
        L = cholesky(X.T @ (M @ X), lower=True)
        X = solve_triangular(L, X.T, lower=True).T
        res = _residuals(A, X, M @ X, vals)
    else:
        res = np.empty(0)
    return EigenResult(values=vals.copy(), vectors=X, residuals=res,
                       shift_used=sigma)
