import concurrent.futures
import math
import sys

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from leakyfem import eigensolver as es
from leakyfem import femforms, geometry as geo, meshing, pipeline
from leakyfem.errors import DomainError, SolverError


def _identity(n):
    return sp.identity(n, format="csr")


def test_diag_smallest():
    A = sp.diags([1.0, 2.0, 3.0, 4.0]).tocsr()
    r = es.smallest_eigenpairs(A, _identity(4), 2, tol=1e-12)
    assert np.allclose(r.values, [1.0, 2.0], atol=1e-12)
    assert np.all(r.residuals <= 1e-12)


def test_factor_drops_the_cached_triangles():
    # reading the pivots caches CSC copies of L and U on the factor; lu.L
    # and lu.U must hand out those cached objects, so that emptying them
    # frees the memory, and the factor must solve as before
    n = 60
    A = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1]).tocsr()
    M = _identity(n)
    lu, neg = es._factor(A, M, 0.5)
    assert neg == int(np.sum(np.linalg.eigvalsh(A.toarray()) < 0.5))
    assert lu.U is lu.U and lu.L is lu.L
    assert lu.L.data.size == lu.U.data.size == 0
    assert lu.L.indices.size == lu.U.indices.size == 0
    fresh = es.splu((A - 0.5 * M).tocsc(), permc_spec="NATURAL",
                    diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))
    b = np.random.default_rng(3).standard_normal(n)
    assert np.array_equal(lu.solve(b), fresh.solve(b))


def test_lower_shift_diag():
    A = sp.diags([1.0, 2.0, 3.0]).tocsr()
    s, lu = es.lower_shift(A, _identity(3))
    assert s < 1.0
    # certified: A - s I factors positive definite
    assert es.inertia_count(A, _identity(3), s) == 0
    # and the factor returned is the one of A - s I
    assert np.allclose(lu.solve(np.ones(3)), 1.0 / (np.array([1, 2, 3]) - s))


def test_lower_shift_negative_definite():
    A = (-_identity(3)).tocsr()
    s, lu = es.lower_shift(A, _identity(3))
    assert s < -1.0


def _walked_shift(A, M):
    """The doubling-and-halving search lower_shift replaced: from
    sigma0 = -1 - ||A||_inf / min diag M, double until a level factors
    with no negative pivot, then halve while the next level does too.
    Kept as the reference for the pole of the bisection."""
    sigma = -1.0 - es._inf_norm(A) / float(M.diagonal().min())
    for _ in range(40):
        try:
            if not es._factor(A, M, sigma)[1]:
                break
        except SolverError:
            pass
        sigma *= 2.0
    else:
        raise SolverError("no positive definite shift after 40 doublings")
    probe = sigma
    for _ in range(60):
        probe = 0.5 * probe
        if abs(probe) < 1e-6:
            break
        try:
            if es._factor(A, M, probe)[1]:
                break
        except SolverError:
            break
        sigma = probe
    return sigma


_RINGED = {
    "broken_line": (lambda: geo.make_broken_line(math.pi / 4, 4.0), 0.8, 2.5),
    "circle": (lambda: geo.make_circle(1.0, (0.0, 0.0), 3.0, 16), 0.7, 2.0),
    "line_plus_circle": (lambda: geo.make_line_plus_circle(1.5, 0.8, 3.5, 16),
                         0.7, 2.5),
    "cone_meridian": (lambda: geo.make_cone_meridian(math.pi / 3, 4.0), 0.8,
                      2.5),
}


@pytest.fixture(scope="module")
def ringed_pencils():
    """(A, M) of every geometry kind with a ring, both spaces, full and
    restricted to the ring's box."""
    out = {}
    for kind, (make, h, ring) in _RINGED.items():
        g = make()
        m = meshing.triangulate(g, h, inner_rings=[ring])
        F = femforms.assemble(m, geo.MaterialData.borderline(g, alpha=2.0))
        for which in (femforms.DELTA, femforms.DELTA_PRIME):
            A, M = F.matrices(which)
            out[kind, which, "full"] = A.tocsr(), M.tocsr()
            keep = pipeline.interior_dofs(F, which, ring)
            out[kind, which, "box"] = (A[keep][:, keep].tocsr(),
                                       M[keep][:, keep].tocsr())
    return out


_PENCIL_IDS = [(kind, which, part) for kind in _RINGED
               for which in (femforms.DELTA, femforms.DELTA_PRIME)
               for part in ("full", "box")]


@pytest.mark.parametrize("key", _PENCIL_IDS, ids="-".join)
def test_mass_matrix_dominates_a_quarter_of_its_diagonal(ringed_pencils,
                                                         key):
    # the bound behind lower_shift's start: every P1 mass matrix, plain or
    # r-weighted, continuous or broken, full or restricted, has
    # D^-1/2 M D^-1/2 >= 1/4 (element blocks give 1/2 plain, 0.396 weighted)
    M = ringed_pencils[key][1].toarray()
    d = 1.0 / np.sqrt(np.diag(M))
    assert np.linalg.eigvalsh(d[:, None] * M * d[None, :])[0] >= 0.25


def _diag_pencils():
    A_chain = sp.diags([np.full(201, 2e4), np.full(200, -1e4),
                        np.full(200, -1e4)], [0, -1, 1]).tocsr()
    A_chain[100, 100] -= 200.0
    return {"identity": (_identity(4), _identity(4)),
            "diag": (sp.diags([1.0, 2.0, 3.0]).tocsr(), _identity(3)),
            "negative_identity": ((-_identity(3)).tocsr(), _identity(3)),
            "mixed_diag": (sp.diags([-1.0, 0.5, 2.0, 7.0]).tocsr(),
                           _identity(4)),
            "point_chain": (A_chain, _identity(201))}


@pytest.mark.parametrize("key", _PENCIL_IDS, ids="-".join)
def test_lower_shift_keeps_the_walked_pole(ringed_pencils, key):
    # bisection from the proven bound returns the pole of the old walk,
    # bit for bit, and the factor of that pole
    A, M = ringed_pencils[key]
    sigma, lu = es.lower_shift(A, M)
    assert sigma == _walked_shift(A, M)
    b = np.random.default_rng(5).standard_normal(A.shape[0])
    x = lu.solve(b)
    assert np.abs((A - sigma * M) @ x - b).max() <= 1e-8 * np.abs(b).max()


def test_lower_shift_keeps_the_walked_pole_on_diagonal_pencils():
    for A, M in _diag_pencils().values():
        assert es.lower_shift(A, M)[0] == _walked_shift(A, M)


def test_pencil_outside_the_bound_is_an_error():
    # lambda_min = -1 / (1 - 0.99) = -100 lies below the start
    # -4 (1 + 1 / 1) = -8: an explicit error, not a pole above lambda_min
    A = (-_identity(2)).tocsr()
    M = sp.csr_matrix(np.array([[1.0, 0.99], [0.99, 1.0]]))
    with pytest.raises(SolverError, match="below the bound -8.0"):
        es.lower_shift(A, M)
    with pytest.raises(SolverError):
        es.smallest_eigenpairs(A, M, 1)


def test_lower_shift_bisects(monkeypatch, ringed_pencils):
    # at most ceil(log2(j_max + 1)) + 1 factorizations, j_max the last j
    # with |start / 2^j| >= 1e-6
    factored = []
    factor = es._factor

    def counted(A, M, mu):
        factored.append(mu)
        return factor(A, M, mu)

    monkeypatch.setattr(es, "_factor", counted)
    for A, M in [*ringed_pencils.values(), *_diag_pencils().values()]:
        start = -4.0 * (1.0 + es._inf_norm(A) / M.diagonal().min())
        j_max = 0
        while abs(start * 0.5 ** (j_max + 1)) >= 1e-6:
            j_max += 1
        factored.clear()
        sigma, _ = es.lower_shift(A, M)
        assert len(factored) <= math.ceil(math.log2(j_max + 1)) + 1
        assert sigma in factored


def test_inertia_diag():
    A = sp.diags([-3.0, -2.0, -0.5]).tocsr()
    M = _identity(3)
    assert es.inertia_count(A, M, -1.0) == 2
    assert es.inertia_count(A, M, -10.0) == 0
    assert es.inertia_count(A, M, 0.0) == 3


def test_inertia_level_too_close():
    A = sp.diags([-3.0, -2.0, -0.5]).tocsr()
    with pytest.raises(SolverError):
        es.inertia_count(A, _identity(3), -2.0)  # exactly an eigenvalue


def test_inertia_random_vs_dense():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(5, 40))
        B = rng.standard_normal((n, n))
        Ad = (B + B.T) / 2
        A = sp.csr_matrix(Ad)
        mu = float(rng.uniform(-3, 3))
        exact = int((sla.eigvalsh(Ad) < mu).sum())
        try:
            got = es.inertia_count(A, _identity(n), mu)
        except SolverError:
            continue
        assert got == exact


def test_generalized_against_dense():
    rng = np.random.default_rng(3)
    n = 80
    B = rng.standard_normal((n, n))
    Ad = (B + B.T) / 2
    C = rng.standard_normal((n, n))
    Md = C @ C.T + n * np.eye(n)
    exact = sla.eigh(Ad, Md, eigvals_only=True)
    r = es.smallest_eigenpairs(sp.csr_matrix(Ad), sp.csr_matrix(Md), 5, tol=1e-10)
    assert np.allclose(r.values, exact[:5], atol=1e-9)
    G = r.vectors.T @ (Md @ r.vectors)
    assert np.abs(G - np.eye(5)).max() <= 1e-8


def test_multiplicities_recovered():
    A = sp.diags([1.0, 1.0, 1.0, 2.0, 2.0, 5.0, 6.0, 7.0, 8.0, 9.0]).tocsr()
    r = es.smallest_eigenpairs(A, _identity(10), 5, tol=1e-12)
    assert np.allclose(r.values, [1, 1, 1, 2, 2], atol=1e-10)


def test_k_exceeding_bound_state_count():
    # more pairs requested than eigenvalues below any threshold: still valid
    A = sp.diags([-1.0, 0.5, 2.0, 7.0]).tocsr()
    r = es.smallest_eigenpairs(A, _identity(4), 4, tol=1e-12)
    assert np.allclose(r.values, [-1.0, 0.5, 2.0, 7.0], atol=1e-11)
    assert np.all(r.residuals <= 1e-12)


def test_point_interaction_chain():
    # second-difference chain with an attractive point coupling at the
    # center: ground state of -u'' - 2 delta_0 is -1
    h = 0.01
    half = 2000
    n = 2 * half + 1
    d = np.full(n, 2.0 / h ** 2)
    d[half] -= 2.0 / h
    off = np.full(n - 1, -1.0 / h ** 2)
    A = sp.diags([d, off, off], [0, -1, 1]).tocsr()
    r = es.smallest_eigenpairs(A, _identity(n), 1, tol=1e-10)
    assert r.values[0] == pytest.approx(-1.0, abs=1e-3)
    # post-hoc contract of lower_shift: the certified shift sits below
    s, lu = es.lower_shift(A, _identity(n))
    assert s < r.values[0]


@pytest.fixture(scope="module")
def assembled_broken_line():
    g = geo.make_broken_line(math.pi / 4, 5.0)
    m = meshing.triangulate(g, 0.4)
    mat = geo.MaterialData.borderline(g, alpha=2.0)
    return femforms.assemble(m, mat)


def test_rayleigh_quotient_consistency(assembled_broken_line):
    F = assembled_broken_line
    A, M = F.matrices(femforms.DELTA)
    tol = 1e-9
    r = es.smallest_eigenpairs(A, M, 3, tol=tol)
    for lam, x in zip(r.values, r.vectors.T):
        rq = (x @ (A @ x)) / (x @ (M @ x))
        assert abs(rq - lam) <= 10 * tol * max(1.0, abs(lam))


def test_shift_invariance(assembled_broken_line):
    F = assembled_broken_line
    A, M = F.matrices(femforms.DELTA_PRIME)
    r1 = es.smallest_eigenpairs(A, M, 3, tol=1e-10, pole=-8.0)
    r2 = es.smallest_eigenpairs(A, M, 3, tol=1e-10, pole=-3.0)
    assert np.abs(r1.values - r2.values).max() <= 1e-9
    assert r1.shift_used != r2.shift_used


def test_inertia_agrees_with_computed_spectrum(assembled_broken_line):
    F = assembled_broken_line
    A, M = F.matrices(femforms.DELTA)
    r = es.smallest_eigenpairs(A, M, 4, tol=1e-10)
    for i in range(3):
        if r.values[i + 1] - r.values[i] < 1e-7:
            continue
        mu = 0.5 * (r.values[i] + r.values[i + 1])
        assert es.inertia_count(A, M, mu) == i + 1


def test_refinement_monotonicity():
    g = geo.make_broken_line(math.pi / 4, 5.0)
    m0 = meshing.triangulate(g, 0.8)
    m1 = meshing.refine_uniform(m0)
    mat = geo.MaterialData.borderline(g, alpha=2.0)
    vals = []
    for m in (m0, m1):
        F = femforms.assemble(m, mat)
        r = es.smallest_eigenpairs(*F.matrices(femforms.DELTA), k=2, tol=1e-10)
        vals.append(r.values)
    # Rayleigh-Ritz on nested spaces: eigenvalues do not increase
    assert vals[1][0] <= vals[0][0] + 1e-9
    assert vals[1][1] <= vals[0][1] + 1e-9


def test_bad_inputs():
    A = sp.diags([1.0, 2.0]).tocsr()
    with pytest.raises(SolverError):
        es.smallest_eigenpairs(A, _identity(2), 0)
    with pytest.raises(SolverError):
        es.smallest_eigenpairs(A, _identity(2), 1, tol=0.0)
    with pytest.raises(SolverError):
        # one eigenvalue below the pole: neither below nor above k = 2
        es.smallest_eigenpairs(A, _identity(2), 2, pole=1.5)


@pytest.mark.parametrize("pole", [{}, {"pole": -1.0}, {"pole": 1.0}])
def test_empty_pencil_is_refused(monkeypatch, pole):
    # a 0x0 pencil has nothing to solve: DomainError before any
    # factorization, whatever the pole
    factored = []
    monkeypatch.setattr(es, "splu", lambda *a, **kw: factored.append(1))
    empty = sp.csr_matrix((0, 0))
    with pytest.raises(DomainError, match="empty"):
        es.smallest_eigenpairs(empty, empty, 2, **pole)
    assert not factored


def test_missed_eigenvalue_below_the_top_is_recovered(monkeypatch):
    # a first sweep that skips 4 in diag(1, 4, 5, 7, 9) passes every
    # check between its values; the count above its top finds 3, not 2
    A = sp.diags([1.0, 4.0, 5.0, 7.0, 9.0]).tocsr()
    lanczos = es._lanczos
    sweeps = []

    def skipping(*args):
        sweeps.append(args[4])
        if len(sweeps) == 1:
            return (np.array([1.0, 5.0]), np.eye(5)[:, [0, 2]], np.zeros(2),
                    False)
        return lanczos(*args)

    monkeypatch.setattr(es, "_lanczos", skipping)
    r = es.smallest_eigenpairs(A, _identity(5), 2, tol=1e-12)
    assert sweeps == [2, 1]
    assert np.allclose(r.values, [1.0, 4.0], atol=1e-12)


def test_random_pencils_with_multiplicities_against_dense(monkeypatch):
    # A = D Q diag(d) Q^T D with M = D^2, so the pencil spectrum is d;
    # up to three of its k + 1 lowest values are repeated up to 3 times
    lanczos = es._lanczos
    sweeps = []

    def counted(*args):
        sweeps.append(1)
        return lanczos(*args)

    monkeypatch.setattr(es, "_lanczos", counted)
    rng = np.random.default_rng(2014)
    for _ in range(30):
        n = int(rng.integers(8, 61))
        k = int(rng.integers(1, 7))
        d = np.sort(rng.uniform(-5.0, 5.0, n))
        for _ in range(int(rng.integers(0, 4))):
            i = int(rng.integers(k + 1))
            m = int(rng.integers(2, 4))
            d[rng.choice(n, m - 1, replace=False)] = d[i]
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        dm = rng.uniform(0.5, 2.0, n)
        D = np.diag(np.sqrt(dm))
        Ad = D @ (Q * d) @ Q.T @ D
        Ad = 0.5 * (Ad + Ad.T)
        exact = sla.eigh(Ad, np.diag(dm), eigvals_only=True)[:k]
        r = es.smallest_eigenpairs(sp.csr_matrix(Ad), sp.diags(dm).tocsr(),
                                   k, tol=1e-11)
        assert np.abs(r.values - exact).max() <= 1e-9
    assert len(sweeps) > 30  # some multiplicity was recovered by a restart


@pytest.mark.parametrize("clusters", [3, 4])
def test_stacked_triples_are_filled_below_the_first_level(monkeypatch,
                                                          clusters):
    # k = 1 under `clusters` stacked triples: the count above the first
    # value finds its triple, and the list is filled below that level, not
    # up the next clusters; a climb took 4 sweeps for 3 triples and ran
    # out of attempts for 4
    rng = np.random.default_rng(7)
    n = 40
    d = np.concatenate([np.repeat(-np.arange(clusters, 0.0, -1.0), 3),
                        np.linspace(0.5, 5.0, n - 3 * clusters)])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dm = rng.uniform(0.5, 2.0, n)
    D = np.diag(np.sqrt(dm))
    Ad = D @ (Q * d) @ Q.T @ D
    Ad = 0.5 * (Ad + Ad.T)
    exact = sla.eigh(Ad, np.diag(dm), eigvals_only=True)[:1]
    lanczos = es._lanczos
    wants = []

    def counted(*args):
        wants.append(args[4])
        return lanczos(*args)

    monkeypatch.setattr(es, "_lanczos", counted)
    r = es.smallest_eigenpairs(sp.csr_matrix(Ad), sp.diags(dm).tocsr(), 1,
                               tol=1e-11)
    assert np.abs(r.values - exact).max() <= 1e-9
    assert len(wants) <= 3 and wants[0] == 1 and max(wants[1:]) <= 2


def _recorded(monkeypatch, fail):
    """Record the levels of inertia_count (raising SolverError where
    fail(mu)) and the number of values each Lanczos sweep asks for."""
    probes, wants = [], []
    count, lanczos = es.inertia_count, es._lanczos

    def flaky_count(A, M, mu):
        probes.append(mu)
        if fail(mu):
            raise SolverError("level too close to spectrum: pivot below 1e-14")
        return count(A, M, mu)

    def counted_lanczos(*args):
        wants.append(args[4])
        return lanczos(*args)

    monkeypatch.setattr(es, "inertia_count", flaky_count)
    monkeypatch.setattr(es, "_lanczos", counted_lanczos)
    return probes, wants


def test_unfactorable_certifying_level_is_an_error(monkeypatch):
    # a list solved below the spectrum whose count at pole_above does not
    # factor is not certified: the solve at the pole below raises, and
    # solve_pencil raises at once, with no fallback search, which would
    # certify at the same level; no list comes back
    probes, wants = _recorded(monkeypatch, lambda mu: True)
    A = sp.diags(np.arange(1.0, 11.0)).tocsr()
    M = _identity(10)
    with pytest.raises(SolverError, match="pivot below"):
        es.smallest_eigenpairs(A, M, 3, tol=1e-12, pole=0.0)
    assert wants == [3] and len(probes) == 1
    with pytest.raises(SolverError, match="pivot below"):
        pipeline.solve_pencil(A, M, 3, tol=1e-12, pole=0.0)
    assert wants == [3, 3]
    assert np.allclose(probes, es.pole_above([3.0]), rtol=0, atol=1e-12)


def test_neighbour_inside_the_certifying_window_is_swept(monkeypatch):
    # 2.001 lies below pole_above(2) = 2.002: the one count there finds 3
    # values, a second sweep asks for the missing one, and the list holds
    # the two smallest
    d = np.concatenate([[1.0, 2.0, 2.001], np.linspace(3.0, 10.0, 37)])
    A = sp.diags(d).tocsr()
    probes, wants = _recorded(monkeypatch, lambda mu: False)
    r = es.smallest_eigenpairs(A, _identity(40), 2, tol=1e-12, pole=0.0)
    assert probes == [pytest.approx(2.002, rel=0, abs=1e-12)]
    assert wants == [2, 1]
    assert np.allclose(r.values, [1.0, 2.0], rtol=0, atol=1e-12)


def test_top_count_below_the_list_is_an_error(monkeypatch):
    monkeypatch.setattr(es, "inertia_count", lambda A, M, mu: 1)
    A = sp.diags(np.arange(1.0, 11.0)).tocsr()
    with pytest.raises(SolverError, match="list holds 3"):
        es.smallest_eigenpairs(A, _identity(10), 3, tol=1e-12, pole=0.0)


def test_deflated_restart_over_the_whole_complement(monkeypatch):
    # a first sweep that returns the lowest and the highest of six values
    # leaves a count of 6 above its top, so the restart asks for all of
    # the M-orthogonal complement (d = 2, k = n - d = 4): its block spans
    # the complement, and its Rayleigh-Ritz step is exact
    rng = np.random.default_rng(11)
    n = 6
    B = rng.standard_normal((n, n))
    Ad = (B + B.T) / 2
    C = rng.standard_normal((n, n))
    Md = C @ C.T + n * np.eye(n)
    exact, V = sla.eigh(Ad, Md)
    lanczos = es._lanczos
    sweeps = []

    def skipping(solve, A, M, sigma, k, tol, start, deflate, *rest):
        if not sweeps:
            sweeps.append((k, 0, exact[[0, 5]]))
            return exact[[0, 5]], V[:, [0, 5]], np.zeros(2), False
        out = lanczos(solve, A, M, sigma, k, tol, start, deflate, *rest)
        sweeps.append((k, deflate.shape[1], out[0]))
        assert np.abs(deflate.T @ (M @ out[1])).max() <= 1e-12
        return out

    monkeypatch.setattr(es, "_lanczos", skipping)
    r = es.smallest_eigenpairs(sp.csr_matrix(Ad), sp.csr_matrix(Md), 2,
                               tol=1e-11)
    assert [s[:2] for s in sweeps] == [(2, 0), (4, 2)]
    assert np.abs(sweeps[1][2] - exact[1:5]).max() <= 1e-12
    assert np.abs(r.values - exact[:2]).max() <= 1e-12


def _budget(monkeypatch, columns, above=(False, True)):
    """Run every Lanczos sweep whose side is in `above` with a budget of
    `columns` solved columns."""
    lanczos = es._lanczos

    def tight(solve, A, M, sigma, k, tol, start, deflate, budget, side,
              *rest):
        if side in above:
            budget = columns
        return lanczos(solve, A, M, sigma, k, tol, start, deflate, budget,
                       side, *rest)

    monkeypatch.setattr(es, "_lanczos", tight)


def test_lanczos_at_its_budget_is_an_error(monkeypatch):
    # the kernel stops at its budget of 4 columns with one of three pairs
    # converged (1 lies far below the cluster at 1e4): the sweep is
    # exhausted, and the partial list comes back on the error
    A = sp.diags(np.concatenate([[1.0], np.linspace(1e4, 1e4 + 1, 9)]))
    _budget(monkeypatch, 4)
    with pytest.raises(SolverError, match="did not converge") as err:
        es.smallest_eigenpairs(A.tocsr(), _identity(10), 3, tol=1e-12,
                               pole=0.0)
    partial = err.value.partial
    assert partial.values.size == 1
    assert abs(partial.values[0] - 1.0) <= 1e-12
    assert partial.residuals[0] <= 1e-12


def test_pole_above_counts_and_drives_the_search(monkeypatch,
                                                 assembled_broken_line):
    # one factorization at the pole above the list, and no count after it
    A, M = assembled_broken_line.matrices(femforms.DELTA_PRIME)
    today = es.smallest_eigenpairs(A, M, 3, tol=1e-10, pole=-8.0)
    above = today.values[-1] + 1e-3 * max(1.0, abs(today.values[-1]))
    poles = []
    factor = es._factor

    def recorded(A, M, mu):
        poles.append(mu)
        return factor(A, M, mu)

    monkeypatch.setattr(es, "_factor", recorded)
    r = es.smallest_eigenpairs(A, M, 3, tol=1e-10, pole=above)
    assert poles == [above]
    assert r.shift_used == above
    assert np.abs(r.values - today.values).max() <= 1e-9


@pytest.mark.parametrize("m", [0, 1, 3, 10, 11])
def test_pole_side_is_read_off_its_factor(monkeypatch, assembled_broken_line,
                                          m):
    # the m negative pivots of the pole's factor tell its side for k = 3:
    # m = 0 is a pole below, certified by one count above the list;
    # 3 <= m <= 10 a pole above, whose factor alone counts and drives
    # Lanczos; 0 < m < 3 and m > 10 are refused after that one factor, and
    # solve_pencil then takes the certified shift search
    A, M = assembled_broken_line.matrices(femforms.DELTA_PRIME)
    lam = es.smallest_eigenpairs(A, M, max(m + 1, 3), tol=1e-10,
                                 pole=-8.0).values
    pole = 0.5 * (lam[m - 1] + lam[m]) if m else -8.0
    assert es.inertia_count(A, M, pole) == m
    poles = []
    factor = es._factor

    def recorded(A, M, mu):
        poles.append(mu)
        return factor(A, M, mu)

    monkeypatch.setattr(es, "_factor", recorded)
    if m in (1, 11):
        with pytest.raises(SolverError, match=f"{m} eigenvalues below"):
            es.smallest_eigenpairs(A, M, 3, tol=1e-10, pole=pole)
        assert poles == [pole]
        r = pipeline.solve_pencil(A, M, 3, tol=1e-10, pole=pole)
        assert r.shift_used == es.lower_shift(A, M)[0]
        assert np.abs(r.values - lam[:3]).max() <= 1e-12
        return
    r = es.smallest_eigenpairs(A, M, 3, tol=1e-10, pole=pole)
    assert poles == ([pole, es.pole_above(r.values)] if m == 0 else [pole])
    assert r.shift_used == pole
    assert np.abs(r.values - lam[:3]).max() <= 1e-9


@pytest.mark.parametrize("fault", ["refused", "too_few", "too_many",
                                   "exhausted"])
def test_pole_above_falls_back_to_the_pole_below(monkeypatch,
                                                 assembled_broken_line,
                                                 fault):
    # a refused pole above, m < k, m > 2k + 4 or a Lanczos run exhausted
    # at its budget is an error of the solve at that pole; solve_pencil
    # then takes the certified shift search, which gives today's values
    A, M = assembled_broken_line.matrices(femforms.DELTA_PRIME)
    today = es.smallest_eigenpairs(A, M, 3, tol=1e-10, pole=-8.0)
    lam = today.values
    # 1.178 lies between the 11th and 12th eigenvalues: m = 2k + 5
    above = {"too_few": 0.5 * (lam[0] + lam[1]),
             "too_many": 1.178}.get(fault, lam[-1] + 1e-3 * abs(lam[-1]))
    m = es.inertia_count(A, M, above)
    assert m == {"too_few": 1, "too_many": 11}.get(fault, 3)
    if fault == "refused":
        factor = es._factor

        def refusing(A, M, mu):
            if mu == above:
                raise SolverError("level too close to spectrum")
            return factor(A, M, mu)

        monkeypatch.setattr(es, "_factor", refusing)
    if fault == "exhausted":
        _budget(monkeypatch, 1, above=(True,))
    with pytest.raises(SolverError):
        es.smallest_eigenpairs(A, M, 3, tol=1e-10, pole=above)
    r = pipeline.solve_pencil(A, M, 3, tol=1e-10, pole=above)
    assert r.shift_used == es.lower_shift(A, M)[0]
    assert np.abs(r.values - lam).max() <= 1e-12


def test_same_seed_gives_identical_pairs(assembled_broken_line):
    A, M = assembled_broken_line.matrices(femforms.DELTA_PRIME)
    r1 = es.smallest_eigenpairs(A, M, 4, tol=1e-10, seed=5)
    r2 = es.smallest_eigenpairs(A, M, 4, tol=1e-10, seed=5)
    assert np.array_equal(r1.values, r2.values)
    assert np.array_equal(r1.vectors, r2.vectors)


def test_kernel_keeps_no_module_level_mutable_state():
    mutable = [name for name, value in vars(es).items()
               if not name.startswith("__")
               and isinstance(value, (list, dict, set, bytearray,
                                      np.ndarray))]
    assert mutable == []


def test_threads_give_the_serial_results(ringed_pencils):
    # two pencils, one solved at a pole below (the search) and one at a
    # pole above, each twice on two threads at once: every result equals
    # the serial one with the same seed and start block, bit for bit
    jobs = []
    for key, above in ((("broken_line", femforms.DELTA_PRIME, "full"), True),
                       (("circle", femforms.DELTA, "box"), False)):
        A, M = ringed_pencils[key]
        start = np.random.default_rng(9).standard_normal((A.shape[0], 2))
        pole = None
        if above:
            pole = es.pole_above(es.smallest_eigenpairs(A, M, 2).values)
        jobs.append((A, M, pole, start))

    def solve(i):
        A, M, pole, start = jobs[i]
        return es.smallest_eigenpairs(A, M, 2, pole=pole, seed=5,
                                      start=start)

    serial = [solve(0), solve(1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads take turns often
    try:
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(solve, [0, 1, 0, 1], timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for i, got in enumerate(threaded):
        want = serial[i % 2]
        assert got.shift_used == want.shift_used
        for field in ("values", "vectors", "residuals"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
