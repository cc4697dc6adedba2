import math

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
    r1 = es.smallest_eigenpairs(A, M, 3, tol=1e-10, shift=-8.0)
    r2 = es.smallest_eigenpairs(A, M, 3, tol=1e-10, shift=-3.0)
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
        es.smallest_eigenpairs(A, _identity(2), 1, shift=1.5)  # not below


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


def test_unfactorable_top_probe_is_moved_up(monkeypatch):
    # a tiny pivot just above the top value is no evidence of a missed
    # eigenvalue: the level moves up to 2 delta, with no restart
    A = sp.diags(np.arange(1.0, 11.0)).tocsr()
    M = _identity(10)
    plain = es.smallest_eigenpairs(A, M, 3, tol=1e-12, shift=0.0)
    top = plain.values[-1]
    delta = 1e-8 * top
    probes, wants = _recorded(monkeypatch, lambda mu: mu == top + delta)
    r = es.smallest_eigenpairs(A, M, 3, tol=1e-12, shift=0.0)
    assert wants == [3]
    assert np.array_equal(r.values, plain.values)
    assert probes == [top + delta, top + 2.0 * delta]


def test_top_without_a_factorable_probe_counts_as_missing(monkeypatch):
    # three failed levels count as one missing value: each attempt asks
    # the next sweep for one more, and the uncertified list is an error
    probes, wants = _recorded(monkeypatch, lambda mu: True)
    A = sp.diags(np.arange(1.0, 11.0)).tocsr()
    with pytest.raises(SolverError, match="did not converge"):
        es.smallest_eigenpairs(A, _identity(10), 3, tol=1e-12, shift=0.0)
    assert wants == [3, 1, 1, 1]
    assert len(probes) == 12


def test_top_count_below_the_list_is_an_error(monkeypatch):
    monkeypatch.setattr(es, "inertia_count", lambda A, M, mu: 1)
    A = sp.diags(np.arange(1.0, 11.0)).tocsr()
    with pytest.raises(SolverError, match="list holds 3"):
        es.smallest_eigenpairs(A, _identity(10), 3, tol=1e-12, shift=0.0)


def test_deflated_restart_over_the_whole_complement(monkeypatch):
    # a first sweep that returns the lowest and the highest of six values
    # leaves a count of 6 above its top, so the restart asks for all of
    # the M-orthogonal complement (d = 2, k = n - d = 4): dense
    # Rayleigh-Ritz on a basis of it
    rng = np.random.default_rng(11)
    n = 6
    B = rng.standard_normal((n, n))
    Ad = (B + B.T) / 2
    C = rng.standard_normal((n, n))
    Md = C @ C.T + n * np.eye(n)
    exact, V = sla.eigh(Ad, Md)
    lanczos = es._lanczos
    sweeps = []

    def skipping(solve, A, M, sigma, k, tol, rng, deflate, budget, which):
        if not sweeps:
            sweeps.append((k, 0, exact[[0, 5]]))
            return exact[[0, 5]], V[:, [0, 5]], np.zeros(2), False
        out = lanczos(solve, A, M, sigma, k, tol, rng, deflate, budget,
                      which)
        sweeps.append((k, deflate.shape[1], out[0]))
        assert np.abs(deflate.T @ (M @ out[1])).max() <= 1e-12
        return out

    monkeypatch.setattr(es, "_lanczos", skipping)
    r = es.smallest_eigenpairs(sp.csr_matrix(Ad), sp.csr_matrix(Md), 2,
                               tol=1e-11)
    assert [s[:2] for s in sweeps] == [(2, 0), (4, 2)]
    assert np.abs(sweeps[1][2] - exact[1:5]).max() <= 1e-12
    assert np.abs(r.values - exact[:2]).max() <= 1e-12


def test_arpack_without_convergence_is_an_error(monkeypatch):
    # ARPACK stops at its iteration limit with one of three pairs: the
    # sweep is exhausted and the partial list comes back on the error
    def stalled(A, k, **kw):
        raise es.ArpackNoConvergence("No convergence", np.array([1.0]),
                                     np.eye(A.shape[0])[:, :1])

    monkeypatch.setattr(es, "eigsh", stalled)
    A = sp.diags(np.arange(1.0, 11.0)).tocsr()
    with pytest.raises(SolverError, match="did not converge") as err:
        es.smallest_eigenpairs(A, _identity(10), 3, tol=1e-12, shift=0.0)
    assert np.array_equal(err.value.partial.values, [1.0])


def test_pole_above_counts_and_drives_the_search(monkeypatch,
                                                 assembled_broken_line):
    # one factorization at the pole above the list, and no count after it
    A, M = assembled_broken_line.matrices(femforms.DELTA_PRIME)
    today = es.smallest_eigenpairs(A, M, 3, tol=1e-10, shift=-8.0)
    above = today.values[-1] + 1e-3 * max(1.0, abs(today.values[-1]))
    poles = []
    factor = es._factor

    def recorded(A, M, mu):
        poles.append(mu)
        return factor(A, M, mu)

    monkeypatch.setattr(es, "_factor", recorded)
    r = es.smallest_eigenpairs(A, M, 3, tol=1e-10, above=above)
    assert poles == [above]
    assert r.shift_used == above
    assert np.abs(r.values - today.values).max() <= 1e-9
    # one pole per solve: a pole below and a pole above are refused
    with pytest.raises(DomainError, match="not both"):
        es.smallest_eigenpairs(A, M, 3, tol=1e-10, shift=-8.0, above=above)
    assert poles == [above]


@pytest.mark.parametrize("fault", ["refused", "too_few", "too_many",
                                   "exhausted"])
def test_pole_above_falls_back_to_the_pole_below(monkeypatch,
                                                 assembled_broken_line,
                                                 fault):
    # a refused pole above, m < k, m > 2k + 4 or an exhausted ARPACK run
    # is an error of the solve at that pole; solve_pencil then takes the
    # certified shift search, which gives today's values
    A, M = assembled_broken_line.matrices(femforms.DELTA_PRIME)
    today = es.smallest_eigenpairs(A, M, 3, tol=1e-10, shift=-8.0)
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
        eigsh = es.eigsh

        def stalled(A, k, **kw):
            if kw["which"] == "SA":
                raise es.ArpackNoConvergence("No convergence", np.empty(0),
                                             np.empty((A.shape[0], 0)))
            return eigsh(A, k, **kw)

        monkeypatch.setattr(es, "eigsh", stalled)
    with pytest.raises(SolverError):
        es.smallest_eigenpairs(A, M, 3, tol=1e-10, above=above)
    r = pipeline.solve_pencil(A, M, 3, tol=1e-10, above=above)
    assert r.shift_used == es.lower_shift(A, M)[0]
    assert np.abs(r.values - lam).max() <= 1e-12


def test_same_seed_gives_identical_pairs(assembled_broken_line):
    A, M = assembled_broken_line.matrices(femforms.DELTA_PRIME)
    r1 = es.smallest_eigenpairs(A, M, 4, tol=1e-10, seed=5)
    r2 = es.smallest_eigenpairs(A, M, 4, tol=1e-10, seed=5)
    assert np.array_equal(r1.values, r2.values)
    assert np.array_equal(r1.vectors, r2.vectors)
