import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from leakyfem import eigensolver, femforms, geometry as geo, meshing, pipeline
from leakyfem import spectral_analysis as sa
from leakyfem.eigensolver import EigenResult, inertia_count
from leakyfem.errors import ConsistencyError, DomainError, SolverError


def _fake_result(values, shift=-10.0):
    v = np.asarray(values, dtype=float)
    return EigenResult(values=v, vectors=np.zeros((1, v.size)),
                       residuals=np.zeros(v.size), shift_used=shift)


def test_threshold_broken_line():
    g = geo.make_broken_line(math.pi / 4, 6.0)
    mat = geo.MaterialData.constant(g, alpha=2.0, beta=2.0)
    t = sa.essential_threshold(g, mat, sa.DELTA)
    assert t.value == -1.0  # -alpha^2/4 exactly
    t2 = sa.essential_threshold(g, mat, sa.DELTA_PRIME)
    assert t2.value == -1.0  # -4/beta^2 exactly
    assert not t2.conjectured


def test_threshold_circle_compact():
    g = geo.make_circle(1.0, (0.0, 0.0), 4.0, 32)
    mat = geo.MaterialData.constant(g, alpha=7.0, beta=0.1)
    assert sa.essential_threshold(g, mat, sa.DELTA).value == 0.0
    assert sa.essential_threshold(g, mat, sa.DELTA_PRIME).value == 0.0


def test_threshold_line_plus_circle():
    g = geo.make_line_plus_circle(3.0, 1.0, 12.0, 32)
    mat = geo.MaterialData.constant(g, alpha=2.0, beta=0.5)
    assert sa.essential_threshold(g, mat, sa.DELTA).value == -1.0
    assert sa.essential_threshold(g, mat, sa.DELTA_PRIME).value == -16.0


def test_threshold_cone_conjectured():
    g = geo.make_cone_meridian(math.pi / 4, 6.0)
    mat = geo.MaterialData.constant(g, alpha=2.0, beta=2.0)
    t = sa.essential_threshold(g, mat, sa.DELTA_PRIME)
    assert t.value == -1.0
    assert t.conjectured
    assert not sa.essential_threshold(g, mat, sa.DELTA).conjectured


def test_threshold_nonconstant_refused():
    g = geo.make_broken_line(math.pi / 4, 6.0)
    mat = geo.MaterialData(alpha=np.array([2.0, 3.0]), beta=np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        sa.essential_threshold(g, mat, sa.DELTA)
    # nonconstant on the compact component only is fine
    glc = geo.make_line_plus_circle(3.0, 1.0, 12.0, 32)
    alpha = np.full(33, 2.0)
    alpha[5] = 3.0  # a circle chord; the line keeps constant strength
    mlc = geo.MaterialData(alpha=alpha, beta=np.full(33, 1.0))
    assert sa.essential_threshold(glc, mlc, sa.DELTA).value == -1.0


def test_richardson_quadratic():
    limit, order, err = sa.richardson(1.16, 1.04, 1.01)
    assert order == pytest.approx(2.0, abs=1e-12)
    assert limit == pytest.approx(1.0, abs=1e-12)
    assert err == pytest.approx(0.01, abs=1e-12)


def test_richardson_constant_and_nonmonotone():
    limit, order, err = sa.richardson(2.0, 2.0, 2.0)
    assert limit == 2.0 and err == 0.0 and math.isnan(order)
    limit, order, err = sa.richardson(1.0, 0.9, 0.95)
    assert math.isnan(order)
    assert err == pytest.approx(0.05)
    assert limit == 0.95


def test_counting_trivial():
    res = _fake_result([-3.0, -2.0, -0.5])
    import scipy.sparse as sp
    A = sp.diags([-3.0, -2.0, -0.5]).tocsr()
    M = sp.identity(3, format="csr")
    thr = sa.ThresholdInfo(sa.DELTA, "circle", 0.0, "test")
    assert sa.counting(res, -1.0, A, M, thr) == 2
    assert sa.counting(res, -5.0, A, M, thr) == 0
    with pytest.raises(DomainError):
        sa.counting(res, 0.5, A, M, thr)  # not below the threshold


def test_counting_consistency_error():
    import scipy.sparse as sp
    res = _fake_result([-3.0, -0.5])  # pretends -2.0 does not exist
    A = sp.diags([-3.0, -2.0, -0.5]).tocsr()
    M = sp.identity(3, format="csr")
    thr = sa.ThresholdInfo(sa.DELTA, "circle", 0.0, "test")
    with pytest.raises(ConsistencyError):
        sa.counting(res, -1.0, A, M, thr)


def test_counting_list_stopping_below_the_level():
    # a certified list that stops below mu may hold fewer values than the
    # pencil has there; it may never hold more
    import scipy.sparse as sp
    A = sp.diags([-3.0, -2.0, -0.5]).tocsr()
    M = sp.identity(3, format="csr")
    thr = sa.ThresholdInfo(sa.DELTA, "circle", 0.0, "test")
    assert sa.counting(_fake_result([-3.0]), -1.0, A, M, thr) == 2
    with pytest.raises(ConsistencyError):
        sa.counting(_fake_result([-3.0, -2.5, -2.0]), -1.0, A, M, thr)


def _thresholds(vd=-1.0, vp=-1.0):
    return (sa.ThresholdInfo(sa.DELTA, "broken_line", vd, "t"),
            sa.ThresholdInfo(sa.DELTA_PRIME, "broken_line", vp, "t"))


def test_verify_strict_and_cutoff():
    rd = _fake_result([-1.5, -1.2, -0.8])
    rp = _fake_result([-1.8, -1.4, -0.85])
    rep = sa.verify_theoremA(rd, rp, _thresholds(), errors=0.01)
    # only n with lambda_n(delta) < -1 are covered by the comparison
    assert [p.n for p in rep.pairs] == [1, 2]
    assert all(p.verdict == "strict" for p in rep.pairs)
    assert rep.verdict == "strict"


def test_verify_indistinguishable():
    rd = _fake_result([-1.5])
    rp = _fake_result([-1.5000001])
    rep = sa.verify_theoremA(rd, rp, _thresholds(), errors=1e-3)
    assert rep.pairs[0].verdict == "indistinguishable"
    assert rep.verdict == "indistinguishable"
    # identical results twice: gaps are zero
    rep2 = sa.verify_theoremA(rd, rd, _thresholds(), errors=1e-3)
    assert rep2.pairs[0].gap == 0.0
    assert rep2.pairs[0].verdict == "indistinguishable"


def test_verify_violation_is_graded():
    # delta-prime above delta, an assembly-level bug, is a graded verdict:
    # the report comes back with the violated pair and the run's verdict
    rd = _fake_result([-1.5, -1.3])
    rp = _fake_result([-1.4, -1.35])
    rep = sa.verify_theoremA(rd, rp, _thresholds(), errors=1e-3)
    assert [p.verdict for p in rep.pairs] == ["violated", "strict"]
    assert rep.verdict == "violated"


def test_verify_clusterwise_grading():
    # nearly degenerate pair: strictness must hold against the cluster edges
    rd = _fake_result([-2.0, -1.5, -1.5 + 5e-9])
    rp = _fake_result([-2.5, -1.6, -1.6 + 5e-9])
    rep = sa.verify_theoremA(rd, rp, _thresholds(), errors=0.01)
    assert [p.verdict for p in rep.pairs] == ["strict"] * 3
    gap_cluster = -1.5 - (-1.6 + 5e-9)
    assert rep.pairs[1].verdict == "strict"
    assert gap_cluster > 0.01


@pytest.fixture(scope="module")
def solved_circle():
    g = geo.make_circle(1.0, (0.0, 0.0), 3.5, 48)
    mat = geo.MaterialData.constant(g, alpha=5.0, beta=0.7)
    meshes = pipeline.mesh_levels(g, 0.3, 1)
    forms = [femforms.assemble(m, mat) for m in meshes]
    rd = pipeline.cascade_solve(forms, sa.DELTA, 3)
    rp = pipeline.cascade_solve(forms, sa.DELTA_PRIME, 3)
    return g, mat, forms, rd, rp


def _factorizations(monkeypatch):
    calls = []
    splu = eigensolver.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "splu", counted)
    return calls


def _direct_counts(forms, mu):
    return tuple(inertia_count(*forms.matrices(which), mu)
                 for which in (sa.DELTA, sa.DELTA_PRIME))


def test_counting_table_circle(monkeypatch, solved_circle):
    g, mat, forms, rd, rp = solved_circle
    td = sa.essential_threshold(g, mat, sa.DELTA)
    tp = sa.essential_threshold(g, mat, sa.DELTA_PRIME)
    calls = _factorizations(monkeypatch)
    rows = sa.counting_table(forms[-1], rd[-1], rp[-1], td, tp)
    assert rows, "expected at least one counting level"
    # the rows are read off the certified lists: only a list whose top
    # lies below the highest level is counted, once, at that level
    assert len(calls) == sum(r.values[-1] < rows[-1].mu
                             for r in (rd[-1], rp[-1]))
    for r in rows:
        assert r.n_deltaprime >= r.n_delta
        assert (r.n_delta, r.n_deltaprime) == _direct_counts(forms[-1], r.mu)


def _stand_in_forms():
    import scipy.sparse as sp
    pencils = {sa.DELTA: (sp.diags([-3.0, -1.5, -0.5, 2.0]).tocsr(),
                          sp.identity(4, format="csr")),
               sa.DELTA_PRIME: (sp.diags([-4.0, -2.5, -1.2, 2.0]).tocsr(),
                                sp.identity(4, format="csr"))}
    thresholds = (sa.ThresholdInfo(which, "circle", 0.0, "test")
                  for which in (sa.DELTA, sa.DELTA_PRIME))
    return SimpleNamespace(matrices=pencils.__getitem__), *thresholds


def test_counting_table_catches_a_list_short_below_the_top_level(
        monkeypatch):
    # the delta-prime list stops at -2.5 and misses -1.2, which lies below
    # the highest level -1.0 (between the delta values -1.5 and -0.5): its
    # one count there exceeds the list, so only the levels below -2.5 stay
    forms, td, tp = _stand_in_forms()
    calls = _factorizations(monkeypatch)
    rows = sa.counting_table(forms, _fake_result([-3.0, -1.5, -0.5]),
                             _fake_result([-4.0, -2.5]), td, tp)
    assert len(calls) == 1
    assert [(r.mu, r.n_delta, r.n_deltaprime) for r in rows] == [
        (-3.5, 0, 1), (-2.75, 1, 1)]


def test_counting_table_catches_a_value_the_pencil_lacks(monkeypatch):
    # the delta-prime list holds -1.1, which its pencil does not have: the
    # count at the highest level -0.8 falls short of the list
    forms, td, tp = _stand_in_forms()
    calls = _factorizations(monkeypatch)
    with pytest.raises(ConsistencyError, match="4 computed vs 3"):
        sa.counting_table(forms, _fake_result([-3.0, -1.5, -0.5]),
                          _fake_result([-4.0, -2.5, -1.2, -1.1]), td, tp)
    assert len(calls) == 1


@settings(max_examples=15)
@given(theta=st.floats(0.1, 0.6), alpha=st.floats(2.0, 4.0),
       c=st.floats(0.3, 1.0, exclude_min=True), k=st.integers(2, 4))
def test_counting_table_matches_inertia_on_random_broken_lines(theta, alpha,
                                                                c, k):
    # sharp corners and strong couplings hold several bound states below
    # both thresholds; small k lets a list stop below the highest level
    g = geo.make_broken_line(theta, 4.0)
    mat = geo.MaterialData.constant(g, alpha=alpha, beta=c * 4.0 / alpha)
    forms = pipeline.assemble_levels(pipeline.mesh_levels(g, 0.8, 1), mat)
    rd = pipeline.cascade_solve(forms, sa.DELTA, k)[-1]
    rp = pipeline.cascade_solve(forms, sa.DELTA_PRIME, k)[-1]
    td = sa.essential_threshold(g, mat, sa.DELTA)
    tp = sa.essential_threshold(g, mat, sa.DELTA_PRIME)
    rows = sa.counting_table(forms[-1], rd, rp, td, tp)
    for r in rows:
        assert (r.n_delta, r.n_deltaprime) == _direct_counts(forms[-1], r.mu)


def test_discrete_comparison_holds(solved_circle):
    g, mat, forms, rd, rp = solved_circle
    for lev in range(len(rd)):
        n = min(rd[lev].values.size, rp[lev].values.size)
        assert np.all(rp[lev].values[:n] <= rd[lev].values[:n] + 1e-9)


def test_truncation_monotone_and_stabilizing():
    g = geo.make_broken_line(math.pi / 4, 9.0)
    mat = geo.MaterialData.borderline(g, alpha=2.0)
    studies = sa.truncation_study(g, mat, [4.5, 6.0, 9.0], h=0.5,
                                  refinements=1, k=2)
    assert [ts.operator for ts in studies] == [sa.DELTA, sa.DELTA_PRIME]
    for ts in studies:
        assert np.all(np.diff(ts.values, axis=0) <= 1e-9)  # nested spaces
        # the bound state below the threshold stabilizes geometrically
        d = ts.deltas[:, 0]
        assert d[1] < d[0]


def test_truncation_preconditions():
    g = geo.make_broken_line(math.pi / 4, 9.0)
    mat = geo.MaterialData.borderline(g, alpha=2.0)
    with pytest.raises(DomainError):
        sa.truncation_study(g, mat, [9.0], h=0.5)
    with pytest.raises(DomainError):
        sa.truncation_study(g, mat, [4.0, 6.0], h=0.5)
    with pytest.raises(DomainError):
        sa.truncation_study(g, mat, [4.5, 9.0], h=0.5, refinements=0)


@pytest.mark.parametrize("kind", ["broken_line", "circle"])
def test_truncation_study_is_the_verify_study(kind):
    # one path: the studies of truncation_study are the pair verify
    # reports at the same truncation level, bit for bit, with every
    # delta-prime box at the pole above the delta row of the same box
    if kind == "broken_line":
        g = geo.make_broken_line(math.pi / 4, 6.0)
        mat = geo.MaterialData.borderline(g, alpha=2.0)
        boxes, h, r, k = [3.0, 4.5, 6.0], 0.8, 2, 2
    else:
        g = geo.make_circle(1.0, (0.0, 0.0), 3.0, 16)
        mat = geo.MaterialData.constant(g, alpha=5.0, beta=0.7)
        boxes, h, r, k = [1.5, 2.2, 3.0], 0.7, 2, 3
    got = sa.truncation_study(g, mat, boxes, h, refinements=r, k=k)
    run = sa.verify(g, mat, h, refinements=r, halfwidths=boxes,
                    truncation_refinements=r, k=k)
    assert len(got) == len(run.truncation) == 2
    for a, b in zip(got, run.truncation):
        assert (a.operator, a.halfwidths) == (b.operator, b.halfwidths)
        for name in ("values", "deltas", "stabilized"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_convergence_study_orders():
    g = geo.make_circle(1.0, (0.0, 0.0), 3.5, 48)
    mat = geo.MaterialData.constant(g, alpha=5.0, beta=0.8)
    meshes = pipeline.mesh_levels(g, 0.4, 2)
    forms = [femforms.assemble(m, mat) for m in meshes]
    rd = pipeline.cascade_solve(forms, sa.DELTA, 1)
    conv = sa.convergence_study(rd)
    assert len(conv["order"]) == 1
    assert conv["error"][0] >= 0.0
    with pytest.raises(DomainError):
        sa.convergence_study(rd[:2])


def test_truncation_shift_seeded_from_full_box(monkeypatch):
    # a shift below the full-box spectrum of the same mesh is below every
    # restricted spectrum (min-max), so no shift search is needed
    from leakyfem import eigensolver
    g = geo.make_broken_line(math.pi / 4, 6.0)
    mat = geo.MaterialData.borderline(g, alpha=2.0)
    mesh = pipeline.mesh_levels(g, 0.6, 0, inner_rings=[3.0, 4.5])[0]
    forms = femforms.assemble(mesh, mat)
    boxes = [3.0, 4.5, 6.0]
    plain = [pipeline.solve_restricted(forms, sa.DELTA, L, 2)[0].values
             for L in boxes]
    full = pipeline.cascade_solve([forms], sa.DELTA, 2)[0]
    searches = []
    lower_shift = eigensolver.lower_shift

    def counted(*args, **kwargs):
        searches.append(1)
        return lower_shift(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "lower_shift", counted)
    seeded = sa.truncation_from_forms(forms, sa.DELTA, boxes, 2, full)
    assert not searches
    assert np.abs(seeded.values - plain).max() <= 1e-9


@pytest.fixture(scope="module")
def broken_levels():
    g = geo.make_broken_line(math.pi / 4, 4.0)
    mat = geo.MaterialData.borderline(g, alpha=2.0)
    return pipeline.assemble_levels(pipeline.mesh_levels(g, 0.8, 2), mat)


def _factored_poles(monkeypatch):
    """(pencil size, pole) of every factorization."""
    poles = []
    factor = eigensolver._factor

    def recorded(A, M, mu):
        poles.append((A.shape[0], mu))
        return factor(A, M, mu)

    monkeypatch.setattr(eigensolver, "_factor", recorded)
    return poles


def test_cascade_poles_from_two_levels(monkeypatch, broken_levels):
    # from level 1 on, the pole lies just above the coarser level's list,
    # and it is the only pole that level factors
    poles = _factored_poles(monkeypatch)
    res = pipeline.cascade_solve(broken_levels, sa.DELTA, 2)
    for lev in (1, 2):
        pole = pipeline.pole_above(res[lev - 1].values)
        assert res[lev].shift_used == pole
        assert res[lev].values[-1] < pole
        n = broken_levels[lev].matrices(sa.DELTA)[0].shape[0]
        assert [mu for size, mu in poles if size == n] == [pole]


def test_tight_pole_above_the_spectrum_falls_back(monkeypatch, broken_levels):
    # a pole above the list that counts more than 2k + 4 eigenvalues
    # fails, and the level falls back to the certified shift search, which
    # gives the same values
    tight = pipeline.cascade_solve(broken_levels, sa.DELTA, 2)
    monkeypatch.setattr(pipeline, "pole_above", lambda values: 50.0)
    forced = pipeline.cascade_solve(broken_levels, sa.DELTA, 2)
    for forms, a, b in zip(broken_levels, forced, tight):
        A, M = forms.matrices(sa.DELTA)
        assert a.shift_used == eigensolver.lower_shift(A, M)[0]
        assert a.shift_used < float(a.values[0])
        assert np.abs(a.values - b.values).max() <= 1e-12


def test_solve_pencil_keeps_the_pole_above_without_a_shift(monkeypatch,
                                                           broken_levels):
    # a pole above the list counts and drives the search: one
    # factorization, at that pole
    res0 = pipeline.cascade_solve(broken_levels[:1], sa.DELTA, 2)[0]
    sigma = pipeline.pole_above(res0.values)
    A, M = broken_levels[1].matrices(sa.DELTA)
    factored = []
    splu = eigensolver.splu

    def spied(S, *args, **kwargs):
        factored.append(S)
        return splu(S, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "splu", spied)
    res = pipeline.solve_pencil(A, M, 2, pole=sigma)
    assert len(factored) == 1
    assert abs(factored[0] - (A - sigma * M)).max() == 0.0
    assert res.shift_used == sigma
    assert res.values[-1] < sigma


@settings(max_examples=12)
@given(data=st.data(), kind=st.sampled_from(["broken_line", "circle"]),
       k=st.integers(2, 5))
def test_cascade_matches_dense_on_random_geometries(data, kind, k):
    # many-chord circles hold near-double pairs, the hard case for a
    # single-vector Krylov space; every level is checked against dense eigh
    if kind == "broken_line":
        g = geo.make_broken_line(data.draw(st.floats(0.2, 1.3)), 3.2)
        h = 0.8
    else:
        center = (data.draw(st.floats(-0.2, 0.2)),
                  data.draw(st.floats(-0.2, 0.2)))
        g = geo.make_circle(data.draw(st.floats(0.6, 1.0)), center, 2.4,
                            data.draw(st.integers(16, 64)))
        h = 0.6
    n = len(g.segments)
    segs = st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)
    alpha = 4.0 * np.array(data.draw(segs))
    c = np.array(data.draw(segs))  # beta = c 4/alpha <= 4/alpha per segment
    mat = geo.MaterialData(alpha, c * 4.0 / alpha)
    forms = pipeline.assemble_levels(pipeline.mesh_levels(g, h, 1), mat)
    for which in (sa.DELTA, sa.DELTA_PRIME):
        for F, r in zip(forms, pipeline.cascade_solve(forms, which, k)):
            A, M = F.matrices(which)
            dense = sla.eigh(A.toarray(), M.toarray(), eigvals_only=True,
                             subset_by_index=[0, k])
            assert r.values.size == k
            assert np.abs(r.values - dense[:k]).max() <= 1e-9
            # the list holds every eigenvalue below its top
            top = r.values[-1] - 1e-9 * max(1.0, abs(r.values[-1]))
            assert (dense < top).sum() == (r.values < top).sum()


@pytest.fixture(scope="module")
def ringed_forms():
    g = geo.make_broken_line(math.pi / 4, 6.0)
    mat = geo.MaterialData.borderline(g, alpha=2.0)
    mesh = pipeline.mesh_levels(g, 0.6, 0, inner_rings=[3.0, 4.5])[0]
    forms = femforms.assemble(mesh, mat)
    return forms, pipeline.cascade_solve([forms], sa.DELTA, 2)[0]


def _solved_boxes(monkeypatch):
    boxes = []
    solve = pipeline.solve_restricted

    def recorded(forms, which, halfwidth, *args, **kwargs):
        boxes.append(halfwidth)
        return solve(forms, which, halfwidth, *args, **kwargs)

    monkeypatch.setattr(pipeline, "solve_restricted", recorded)
    return boxes


def test_full_box_row_is_the_full_solve(monkeypatch, ringed_forms):
    forms, full = ringed_forms
    plain = [pipeline.solve_restricted(forms, sa.DELTA, L, 2)[0].values
             for L in (3.0, 4.5, 6.0)]
    boxes = _solved_boxes(monkeypatch)
    study = sa.truncation_from_forms(forms, sa.DELTA, [3.0, 4.5, 6.0], 2,
                                     full)
    assert sorted(boxes) == [3.0, 4.5]
    assert np.array_equal(study.values[-1], full.values[:2])
    assert np.abs(study.values - plain).max() <= 1e-9


def test_box_that_leaves_out_dofs_is_solved(monkeypatch, ringed_forms):
    forms, full = ringed_forms
    pole = pipeline.truncation_shift(full.values)
    alone, keep = pipeline.solve_restricted(forms, sa.DELTA, 4.5, 2,
                                            pole=pole, start=full.vectors)
    assert keep.size < full.vectors.shape[0]
    boxes = _solved_boxes(monkeypatch)
    study = sa.truncation_from_forms(forms, sa.DELTA, [3.0, 4.5], 2, full)
    assert sorted(boxes) == [3.0, 4.5]
    assert np.array_equal(study.values[-1], alone.values[:2])


def test_verify_takes_the_full_box_rows_from_the_cascade(monkeypatch):
    g = geo.make_broken_line(math.pi / 4, 4.0)
    mat = geo.MaterialData.borderline(g, alpha=2.0)
    boxes = _solved_boxes(monkeypatch)
    run = sa.verify(g, mat, 0.8, refinements=2, halfwidths=[2.0, 4.0], k=2)
    assert boxes == [2.0, 2.0]  # the inner box, once per operator
    for study, res in zip(run.truncation, run.finest):
        assert np.array_equal(study.values[-1], res.values[:2])


@pytest.mark.parametrize("where, names", [
    ("level", "delta_prime level 1 to .* on delta_prime level 2"),
    ("box", "the delta box 2.0 to .* on the delta box 3.0")])
def test_verify_refuses_a_value_that_rises(monkeypatch, where, names):
    # refinement and box growth nest the spaces, so every value falls; one
    # solve returning a value 1e-6 above its coarser level's (the finest
    # delta-prime pencil) or its smaller box's (the delta box 3) is a
    # solver fault, not a verdict
    import dataclasses

    g = geo.make_broken_line(math.pi / 4, 4.0)
    mat = geo.MaterialData.borderline(g, alpha=2.0)
    cascade, restricted = pipeline.cascade_solve, pipeline.solve_restricted
    boxes = {}

    def raised(res, above):
        values = res.values.copy()
        values[0] = above + 1e-6
        return dataclasses.replace(res, values=values)

    def cascade_raised(forms_list, which, k, **kwargs):
        results = cascade(forms_list, which, k, **kwargs)
        if which == sa.DELTA_PRIME and len(results) == 3:
            results[-1] = raised(results[-1], results[-2].values[0])
        return results

    def restricted_raised(forms, which, halfwidth, k, **kwargs):
        res, keep = restricted(forms, which, halfwidth, k, **kwargs)
        boxes[which, halfwidth] = res.values[0]
        if (which, halfwidth) == (sa.DELTA, 3.0):
            res = raised(res, boxes[which, 2.0])
        return res, keep

    if where == "level":
        monkeypatch.setattr(pipeline, "cascade_solve", cascade_raised)
    else:
        monkeypatch.setattr(pipeline, "solve_restricted", restricted_raised)
    with pytest.raises(ConsistencyError, match=f"lambda_1 rose .* {names}"):
        sa.verify(g, mat, 0.8, refinements=2, halfwidths=[2.0, 3.0, 4.0],
                  k=2)
    monkeypatch.undo()
    sa.verify(g, mat, 0.8, refinements=2, halfwidths=[2.0, 3.0, 4.0], k=2)


def _boxed_broken_line(beta):
    g = geo.make_broken_line(math.pi / 4, 4.0)
    return g, geo.MaterialData.constant(g, alpha=2.0, beta=beta)


def test_delta_prime_poles_come_from_the_delta_lists(monkeypatch):
    # beta <= 4/alpha: on one mesh and on each box of it the delta list's
    # pole above lies above the delta-prime list of the same length, so
    # the coarsest delta-prime pencil and each delta-prime box take one
    # factorization there, and only the coarsest delta pencil searches
    g, mat = _boxed_broken_line(2.0)
    searched = []
    lower_shift = eigensolver.lower_shift

    def counted(A, M):
        searched.append(A.shape[0])
        return lower_shift(A, M)

    monkeypatch.setattr(eigensolver, "lower_shift", counted)
    poles = _factored_poles(monkeypatch)
    forms, res_d, res_p, (study_d, _) = sa.solve_levels(
        g, mat, 0.8, 2, [2.5, 4.0], k=2, t_idx=1)
    assert searched == [forms[0].matrices(sa.DELTA)[0].shape[0]]
    n0 = forms[0].matrices(sa.DELTA_PRIME)[0].shape[0]
    pole = pipeline.pole_above(res_d[0].values)
    assert res_p[0].shift_used == pole
    assert [mu for size, mu in poles if size == n0] == [pole]
    n = pipeline.interior_dofs(forms[1], sa.DELTA_PRIME, 2.5).size
    assert [mu for size, mu in poles if size == n] == [
        pipeline.pole_above(study_d.values[0])]


def test_refused_delta_pole_falls_back_to_the_search(monkeypatch):
    # beta = 4 > 4/alpha: the form comparison fails, and on the 2.5 box
    # the delta list's pole lies below the second delta-prime eigenvalue;
    # that pole is refused and the box falls back to the shift search,
    # with the values of the solves that never took a delta pole
    g, mat = _boxed_broken_line(4.0)
    refused = []
    solve = pipeline.smallest_eigenpairs

    def spied(A, M, k, pole=None, **kwargs):
        try:
            return solve(A, M, k, pole=pole, **kwargs)
        except SolverError:
            refused.append(A.shape[0])
            raise

    monkeypatch.setattr(pipeline, "smallest_eigenpairs", spied)
    forms, _, res_p, (_, study) = sa.solve_levels(
        g, mat, 0.8, 2, [2.5, 4.0], k=2, t_idx=1)
    assert refused == [
        pipeline.interior_dofs(forms[1], sa.DELTA_PRIME, 2.5).size]
    monkeypatch.undo()
    ref = pipeline.cascade_solve(forms, sa.DELTA_PRIME, 2)
    box = pipeline.solve_restricted(forms[1], sa.DELTA_PRIME, 2.5, 2)[0]
    got = [r.values for r in res_p] + [study.values]
    want = [r.values for r in ref] + [np.array([box.values[:2],
                                                ref[1].values[:2]])]
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
