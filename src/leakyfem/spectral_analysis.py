"""Operator-level spectral quantities and their verification.

Turns raw eigenpairs into: essential-spectrum thresholds (table lookup
for the catalog geometries), eigenvalue counting functions read off the
certified eigenvalue lists, the graded eigenvalue-comparison report,
Richardson extrapolation over nested mesh families, box-truncation
studies that are monotone by construction, `solve_levels`, the cascaded
solves of both operators on a nested mesh family, and `verify`, the
whole verification run for one geometry and material.

Given a second thread, `solve_levels` runs three tasks on a worker: the
coarser levels' assembly and delta cascade, their delta-prime cascade,
and the finest delta-prime solve.  Meanwhile the calling thread
assembles the finest level, solves its delta pencil and then runs the
truncation studies, so the two finest factors, a run's largest
allocations (eigensolver._factor), may be alive together.  Results and
errors are those of a serial run.

The comparison verdicts are deliberately conservative: a pair is graded
"strict" only when the observed gap exceeds the combined numerical error
budget (Richardson estimate + truncation delta + solver tolerance);
eigenvalues closer than a clustering tolerance are compared cluster-wise
because their internal ordering carries no information.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import femforms, pipeline
from .eigensolver import DEFAULT_SEED, DEFAULT_TOL, EigenResult, inertia_count
from .errors import ConsistencyError, DomainError, TheoremViolation
from .geometry import CIRCLE, CONE_MERIDIAN, InterfaceGeometry, MaterialData

DELTA = femforms.DELTA
DELTA_PRIME = femforms.DELTA_PRIME

CLUSTER_TOL = 1e-8
HARD_TOL = 1e-9
STAB_TOL = 1e-6   # a truncation delta below it counts as stabilized


@dataclass(frozen=True)
class ThresholdInfo:
    """Bottom of the essential spectrum for one operator and geometry."""

    operator: str
    geometry_kind: str
    value: float
    note: str
    conjectured: bool = False

    def as_dict(self):
        return {"operator": self.operator, "geometry": self.geometry_kind,
                "value": self.value, "note": self.note,
                "conjectured": self.conjectured}


def _constant_unbounded_strength(geometry, values, name):
    idx = [i for i, s in enumerate(geometry.segments) if s.unbounded]
    vals = np.asarray(values)[idx]
    if np.ptp(vals) > 1e-14 * max(1.0, abs(float(vals.mean()))):
        raise DomainError(
            f"threshold unknown: {name} is not constant on the unbounded "
            "part of the interface")
    return float(vals[0])


def essential_threshold(geometry: InterfaceGeometry, material: MaterialData,
                        kind: str) -> ThresholdInfo:
    """Bottom of the essential spectrum of the truncation-free operator.

    Compact interfaces give 0.  For interfaces with straight unbounded
    branches and constant strength there, the transverse point model
    gives -alpha^2/4 (delta) and -4/beta^2 (delta-prime); the delta-prime
    value on the cone is only expected, not proved, and is flagged so.
    """
    if kind not in (DELTA, DELTA_PRIME):
        raise DomainError(f"unknown operator kind {kind!r}")
    if geometry.kind == CIRCLE:
        return ThresholdInfo(kind, geometry.kind, 0.0,
                             "compact interface: essential spectrum [0, inf)")
    if kind == DELTA:
        a = _constant_unbounded_strength(geometry, material.alpha, "alpha")
        return ThresholdInfo(kind, geometry.kind, -0.25 * a * a,
                             "transverse point model bottom -alpha^2/4")
    b = _constant_unbounded_strength(geometry, material.beta, "beta")
    value = -4.0 / (b * b)
    if geometry.kind == CONE_MERIDIAN:
        return ThresholdInfo(kind, geometry.kind, value,
                             "conjectured bottom -4/beta^2 (cone)",
                             conjectured=True)
    return ThresholdInfo(kind, geometry.kind, value,
                         "transverse point model bottom -4/beta^2")


@dataclass(frozen=True)
class CountingRow:
    mu: float
    n_delta: int
    n_deltaprime: int

    def as_dict(self):
        return {"mu": self.mu, "N_delta": self.n_delta,
                "N_deltaprime": self.n_deltaprime}


def counting(eigs: EigenResult, mu: float, A, M,
             threshold: ThresholdInfo) -> int:
    """Number of pencil eigenvalues <= mu, from the inertia of A - mu M,
    checked against the certified list eigs, which holds every eigenvalue
    below its top.  ConsistencyError when the list holds more values <= mu
    than the pencil has, or when it reaches mu and misses one; a list
    that stops below mu may hold fewer.  mu must lie strictly below the
    essential-spectrum threshold."""
    if not mu < threshold.value:
        raise DomainError(
            f"level {mu} is not below the threshold {threshold.value}")
    got = int(np.sum(eigs.values <= mu))
    exact = inertia_count(A, M, mu)
    if got > exact or (got < exact and np.any(eigs.values >= mu)):
        raise ConsistencyError(
            f"counting mismatch at mu={mu}: {got} computed vs "
            f"{exact} from inertia")
    return exact


def counting_table(forms, res_delta: EigenResult, res_deltaprime: EigenResult,
                   thr_delta: ThresholdInfo, thr_deltaprime: ThresholdInfo):
    """Counting functions of both operators at the midpoints between
    consecutive computed eigenvalues below both thresholds, 1e-8 or more
    from every computed value, read off the lists: a certified list holds
    every eigenvalue below its top (smallest_eigenpairs certifies it by an
    inertia count at a level above that top).  A list whose
    top lies below the highest level is counted there once (`counting`):
    a count equal to its size certifies every lower row, and a larger one
    drops the levels from that top up.  ConsistencyError if N' < N."""
    thr = min(thr_delta.value, thr_deltaprime.value)
    lists = (res_delta.values, res_deltaprime.values)
    below = np.unique(np.concatenate([v[v < thr] for v in lists]))
    all_vals = np.concatenate(lists)
    levels = [mu for mu in 0.5 * (below[:-1] + below[1:])
              if np.min(np.abs(all_vals - mu)) >= 1e-8]
    for which, res, t in ((DELTA, res_delta, thr_delta),
                          (DELTA_PRIME, res_deltaprime, thr_deltaprime)):
        if levels and np.all(res.values < levels[-1]):
            if counting(res, levels[-1], *forms.matrices(which),
                        t) > res.values.size:
                levels = [mu for mu in levels if np.any(res.values > mu)]
    rows = []
    for mu in levels:
        n_d, n_p = (int(np.sum(v <= mu)) for v in lists)
        if n_p < n_d:
            raise ConsistencyError(
                f"counting functions out of order at mu={mu}: "
                f"N_deltaprime={n_p} < N_delta={n_d}")
        rows.append(CountingRow(mu=float(mu), n_delta=n_d, n_deltaprime=n_p))
    return rows


@dataclass(frozen=True)
class PairVerdict:
    n: int                  # 1-based eigenvalue index
    lambda_delta: float
    lambda_deltaprime: float
    gap: float
    error: float
    verdict: str            # "strict" | "indistinguishable" | "violated"

    def as_dict(self):
        return {"n": self.n, "lambda_delta": self.lambda_delta,
                "lambda_deltaprime": self.lambda_deltaprime,
                "gap": self.gap, "error": self.error, "verdict": self.verdict}


@dataclass(frozen=True)
class TheoremAReport:
    pairs: tuple
    thresholds: tuple
    verdict: str              # "strict" | "indistinguishable" | "violated"
    counting: tuple = ()
    convergence: dict = field(default_factory=dict)

    def as_dict(self):
        return {"pairs": [p.as_dict() for p in self.pairs],
                "thresholds": [t.as_dict() for t in self.thresholds],
                "counting": [c.as_dict() for c in self.counting],
                "convergence": self.convergence}


def _clusters(values, tol):
    """Index range (start, end) of the cluster of each eigenvalue; a value
    within tol of its neighbor shares the neighbor's cluster."""
    starts = [0] + [i for i in range(1, len(values))
                    if values[i] - values[i - 1] > tol]
    ends = starts[1:] + [len(values)]
    return {i: (s, e) for s, e in zip(starts, ends) for i in range(s, e)}


def _out_of_order(vd, vp):
    """0-based indices n, over the shorter list, where the non-strict
    ordering lambda_n(delta-prime) <= lambda_n(delta) fails by more than
    HARD_TOL."""
    n = min(vd.size, vp.size)
    return np.flatnonzero(vp[:n] > vd[:n] + HARD_TOL).tolist()


def _check_falls(lists, names):
    """ConsistencyError when a list's lambda_n lies above the one before
    it by more than HARD_TOL * max(1, |lambda_n|).  The lists come from
    nested spaces, coarse to fine or small box to large, so by min-max
    each value can only fall; a rise is a solver fault."""
    for j in range(1, len(lists)):
        before, after = lists[j - 1], lists[j]
        n = min(before.size, after.size)
        bad = np.flatnonzero(after[:n] - before[:n] > HARD_TOL * np.maximum(
            1.0, np.abs(before[:n])))
        if bad.size:
            i = int(bad[0])
            raise ConsistencyError(
                f"lambda_{i + 1} rose from {float(before[i])!r} on "
                f"{names[j - 1]} to {float(after[i])!r} on {names[j]}, "
                "a space containing it")


def verify_theoremA(res_delta: EigenResult, res_deltaprime: EigenResult,
                    thresholds, errors, counting=(),
                    convergence=None) -> TheoremAReport:
    """Grade the eigenvalue comparison between the two operators.

    Pairs every n with lambda_n(delta) below the delta-prime threshold.
    The non-strict discrete inequality lambda_n(delta-prime) <=
    lambda_n(delta) must hold for every computed n up to 1e-9 (it is a
    matrix-level consequence of the form comparison), so a failure there
    makes the pair, and the run's verdict, "violated": it points at an
    assembly bug rather than at spectral information.  Nothing is raised.

    errors: per-n numerical error budget (scalar or array); a pair is
    "strict" only when the cluster-wise gap exceeds its budget, and the
    run is "strict" when it has pairs and all of them are.  counting and
    convergence are stored in the report as given.
    """
    thr_d, thr_p = thresholds
    vd = res_delta.values
    vp = res_deltaprime.values
    ncmp = min(vd.size, vp.size)
    errors = np.broadcast_to(np.asarray(errors, dtype=float), (ncmp,))

    bad = _out_of_order(vd, vp)
    scale = max(1.0, float(np.max(np.abs(vd[:ncmp]))) if ncmp else 1.0)
    cd = _clusters(vd[:ncmp], CLUSTER_TOL * scale)
    cp = _clusters(vp[:ncmp], CLUSTER_TOL * scale)

    pairs = []
    for i in range(ncmp):
        if not vd[i] < thr_p.value:
            continue
        if i in bad:
            verdict = "violated"
            gap = float(vd[i] - vp[i])
        else:
            s_d, e_d = cd[i]
            s_p, e_p = cp[i]
            gap = float(vd[i] - vp[i])
            eff_gap = float(vd[s_d] - vp[e_p - 1])  # cluster-wise worst case
            verdict = "strict" if eff_gap > errors[i] else "indistinguishable"
        pairs.append(PairVerdict(n=i + 1, lambda_delta=float(vd[i]),
                                 lambda_deltaprime=float(vp[i]), gap=gap,
                                 error=float(errors[i]), verdict=verdict))
    if bad:
        verdict = "violated"
    elif pairs and all(p.verdict == "strict" for p in pairs):
        verdict = "strict"
    else:
        verdict = "indistinguishable"
    return TheoremAReport(pairs=tuple(pairs), thresholds=(thr_d, thr_p),
                          verdict=verdict, counting=tuple(counting),
                          convergence=convergence or {})


def richardson(v_h: float, v_h2: float, v_h4: float):
    """Observed order, limit, and error estimate from three nested levels.

    Returns (limit, order, error).  A non-monotone triple gives order NaN
    with the conservative error |v_h - v_h4|.
    """
    d1 = v_h - v_h2
    d2 = v_h2 - v_h4
    if d2 == 0.0 and d1 == 0.0:
        return v_h4, float("nan"), 0.0
    if d2 == 0.0 or d1 * d2 <= 0.0:
        return v_h4, float("nan"), abs(v_h - v_h4)
    order = math.log2(d1 / d2)
    if order <= 0:
        return v_h4, float("nan"), abs(v_h - v_h4)
    limit = v_h4 - d2 / (2.0 ** order - 1.0)
    return limit, order, abs(v_h4 - limit)


def convergence_study(results):
    """Per-eigenvalue Richardson data over the last three refinement levels.

    results: list of EigenResult on nested meshes, coarse to fine.
    Returns {"order": [...], "limit": [...], "error": [...]}.
    """
    if len(results) < 3:
        raise DomainError("need at least three refinement levels")
    r1, r2, r3 = results[-3], results[-2], results[-1]
    k = min(r1.values.size, r2.values.size, r3.values.size)
    orders, limits, errors = [], [], []
    for i in range(k):
        limit, order, err = richardson(r1.values[i], r2.values[i],
                                       r3.values[i])
        orders.append(order)
        limits.append(float(limit))  # a plain float, so %r writes a number
        errors.append(float(err))
    return {"order": orders, "limit": limits, "error": errors}


@dataclass(frozen=True)
class TruncationStudy:
    operator: str
    halfwidths: tuple
    values: np.ndarray        # (n_L, k) eigenvalues per box size
    deltas: np.ndarray        # (n_L - 1, k) successive |differences|
    stabilized: np.ndarray    # (k,) per-eigenvalue flag
    tolerance: float

    def as_dict(self):
        return {"operator": self.operator,
                "halfwidths": list(self.halfwidths),
                "values": self.values.tolist(),
                "deltas": self.deltas.tolist(),
                "stabilized": self.stabilized.tolist(),
                "tolerance": self.tolerance}


def _box_halfwidths(geometry: InterfaceGeometry, halfwidths):
    """Truncation box halfwidths, sorted and deduplicated.  There must be
    at least two, and the largest must be the geometry's own box."""
    halfwidths = sorted(set(float(L) for L in halfwidths))
    if len(halfwidths) < 2:
        raise DomainError("need at least two box halfwidths")
    if abs(geometry.halfwidth - halfwidths[-1]) > 1e-12 * halfwidths[-1]:
        raise DomainError("geometry must be built at the largest halfwidth")
    return halfwidths


def _check_boxes(mesh, halfwidths, k):
    """DomainError when the smallest box holds fewer than k nodes of the
    mesh; otherwise each box's pencils, a dof or more per node, hold k."""
    L = halfwidths[0]
    n = int(pipeline.box_nodes(mesh, L).sum())
    if n < k:
        raise DomainError(f"the box of halfwidth {L} holds {n} nodes of the "
                          f"truncation level's mesh, fewer than k = {k}")


def truncation_study(geometry: InterfaceGeometry, material: MaterialData,
                     halfwidths, h: float, refinements: int = 1, k: int = 4,
                     tol: float = DEFAULT_TOL,
                     seed: int = DEFAULT_SEED) -> tuple:
    """Eigenvalues of both operators for a family of growing boxes,
    nested by construction: the (delta, delta-prime) TruncationStudy
    pair of `solve_levels` on its finest level, the pair that `verify`
    reports for the same truncation level.

    The geometry must be built at the largest halfwidth; the smaller
    boxes are constrained into one master mesh as interior rings and
    realized by pinning all dofs outside them, so the discrete spaces are
    genuinely nested and the eigenvalues decrease monotonically in L.
    Bound states below the threshold decay exponentially, so successive
    deltas shrink geometrically once the box dominates the decay length.
    DomainError before assembly when a box holds fewer than k nodes.
    Each delta-prime box is solved at the pole above the delta row of the
    same box (truncation_from_forms).
    """
    return solve_levels(geometry, material, h, refinements, halfwidths, k,
                        tol, seed, t_idx=refinements)[3]


def truncation_from_forms(forms, which: str, halfwidths, k: int,
                          full: EigenResult, tol: float = DEFAULT_TOL,
                          seed: int = DEFAULT_SEED,
                          above=None) -> TruncationStudy:
    """Truncation study on an already assembled master mesh whose inner
    boxes were constrained in as rings.  The halfwidths come in sorted
    and distinct (_box_halfwidths).

    full is the result of the full pencil on this mesh (the cascade's).
    When the largest box keeps every dof its row is full's values, with
    no new solve; otherwise that box is solved like the rest.  A delta
    box is solved at the pole pipeline.truncation_shift of full: by
    min-max the eigenvalues of a restricted pencil are no smaller than
    the full pencil's.  A delta-prime box always takes the delta row of
    the same box: above holds the delta study's rows, and each box is
    solved at pipeline.pole_above of its row (see pipeline).  Each box
    starts Lanczos from full's eigenvectors on its dofs.  Every box
    holds k nodes (_check_boxes).
    """
    ndof = full.vectors.shape[0]
    poles = ([pipeline.pole_above(v) for v in above] if which == DELTA_PRIME
             else [pipeline.truncation_shift(full.values)] * len(halfwidths))
    values = []
    for L, pole in zip(halfwidths, poles):
        if (L == halfwidths[-1]
                and pipeline.interior_dofs(forms, which, L).size == ndof):
            res = full
        else:
            res, _ = pipeline.solve_restricted(forms, which, L, k, tol=tol,
                                               seed=seed, pole=pole,
                                               start=full.vectors)
        values.append(res.values[:k])
    vals = np.asarray(values)
    deltas = np.abs(np.diff(vals, axis=0))
    stabilized = deltas[-1] < STAB_TOL if deltas.size else np.zeros(k, bool)
    return TruncationStudy(operator=which, halfwidths=tuple(halfwidths),
                           values=vals, deltas=deltas, stabilized=stabilized,
                           tolerance=STAB_TOL)


@dataclass(frozen=True)
class VerificationRun:
    """Outcome of `verify`; no mesh or form outlives the run."""

    report: TheoremAReport    # verdict, graded pairs, counting, convergence
    truncation: tuple         # (delta, delta-prime) TruncationStudy, or ()
    finest: tuple             # (delta, delta-prime) EigenResult, finest level
    nodes_finest: int


class _Inline:
    """The worker of a one-thread run: each task runs on the calling
    thread as it is submitted, and its result or error waits in its
    future, as a worker thread's would."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, cancel_futures=False):
        pass


def solve_levels(geometry: InterfaceGeometry, material: MaterialData,
                 h: float, refinements: int, halfwidths=None, k: int = 4,
                 tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED,
                 t_idx: int | None = None, second_thread: bool = False):
    """Both operators on a coarse mesh and `refinements` >= 1 nested red
    refinements of it, with the inner boxes constrained in as rings when
    box halfwidths are given, and the truncation studies on level t_idx
    when it is given (with the halfwidths).  DomainError before meshing
    when refinements < 1, and before assembly when k exceeds the
    coarsest level's free nodes (its continuous dofs) or a box's nodes on
    level t_idx: each pair is graded on k values of every level and box.

    A worker (a second thread with second_thread, else _Inline) runs
    three tasks, each on the result of the one before: assemble the
    coarser levels and cascade delta over them, cascade delta-prime over
    those forms from pole_above of the coarsest delta list, and solve the
    finest delta-prime pencil, submitted once the calling thread has
    assembled the finest level.  The calling thread then solves the
    finest delta pencil after the first task, and runs the truncation
    studies of level t_idx, delta first for the delta-prime box poles: on
    a coarser level after the second task, on the finest after the third.
    So with a second thread at most two finest-level factors are alive at
    a time, and without one at most one.  Every solve gets the inputs of
    a serial run, and errors surface in the order the calling thread
    reads them: coarse delta, finest delta, coarse delta-prime, finest
    delta-prime, truncation.  Tasks not started by the end are cancelled.
    The results do not depend on second_thread.

    Returns (forms, delta results, delta-prime results, studies): one
    form and one result per level, coarse to fine, and the (delta,
    delta-prime) TruncationStudy, or () without t_idx.
    """
    if refinements < 1:
        raise DomainError("need at least one refinement")
    if halfwidths is not None:
        halfwidths = _box_halfwidths(geometry, halfwidths)
    rings = halfwidths[:-1] if halfwidths else None
    meshes = pipeline.mesh_levels(geometry, h, refinements, inner_rings=rings)
    ndof = meshes[0].num_nodes - meshes[0].boundary_nodes.size
    if k > ndof:
        raise DomainError(f"k = {k} exceeds the {ndof} continuous dofs of "
                          "the coarsest level")
    if t_idx is not None:
        _check_boxes(meshes[t_idx], halfwidths, k)

    def cascade(forms, which, results=None, pole=None):
        return pipeline.cascade_solve(forms, which, k, tol=tol, seed=seed,
                                      results=results, pole=pole)

    def studies(forms, res_d, res_p):
        study_d = truncation_from_forms(forms[t_idx], DELTA, halfwidths, k,
                                        res_d[t_idx], tol=tol, seed=seed)
        return study_d, truncation_from_forms(
            forms[t_idx], DELTA_PRIME, halfwidths, k, res_p[t_idx], tol=tol,
            seed=seed, above=study_d.values)

    def coarse_delta():
        forms = pipeline.assemble_levels(meshes[:-1], material)
        return forms, cascade(forms, DELTA)

    def coarse_prime(task_d):
        forms, res_d = task_d.result()
        return cascade(forms, DELTA_PRIME,
                       pole=pipeline.pole_above(res_d[0].values))

    def coarse_studies(task_d, task_p):
        return studies(*task_d.result(), task_p.result())

    def finest_prime(task_d, task_p, finest):
        return cascade(task_d.result()[0] + [finest], DELTA_PRIME,
                       task_p.result())

    worker = (ThreadPoolExecutor(1, thread_name_prefix="leakyfem-levels")
              if second_thread else _Inline())
    try:
        task_d = worker.submit(coarse_delta)
        task_p = worker.submit(coarse_prime, task_d)
        finest = femforms.assemble(meshes[-1], material)
        task_fp = worker.submit(finest_prime, task_d, task_p, finest)
        forms, res_d = task_d.result()
        forms = forms + [finest]  # the delta-prime task reads the old list
        cascade(forms, DELTA, res_d)
        task_t = (_Inline().submit(coarse_studies, task_d, task_p)
                  if t_idx is not None and t_idx < refinements else None)
        res_p = task_fp.result()
        trunc = task_t.result() if task_t else ()
        if t_idx == refinements:
            trunc = studies(forms, res_d, res_p)
    finally:
        worker.shutdown(cancel_futures=True)
    return forms, res_d, res_p, trunc


def verify(geometry: InterfaceGeometry, material: MaterialData, h: float,
           refinements: int = 2, halfwidths=None,
           truncation_refinements: int | None = None, k: int = 4,
           tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED,
           second_thread: bool = False) -> VerificationRun:
    """Verification run: both operators on `refinements` >= 2 nested
    levels, the non-strict ordering required on each coarser one, a
    truncation study on level `truncation_refinements` (default: the
    finest; DomainError outside 0..refinements) when box halfwidths are
    given, and the finest level graded against the budget Richardson
    errors + final truncation deltas + 20 tol, with a counting table
    unless the ordering fails there.  A finest-level failure is the
    graded verdict "violated" in the returned report; a coarser one
    raises TheoremViolation.  A value that rises from a coarser level
    to a finer one, or from a smaller box to a larger one, beyond
    HARD_TOL * max(1, |lambda|) raises ConsistencyError before any
    grading: the spaces are nested, so only a solver fault can raise it.
    second_thread runs the coarser levels and the finest delta-prime
    solve on a second thread (solve_levels); the run does not depend on
    it.  The hypothesis beta <= 4/alpha is
    the caller's to check.
    """
    thr_d = essential_threshold(geometry, material, DELTA)
    thr_p = essential_threshold(geometry, material, DELTA_PRIME)
    t_idx = None
    if halfwidths:
        t_idx = (refinements if truncation_refinements is None
                 else truncation_refinements)
        if not 0 <= t_idx <= refinements:
            raise DomainError(f"truncation level {t_idx} is not one of the "
                              f"levels 0..{refinements}")
    forms, res_d, res_p, trunc = solve_levels(
        geometry, material, h, refinements, halfwidths, k, tol, seed, t_idx,
        second_thread)
    for which, results in ((DELTA, res_d), (DELTA_PRIME, res_p)):
        _check_falls([r.values for r in results],
                     [f"{which} level {j}" for j in range(len(results))])
    for study in trunc:
        _check_falls(list(study.values), [f"the {study.operator} box {L}"
                                          for L in study.halfwidths])

    # the non-strict comparison must hold on every coarser level; the
    # finest is graded below, where a violation is a verdict
    *coarse, finest = [_out_of_order(rd.values, rp.values)
                       for rd, rp in zip(res_d, res_p)]
    if any(coarse):
        raise TheoremViolation(
            "discrete eigenvalue comparison failed on a coarse level")

    conv_d = convergence_study(res_d)
    conv_p = convergence_study(res_p)
    budget = np.asarray(conv_d["error"]) + np.asarray(conv_p["error"])
    for study in trunc:  # two or more boxes, so at least one row of deltas
        budget += study.deltas[-1]
    budget += 20.0 * tol

    # a violated pair breaks the order N' >= N that the table checks
    rows = () if finest else counting_table(forms[-1], res_d[-1], res_p[-1],
                                            thr_d, thr_p)
    report = verify_theoremA(res_d[-1], res_p[-1], (thr_d, thr_p), budget,
                             counting=rows, convergence={
        "order": conv_d["order"], "limits": conv_d["limit"],
        "delta_prime": {"order": conv_p["order"], "limits": conv_p["limit"]}})
    return VerificationRun(report=report, truncation=trunc,
                           finest=(res_d[-1], res_p[-1]),
                           nodes_finest=int(forms[-1].mesh.num_nodes))
