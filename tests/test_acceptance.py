"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s or -v to see them).

The heavy verification runs are shared module-scoped fixtures; every
tolerance is fixed here, nothing is calibrated at runtime.
"""

import json
import math

import numpy as np
import pytest

import forms_reference as ref
from leakyfem import cli, eigensolver, femforms, geometry as geo, meshing
from leakyfem import oracles, pipeline
from leakyfem import spectral_analysis as sa
from leakyfem.eigensolver import inertia_count

RNG_SEED = 20250809
SPLU_CALLS = {}  # sparse factorizations per shared verification run


def _report(line):
    print("\n[acceptance] " + line)


# -- shared runs ---------------------------------------------------------------


def _counted_run(name, cfg):
    """cli.run_solve, recording its sparse factorizations in SPLU_CALLS."""
    calls = []
    splu = eigensolver.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolver, "splu", counted)
        out = cli.run_solve(cfg)
    SPLU_CALLS[name] = len(calls)
    return out


@pytest.fixture(scope="module")
def circle_strict_doc():
    # circle, alpha constant, beta = 4/alpha on one half and 20% below on
    # the other: the comparison hypothesis holds on an open subset
    cfg = {
        "geometry": {"kind": "circle", "radius": 1.0, "halfwidth": 3.5,
                     "n_chords": 64},
        "material": {"alpha": 5.0,
                     "beta": {"default": 0.8,
                              "overrides": [{"segments": list(range(32)),
                                             "value": 0.64}]}},
        "discretization": {"h": 0.15, "refinements": 2,
                           "box_halfwidths": [2.5, 3.5],
                           "truncation_refinements": 1},
        "solver": {"k": 5, "tol": 1e-9},
    }
    return _counted_run("circle_strict", cfg)


@pytest.fixture(scope="module")
def borderline_doc():
    # broken line at the borderline beta = 4/alpha, truncation-stabilized
    cfg = {
        "geometry": {"kind": "broken_line", "theta": math.pi / 4,
                     "halfwidth": 12.0},
        "material": {"alpha": 2.0, "beta": 2.0},
        "discretization": {"h": 0.5, "refinements": 2,
                           "box_halfwidths": [6.0, 9.0, 12.0],
                           "truncation_refinements": 1},
        "solver": {"k": 2, "tol": 1e-9},
    }
    return _counted_run("borderline", cfg)


@pytest.fixture(scope="module")
def circle_convergence():
    # three nested meshes at h = 0.1, 0.05, 0.025 for the circle problem
    g = geo.make_circle(1.0, (0.0, 0.0), 3.5, 384)
    mat = geo.MaterialData.constant(g, alpha=5.0, beta=0.8)
    meshes = pipeline.mesh_levels(g, 0.1, 2)
    forms = pipeline.assemble_levels(meshes, mat)
    res = pipeline.cascade_solve(forms, sa.DELTA, 1)
    return g, mat, forms, res


def _node_values(dofmap, X, side):
    nd = dofmap.node_dof1 if side == 1 else dofmap.node_dof2
    vals = np.zeros((nd.shape[0], X.shape[1]))
    ok = nd >= 0
    vals[ok] = X[nd[ok]]
    return vals


# -- criterion 1: form inequality suite ----------------------------------------


@pytest.mark.parametrize("case", ["broken_line", "circle"])
def test_criterion_1_form_inequality(case):
    if case == "broken_line":
        g = geo.make_broken_line(math.pi / 4, 6.0)
        mesh = meshing.triangulate(g, 0.2)
    else:
        g = geo.make_circle(1.0, (0.0, 0.0), 4.0, 64)
        mesh = meshing.triangulate(g, 0.25)
    alpha = 2.0
    rng = np.random.default_rng(RNG_SEED)
    nseg = len(g.segments)
    beta_seg = (4.0 / alpha) * rng.uniform(0.3, 0.95, size=nseg)
    mat = geo.MaterialData(np.full(nseg, alpha), beta_seg)
    F = femforms.assemble(mesh, mat)
    Fb = femforms.assemble(mesh, geo.MaterialData.borderline(g, alpha))

    n = F.continuous.ndof
    X = rng.standard_normal((n, 1000))
    a_d = (np.einsum("ij,ij->j", X, F.K_cont @ X)
           - np.einsum("ij,ij->j", X, F.T_alpha @ X))
    W = ref.flipped_embedding(F, X)
    a_p = (np.einsum("ij,ij->j", W, F.K_brok @ W)
           - np.einsum("ij,ij->j", W, F.J_beta @ W))
    scale = np.abs(a_d) + np.einsum("ij,ij->j", X, X)

    # inequality, and the gap recomputed edge by edge from the traces
    assert np.all(a_p <= a_d + 1e-10 * scale)
    vals = _node_values(F.continuous, X, 1)
    e = mesh.iface_edges
    ell = mesh.edge_lengths()
    coeff = 4.0 / beta_seg[mesh.iface_seg] - alpha
    t1 = vals[e[:, 0]]
    t2 = vals[e[:, 1]]
    gap_indep = ((coeff * ell / 3.0)[:, None]
                 * (t1 * t1 + t1 * t2 + t2 * t2)).sum(axis=0)
    gap_mat = a_d - a_p
    rel = np.abs(gap_mat - gap_indep) / gap_indep
    assert np.all(rel <= 1e-10)

    # borderline: the same construction collapses the gap to rounding level
    a_db = (np.einsum("ij,ij->j", X, Fb.K_cont @ X)
            - np.einsum("ij,ij->j", X, Fb.T_alpha @ X))
    Wb = ref.flipped_embedding(Fb, X)
    a_pb = (np.einsum("ij,ij->j", Wb, Fb.K_brok @ Wb)
            - np.einsum("ij,ij->j", Wb, Fb.J_beta @ Wb))
    scale_b = np.abs(a_db) + np.einsum("ij,ij->j", X, X)
    assert np.all(np.abs(a_db - a_pb) <= 1e-12 * scale_b)
    _report(f"criterion 1 PASS ({case}): 1000 vectors, max rel gap error "
            f"{rel.max():.2e}, borderline residual "
            f"{np.max(np.abs(a_db - a_pb) / scale_b):.2e}")


# -- criterion 2: discrete eigenvalue comparison --------------------------------


def test_criterion_2_eigenvalue_comparison(circle_strict_doc, borderline_doc):
    # the runner hard-fails on any level if the comparison breaks; assert
    # the reported pairs and one dedicated solve explicitly
    for doc, _ in (circle_strict_doc, borderline_doc):
        for p in doc["pairs"]:
            assert p["lambda_deltaprime"] <= p["lambda_delta"] + 1e-9
    g = geo.make_broken_line(math.pi / 4, 5.0)
    mesh = meshing.triangulate(g, 0.4)
    mat = geo.MaterialData(np.array([2.0, 2.0]), np.array([2.0, 1.2]))
    F = femforms.assemble(mesh, mat)
    rd = pipeline.solve_pencil(*F.matrices(femforms.DELTA), k=4)
    rp = pipeline.solve_pencil(*F.matrices(femforms.DELTA_PRIME), k=4)
    assert np.all(rp.values <= rd.values + 1e-9)
    _report("criterion 2 PASS: lambda_n(delta') <= lambda_n(delta) + 1e-9 "
            "for all computed n in every solve")


# -- criterion 3: threshold reproduction ----------------------------------------


def test_criterion_3_thresholds(circle_strict_doc, borderline_doc):
    gb = geo.make_broken_line(math.pi / 4, 6.0)
    glc = geo.make_line_plus_circle(3.0, 1.0, 12.0, 32)
    gc = geo.make_circle(1.0, (0.0, 0.0), 4.0, 32)
    for alpha in (1.0, 2.0, 5.0):
        beta = 4.0 / alpha
        for g in (gb, glc):
            m = geo.MaterialData.constant(g, alpha, beta)
            assert sa.essential_threshold(g, m, sa.DELTA).value \
                == -alpha * alpha / 4.0
            assert sa.essential_threshold(g, m, sa.DELTA_PRIME).value \
                == -4.0 / (beta * beta)
        m = geo.MaterialData.constant(gc, alpha, beta)
        assert sa.essential_threshold(gc, m, sa.DELTA).value == 0.0
        assert sa.essential_threshold(gc, m, sa.DELTA_PRIME).value == 0.0

    # computed bound states lie strictly below the applicable threshold
    for doc, _ in (circle_strict_doc, borderline_doc):
        thr_p = min(t["value"] for t in doc["thresholds"]
                    if t["operator"] == sa.DELTA_PRIME)
        for p in doc["pairs"]:
            assert p["lambda_delta"] < thr_p
            assert p["lambda_deltaprime"] < thr_p
    _report("criterion 3 PASS: -alpha^2/4, -4/beta^2, and 0 reproduced "
            "exactly; all reported states below threshold")


# -- criterion 4: oracle convergence --------------------------------------------


def test_criterion_4_oracle_convergence(circle_convergence):
    g, mat, forms, res = circle_convergence
    conv = sa.convergence_study(res)
    orc = oracles.circle_delta_radial(1.0, 5.0, m_max=0)
    diff = abs(res[-1].values[0] - orc.eigenvalues[0])
    assert conv["order"][0] >= 1.8
    assert diff <= conv["error"][0]
    _report(f"criterion 4 PASS: order {conv['order'][0]:.3f} >= 1.8, "
            f"|FEM - oracle| = {diff:.3e} <= Richardson {conv['error'][0]:.3e}")


# -- criterion 5: generic strictness on the circle -------------------------------


def test_criterion_5_circle_strict(circle_strict_doc):
    doc, code = circle_strict_doc
    assert code == cli.EXIT_STRICT
    negative = [p for p in doc["pairs"] if p["lambda_delta"] < 0]
    assert len(negative) == 5  # modes 0, +-1, +-2 of the circle coupling
    assert all(p["verdict"] == "strict" for p in negative)
    assert all(p["gap"] > p["error"] for p in negative)
    _report("criterion 5 PASS: all %d negative pairs strict, smallest "
            "gap/budget ratio %.1f" % (
                len(negative),
                min(p["gap"] / p["error"] for p in negative)))


# -- criterion 6: borderline broken line ----------------------------------------


def test_criterion_6_borderline_broken_line(borderline_doc):
    doc, code = borderline_doc
    assert code == cli.EXIT_STRICT
    p1 = doc["pairs"][0]
    assert p1["verdict"] == "strict"
    assert p1["lambda_deltaprime"] < p1["lambda_delta"] < -1.0
    # the 1d point models are exactly degenerate at the borderline, so the
    # observed 2d gap is a pure geometry effect
    d1 = oracles.point_delta_1d(2.0).eigenvalues[0]
    p1d = oracles.point_deltaprime_1d(2.0).eigenvalues[0]
    assert d1 == pytest.approx(-1.0, abs=1e-8)
    assert p1d == pytest.approx(-1.0, abs=1e-8)
    assert d1 == pytest.approx(p1d, abs=2e-8)
    # truncation deltas entered the budget and kept shrinking
    deltas = np.asarray(doc["truncation"]["delta"]["deltas"])
    assert deltas[1, 0] < deltas[0, 0]
    _report(f"criterion 6 PASS: lambda1' = {p1['lambda_deltaprime']:.6f} < "
            f"lambda1 = {p1['lambda_delta']:.6f} < -1, gap {p1['gap']:.4f} "
            f"> budget {p1['error']:.4f}; 1d models both at -1")


# -- criterion 7: counting vs inertia --------------------------------------------


def test_criterion_7_counting_inertia(circle_strict_doc, borderline_doc):
    rows_total = 0
    for doc, _ in (circle_strict_doc, borderline_doc):
        for row in doc["counting"]:
            assert row["N_deltaprime"] >= row["N_delta"]
        rows_total += len(doc["counting"])
    assert rows_total > 0

    # direct cross-check on a fresh assembled problem
    g = geo.make_circle(1.0, (0.0, 0.0), 3.5, 48)
    mat = geo.MaterialData.constant(g, 5.0, 0.8)
    mesh = meshing.refine_uniform(meshing.triangulate(g, 0.3))
    F = femforms.assemble(mesh, mat)
    A, M = F.matrices(femforms.DELTA)
    res = pipeline.solve_pencil(A, M, k=4)
    thr = sa.essential_threshold(g, mat, sa.DELTA)
    for i in range(3):
        if res.values[i + 1] - res.values[i] < 1e-7:
            continue
        mu = 0.5 * (res.values[i] + res.values[i + 1])
        assert sa.counting(res, mu, A, M, thr) == inertia_count(A, M, mu)
    _report(f"criterion 7 PASS: {rows_total} counting rows consistent with "
            "inertia, N_delta' >= N_delta below both thresholds")


# -- criterion 8: determinism -----------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    cfg = {
        "geometry": {"kind": "broken_line", "theta": math.pi / 4,
                     "halfwidth": 4.0},
        "material": {"alpha": 2.0, "beta": 2.0},
        "discretization": {"h": 0.8, "refinements": 2},
        "solver": {"k": 2, "tol": 1e-9},
        "outputs": {"directory": str(tmp_path / "o1")},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert cli.main(["solve", "--config", str(p)]) in (0, 2)
    assert cli.main(["solve", "--config", str(p),
                     "--out", str(tmp_path / "o2")]) in (0, 2)

    def stripped(path):
        return "\n".join(l for l in path.read_text().splitlines()
                         if '"timestamp"' not in l)

    s1 = stripped(tmp_path / "o1" / "report.json")
    s2 = stripped(tmp_path / "o2" / "report.json")
    assert s1 == s2
    _report("criterion 8 PASS: report.json byte-identical modulo timestamp")


# -- work done on the acceptance configs -----------------------------------------


def test_acceptance_factorization_budget(circle_strict_doc, borderline_doc):
    # every tight pole holds, the coarse-level delta Lanczos runs on the
    # shift search's certified factor, the coarse delta-prime level and
    # each delta-prime box are factored once at the pole above the delta
    # list on the same mesh or box, each refined level is factored once at
    # the pole above the coarser list, every full-box truncation row comes
    # from the cascade, and the counting rows are read off the certified
    # lists (one count for circle strict's delta-prime list, whose top
    # lies below the highest level): a fallback pole, a refactored search
    # pole, a repeated full-box solve or a per-row count adds calls
    assert SPLU_CALLS == {"circle_strict": 15, "borderline": 17}
    _report(f"factorizations: circle strict {SPLU_CALLS['circle_strict']}, "
            f"borderline {SPLU_CALLS['borderline']}")
