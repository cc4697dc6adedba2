import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest

from leakyfem import cli
from leakyfem.errors import ConfigError


def _write(path, cfg):
    with open(path, "w") as f:
        json.dump(cfg, f)
    return str(path)


def _base_cfg(outdir):
    return {
        "geometry": {"kind": "broken_line", "theta": math.pi / 4,
                     "halfwidth": 4.0},
        "material": {"alpha": 2.0, "beta": 2.0},
        "discretization": {"h": 0.8, "refinements": 2},
        "solver": {"k": 1, "tol": 1e-9},
        "outputs": {"directory": str(outdir)},
    }


def test_solve_writes_reports_and_exit_code(tmp_path):
    cfg = _base_cfg(tmp_path / "out")
    path = _write(tmp_path / "cfg.json", cfg)
    code = cli.main(["solve", "--config", path])
    assert code in (a := {cli.EXIT_STRICT, cli.EXIT_INDISTINGUISHABLE})
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_status"] == code
    assert (tmp_path / "out" / "report.csv").exists()
    assert report["pairs"], "expected a bound state pair"
    assert {"pairs", "counting", "convergence", "thresholds", "geometry",
            "material"} <= set(report)


def test_invalid_theta_exits_1_without_outputs(tmp_path):
    cfg = _base_cfg(tmp_path / "out")
    cfg["geometry"]["theta"] = 2.0  # outside (0, pi/2)
    path = _write(tmp_path / "cfg.json", cfg)
    code = cli.main(["solve", "--config", path])
    assert code == cli.EXIT_ERROR
    assert not (tmp_path / "out").exists()


def test_unknown_keys_rejected(tmp_path):
    cfg = _base_cfg(tmp_path / "out")
    cfg["discretization"]["mesh_size"] = 0.1
    path = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["solve", "--config", path]) == cli.EXIT_ERROR
    cfg = _base_cfg(tmp_path / "out")
    cfg["typo"] = 1
    path = _write(tmp_path / "cfg2.json", cfg)
    assert cli.main(["solve", "--config", path]) == cli.EXIT_ERROR
    cfg = _base_cfg(tmp_path / "out")
    cfg["discretization"]["min_angle_deg"] = 20.0  # no longer an option
    path = _write(tmp_path / "cfg3.json", cfg)
    assert cli.main(["solve", "--config", path]) == cli.EXIT_ERROR


def test_material_overrides_roundtrip(tmp_path):
    # per-segment values on the compact circle (the unbounded kinds demand
    # constant strength for their threshold)
    cfg = _base_cfg(tmp_path / "out")
    cfg["geometry"] = {"kind": "circle", "radius": 1.0, "halfwidth": 4.0,
                       "n_chords": 16}
    cfg["material"] = {"alpha": 5.0,
                       "beta": {"default": 0.8,
                                "overrides": [{"segments": [0, 1, 2],
                                               "value": 0.64}]}}
    path = _write(tmp_path / "cfg.json", cfg)
    code = cli.main(["solve", "--config", path])
    assert code in (cli.EXIT_STRICT, cli.EXIT_INDISTINGUISHABLE)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["material"]["beta"]["overrides"][0]["value"] == 0.64


def test_determinism_modulo_timestamp(tmp_path):
    cfg = _base_cfg(tmp_path / "o1")
    p = _write(tmp_path / "cfg.json", cfg)
    cli.main(["solve", "--config", p])
    cli.main(["solve", "--config", p, "--out", str(tmp_path / "o2")])

    def strip(path):
        return "\n".join(l for l in path.read_text().splitlines()
                         if '"timestamp"' not in l)

    assert strip(tmp_path / "o1" / "report.json") == \
        strip(tmp_path / "o2" / "report.json")


def test_ring_close_to_the_interface_is_graded(tmp_path):
    # the ring of halfwidth 1 runs through the circle; its missing pieces
    # are recovered, so the run meshes and grades its pairs
    cfg = _base_cfg(tmp_path / "out")
    cfg["geometry"] = {"kind": "line_plus_circle", "height": 1.0,
                       "radius": 0.5, "halfwidth": 4.0, "n_chords": 16}
    cfg["discretization"] = {"h": 1.0, "box_halfwidths": [1.0, 4.0]}
    cfg["solver"] = {"k": 2}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["solve", "--config", p]) == cli.EXIT_INDISTINGUISHABLE
    # the ring of halfwidth 0.957 meets the circle at 11.25 degrees, so the
    # mesh's angle floor is 5.625; the box cuts the bound state, and both
    # pairs are indistinguishable
    cfg["geometry"] = {"kind": "circle", "radius": 1.0, "center": [0.2, 0.0],
                       "halfwidth": 4.447, "n_chords": 16}
    cfg["material"] = {"alpha": 5.0, "beta": 0.8}
    cfg["discretization"] = {"h": 1.0, "box_halfwidths": [0.957, 4.447]}
    p = _write(tmp_path / "cfg2.json", cfg)
    assert cli.main(["solve", "--config", p]) == cli.EXIT_INDISTINGUISHABLE
    # the ring of halfwidth 1 meets chords of the circle of radius 1.2 at
    # 33.75 degrees, and the mesh reaches the floor of 16.875 there
    cfg["geometry"] = {"kind": "circle", "radius": 1.2, "center": [0.0, 0.0],
                       "halfwidth": 4.0, "n_chords": 16}
    cfg["discretization"] = {"h": 1.0, "box_halfwidths": [1.0, 4.0]}
    p = _write(tmp_path / "cfg3.json", cfg)
    assert cli.main(["solve", "--config", p]) == cli.EXIT_INDISTINGUISHABLE


def test_converge_command(tmp_path):
    cfg = _base_cfg(tmp_path / "out")
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["converge", "--config", p]) == 0
    text = (tmp_path / "out" / "convergence.csv").read_text()
    assert text.splitlines()[0] == "operator,n,order,limit,error,flagged"
    assert (tmp_path / "out" / "convergence.svg").exists()
    svg = (tmp_path / "out" / "convergence.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_converge_needs_three_levels(tmp_path):
    cfg = _base_cfg(tmp_path / "out")
    cfg["discretization"]["refinements"] = 1
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["converge", "--config", p]) == cli.EXIT_ERROR


def test_sweep_command(tmp_path):
    cfg = _base_cfg(tmp_path / "out")
    cfg["sweep"] = {"parameter": "theta",
                    "values": [math.pi / 6, math.pi / 4,
                               math.pi / 4]}  # duplicates collapse
    p = _write(tmp_path / "cfg.json", cfg)
    code = cli.main(["sweep", "--config", p, "--jobs", "2"])
    assert code in (cli.EXIT_STRICT, cli.EXIT_INDISTINGUISHABLE)
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    values = {l.split(",")[0] for l in lines[1:]}
    assert len(values) == 2  # deduplicated
    assert (tmp_path / "out" / "sweep.svg").exists()


def test_sweep_output_does_not_depend_on_jobs(tmp_path):
    cfg = _base_cfg(tmp_path / "out")
    cfg["sweep"] = {"parameter": "alpha", "values": [1.5, 2.0]}
    p = _write(tmp_path / "cfg.json", cfg)
    csvs = []
    for jobs in ([], ["--jobs", "1"], ["--jobs", "2"]):
        out = tmp_path / f"out{len(csvs)}"
        assert cli.main(["sweep", "--config", p, "--out", str(out)]
                        + jobs) in (cli.EXIT_STRICT,
                                    cli.EXIT_INDISTINGUISHABLE)
        csvs.append((out / "sweep.csv").read_text())
    assert csvs[0] == csvs[1] == csvs[2]


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["solve"], ["solve", "--config"],
    ["sweep", "--config", "CFG", "--jobs", "abc"],
    ["sweep", "--config", "CFG", "--jobs", "0"],
    ["sweep", "--config", "CFG", "--jobs", "-2"],
    ["solve", "--config", "CFG", "--jobs", "2"],
    ["converge", "--config", "CFG", "--jobs", "2"],
    ["oracle", "--config", "CFG", "--jobs", "2"]])
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    # argparse's own exit code 2 would read as "indistinguishable"; --jobs
    # belongs to sweep alone and must be at least 1
    cfg = _base_cfg(tmp_path / "out")
    cfg["sweep"] = {"parameter": "alpha", "values": [1.5, 2.0]}
    cfg["oracle"] = {"alpha": [2.0]}
    p = _write(tmp_path / "cfg.json", cfg)
    with pytest.raises(SystemExit) as exc:
        cli.main([p if a == "CFG" else a for a in argv])
    assert exc.value.code == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage: spec" in capsys.readouterr().out


def test_list_stopping_below_the_counting_levels_exits_0(tmp_path):
    # with k = 2 the delta list stops below the highest counting level;
    # the table keeps the level below its top instead of failing with a
    # false ConsistencyError (exit 1)
    cfg = _base_cfg(tmp_path / "out")
    cfg["geometry"]["theta"] = 0.11
    cfg["material"] = {"alpha": 3.63, "beta": 0.94 * 4.0 / 3.63}
    cfg["solver"]["k"] = 2
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["solve", "--config", p]) == cli.EXIT_STRICT
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [(r["N_delta"], r["N_deltaprime"])
            for r in report["counting"]] == [(0, 1)]


@pytest.mark.parametrize("command", ["solve", "converge"])
def test_k_above_the_coarsest_dofs_rejected(tmp_path, capsys, monkeypatch,
                                            command):
    # the coarsest level has 247 continuous dofs; every level must hold k
    # values, so the run stops after meshing, before any assembly
    from leakyfem import femforms, pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("assembly or eigensolve started with an "
                             "oversize k")

    monkeypatch.setattr(pipeline, "cascade_solve", refuse)
    monkeypatch.setattr(femforms, "assemble", refuse)
    cfg = _base_cfg(tmp_path / "out")
    cfg["geometry"]["theta"] = 0.7
    cfg["solver"]["k"] = 300
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main([command, "--config", p]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("errors.DomainError: k = 300 exceeds the 247 ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_truncation_box_without_a_dof_is_an_error(tmp_path, capsys):
    # no node of the coarsest circle mesh lies inside the 0.2 box, so its
    # restricted pencil is empty: an error before any assembly, which
    # fails the solve and each sweep point
    cfg = _base_cfg(tmp_path / "out")
    cfg["geometry"] = {"kind": "circle", "radius": 1.0, "halfwidth": 3.0,
                       "n_chords": 16}
    cfg["material"] = {"alpha": 5.0, "beta": 0.8}
    cfg["discretization"] = {"h": 0.7, "refinements": 2,
                             "box_halfwidths": [0.2, 3.0],
                             "truncation_refinements": 0}
    cfg["solver"]["k"] = 2
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["solve", "--config", p]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("errors.DomainError: the box of halfwidth 0.2 ")
    assert err.count("\n") == 1
    cfg["sweep"] = {"parameter": "alpha", "values": [4.0, 5.0]}
    p = _write(tmp_path / "sweep.json", cfg)
    assert cli.main(["sweep", "--config", p, "--jobs", "2"]) == cli.EXIT_ERROR
    with open(tmp_path / "out" / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["alpha"] for r in rows] == ["4.0", "5.0"]
    assert all(r["status"].startswith("DomainError: the box of halfwidth 0.2")
               for r in rows)
    # the 0.3 box holds one node, so its studies could give pairs 2-5 no
    # truncation delta; the 0.5 box holds k = 5 and grades every pair
    del cfg["sweep"]
    cfg["solver"]["k"] = 5
    cfg["discretization"]["box_halfwidths"] = [0.3, 3.0]
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["solve", "--config", p]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err == ("errors.DomainError: the box of halfwidth 0.3 holds 1 "
                   "nodes of the truncation level's mesh, fewer than k = 5\n")
    cfg["discretization"]["box_halfwidths"] = [0.5, 3.0]
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["solve", "--config", p]) == cli.EXIT_INDISTINGUISHABLE
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [len(t["deltas"][-1]) for t in report["truncation"].values()] \
        == [5, 5]


def test_sweep_rejects_short_value_list(tmp_path):
    cfg = _base_cfg(tmp_path / "out")
    cfg["sweep"] = {"parameter": "alpha", "values": [2.0]}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["sweep", "--config", p]) == cli.EXIT_ERROR


@pytest.mark.parametrize("parameter,block,value", [
    ("theta", "geometry", ["theta"]),
    ("alpha", "material", [2.0]),
])
def test_sweep_rejects_a_swept_block_that_is_not_an_object(
        tmp_path, capsys, monkeypatch, parameter, block, value):
    # the swept block is checked up front, before any point is meshed
    _no_meshing(monkeypatch)
    cfg = _base_cfg(tmp_path / "out")
    cfg[block] = value
    cfg["sweep"] = {"parameter": parameter, "values": [0.5, 0.6]}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["sweep", "--config", p]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"errors.ConfigError: {block} must be an object\n"
    assert not (tmp_path / "out").exists()


def test_oracle_command(tmp_path):
    cfg = {"oracle": {"alpha": [2.0], "beta": [2.0]},
           "outputs": {"directory": str(tmp_path / "out")}}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["oracle", "--config", p]) == 0
    lines = (tmp_path / "out" / "oracle.csv").read_text().splitlines()
    assert len(lines) == 3
    # both 1d models sit at -1 for these parameters
    for line in lines[1:]:
        assert abs(float(line.split(",")[2]) + 1.0) < 1e-7


def test_oracle_rejects_nonpositive(tmp_path):
    cfg = {"oracle": {"alpha": [0.0]},
           "outputs": {"directory": str(tmp_path / "out")}}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["oracle", "--config", p]) == cli.EXIT_ERROR


@pytest.mark.parametrize("block", [
    {"alpha": ["2"]},
    {"alpha": [True]},
    {"beta": [float("nan")]},
    {"alpha": 2.0},
    {"circle": {"radius": 0.0, "alpha": 5.0}},
    {"circle": {"radius": "1", "alpha": 5.0}},
    {"circle": {"radius": 1.0, "alpha": "5"}},
    {"circle": {"radius": 1.0, "alpha": 5.0, "m_max": 1.5}},
    {"circle": {"radius": 1.0, "alpha": 5.0, "m_max": -1}},
    {"circle": {"radius": 1.0, "alpha": 5.0, "m_max": True}},
    {"circle": {"radius": 1.0, "alpha": -5.0}},
    {"circle": {"radius": 1.0, "beta": 0.0}},
    # the closed forms hold to 1e-8 only for alpha <= 8 and beta >= 0.5
    {"alpha": [10.0]},
    {"beta": [0.25]},
    {"circle": {"radius": 1.0, "alpha": 10.0}},
    {"circle": {"radius": 1.0, "beta": 0.25}},
])
def test_oracle_rejects_malformed_values(tmp_path, capsys, block):
    cfg = {"oracle": block, "outputs": {"directory": str(tmp_path / "out")}}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["oracle", "--config", p]) == cli.EXIT_ERROR
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_oracle_accepts_the_edges_of_the_safe_range(tmp_path):
    cfg = {"oracle": {"alpha": [8.0], "beta": [0.5],
                      "circle": {"radius": 1.0, "alpha": 8.0, "beta": 0.5,
                                 "m_max": 0}},
           "outputs": {"directory": str(tmp_path / "out")}}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["oracle", "--config", p]) == 0
    with open(tmp_path / "out" / "oracle.csv") as f:
        rows = list(csv.DictReader(f))
    point = [r for r in rows if r["model"].startswith("point_")]
    assert [float(r["parameter"]) for r in point] == [8.0, 0.5]
    assert all(abs(float(r["difference"])) <= 1e-8 for r in point)
    assert [r["model"] for r in rows[2:]] == ["circle_delta_m0",
                                              "circle_deltaprime_m0"]


def test_oracle_circle_with_modes_past_the_last_bound_one(tmp_path, capsys):
    # modes m >= 3 of this circle hold no bound state; from m = 19 on,
    # the rough grid's Gershgorin bound lies above 1, so no value can lie
    # below 0 there
    cfg = {"oracle": {"circle": {"radius": 1, "alpha": 5, "m_max": 20}},
           "outputs": {"directory": str(tmp_path / "out")}}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["oracle", "--config", p]) == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "out" / "oracle.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["model"] for r in rows] == [f"circle_delta_m{m}"
                                          for m in range(3)]


def test_oracle_set_with_circle_block(tmp_path):
    cfg = {"oracle": {"alpha": [1.0, 2.0, 5.0], "beta": [4.0, 2.0, 0.8],
                      "circle": {"radius": 1.0, "alpha": 5.0, "beta": 0.8,
                                 "m_max": 2}},
           "outputs": {"directory": str(tmp_path / "out")}}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["oracle", "--config", p]) == 0
    with open(tmp_path / "out" / "oracle.csv") as f:
        rows = list(csv.DictReader(f))
    point = [r for r in rows if r["model"].startswith("point_")]
    circle = [r for r in rows if r["model"].startswith("circle_")]
    assert len(point) == 6
    assert all(abs(float(r["difference"])) <= 1e-8 for r in point)
    # one bound state in each of the modes m = 0, 1, 2, for both couplings
    assert sorted(r["model"] for r in circle) == sorted(
        f"circle_{c}_m{m}" for c in ("delta", "deltaprime") for m in range(3))
    assert all(float(r["eigenvalue"]) < 0 for r in circle)
    # the bench runs this config as oracle_set and holds every row to its
    # committed reference within EIG_TOL = 1e-8, relative above 1
    ref_path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "reference.json")
    with open(ref_path) as f:
        ref = json.load(f)["oracle_set"]["rows"]
    assert [[r["model"], float(r["parameter"])] for r in rows] == [
        row[:2] for row in ref]
    for r, (model, _, value) in zip(rows, ref):
        assert abs(float(r["eigenvalue"]) - value) <= 1e-8 * max(
            1.0, abs(value)), model


def test_oracle_small_circle_below_the_line_limit(tmp_path):
    # at R = 0.5 the delta circle's lambda_1 lies below -alpha^2/4 - 0.5,
    # but above the proven bound -alpha^2: the run reports it
    cfg = {"oracle": {"circle": {"radius": 0.5, "alpha": 5, "beta": 0.8}},
           "outputs": {"directory": str(tmp_path / "out")}}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["oracle", "--config", p]) == 0
    with open(tmp_path / "out" / "oracle.csv") as f:
        rows = {r["model"]: float(r["eigenvalue"]) for r in csv.DictReader(f)}
    assert abs(rows["circle_delta_m0"] + 7.050629744632) <= 1e-9


def test_config_error_messages_are_module_qualified(tmp_path, capsys):
    cfg = _base_cfg(tmp_path / "out")
    cfg["geometry"]["kind"] = "pentagon"
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["solve", "--config", p]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "ConfigError" in err


def test_out_of_regime_material_rejected(tmp_path):
    # beta > 4/alpha is outside the comparison theorem; solve refuses
    cfg = _base_cfg(tmp_path / "out")
    cfg["material"] = {"alpha": 3.0, "beta": 2.0}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["solve", "--config", p]) == cli.EXIT_ERROR


def _criterion_8_cfg():
    return {
        "geometry": {"kind": "broken_line", "theta": math.pi / 4,
                     "halfwidth": 4.0},
        "material": {"alpha": 2.0, "beta": 2.0},
        "discretization": {"h": 0.8, "refinements": 2},
        "solver": {"k": 2, "tol": 1e-9},
    }


def _spy_factored(monkeypatch):
    """Digests of the matrices passed to eigensolver.splu, in call order."""
    from leakyfem import eigensolver
    digests = []
    splu = eigensolver.splu

    def spied(S, *args, **kwargs):
        h = hashlib.sha256(repr(S.shape).encode())
        for a in (S.indptr, S.indices, S.data):
            h.update(np.ascontiguousarray(a).tobytes())
        digests.append(h.hexdigest())
        return splu(S, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "splu", spied)
    return digests


def test_factorization_budget(monkeypatch):
    # the criterion-8 run: the bisected shift search on the coarse delta
    # level, whose certified factor Lanczos runs on, with one inertia
    # check above its list; the coarse delta-prime level factored once at
    # the pole above that delta list; and one factor per refined level at
    # the pole above the coarser list, which both counts and drives
    # Lanczos; a fallback to the pole below or a repeated check raises the
    # count
    calls = _spy_factored(monkeypatch)
    _, code = cli.run_solve(_criterion_8_cfg())
    assert code in (cli.EXIT_STRICT, cli.EXIT_INDISTINGUISHABLE)
    assert len(calls) == 11


def test_no_matrix_is_factored_twice(monkeypatch):
    # the pole search hands Lanczos the factor it certified, so no matrix
    # reaches SuperLU twice, in a whole run, with or without truncation
    # boxes, or in one searched solve
    from leakyfem import eigensolver, femforms, geometry, meshing
    digests = _spy_factored(monkeypatch)
    cli.run_solve(_criterion_8_cfg())
    assert len(digests) > 1 and len(set(digests)) == len(digests)

    cfg = _criterion_8_cfg()
    cfg["discretization"].update(box_halfwidths=[2.5, 4.0],
                                 truncation_refinements=1)
    digests.clear()
    cli.run_solve(cfg)
    assert len(digests) > 1 and len(set(digests)) == len(digests)

    g = geometry.make_broken_line(math.pi / 4, 4.0)
    forms = femforms.assemble(meshing.triangulate(g, 0.8),
                              geometry.MaterialData.borderline(g, alpha=2.0))
    digests.clear()
    eigensolver.smallest_eigenpairs(*forms.matrices(femforms.DELTA), 2)
    assert len(digests) > 1 and len(set(digests)) == len(digests)


def _set(cfg, path, value):
    *keys, last = path
    for key in keys:
        cfg = cfg[key]
    cfg[last] = value


def _no_meshing(monkeypatch):
    from leakyfem import pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("meshing started before the config was checked")

    monkeypatch.setattr(pipeline, "mesh_levels", refuse)


@pytest.mark.parametrize("path,value", [
    (("solver", "k"), 1.5),
    (("solver", "k"), "two"),
    (("solver", "seed"), True),
    (("solver", "tol"), 0.0),
    (("material", "alpha"), True),
    (("material", "beta"), [2.0, "2"]),
    (("material", "beta"), {"default": 2.0,
                            "overrides": [{"segments": [-1], "value": 1.0}]}),
    (("material", "beta"), {"default": 2.0,
                            "overrides": [{"segments": [99], "value": 1.0}]}),
    (("geometry", "halfwidth"), "6"),
    (("geometry", "theta"), float("nan")),
    (("discretization", "refinements"), 2.9),
    (("discretization", "refinements"), 1),
    (("discretization", "box_halfwidths"), "46"),
    (("discretization", "truncation_refinements"), -1),
    pytest.param(("geometry", "halfwidth"), 10 ** 400,  # no float holds it
                 id="halfwidth-1e400"),
    # a truncation level is one of the levels, and needs boxes to study
    (("discretization",), {"h": 0.8, "refinements": 2,
                           "box_halfwidths": [4.0, 6.0],
                           "truncation_refinements": 3}),
    (("discretization", "truncation_refinements"), 7),
    (("discretization", "truncation_refinements"), 1),
])
def test_solve_rejects_malformed_values(tmp_path, capsys, monkeypatch, path,
                                        value):
    _no_meshing(monkeypatch)
    cfg = _base_cfg(tmp_path / "out")
    cfg["geometry"]["halfwidth"] = 6.0  # so "46" would read as boxes 4, 6
    _set(cfg, path, value)
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["solve", "--config", p]) == cli.EXIT_ERROR
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "converge", "sweep", "oracle"])
@pytest.mark.parametrize("outputs", [{"directori": "x"}, {"formats": ["jsn"]},
                                     {"formats": "json"},
                                     # checked even when --out replaces it
                                     {"directory": 5, "--out": "out"},
                                     # an output path that names a file
                                     {"directory": "a_file"}])
def test_outputs_checked_before_any_work(tmp_path, capsys, monkeypatch,
                                         command, outputs):
    from leakyfem import oracles
    _no_meshing(monkeypatch)
    monkeypatch.setattr(oracles, "point_delta_1d", None)
    (tmp_path / "a_file").write_text("not a directory\n")
    outputs = dict(outputs)
    argv = ["--out", str(tmp_path / outputs.pop("--out"))] \
        if "--out" in outputs else []
    if outputs.get("directory") == "a_file":
        outputs["directory"] = str(tmp_path / "a_file")
    cfg = _base_cfg(tmp_path / "out")
    cfg["sweep"] = {"parameter": "alpha", "values": [1.5, 2.0]}
    cfg["oracle"] = {"alpha": [2.0]}
    cfg["outputs"] = {"directory": str(tmp_path / "out"), **outputs}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main([command, "--config", p, *argv]) == cli.EXIT_ERROR
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "a_file").read_text() == "not a directory\n"


def test_duplicate_box_halfwidths_collapse():
    def doc(boxes):
        cfg = _base_cfg("unused")
        cfg["geometry"]["halfwidth"] = 6.0
        cfg["discretization"]["box_halfwidths"] = boxes
        d, code = cli.run_solve(cfg)
        del d["timestamp"]
        return d, code

    assert doc([4, 4, 6]) == doc([4.0, 6.0])


def test_violation_exits_3(tmp_path, monkeypatch):
    # the exit code is read off the report's verdict: a graded "violated"
    # is exit 3, and the report carries the violated pairs
    import dataclasses

    from leakyfem import spectral_analysis as sa
    grade = sa.verify_theoremA

    def violating(*args, **kwargs):
        report = grade(*args, **kwargs)
        pairs = tuple(dataclasses.replace(p, verdict="violated")
                      for p in report.pairs)
        return dataclasses.replace(report, pairs=pairs, verdict="violated")

    monkeypatch.setattr(sa, "verify_theoremA", violating)
    p = _write(tmp_path / "cfg.json", _base_cfg(tmp_path / "out"))
    assert cli.main(["solve", "--config", p]) == cli.EXIT_VIOLATED
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_status"] == cli.EXIT_VIOLATED
    assert report["pairs"]
    assert all(p["verdict"] == "violated" for p in report["pairs"])


def test_finest_level_violation_exits_3(tmp_path, monkeypatch):
    # the first finest-level delta value 1e-6 below the delta-prime one is
    # a graded violation, not a coarse-level error: exit 3, a violated
    # pair in the report, and no counting table.  The value is moved once
    # both finest lists exist, whichever thread solved them first.  It is
    # lowered, not the delta-prime value raised: a value that rises from
    # the coarser level is a solver fault, refused before any grading
    import dataclasses

    from leakyfem import spectral_analysis as sa
    solve_levels = sa.solve_levels

    def flipped(*args, **kwargs):
        forms, res_d, res_p, trunc = solve_levels(*args, **kwargs)
        values = res_d[-1].values.copy()
        values[0] = res_p[-1].values[0] - 1e-6
        res_d[-1] = dataclasses.replace(res_d[-1], values=values)
        return forms, res_d, res_p, trunc

    monkeypatch.setattr(sa, "solve_levels", flipped)
    p = _write(tmp_path / "cfg.json", _base_cfg(tmp_path / "out"))
    assert cli.main(["solve", "--config", p]) == cli.EXIT_VIOLATED
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_status"] == cli.EXIT_VIOLATED
    assert report["pairs"][0]["verdict"] == "violated"
    assert report["counting"] == []


def test_coarse_level_violation_exits_1(tmp_path, capsys, monkeypatch):
    # the first coarsest delta-prime value raised 1e-6 above the delta one
    # still lies above the finer levels' values, so no rise is seen: the
    # ordering fails on a coarse level, TheoremViolation (exit 1) and no
    # report
    import dataclasses

    from leakyfem import spectral_analysis as sa
    solve_levels = sa.solve_levels

    def raised(*args, **kwargs):
        forms, res_d, res_p, trunc = solve_levels(*args, **kwargs)
        values = res_p[0].values.copy()
        values[0] = res_d[0].values[0] + 1e-6
        res_p[0] = dataclasses.replace(res_p[0], values=values)
        return forms, res_d, res_p, trunc

    monkeypatch.setattr(sa, "solve_levels", raised)
    p = _write(tmp_path / "cfg.json", _base_cfg(tmp_path / "out"))
    assert cli.main(["solve", "--config", p]) == cli.EXIT_ERROR
    assert ("TheoremViolation: discrete eigenvalue comparison failed on a "
            "coarse level") in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_value_rising_under_refinement_exits_1(tmp_path, capsys,
                                               monkeypatch):
    # the first finest-level delta-prime value raised 1e-6 above the delta
    # one also lies above the coarser delta-prime level's: a solver fault,
    # so ConsistencyError (exit 1) and no report, not a violated verdict
    import dataclasses

    from leakyfem import spectral_analysis as sa
    solve_levels = sa.solve_levels

    def raised(*args, **kwargs):
        forms, res_d, res_p, trunc = solve_levels(*args, **kwargs)
        values = res_p[-1].values.copy()
        values[0] = res_d[-1].values[0] + 1e-6
        assert values[0] > res_p[-2].values[0] + 1e-9
        res_p[-1] = dataclasses.replace(res_p[-1], values=values)
        return forms, res_d, res_p, trunc

    monkeypatch.setattr(sa, "solve_levels", raised)
    p = _write(tmp_path / "cfg.json", _base_cfg(tmp_path / "out"))
    assert cli.main(["solve", "--config", p]) == cli.EXIT_ERROR
    assert "ConsistencyError: lambda_1 rose" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_converge_meshes_the_solve_rings(tmp_path):
    # with box halfwidths, converge refines the mesh family that solve
    # grades (the inner rings included), so the limits agree
    cfg = _base_cfg(tmp_path / "out")
    cfg["discretization"]["box_halfwidths"] = [2.0, 4.0]
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["converge", "--config", p]) == cli.EXIT_STRICT
    with open(tmp_path / "out" / "convergence.csv") as f:
        limits = [float(r["limit"]) for r in csv.DictReader(f)
                  if r["operator"] == "delta"]
    assert cli.main(["solve", "--config", p]) in (
        cli.EXIT_STRICT, cli.EXIT_INDISTINGUISHABLE)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert limits == report["convergence"]["limits"]
