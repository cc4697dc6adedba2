import csv
import json
import math
import os

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


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = _base_cfg(tmp_path / "out")
    p = _write(tmp_path / "cfg.json", cfg)
    monkeypatch.setenv("SPEC_SEED", "42")
    cli.main(["solve", "--config", p])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["solver"]["seed"] == 42


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


def test_sweep_rejects_short_value_list(tmp_path):
    cfg = _base_cfg(tmp_path / "out")
    cfg["sweep"] = {"parameter": "alpha", "values": [2.0]}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["sweep", "--config", p]) == cli.EXIT_ERROR


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
])
def test_oracle_rejects_malformed_values(tmp_path, capsys, block):
    cfg = {"oracle": block, "outputs": {"directory": str(tmp_path / "out")}}
    p = _write(tmp_path / "cfg.json", cfg)
    assert cli.main(["oracle", "--config", p]) == cli.EXIT_ERROR
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_factorization_budget(monkeypatch):
    # the criterion-8 run, per operator: one Lanczos factor and one
    # inertia check per level, the shift search and walk on the coarse
    # level, and one counting-row count; a repeated check raises the count
    from leakyfem import eigensolver
    calls = []
    splu = eigensolver.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "splu", counted)
    cfg = {
        "geometry": {"kind": "broken_line", "theta": math.pi / 4,
                     "halfwidth": 4.0},
        "material": {"alpha": 2.0, "beta": 2.0},
        "discretization": {"h": 0.8, "refinements": 2},
        "solver": {"k": 2, "tol": 1e-9},
    }
    _, code = cli.run_solve(cfg)
    assert code in (cli.EXIT_STRICT, cli.EXIT_INDISTINGUISHABLE)
    assert len(calls) == 37
