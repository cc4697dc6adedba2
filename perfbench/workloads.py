"""Workload definitions and output checks for the leakyfem benchmark.

Each workload is one `spec` command (solve, sweep or oracle) on a fixed
config.  The benchmark seed becomes `solver.seed`, the Lanczos start
vector; the oracle workload has no random input, so the seed does not
apply there.

`extract()` reduces an iteration's output files to the facts that must not
change (exit code, verdicts, eigenvalues, counting rows, oracle values);
`check()` compares them with the committed reference in `reference.json`
and with the invariants every run must satisfy.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

# |lambda - reference| <= EIG_TOL * max(1, |reference|).  Runs with
# different Lanczos seeds agree to about 1e-10.
EIG_TOL = 1e-8
ORDER_TOL = 1e-9        # lambda'_n <= lambda_n + ORDER_TOL
ORACLE_TOL = 1e-8       # point oracles vs -alpha^2/4 and -4/beta^2

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


@dataclass(frozen=True)
class Workload:
    command: str            # spec subcommand
    config: dict
    jobs: int = 1
    seeded: bool = True     # False: the seed does not reach the program

    def config_for(self, seed, out_dir):
        cfg = json.loads(json.dumps(self.config))
        if self.seeded:
            cfg.setdefault("solver", {})["seed"] = int(seed)
        cfg["outputs"] = {"directory": out_dir}
        return cfg

    def argv(self, config_path):
        argv = [self.command, "--config", config_path]
        if self.jobs > 1:
            argv += ["--jobs", str(self.jobs)]
        return argv


# The reason for each listed workload is its "why" in BENCHMARK.json.
WORKLOADS = {
    "borderline": Workload(
        "solve",
        {"geometry": {"kind": "broken_line", "theta": math.pi / 4,
                      "halfwidth": 12.0},
         "material": {"alpha": 2.0, "beta": 2.0},
         "discretization": {"h": 0.5, "refinements": 2,
                            "box_halfwidths": [6.0, 9.0, 12.0],
                            "truncation_refinements": 1},
         "solver": {"k": 2, "tol": 1e-9}}),
    "oracle_set": Workload(
        "oracle",
        {"oracle": {"alpha": [1.0, 2.0, 5.0], "beta": [4.0, 2.0, 0.8],
                    "circle": {"radius": 1.0, "alpha": 5.0, "beta": 0.8,
                               "m_max": 2}}},
        seeded=False),
    "theta_sweep": Workload(
        "sweep",
        {"geometry": {"kind": "broken_line", "theta": 0.3, "halfwidth": 8.0},
         "material": {"alpha": 2.0, "beta": 2.0},
         "discretization": {"h": 0.8, "refinements": 2,
                            "box_halfwidths": [5.0, 8.0]},
         "solver": {"k": 2, "tol": 1e-9},
         "sweep": {"parameter": "theta",
                   "values": [0.30, 0.42, 0.54, 0.66, 0.78, 0.90]}},
        jobs=2),
    # circle_strict and smoke are run by hand and are not in BENCHMARK.json:
    # one circle_strict iteration takes about 70 s, more than a run's share
    # of the benchmark's time budget.
    "circle_strict": Workload(
        "solve",
        {"geometry": {"kind": "circle", "radius": 1.0, "halfwidth": 3.5,
                      "n_chords": 64},
         "material": {"alpha": 5.0,
                      "beta": {"default": 0.8,
                               "overrides": [{"segments": list(range(32)),
                                              "value": 0.64}]}},
         "discretization": {"h": 0.15, "refinements": 2,
                            "box_halfwidths": [2.5, 3.5],
                            "truncation_refinements": 1},
         "solver": {"k": 5, "tol": 1e-9}}),
    "smoke": Workload(
        "solve",
        {"geometry": {"kind": "broken_line", "theta": math.pi / 4,
                      "halfwidth": 4.0},
         "material": {"alpha": 2.0, "beta": 2.0},
         "discretization": {"h": 0.8, "refinements": 2},
         "solver": {"k": 2, "tol": 1e-9}}),
}


# -- extraction ----------------------------------------------------------------

def _extract_solve(out_dir):
    with open(os.path.join(out_dir, "report.json")) as f:
        doc = json.load(f)
    return {
        "report_exit": doc["exit_status"],
        "seed": doc["solver"]["seed"],
        "pairs": [[p["n"], p["lambda_delta"], p["lambda_deltaprime"],
                   p["verdict"]] for p in doc["pairs"]],
        "counting": [[r["N_delta"], r["N_deltaprime"]]
                     for r in doc["counting"]],
    }


def _extract_sweep(out_dir):
    points = {}
    with open(os.path.join(out_dir, "sweep.csv")) as f:
        for row in csv.DictReader(f):
            pt = points.setdefault(row["theta"], {"status": row["status"],
                                                  "pairs": []})
            if row["status"] == "ok" and row["n"]:
                pt["pairs"].append([int(row["n"]),
                                    float(row["lambda_delta"]),
                                    float(row["lambda_deltaprime"]),
                                    row["verdict"]])
    return {"points": points}


def _extract_oracle(out_dir):
    rows = []
    with open(os.path.join(out_dir, "oracle.csv")) as f:
        for row in csv.DictReader(f):
            rows.append([row["model"], float(row["parameter"]),
                         float(row["eigenvalue"])])
    return {"rows": rows}


def extract(workload, out_dir, exit_code):
    """Comparable facts of one iteration's outputs."""
    fn = {"solve": _extract_solve, "sweep": _extract_sweep,
          "oracle": _extract_oracle}[workload.command]
    facts = fn(out_dir)
    facts["exit"] = exit_code
    return facts


# -- checks ----------------------------------------------------------------------

def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _check_pairs(got, ref, where):
    errs = []
    if len(got) != len(ref):
        return [f"{where}: {len(got)} pairs, reference has {len(ref)}"]
    for (n, ld, lp, verdict), (_, rd, rp, rverdict) in zip(got, ref):
        if verdict != rverdict:
            errs.append(f"{where} n={n}: verdict {verdict}, "
                        f"reference {rverdict}")
        if not (_close(ld, rd, EIG_TOL) and _close(lp, rp, EIG_TOL)):
            errs.append(f"{where} n={n}: eigenvalues ({ld!r}, {lp!r}) not "
                        f"within {EIG_TOL} of ({rd!r}, {rp!r})")
        if lp > ld + ORDER_TOL:
            errs.append(f"{where} n={n}: lambda'={lp!r} > lambda={ld!r}")
    return errs


def check(workload, facts, ref, seed):
    """(ops attempted, ops failed, messages) for one iteration.

    A sweep counts one operation per sweep point; a failure that concerns
    the whole command (exit code, missing output) fails every operation.
    """
    ops = len(ref["points"]) if workload.command == "sweep" else 1
    if facts is None:
        return ops, ops, ["no output"]
    whole = []
    if facts["exit"] != ref["exit"]:
        whole.append(f"exit code {facts['exit']}, reference {ref['exit']}")
    if workload.command == "solve":
        if facts["report_exit"] != facts["exit"]:
            whole.append(f"report exit_status {facts['report_exit']}, "
                         f"command returned {facts['exit']}")
        if facts["seed"] != seed:
            whole.append(f"report seed {facts['seed']}, requested {seed}")
        whole += _check_pairs(facts["pairs"], ref["pairs"], "pairs")
        if facts["counting"] != ref["counting"]:
            whole.append(f"counting rows {facts['counting']}, reference "
                         f"{ref['counting']}")
        whole += [f"counting row {i}: N'={p} < N={d}"
                  for i, (d, p) in enumerate(facts["counting"]) if p < d]
    elif workload.command == "oracle":
        whole += _check_oracle(facts["rows"], ref["rows"])
    if whole:
        return ops, ops, whole
    if workload.command != "sweep":
        return ops, 0, []
    failed = []
    for value, rpt in ref["points"].items():
        pt = facts["points"].get(value)
        if pt is None or pt["status"] != "ok":
            failed.append(f"theta={value}: status "
                          f"{pt['status'] if pt else 'missing'}")
            continue
        errs = _check_pairs(pt["pairs"], rpt["pairs"], f"theta={value}")
        if errs:
            failed.append("; ".join(errs))
    extra = set(facts["points"]) - set(ref["points"])
    if extra:
        failed.append(f"unexpected sweep points {sorted(extra)}")
    return ops, min(len(failed), ops), failed


def _check_oracle(rows, ref_rows):
    errs = []
    if [r[:2] for r in rows] != [r[:2] for r in ref_rows]:
        return [f"oracle rows {[r[:2] for r in rows]} differ from reference"]
    for (model, param, value), (_, _, ref_value) in zip(rows, ref_rows):
        closed = {"point_delta": -0.25 * param * param,
                  "point_deltaprime": -4.0 / (param * param)}.get(model)
        if closed is not None and abs(value - closed) > ORACLE_TOL:
            errs.append(f"{model}({param}) = {value!r}, closed form "
                        f"{closed!r}")
        if not _close(value, ref_value, EIG_TOL):
            errs.append(f"{model}({param}) = {value!r}, reference "
                        f"{ref_value!r}")
    return errs


def load_reference():
    with open(REFERENCE_PATH) as f:
        return json.load(f)
