"""Per-layer metrics derived from the spans of one traced iteration.

Every factorization (a `scipy.splu` span) gets a purpose from its enclosing
spans: under `spectral_analysis.counting_table` it is `counting`; otherwise
the nearest of `eigensolver.lower_shift` (-> `lower_shift`),
`eigensolver.inertia_count` inside `smallest_eigenpairs` (-> `certify`) and
`eigensolver.smallest_eigenpairs` itself (-> `lanczos`).  Factorizations
outside these count only in the totals.
"""

from __future__ import annotations

from collections import defaultdict

PURPOSES = ("lanczos", "lower_shift", "certify", "counting")
ORACLES = ("point_delta_1d", "point_deltaprime_1d", "circle_delta_radial",
           "circle_deltaprime_radial")


def _metric_units():
    units = {
        "meshing.triangulate_s": "s",
        "meshing.refine_uniform_s": "s",
        "meshing.nodes": "count",
        "femforms.assemble_s": "s",
        "femforms.ndof": "count",
        "femforms.nnz": "count",
    }
    for base, unit in (("eigensolver.factorizations", "count"),
                       ("eigensolver.factor_s", "s"),
                       ("eigensolver.fill_nnz", "count")):
        units[base] = unit
        for purpose in PURPOSES:
            units[f"{base}.{purpose}"] = unit
    units.update({
        "eigensolver.lanczos_steps": "count",
        "eigensolver.lanczos_self_s": "s",
        "eigensolver.solves": "count",
        "eigensolver.solver_errors": "count",
        "eigensolver.inertia_counts": "count",
        "eigensolver.inertia_failed": "count",
        "spectral_analysis.counting_table_s": "s",
        "spectral_analysis.counting_rows": "count",
        "spectral_analysis.truncation_s": "s",
        "pipeline.solve_restricted_s": "s",
        "pipeline.cascade_solve_s": "s",
    })
    for fn in ORACLES:
        units[f"oracles.{fn}.calls"] = "count"
        units[f"oracles.{fn}.s"] = "s"
    units["cli.sweep_overlap"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


UNITS = _metric_units()


def _purpose(span, by_id):
    chain = []
    parent = span["parent"]
    while parent is not None:
        chain.append(by_id[parent]["name"])
        parent = by_id[parent]["parent"]
    if "spectral_analysis.counting_table" in chain:
        return "counting"
    for name in chain:
        if name == "eigensolver.lower_shift":
            return "lower_shift"
        if name == "eigensolver.inertia_count":
            return ("certify" if "eigensolver.smallest_eigenpairs" in chain
                    else None)
        if name == "eigensolver.smallest_eigenpairs":
            return "lanczos"
    return None


def _is_cli(name):
    return name.startswith("cli.")


def per_layer(spans, lanczos_steps):
    """Metric name -> value for one traced iteration (without the
    traced-minus-untraced overhead, which needs both runs)."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    m = {name: 0 for name in UNITS if name != "trace.overhead_s"}

    def dur(s):
        return s["end"] - s["start"]

    def add(name, value):
        m[name] += value

    main_wall = 0.0
    busy = 0.0
    for s in spans:
        name = s["name"]
        if name == "cli.main":
            main_wall += dur(s)
        elif not _is_cli(name):
            parent = by_id.get(s["parent"])
            if parent is None or _is_cli(parent["name"]):
                busy += dur(s)  # outermost layer call in its thread

        if name in ("meshing.triangulate", "meshing.refine_uniform"):
            add(name + "_s", dur(s))
            add("meshing.nodes", s["nodes"])
        elif name == "femforms.assemble":
            add("femforms.assemble_s", dur(s))
            add("femforms.ndof", s["ndof"])
            add("femforms.nnz", s["nnz"])
        elif name == "scipy.splu":
            factor_s = s.get("work_end", s["end"]) - s["start"]
            fill = s.get("fill_nnz", 0)
            purpose = _purpose(s, by_id)
            for suffix in ("",) if purpose is None else ("", "." + purpose):
                add("eigensolver.factorizations" + suffix, 1)
                add("eigensolver.factor_s" + suffix, factor_s)
                add("eigensolver.fill_nnz" + suffix, fill)
        elif name == "eigensolver.smallest_eigenpairs":
            add("eigensolver.solves", 1)
            add("eigensolver.solver_errors", s["error"] == "SolverError")
            add("eigensolver.lanczos_self_s",
                dur(s) - sum(dur(c) for c in children[s["id"]]))
        elif name == "eigensolver.inertia_count":
            add("eigensolver.inertia_counts", 1)
            add("eigensolver.inertia_failed", s["error"] is not None)
        elif name == "spectral_analysis.counting_table":
            add("spectral_analysis.counting_table_s", dur(s))
            add("spectral_analysis.counting_rows", s.get("rows", 0))
        elif name == "spectral_analysis.truncation_from_forms":
            add("spectral_analysis.truncation_s", dur(s))
        elif name == "pipeline.solve_restricted":
            add("pipeline.solve_restricted_s", dur(s))
        elif name == "pipeline.cascade_solve":
            add("pipeline.cascade_solve_s", dur(s))
        elif name.startswith("oracles."):
            add(name + ".calls", 1)
            add(name + ".s", dur(s))
    m["eigensolver.lanczos_steps"] = lanczos_steps
    m["cli.sweep_overlap"] = busy / main_wall if main_wall > 0 else 0.0
    return m
