"""Batch front door: configure a run, execute mesh -> assemble -> solve ->
analyze, and emit reports.

Commands (console script `spec`):

    spec solve    --config FILE [--out DIR]            full verification run
    spec converge --config FILE [--out DIR]            refinement study
    spec sweep    --config FILE [--jobs N] [--out DIR] parameter sweep
    spec oracle   --config FILE [--out DIR]            1d reference tables

Configuration is strict JSON: unknown keys are rejected, units follow the
library (lengths in the coordinate unit, alpha in 1/length, beta in
length).  The environment variable SPEC_SEED overrides the solver seed.
Exit codes for solve/sweep: 0 all comparisons strict, 2 some
indistinguishable, 3 violated, 1 errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import numpy as np

from . import geometry, oracles, pipeline, svgplot
from . import spectral_analysis as sa
from .eigensolver import DEFAULT_SEED, DEFAULT_TOL
from .errors import ConfigError, LeakyFemError, TheoremViolation

DELTA = sa.DELTA
DELTA_PRIME = sa.DELTA_PRIME

EXIT_STRICT = 0
EXIT_ERROR = 1
EXIT_INDISTINGUISHABLE = 2
EXIT_VIOLATED = 3


# -- config -------------------------------------------------------------------

def _check_keys(block, allowed, where):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _require(block, key, where):
    if key not in block:
        raise ConfigError(f"missing key {key!r} in {where}")
    return block[key]


def load_config(path):
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_keys(cfg, {"geometry", "material", "discretization", "solver",
                      "outputs", "sweep", "oracle"}, "config")
    return cfg


def build_geometry(gcfg):
    _check_keys(gcfg, {"kind", "theta", "halfwidth", "radius", "center",
                       "n_chords", "height"}, "geometry")
    kind = _require(gcfg, "kind", "geometry")
    L = float(_require(gcfg, "halfwidth", "geometry"))
    if kind == "broken_line":
        return geometry.make_broken_line(float(_require(gcfg, "theta",
                                                        "geometry")), L)
    if kind == "circle":
        center = tuple(gcfg.get("center", (0.0, 0.0)))
        return geometry.make_circle(float(_require(gcfg, "radius", "geometry")),
                                    center, L,
                                    int(_require(gcfg, "n_chords", "geometry")))
    if kind == "line_plus_circle":
        return geometry.make_line_plus_circle(
            float(_require(gcfg, "height", "geometry")),
            float(_require(gcfg, "radius", "geometry")), L,
            int(_require(gcfg, "n_chords", "geometry")))
    if kind == "cone_meridian":
        return geometry.make_cone_meridian(float(_require(gcfg, "theta",
                                                          "geometry")), L)
    raise ConfigError(f"unknown geometry kind {kind!r}")


def _material_values(entry, n, name):
    if isinstance(entry, (int, float)):
        return np.full(n, float(entry))
    if isinstance(entry, list):
        if len(entry) != n:
            raise ConfigError(f"{name} list must have {n} entries (one per "
                              f"interface segment), got {len(entry)}")
        return np.asarray(entry, dtype=float)
    if isinstance(entry, dict):
        _check_keys(entry, {"default", "overrides"}, f"material.{name}")
        vals = np.full(n, float(_require(entry, "default",
                                         f"material.{name}")))
        for ov in entry.get("overrides", []):
            _check_keys(ov, {"segments", "value"}, f"material.{name}.overrides")
            idx = _require(ov, "segments", "override")
            vals[np.asarray(idx, dtype=int)] = float(_require(ov, "value",
                                                              "override"))
        return vals
    raise ConfigError(f"material.{name} must be a number, list, or object")


def build_material(mcfg, geom):
    _check_keys(mcfg, {"alpha", "beta"}, "material")
    n = len(geom.segments)
    alpha = _material_values(_require(mcfg, "alpha", "material"), n, "alpha")
    beta = _material_values(_require(mcfg, "beta", "material"), n, "beta")
    return geometry.MaterialData(alpha=alpha, beta=beta)


def _solver_settings(cfg):
    scfg = cfg.get("solver", {})
    _check_keys(scfg, {"k", "tol", "seed"}, "solver")
    k = int(scfg.get("k", 4))
    tol = float(scfg.get("tol", DEFAULT_TOL))
    seed = int(scfg.get("seed", DEFAULT_SEED))
    env = os.environ.get("SPEC_SEED")
    if env is not None:
        seed = int(env)
    if k < 1 or tol <= 0:
        raise ConfigError("solver.k must be >= 1 and solver.tol > 0")
    return k, tol, seed


def _discretization(cfg):
    dcfg = _require(cfg, "discretization", "config")
    _check_keys(dcfg, {"h", "refinements", "box_halfwidths",
                       "truncation_refinements", "min_angle_deg"},
                "discretization")
    h = float(_require(dcfg, "h", "discretization"))
    refinements = int(dcfg.get("refinements", 2))
    boxes = dcfg.get("box_halfwidths")
    trunc_ref = dcfg.get("truncation_refinements")
    min_angle = float(dcfg.get("min_angle_deg", 20.0))
    if refinements < 0:
        raise ConfigError("discretization.refinements must be >= 0")
    return h, refinements, boxes, trunc_ref, min_angle


# -- core run -----------------------------------------------------------------

def run_solve(cfg):
    """Full pipeline for one configuration.

    Returns (report_dict, exit_code).  Raises LeakyFemError subclasses on
    configuration or numerical failures (exit code 1 at the CLI).
    """
    geom = build_geometry(_require(cfg, "geometry", "config"))
    mat = build_material(_require(cfg, "material", "config"), geom)
    if np.any(mat.beta > 4.0 / mat.alpha * (1.0 + 1e-12)):
        raise ConfigError(
            "material outside the comparison regime: need beta <= 4/alpha "
            "on every segment")
    k, tol, seed = _solver_settings(cfg)
    h, refinements, boxes, trunc_ref, min_angle = _discretization(cfg)
    if refinements < 2:
        raise ConfigError("solve needs discretization.refinements >= 2 for "
                          "the error estimate")
    if boxes is not None:
        boxes = sorted(float(b) for b in boxes)
        if len(boxes) < 2:
            raise ConfigError("box_halfwidths needs at least two entries")
        if abs(boxes[-1] - geom.halfwidth) > 1e-12 * geom.halfwidth:
            raise ConfigError("geometry.halfwidth must equal the largest "
                              "box halfwidth")

    thr_d = sa.essential_threshold(geom, mat, DELTA)
    thr_p = sa.essential_threshold(geom, mat, DELTA_PRIME)

    rings = boxes[:-1] if boxes else None
    meshes = pipeline.mesh_levels(geom, h, refinements, inner_rings=rings,
                                  min_angle=min_angle)
    forms = pipeline.assemble_levels(meshes, mat)
    res_d = pipeline.cascade_solve(forms, DELTA, k, tol=tol, seed=seed)
    res_p = pipeline.cascade_solve(forms, DELTA_PRIME, k, tol=tol, seed=seed)

    # the non-strict comparison must hold on every level, not just the finest
    for rd, rp in zip(res_d, res_p):
        n = min(rd.values.size, rp.values.size)
        if np.any(rp.values[:n] > rd.values[:n] + sa.HARD_TOL):
            raise TheoremViolation(
                "discrete eigenvalue comparison failed on a coarse level")

    conv_d = sa.convergence_study(res_d)
    conv_p = sa.convergence_study(res_p)

    trunc = {}
    trunc_delta_d = np.zeros(k)
    trunc_delta_p = np.zeros(k)
    if boxes:
        t_idx = min(refinements if trunc_ref is None else int(trunc_ref),
                    refinements)
        td = sa.truncation_from_forms(
            forms[t_idx], DELTA, boxes, k, tol=tol, seed=seed,
            shift=pipeline.shift_from_previous(res_d[t_idx].values))
        tp = sa.truncation_from_forms(
            forms[t_idx], DELTA_PRIME, boxes, k, tol=tol, seed=seed,
            shift=pipeline.shift_from_previous(res_p[t_idx].values))
        trunc = {"delta": td.as_dict(), "delta_prime": tp.as_dict()}
        nd = td.final_deltas.shape[0]
        trunc_delta_d[:nd] = td.final_deltas[:k]
        npp = tp.final_deltas.shape[0]
        trunc_delta_p[:npp] = tp.final_deltas[:k]

    kk = min(len(conv_d["error"]), len(conv_p["error"]), k)
    budget = (np.asarray(conv_d["error"][:kk]) + np.asarray(conv_p["error"][:kk])
              + trunc_delta_d[:kk] + trunc_delta_p[:kk] + 20.0 * tol)

    violated = False
    try:
        report = sa.verify_theoremA(res_d[-1], res_p[-1], (thr_d, thr_p),
                                    errors=budget)
    except TheoremViolation as exc:
        report = exc.report
        violated = True

    rows = sa.counting_table(forms[-1], res_d[-1], res_p[-1], thr_d, thr_p)
    report = sa.TheoremAReport(pairs=report.pairs,
                               thresholds=report.thresholds,
                               counting=tuple(rows),
                               convergence={
                                   "order": conv_d["order"],
                                   "limits": conv_d["limit"],
                                   "delta_prime": {
                                       "order": conv_p["order"],
                                       "limits": conv_p["limit"]}})

    doc = report.as_dict()
    doc["geometry"] = cfg["geometry"]
    doc["material"] = cfg["material"]
    doc["truncation"] = trunc
    doc["solver"] = {"k": k, "tol": tol, "seed": seed,
                     "shifts": [r.shift_used for r in (res_d[-1], res_p[-1])],
                     "max_residual": float(max(res_d[-1].residuals.max(),
                                               res_p[-1].residuals.max()))}
    doc["discretization"] = {"h": h, "refinements": refinements,
                             "box_halfwidths": boxes,
                             "nodes_finest": int(meshes[-1].num_nodes)}
    doc["timestamp"] = datetime.now(timezone.utc).isoformat()

    if violated or report.any_violated:
        code = EXIT_VIOLATED
    elif report.all_strict:
        code = EXIT_STRICT
    else:
        code = EXIT_INDISTINGUISHABLE
    doc["exit_status"] = code
    return doc, code


# -- output helpers -----------------------------------------------------------

def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report_json(path, doc):
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_report_csv(path, doc):
    lines = ["n,lambda_delta,lambda_deltaprime,gap,error,verdict"]
    for p in doc["pairs"]:
        lines.append("%d,%r,%r,%r,%r,%s" % (
            p["n"], p["lambda_delta"], p["lambda_deltaprime"], p["gap"],
            p["error"], p["verdict"]))
    _atomic_write(path, "\n".join(lines) + "\n")


def _outdir(cfg, args):
    out = args.out
    if out is None:
        out = cfg.get("outputs", {}).get("directory", ".")
    ocfg = cfg.get("outputs", {})
    _check_keys(ocfg, {"directory", "formats"}, "outputs")
    formats = ocfg.get("formats", ["json", "csv", "svg"])
    return out, set(formats)


# -- commands -----------------------------------------------------------------

def cmd_solve(args):
    cfg = load_config(args.config)
    doc, code = run_solve(cfg)
    out, formats = _outdir(cfg, args)
    if "json" in formats:
        write_report_json(os.path.join(out, "report.json"), doc)
    if "csv" in formats:
        write_report_csv(os.path.join(out, "report.csv"), doc)
    for p in doc["pairs"]:
        print("n=%d  delta=%.9f  delta_prime=%.9f  gap=%.3e  budget=%.3e  %s"
              % (p["n"], p["lambda_delta"], p["lambda_deltaprime"], p["gap"],
                 p["error"], p["verdict"]))
    if not doc["pairs"]:
        print("no eigenvalue pairs below the comparison threshold")
    return code


def cmd_converge(args):
    cfg = load_config(args.config)
    geom = build_geometry(_require(cfg, "geometry", "config"))
    mat = build_material(_require(cfg, "material", "config"), geom)
    k, tol, seed = _solver_settings(cfg)
    h, refinements, _, _, min_angle = _discretization(cfg)
    if refinements < 2:
        raise ConfigError("converge needs at least 3 levels "
                          "(discretization.refinements >= 2)")
    meshes = pipeline.mesh_levels(geom, h, refinements, min_angle=min_angle)
    forms = pipeline.assemble_levels(meshes, mat)
    out, formats = _outdir(cfg, args)
    lines = ["operator,n,order,limit,error,flagged"]
    svg_series, svg_labels = [], []
    hs = [h / 2 ** i for i in range(refinements + 1)]
    for which, tag in ((DELTA, "delta"), (DELTA_PRIME, "delta_prime")):
        res = pipeline.cascade_solve(forms, which, k, tol=tol, seed=seed)
        conv = sa.convergence_study(res)
        for i in range(len(conv["order"])):
            flagged = "yes" if math.isnan(conv["order"][i]) else "no"
            lines.append("%s,%d,%r,%r,%r,%s" % (
                tag, i + 1, conv["order"][i], conv["limit"][i],
                conv["error"][i], flagged))
            print("%s n=%d order=%.3f limit=%.9f err=%.2e%s" % (
                tag, i + 1, conv["order"][i], conv["limit"][i],
                conv["error"][i], "  [non-monotone]" if flagged == "yes" else ""))
        svg_series.append([r.values[0] for r in res])
        svg_labels.append(tag + " lambda_1")
    if "csv" in formats:
        _atomic_write(os.path.join(out, "convergence.csv"),
                      "\n".join(lines) + "\n")
    if "svg" in formats:
        svgplot.line_plot(os.path.join(out, "convergence.svg"),
                          [hh * hh for hh in hs], svg_series, svg_labels,
                          title="eigenvalue vs h^2", xlabel="h^2",
                          ylabel="lambda_1")
    return EXIT_STRICT


def _sweep_config(cfg, parameter, value):
    sub = json.loads(json.dumps(cfg))  # deep copy
    sub.pop("sweep", None)
    if parameter == "theta":
        if "theta" not in sub["geometry"]:
            raise ConfigError("theta sweep needs a geometry with an angle")
        sub["geometry"]["theta"] = value
    elif parameter in ("alpha", "beta"):
        sub["material"][parameter] = value
    else:
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    return sub


def cmd_sweep(args):
    cfg = load_config(args.config)
    swcfg = _require(cfg, "sweep", "config")
    _check_keys(swcfg, {"parameter", "values"}, "sweep")
    parameter = _require(swcfg, "parameter", "sweep")
    values = sorted(set(float(v) for v in _require(swcfg, "values", "sweep")))
    if len(values) < 2:
        raise ConfigError("sweep needs at least two distinct values")

    def one(value):
        try:
            doc, code = run_solve(_sweep_config(cfg, parameter, value))
            return {"value": value, "status": "ok", "exit": code,
                    "pairs": doc["pairs"]}
        except LeakyFemError as exc:
            return {"value": value, "status": "error",
                    "message": f"{type(exc).__name__}: {exc}", "pairs": []}

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            points = list(pool.map(one, values))
    else:
        points = [one(v) for v in values]

    out, formats = _outdir(cfg, args)
    lines = ["%s,n,lambda_delta,lambda_deltaprime,gap,error,verdict,status"
             % parameter]
    xs, gaps = [], []
    for pt in points:
        if pt["status"] != "ok":
            lines.append("%r,,,,,,,%s" % (pt["value"], pt["message"]))
            print("%s=%g  ERROR  %s" % (parameter, pt["value"], pt["message"]))
            continue
        for p in pt["pairs"]:
            lines.append("%r,%d,%r,%r,%r,%r,%s,ok" % (
                pt["value"], p["n"], p["lambda_delta"], p["lambda_deltaprime"],
                p["gap"], p["error"], p["verdict"]))
        if not pt["pairs"]:
            lines.append("%r,,,,,,none,ok" % pt["value"])
        if pt["pairs"]:
            xs.append(pt["value"])
            gaps.append(pt["pairs"][0]["gap"])
        print("%s=%g  pairs=%d  gap1=%s" % (
            parameter, pt["value"], len(pt["pairs"]),
            ("%.3e" % pt["pairs"][0]["gap"]) if pt["pairs"] else "n/a"))
    if "csv" in formats:
        _atomic_write(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")
    if "svg" in formats and len(xs) >= 2:
        svgplot.line_plot(os.path.join(out, "sweep.svg"), xs, [gaps],
                          ["gap lambda_1"], title=f"gap vs {parameter}",
                          xlabel=parameter, ylabel="lambda_delta - lambda_dp")

    codes = [pt["exit"] for pt in points if pt["status"] == "ok"]
    failed = [pt for pt in points if pt["status"] != "ok"]
    if not codes:
        return EXIT_ERROR
    if EXIT_VIOLATED in codes:
        return EXIT_VIOLATED
    if failed or EXIT_INDISTINGUISHABLE in codes:
        return EXIT_INDISTINGUISHABLE
    return EXIT_STRICT


def cmd_oracle(args):
    cfg = load_config(args.config)
    ocfg = _require(cfg, "oracle", "config")
    _check_keys(ocfg, {"alpha", "beta", "circle"}, "oracle")
    lines = ["model,parameter,eigenvalue,reference,difference"]
    for a in ocfg.get("alpha", []):
        if a <= 0:
            raise ConfigError("oracle alpha values must be positive")
        r = oracles.point_delta_1d(float(a))
        ref = -0.25 * a * a
        got = float(r.eigenvalues[0])
        lines.append("point_delta,%r,%r,%r,%r" % (a, got, ref, got - ref))
        print("point delta    alpha=%-8g lambda=%.10f  closed form %.10f  "
              "diff %.2e" % (a, got, ref, got - ref))
    for b in ocfg.get("beta", []):
        if b <= 0:
            raise ConfigError("oracle beta values must be positive")
        r = oracles.point_deltaprime_1d(float(b))
        ref = -4.0 / (b * b)
        got = float(r.eigenvalues[0])
        lines.append("point_deltaprime,%r,%r,%r,%r" % (b, got, ref, got - ref))
        print("point delta'   beta=%-9g lambda=%.10f  closed form %.10f  "
              "diff %.2e" % (b, got, ref, got - ref))
    if "circle" in ocfg:
        ccfg = ocfg["circle"]
        _check_keys(ccfg, {"radius", "alpha", "beta", "m_max"}, "oracle.circle")
        R = float(_require(ccfg, "radius", "oracle.circle"))
        m_max = int(ccfg.get("m_max", 2))
        if "alpha" in ccfg:
            r = oracles.circle_delta_radial(R, float(ccfg["alpha"]), m_max)
            for m, eigs in enumerate(r.per_mode):
                for e in eigs:
                    lines.append("circle_delta_m%d,%r,%r,," % (m, R, float(e)))
                    print("circle delta   m=%d R=%g  lambda=%.8f" % (m, R, e))
        if "beta" in ccfg:
            r = oracles.circle_deltaprime_radial(R, float(ccfg["beta"]), m_max)
            for m, eigs in enumerate(r.per_mode):
                for e in eigs:
                    lines.append("circle_deltaprime_m%d,%r,%r,,"
                                 % (m, R, float(e)))
                    print("circle delta'  m=%d R=%g  lambda=%.8f" % (m, R, e))
    out, formats = _outdir(cfg, args)
    if "csv" in formats:
        _atomic_write(os.path.join(out, "oracle.csv"), "\n".join(lines) + "\n")
    return EXIT_STRICT


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="spec", description="surface-coupling spectral solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("converge", cmd_converge),
                     ("sweep", cmd_sweep), ("oracle", cmd_oracle)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LeakyFemError as exc:
        print(f"{type(exc).__module__.split('.')[-1]}."
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
