"""Batch front door: check a run configuration up front, call the library
(`spec solve` calls spectral_analysis.verify, `spec converge` its
solve_levels), and write the reports.

Commands (console script `spec`):

    spec solve    --config FILE [--out DIR]            full verification run
    spec converge --config FILE [--out DIR]            refinement study
    spec sweep    --config FILE [--jobs N] [--out DIR] parameter sweep
    spec oracle   --config FILE [--out DIR]            1d reference tables

Configuration is strict JSON: unknown keys and mistyped numbers (a bool
is not a number) are rejected, units follow the library (lengths in the
coordinate unit, alpha in 1/length, beta in length).
Exit codes for solve/sweep: 0 all comparisons strict, 2 some
indistinguishable, 3 violated, 1 errors, usage errors included.  A sweep
runs its points on --jobs threads (default 1).

A solve or converge run, and each point of a --jobs 1 sweep, assembles
and solves its coarser levels on a second thread, beside the finest
level's assembly and solves (spectral_analysis.solve_levels), when the
process may use two CPUs; the points of a sweep on two or more threads
keep one thread each.  No output depends on it.
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

from . import geometry, oracles, svgplot
from . import spectral_analysis as sa
from .eigensolver import DEFAULT_SEED, DEFAULT_TOL
from .errors import ConfigError, LeakyFemError

EXIT_STRICT = 0
EXIT_ERROR = 1
EXIT_INDISTINGUISHABLE = 2
EXIT_VIOLATED = 3
EXIT_CODES = {"strict": EXIT_STRICT,
              "indistinguishable": EXIT_INDISTINGUISHABLE,
              "violated": EXIT_VIOLATED}

FORMATS = ("json", "csv", "svg")


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


def _number(value, where, integer=False, positive=False, low=None,
            high=None):
    """Check that a config value is a finite JSON number (a bool is not
    one), whole if integer, > 0 if positive, and within [low, high].
    Returns the value unchanged."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max  # nan, inf, huge ints
            or (integer and value != int(value))
            or (positive and value <= 0)
            or (low is not None and value < low)
            or (high is not None and value > high)):
        want = "an integer" if integer else "a finite number"
        want += " > 0" if positive else ""
        want += "" if low is None else f" >= {low}"
        want += "" if high is None else f" <= {high}"
        raise ConfigError(f"{where} must be {want}, got {value!r}")
    return value


def _value(block, key, where, default=None, integer=False, **bounds):
    """block[key] (or default, when given, for an absent key) checked by
    _number and returned as an int if integer, else as a float."""
    value = (_require(block, key, where) if default is None
             else block.get(key, default))
    value = _number(value, f"{where}.{key}", integer=integer, **bounds)
    return int(value) if integer else float(value)


def _numbers(values, where, length=None, **bounds):
    if not isinstance(values, list) or length not in (None, len(values)):
        count = "" if length is None else f"{length} "
        raise ConfigError(f"{where} must be a list of {count}numbers, "
                          f"got {values!r}")
    return [_number(v, where, **bounds) for v in values]


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

    def num(key, **bounds):
        return _value(gcfg, key, "geometry", **bounds)

    L = num("halfwidth")
    if kind == "broken_line":
        return geometry.make_broken_line(num("theta"), L)
    if kind == "circle":
        center = _numbers(gcfg.get("center", [0.0, 0.0]), "geometry.center",
                          length=2)
        return geometry.make_circle(num("radius"), tuple(center), L,
                                    num("n_chords", integer=True))
    if kind == "line_plus_circle":
        return geometry.make_line_plus_circle(
            num("height"), num("radius"), L, num("n_chords", integer=True))
    if kind == "cone_meridian":
        return geometry.make_cone_meridian(num("theta"), L)
    raise ConfigError(f"unknown geometry kind {kind!r}")


def _material_values(entry, n, name):
    where = f"material.{name}"
    if isinstance(entry, list):  # one value per interface segment
        return np.asarray(_numbers(entry, where, length=n), dtype=float)
    if isinstance(entry, dict):
        _check_keys(entry, {"default", "overrides"}, where)
        vals = np.full(n, _value(entry, "default", where))
        overrides = entry.get("overrides", [])
        if not isinstance(overrides, list):
            raise ConfigError(f"{where}.overrides must be a list")
        for ov in overrides:
            _check_keys(ov, {"segments", "value"}, f"{where}.overrides")
            idx = _numbers(_require(ov, "segments", "override"),
                           f"{where}.overrides.segments", integer=True,
                           low=0, high=n - 1)
            vals[np.asarray(idx, dtype=int)] = _value(ov, "value",
                                                      f"{where}.overrides")
        return vals
    return np.full(n, float(_number(entry, where)))


def build_material(mcfg, geom):
    _check_keys(mcfg, {"alpha", "beta"}, "material")
    n = len(geom.segments)
    alpha = _material_values(_require(mcfg, "alpha", "material"), n, "alpha")
    beta = _material_values(_require(mcfg, "beta", "material"), n, "beta")
    return geometry.MaterialData(alpha=alpha, beta=beta)


def _run_settings(cfg):
    """Discretization and solver settings of a solve, converge or sweep
    config, as keyword arguments of spectral_analysis.verify."""
    dcfg = _require(cfg, "discretization", "config")
    _check_keys(dcfg, {"h", "refinements", "box_halfwidths",
                       "truncation_refinements"}, "discretization")
    scfg = cfg.get("solver", {})
    _check_keys(scfg, {"k", "tol", "seed"}, "solver")
    seed = _value(scfg, "seed", "solver", DEFAULT_SEED, integer=True, low=0)
    h = _value(dcfg, "h", "discretization")
    # three levels for the Richardson error estimate
    refinements = _value(dcfg, "refinements", "discretization", 2,
                         integer=True, low=2)
    boxes = dcfg.get("box_halfwidths")
    if boxes is not None:
        boxes = [float(b) for b in _numbers(
            boxes, "discretization.box_halfwidths", positive=True)]
    # the level of the truncation study, which needs boxes to study
    t_ref = dcfg.get("truncation_refinements")
    if t_ref is not None:
        t_ref = _value(dcfg, "truncation_refinements", "discretization",
                       integer=True, low=0, high=refinements)
        if boxes is None:
            raise ConfigError("discretization.truncation_refinements needs "
                              "discretization.box_halfwidths")
    return {
        "h": h,
        "refinements": refinements,
        "halfwidths": boxes,
        "truncation_refinements": t_ref,
        "k": _value(scfg, "k", "solver", 4, integer=True, low=1),
        "tol": _value(scfg, "tol", "solver", DEFAULT_TOL, positive=True),
        "seed": int(seed),
    }


def _outputs(cfg, args):
    """Output directory and formats, checked before any command runs."""
    ocfg = cfg.get("outputs", {})
    _check_keys(ocfg, {"directory", "formats"}, "outputs")
    out = ocfg.get("directory", ".")
    if not isinstance(out, str):
        raise ConfigError(f"outputs.directory must be a string, got {out!r}")
    out = out if args.out is None else args.out
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"output directory {out!r} names a file")
    formats = ocfg.get("formats", list(FORMATS))
    if not isinstance(formats, list) or not all(f in FORMATS
                                                for f in formats):
        raise ConfigError(f"outputs.formats must be a list drawn from "
                          f"{list(FORMATS)}, got {formats!r}")
    return out, set(formats)


# -- core run -----------------------------------------------------------------

def _second_thread(jobs=1):
    """Whether a run solves its coarser levels and its finest delta-prime
    pencil on a second thread: when a CPU is free for it, so the process
    may use two CPUs and no other sweep point runs beside it.  Without a
    free CPU the thread only adds memory: its finest factor is alive
    beside the calling thread's."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return jobs == 1 and cpus >= 2


def run_solve(cfg, second_thread=False):
    """Check a solve config, run spectral_analysis.verify on it, with the
    coarser levels on a second thread if second_thread, and return
    (report_dict, exit_code).  Configuration and numerical failures raise
    LeakyFemError subclasses (exit code 1 at the CLI)."""
    geom = build_geometry(_require(cfg, "geometry", "config"))
    mat = build_material(_require(cfg, "material", "config"), geom)
    if np.any(mat.beta > 4.0 / mat.alpha * (1.0 + 1e-12)):
        raise ConfigError(
            "material outside the comparison regime: need beta <= 4/alpha "
            "on every segment")
    settings = _run_settings(cfg)
    run = sa.verify(geom, mat, **settings, second_thread=second_thread)

    code = EXIT_CODES[run.report.verdict]
    doc = run.report.as_dict()
    doc["geometry"] = cfg["geometry"]
    doc["material"] = cfg["material"]
    doc["truncation"] = dict(zip(("delta", "delta_prime"),
                                 (t.as_dict() for t in run.truncation)))
    doc["solver"] = {"k": settings["k"], "tol": settings["tol"],
                     "seed": settings["seed"],
                     "shifts": [r.shift_used for r in run.finest],
                     "max_residual": float(max(r.residuals.max()
                                               for r in run.finest))}
    doc["discretization"] = {
        "h": settings["h"], "refinements": settings["refinements"],
        "box_halfwidths": (list(run.truncation[0].halfwidths)
                           if run.truncation else None),
        "nodes_finest": run.nodes_finest}
    doc["timestamp"] = datetime.now(timezone.utc).isoformat()
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


# -- commands -----------------------------------------------------------------

def cmd_solve(args, cfg, out, formats):
    doc, code = run_solve(cfg, _second_thread())
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


def cmd_converge(args, cfg, out, formats):
    geom = build_geometry(_require(cfg, "geometry", "config"))
    mat = build_material(_require(cfg, "material", "config"), geom)
    s = _run_settings(cfg)
    _, res_d, res_p, _ = sa.solve_levels(
        geom, mat, s["h"], s["refinements"], s["halfwidths"], s["k"],
        tol=s["tol"], seed=s["seed"], second_thread=_second_thread())
    lines = ["operator,n,order,limit,error,flagged"]
    svg_series, svg_labels = [], []
    hs = [s["h"] / 2 ** i for i in range(s["refinements"] + 1)]
    for res, tag in ((res_d, "delta"), (res_p, "delta_prime")):
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
        _atomic_write(os.path.join(out, "convergence.svg"), svgplot.line_plot(
            [hh * hh for hh in hs], svg_series, svg_labels,
            title="eigenvalue vs h^2", xlabel="h^2", ylabel="lambda_1"))
    return EXIT_STRICT


def _sweep_config(cfg, parameter, value):
    sub = json.loads(json.dumps(cfg))  # deep copy
    sub.pop("sweep", None)
    if parameter not in ("theta", "alpha", "beta"):
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    where = "geometry" if parameter == "theta" else "material"
    block = _require(sub, where, "config")
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    if parameter == "theta" and "theta" not in block:
        raise ConfigError("theta sweep needs a geometry with an angle")
    block[parameter] = value
    return sub


def cmd_sweep(args, cfg, out, formats):
    swcfg = _require(cfg, "sweep", "config")
    _check_keys(swcfg, {"parameter", "values"}, "sweep")
    parameter = _require(swcfg, "parameter", "sweep")
    values = sorted(set(float(v) for v in _numbers(
        _require(swcfg, "values", "sweep"), "sweep.values")))
    if len(values) < 2:
        raise ConfigError("sweep needs at least two distinct values")
    # shared settings fail the whole sweep up front; geometry and material
    # errors fail only their point
    _run_settings(cfg)
    subs = [_sweep_config(cfg, parameter, v) for v in values]
    second_thread = _second_thread(args.jobs)

    def one(value, sub):
        try:
            doc, code = run_solve(sub, second_thread)
            return {"value": value, "status": "ok", "exit": code,
                    "pairs": doc["pairs"]}
        except LeakyFemError as exc:
            return {"value": value, "status": "error",
                    "message": f"{type(exc).__name__}: {exc}", "pairs": []}

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        points = list(pool.map(one, values, subs))

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
        else:
            xs.append(pt["value"])
            gaps.append(pt["pairs"][0]["gap"])
        print("%s=%g  pairs=%d  gap1=%s" % (
            parameter, pt["value"], len(pt["pairs"]),
            ("%.3e" % pt["pairs"][0]["gap"]) if pt["pairs"] else "n/a"))
    if "csv" in formats:
        _atomic_write(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")
    if "svg" in formats and len(xs) >= 2:
        _atomic_write(os.path.join(out, "sweep.svg"), svgplot.line_plot(
            xs, [gaps], ["gap lambda_1"], title=f"gap vs {parameter}",
            xlabel=parameter, ylabel="lambda_delta - lambda_dp"))

    codes = [pt["exit"] for pt in points if pt["status"] == "ok"]
    failed = [pt for pt in points if pt["status"] != "ok"]
    if not codes:
        return EXIT_ERROR
    if EXIT_VIOLATED in codes:
        return EXIT_VIOLATED
    if failed or EXIT_INDISTINGUISHABLE in codes:
        return EXIT_INDISTINGUISHABLE
    return EXIT_STRICT


def cmd_oracle(args, cfg, out, formats):
    ocfg = _require(cfg, "oracle", "config")
    _check_keys(ocfg, {"alpha", "beta", "circle"}, "oracle")
    # the oracles are accurate to 1e-8 only for alpha <= 8 and beta >= 0.5
    ranges = {"alpha": {"positive": True, "high": 8}, "beta": {"low": 0.5}}
    alphas, betas = (_numbers(ocfg.get(key, []), f"oracle.{key}", **bounds)
                     for key, bounds in ranges.items())
    strengths = {}
    if "circle" in ocfg:
        ccfg = ocfg["circle"]
        _check_keys(ccfg, {"radius", "alpha", "beta", "m_max"}, "oracle.circle")
        R = _value(ccfg, "radius", "oracle.circle", positive=True)
        m_max = _value(ccfg, "m_max", "oracle.circle", 2, integer=True, low=0)
        strengths = {key: _value(ccfg, key, "oracle.circle", **bounds)
                     for key, bounds in ranges.items() if key in ccfg}
    lines = ["model,parameter,eigenvalue,reference,difference"]
    for model, label, params, oracle, closed in (
            ("point_delta", "point delta    alpha=%-8g", alphas,
             oracles.point_delta_1d, lambda a: -0.25 * a * a),
            ("point_deltaprime", "point delta'   beta=%-9g", betas,
             oracles.point_deltaprime_1d, lambda b: -4.0 / (b * b))):
        for x in params:
            got = float(oracle(float(x)).eigenvalues[0])
            ref = closed(x)
            lines.append("%s,%r,%r,%r,%r" % (model, x, got, ref, got - ref))
            print(label % x + " lambda=%.10f  closed form %.10f  diff %.2e"
                  % (got, ref, got - ref))
    for key, model, label, oracle in (
            ("alpha", "circle_delta", "circle delta ",
             oracles.circle_delta_radial),
            ("beta", "circle_deltaprime", "circle delta'",
             oracles.circle_deltaprime_radial)):
        if key not in strengths:
            continue
        for m, eigs in enumerate(oracle(R, strengths[key], m_max).per_mode):
            for e in eigs:
                lines.append("%s_m%d,%r,%r,," % (model, m, R, float(e)))
                print("%s  m=%d R=%g  lambda=%.8f" % (label, m, R, e))
    if "csv" in formats:
        _atomic_write(os.path.join(out, "oracle.csv"), "\n".join(lines) + "\n")
    return EXIT_STRICT


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors ending in EXIT_ERROR instead of 2, which
    is EXIT_INDISTINGUISHABLE here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _jobs(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return int(text)


def main(argv=None):
    parser = _Parser(prog="spec",
                     description="surface-coupling spectral solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("converge", cmd_converge),
                     ("sweep", cmd_sweep), ("oracle", cmd_oracle)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if fn is cmd_sweep:
            p.add_argument("--jobs", type=_jobs, default=1)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.fn(args, cfg, *_outputs(cfg, args))
    except LeakyFemError as exc:
        print(f"{type(exc).__module__.split('.')[-1]}."
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
