"""Property test of `spec solve` on small random configs: every run ends in
one of the four exit codes, an error is one line with no traceback, the
discrete comparison and the counting order hold, a "strict" pair's
budget carries every truncation delta, the eigenvalues of a truncation
study do not increase as the box grows, and the report does not depend
on the second thread.  A config dilated by a power of two (every length
times s, alpha / s, s beta) scales the spectrum by 1 / s^2."""

import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from leakyfem import cli

# circle R=1, L=3: the 0.3 box holds one node of the coarsest mesh, so a
# study of it could give pairs 2-5 no truncation delta
ONE_NODE_BOX = {
    "geometry": {"kind": "circle", "radius": 1.0, "halfwidth": 3.0,
                 "n_chords": 16},
    "material": {"alpha": 5.0, "beta": 0.8},
    "discretization": {"h": 0.7, "refinements": 2,
                       "box_halfwidths": [0.3, 3.0],
                       "truncation_refinements": 0},
    "solver": {"k": 5},
}


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(["broken_line", "circle", "line_plus_circle",
                                 "cone_meridian"]))
    h = draw(_floats(0.6, 1.0))
    L = draw(_floats(4.0 * h, 4.0 * h + 0.8))  # meshing needs h <= L / 4
    if kind in ("broken_line", "cone_meridian"):
        geometry = {"kind": kind, "theta": draw(_floats(0.3, 1.3)),
                    "halfwidth": L}
    elif kind == "circle":
        R = draw(_floats(0.4, L - 1.0))
        geometry = {"kind": kind, "radius": R, "halfwidth": L,
                    "center": [draw(_floats(-0.3, 0.3)), 0.0],
                    "n_chords": draw(st.integers(16, 20))}
    else:
        R = draw(_floats(0.3, 0.6))
        geometry = {"kind": kind, "radius": R, "halfwidth": L,
                    "height": draw(_floats(R + 0.2, L - R - 0.4)),
                    "n_chords": 16}
    alpha = draw(_floats(1.0, 6.0))
    ratio = draw(_floats(0.3, 1.0))  # beta = ratio * 4 / alpha <= 4 / alpha
    material = {"alpha": alpha, "beta": ratio * 4.0 / alpha}
    # per-segment strengths on the circle only: the threshold of an
    # unbounded interface needs one strength on its unbounded part
    if kind == "circle" and draw(st.booleans()):
        n_seg = geometry["n_chords"]
        alphas = draw(st.lists(_floats(1.0, 6.0), min_size=n_seg,
                               max_size=n_seg))
        ratios = draw(st.lists(_floats(0.3, 1.0), min_size=n_seg,
                               max_size=n_seg))
        material = {"alpha": alphas,
                    "beta": [r * 4.0 / a for r, a in zip(ratios, alphas)]}
    disc = {"h": h, "refinements": 2}
    if draw(st.booleans()):
        # inner boxes from well inside the interface to near the boundary
        inner = draw(st.lists(_floats(0.05, 0.9), min_size=1, max_size=2))
        disc["box_halfwidths"] = [round(f * L, 3) for f in inner] + [L]
        level = draw(st.sampled_from([None, 0, 1, 2]))  # None: the finest
        if level is not None:
            disc["truncation_refinements"] = level
    return {"geometry": geometry, "material": material,
            "discretization": disc, "solver": {"k": draw(st.integers(1, 6))}}


def _solve(cfg, tmp, second_thread):
    """(exit code, stderr, report.json text without its timestamp) of one
    in-process `spec solve`, with the second thread on or off."""
    out = os.path.join(tmp, "two" if second_thread else "one")
    path = os.path.join(tmp, "cfg.json")
    with open(path, "w") as f:
        json.dump(dict(cfg, outputs={"directory": out}), f)
    err = io.StringIO()
    with mock.patch.object(cli, "_second_thread",
                           lambda jobs=1: second_thread), \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["solve", "--config", path])
    report = None
    if os.path.exists(os.path.join(out, "report.json")):
        with open(os.path.join(out, "report.json")) as f:
            report = re.sub(r'\n *"timestamp": [^\n]*', "", f.read())
    return code, err.getvalue(), report


@settings(max_examples=20)
@example(cfg=ONE_NODE_BOX)
@given(cfg=configs())
def test_solve_on_random_configs(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        code, err, text = _solve(cfg, tmp, False)
        assert _solve(cfg, tmp, True) == (code, err, text)
    assert code in (cli.EXIT_STRICT, cli.EXIT_ERROR,
                    cli.EXIT_INDISTINGUISHABLE, cli.EXIT_VIOLATED)
    if code == cli.EXIT_ERROR:
        assert re.fullmatch(r"errors\.\w+: [^\n]*\n", err), err
        assert text is None
        return
    report = json.loads(text)
    assert report["exit_status"] == code
    studies = report["truncation"].values()
    for s in studies:  # nested boxes: a larger box lowers every eigenvalue
        for small, large in zip(s["values"], s["values"][1:]):
            assert all(b <= a + 1e-9 * abs(a) for a, b in zip(small, large))
    for p in report["pairs"]:
        if code != cli.EXIT_VIOLATED:
            assert p["lambda_deltaprime"] <= p["lambda_delta"] + 1e-9
        if p["verdict"] == "strict":
            deltas = [s["deltas"][-1] for s in studies]
            assert all(len(d) >= p["n"] for d in deltas)
            assert p["error"] >= math.fsum(d[p["n"] - 1] for d in deltas)
    for row in report["counting"]:
        assert row["N_deltaprime"] >= row["N_delta"]


def _dilated(cfg, s):
    """cfg with every length times s, alpha / s and s beta: each
    eigenvalue of the dilated operators is the original one over s^2."""
    def scaled(v, f):
        return [f * x for x in v] if isinstance(v, list) else f * v

    geometry = {key: scaled(v, s) if key in ("halfwidth", "radius", "height",
                                              "center") else v
                for key, v in cfg["geometry"].items()}
    material = {"alpha": scaled(cfg["material"]["alpha"], 1.0 / s),
                "beta": scaled(cfg["material"]["beta"], s)}
    disc = {key: scaled(v, s) if key in ("h", "box_halfwidths") else v
            for key, v in cfg["discretization"].items()}
    return dict(cfg, geometry=geometry, material=material,
                discretization=disc)


def _close(a, b, rel=1e-10):
    return abs(a - b) <= rel * max(abs(a), abs(b))


@settings(max_examples=10)
@given(cfg=configs(), s=st.sampled_from([2.0, 0.5]))
def test_dilated_solve_scales_the_spectrum(cfg, s):
    # the pencils scale bit for bit (tests/test_meshing.py), so lambda s^2,
    # the truncation values and the counting rows agree within the solver's
    # accuracy; only the absolute terms (the budget's 20 tol, the cluster
    # tolerance's floor of 1, the solver's pole offsets) do not scale
    with tempfile.TemporaryDirectory() as tmp:
        code, err, text = _solve(cfg, tmp, False)
        code_s, err_s, text_s = _solve(_dilated(cfg, s), tmp, False)
    assert (code == cli.EXIT_ERROR) == (code_s == cli.EXIT_ERROR), (err,
                                                                     err_s)
    if code == cli.EXIT_ERROR:
        assert err.split(":")[0] == err_s.split(":")[0]
        return
    rep, rep_s = json.loads(text), json.loads(text_s)
    f = s * s
    assert [p["n"] for p in rep["pairs"]] == [p["n"] for p in rep_s["pairs"]]
    tol = 20.0 * rep["solver"]["tol"]
    for p, q in zip(rep["pairs"], rep_s["pairs"]):
        for key in ("lambda_delta", "lambda_deltaprime"):
            assert _close(p[key], f * q[key]), (key, p, q)
        # the budget is e + 20 tol at scale 1 and e / s^2 + 20 tol at
        # scale s; only a gap between the two budgets may grade apart
        margin = p["gap"] - (p["error"] - tol)
        if not min(1.0, f) * tol * (1 - 1e-6) < margin <= max(
                1.0, f) * tol * (1 + 1e-6):
            assert p["verdict"] == q["verdict"], (p, q, s)
    for which, study in rep["truncation"].items():
        for row, row_s in zip(study["values"],
                              rep_s["truncation"][which]["values"]):
            assert all(_close(a, f * b) for a, b in zip(row, row_s)), which
    assert [(r["N_delta"], r["N_deltaprime"]) for r in rep["counting"]] == [
        (r["N_delta"], r["N_deltaprime"]) for r in rep_s["counting"]]
    assert all(_close(r["mu"], f * q["mu"])
               for r, q in zip(rep["counting"], rep_s["counting"]))
