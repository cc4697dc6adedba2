"""Property test of `spec solve` on small random configs: every run ends in
one of the four exit codes, an error is one line with no traceback, the
discrete comparison and the counting order hold, a "strict" pair's
budget carries every truncation delta, the eigenvalues of a truncation
study do not increase as the box grows, and the report does not depend
on the second thread."""

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
