"""Seconds-long self-test of the benchmark harness.

    python3 perfbench/smoke.py

Runs the `smoke` workload (the acceptance-criterion-8 broken line, L=4,
h=0.8) untraced and traced, and checks that the result line has the
contract's shape with every metric named in BENCHMARK.json, that the span
wrappers saw the layers, and that the output checks reject altered
results.  Also checks that the harness refuses to run in a directory
without the leakyfem sources.  Not part of the tier-1 test suite.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time

import run
import workloads

ROOT = run.HERE.parent


def _run(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, *args], cwd=cwd,
                         capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout, out.stderr


def _result(trace):
    code, stdout, stderr = _run("perfbench/run.py", "--workload", "smoke",
                                "--seed", "11", "--seconds", "0.1",
                                "--trace", str(trace))
    if code != 0:
        raise SystemExit(f"run.py --trace {trace} exited {code}:\n{stderr}")
    line = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"], line
    assert line["correct"] is True and line["failed"] == 0, line
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    return line["metrics"]


def _check_names(metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == want, (sorted(set(got) ^ set(want)), got, want)


def _check_rejects():
    wl = workloads.WORKLOADS["smoke"]
    ref = workloads.load_reference()["smoke"]
    good = dict(copy.deepcopy(ref), seed=11, report_exit=ref["exit"])
    assert workloads.check(wl, good, ref, 11)[1] == 0
    bad = [("exit", lambda f: f.update(exit=3)),
           ("verdict", lambda f: f["pairs"][0].__setitem__(3, "violated")),
           ("eigenvalue", lambda f: f["pairs"][0].__setitem__(
               1, f["pairs"][0][1] + 1e-6)),
           ("ordering", lambda f: f["pairs"][0].__setitem__(
               2, f["pairs"][0][1] + 1e-6)),
           ("counting", lambda f: f.update(counting=[[2, 1]])),
           ("seed", lambda f: f.update(seed=12)),
           ("missing", None)]
    for what, mutate in bad:
        facts = None
        if mutate is not None:
            facts = copy.deepcopy(good)
            mutate(facts)
        assert workloads.check(wl, facts, ref, 11)[1] == 1, what


def _check_bare_directory():
    bare = ROOT / ".perfbench" / f"smoke-bare-{time.strftime('%H%M%S')}"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, stdout, _ = _run("perfbench/run.py", "--workload", "smoke",
                               "--seed", "1", "--seconds", "1", "--trace",
                               "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not stdout.strip(), (code, stdout)


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    t0 = time.monotonic()
    _check_names(_result(0), bench["end_to_end"])
    layer = _result(1)
    _check_names(layer, bench["per_layer"])
    total = layer["eigensolver.factorizations"]["value"]
    split = sum(layer[f"eigensolver.factorizations.{p}"]["value"]
                for p in ("lanczos", "lower_shift", "certify", "counting"))
    assert total > 0 and total == split, (total, split)
    for name in ("meshing.nodes", "femforms.nnz", "eigensolver.solves",
                 "eigensolver.lanczos_steps",
                 "spectral_analysis.counting_rows"):
        assert layer[name]["value"] > 0, name
    _check_rejects()
    _check_bare_directory()
    print(f"perfbench smoke OK in {time.monotonic() - t0:.1f} s "
          f"({total} factorizations traced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
