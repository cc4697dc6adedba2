"""Benchmark of the leakyfem `spec` entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/leakyfem`.  Each
iteration runs in a fresh interpreter (perfbench/worker.py) that calls
`leakyfem.cli.main` in-process on a generated config; iterations repeat
until S seconds have passed (at least one; with --trace 1 at least one
untraced and one traced iteration, alternating).  Every iteration's output
is checked against perfbench/reference.json.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
derived from the spans of the traced iterations.  Human-readable lines go
first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The full record of the run
(environment, every iteration, failures, spans) is written under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3       # timed imports per run, after one warm-up import
WORKER_TIMEOUT = 170.0  # seconds; an iteration that takes longer fails
RUN_DEADLINE = 160.0    # start no iteration that would end after this
IMPORT_PROBE = ("import time; t = time.perf_counter(); import leakyfem.cli; "
                "print(repr(time.perf_counter() - t))")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _source_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


# One BLAS thread per worker: with OpenBLAS's default pool of nproc threads
# per process, `--jobs 2` would run more busy threads than cores, and its
# spin-waiting threads made wall times spread about twice as wide.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def child_env(root, work):
    env = dict(os.environ)
    env.pop("SPEC_SEED", None)  # would override the benchmark seed
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(work)
    return env


def _import_seconds(env, cwd):
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=cwd, capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise RuntimeError(f"cannot import leakyfem.cli: {out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


def execute(workload, seed, d, env, root, traced=False, run_id=""):
    """Run one iteration in a worker process with its files under d.

    Returns (status, result, facts, extract_error): status is the worker's
    exit status or "timeout"; result the worker's record (None unless
    status is 0); facts the checked outputs (None if unreadable).
    """
    out = d / "out"
    out.mkdir(parents=True)
    config = d / "config.json"
    config.write_text(json.dumps(workload.config_for(seed, str(out))))
    result_path = d / "result.json"
    spec = d / "spec.json"
    spec.write_text(json.dumps({"argv": workload.argv(str(config)),
                                "trace": traced, "run_id": run_id,
                                "result": str(result_path)}))
    with open(d / "worker.log", "w") as log:
        try:
            status = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec)],
                env=env, cwd=root, stdout=log, stderr=subprocess.STDOUT,
                timeout=WORKER_TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
    result = facts = error = None
    if status == 0:
        result = json.loads(result_path.read_text())
        try:
            facts = workloads.extract(workload, str(out), result["exit"])
        except (OSError, KeyError, ValueError) as exc:
            error = repr(exc)
    shutil.rmtree(out, ignore_errors=True)
    return status, result, facts, error


class Run:
    """One benchmark run: its workload, scratch directory and iterations."""

    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.reference = workloads.load_reference()[args.workload]
        stamp = time.strftime("%Y%m%dT%H%M%S")
        self.work = (root / ".perfbench" /
                     f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                     f"{stamp}-{os.getpid()}")
        self.work.mkdir(parents=True)
        self.env = child_env(root, self.work)
        self.iterations = []

    def iterate(self, index, traced):
        d = self.work / f"iter{index}"
        run_id = f"{self.args.workload}-{self.args.seed}-{index}"
        t0 = time.monotonic()
        status, result, facts, error = execute(
            self.workload, self.args.seed, d, self.env, self.root, traced,
            run_id)
        record = {"index": index, "traced": traced, "status": status,
                  "elapsed_s": time.monotonic() - t0}
        if error:
            record["extract_error"] = error
        ops, failed, messages = workloads.check(
            self.workload, facts, self.reference, self.args.seed)
        record.update(ops=ops, failed=failed, messages=messages)
        if result is not None:
            record.update(wall_s=result["wall_s"], cpu_s=result["cpu_s"],
                          peak_rss_mb=result["peak_rss_mb"],
                          env=result["env"])
            if traced:
                record["patched_attributes"] = result["patched_attributes"]
                record["layers"] = layers.per_layer(result["spans"],
                                                    result["lanczos_steps"])
        self.iterations.append(record)
        return record

    def measure(self):
        trace = bool(self.args.trace)
        start = time.monotonic()
        index = 0
        while True:
            self.iterate(index, traced=trace and index % 2 == 1)
            index += 1
            elapsed = time.monotonic() - start
            complete = index % 2 == 0 if trace else True
            if not complete:
                continue
            longest = max(r["elapsed_s"] for r in self.iterations)
            if (elapsed >= self.args.seconds
                    or elapsed + longest * (2 if trace else 1) > RUN_DEADLINE):
                break


def _end_to_end(plain, setup):
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                        "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def _per_layer(plain, traced):
    values = {}
    for name in layers.UNITS:
        if name == "trace.overhead_s":
            continue
        values[name] = statistics.median(r["layers"][name] for r in traced)
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain))
    return {name: (v, layers.UNITS[name]) for name, v in values.items()}


def main(argv=None):
    args = _parse(argv)
    root = HERE.parent
    src = root / "src"
    if not (src / "leakyfem" / "cli.py").is_file():
        print(f"perfbench: no leakyfem sources under {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(root, args)
    setup = [_import_seconds(run.env, root)
             for _ in range(SETUP_SAMPLES + 1)][1:]
    run.measure()

    done = [r for r in run.iterations if "wall_s" in r]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    attempted = sum(r["ops"] for r in run.iterations)
    failed = sum(r["failed"] for r in run.iterations)
    if not plain or (args.trace and not traced):
        print("perfbench: no iteration completed; see "
              f"{run.work}", file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in (_per_layer(plain, traced)
                                           if args.trace else
                                           _end_to_end(plain, setup)).items()}

    env = dict(done[0]["env"])
    env.update(nproc=os.cpu_count(),
               cpus_usable=len(os.sched_getaffinity(0)),
               git_sha=_git_sha(root), source_sha256=_source_digest(src),
               load=f"1 worker process at a time, --jobs "
                    f"{run.workload.jobs}",
               seed_applies=run.workload.seeded)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setup_s_samples": setup, "attempted": attempted,
              "failed": failed, "metrics": metrics,
              "iterations": run.iterations}
    (run.work / "run.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}"
          + ("" if run.workload.seeded else " (does not apply)")
          + f"  iterations {len(plain)} untraced, {len(traced)} traced")
    print("environment " + json.dumps(env, sort_keys=True))
    for r in run.iterations:
        for msg in r["messages"]:
            print(f"FAILED iteration {r['index']}: {msg}")
        if r["status"] != 0:
            print(f"FAILED iteration {r['index']}: worker status "
                  f"{r['status']}, see {run.work}/iter{r['index']}/worker.log")
    print(f"failed_ops {failed}/{attempted}")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
