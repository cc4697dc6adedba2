"""Regenerate perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once, untraced, at seed 1729 (the solver's default) and
stores the facts the benchmark checks: exit code, per-pair verdicts and
eigenvalues, counting rows, sweep points and oracle values.  Only do this
when a change is meant to alter those results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads

SEED = 1729


def main(names):
    root = run.HERE.parent
    try:
        reference = workloads.load_reference()
    except FileNotFoundError:
        reference = {}
    work = root / ".perfbench" / f"reference-{time.strftime('%Y%m%dT%H%M%S')}"
    env = run.child_env(root, work)
    for name in names or sorted(workloads.WORKLOADS):
        d = work / name
        status, result, facts, error = run.execute(
            workloads.WORKLOADS[name], SEED, d, env, root)
        if facts is None:
            print(f"{name}: no usable output (status {status}, {error}); "
                  f"see {d}/worker.log", file=sys.stderr)
            return 1
        facts.pop("seed", None)
        facts.pop("report_exit", None)
        reference[name] = facts
        print(f"{name}: exit {facts['exit']}, wall {result['wall_s']:.2f} s")
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
