"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC.json holds {"argv": [...], "trace": bool, "run_id": str,
"result": path}.  The worker imports leakyfem (PYTHONPATH must point at the
checkout's src/), optionally installs the span recorder, calls
`leakyfem.cli.main(argv)` in-process and writes the exit code, the wall
time of that call, the process's peak RSS, the environment and, when
traced, the spans to the result path.
"""

from __future__ import annotations

import ctypes
import importlib.util
import json
import os
import platform
import resource
import sys
import time


def _blas_threads():
    """OpenBLAS builds mapped into this process and their thread counts."""
    found = {}
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
        else:
            found[os.path.basename(path)] = None
    return found


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    import leakyfem  # noqa: F401  (loads every layer module)
    from leakyfem import cli

    recorder = None
    if spec["trace"]:
        import spans
        recorder = spans.Recorder(spec["run_id"])
        patched = spans.install(recorder)

    t0, c0 = time.perf_counter(), time.process_time()
    code = cli.main(spec["argv"])
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    sys.stdout.flush()

    result = {"exit": code, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": environment()}
    if recorder is not None:
        result.update(spans=recorder.spans, lanczos_steps=recorder.solves,
                      patched_attributes=patched)
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
