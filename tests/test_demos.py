"""The quick demos run clean: each exits 0 and writes nothing to stderr.

Only the demos that take a few seconds run here; the slower ones (the
borderline broken line, the circle pair, the cone and the mesh gallery)
stay out of the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["truncation_and_convergence.py",
                                  "oracle_tables.py"])
def test_demo_runs_clean(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
