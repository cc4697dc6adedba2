"""The names the benchmark's span recorder wraps must exist.

perfbench/spans.py patches leakyfem functions by name from outside, and
its factorization metrics hinge on the package binding SuperLU's splu
itself, so a rename would otherwise surface only in a traced bench run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import scipy.sparse.linalg

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for modname, names in _spans().TRACED.items():
        module = importlib.import_module(modname)
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), f"{modname}.{name}"


def test_eigensolver_binds_splu():
    from leakyfem import eigensolver
    assert eigensolver.splu is scipy.sparse.linalg.splu
