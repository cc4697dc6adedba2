"""Span recorder that wraps leakyfem's public layer functions from outside.

`install(recorder)` replaces every attribute of every loaded `leakyfem.*`
module that *is* one of the traced function objects, so names imported with
`from .eigensolver import inertia_count` are wrapped too.  SuperLU's `splu`
is wrapped where the package binds it; the factor it returns is proxied so
that `solve()` calls (Lanczos steps) are counted.

Spans (id, name, start, end, parent, run id, thread, error, attributes) are
kept in memory and written out by the caller when the run ends.  Parents
come from a per-thread stack, so sweep worker threads get their own trees.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# (module, function names) per layer; hot inner helpers such as
# delaunay.orient are left out on purpose: wrapping them would cost more
# than the work they do.
TRACED = {
    "leakyfem.meshing": ("triangulate", "refine_uniform", "build_dofs",
                         "interface_quadrature"),
    "leakyfem.femforms": ("assemble",),
    "leakyfem.eigensolver": ("smallest_eigenpairs", "inertia_count",
                             "lower_shift"),
    "leakyfem.spectral_analysis": ("essential_threshold", "counting",
                                   "counting_table", "verify_theoremA",
                                   "convergence_study",
                                   "truncation_from_forms",
                                   "truncation_study"),
    "leakyfem.pipeline": ("mesh_levels", "assemble_levels", "cascade_solve",
                          "solve_pencil", "solve_restricted"),
    "leakyfem.oracles": ("point_delta_1d", "point_deltaprime_1d",
                         "circle_delta_radial", "circle_deltaprime_radial"),
    "leakyfem.cli": ("main", "run_solve", "cmd_solve", "cmd_sweep",
                     "cmd_oracle", "write_report_json", "write_report_csv"),
}
SPLU = "scipy.splu"


def _mesh_attrs(mesh):
    return {"nodes": int(mesh.num_nodes)}


def _forms_attrs(forms):
    mats = (forms.K_cont, forms.M_cont, forms.K_brok, forms.M_brok,
            forms.T_alpha, forms.J_beta)
    return {"ndof": int(forms.continuous.ndof + forms.broken.ndof),
            "nnz": int(sum(m.nnz for m in mats))}


def _factor_attrs(lu):
    return {"n": int(lu.shape[0]), "fill_nnz": int(lu.L.nnz + lu.U.nnz)}


def _rows_attrs(rows):
    return {"rows": len(rows)}


ANNOTATE = {
    "meshing.triangulate": _mesh_attrs,
    "meshing.refine_uniform": _mesh_attrs,
    "femforms.assemble": _forms_attrs,
    "spectral_analysis.counting_table": _rows_attrs,
}


class Recorder:
    """In-memory spans plus a Lanczos step counter for one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.solves = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, annotate=None, proxy=None):
        """Wrap fn in a span.  annotate(result) adds attributes, read after
        the clock for "work_end" stops but inside the span, so parents'
        self time does not absorb it; proxy(result) replaces the result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            span = {"id": sid, "name": name, "parent": parent,
                    "run": self.run_id, "thread": threading.get_ident(),
                    "error": None}
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    span["work_end"] = time.perf_counter()
                    span.update(annotate(result))
                return result if proxy is None else proxy(result)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
        return traced

    def count_solve(self):
        with self._lock:
            self.solves += 1


class _Factor:
    """SuperLU factor proxy that counts solve() calls."""

    __slots__ = ("_lu", "_recorder")

    def __init__(self, lu, recorder):
        self._lu = lu
        self._recorder = recorder

    def solve(self, *args, **kwargs):
        self._recorder.count_solve()
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(recorder):
    """Wrap the traced functions in every loaded leakyfem module.

    Returns the number of module attributes replaced.
    """
    import scipy.sparse.linalg

    replace = {}
    for modname, names in TRACED.items():
        module = sys.modules[modname]
        for name in names:
            fn = getattr(module, name)
            key = modname.rsplit(".", 1)[-1] + "." + name
            replace[id(fn)] = (fn, recorder.wrap(key, fn, ANNOTATE.get(key)))
    splu = scipy.sparse.linalg.splu
    replace[id(splu)] = (splu, recorder.wrap(
        SPLU, splu, _factor_attrs, lambda lu: _Factor(lu, recorder)))

    patched = 0
    for modname, module in list(sys.modules.items()):
        if modname != "leakyfem" and not modname.startswith("leakyfem."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched += 1
    return patched
