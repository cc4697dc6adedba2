"""The names the benchmark's span recorder wraps must exist.

perfbench/spans.py patches leakyfem functions by name from outside, and
its factorization metrics hinge on the package binding SuperLU's splu
itself, so a rename would otherwise surface only in a traced bench run.
Its annotations read fields of meshes, assembled forms, counting rows
and SuperLU factors, so they run here on real ones.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest
import scipy.sparse.linalg

from leakyfem import eigensolver, femforms, geometry as geo, meshing, pipeline
from leakyfem import spectral_analysis as sa

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
    assert eigensolver.splu is scipy.sparse.linalg.splu


@pytest.fixture(scope="module")
def solved():
    # a circle has bound states even on a coarse mesh, so the counting
    # table has rows
    g = geo.make_circle(1.0, (0.0, 0.0), 3.0, 16)
    mat = geo.MaterialData.constant(g, alpha=3.0, beta=1.0)
    mesh = meshing.triangulate(g, 0.7)
    forms = femforms.assemble(mesh, mat)
    res_d = pipeline.cascade_solve([forms], sa.DELTA, 3)[0]
    res_p = pipeline.cascade_solve([forms], sa.DELTA_PRIME, 3,
                                   pole=pipeline.pole_above(res_d.values))[0]
    thresholds = (sa.essential_threshold(g, mat, which)
                  for which in (sa.DELTA, sa.DELTA_PRIME))
    return mesh, forms, res_d, sa.counting_table(forms, res_d, res_p,
                                                 *thresholds)


def test_annotations_read_what_the_traced_functions_return(solved):
    mesh, forms, _, rows = solved
    fine = meshing.refine_uniform(mesh)
    returned = {"meshing.triangulate": mesh,
                "meshing.refine_uniform": fine,
                "femforms.assemble": forms,
                "spectral_analysis.counting_table": rows}
    annotate = _spans().ANNOTATE
    assert set(annotate) == set(returned)
    got = {key: fn(returned[key]) for key, fn in annotate.items()}
    assert got["meshing.refine_uniform"] == {"nodes": fine.num_nodes}
    assert got["femforms.assemble"]["ndof"] == (forms.continuous.ndof
                                                + forms.broken.ndof)
    assert got["spectral_analysis.counting_table"] == {"rows": len(rows)}
    for attrs in got.values():
        assert all(type(v) is int and v > 0 for v in attrs.values())


def test_factor_attributes_outlast_the_pivot_read(monkeypatch, solved):
    # the recorder reads a factor as splu returns it; eigensolver._factor
    # then drops the cached L and U arrays, which must keep their counts
    _, forms, res_d, _ = solved
    factor_attrs = _spans()._factor_attrs
    seen = []
    splu = eigensolver.splu

    def recorded(*args, **kwargs):
        lu = splu(*args, **kwargs)
        seen.append(factor_attrs(lu))
        return lu

    monkeypatch.setattr(eigensolver, "splu", recorded)
    A, M = forms.matrices(sa.DELTA)
    lu, _ = eigensolver._factor(A, M, res_d.shift_used)
    assert seen == [factor_attrs(lu)]
    assert seen[0]["n"] == A.shape[0]
    assert seen[0]["fill_nnz"] >= A.shape[0]
