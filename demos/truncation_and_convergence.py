"""Error control: nested refinement orders and monotone box truncation.

Both knobs of the discretization are one-sided: red refinement enlarges
the trial space (eigenvalues go down, order ~2), and growing the box with
constrained inner rings enlarges it again (eigenvalues go down, deltas
shrink like the squared tail of the bound state).  Together they give the
error budget that the comparison verdicts are graded against.
"""

import math

import numpy as np

from leakyfem import femforms, geometry, pipeline
from leakyfem import spectral_analysis as sa

g = geometry.make_broken_line(math.pi / 4, 9.0)
mat = geometry.MaterialData.borderline(g, alpha=2.0)

print("== refinement study (broken line, borderline strengths) ==")
meshes = pipeline.mesh_levels(g, 0.6, 2)
forms = pipeline.assemble_levels(meshes, mat)
for which in (sa.DELTA, sa.DELTA_PRIME):
    res = pipeline.cascade_solve(forms, which, 1)
    conv = sa.convergence_study(res)
    vals = [float(r.values[0]) for r in res]
    print(f"  {which:<12} lambda_1: " +
          "  ".join(f"{v:+.7f}" for v in vals))
    print(f"  {'':<12} order {conv['order'][0]:.2f}, "
          f"limit {conv['limit'][0]:+.7f}, estimate {conv['error'][0]:.1e}")

print("\n== truncation study (one mesh, rings at 4.5 and 6) ==")
for ts in sa.truncation_study(g, mat, [4.5, 6.0, 9.0], h=0.4, refinements=1,
                              k=1):
    v = ts.values[:, 0]
    print(f"  {ts.operator:<12} lambda_1(L): " +
          "  ".join(f"{x:+.7f}" for x in v))
    print(f"  {'':<12} deltas: " +
          "  ".join(f"{d:.2e}" for d in ts.deltas[:, 0]) +
          f"   monotone: {bool(np.all(np.diff(v) <= 1e-9))}")
