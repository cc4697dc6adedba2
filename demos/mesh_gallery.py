"""Mesh every catalog geometry, report quality, and render SVG pictures."""

import math
import os

from leakyfem import geometry, meshing

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)


def render(mesh, path, width=520):
    """Render triangles, interface edges, and Dirichlet edges to SVG."""
    xs = mesh.nodes[:, 0]
    ys = mesh.nodes[:, 1]
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    s = (width - 20) / max(x1 - x0, y1 - y0)
    H = int((y1 - y0) * s) + 20

    def pt(i):
        return (10 + (xs[i] - x0) * s, H - 10 - (ys[i] - y0) * s)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{H}">',
             f'<rect width="{width}" height="{H}" fill="white"/>']
    for a, b, c in mesh.triangles:
        p = " ".join("%.1f,%.1f" % pt(i) for i in (a, b, c))
        parts.append(f'<polygon points="{p}" fill="none" stroke="#bbbbbb" '
                     'stroke-width="0.4"/>')
    for (u, v) in mesh.boundary_edges[mesh.boundary_dirichlet]:
        (xa, ya), (xb, yb) = pt(u), pt(v)
        parts.append(f'<line x1="{xa:.1f}" y1="{ya:.1f}" x2="{xb:.1f}" '
                     f'y2="{yb:.1f}" stroke="#444444" stroke-width="1"/>')
    for (u, v) in mesh.iface_edges:
        (xa, ya), (xb, yb) = pt(u), pt(v)
        parts.append(f'<line x1="{xa:.1f}" y1="{ya:.1f}" x2="{xb:.1f}" '
                     f'y2="{yb:.1f}" stroke="#d62728" stroke-width="1.6"/>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


cases = [
    ("broken_line", geometry.make_broken_line(math.pi / 4, 4.0), 0.5, None),
    ("circle", geometry.make_circle(1.0, (0.0, 0.0), 4.0, 64), 0.35, None),
    ("line_plus_circle",
     geometry.make_line_plus_circle(2.5, 1.0, 6.0, 48), 0.5, None),
    ("cone_meridian", geometry.make_cone_meridian(math.pi / 6, 4.0), 0.4, None),
    ("broken_line_rings", geometry.make_broken_line(math.pi / 4, 8.0), 0.8,
     [4.0, 6.0]),
]

for name, g, h, rings in cases:
    mesh = meshing.triangulate(g, h, inner_rings=rings)
    stats = meshing.check_mesh(mesh, g)
    print(f"{name:<20} nodes={stats['nodes']:<6} triangles="
          f"{stats['triangles']:<6} min angle {stats['min_angle_deg']:.2f} "
          f"deg, max edge {stats['max_edge']:.3f}")
    render(mesh, os.path.join(OUT, f"{name}.svg"))

print(f"\nwrote SVG renderings to {OUT}/")
