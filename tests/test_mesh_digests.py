"""The coarse meshes of the catalog geometries and of the two acceptance
configs, pinned by a digest of every array the solvers read.

A change to the triangulator's data structures or bookkeeping must leave
these meshes bit for bit as they are; a change that moves a vertex, a
triangle or a marker fails here before it shows up as a shifted eigenvalue.
"""

import hashlib
import math

import numpy as np
import pytest

from leakyfem import geometry as geo
from leakyfem import meshing

FIELDS = ("nodes", "triangles", "tri_region", "iface_edges", "iface_seg",
          "boundary_edges", "boundary_dirichlet")

# name -> (geometry, h, inner rings, sha256 of FIELDS)
CASES = {
    "broken_line": (
        lambda: geo.make_broken_line(math.pi / 4, 4.0), 0.5, None,
        "35805e209e8b5a59d5f3a992ed0c44b8a9de2a107308b4f840ad69a8d56368fd"),
    "circle": (
        lambda: geo.make_circle(1.0, (0.0, 0.0), 4.0, 64), 0.35, None,
        "9680257e8fd8257a49289db0677da60832d7f52fff48ca476c6d759679be0b8e"),
    "line_plus_circle": (
        lambda: geo.make_line_plus_circle(2.5, 1.0, 6.0, 48), 0.5, None,
        "a26a8b80a3dd2ddca852d5d7155bbf3b25755f5e668f50fda03ad934b1694a2e"),
    "cone_meridian": (
        lambda: geo.make_cone_meridian(math.pi / 6, 4.0), 0.4, None,
        "47dbc004c636e422a3b1aafabbdf324f1e46383de8fad881770d876083211be9"),
    # the coarse meshes of the borderline and circle strict acceptance runs
    "borderline": (
        lambda: geo.make_broken_line(math.pi / 4, 12.0), 0.5, [6.0, 9.0],
        "acd98493a2a3a4b1727bd3af4f3844266dfc5e7b57eced95b517d73e0956812a"),
    "circle_strict": (
        lambda: geo.make_circle(1.0, (0.0, 0.0), 3.5, 64), 0.15, [2.5],
        "d40995381517eeed46e222ce94c9f3404e9a859a3b3bb940f65c0a8cce7295e3"),
    # the ring meets the circle, and one missing piece of it is recovered
    # by a split at its midpoint
    "ring_recovery": (
        lambda: geo.make_line_plus_circle(1.0, 0.5, 4.0, 16), 1.0, [1.0],
        "72652808a19f0fa96b3abdc70fce2800f8d2279fafcba64a218167c5ed37e8a4"),
    # apexes so sharp that refinement near them works to half their angle
    "sharp_broken_line": (
        lambda: geo.make_broken_line(0.1, 4.0), 0.8, None,
        "1615153351e0f2209ebf7cc322776ed503407c72f5b1cc19a3ccff92ca1191c3"),
    "cone_sharp": (
        lambda: geo.make_cone_meridian(0.3, 4.0), 0.5, [2.0],
        "1a079eaaae7d0aff6c4f90443972af911f451edaec125182f33d54c60a97fc2a"),
}


def mesh_digest(mesh):
    h = hashlib.sha256()
    for name in FIELDS:
        a = np.ascontiguousarray(getattr(mesh, name))
        h.update(f"{name}:{a.dtype.str}:{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_coarse_mesh_digest(name):
    make, h, rings, digest = CASES[name]
    mesh = meshing.triangulate(make(), h, inner_rings=rings)
    assert mesh_digest(mesh) == digest


def sampled_configs(seed, n):
    """n (kind, geometry args, h, inner rings) drawn from seed: the four
    catalog kinds in turn, L in [2.5, 6] and h in [L/8, L/4]; broken lines
    and cones with theta in [0.1, 1.5]; circles of 16 chords, R in
    [0.5, 0.45 L], centred at (+-0.1 L, 0); a line plus a circle of 16
    chords, R in [0.3, 0.2 L], at a height in [1.2 R, 0.6 L].  Half the
    draws have one ring at 0.8-1.2 times the interface's extent (|cx| + R,
    height + R, or 0.2-0.9 L for the unbounded kinds), capped at 0.95 L."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        kind = ("broken_line", "circle", "line_plus_circle",
                "cone_meridian")[i % 4]
        L = float(rng.uniform(2.5, 6.0))
        h = L * float(rng.uniform(1 / 8, 1 / 4))
        if kind in ("broken_line", "cone_meridian"):
            args = (float(rng.uniform(0.1, 1.5)), L)
            extent = L * float(rng.uniform(0.2, 0.9))
        elif kind == "circle":
            R = float(rng.uniform(0.5, 0.45 * L))
            cx = 0.1 * L * float(rng.choice((-1.0, 1.0)))
            args = (R, (cx, 0.0), L, 16)
            extent = abs(cx) + R
        else:
            R = float(rng.uniform(0.3, 0.2 * L))
            height = float(rng.uniform(1.2 * R, 0.6 * L))
            args = (height, R, L, 16)
            extent = height + R
        ring = min(extent * float(rng.uniform(0.8, 1.2)), 0.95 * L)
        out.append((kind, args, h, [ring] if rng.random() < 0.5 else None))
    return out


# rings that meet chords of the interface at 33.75 deg, where refinement
# works down to the floor of 16.875 deg
CROSSINGS = [
    ("circle", (0.9394, (-0.3584, 0.0), 3.5838, 16), 0.5286, [1.0782]),
    ("circle", (0.5447, (-0.5874, 0.0), 5.8736, 16), 0.9887, [0.9771]),
    ("line_plus_circle", (1.0027, 0.5843, 3.9135, 16), 0.6112, [1.4295]),
    ("circle", (1.2, (0.0, 0.0), 4.0, 16), 1.0, [1.0]),
]
SAMPLE_DIGEST = (
    "1e9a3b7cf27b9c1b4285b32102f4072cbfec84d9e51889b0180e86b8dff9421d")


def test_sampled_mesh_digest():
    # one digest over the coarse meshes of a seeded sample, rings included,
    # and of the crossings above
    digest = hashlib.sha256()
    for kind, args, h, rings in sampled_configs(4242, 36) + CROSSINGS:
        g = getattr(geo, "make_" + kind)(*args)
        mesh = meshing.triangulate(g, h, inner_rings=rings)
        digest.update(mesh_digest(mesh).encode())
    assert digest.hexdigest() == SAMPLE_DIGEST
