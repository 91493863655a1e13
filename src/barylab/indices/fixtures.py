"""Complexes, covers and subgroups used by the index and coarea tests."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from .simplicial import PLMap, Pseudomanifold, SimplicialMap


def _equilateral_chart():
    return np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])


def octahedron() -> Pseudomanifold:
    """Triangulated 2-sphere: vertices 1..6 on the axes, 8 oriented faces."""
    faces = [
        (1, 2, 3), (2, 4, 3), (4, 5, 3), (5, 1, 3),
        (2, 1, 6), (4, 2, 6), (5, 4, 6), (1, 5, 6),
    ]
    charts = [_equilateral_chart() for _ in faces]
    return Pseudomanifold(2, faces, charts)


def octahedron_identity() -> SimplicialMap:
    """The identity of the octahedron: degree 1, one preimage everywhere."""
    sphere = octahedron()
    return SimplicialMap(sphere, sphere, {v: v for v in sphere.vertices})


def octahedron_reflection() -> SimplicialMap:
    """Swap the poles: an orientation-reversing simplicial homeomorphism."""
    sphere = octahedron()
    vmap = {1: 1, 2: 2, 3: 6, 4: 4, 5: 5, 6: 3}
    # the image complex is the same octahedron; faces map onto faces with
    # reversed orientation
    return SimplicialMap(sphere, sphere, vmap)


def torus_grid(m: int, n: int) -> Pseudomanifold:
    """Flat torus from an m-by-n grid, two right triangles per cell."""
    if m < 3 or n < 3:
        raise ValueError("need m, n >= 3 for a simplicial torus")
    faces = []
    charts = []
    lower = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    upper = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for i in range(m):
        for j in range(n):
            a = (i, j)
            b = ((i + 1) % m, j)
            c = ((i + 1) % m, (j + 1) % n)
            d = (i, (j + 1) % n)
            faces.append((a, b, c))
            charts.append(lower.copy())
            faces.append((a, c, d))
            charts.append(upper.copy())
    return Pseudomanifold(2, faces, charts)


def torus_cover_map(k: int, m: int = 3, n: int = 3) -> SimplicialMap:
    """The k-sheeted torus covering (i, j) -> (i mod m, j)."""
    total = torus_grid(k * m, n)
    base = torus_grid(m, n)
    vmap = {(i, j): (i % m, j) for (i, j) in total.vertices}
    return SimplicialMap(total, base, vmap)


def circle(n: int) -> Pseudomanifold:
    """Oriented n-gon circle as a 1-pseudomanifold with unit-length charts."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    charts = [np.array([[0.0], [1.0]]) for _ in edges]
    return Pseudomanifold(1, edges, charts)


def circle_cover_map(k: int, n: int = 3) -> SimplicialMap:
    total = circle(k * n)
    base = circle(n)
    return SimplicialMap(total, base, {i: i % n for i in range(k * n)})


def sphere_double_wrap() -> SimplicialMap:
    """Suspension of the hexagon wrapped twice around the suspension of the
    triangle: every generic point has two preimages, the degree is 2, while
    the induced map on (trivial) fundamental groups has index 1."""
    hexagon = [(100, i, (i + 1) % 6) for i in range(6)]
    hexagon += [(200, (i + 1) % 6, i) for i in range(6)]
    dom_charts = [_equilateral_chart() for _ in hexagon]
    domain = Pseudomanifold(2, hexagon, dom_charts)
    triangle = [(100, i, (i + 1) % 3) for i in range(3)]
    triangle += [(200, (i + 1) % 3, i) for i in range(3)]
    tgt_charts = [_equilateral_chart() for _ in triangle]
    target = Pseudomanifold(2, triangle, tgt_charts)
    vmap = {100: 100, 200: 200}
    vmap.update({i: i % 3 for i in range(6)})
    return SimplicialMap(domain, target, vmap)


def grid_disk(m: int, jitter=0.0, rng=None):
    """Triangulated unit square with optionally jittered interior vertices.

    Returns a bounded (non-closed) pseudomanifold with global planar charts
    taken per triangle from the (jittered) vertex positions.
    """
    rng = np.random.default_rng(rng)
    coords = {}
    for i in range(m + 1):
        for j in range(m + 1):
            p = np.array([i / m, j / m])
            if jitter and 0 < i < m and 0 < j < m:
                p = p + rng.uniform(-jitter / m, jitter / m, size=2)
            coords[(i, j)] = p
    faces = []
    charts = []
    for i in range(m):
        for j in range(m):
            a, b = (i, j), (i + 1, j)
            c, d = (i + 1, j + 1), (i, j + 1)
            for tri in ((a, b, c), (a, c, d)):
                X = np.array([coords[v] for v in tri])
                if np.linalg.det(X[1:] - X[0]) < 0:
                    tri = (tri[0], tri[2], tri[1])
                    X = np.array([coords[v] for v in tri])
                faces.append(tri)
                charts.append(X)
    return Pseudomanifold(2, faces, charts, closed=False), coords


def jittered_pl_map(m: int, amplitude: float, rng=None) -> PLMap:
    """Random PL self-map of the square: regular domain geometry, jittered
    vertex images (folds allowed; the coarea identity holds regardless)."""
    rng = np.random.default_rng(rng)
    domain, coords = grid_disk(m)
    images = {}
    for (i, j), p in coords.items():
        q = p.copy()
        if 0 < i < m and 0 < j < m:
            q = q + rng.uniform(-amplitude / m, amplitude / m, size=2)
        images[(i, j)] = q
    return PLMap(domain, images)


def identity_pl_map(m: int) -> PLMap:
    domain, coords = grid_disk(m)
    return PLMap(domain, dict(coords))


def cyclic_cover_subgroup(k: int):
    """Generators of the index-k kernel of F(a, b) -> Z/k, a -> 1, b -> 0."""
    gens = ["a" * k]
    for i in range(k):
        gens.append("a" * i + "b" + "A" * i)
    return gens


_SPECS = {
    "torus_cover": lambda spec, rng: (
        torus_cover_map(spec.get("k", 2)),
        {"subgroup": {"rank": 2, "generators": cyclic_cover_subgroup(spec.get("k", 2))}}),
    "sphere_double_wrap": lambda spec, rng: (sphere_double_wrap(), {"declared_ind_pi": 1}),
    "octahedron_identity": lambda spec, rng: (octahedron_identity(), {}),
    "identity_pl": lambda spec, rng: (identity_pl_map(spec.get("m", 4)), {}),
    "jittered_pl": lambda spec, rng: (
        jittered_pl_map(spec.get("m", 6), spec.get("amplitude", 0.8), rng=rng), {}),
}


def from_spec(spec, rng=None):
    """(map, data) for a JSON spec such as {"type": "torus_cover", "k": 3}:
    a SimplicialMap or PLMap, and the fixture's known invariants
    ("subgroup", "declared_ind_pi")."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind not in _SPECS:
        raise ConfigurationError(f"unknown fixture {spec!r}; types are {sorted(_SPECS)}")
    return _SPECS[kind](spec, rng)
