"""Built-in fixtures: hyperbolic ball nets for `naturalmap`, and the
complexes, covers, subgroups and maps of the index and coarea checks.

FIXTURES declares every type a command can name in
`{"fixture": {"type": ..., ...}}` once: what it builds (a net, a
simplicial map or a PL map), its builder, and each field with its default
and domain.  `from_spec` reads that table.  Every field, naturalmap's own
included, goes through one checker, `check_field`: a finite JSON number,
not a bool, inside its domain, else a ConfigurationError naming the field.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import graphs
from .errors import ConfigurationError
from .indices.simplicial import PLMap, Pseudomanifold, SimplicialMap


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


def grid_disk(m: int):
    """Triangulated unit square, vertex (i, j) at (i / m, j / m).

    Returns a bounded (non-closed) pseudomanifold with global planar charts
    taken per triangle from the vertex positions, and those positions.
    """
    coords = {(i, j): np.array([i / m, j / m]) for i in range(m + 1) for j in range(m + 1)}
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


# ---------------------------------------------------------------------------
# fields and the fixture table
# ---------------------------------------------------------------------------

def _number(x):
    """A JSON number that is not a bool and is finite as a float."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and -sys.float_info.max <= x <= sys.float_info.max)


# a domain is (its text in an error, its predicate)
NUMBER = ("a finite number", _number)
POSITIVE = ("a positive number", lambda x: _number(x) and x > 0)
NUMBERS = ("a non-empty list of finite numbers",
           lambda x: isinstance(x, list) and len(x) > 0 and all(map(_number, x)))


def interval(low, high=math.inf, integer=False):
    """The domain of the numbers (integers if `integer`) in [low, high]."""
    text = ("an integer" if integer else "a number") + (
        f" >= {low}" if high == math.inf else f" in [{low}, {high}]")
    return text, lambda x: _number(x) and (isinstance(x, int) or not integer) and low <= x <= high


def check_field(name, value, domain):
    """`value` if it lies in `domain`, else a ConfigurationError such as
    "k must be an integer >= 1, not 2.5"."""
    if not domain[1](value):
        raise ConfigurationError(f"{name} must be {domain[0]}, not {value!r}")
    return value


def read_fields(spec, fields, what):
    """{name: the checked value the JSON object `spec` gives, else the
    default} for `fields`, {name: (default, domain)}; other keys are ignored."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{what} must be a JSON object, not {spec!r}")
    return {name: check_field(name, spec[name], domain) if name in spec else default
            for name, (default, domain) in fields.items()}


# type -> (what it builds, {field: (default, domain)}, builder(seed, **fields)):
# a net builds (graph, images, deck, rot), a map (map, its known invariants).
# Net builders look graphs.* up when called, so a wrapper on the module
# attribute sees every call.  Upper bounds keep a build at desk scale: a net
# point meets 3^dim grid cells; order 16 peaks at 60 MB (64: 325 MB); the
# README net's 1880 vertices get 1.0e5 edges in 79 MB at edge_factor 4 (8:
# 6.8e5 edges, 314 MB), and none below 1, its points lying spacing apart;
# k 200 and m 200 take 6-8 s at 200 samples; amplitudes past 1e150 give a
# NaN gap.
_NET = {"dim": (3, interval(2, 6, True)), "radius": (2.0, POSITIVE),
        "spacing": (0.3, POSITIVE), "edge_factor": (2.0, interval(1, 4))}
FIXTURES = {
    "rotation_net": ("net", {**_NET, "order": (4, interval(2, 16, True))},
                     lambda seed, dim, **shape: graphs.rotation_symmetric_net(
                         np.random.default_rng(seed), n=dim, **shape)),
    "ball_net": ("net", _NET, lambda seed, dim, **shape: (*graphs.hyperbolic_ball_net(
        np.random.default_rng(seed), n=dim, **shape), None, None)),
    "torus_cover": ("simplicial map", {"k": (2, interval(1, 200, True))}, lambda seed, k: (
        torus_cover_map(k), {"subgroup": {"rank": 2, "generators": cyclic_cover_subgroup(k)}})),
    "sphere_double_wrap": ("simplicial map", {},
                           lambda seed: (sphere_double_wrap(), {"declared_ind_pi": 1})),
    "octahedron_identity": ("simplicial map", {}, lambda seed: (octahedron_identity(), {})),
    "identity_pl": ("PL map", {"m": (4, interval(1, 200, True))},
                    lambda seed, m: (identity_pl_map(m), {})),
    "jittered_pl": ("PL map", {"m": (6, interval(1, 200, True)),
                               "amplitude": (0.8, interval(0, 100))},
                    lambda seed, m, amplitude: (jittered_pl_map(m, amplitude, seed), {})),
}


def from_spec(spec, rng=None, builds=("simplicial map", "PL map"), default=None):
    """The fixture a JSON spec such as {"type": "torus_cover", "k": 3} names,
    as its builder returns it; `rng` seeds the random ones.  The spec must
    be an object whose "type" (`default` if it has none) builds one of
    `builds`, and each declared field must lie in its domain; all of this
    is checked before anything is built."""
    kind = spec.get("type", default) if isinstance(spec, dict) else None
    types = [name for name, entry in FIXTURES.items() if entry[0] in builds]
    if not (isinstance(kind, str) and kind in FIXTURES):
        raise ConfigurationError(f"unknown fixture {spec!r}; types are {types}")
    made, fields, build = FIXTURES[kind]
    if kind not in types:
        raise ConfigurationError(f"fixture {kind} builds a {made}, not a {' or '.join(builds)}")
    return build(rng, **read_fields(spec, fields, "a fixture"))
