"""Graph fixtures: trees, paths, cycles, roses, cage graphs and epsilon-nets
of hyperbolic balls (with an optional rotational symmetry giving an exact
deck action paired with a target isometry).
"""

from __future__ import annotations

import math

import numpy as np

from . import hyperboloid as hyp
from .mmgraph import MMGraph


def regular_tree(k: int, depth: int, edge_length: float = 1.0) -> MMGraph:
    """k-regular tree truncated at the given depth, unit vertex measure.

    Interior vertices have degree k; the root sees the exact infinite-tree
    ball counts up to radius `depth`.
    """
    if k < 2 or depth < 1:
        raise ValueError("need k >= 2 and depth >= 1")
    vertices = [0]
    edges = []
    frontier = [0]
    next_id = 1
    for level in range(depth):
        new_frontier = []
        for v in frontier:
            children = k if level == 0 else k - 1
            for _ in range(children):
                vertices.append(next_id)
                edges.append((v, next_id, edge_length))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return MMGraph(vertices, edges)


def path_graph(n: int, edge_length: float = 1.0) -> MMGraph:
    return MMGraph(list(range(n)), [(i, i + 1, edge_length) for i in range(n - 1)])


def cycle_graph(n: int, edge_length: float = 1.0) -> MMGraph:
    edges = [(i, (i + 1) % n, edge_length) for i in range(n)]
    return MMGraph(list(range(n)), edges)


def rose_graph(petals: int, edge_length: float = 1.0) -> MMGraph:
    """Single vertex with `petals` loops; universal cover is the 2p-regular tree."""
    return MMGraph([0], [(0, 0, edge_length) for _ in range(petals)])


def lcf_graph(n: int, pattern, repeats: int, edge_length: float = 1.0) -> MMGraph:
    """Cubic graph from LCF notation: an n-cycle plus chords i -> i + a."""
    if len(pattern) * repeats != n:
        raise ValueError("pattern length times repeats must equal n")
    edges = [(i, (i + 1) % n, edge_length) for i in range(n)]
    seen = set()
    for i in range(n):
        a = pattern[i % len(pattern)]
        j = (i + a) % n
        key = (min(i, j), max(i, j))
        if key not in seen:
            seen.add(key)
            edges.append((i, j, edge_length))
    return MMGraph(list(range(n)), edges)


def tutte_coxeter_graph(edge_length: float = 1.0) -> MMGraph:
    """The 30-vertex cubic cage of girth 8; balls match the 3-regular tree
    exactly up to radius 3."""
    return lcf_graph(30, [-13, -9, 7, -7, 9, 13], 5, edge_length)


def heawood_graph(edge_length: float = 1.0) -> MMGraph:
    """The 14-vertex cubic cage of girth 6."""
    return lcf_graph(14, [5, -5], 7, edge_length)


# ---------------------------------------------------------------------------
# hyperbolic ball nets
# ---------------------------------------------------------------------------

def _closer_than(points, others, spacing):
    """Whether some row of `points` lies closer than `spacing` to some row of
    `others`, as `hyp.dist_many` measures it, row by row with early exit.

    dist_many runs only on the rows q of `others` with -<p, q>_M within
    cosh(spacing) + 1e-9 * p0 * q0.  Any q that dist_many puts closer than
    `spacing` passes: -<p, q>_M is cosh of the distance, and both sides
    carry rounding of order 1e-15 * p0 * q0.  So the answer is the one
    dist_many gives on all of `others`.
    """
    flip = np.ones(points.shape[-1])
    flip[0] = -1.0
    for p in points:
        mink = others @ (p * flip)
        near = others[mink >= -(math.cosh(spacing) + 1e-9 * p[0] * others[:, 0])]
        if len(near) and np.min(hyp.dist_many(p, near)) < spacing:
            return True
    return False


def ball_volume(n, radius):
    """Volume of a radius-R ball in H^n (unit-sphere area times sinh integral)."""
    omega = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
    grid = np.linspace(0, radius, 4096)
    return float(omega * np.trapezoid(np.sinh(grid) ** (n - 1), grid))


def _sample_ball(rng, n, radius, count):
    """Points roughly uniform in a hyperbolic ball: sinh^(n-1) radial law.

    The draws are made one point at a time (a direction, then a radius), so
    the stream of random numbers does not depend on `count`; the
    exponential map is then applied to the whole batch, with cosh and sinh
    taken from libm element by element.
    """
    vel = np.zeros((count, n + 1))
    grid = np.linspace(0, radius, 4096)
    density = np.sinh(grid) ** (n - 1)
    cdf = np.cumsum(density)
    cdf /= cdf[-1]
    for i in range(count):
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        vel[i, 1:] = float(np.interp(rng.uniform(), cdf, grid)) * u
    # hyp.exp at the basepoint o: cosh(theta) o + (sinh(theta) / theta) v
    theta = np.sqrt(np.maximum(hyp.minkowski_dot(vel, vel), 0.0))
    vel *= np.fromiter((math.sinh(t) / t if t >= 1e-300 else 0.0 for t in theta.tolist()),
                       float, count)[:, None]
    vel[:, 0] += np.fromiter(map(math.cosh, theta.tolist()), float, count)
    return hyp.project_to_sheet(vel)


def _close_pairs(rows, points, threshold):
    """(i, j, d) for every d = dist(rows[i], points[j]) <= threshold, in
    row-major order, from distance blocks of a few rows at a time."""
    # ~4096 pairs keep each temporary near 128 KB; larger blocks made the
    # resident set grow from one fixture build to the next
    block = max(1, 4096 // len(points))
    for lo in range(0, len(rows), block):
        d = hyp.dist_many(rows[lo:lo + block, None, :], points)
        i, j = np.nonzero(d <= threshold)
        yield from zip((i + lo).tolist(), j.tolist(), d[i, j].tolist())


def _rotate(rot, points):
    """rot @ p for each row p, summed column by column in the order of a
    matrix-vector product (a matrix-matrix product may fuse multiply-adds
    and round differently)."""
    out = points[:, :1] * rot[:, 0]
    for k in range(1, rot.shape[1]):
        out += points[:, k:k + 1] * rot[:, k]
    return out


def _orbit_net(rng, order, n, radius, spacing, edge_factor, oversample):
    """Greedy net of a hyperbolic ball made of orbits of the rotation `rot`
    by 2*pi/order in the last two coordinates.

    Returns (orbits, edges, rot): the (m, order, n+1) orbit points and the
    edges within edge_factor * spacing on (orbit, step) ids.
    """
    rot = hyp.rotation(2 * math.pi / order, n, i=n - 1, j=n)
    target = max(200, int(oversample * ball_volume(n, radius) / spacing**n / order))
    samples = _sample_ball(rng, n, radius, target)
    # orbit representatives kept, in sample order, when the whole orbit is
    # spacing-separated from itself and from every orbit kept before it
    kept = np.empty((64, order, n + 1))
    filled = 0
    upper = np.triu(np.ones((order, order), dtype=bool), 1)
    for lo in range(0, len(samples), 1024):
        batch = np.empty((min(1024, len(samples) - lo), order, n + 1))
        batch[:, 0] = samples[lo:lo + 1024]
        for k in range(1, order):
            batch[:, k] = hyp.project_to_sheet(_rotate(rot, batch[:, k - 1]))
        internal = hyp.dist_many(batch[:, :, None, :], batch[:, None, :, :])
        separated = np.all(internal[:, upper] >= spacing, axis=1)
        for orbit in batch[separated]:
            if filled and _closer_than(orbit, kept[:filled].reshape(-1, n + 1), spacing):
                continue
            if filled == len(kept):
                kept = np.concatenate([kept, np.empty_like(kept)])
            kept[filled] = orbit
            filled += 1
    orbits = kept[:filled]
    del samples, batch, internal
    # representative edges computed once per orbit pair, then rotated, so the
    # edge set and lengths are exactly invariant under the step shift
    edges = []
    for o1, col, d in _close_pairs(orbits[:, 0], orbits.reshape(-1, n + 1),
                                   edge_factor * spacing):
        o2, s = divmod(col, order)
        if o2 < o1:
            continue
        if o1 == o2:
            # orbit-internal chord of step s: count each pair once
            if s == 0 or s > order - s:
                continue
            shifts = range(order // 2) if 2 * s == order else range(order)
        else:
            shifts = range(order)
        for shift in shifts:
            edges.append(((o1, shift), (o2, (s + shift) % order), d))
    return orbits, edges, rot


def hyperbolic_ball_net(rng, n=3, radius=2.0, spacing=0.35, edge_factor=2.0,
                        oversample=30):
    """Epsilon-net of a hyperbolic ball as a metric measure graph.

    This is the order-1 rotation net with integer vertex ids: sample points
    are kept greedily when they lie at least `spacing` from every point kept
    before.  Returns (graph, embedding) where embedding maps vertex ids to
    H^n coordinate arrays; vertices carry unit measure, edges join net
    points within edge_factor * spacing and carry their exact hyperbolic
    length.
    """
    orbits, edges, _ = _orbit_net(rng, 1, n, radius, spacing, edge_factor, oversample)
    graph = MMGraph(list(range(len(orbits))), [(u, v, d) for (u, _), (v, _), d in edges])
    return graph, dict(enumerate(orbits[:, 0]))


def rotation_symmetric_net(rng, order=4, n=3, radius=2.0, spacing=0.35,
                           edge_factor=2.0, oversample=30):
    """Ball net invariant under a cyclic rotation, with the exact deck data.

    The net is built from orbits of a rotation by 2*pi/order in the last two
    coordinates; vertex (o, s) is step s of orbit o.  Edge lengths and the
    vertex permutation `deck` are replicated across orbits, so the deck map
    preserves the graph exactly (not just to rounding).  Returns (graph,
    embedding, deck, rotation_matrix).
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    orbits, edges, rot = _orbit_net(rng, order, n, radius, spacing, edge_factor, oversample)
    vertices = [(o, s) for o in range(len(orbits)) for s in range(order)]
    embedding = {(o, s): orbits[o, s] for o, s in vertices}
    graph = MMGraph(vertices, edges)
    deck = {(o, s): (o, (s + 1) % order) for o, s in vertices}
    return graph, embedding, deck, rot
