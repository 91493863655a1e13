"""Graph builders: trees, paths, cycles, roses, cage graphs and epsilon-nets
of hyperbolic balls (with an optional rotational symmetry giving an exact
deck action paired with a target isometry).  A net comes with its points as
one (n, N+1) array `images` in the order of `graph.vertices`.

Both nets come from one greedy construction, `_orbit_net`, which draws at
most MAX_NET_DRAWS sample points.  Every distance test it makes, for
acceptance and for edges, goes through one pair search, `_pairs_within`,
which buckets points in a grid on their log-map coordinates at the
basepoint so that a point meets only its neighbours; `hyp.dist` decides
each pair.  The log map at a point of a CAT(0) space does not increase
distances, so cells as wide as the threshold hold every partner of a
point among the 3^n cells around its own.
"""

from __future__ import annotations

import math

import numpy as np

from . import hyperboloid as hyp
from .errors import ConfigurationError
from .mmgraph import MMGraph

# the most sample points a ball net draws (an (N+1)-float row each)
MAX_NET_DRAWS = 2_000_000


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

def ball_volume(n, radius):
    """Volume of a radius-R ball in H^n (unit-sphere area times sinh integral)."""
    omega = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
    grid = np.linspace(0, radius, 4096)
    return float(omega * np.trapezoid(np.sinh(grid) ** (n - 1), grid))


def _sample_ball(rng, n, radius, count):
    """Points roughly uniform in a hyperbolic ball: sinh^(n-1) radial law.

    The draws are made one point at a time (a direction, then a radius), so
    the stream of random numbers does not depend on `count`; the
    normalisation, the inverse CDF and the exponential map are then applied
    to the whole batch, with cosh and sinh taken from libm element by
    element.  Each direction is drawn straight into its row of `vel` by
    `standard_normal(out=...)`, and each level by `random()`: the doubles of
    `rng.normal(size=n)` and `rng.uniform()`, with less overhead per call.
    The rows are then divided by their norms, the square root of each
    row's dot product with itself taken by a stack of (1, n) @ (n, 1)
    products: the kernel of `u.dot(u)`, so the directions are the ones a
    per-draw `u / sqrt(u.dot(u))` gives, bit for bit.
    """
    vel = np.zeros((count, n + 1))
    level = np.empty(count)
    grid = np.linspace(0, radius, 4096)
    density = np.sinh(grid) ** (n - 1)
    cdf = np.cumsum(density)
    cdf /= cdf[-1]
    normal, uniform = rng.standard_normal, rng.random
    for i in range(count):
        normal(out=vel[i, 1:])
        level[i] = uniform()
    u = vel[:, 1:]
    u /= np.sqrt((u[:, None, :] @ u[:, :, None])[:, 0, 0])[:, None]
    u *= np.interp(level, cdf, grid)[:, None]
    # hyp.exp at the basepoint o: cosh(theta) o + (sinh(theta) / theta) v
    theta = np.sqrt(np.maximum(hyp.minkowski_dot(vel, vel), 0.0))
    vel *= np.fromiter((math.sinh(t) / t if t >= 1e-300 else 0.0 for t in theta.tolist()),
                       float, count)[:, None]
    vel[:, 0] += np.fromiter(map(math.cosh, theta.tolist()), float, count)
    return hyp.project_to_sheet(vel)


def _log_coordinates(x):
    """log_o x at the basepoint o, as (m, n) coordinates: asinh(|x'|) x' / |x'|
    with x' = x[1:], and 0 at o."""
    spatial = x[:, 1:]
    norm = np.sqrt(np.einsum("ij,ij->i", spatial, spatial))
    return spatial * (np.arcsinh(norm) / np.where(norm > 0, norm, 1.0))[:, None]


def _pairs_within(a, b, threshold):
    """(i, j, d) arrays, in row-major order, of every d = hyp.dist(a[i], b[j])
    with d <= threshold.

    Candidates come from a grid on the log-map coordinates v = log_o x at
    the basepoint o.  In a CAT(0) space log_o does not increase distances
    (Bridson-Haefliger, II.1.7 and II.4), so |v_p - v_q| <= d(p, q): a pair
    within `threshold` lies in one cell or in adjacent cells of side
    `threshold`, and hyp.dist decides among the pairs of neighbouring
    cells.  At the rim of a radius-2 ball in H^3 such a cell is about 4x
    smaller in hyperbolic volume than a cell of side threshold / 2 on
    Poincare-ball coordinates, whose metric factor 2 / (1 - |u|^2) grows
    towards the rim.

    The side is widened by 1e-9 of the threshold, for the rounding of the
    distance, and by 2^-44 max(x0)^2.  That covers the rounding of v (a few
    ulps of |v| <= x0) and the gap between a point x and the sheet point
    (sqrt(1 + |x'|^2), x') whose exact log is v: it moves the distance by at
    most 2 |<x,x> + 1|, and points that `hyp.project_to_sheet` rounded onto
    the sheet lie within a few 2^-52 x0^2 of it.  Cells are no smaller than
    4 max|v| / 2^(62 // n), so at most 2^(62 // n - 1) + 3 of them span an
    axis and the n-axis cell keys stay in int64.  Keys have weight 1 along
    axis 0, so the three cells of a neighbourhood along it are one key
    range: a point reads 3^(n-1) ranges of the sorted keys, not 3^n cells.
    """
    n = a.shape[1] - 1
    if len(a) == 0 or len(b) == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    va, vb = _log_coordinates(a), _log_coordinates(b)
    extent = max(np.abs(va).max(), np.abs(vb).max())
    x0 = max(a[:, 0].max(), b[:, 0].max())
    side = max(threshold * (1 + 1e-9) + 2.0 ** -44 * x0 * x0,
               4.0 * extent / 2.0 ** (62 // n))
    cell_a = np.floor(va / side).astype(np.int64)
    cell_b = np.floor(vb / side).astype(np.int64)
    # one key per cell, with a free layer of cells around every axis so that
    # the 3^n neighbours of a cell never wrap into another row of the grid
    low = np.minimum(cell_a.min(axis=0), cell_b.min(axis=0)) - 1
    span = np.maximum(cell_a.max(axis=0), cell_b.max(axis=0)) - low + 2
    weight = np.cumprod(np.concatenate(([1], span[:-1])))
    key_a = (cell_a - low) @ weight
    key_b = (cell_b - low) @ weight
    steps = (np.indices((3,) * (n - 1)).reshape(n - 1, -1).T - 1) @ weight[1:]
    by_key = np.argsort(key_b, kind="stable")
    sorted_keys = key_b[by_key]
    cells = key_a[:, None] + steps
    start = np.searchsorted(sorted_keys, cells - 1, side="left")
    count = np.searchsorted(sorted_keys, cells + 1, side="right") - start
    per_row = count.sum(axis=1)
    reached = np.cumsum(per_row)
    found = []
    # blocks of whole rows holding about 4096 candidate pairs keep the
    # temporaries near 128 KB; larger ones raised the peak resident set
    lo = 0
    while lo < len(a):
        base = reached[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(reached, base + 4096, side="right")))
        c, s = count[lo:hi].ravel(), start[lo:hi].ravel()
        # positions s .. s + c - 1 of every cell, cell after cell
        pos = np.arange(c.sum()) + np.repeat(s - np.cumsum(c) + c, c)
        i = np.repeat(np.arange(lo, hi), per_row[lo:hi])
        j = by_key[pos]
        d = hyp.dist(a[i], b[j])
        hit = np.flatnonzero(d <= threshold)
        hit = hit[np.lexsort((j[hit], i[hit]))]
        found.append((i[hit], j[hit], d[hit]))
        lo = hi
    return tuple(np.concatenate(col) for col in zip(*found))


def _rotate(rot, points):
    """rot @ p for each row p, summed column by column in the order of a
    matrix-vector product (a matrix-matrix product may fuse multiply-adds
    and round differently)."""
    out = points[:, :1] * rot[:, 0]
    for k in range(1, rot.shape[1]):
        out += points[:, k:k + 1] * rot[:, k]
    return out


# A candidate whose step 0 lies this little beyond `spacing` from the kept
# points has its whole orbit measured; the rounding that separates
# d(rot^k p, K) from d(p, K) is of order 1e-14.
_ORBIT_BAND = 1e-9


def _orbit_net(rng, order, n, radius, spacing, edge_factor, oversample):
    """Greedy net of a hyperbolic ball made of orbits of the rotation `rot`
    by 2*pi/order in the last two coordinates.

    Samples are taken in order; an orbit is kept when it is spacing-separated
    from itself and from every orbit kept before it.  The kept set K is a
    union of whole orbits, so d(rot^k p, K) = d(p, K) up to rounding and only
    step 0 of a candidate is measured against K; the whole orbit is measured
    only where that distance lies within `_ORBIT_BAND` above `spacing`.  Per
    batch of samples, `_pairs_within` finds the kept points near each
    candidate and the conflicts among the candidates, which a sequential
    greedy pass then settles.

    Returns (orbits, edges, rot): the (m, order, n+1) orbit points and the
    edges within edge_factor * spacing on (orbit, step) ids.  A net that
    would draw more than MAX_NET_DRAWS samples is a ConfigurationError,
    raised before any is drawn.
    """
    rot = hyp.rotation(2 * math.pi / order, n, i=n - 1, j=n)
    # float64 powers and quotients leave the float range as inf or 0, not an exception
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        draws = oversample * ball_volume(n, radius) / np.float64(spacing) ** n / order
    if not draws <= MAX_NET_DRAWS:
        raise ConfigurationError(f"radius {radius!r}, spacing {spacing!r} and dim {n} make a net "
                                 f"of {draws:.4g} draws, over the cap of {MAX_NET_DRAWS}")
    target = max(200, int(draws))
    samples = _sample_ball(rng, n, radius, target)
    kept = np.empty((64, order, n + 1))
    filled = 0
    upper = np.triu(np.ones((order, order), dtype=bool), 1)
    reach = spacing + _ORBIT_BAND
    for lo in range(0, len(samples), 1024):
        batch = np.empty((min(1024, len(samples) - lo), order, n + 1))
        batch[:, 0] = samples[lo:lo + 1024]
        for k in range(1, order):
            batch[:, k] = hyp.project_to_sheet(_rotate(rot, batch[:, k - 1]))
        internal = hyp.dist_many(batch[:, :, None, :], batch[:, None, :, :])
        cand = batch[np.all(internal[:, upper] >= spacing, axis=1)]
        # distance from step 0 to the nearest orbit kept before the batch
        # (inf beyond reach); those closer than spacing are out for good
        nearest = np.full(len(cand), np.inf)
        i, _, d = _pairs_within(cand[:, 0], kept[:filled].reshape(-1, n + 1), reach)
        np.minimum.at(nearest, i, d)
        alive = nearest >= spacing
        cand, nearest = cand[alive], nearest[alive]
        # step 0 of each candidate against every step of the others, read in
        # sample order against the candidates kept so far
        i, j, d = _pairs_within(cand[:, 0], cand.reshape(-1, n + 1), reach)
        j //= order
        bounds = np.searchsorted(i, np.arange(len(cand) + 1)).tolist()
        taken = np.zeros(len(cand), dtype=bool)
        for c, orbit in enumerate(cand):
            near = d[bounds[c]:bounds[c + 1]][taken[j[bounds[c]:bounds[c + 1]]]]
            dmin = min(nearest[c], near.min(initial=np.inf))
            if dmin < spacing:
                continue
            if dmin < reach and np.min(hyp.dist(
                    orbit[:, None, :], kept[:filled].reshape(-1, n + 1))) < spacing:
                continue
            if filled == len(kept):
                kept = np.concatenate([kept, np.empty_like(kept)])
            kept[filled] = orbit
            filled += 1
            taken[c] = True
    orbits = kept[:filled]
    del samples, batch, internal, cand
    # representative edges computed once per orbit pair, then rotated, so the
    # edge set and lengths are exactly invariant under the step shift
    edges = []
    pairs = _pairs_within(orbits[:, 0], orbits.reshape(-1, n + 1), edge_factor * spacing)
    for o1, col, d in zip(*(column.tolist() for column in pairs)):
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
    before.  Returns (graph, images): vertex i is the net point images[i]
    of H^n, an (m, n+1) array; vertices carry unit measure, edges join net
    points within edge_factor * spacing and carry their exact hyperbolic
    length.
    """
    orbits, edges, _ = _orbit_net(rng, 1, n, radius, spacing, edge_factor, oversample)
    graph = MMGraph(list(range(len(orbits))), [(u, v, d) for (u, _), (v, _), d in edges])
    return graph, orbits[:, 0]


def rotation_symmetric_net(rng, order=4, n=3, radius=2.0, spacing=0.35,
                           edge_factor=2.0, oversample=30):
    """Ball net invariant under a cyclic rotation, with the exact deck data.

    The net is built from orbits of a rotation by 2*pi/order in the last two
    coordinates; vertex (o, s) is step s of orbit o, and it is the point
    images[o * order + s] of H^n.  Edge lengths and the vertex permutation
    `deck` (a dict of vertex ids) are replicated across orbits, so the deck
    map preserves the graph exactly (not just to rounding).  Returns (graph,
    images, deck, rotation_matrix).
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    orbits, edges, rot = _orbit_net(rng, order, n, radius, spacing, edge_factor, oversample)
    vertices = [(o, s) for o in range(len(orbits)) for s in range(order)]
    graph = MMGraph(vertices, edges)
    deck = {(o, s): (o, (s + 1) % order) for o, s in vertices}
    return graph, orbits.reshape(-1, n + 1), deck, rot
