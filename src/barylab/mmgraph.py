"""Metric measure graphs: shortest-path metric, vertex measures, finite
covers with deck actions, ball growth and volume-entropy estimation.

Graphs are immutable after construction.  Covers are built from voltage
assignments (a permutation of the sheet set per base edge), which gives a
programmable deck group with the covering property holding by construction;
deck transformations are found by lifting, each being fixed by the image of
one vertex.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DisconnectedCoverError,
    DisconnectedGraphError,
    GraphLookupError,
    NonFiniteInputError,
    WindowSaturationError,
)

# the largest (r_max - r_min) / step that volume_entropy accepts
MAX_RADII = 10_000
# distance_rows: labels and half-edges relaxed per block of a round, and
# labels relaxed at once (more sources are taken in chunks of whole rows)
BLOCK_HALF_EDGES = 1 << 14
CHUNK_LABELS = 1 << 18


def freeze_vertex(v):
    """A vertex id read from JSON: an array becomes a tuple, and an id that
    is still unhashable (an object, nested arrays) is a ValueError."""
    v = tuple(v) if isinstance(v, list) else v
    try:
        hash(v)
    except TypeError:
        raise ValueError(f"vertex id {v!r} is not hashable") from None
    return v


def _blocks(ends, total, cap):
    """Blocks of about `cap` half-edges of a frontier whose cumulative
    half-edge counts are `ends` (`total` in all), a vertex never split:
    (lo, hi, first, last) for frontier[lo:hi] and its half-edges
    first:last in frontier order."""
    if total <= cap:
        return [(0, len(ends), 0, total)]
    cuts = np.searchsorted(ends, np.arange(cap, total, cap), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [len(ends)])))
    offsets = np.concatenate(([0], ends))[bounds].tolist()
    bounds = bounds.tolist()
    return zip(bounds[:-1], bounds[1:], offsets[:-1], offsets[1:])


class MMGraph:
    """Connected weighted graph with a nonnegative vertex measure.

    Adjacency is one CSR structure over vertex indices, built once: the
    half-edges leaving vertex i are ``_target[_indptr[i]:_indptr[i + 1]]``
    with lengths ``_length[...]``, in edge order (a loop contributes one
    half-edge).  ``measure`` is one read-only float array in `vertices`
    order, given to the constructor as a mapping (unit measure if omitted).
    Edge endpoints and measure keys may name a vertex as `vertex` reads.
    A disconnected graph is a DisconnectedGraphError carrying its
    components, each a list of vertex ids.
    """

    def __init__(self, vertices, edges, measure=None):
        self.vertices = list(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.index) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self.edges = []
        tails, heads, lengths = [], [], []
        for u, v, length in edges:
            u = u if u in self.index else self.vertex(u)
            v = v if v in self.index else self.vertex(v)
            length = float(length)
            if length <= 0:
                raise ValueError("edge lengths must be positive")
            self.edges.append((u, v, length))
            iu, iv = self.index[u], self.index[v]
            tails.append(iu)
            heads.append(iv)
            lengths.append(length)
            if iu != iv:
                tails.append(iv)
                heads.append(iu)
                lengths.append(length)
        # CSR rows of the half-edges, input order kept within a row
        tails = np.asarray(tails, dtype=np.int64)
        self._indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=self.n), out=self._indptr[1:])
        order = np.argsort(tails, kind="stable")
        self._target = np.asarray(heads, dtype=np.int64)[order]
        self._length = np.asarray(lengths, dtype=float)[order]
        if not np.isfinite(self._length).all():
            raise NonFiniteInputError("edge lengths must be finite")
        if measure is None:
            self.measure = np.ones(self.n)
        else:
            self.measure = np.zeros(self.n)
            for v, w in measure.items():
                self.measure[self.index[v if v in self.index else self.vertex(v)]] = float(w)
        self.measure.flags.writeable = False
        if not np.isfinite(self.measure).all():
            raise NonFiniteInputError("vertex measures must be finite")
        if np.any(self.measure < 0):
            raise ValueError("vertex measures must be nonnegative")
        if self.total_measure <= 0:
            raise ValueError("total measure must be positive")
        if not np.all(self._relax([0], None)[0] < np.inf):
            # one O(n + m) labelling pass; scipy is imported off the connected path
            from scipy.sparse import csr_array
            from scipy.sparse.csgraph import connected_components

            adjacency = csr_array((np.ones(len(self._target)), self._target, self._indptr),
                                  shape=(self.n, self.n))
            labels = connected_components(adjacency, directed=False)[1]
            # components by least vertex index, each in index order
            least = np.unique(labels, return_index=True)[1][labels]
            order = np.argsort(least, kind="stable")
            parts = np.split(order, np.flatnonzero(np.diff(least[order])) + 1)
            raise DisconnectedGraphError(
                f"graph splits into {len(parts)} components",
                components=[[self.vertices[i] for i in part.tolist()] for part in parts])

    # -- basic queries ------------------------------------------------------

    @property
    def n(self):
        return len(self.vertices)

    @property
    def total_measure(self):
        return float(np.sum(self.measure))

    def neighbors(self, v):
        i = self.index[v]
        lo, hi = self._indptr[i], self._indptr[i + 1]
        return [(self.vertices[j], length) for j, length in
                zip(self._target[lo:hi].tolist(), self._length[lo:hi].tolist())]

    def vertex(self, name):
        """The vertex id that `name` stands for, as JSON keys, CSV cells and
        command lines write ids: the vertex whose str() is str(name), else
        GraphLookupError."""
        try:
            return self._names[str(name)]
        except KeyError:
            raise GraphLookupError(f"unknown vertex {name!r}") from None

    @cached_property
    def _names(self):
        return {str(v): v for v in self.vertices}

    def distances(self, source, cutoff=None):
        """Shortest-path distances from `source` as one float array indexed
        like `vertices`; vertices beyond `cutoff` read inf.  This is row 0
        of `distance_rows([source], cutoff)`."""
        return self.distance_rows([source], cutoff)[0]

    def distance_rows(self, sources, cutoff=None, columns=None):
        """Shortest-path distances from each of `sources` as one (k, n) float
        array, row i indexed like `vertices` for source i; vertices beyond
        `cutoff` read inf.  Given `columns` (vertex indices), only those
        columns are returned, as a (k, len(columns)) array.  Either array
        is C-ordered.

        Computed by label-correcting relaxation (Bellman, 1958) on one label
        array for all k rows: each round relaxes the out-edges of the
        (row, vertex) labels that improved in the round before.  Labels
        only decrease, and fl(a + w) is monotone in a, so any such order
        ends at the same float fixed point d[j] = min_u fl(d[u] + w(u, j))
        (with candidates beyond `cutoff` dropped): the values a heap-based
        Dijkstra settles, whatever the blocks, the frontier order or the
        other rows.

        A round is relaxed in blocks of at most BLOCK_HALF_EDGES frontier
        labels and about as many half-edges (a vertex's out-edges are never
        split), which bounds its temporary arrays however many rows there
        are.  The next frontier is the set of improved labels, deduplicated
        in O(candidates) (the last write of each label in a scratch index
        array wins), so long paths and small cutoff balls cost O(frontier)
        a round whatever k*n is.

        Sources are relaxed CHUNK_LABELS // n rows at a time (at least
        one), so however many sources there are, one relaxation holds at
        most about CHUNK_LABELS labels: some 3 MB in the label array and
        the scratch index array, and about 5 MB more in frontiers and
        blocks.  With `columns`, only the kept columns of each chunk
        outlive it.
        """
        sources = [self._position(v) for v in sources]
        step = self.chunk_rows
        if len(sources) <= step:
            dist = self._relax(sources, cutoff)
            # np.take keeps C order, where dist[:, columns] may not
            return dist if columns is None else np.take(dist, columns, axis=1)
        out = np.empty((len(sources), self.n if columns is None else len(columns)))
        for lo in range(0, len(sources), step):
            dist = self._relax(sources[lo:lo + step], cutoff)
            out[lo:lo + step] = dist if columns is None else np.take(dist, columns, axis=1)
        return out

    @property
    def chunk_rows(self):
        """The rows one relaxation of `distance_rows` takes at most:
        CHUNK_LABELS // n, at least one."""
        return max(1, CHUNK_LABELS // self.n)

    def _relax(self, sources, cutoff):
        """The (k, n) rows of `distance_rows` for one chunk of source indices."""
        k, n = len(sources), self.n
        frontier = np.arange(k, dtype=np.int64) * n + np.asarray(sources, dtype=np.int64)
        dist = np.full((k, n), np.inf)
        labels = dist.reshape(-1)
        labels[frontier] = 0.0
        stamps = np.empty(labels.size, dtype=np.int32)  # read only where written
        while frontier.size:
            improved = []
            for lo in range(0, frontier.size, BLOCK_HALF_EDGES):
                part = frontier[lo:lo + BLOCK_HALF_EDGES]
                verts = part % n if k > 1 else part
                stops = self._indptr[1:][verts]
                counts = stops - self._indptr[verts]
                ends = np.cumsum(counts)
                total = int(ends[-1])
                shift = stops - ends  # a half-edge's index is shift + its position in part
                for a, b, first, last in _blocks(ends, total, BLOCK_HALF_EDGES):
                    at, c = part[a:b], counts[a:b]
                    half = np.repeat(shift[a:b], c) + np.arange(first, last)
                    cand = np.repeat(labels[at], c) + self._length[half]
                    head = self._target[half]
                    if k > 1:
                        head += np.repeat(at - verts[a:b], c)
                    better = cand < labels[head]
                    if cutoff is not None:
                        better &= cand <= cutoff
                    # integer indices: boolean-mask indexing is ~4x slower here
                    better = better.nonzero()[0]
                    head, cand = head[better], cand[better]
                    np.minimum.at(labels, head, cand)
                    # a label improved by several candidates of the block is
                    # kept once, by the one that won (ties aside)
                    improved.append(head[(cand == labels[head]).nonzero()[0]])
            improved = improved[0] if len(improved) == 1 else np.concatenate(improved)
            order = np.arange(improved.size, dtype=np.int32)
            stamps[improved] = order
            frontier = improved[stamps[improved] == order]
        return dist

    def _position(self, v):
        try:
            return self.index[v]
        except (KeyError, TypeError):
            raise GraphLookupError(f"unknown vertex {v!r}") from None

    def dijkstra(self, source, cutoff=None):
        """`distances` as a dict keyed by vertex id, omitting vertices beyond
        `cutoff`; keys come in settle order, i.e. sorted by (distance,
        vertex index)."""
        dist = self.distances(source, cutoff)
        reached = np.flatnonzero(dist <= (np.inf if cutoff is None else cutoff))
        order = reached[np.argsort(dist[reached], kind="stable")]
        return dict(zip([self.vertices[i] for i in order.tolist()], dist[order].tolist()))

    def distance(self, u, v):
        return float(self.distances(u)[self.index[v]])

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return json.dumps(
            {
                "vertices": self.vertices,
                "edges": [[u, v, length] for u, v, length in self.edges],
                "measure": {str(v): w for v, w in zip(self.vertices, self.measure.tolist())},
            }
        )

    @classmethod
    def from_json(cls, text):
        """The graph that `to_json` wrote.  JSON has no tuples, so a vertex
        id written as an array (a cover's (vertex, sheet) pair) is read
        back as a tuple (`freeze_vertex`)."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a graph is a JSON object, not {type(data).__name__}")
        measure = data.get("measure", {})
        if not isinstance(measure, dict):
            raise ValueError(f"a graph's measure is a JSON object, not {type(measure).__name__}")
        vertices = [freeze_vertex(v) for v in data["vertices"]]
        edges = [(freeze_vertex(u), freeze_vertex(v), length) for u, v, length in data["edges"]]
        return cls(vertices, edges, measure or None)


# ---------------------------------------------------------------------------
# growth and entropy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyEstimate:
    """Least-squares growth rate of log ball mass over a finite window.

    The limit definition is unreachable at finite scale; `residual` (the
    regression RMS) quantifies how trustworthy the window was.  `radii`
    and `masses` are the sampled radii and their ball masses.
    """

    h: float
    window: tuple
    residual: float
    radii: tuple
    masses: tuple


def ball_measure(g: MMGraph, x, R):
    """Total vertex measure within shortest-path distance R of x.

    `R` may also be a sequence of radii, giving an array of masses.  Every
    mass is a prefix sum of the vertex measures in (distance, vertex index)
    order, so nested balls add the same floats in the same order.
    """
    radii = np.asarray(R, dtype=float)
    if np.any(radii < 0):
        raise ValueError("radius must be nonnegative")
    dist = g.distances(x, cutoff=float(np.max(radii)))
    order = np.argsort(dist, kind="stable")
    prefix = np.concatenate(([0.0], np.cumsum(g.measure[order])))
    masses = prefix[np.searchsorted(dist[order], radii, side="right")]
    return float(masses) if masses.ndim == 0 else masses


def volume_entropy(g: MMGraph, x, r_min: float, r_max: float, step: float = 1.0) -> EntropyEstimate:
    """Regression estimate of the exponential growth rate of ball masses.

    Samples radii r_min, r_min+step, ..., r_max (unit step by default); the
    step must be finite and positive, leave at least two radii and take
    at most MAX_RADII steps across the window.
    Raises WindowSaturationError when the largest ball already swallows the
    whole graph, in which case the window says nothing about growth.
    """
    if not (math.inf > r_max > r_min >= 0):
        raise ValueError("window must satisfy inf > r_max > r_min >= 0")
    if not (math.inf > step > 0):
        raise ValueError(f"step must be finite and positive, not {step!r}")
    if (r_max - r_min) / step > MAX_RADII:
        raise ValueError(f"step {step!r} asks for more than {MAX_RADII} radii "
                         f"in [{r_min!r}, {r_max!r}]")
    radii = []
    r = r_min
    while r <= r_max + 1e-12:
        radii.append(r)
        r += step
    if len(radii) < 2:
        raise ValueError(f"step {step!r} leaves one radius in [{r_min!r}, {r_max!r}]; "
                         "a fit needs two")
    masses = ball_measure(g, x, radii)
    if masses[-1] >= g.total_measure:
        raise WindowSaturationError(
            f"ball of radius {radii[-1]} contains the whole graph; shrink the window"
        )
    if masses.min() <= 0:
        raise ValueError("empty ball in window; increase r_min")
    ys = np.log(masses)
    xs = np.array(radii)
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    residual = float(np.sqrt(np.mean((ys - fit) ** 2)))
    return EntropyEstimate(float(slope), (r_min, r_max), residual, tuple(radii),
                           tuple(masses.tolist()))


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def _inverse(p):
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


@dataclass
class CoverMap:
    """A k-sheeted covering of graphs with its deck transformations.

    `projection` maps total vertices to base vertices; every map in `deck`
    is a measure-preserving graph automorphism commuting with the
    projection.  Fibers all have cardinality `sheets`.
    """

    total: MMGraph
    base: MMGraph
    projection: dict
    deck: list
    sheets: int

    def validate(self, tol=1e-12):
        """Check the covering and deck properties explicitly."""
        fibers = {}
        for w, v in self.projection.items():
            fibers.setdefault(v, []).append(w)
        sizes = {len(ws) for ws in fibers.values()}
        if sizes != {self.sheets}:
            raise ValueError(f"fiber cardinalities {sizes} != sheets {self.sheets}")
        for w in self.total.vertices:
            star = sorted(
                (self.projection[nb], round(length, 12))
                for nb, length in _half_edge_star(self.total, w)
            )
            base_star = sorted(
                (nb, round(length, 12))
                for nb, length in _half_edge_star(self.base, self.projection[w])
            )
            if star != base_star:
                raise ValueError(f"projection is not a local bijection at {w!r}")
        index, measure = self.total.index, self.total.measure
        for phi in self.deck:
            for w in self.total.vertices:
                if self.projection[phi[w]] != self.projection[w]:
                    raise ValueError("deck map does not commute with projection")
                if abs(measure[index[phi[w]]] - measure[index[w]]) > tol:
                    raise ValueError("deck map does not preserve the measure")
        return True


def _half_edge_star(g: MMGraph, v):
    """Half-edges at v: a loop contributes two entries."""
    star = g.neighbors(v)
    return star + [(u, length) for u, length in star if u == v]


def build_cover(base: MMGraph, voltage: dict) -> CoverMap:
    """k-sheeted cover from a voltage assignment.

    `voltage` maps edge indices of `base` to permutations of range(k) in
    one-line notation; missing edges get the identity.  Lifted edges keep
    their length, lifted vertices carry the base vertex measure (so a fiber
    carries k times the base mass).  Raises DisconnectedCoverError if the
    voltages do not act transitively enough to connect the total graph.
    """
    if not voltage:
        raise ValueError("voltage assignment is empty")
    k = len(next(iter(voltage.values())))
    perms = {}
    for e, p in voltage.items():
        p = tuple(p)
        if sorted(p) != list(range(k)):
            raise ValueError(f"voltage for edge {e} is not a permutation of range({k})")
        perms[e] = p
    ident = tuple(range(k))
    for e in range(len(base.edges)):
        perms.setdefault(e, ident)

    vertices = [(v, s) for v in base.vertices for s in range(k)]
    edges = []
    for e, (u, v, length) in enumerate(base.edges):
        p = perms[e]
        for s in range(k):
            edges.append(((u, s), (v, p[s]), length))
    measure = dict(zip(vertices, np.repeat(base.measure, k).tolist()))

    try:
        total = MMGraph(vertices, edges, measure)
    except DisconnectedGraphError as exc:
        raise DisconnectedCoverError(str(exc), components=exc.components) from None
    projection = {(v, s): v for v, s in vertices}
    deck = _deck_transformations(base, perms, k)
    return CoverMap(total=total, base=base, projection=projection, deck=deck, sheets=k)


def _deck_transformations(base: MMGraph, perms: dict, k: int):
    """Deck maps of the connected voltage cover, one for each image (root, t)
    of (root, 0) that lifts, in the order of t: a deck map is fixed by the
    image of one vertex (unique lifting; Hatcher, Algebraic Topology, 1.3).
    """
    incident = {v: [] for v in base.vertices}
    for e, (u, v, _) in enumerate(base.edges):
        incident[u].append((v, perms[e]))
        incident[v].append((u, _inverse(perms[e])))
    root = base.vertices[0]
    lifts = (_lift(incident, root, t) for t in range(k))
    return [phi for phi in lifts if phi is not None]


def _lift(incident, root, t):
    """The deck map sending (root, 0) to (root, t), or None.  Where (u, s)
    goes to (u, s'), the lifted edge (u, s) - (v, p(s)) must go to
    (u, s') - (v, p(s')), which fixes the image of (v, p(s))."""
    phi = {(root, 0): (root, t)}
    stack = [(root, 0)]
    while stack:
        u, s = stack.pop()
        image = phi[(u, s)][1]
        for v, p in incident[u]:
            w = (v, p[s])
            if w not in phi:
                phi[w] = (v, p[image])
                stack.append(w)
            elif phi[w] != (v, p[image]):
                return None
    return phi
