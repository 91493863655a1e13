"""Stallings foldings for finitely generated subgroups of free groups.

Subgroup generators are words over a..z with capitals for inverses.  The
wedge of loops spelling the generators is folded (vertices with two equal
labels on outgoing or incoming edges are merged) down to the core graph.
The subgroup has finite index exactly when the core graph is complete
(every vertex carries every label in and out), in which case the index is
the number of vertices; otherwise the index is reported as 0.

Folding is confluent: any fold order yields the same core graph up to
labeled isomorphism (the tests check this with a canonical form kept
apart from the folding code).
"""

from __future__ import annotations

from dataclasses import dataclass


def parse_word(word: str, rank: int):
    """Word string to a list of (letter index, +-1); applies free reduction."""
    out = []
    for ch in word:
        if ch.isspace():
            continue
        lower = ch.lower()
        letter = ord(lower) - ord("a")
        if not (0 <= letter < rank):
            raise ValueError(f"letter {ch!r} outside the rank-{rank} alphabet")
        step = (letter, -1 if ch.isupper() else 1)
        if out and out[-1] == (letter, -step[1]):
            out.pop()
        else:
            out.append(step)
    return out


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra


@dataclass(frozen=True)
class FoldedGraph:
    """Core graph: folded labeled digraph with a basepoint.

    `out[v][l]` / `inc[v][l]` give the endpoint of the unique l-labeled
    edge leaving / entering v, when present.
    """

    rank: int
    vertices: tuple
    base: int
    out: tuple   # tuple of dicts letter -> vertex
    inc: tuple

    @property
    def is_complete(self):
        return all(
            len(self.out[v]) == self.rank and len(self.inc[v]) == self.rank
            for v in self.vertices
        )

    def reads_word(self, word):
        """Whether the word traces a closed path at the basepoint (subgroup
        membership when the graph is a folded core)."""
        v = self.base
        for letter, sign in word:
            table = self.out if sign > 0 else self.inc
            v = table[v].get(letter)
            if v is None:
                return False
        return v == self.base


def _bouquet_edges(words, rank):
    """Edge list (u, letter, v) of the wedge of loops spelling the words."""
    edges = []
    n = 1
    for word in words:
        prev = 0
        for pos, (letter, sign) in enumerate(word):
            last = pos == len(word) - 1
            nxt = 0 if last else n
            if not last:
                n += 1
            if sign > 0:
                edges.append((prev, letter, nxt))
            else:
                edges.append((nxt, letter, prev))
            prev = nxt
    return edges, n


def fold_words(generators, rank: int, fold_order=None) -> FoldedGraph:
    """Fold the wedge of generator loops to the core graph.

    Each vertex class keeps one label map per direction, letter -> far
    endpoint.  Entering an edge whose letter the map already holds queues
    the two far endpoints for identification; identifying two classes
    enters the maps of the class with the larger root into the other's the
    same way.
    `fold_order` is an optional numpy Generator; when given, each round of
    pending identifications is shuffled (for confluence experiments).  The
    default order is first queued, first merged.
    """
    words = [parse_word(w, rank) if isinstance(w, str) else list(w) for w in generators]
    words = [w for w in words if w]
    if not words:
        return FoldedGraph(rank, (0,), 0, ({},), ({},))
    edges, n = _bouquet_edges(words, rank)
    uf = _UnionFind(n)
    maps = ([{} for _ in range(n)], [{} for _ in range(n)])  # out, in
    pending = []

    def enter(table, v, letter, w):
        held = table[v].setdefault(letter, w)
        if held != w:
            pending.append((held, w))

    for u, letter, v in edges:
        enter(maps[0], u, letter, v)
        enter(maps[1], v, letter, u)
    while pending:
        batch, pending = pending, []
        if fold_order is not None:
            fold_order.shuffle(batch)
        for a, b in batch:
            ra, rb = uf.find(a), uf.find(b)
            if ra == rb:
                continue
            root = uf.union(ra, rb)
            gone = rb if root == ra else ra
            for table in maps:
                merged, table[gone] = table[gone], {}
                for letter, w in merged.items():
                    enter(table, root, letter, w)
    edges = {(v, letter, uf.find(w)) for v, held in enumerate(maps[0])
             for letter, w in held.items()}
    # prune spurs: non-base valence-1 vertices cannot carry reduced loops
    base = uf.find(0)
    degree, incident = {}, {}
    for edge in edges:
        for v in (edge[0], edge[2]):
            degree[v] = degree.get(v, 0) + 1
            incident.setdefault(v, []).append(edge)
    spurs = [v for v, d in degree.items() if d == 1 and v != base]
    while spurs:
        v = spurs.pop()
        if degree[v] != 1:
            continue
        edge = next(e for e in incident[v] if e in edges)
        edges.discard(edge)
        for w in (edge[0], edge[2]):
            degree[w] -= 1
            if degree[w] == 1 and w != base:
                spurs.append(w)
    vertices = sorted({base} | {u for u, _, _ in edges} | {v for _, _, v in edges})
    relabel = {v: i for i, v in enumerate(vertices)}
    out = tuple({} for _ in vertices)
    inc = tuple({} for _ in vertices)
    for u, letter, v in edges:
        out[relabel[u]][letter] = relabel[v]
        inc[relabel[v]][letter] = relabel[u]
    return FoldedGraph(rank, tuple(range(len(vertices))), relabel[base], out, inc)


def stallings_index(generators, rank: int) -> int:
    """Index of the generated subgroup: vertex count of a complete core
    graph, or 0 when the core is incomplete (infinite index)."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    core = fold_words(generators, rank)
    return len(core.vertices) if core.is_complete else 0
