"""Stallings foldings for finitely generated subgroups of free groups.

Subgroup generators are words over a..z with capitals for inverses.  The
wedge of loops spelling the generators is folded (vertices with two equal
labels on outgoing or incoming edges are merged) down to the core graph.
The subgroup has finite index exactly when the core graph is complete
(every vertex carries every label in and out), in which case the index is
the number of vertices; otherwise the index is reported as 0.

Folding is confluent: any fold order yields the same core graph up to
labeled isomorphism, which the canonical form (BFS numbering from the
basepoint in label order) detects.
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

    def canonical_form(self):
        """Hashable normal form: BFS renumbering from the basepoint,
        exploring labels in order, out-edges before in-edges."""
        order = {self.base: 0}
        queue = [self.base]
        while queue:
            v = queue.pop(0)
            for letter in range(self.rank):
                for table in (self.out, self.inc):
                    w = table[v].get(letter)
                    if w is not None and w not in order:
                        order[w] = len(order)
                        queue.append(w)
        edges = []
        for v in self.vertices:
            for letter, w in self.out[v].items():
                edges.append((order[v], letter, order[w]))
        return (len(order), tuple(sorted(edges)))

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

    `fold_order` is an optional numpy Generator; when given, the fold
    worklist is shuffled each pass (for confluence experiments).  The
    default order is deterministic: lowest vertex id first.
    """
    words = [parse_word(w, rank) if isinstance(w, str) else list(w) for w in generators]
    words = [w for w in words if w]
    if not words:
        return FoldedGraph(rank, (0,), 0, ({},), ({},))
    edges, n = _bouquet_edges(words, rank)
    uf = _UnionFind(n)
    while True:
        canon = {(uf.find(u), letter, uf.find(v)) for u, letter, v in edges}
        pairs = []
        grouped_out = {}
        grouped_in = {}
        for u, letter, v in canon:
            key = (u, letter)
            if key in grouped_out and grouped_out[key] != v:
                pairs.append((grouped_out[key], v))
            else:
                grouped_out[key] = v
            key = (v, letter)
            if key in grouped_in and grouped_in[key] != u:
                pairs.append((grouped_in[key], u))
            else:
                grouped_in[key] = u
        if not pairs:
            edges = canon
            break
        if fold_order is not None:
            fold_order.shuffle(pairs)
        else:
            pairs.sort()
        for a, b in pairs:
            uf.union(uf.find(a), uf.find(b))
    # prune spurs: non-base valence-1 vertices cannot carry reduced loops
    base = uf.find(0)
    edges = set(edges)
    while True:
        degree = {}
        for u, letter, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        spurs = {v for v, d in degree.items() if d == 1 and v != base}
        if not spurs:
            break
        edges = {e for e in edges if e[0] not in spurs and e[2] not in spurs}
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
