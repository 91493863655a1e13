"""Oriented pseudomanifolds, simplicial/PL maps, degree and coarea checks.

A pseudomanifold of dimension n is given by ordered (n+1)-tuples of vertex
ids; the tuple order is the orientation.  Closed complexes must have every
(n-1)-face in exactly two top simplices with opposite induced orientations
and be strongly connected through faces.  Optional per-simplex charts embed
each top simplex affinely in R^n (positively oriented with respect to the
vertex order), giving piecewise-linear volumes.

For a simplicial map, the affine restriction to a nondegenerate simplex is
a bijection onto a target top simplex, so every generic point of a target
simplex t has exactly one preimage in each domain simplex mapped onto t
(local degree: Hatcher, Algebraic Topology, 2002, 2.2).  `SimplicialMap`
keeps per target simplex the number of those domain simplices (`counts`)
and the sum of their orientation signs (`degrees`); the preimage count and
the homological index are exact sums over them, and the Jacobian modulus
is the volume ratio.  `PLMap` drops the simplicial constraint on images
(vertices map to arbitrary points of R^n), which is what the Monte-Carlo
side of the coarea identity genuinely integrates over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _parity(seq):
    """Sign of the permutation sorting `seq` (must have distinct entries)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[j] < seq[i]:
                sign = -sign
    return sign


def _face_key_and_parity(simplex, drop):
    face = tuple(v for i, v in enumerate(simplex) if i != drop)
    sign = _parity(face) * (-1) ** drop
    return tuple(sorted(face)), sign


class Pseudomanifold:
    """Oriented simplicial n-pseudomanifold, optionally with PL geometry."""

    def __init__(self, dim, simplices, charts=None, closed=True):
        self.dim = int(dim)
        self.simplices = [tuple(s) for s in simplices]
        if any(len(s) != self.dim + 1 or len(set(s)) != self.dim + 1
               for s in self.simplices):
            raise ValueError("every top simplex needs dim+1 distinct vertices")
        keys = {tuple(sorted(s)) for s in self.simplices}
        if len(keys) != len(self.simplices):
            raise ValueError("duplicate top simplices")
        self.by_vertex_set = {tuple(sorted(s)): i for i, s in enumerate(self.simplices)}
        self.closed = bool(closed)
        self.charts = None
        if charts is not None:
            self.charts = [np.asarray(c, dtype=float) for c in charts]
            if len(self.charts) != len(self.simplices):
                raise ValueError("need one chart per top simplex")
            for s, c in zip(self.simplices, self.charts):
                if c.shape != (self.dim + 1, self.dim):
                    raise ValueError("chart must be (dim+1, dim)")
                if self.dim > 0 and np.linalg.det(c[1:] - c[0]) <= 0:
                    raise ValueError(
                        "charts must be positively oriented for the vertex order"
                    )
        self._validate()

    def _validate(self):
        incidence = {}
        for idx, s in enumerate(self.simplices):
            for drop in range(self.dim + 1):
                key, sign = _face_key_and_parity(s, drop)
                incidence.setdefault(key, []).append((idx, sign))
        for key, inc in incidence.items():
            if self.closed:
                if len(inc) != 2:
                    raise ValueError(
                        f"face {key} lies in {len(inc)} top simplices; closed "
                        "pseudomanifolds need exactly two"
                    )
                if inc[0][1] * inc[1][1] != -1:
                    raise ValueError(f"orientations disagree across face {key}")
            elif len(inc) > 2:
                raise ValueError(f"face {key} lies in {len(inc)} top simplices")
        # strong connectivity through (dim-1)-faces
        adj = {i: set() for i in range(len(self.simplices))}
        for inc in incidence.values():
            for (a, _), (b, _) in zip(inc, inc[1:]):
                adj[a].add(b)
                adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(self.simplices):
            raise ValueError("complex is not strongly connected")
        self._face_incidence = incidence

    @property
    def vertices(self):
        out = []
        seen = set()
        for s in self.simplices:
            for v in s:
                if v not in seen:
                    seen.add(v)
                    out.append(v)
        return out

    def volume(self, idx):
        if self.charts is None:
            return 1.0
        c = self.charts[idx]
        if self.dim == 0:
            return 1.0
        return abs(float(np.linalg.det(c[1:] - c[0]))) / math.factorial(self.dim)

    @property
    def total_volume(self):
        return sum(self.volume(i) for i in range(len(self.simplices)))


@dataclass
class _SimplexImage:
    target: int | None   # target simplex index, None when degenerate
    vol_ratio: float     # |det| of the affine restriction


class SimplicialMap:
    """Vertex map inducing a simplicial map between pseudomanifolds.

    `counts[t]` is the number of nondegenerate domain simplices mapped onto
    target simplex t, `degrees[t]` the sum of their orientation signs: the
    preimage count and the local degree at every generic point of t.
    """

    def __init__(self, domain: Pseudomanifold, target: Pseudomanifold, vertex_map):
        if domain.dim != target.dim:
            raise ValueError("domain and target dimensions differ")
        self.domain = domain
        self.target = target
        self.vertex_map = dict(vertex_map)
        missing = [v for v in domain.vertices if v not in self.vertex_map]
        if missing:
            raise ValueError(f"vertex map undefined on {missing[:5]}")
        self.images = []
        self.counts = np.zeros(len(target.simplices), dtype=int)
        self.degrees = np.zeros(len(target.simplices), dtype=int)
        for idx, s in enumerate(domain.simplices):
            img = tuple(self.vertex_map[v] for v in s)
            if len(set(img)) != len(img):
                self.images.append(_SimplexImage(None, 0.0))
                continue
            key = tuple(sorted(img))
            tgt = target.by_vertex_set.get(key)
            if tgt is None:
                raise ValueError(
                    f"image {img} of simplex {s} is not a target top simplex"
                )
            vol = domain.volume(idx)
            ratio = target.volume(tgt) / vol if vol > 0 else 0.0
            self.images.append(_SimplexImage(tgt, ratio))
            self.counts[tgt] += 1
            self.degrees[tgt] += _parity(target.simplices[tgt].index(w) for w in img)


class PLMap:
    """Piecewise-linear map into R^n: arbitrary coordinates per vertex."""

    def __init__(self, domain: Pseudomanifold, vertex_images):
        if domain.charts is None:
            raise ValueError("PL maps need domain charts")
        self.domain = domain
        self.vertex_images = {v: np.asarray(p, dtype=float) for v, p in vertex_images.items()}
        missing = [v for v in domain.vertices if v not in self.vertex_images]
        if missing:
            raise ValueError(f"vertex images undefined on {missing[:5]}")
        self.image_simplices = [
            np.array([self.vertex_images[v] for v in s]) for s in domain.simplices
        ]

    def jacobian(self, idx):
        """|det| of the affine map on simplex idx (0 when degenerate)."""
        X = self.domain.charts[idx]
        Y = self.image_simplices[idx]
        try:
            M = np.linalg.solve(X[1:] - X[0], Y[1:] - Y[0])
        except np.linalg.LinAlgError:
            return 0.0
        return abs(float(np.linalg.det(M)))


def pre_count(f: SimplicialMap) -> float:
    """Volume-weighted average number of preimages of generic target points.

    The sum over the distinct counts c of c times the share of the target
    volume where `f.counts` is c, volumes summed with `math.fsum`, so a map
    with a constant count c reads exactly c.
    """
    vols = [f.target.volume(t) for t in range(len(f.target.simplices))]
    total = math.fsum(vols)
    return math.fsum(
        c * (math.fsum(v for v, n in zip(vols, f.counts) if n == c) / total)
        for c in map(int, np.unique(f.counts))
    )


def ind_H_degree(f: SimplicialMap) -> int:
    """|degree|: the local degree, which must be equal on every target
    simplex of two closed oriented pseudomanifolds."""
    if not (f.domain.closed and f.target.closed):
        raise ValueError("homological index needs closed pseudomanifolds")
    degrees = set(map(int, f.degrees))
    if len(degrees) != 1:
        raise ValueError(
            f"local degrees {sorted(degrees)} differ across target simplices; "
            "input is not an oriented pseudomanifold map"
        )
    return abs(degrees.pop())


# ---------------------------------------------------------------------------
# coarea identity
# ---------------------------------------------------------------------------

def coarea_check(f, samples: int, rng=None):
    """Check integral of |Jacobian| = integral of the preimage count.

    For a `SimplicialMap` both sides are exact sums, the right side the
    target volume times `pre_count`, and agree up to rounding; for a
    `PLMap` the right side is Monte-Carlo over a bounding box of the image
    in R^n.  Returns a dict with both sides and their relative gap.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, not {samples}")
    rng = np.random.default_rng(rng)
    if isinstance(f, SimplicialMap):
        lhs = 0.0
        for idx in range(len(f.domain.simplices)):
            m = f.images[idx]
            if m.target is not None:
                lhs += m.vol_ratio * f.domain.volume(idx)
        rhs = f.target.total_volume * pre_count(f)
    elif isinstance(f, PLMap):
        dim = f.domain.dim
        lhs = 0.0
        for idx in range(len(f.domain.simplices)):
            lhs += f.jacobian(idx) * f.domain.volume(idx)
        pts = np.concatenate(f.image_simplices, axis=0)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        box_vol = float(np.prod(hi - lo))
        ys = rng.uniform(lo, hi, size=(samples, dim))
        total = 0
        edge_mats = []
        for Y in f.image_simplices:
            E = (Y[1:] - Y[0]).T
            if abs(np.linalg.det(E)) < 1e-14:
                edge_mats.append(None)
            else:
                edge_mats.append((np.linalg.inv(E), Y[0]))
        for inv in edge_mats:
            if inv is None:
                continue
            Einv, y0 = inv
            lam_rest = (Einv @ (ys - y0).T).T
            lam0 = 1.0 - lam_rest.sum(axis=1)
            inside = (lam_rest > 0).all(axis=1) & (lam0 > 0)
            total += int(np.sum(inside))
        rhs = box_vol * total / samples
    else:
        raise TypeError("coarea_check expects a SimplicialMap or PLMap")
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "relative_gap": gap}
