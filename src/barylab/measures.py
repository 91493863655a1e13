"""Finitely supported nonnegative measures.

A measure on H^n keeps its sites as one (k, n+1) float array of points; a
measure on a graph keeps a list of hashable vertex ids.  Duplicate sites
are merged on construction by `group_atoms` (first appearance order,
weights summed); exact-zero atoms are dropped, so the zero measure is the
empty measure.
"""

from __future__ import annotations

import json

import numpy as np

from . import hyperboloid as hyp
from .errors import EmptyMeasureError, NonFiniteInputError


def group_atoms(keys, weights):
    """Group atoms by hashable key in order of first appearance: the position
    of each distinct key's first atom, the summed weight of each group (added
    in atom order) and each atom's group label.  Keys given as a numpy
    array (integers, or point rows viewed as bytes) are grouped by a sort
    instead of a dict, with the same result and no Python object per atom."""
    if isinstance(keys, np.ndarray):
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        labels = rank[inverse]
        return first[order], np.bincount(labels, weights), labels
    first_of = {}
    at = [first_of.setdefault(key, i) for i, key in enumerate(keys)]
    first = np.fromiter(first_of.values(), dtype=np.intp, count=len(first_of))
    labels = np.searchsorted(first, at)
    return first, np.bincount(labels, weights), labels


def _as_sites(items, point_type):
    """`items` as the sites of one measure: a float array when every item is
    a point (a `point_type`), the list itself when none is."""
    kinds = {isinstance(s, point_type) for s in items}
    if len(kinds) > 1:
        raise ValueError("a measure's sites mix points and vertex ids")
    return np.array(items, dtype=float) if True in kinds else items


class DiscreteMeasure:
    """An atomic measure: sites and parallel weights >= 0.

    `sites` is a (k, n+1) float array whose rows are points of H^n, or a
    list of hashable vertex ids.  Points merge where their rows are equal as
    floats: the rows are compared as bytes after adding 0.0, which turns
    -0.0 into 0.0, so no Python object is made per atom.
    `labels[i]` is input atom i's site index, or -1 if its site was dropped.
    """

    __slots__ = ("sites", "weights", "labels")

    def __init__(self, sites, weights):
        points = isinstance(sites, np.ndarray)
        if points:
            sites = sites.astype(float, copy=False)
            if sites.ndim != 2 or sites.shape[1] == 0:
                raise ValueError("point sites must be one (k, n+1) array")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(sites),):
            raise ValueError("sites and weights length mismatch")
        if not (np.isfinite(weights).all() and (not points or np.isfinite(sites).all())):
            raise NonFiniteInputError("measure weights and point coordinates must be finite")
        if (weights < 0).any():
            raise ValueError("negative weight in measure")
        keys = sites
        if points:
            rows = np.ascontiguousarray(sites + 0.0)
            keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
        first, weights, labels = group_atoms(keys, weights)
        keep = weights != 0.0
        self.labels = labels if keep.all() else np.where(keep, np.cumsum(keep) - 1, -1)[labels]
        self.weights = weights[keep]
        self.sites = sites[first[keep]] if points else [sites[i] for i in first[keep].tolist()]

    @classmethod
    def dirac(cls, site, mass=1.0):
        return cls(_as_sites([site], np.ndarray), np.array([mass]))

    @classmethod
    def from_points(cls, points, weights=None):
        """Measure on the rows of a coordinate array."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if weights is None:
            weights = np.ones(points.shape[0])
        return cls(points, weights)

    @property
    def total_mass(self):
        return float(np.sum(self.weights))

    @property
    def is_zero(self):
        return len(self.sites) == 0

    def __len__(self):
        return len(self.sites)

    def __repr__(self):
        return f"DiscreteMeasure({len(self)} atoms, mass={self.total_mass:.6g})"

    def normalize(self):
        """Rescale to total mass one."""
        m = self.total_mass
        if m <= 0:
            raise EmptyMeasureError("cannot normalize a zero measure")
        out = DiscreteMeasure.__new__(DiscreteMeasure)
        out.sites = self.sites.copy()
        out.weights = self.weights / m
        out.labels = self.labels.copy()
        return out

    def pushforward(self, f):
        """Image measure under a site map; identically mapped atoms merge.

        Images that are numpy arrays are points, anything else a vertex id.
        """
        images = []
        for s in self.sites:
            try:
                images.append(f(s))
            except (KeyError, IndexError) as exc:
                raise KeyError(f"site map undefined on atom {s!r}") from exc
        return DiscreteMeasure(_as_sites(images, np.ndarray), self.weights.copy())

    def to_json(self):
        sites = self.sites.tolist() if isinstance(self.sites, np.ndarray) else self.sites
        atoms = [{"site": s, "w": w} for s, w in zip(sites, self.weights.tolist())]
        return json.dumps({"atoms": atoms})

    @classmethod
    def from_json(cls, text):
        """Measure from {"atoms": [{"site": ..., "w": ...}]}: a site that is
        a JSON array is a point, which must lie on the sheet
        (`hyperboloid.check_point`), a scalar is a vertex id."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a measure is a JSON object, not {type(data).__name__}")
        atoms = data["atoms"]
        if not (isinstance(atoms, list) and all(isinstance(a, dict) for a in atoms)):
            raise ValueError('a measure\'s "atoms" is a list of {"site": ..., "w": ...} objects')
        sites = _as_sites([a["site"] for a in atoms], list)
        weights = np.array([a["w"] for a in atoms], dtype=float)
        measure = cls(sites, weights)
        if isinstance(sites, np.ndarray):
            hyp.check_point(sites)
        return measure
