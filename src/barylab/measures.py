"""Finitely supported nonnegative measures on an arbitrary site set.

Sites are hashable identifiers: graph vertex ids, or coordinate tuples for
measures supported on H^n.  Duplicate sites are merged on construction by
summing weights; exact-zero atoms are dropped, so the zero measure is the
empty measure.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import EmptyMeasureError


def _freeze(site):
    if isinstance(site, np.ndarray):
        return tuple(float(c) for c in site)
    if isinstance(site, list):
        return tuple(site)
    return site


class DiscreteMeasure:
    """An atomic measure: parallel lists of hashable sites and weights >= 0."""

    __slots__ = ("sites", "weights")

    def __init__(self, sites, weights):
        weights = np.asarray(weights, dtype=float)
        if len(sites) != weights.shape[0]:
            raise ValueError("sites and weights length mismatch")
        if np.any(weights < 0):
            raise ValueError("negative weight in measure")
        merged: dict = {}
        for key, w in zip(map(_freeze, sites), weights.tolist()):
            merged[key] = merged.get(key, 0.0) + w
        items = [(s, w) for s, w in merged.items() if w != 0.0]
        self.sites = [s for s, _ in items]
        self.weights = np.array([w for _, w in items], dtype=float)

    @classmethod
    def dirac(cls, site, mass=1.0):
        return cls([site], np.array([mass]))

    @classmethod
    def from_points(cls, points, weights=None):
        """Measure on rows of a coordinate array; sites become tuples."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if weights is None:
            weights = np.ones(points.shape[0])
        return cls(list(map(tuple, points.tolist())), weights)

    @property
    def total_mass(self):
        return float(np.sum(self.weights))

    @property
    def is_zero(self):
        return len(self.sites) == 0

    @property
    def points(self):
        """Site coordinates as an array; only valid for coordinate-tuple sites."""
        return np.array(self.sites, dtype=float)

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
        out.sites = list(self.sites)
        out.weights = self.weights / m
        return out

    def pushforward(self, f):
        """Image measure under a site map; identically mapped atoms merge."""
        images = []
        for s in self.sites:
            try:
                images.append(_freeze(f(s)))
            except (KeyError, IndexError) as exc:
                raise KeyError(f"site map undefined on atom {s!r}") from exc
        return DiscreteMeasure(images, self.weights.copy())

    def to_json(self):
        atoms = [
            {"site": list(s) if isinstance(s, tuple) else s, "w": float(w)}
            for s, w in zip(self.sites, self.weights)
        ]
        return json.dumps({"atoms": atoms})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        sites = [_freeze(a["site"]) for a in data["atoms"]]
        weights = np.array([a["w"] for a in data["atoms"]], dtype=float)
        return cls(sites, weights)
