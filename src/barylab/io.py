"""JSON loaders for the CLI input formats.

Formats:

- measure: {"atoms": [{"site": <id or coords>, "w": <real>}]}; a site that
  is an array is a point of H^n, a scalar is a vertex id.
- graph: {"vertices": [...], "edges": [[u, v, len], ...], "measure": {v: w}}.
- embedding: {str(vertex): coords}, parallel to a graph; loaded as one
  (n, N+1) array in the graph's vertex order.
- simplicial map: {"domain": <complex>, "target": <complex>,
  "vertex_map": {str(v): image}} with complex
  {"dim": n, "simplices": [[v, ...], ...], "charts": [...]} (charts optional).
- subgroup: {"rank": r, "generators": ["abA", ...]}.

Points of H^n (measure sites and embedding rows) must lie on the upper
sheet: |<x,x>_M + 1| <= hyperboloid.SHEET_TOL and x0 > 0, else
InvalidPointError.
"""

from __future__ import annotations

import json

import numpy as np

from . import hyperboloid as hyp
from .errors import ConfigurationError
from .indices.simplicial import Pseudomanifold, SimplicialMap
from .measures import DiscreteMeasure
from .mmgraph import MMGraph, freeze_vertex


def load_json(path):
    """The JSON object in a file; any other JSON value is an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, not {type(data).__name__}")
    return data


def load_graph(path) -> MMGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return MMGraph.from_json(fh.read())


def load_measure(path) -> DiscreteMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return DiscreteMeasure.from_json(fh.read())


def load_complex(data) -> Pseudomanifold:
    simplices = [tuple(freeze_vertex(v) for v in s) for s in data["simplices"]]
    charts = data.get("charts")
    if charts is not None:
        charts = [np.array(c, dtype=float) for c in charts]
    return Pseudomanifold(data["dim"], simplices, charts,
                          closed=data.get("closed", True))


def load_simplicial_map(data) -> SimplicialMap:
    domain = load_complex(data["domain"])
    target = load_complex(data["target"])
    by_str = {str(v): v for v in domain.vertices}
    tgt_by_str = {str(v): v for v in target.vertices}
    vmap = {}
    for k, img in data["vertex_map"].items():
        img = freeze_vertex(img)
        vmap[by_str[k]] = tgt_by_str.get(str(img), img)
    return SimplicialMap(domain, target, vmap)


def load_embedding(data, graph: MMGraph):
    """The (n, N+1) image array of `graph`'s vertices, in vertex order, from
    rows keyed by str(vertex); every row is checked to be a point of H^n and
    a vertex without a row is a ConfigurationError."""
    rows = {k: hyp.check_point(np.array(v, dtype=float)) for k, v in data.items()}
    missing = [v for v in graph.vertices if str(v) not in rows]
    if missing:
        raise ConfigurationError(f"embedding has no row for vertex {missing[0]!r}")
    return np.array([rows[str(v)] for v in graph.vertices])
