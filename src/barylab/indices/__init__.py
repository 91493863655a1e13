"""Topological index invariants at desk scale.

- `simplicial`: oriented pseudomanifolds, simplicial and piecewise-linear
  maps, exact preimage counts and local degrees, the homological index,
  and the coarea identity check.
- `stallings`: core graphs of finitely generated free-group subgroups via
  edge foldings; finite index is detected by completeness of the core.
"""

from .simplicial import (
    PLMap,
    Pseudomanifold,
    SimplicialMap,
    coarea_check,
    ind_H_degree,
    pre_count,
)
from .stallings import FoldedGraph, fold_words, stallings_index

__all__ = [
    "PLMap",
    "Pseudomanifold",
    "SimplicialMap",
    "coarea_check",
    "ind_H_degree",
    "pre_count",
    "FoldedGraph",
    "fold_words",
    "stallings_index",
]
