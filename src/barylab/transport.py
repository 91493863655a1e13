"""Exact Wasserstein-1 distance between equal-mass discrete measures.

The optimum of the balanced transportation problem on the complete
bipartite graph is found with a primal transportation simplex:

- initial basis by the northwest-corner rule,
- duals recomputed from the spanning tree each pivot,
- entering cell by Dantzig's rule with pivot tolerance 1e-12, switching to
  Bland's rule (first eligible cell) if the pivot count suggests cycling,
- leaving cell by minimum flow with lowest-index tie-breaking, so plans are
  deterministic under degeneracy.

Costs are floating point throughout; no integer scaling is performed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMeasureError, SolverFailureError, UnbalancedMeasuresError
from .measures import DiscreteMeasure

PIVOT_TOL = 1e-12
MASS_RTOL = 1e-9


@dataclass(frozen=True)
class CouplingPlan:
    """A feasible transport plan: (source index, target index, mass) triples."""

    flows: tuple

    def cost(self, cost_matrix):
        c = np.asarray(cost_matrix, dtype=float)
        return float(sum(m * c[i, j] for i, j, m in self.flows))

    def marginals(self, n_sources, n_targets):
        a = np.zeros(n_sources)
        b = np.zeros(n_targets)
        for i, j, m in self.flows:
            a[i] += m
            b[j] += m
        return a, b

    def validate(self, mu: DiscreteMeasure, nu: DiscreteMeasure, rtol=MASS_RTOL):
        a, b = self.marginals(len(mu), len(nu))
        scale = max(mu.total_mass, 1e-300)
        if np.max(np.abs(a - mu.weights)) > rtol * scale:
            raise ValueError("plan marginal does not match source measure")
        if np.max(np.abs(b - nu.weights)) > rtol * scale:
            raise ValueError("plan marginal does not match target measure")
        if any(m < 0 for _, _, m in self.flows):
            raise ValueError("negative flow in plan")
        return True


def cost_matrix_from_metric(mu: DiscreteMeasure, nu: DiscreteMeasure, metric):
    c = np.empty((len(mu), len(nu)))
    for i, s in enumerate(mu.sites):
        for j, t in enumerate(nu.sites):
            c[i, j] = metric(s, t)
    return c


def wasserstein1(mu: DiscreteMeasure, nu: DiscreteMeasure, metric=None, cost=None):
    """Exact W1 between equal-mass measures; returns (value, CouplingPlan).

    Exactly one of `metric` (a callable on site pairs) or `cost` (a
    precomputed (len(mu), len(nu)) matrix) must be supplied.
    """
    if mu.is_zero or nu.is_zero:
        raise EmptyMeasureError("Wasserstein distance of a zero measure")
    if abs(mu.total_mass - nu.total_mass) > MASS_RTOL * max(mu.total_mass, nu.total_mass):
        raise UnbalancedMeasuresError(
            f"total masses differ: {mu.total_mass!r} vs {nu.total_mass!r}"
        )
    if cost is None:
        if metric is None:
            raise ValueError("either metric or cost must be given")
        cost = cost_matrix_from_metric(mu, nu, metric)
    cost = np.asarray(cost, dtype=float)
    plan = CouplingPlan(tuple(_transportation_simplex(mu.weights, nu.weights, cost)))
    return plan.cost(cost), plan


def _northwest_corner(a, b):
    """Initial basic feasible solution; returns flows dict and basis cell list."""
    n, m = len(a), len(b)
    a_rem = a.copy()
    b_rem = b.copy()
    basis = []
    flow = {}
    i = j = 0
    while True:
        q = min(a_rem[i], b_rem[j])
        basis.append((i, j))
        flow[(i, j)] = q
        a_rem[i] -= q
        b_rem[j] -= q
        if i == n - 1 and j == m - 1:
            break
        # on a tie close only the row, leaving a degenerate basic cell next
        if a_rem[i] <= b_rem[j] and i < n - 1:
            i += 1
        else:
            j += 1
    return flow, basis


def _tree_adjacency(basis, n):
    adj = {}
    for i, j in basis:
        adj.setdefault(i, []).append(("cell", i, j, n + j))
        adj.setdefault(n + j, []).append(("cell", i, j, i))
    return adj


def _compute_duals(basis, cost, n, m):
    u = np.full(n, np.nan)
    v = np.full(m, np.nan)
    adj = _tree_adjacency(basis, n)
    u[0] = 0.0
    stack = [0]
    seen = {0}
    while stack:
        node = stack.pop()
        for _, i, j, other in adj.get(node, ()):
            if other in seen:
                continue
            if other >= n:
                v[j] = cost[i, j] - u[i]
            else:
                u[i] = cost[i, j] - v[j]
            seen.add(other)
            stack.append(other)
    if np.any(np.isnan(u)) or np.any(np.isnan(v)):
        raise SolverFailureError("basis tree is disconnected; internal error")
    return u, v


def _tree_path(basis, n, start, goal):
    """Vertex/cell path between two tree nodes (nodes: sources 0..n-1, sinks n+j)."""
    adj = _tree_adjacency(basis, n)
    parent = {start: None}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for _, i, j, other in adj.get(node, ()):
            if other not in parent:
                parent[other] = (node, (i, j))
                stack.append(other)
    cells = []
    node = goal
    while parent[node] is not None:
        prev, cell = parent[node]
        cells.append(cell)
        node = prev
    cells.reverse()
    return cells


def _transportation_simplex(a, b, cost):
    """Optimal flows (i, j, mass > 0) in row-major order."""
    n, m = len(a), len(b)
    flow, basis = _northwest_corner(a, b)
    pivot_limit = 20 * (n * m + n + m) + 1000
    bland_after = 4 * (n * m + n + m) + 200
    pivots = 0
    basis_set = set(basis)
    while True:
        u, v = _compute_duals(basis, cost, n, m)
        reduced = cost - u[:, None] - v[None, :]
        for i, j in basis:
            reduced[i, j] = 0.0
        if pivots < bland_after:
            flat = int(np.argmin(reduced))
            ei, ej = divmod(flat, m)
            if reduced[ei, ej] >= -PIVOT_TOL:
                break
        else:
            # Bland's rule: first cell (row-major) with negative reduced cost
            neg = np.argwhere(reduced < -PIVOT_TOL)
            if len(neg) == 0:
                break
            ei, ej = map(int, neg[0])
        # cycle: entering cell + tree path from its source node to its sink node
        path_cells = _tree_path(basis, n, ei, n + ej)
        # orientation: entering (ei,ej) is +; walking the tree path back from
        # sink to source alternates -, +, -, ...
        signs = {}
        sign = -1.0
        for cell in reversed(path_cells):
            signs[cell] = sign
            sign = -sign
        minus_cells = [c for c, s in signs.items() if s < 0]
        theta = min(flow[c] for c in minus_cells)
        leaving = min(c for c in minus_cells if flow[c] == theta)
        for c, s in signs.items():
            flow[c] += s * theta
        flow[(ei, ej)] = theta
        flow[leaving] = 0.0
        del flow[leaving]
        basis_set.remove(leaving)
        basis_set.add((ei, ej))
        basis = sorted(basis_set)
        pivots += 1
        if pivots > pivot_limit:
            raise SolverFailureError(
                f"transportation simplex exceeded {pivot_limit} pivots", iterations=pivots
            )
    return [(i, j, q) for (i, j), q in sorted(flow.items()) if q > 0.0]


def brute_force_w1(mu: DiscreteMeasure, nu: DiscreteMeasure, cost):
    """Oracle: exact W1 by enumeration over assignments of equal mass units.

    Requires both measures to decompose into equally sized mass units
    (weights are integer multiples of a common unit); intended for
    instances of at most ~8 units per side.
    """
    import itertools

    cost = np.asarray(cost, dtype=float)
    unit = _common_unit(mu.weights, nu.weights)
    left = [i for i, w in enumerate(mu.weights) for _ in range(round(w / unit))]
    right = [j for j, w in enumerate(nu.weights) for _ in range(round(w / unit))]
    if len(left) != len(right):
        raise UnbalancedMeasuresError("unit decompositions differ in size")
    if len(left) > 9:
        raise ValueError("too many units for brute force enumeration")
    best = np.inf
    right_arr = np.array(right)
    unit_cost = cost[np.array(left)[:, None], right_arr[None, :]]
    k = len(left)
    for perm in itertools.permutations(range(k)):
        total = unit_cost[np.arange(k), perm].sum()
        if total < best:
            best = total
    return float(best * unit)


def _common_unit(wa, wb):
    """Largest u dividing every weight (Euclidean gcd on floats)."""
    unit = 0.0
    for w in np.concatenate([wa, wb]):
        x, y = max(unit, w), min(unit, w)
        while y > 1e-9:
            x, y = y, x - np.floor(x / y) * y
        unit = x
    for w in np.concatenate([wa, wb]):
        if abs(w / unit - round(w / unit)) > 1e-9:
            raise ValueError("weights are not integer multiples of a common unit")
    return unit
