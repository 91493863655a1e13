"""Exact Wasserstein-1 distance between equal-mass discrete measures.

The optimum of the balanced transportation problem on the complete
bipartite graph is found with a primal transportation simplex:

- initial basis by the northwest-corner rule;
- the basis is a spanning tree on sources and sinks, rooted at source 0
  and kept as labels that each pivot updates (Ahuja, Magnanti and Orlin,
  Network Flows, 1993, ch. 11): parent, depth and children of each node,
  and the basic cell and flow joining it to its parent;
- the cycle of the entering cell is the two tree paths up to their common
  ancestor; the subtree cut off by the leaving cell is re-hung from the
  entering cell, and its depths and duals are the only ones recomputed;
- each dual is the chain of subtractions along its node's path to the
  root, so the duals equal a full recompute bit for bit;
- entering cell by Dantzig's rule with pivot tolerance 1e-12, switching to
  Bland's rule (first eligible cell) if the pivot count suggests cycling;
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
    """A feasible transport plan: (source index, target index, mass) triples,
    with the simplex pivots that found it and whether Bland's rule engaged."""

    flows: tuple
    pivots: int = 0
    bland: bool = False

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
    flows, pivots, bland = _transportation_simplex(mu.weights, nu.weights, cost)
    plan = CouplingPlan(tuple(flows), pivots, bland)
    return plan.cost(cost), plan


def _bland_after(n, m):
    """Pivot count after which entering cells follow Bland's rule."""
    return 4 * (n * m + n + m) + 200


def _transportation_simplex(a, b, cost):
    """Optimal flows (i, j, mass > 0) in row-major order, pivot count, Bland flag.

    Tree nodes are sources 0..n-1 and sinks n..n+m-1, rooted at source 0.
    Each other node hangs from parent[node] by the basic cell with flat
    (row-major) index up_cell[node], which carries flow up_flow[node];
    pot holds the duals u, then v.
    """
    n, m = len(a), len(b)
    c = cost.reshape(-1)
    parent = [-1] * (n + m)
    up_cell = [-1] * (n + m)
    up_flow = [0.0] * (n + m)
    depth = [0] * (n + m)
    children = [[] for _ in range(n + m)]
    pot = [0.0] * (n + m)
    # northwest corner: each new basic cell hangs its new node from the
    # node of the previous cell that it shares
    a_rem = a.copy()
    b_rem = b.copy()
    i = j = 0
    new, old = n, 0
    while True:
        q = min(a_rem[i], b_rem[j])
        k = i * m + j
        parent[new], up_cell[new], up_flow[new], depth[new] = old, k, q, depth[old] + 1
        pot[new] = c.item(k) - pot[old]
        children[old].append(new)
        a_rem[i] -= q
        b_rem[j] -= q
        if i == n - 1 and j == m - 1:
            break
        # on a tie close only the row, leaving a degenerate basic cell next;
        # past the last column (masses equal only within MASS_RTOL) go down
        if (a_rem[i] <= b_rem[j] or j == m - 1) and i < n - 1:
            i += 1
            new, old = i, n + j
        else:
            j += 1
            new, old = n + j, i

    pivot_limit = 20 * (n * m + n + m) + 1000
    bland_after = _bland_after(n, m)
    pivots = 0
    reduced = np.empty((n, m))
    flat_reduced = reduced.reshape(-1)
    while True:
        p = np.array(pot)
        np.subtract(cost, p[:n, None], out=reduced)
        np.subtract(reduced, p[None, n:], out=reduced)
        flat_reduced[up_cell[1:]] = 0.0
        if pivots < bland_after:
            entering = int(flat_reduced.argmin())
            if flat_reduced[entering] >= -PIVOT_TOL:
                break
        else:
            # Bland's rule: first cell (row-major) with negative reduced cost
            negative = flat_reduced < -PIVOT_TOL
            entering = int(negative.argmax())
            if not negative[entering]:
                break
        ei, ej = divmod(entering, m)
        # cycle: the entering cell and the tree paths from its two ends up to
        # their common ancestor; the t-th cell from either end has sign -
        # for even t, so both end cells are -
        sides = ([], [])
        ends = [ei, n + ej]
        while ends[0] != ends[1]:
            s = 0 if depth[ends[0]] >= depth[ends[1]] else 1
            sides[s].append(ends[s])
            ends[s] = parent[ends[s]]
        theta = None
        for s, side in enumerate(sides):
            for x in side[::2]:
                f, k = up_flow[x], up_cell[x]
                if theta is None or f < theta or (f == theta and k < leaving):
                    theta, leaving, cut, cut_side = f, k, x, s
        for side in sides:
            for t, x in enumerate(side):
                up_flow[x] += theta if t % 2 else -theta
        # re-hang the subtree below the leaving cell from the other end of
        # the entering cell, reversing parent pointers up to the cut; each
        # node on that path takes over the cell (and flow) below it
        top, new_parent = (ei, n + ej) if cut_side == 0 else (n + ej, ei)
        x, k, f = top, entering, theta
        while True:
            old = parent[x]
            children[old].remove(x)
            children[new_parent].append(x)
            parent[x], up_cell[x], up_flow[x], k, f = new_parent, k, f, up_cell[x], up_flow[x]
            if x == cut:
                break
            new_parent, x = x, old
        # depths and duals change only on the re-hung subtree
        stack = [top]
        while stack:
            x = stack.pop()
            y = parent[x]
            depth[x] = depth[y] + 1
            pot[x] = c.item(up_cell[x]) - pot[y]
            stack.extend(children[x])
        pivots += 1
        if pivots > pivot_limit:
            raise SolverFailureError(
                f"transportation simplex exceeded {pivot_limit} pivots", iterations=pivots
            )
    flows = sorted((k, f) for k, f in zip(up_cell[1:], up_flow[1:]) if f > 0.0)
    return [(*divmod(k, m), np.float64(f)) for k, f in flows], pivots, pivots >= bland_after


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
