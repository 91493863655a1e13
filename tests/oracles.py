"""Independent oracles shared by the module tests and the acceptance suite.

Each oracle avoids the code path it checks: the barycenter oracle does grid
search over a tangent chart (no gradient descent), the Wasserstein oracles
enumerate unit assignments, hand the linear program to HiGHS (no
transportation simplex) or run a simplex that rebuilds its basis tree at
every pivot (no tree code shared with `transport.py`), the entropy oracle
uses closed-form sphere counts on regular trees, the shortest-path oracle
is a binary-heap Dijkstra over the edge list, the source-gradient oracle
loops over atoms and fibers with distance dicts, the rotation-net oracle
builds the fixture one sample and one orbit pair at a time, and the deck
oracle tries every permutation of the sheets against the whole monodromy
group.

`two_evaluation_barycenter` is not independent: it is the barycenter loop
as it stood before the solver reused its trial logs (`dist_many` at each
trial, `log_many` at each accepted iterate, F recomputed at exit), kept to
check that the one-evaluation solver follows the same iterates bit for bit.
`lipschitz_constant` is the all-pairs Lipschitz ratio that the tests read.

`minkowski_dot_reference` is the Minkowski product as numpy's last-axis
reduction sums it, and `sample_ball_reference` the ball sampler's draw
loop as it calls the generator's `normal` and `uniform` one draw at a
time; both are kept to check that the library's kernel and sampler return
the same floats.  `einsum_denominator_matrix` is the BCG denominator as the
three-operand einsum computed it, kept to check that the matmul products
return the same floats for the canonical structures.  `ratio_line_scan`
evaluates the BCG ratio along a diagonal line in closed form, from the
spectrum alone.
"""

import heapq
import itertools
import math

import numpy as np

from barylab import hyperboloid as hyp
from barylab.barycenter import ARMIJO_C1, STEP_CAP
from barylab.errors import UnbalancedMeasuresError
from barylab.transport import PIVOT_TOL


def grid_barycenter_objective(nu, resolution=2e-4):
    """Brute-force grid minimization of the squared-distance objective.

    Searches a tangent-chart box at the first atom covering the whole
    support, then refines locally until the grid step drops below
    `resolution`.  Returns (best objective value, best point coords).
    Independent of the gradient-descent solver: pure evaluation.
    """
    pts = nu.sites
    w = nu.weights
    center = pts[0]
    R = float(np.max(hyp.dist_many(center, pts))) + 1e-6
    frame = hyp.tangent_frame(center)
    n = frame.shape[0]

    def evaluate(cands):
        best = (np.inf, None, None)
        for c in cands:
            y = hyp.exp(center, c @ frame)
            d = hyp.dist_many(y, pts)
            val = float(np.sum(w * d * d))
            if val < best[0]:
                best = (val, y, c)
        return best

    step = max(R / 3.0, resolution)
    axes = [np.arange(-R, R + step / 2, step) for _ in range(n)]
    best_val, best_pt, best_c = evaluate(np.array(c) for c in itertools.product(*axes))
    while step > resolution:
        step *= 0.4
        offsets = (np.array(c) * step for c in itertools.product((-2, -1, 0, 1, 2), repeat=n))
        val, pt, c = evaluate(best_c + o for o in offsets)
        if val < best_val:
            best_val, best_pt, best_c = val, pt, c
    return best_val, best_pt


def two_evaluation_barycenter(pts, w, mass, tol, max_iter, initial=None):
    """The Armijo descent with separate distance and log evaluations.

    `pts` and `w` are the solver's sites and normalized weights, `mass` the
    total mass.  Returns (coords, gradient_norm, iterations, objective,
    converged), the fields of `BarycenterResult` (of `SolverFailureError.best`
    when not converged).
    """
    if len(pts) == 1:
        return pts[0], 0.0, 0, 0.0, True
    start = w @ pts if initial is None else np.asarray(initial, dtype=float)
    y = hyp.project_to_sheet(start)

    def f(pt):
        d = hyp.dist_many(pt, pts)
        return float(np.sum(w * d * d))

    fy = f(y)
    for it in range(1, max_iter + 1):
        v = w @ hyp.log_many(y, pts)[1]
        vnorm = math.sqrt(max(hyp.minkowski_dot(v, v), 0.0))
        grad_norm = 2.0 * vnorm
        if grad_norm <= tol:
            return y, grad_norm * mass, it - 1, f(y) * mass, True
        t = min(1.0, STEP_CAP / vnorm)
        decrease = 2.0 * vnorm * vnorm
        if decrease <= 1e-13 * max(1.0, abs(fy)):
            y = hyp.exp(y, t * v)
            fy = f(y)
            continue
        accepted = False
        for _ in range(60):
            y_new = hyp.exp(y, t * v)
            fy_new = f(y_new)
            if fy_new <= fy - ARMIJO_C1 * t * decrease:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        y, fy = y_new, fy_new
    v = w @ hyp.log_many(y, pts)[1]
    grad_norm = 2.0 * math.sqrt(max(hyp.minkowski_dot(v, v), 0.0))
    return y, grad_norm * mass, max_iter, f(y) * mass, grad_norm <= tol


def regular_tree_ball_mass(k, R):
    """Vertex count of a radius-R ball in the infinite k-regular unit tree."""
    if R < 0:
        return 0
    total = 1
    shell = k
    for _ in range(int(R)):
        total += shell
        shell *= k - 1
    return total


def hyperbolic_metric(s, t):
    return float(hyp.dist(np.array(s), np.array(t)))


def lipschitz_constant(f, domain, target_metric, mode="all"):
    """Largest ratio target_metric(f u, f v) / d(u, v) on an `MMGraph`.

    mode="all" maximizes over all vertex pairs; mode="edges" only over
    edges, which upper-bounds the all-pairs value for shortest-path metrics.
    """
    fmap = f if callable(f) else f.__getitem__
    if mode == "edges":
        best = 0.0
        for u, v, length in domain.edges:
            if u == v:
                continue
            best = max(best, target_metric(fmap(u), fmap(v)) / length)
        return best
    if mode != "all":
        raise ValueError("mode must be 'all' or 'edges'")
    best = 0.0
    for u in domain.vertices:
        dist = domain.dijkstra(u)
        fu = fmap(u)
        for v, d in dist.items():
            if v == u or d <= 0:
                continue
            best = max(best, target_metric(fu, fmap(v)) / d)
    return best


def tree_entropy_exact(k):
    return math.log(k - 1)


def subgroup_index_by_coset_tables(words, rank, max_index=5):
    """Brute-force coset enumeration for a subgroup of a free group.

    Enumerates every candidate coset table up to `max_index` cosets (one
    permutation per generator, acting transitively) and keeps those whose
    point stabilizer contains all the given words.  The subgroup's coset
    action is among them and has the most cosets, so the index equals the
    largest table size found (provided the true index is <= max_index);
    infinite-index subgroups still yield some k, so only use this oracle
    on subgroups known to have finite index.
    """
    from barylab.indices.stallings import parse_word

    parsed = [parse_word(w, rank) if isinstance(w, str) else list(w) for w in words]

    def apply_word(perms, word, point):
        for letter, sign in word:
            p = perms[letter]
            if sign > 0:
                point = p[point]
            else:
                point = p.index(point)
        return point

    best = 0
    for k in range(1, max_index + 1):
        found = False
        for perms in itertools.product(itertools.permutations(range(k)), repeat=rank):
            # transitivity
            seen = {0}
            frontier = [0]
            while frontier:
                x = frontier.pop()
                for p in perms:
                    for y in (p[x], p.index(x)):
                        if y not in seen:
                            seen.add(y)
                            frontier.append(y)
            if len(seen) != k:
                continue
            if all(apply_word(perms, w, 0) == 0 for w in parsed):
                found = True
                break
        if found:
            best = k
    return best


def brute_force_w1(mu, nu, cost):
    """Oracle: exact W1 by enumeration over assignments of equal mass units.

    Requires both measures to decompose into equally sized mass units
    (weights are integer multiples of a common unit); intended for
    instances of at most ~8 units per side.
    """
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


def lp_w1(a, b, cost):
    """Optimal transport cost between weight vectors a and b under `cost`,
    solved as a linear program by HiGHS with feasibility tolerances 1e-10."""
    from scipy.optimize import linprog
    from scipy.sparse import eye, kron, vstack

    n, m = cost.shape
    rows = vstack([kron(eye(n), np.ones((1, m))), kron(np.ones((1, n)), eye(m))]).tocsr()
    res = linprog(cost.ravel(), A_eq=rows, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


def rebuild_simplex(a, b, cost, bland_after=None):
    """Transportation simplex that rebuilds its basis tree at every pivot.

    The same least-cost start, Dantzig entering rule with PIVOT_TOL,
    switch to Bland's rule after `bland_after` pivots (None: 4(nm+n+m)+200)
    and lowest-index leaving rule as `barylab.transport`, but duals and
    cycles come from a dict-of-lists tree built from the sorted basis each
    pivot.  Returns (flows (i, j, mass > 0) in row-major order, pivots,
    whether Bland's rule engaged).
    """
    n, m = len(a), len(b)
    flow, basis = _least_cost_start(a, b, cost)
    pivot_limit = 20 * (n * m + n + m) + 1000
    if bland_after is None:
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
            raise RuntimeError(f"rebuild simplex exceeded {pivot_limit} pivots")
    flows = [(i, j, q) for (i, j), q in sorted(flow.items()) if q > 0.0]
    return flows, pivots, pivots >= bland_after


def _least_cost_start(a, b, cost):
    """Initial basic feasible solution by the least-cost rule; returns the
    flows dict and basis cell list.

    Open cells are taken cheapest first, ties by (row, column); each takes
    what its row and column have left and closes the line that ran out (the
    row on a tie), except that the last open row or column stays open while
    the other side has lines left.
    """
    n, m = len(a), len(b)
    left = {("row", i): float(a[i]) for i in range(n)}
    left.update({("col", j): float(b[j]) for j in range(m)})
    cells = sorted(((float(cost[i][j]), i, j) for i in range(n) for j in range(m)))
    basis = []
    flow = {}
    for _, i, j in cells:
        row, col = ("row", i), ("col", j)
        if row not in left or col not in left:
            continue
        q = min(left[row], left[col])
        basis.append((i, j))
        flow[(i, j)] = q
        left[row] -= q
        left[col] -= q
        rows = sum(1 for line in left if line[0] == "row")
        cols = len(left) - rows
        if rows == 1 and cols == 1:
            break
        if cols == 1:
            del left[row]
        elif rows == 1:
            del left[col]
        elif left[row] <= left[col]:
            del left[row]
        else:
            del left[col]
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
        raise RuntimeError("basis tree is disconnected")
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


def heap_dijkstra(g, source, cutoff=None):
    """Binary-heap Dijkstra over `g.edges`; keys in settle order."""
    adj = [[] for _ in g.vertices]
    for u, v, length in g.edges:
        iu, iv = g.index[u], g.index[v]
        adj[iu].append((iv, length))
        if iu != iv:
            adj[iv].append((iu, length))
    dist = {}
    heap = [(0.0, g.index[source])]
    while heap:
        d, i = heapq.heappop(heap)
        if i in dist:
            continue
        if cutoff is not None and d > cutoff:
            continue
        dist[i] = d
        for j, length in adj[i]:
            if j not in dist:
                nd = d + length
                if cutoff is None or nd <= cutoff:
                    heapq.heappush(heap, (nd, j))
    return {g.vertices[i]: d for i, d in dist.items()}


def loop_source_gradients(g, x, mu, images, dim):
    """Fiber-averaged source gradients one atom and one fiber at a time.

    Distances are heap-Dijkstra dicts; the one-ring chart Gram matrix is
    filled pair by pair; the mu atoms are grouped into fibers by image
    tuple in order of first appearance.  Returns (site array, G).
    """
    d_x = heap_dijkstra(g, x)
    ring = {u: heap_dijkstra(g, u) for u, _ in g.neighbors(x) if u != x}
    neighbors = sorted(ring, key=str)
    k = len(neighbors)
    gram = np.empty((k, k))
    for a, u in enumerate(neighbors):
        for b, v in enumerate(neighbors):
            gram[a, b] = 0.5 * (ring[u][x] ** 2 + ring[v][x] ** 2 - ring[u][v] ** 2)
    vals, vecs = np.linalg.eigh(gram)
    top = np.argsort(vals)[::-1][:dim]
    pinv = np.linalg.pinv(vecs[:, top] * np.sqrt(vals[top]))
    fibers = {}
    for i, v in enumerate(mu.sites):
        fibers.setdefault(tuple(float(c) for c in images[g.index[v]]), []).append(i)
    G = []
    for v in mu.sites:
        grad = pinv @ np.array([ring[u][v] - d_x[v] for u in neighbors])
        G.append(grad / max(np.linalg.norm(grad), 1.0))
    G = np.array(G)
    out = []
    for members in fibers.values():
        w = mu.weights[members]
        grad = w @ G[members] / np.sum(w)
        out.append(grad / max(np.linalg.norm(grad), 1.0))
    return np.array(list(fibers)), np.array(out)


def scalar_rotation_net(rng, order=4, n=3, radius=2.0, spacing=0.35,
                        edge_factor=2.0, oversample=30):
    """Rotation-symmetric ball net, one sample and one orbit pair at a time.

    Returns (vertices, edges, images), images[i] the point of vertices[i],
    for comparison with `graphs.rotation_symmetric_net`.
    """
    from barylab.graphs import ball_volume

    rot = hyp.rotation(2 * math.pi / order, n, i=n - 1, j=n)
    count = max(200, int(oversample * ball_volume(n, radius) / spacing**n / order))
    samples = np.empty((count, n + 1))
    o = hyp.basepoint(n)
    grid = np.linspace(0, radius, 4096)
    cdf = np.cumsum(np.sinh(grid) ** (n - 1))
    cdf /= cdf[-1]
    for i in range(count):
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        r = float(np.interp(rng.uniform(), cdf, grid))
        v = np.zeros(n + 1)
        v[1:] = r * u
        samples[i] = hyp.exp(o, v)
    orbits = []
    buf = np.empty((count * order, n + 1))
    filled = 0
    for p in samples:
        orbit = [p]
        for _ in range(order - 1):
            orbit.append(hyp.project_to_sheet(rot @ orbit[-1]))
        orbit = np.array(orbit)
        ok = True
        if filled:
            for q in orbit:
                if np.min(hyp.dist_many(q, buf[:filled])) < spacing:
                    ok = False
                    break
        if ok:
            for a in range(order):
                for b in range(a + 1, order):
                    if hyp.dist(orbit[a], orbit[b]) < spacing:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            orbits.append(orbit)
            buf[filled:filled + order] = orbit
            filled += order
    vertices = [(o, s) for o in range(len(orbits)) for s in range(order)]
    images = np.array([orbits[o][s] for o, s in vertices])
    edges = []
    threshold = edge_factor * spacing
    for o1 in range(len(orbits)):
        p = orbits[o1][0]
        for o2 in range(o1, len(orbits)):
            d = hyp.dist_many(p, orbits[o2])
            for s in range(order):
                if d[s] > threshold:
                    continue
                if o1 == o2:
                    if s == 0 or s > order - s:
                        continue
                    shifts = range(order // 2) if 2 * s == order else range(order)
                else:
                    shifts = range(order)
                for shift in shifts:
                    edges.append(((o1, shift), (o2, (s + shift) % order), float(d[s])))
    return vertices, edges, images


def minkowski_dot_reference(u, v):
    """-u0*v0 + sum_i ui*vi with the spatial sum taken by numpy's reduction."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return -u[..., 0] * v[..., 0] + (u[..., 1:] * v[..., 1:]).sum(axis=-1)


def sample_ball_reference(rng, n, radius, count):
    """`graphs._sample_ball` with `rng.normal(size=n)` and `rng.uniform()`
    called per draw, and the sheet projection written out with
    `minkowski_dot_reference`."""
    vel = np.zeros((count, n + 1))
    level = np.empty(count)
    grid = np.linspace(0, radius, 4096)
    cdf = np.cumsum(np.sinh(grid) ** (n - 1))
    cdf /= cdf[-1]
    for i in range(count):
        u = rng.normal(size=n)
        vel[i, 1:] = u / math.sqrt(u.dot(u))
        level[i] = rng.uniform()
    vel[:, 1:] *= np.interp(level, cdf, grid)[:, None]
    theta = np.sqrt(np.maximum(minkowski_dot_reference(vel, vel), 0.0)).tolist()
    vel *= np.array([math.sinh(t) / t if t >= 1e-300 else 0.0 for t in theta])[:, None]
    vel[:, 0] += np.array([math.cosh(t) for t in theta])
    vel /= np.sqrt(-minkowski_dot_reference(vel, vel))[:, None]
    return vel * np.where(vel[:, 0] > 0, 1.0, -1.0)[:, None]


def brute_force_deck(base, voltage):
    """Deck maps of a connected voltage cover by brute force over S_k.

    Every permutation delta of the root fiber that commutes with the whole
    monodromy group (the closure of the loop permutations of a depth-first
    spanning tree), carried to each fiber along the tree, in lexicographic
    order of delta.  Missing voltages are the identity.
    """
    k = len(next(iter(voltage.values())))
    ident = tuple(range(k))
    perms = [tuple(voltage.get(e, ident)) for e in range(len(base.edges))]

    def compose(p, q):  # p after q
        return tuple(p[i] for i in q)

    def inverse(p):
        return tuple(sorted(range(k), key=lambda i: p[i]))

    root = base.vertices[0]
    tree = {root: ident}
    used = set()
    stack = [root]
    while stack:
        u = stack.pop()
        for e, (a, b, _) in enumerate(base.edges):
            for x, y, p in ((a, b, perms[e]), (b, a, inverse(perms[e]))):
                if x == u and y not in tree:
                    tree[y] = compose(p, tree[u])
                    used.add(e)
                    stack.append(y)
    group = {ident}
    frontier = [ident]
    gens = [compose(inverse(tree[b]), compose(perms[e], tree[a]))
            for e, (a, b, _) in enumerate(base.edges) if e not in used]
    while frontier:
        frontier = [compose(g, h) for g in frontier for h in gens]
        frontier = [g for g in dict.fromkeys(frontier) if g not in group]
        group.update(frontier)
    deck = []
    for delta in itertools.permutations(range(k)):
        if all(compose(delta, g) == compose(g, delta) for g in group):
            phi = {}
            for v in base.vertices:
                conj = compose(tree[v], compose(delta, inverse(tree[v])))
                phi.update({(v, s): (v, conj[s]) for s in range(k)})
            deck.append(phi)
    return deck


def ratio_line_scan(N, direction, t_max=None, steps=100):
    """Ratio along H_t = I/N + t * diag(direction), d = 1.

    `direction` must be trace-free; t_max defaults to the largest t keeping
    the spectrum inside (0, 0.41), where the log-ratio is concave in t and
    hence decreasing away from the maximum at t = 0.
    """
    direction = np.asarray(direction, dtype=float)
    if abs(np.sum(direction)) > 1e-12:
        raise ValueError("direction must be trace-free")
    scale = np.max(np.abs(direction))
    if scale == 0:
        raise ValueError("direction must be nonzero")
    if t_max is None:
        up = (0.41 - 1.0 / N) / np.max(direction) if np.max(direction) > 0 else np.inf
        down = (1.0 / N - 1e-6) / -np.min(direction) if np.min(direction) < 0 else np.inf
        t_max = 0.999 * min(up, down)
    ts = np.linspace(0.0, t_max, steps)
    vals = []
    for t in ts:
        eigs = 1.0 / N + t * direction
        ratio = float(np.prod(eigs) / np.prod(1.0 - eigs) ** 2)
        vals.append(ratio)
    return ts, np.array(vals)


def einsum_denominator_matrix(H, J):
    """I - H - sum_i J_i H J_i by the three-operand einsum the library used
    before its structure products became matmuls."""
    D = np.eye(H.shape[-1]) - H
    for Ji in J:
        D = D - np.einsum("ij,...jk,kl->...il", Ji, H, Ji)
    return D
