import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from barylab import graphs, hyperboloid as hyp, mmgraph
from barylab.errors import (
    DisconnectedCoverError,
    DisconnectedGraphError,
    GraphLookupError,
    NonFiniteInputError,
    WindowSaturationError,
)
from barylab.mmgraph import (
    MMGraph,
    ball_measure,
    build_cover,
    volume_entropy,
)

from oracles import (
    brute_force_deck,
    heap_dijkstra,
    lipschitz_constant,
    regular_tree_ball_mass,
    scalar_rotation_net,
)

RNG = np.random.default_rng(3)


def test_ball_measure_trivial_cases():
    g = graphs.path_graph(20)
    assert ball_measure(g, 10, 0.0) == 1.0
    assert ball_measure(g, 10, 100.0) == g.total_measure
    with pytest.raises(GraphLookupError):
        ball_measure(g, "nope", 1.0)


def test_ball_measure_matches_tree_closed_form():
    g = graphs.regular_tree(3, 9)
    for R in range(0, 9):
        assert ball_measure(g, 0, R) == regular_tree_ball_mass(3, R)


def test_ball_measure_nondecreasing():
    g = graphs.tutte_coxeter_graph()
    masses = [ball_measure(g, 0, r) for r in np.linspace(0, 5, 21)]
    assert all(b >= a for a, b in zip(masses, masses[1:]))


def test_ball_measure_of_radii_sums_in_settle_order():
    # nonuniform measure and tied distances: each mass is the running sum
    # over the heap's settle order, the same floats as one radius at a time
    base = graphs.tutte_coxeter_graph()
    measure = {v: 0.1 + 0.37 * (i % 7) for i, v in enumerate(base.vertices)}
    g = MMGraph(base.vertices, base.edges, measure)
    radii = [0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 8.0]
    masses = ball_measure(g, 5, radii)
    settled = heap_dijkstra(g, 5)
    for r, mass in zip(radii, masses):
        expected = 0.0
        for v, d in settled.items():
            if d <= r:
                expected += g.measure[g.index[v]]
        assert mass == expected == ball_measure(g, 5, r)
    with pytest.raises(ValueError):
        ball_measure(g, 5, [1.0, -0.5])


def test_distances_row_is_the_dijkstra_dict():
    g = graphs.regular_tree(3, 6)
    for cutoff in (None, 0.0, 2.5, 4.0):
        row = g.distances(3, cutoff=cutoff)
        ball = g.dijkstra(3, cutoff=cutoff)
        assert row.shape == (g.n,)
        assert {v: row[g.index[v]] for v in ball} == ball
        outside = [g.index[v] for v in g.vertices if v not in ball]
        assert np.all(row[outside] == np.inf)


def test_volume_entropy_trees():
    g3 = graphs.regular_tree(3, 14)
    est3 = volume_entropy(g3, 0, 4, 12)
    assert abs(est3.h - math.log(2)) < 0.02 * math.log(2)
    g4 = graphs.regular_tree(4, 10)
    est4 = volume_entropy(g4, 0, 3, 9)
    assert abs(est4.h - math.log(3)) < 0.02 * math.log(3)


def test_volume_entropy_path_is_flat():
    g = graphs.path_graph(200)
    est = volume_entropy(g, 100, 10, 60)
    assert abs(est.h) < 0.05


def test_volume_entropy_basepoint_independence():
    g = graphs.regular_tree(3, 14)
    near_root = g.dijkstra(0, cutoff=2)
    shallow = [v for v in g.vertices if near_root.get(v) is not None]
    picks = RNG.choice(shallow, size=5, replace=False)
    ests = [volume_entropy(g, int(v), 4, 12) for v in picks]
    for e in ests[1:]:
        assert abs(e.h - ests[0].h) <= 2 * (e.residual + ests[0].residual) + 1e-12


def test_volume_entropy_carries_its_radii_and_masses():
    g = graphs.regular_tree(3, 10)
    est = volume_entropy(g, 0, 2, 6, step=0.5)
    assert est.radii == (2, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0)
    assert est.masses == tuple(ball_measure(g, 0, est.radii).tolist())
    assert est.masses == tuple(float(regular_tree_ball_mass(3, r)) for r in est.radii)


@pytest.mark.parametrize("r_max, step", [(5, 0), (5, -1), (5, math.nan), (5, math.inf),
                                          (5, 10), (math.inf, 1)])
def test_volume_entropy_rejects_windows_without_two_radii(r_max, step):
    # a step of 0 or below, or an infinite r_max, would add radii without end
    with pytest.raises(ValueError):
        volume_entropy(graphs.regular_tree(3, 8), 0, 2, r_max, step=step)


@pytest.mark.parametrize("step", [1e-20, 1e-12])
def test_volume_entropy_rejects_steps_past_the_radius_cap(step):
    # r += 1e-20 leaves r at 2.0, and 1e-12 would ask for 3e12 radii
    with pytest.raises(ValueError, match="radii"):
        volume_entropy(graphs.regular_tree(3, 8), 0, 2, 5, step=step)


def test_volume_entropy_saturation_error():
    g = graphs.path_graph(30)
    with pytest.raises(WindowSaturationError):
        volume_entropy(g, 15, 5, 40)


def test_cover_trivial_voltage_disconnected():
    base = graphs.rose_graph(2)
    with pytest.raises(DisconnectedCoverError) as exc:
        build_cover(base, {0: (0, 1, 2), 1: (0, 1, 2)})
    assert len(exc.value.components) == 3


def test_cover_single_loop_cycle():
    base = MMGraph([0], [(0, 0, 1.0)])
    cover = build_cover(base, {0: (1, 2, 3, 4, 0)})
    assert cover.total.n == 5
    assert sorted(cover.total.dijkstra((0, 0)).values()) == [0, 1, 1, 2, 2]
    cover.validate()
    assert len(cover.deck) == 5  # cyclic deck group
    assert cover.deck == brute_force_deck(base, {0: (1, 2, 3, 4, 0)})


def test_cover_deck_maps_beyond_eight_sheets():
    # the 9-sheeted cyclic cover of the one-loop graph is a 9-cycle whose
    # deck group is its 9 rotations, listed by the image of sheet 0
    base = graphs.rose_graph(1)
    cover = build_cover(base, {0: tuple((s + 1) % 9 for s in range(9))})
    cover.validate()
    assert len(cover.deck) == 9
    for t, phi in enumerate(cover.deck):
        assert phi == {(0, s): (0, (s + t) % 9) for s in range(9)}
        edges = {frozenset((phi[u], phi[v])) for u, v, _ in cover.total.edges}
        assert edges == {frozenset((u, v)) for u, v, _ in cover.total.edges}


def _abelian_voltage(rng, base, k):
    """Voltages in a sheet-relabelled regular representation of Z_k or of
    Z_2 x Z_(k/2): covers with a deck group of order k when connected."""
    shape = (2, k // 2) if k % 2 == 0 and rng.random() < 0.5 else (k,)
    grid = np.arange(k).reshape(shape)
    relabel = rng.permutation(k)
    voltage = {}
    for e in range(len(base.edges)):
        shift = [int(rng.integers(m)) for m in shape]
        moved = np.roll(grid, [-a for a in shift], axis=tuple(range(len(shape))))
        perm = np.empty(k, dtype=int)
        perm[relabel[grid.ravel()]] = relabel[moved.ravel()]
        voltage[e] = tuple(int(i) for i in perm)
    return voltage


def test_cover_deck_maps_match_brute_force():
    rng = np.random.default_rng(41)
    checked = nontrivial = 0
    for base in (graphs.heawood_graph(), graphs.rose_graph(2), graphs.cycle_graph(5)):
        for k in range(1, 7):
            for trial in range(4):
                if trial % 2:
                    voltage = _abelian_voltage(rng, base, k)
                else:
                    voltage = {e: tuple(int(i) for i in rng.permutation(k))
                               for e in range(len(base.edges)) if rng.random() < 0.6}
                    voltage = voltage or {0: tuple(range(k))}
                try:
                    cover = build_cover(base, voltage)
                except DisconnectedCoverError:
                    continue
                assert cover.deck == brute_force_deck(base, voltage)
                checked += 1
                nontrivial += len(cover.deck) > 1
    assert checked >= 40 and nontrivial >= 15


def test_cover_measure_lifts_base_measure():
    base = MMGraph([0, 1], [(0, 1, 1.0), (0, 1, 2.0)], {0: 2.0, 1: 3.0})
    cover = build_cover(base, {0: (1, 0), 1: (0, 1)})
    for (v, s), w in zip(cover.total.vertices, cover.total.measure):
        assert w == base.measure[base.index[v]]
    # fiber carries k times the base mass
    assert cover.total.total_measure == 2 * base.total_measure
    cover.validate()


def test_cover_deck_action_random_voltages():
    base = graphs.heawood_graph()
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        k = 3
        voltage = {}
        for e in range(len(base.edges)):
            voltage[e] = tuple(rng.permutation(k))
        try:
            cover = build_cover(base, voltage)
        except DisconnectedCoverError:
            continue
        cover.validate()
        assert cover.deck == brute_force_deck(base, voltage)
        for phi in cover.deck:
            for w in cover.total.vertices:
                assert cover.projection[phi[w]] == cover.projection[w]


def test_cover_fibers_constant_cardinality():
    base = graphs.heawood_graph()
    voltage = {0: (1, 2, 0)}
    cover = build_cover(base, voltage)
    fibers = {}
    for w, v in cover.projection.items():
        fibers.setdefault(v, 0)
        fibers[v] += 1
    assert set(fibers.values()) == {3}


def test_cover_balls_match_base_below_girth():
    # covers are local isometries: ball masses agree under the girth scale,
    # so entropy estimates in such windows agree exactly
    base = graphs.tutte_coxeter_graph()  # girth 8
    voltage = {e: ((1, 0) if e % 3 == 0 else (0, 1)) for e in range(len(base.edges))}
    cover = build_cover(base, voltage)
    hb = volume_entropy(base, 0, 1, 3)
    ht = volume_entropy(cover.total, (0, 0), 1, 3)
    assert ht.h >= hb.h - 2 * (hb.residual + ht.residual) - 1e-12
    for r in (1, 2, 3):
        assert ball_measure(base, 0, r) == ball_measure(cover.total, (0, 0), r)


def test_lipschitz_constant_identity_and_constant():
    g = graphs.cycle_graph(12)

    def graph_metric(u, v):
        return g.distance(u, v)

    assert lipschitz_constant(lambda v: v, g, graph_metric, mode="all") == 1.0
    assert lipschitz_constant(lambda v: 0, g, graph_metric, mode="all") == 0.0


def test_lipschitz_edge_bound_dominates_all_pairs():
    g = graphs.tutte_coxeter_graph()
    rng = np.random.default_rng(17)
    coords = {v: hyp.random_point(rng, 3, 1.0) for v in g.vertices}

    def target_metric(a, b):
        return float(hyp.dist(np.asarray(a), np.asarray(b)))

    f = {v: tuple(coords[v]) for v in g.vertices}
    lip_all = lipschitz_constant(f, g, target_metric, mode="all")
    lip_edges = lipschitz_constant(f, g, target_metric, mode="edges")
    assert lip_all <= lip_edges + 1e-12


def test_graph_json_roundtrip():
    g = MMGraph(["a", "b", "c"], [("a", "b", 1.5), ("b", "c", 0.5)], {"a": 2.0, "b": 1.0, "c": 0.25})
    assert g.to_json() == ('{"vertices": ["a", "b", "c"], "edges": [["a", "b", 1.5], '
                           '["b", "c", 0.5]], "measure": {"a": 2.0, "b": 1.0, "c": 0.25}}')
    g2 = MMGraph.from_json(g.to_json())
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges
    assert np.array_equal(g2.measure, g.measure)
    gi = graphs.cycle_graph(5)
    gi2 = MMGraph.from_json(gi.to_json())
    assert gi2.vertices == gi.vertices
    # tuple ids, written as JSON arrays, come back as tuples
    cover = build_cover(graphs.heawood_graph(), {0: (1, 0)}).total
    net, _, _, _ = graphs.rotation_symmetric_net(
        np.random.default_rng(6), order=4, n=3, radius=1.5, spacing=0.45)
    for g in (cover, net):
        g2 = MMGraph.from_json(g.to_json())
        assert g2.vertices == g.vertices and g2.edges == g.edges
        assert np.array_equal(g2.measure, g.measure)
        assert g2.to_json() == g.to_json()
    with pytest.raises(ValueError):
        MMGraph.from_json('{"vertices": [[[0], 1], [0, 1]], "edges": [[[[0], 1], [0, 1], 1.0]]}')


def test_graph_validation_errors():
    with pytest.raises(ValueError):
        MMGraph([0, 1], [(0, 1, 0.0)])  # zero length
    with pytest.raises(ValueError):
        MMGraph([0, 1], [])  # disconnected
    with pytest.raises(GraphLookupError):
        MMGraph([0], [(0, 1, 1.0)])
    for bad in (math.nan, math.inf):
        with pytest.raises(NonFiniteInputError):
            MMGraph([0, 1], [(0, 1, bad)])
        with pytest.raises(NonFiniteInputError):
            MMGraph([0, 1], [(0, 1, 1.0)], {0: 1.0, 1: bad})


def test_ball_net_connected_and_embedded():
    g, emb = graphs.hyperbolic_ball_net(np.random.default_rng(5), n=3, radius=1.5,
                                        spacing=0.45)
    assert g.n > 50
    # edge lengths match hyperbolic distances of endpoint embeddings
    for u, v, length in g.edges[:40]:
        assert abs(length - hyp.dist(emb[u], emb[v])) < 1e-9


def test_rotation_symmetric_net_deck_exactness():
    g, emb, deck, rot = graphs.rotation_symmetric_net(
        np.random.default_rng(6), order=4, n=3, radius=1.5, spacing=0.45)
    # deck is a graph automorphism with exactly equal edge lengths
    edge_set = {}
    for u, v, length in g.edges:
        edge_set[frozenset((u, v))] = length
    for key, length in edge_set.items():
        u, v = tuple(key)
        assert edge_set[frozenset((deck[u], deck[v]))] == length
    # embedding intertwines the deck map and the rotation isometry
    for w in g.vertices:
        image = hyp.project_to_sheet(rot @ emb[g.index[w]])
        assert hyp.dist(emb[g.index[deck[w]]], image) < 1e-12


@st.composite
def weighted_graphs(draw):
    """Connected graphs with loops, parallel edges and tied lengths, vertex
    ids shuffled against their indices, optionally replaced by a voltage
    cover."""
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations(range(n)))
    length = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5]),
                       st.floats(0.01, 3.0, allow_nan=False))
    edges = [(ids[draw(st.integers(0, i - 1))], ids[i], draw(length)) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), length),
                          max_size=2 * n))
    edges += [(ids[i], ids[j], w) for i, j, w in extra]
    g = MMGraph([f"v{i}" for i in ids], [(f"v{u}", f"v{v}", w) for u, v, w in edges])
    sheets = draw(st.integers(1, 3))
    if sheets > 1 and edges:
        voltage = {e: tuple(draw(st.permutations(range(sheets)))) for e in range(len(edges))}
        try:
            g = build_cover(g, voltage).total
        except DisconnectedCoverError:
            assume(False)
    return g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weighted_graphs(), st.data())
def test_dijkstra_matches_heap_oracle(g, data):
    source = data.draw(st.sampled_from(g.vertices))
    cutoff = data.draw(st.sampled_from([None, 0.0, 0.3, 1.0, 1.5, 2.75]))
    got = g.dijkstra(source, cutoff=cutoff)
    assert list(got.items()) == list(heap_dijkstra(g, source, cutoff=cutoff).items())


def heap_rows(g, sources, cutoff=None):
    """heap_dijkstra from each source as a (k, n) array, inf where unreached."""
    rows = np.full((len(sources), g.n), np.inf)
    for row, source in zip(rows, sources):
        for v, d in heap_dijkstra(g, source, cutoff=cutoff).items():
            row[g.index[v]] = d
    return rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weighted_graphs(), st.data())
def test_distance_rows_match_heap_oracle(g, data):
    # k sources with repeats, each cutoff of the dijkstra property, blocks
    # of 1 or 3 labels up to the default cap, chunks of 1 or 3 rows up to
    # the default, and all columns or some of them (with repeats)
    sources = data.draw(st.lists(st.sampled_from(g.vertices), min_size=1, max_size=30))
    cutoff = data.draw(st.sampled_from([None, 0.0, 0.3, 1.0, 1.5, 2.75]))
    cap = data.draw(st.sampled_from([1, 3, mmgraph.BLOCK_HALF_EDGES]))
    chunk = data.draw(st.sampled_from([1, 3 * g.n, mmgraph.CHUNK_LABELS]))
    columns = data.draw(st.none() | st.lists(st.integers(0, g.n - 1), max_size=8))
    saved = mmgraph.BLOCK_HALF_EDGES, mmgraph.CHUNK_LABELS
    mmgraph.BLOCK_HALF_EDGES, mmgraph.CHUNK_LABELS = cap, chunk
    try:
        rows = g.distance_rows(sources, cutoff=cutoff, columns=columns)
    finally:
        mmgraph.BLOCK_HALF_EDGES, mmgraph.CHUNK_LABELS = saved
    expected = heap_rows(g, sources, cutoff)
    if columns is not None:
        expected = expected[:, columns]
    assert np.array_equal(rows, expected) and rows.flags.c_contiguous


def test_distance_rows_memory_is_bounded_by_one_chunk():
    # 300 rows of a 3070-vertex tree are 0.92M labels (7.4 MB of floats);
    # taken CHUNK_LABELS // n rows at a time with six columns kept, the
    # traced peak stays under 40 bytes a chunk label (measured: ~31)
    g = graphs.regular_tree(3, 10)
    sources = g.vertices[::10][:300]
    columns = list(range(0, g.n, 600))
    expected = np.array([g.distances(v)[columns] for v in sources])
    tracemalloc.start()
    try:
        rows = g.distance_rows(sources, columns=columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows, expected)
    assert len(sources) * g.n > 3 * mmgraph.CHUNK_LABELS
    assert peak < 40 * mmgraph.CHUNK_LABELS


def test_distance_rows_blocked_rounds_on_rotation_net(monkeypatch):
    # a row from every vertex of the 184-vertex net: the widest rounds hold
    # more than BLOCK_HALF_EDGES half-edges, so they are relaxed in blocks
    g, _, _, _ = graphs.rotation_symmetric_net(
        np.random.default_rng(6), order=4, n=3, radius=1.5, spacing=0.45)
    blocks = []
    split = mmgraph._blocks

    def spy(ends, total, cap):
        out = list(split(ends, total, cap))
        blocks.append(len(out))
        return out

    monkeypatch.setattr(mmgraph, "_blocks", spy)
    sources = g.vertices[::-1] + g.vertices[:2]
    for cutoff in (None, 0.9):
        blocks.clear()
        rows = g.distance_rows(sources, cutoff=cutoff)
        assert np.array_equal(rows, heap_rows(g, sources, cutoff))
        assert max(blocks) > 1


def test_dijkstra_matches_heap_oracle_on_rotation_net():
    g, _, _, _ = graphs.rotation_symmetric_net(
        np.random.default_rng(6), order=4, n=3, radius=1.5, spacing=0.45)
    for source in g.vertices[::7]:
        for cutoff in (None, 0.9):
            got = g.dijkstra(source, cutoff=cutoff)
            assert list(got.items()) == list(heap_dijkstra(g, source, cutoff=cutoff).items())


def assert_net_matches_scalar_oracle(seed, order, radius, spacing):
    shape = dict(n=3, radius=radius, spacing=spacing)
    vertices, edges, images = scalar_rotation_net(
        np.random.default_rng(seed), order=order, **shape)
    if order == 1:
        # the ball net is the order-1 rotation net with vertex (o, 0) named o
        g, emb = graphs.hyperbolic_ball_net(np.random.default_rng(seed), **shape)
        vertices = [o for o, _ in vertices]
        edges = [(u, v, d) for (u, _), (v, _), d in edges]
    else:
        g, emb, _, _ = graphs.rotation_symmetric_net(
            np.random.default_rng(seed), order=order, **shape)
    assert g.vertices == vertices
    assert g.edges == edges
    assert np.array_equal(emb, images)


# radius 2.3-2.4 puts the net out where the Poincare cells of the pair search
# are compressed most (|u| up to tanh(1.2) ~ 0.83)
@pytest.mark.parametrize("seed, order, radius, spacing",
                         [(7, 3, 1.3, 0.45), (6, 4, 1.5, 0.45), (5, 1, 1.5, 0.45),
                          (7, 1, 1.3, 0.45), (3, 4, 2.4, 0.8), (3, 1, 2.3, 1.0)])
def test_rotation_net_matches_scalar_builder(seed, order, radius, spacing):
    assert_net_matches_scalar_oracle(seed, order, radius, spacing)


@pytest.mark.parametrize("seed, order", [(7, 3), (6, 4)])
def test_rotation_net_matches_scalar_oracle_with_wide_band(seed, order, monkeypatch):
    # a band of 0.05 sends many candidates to the whole-orbit test, which
    # must reach the same net as measuring step 0 alone
    monkeypatch.setattr(graphs, "_ORBIT_BAND", 0.05)
    whole_orbit = []
    dist = hyp.dist

    def spy(p, q):
        if np.ndim(p) == 3:
            whole_orbit.append(len(p))
        return dist(p, q)

    monkeypatch.setattr(graphs.hyp, "dist", spy)
    assert_net_matches_scalar_oracle(seed, order, 1.5, 0.45)
    assert len(whole_orbit) >= 10 and set(whole_orbit) == {order}


@st.composite
def pair_search_inputs(draw):
    """Points out to radius 6 in H^2 to H^6 (the fixtures' dims) with the
    basepoint among them, a threshold in [1e-3, 1], and some points of `b`
    placed within 1e-12 of the threshold from a point of `a`, in a random
    direction or along a coordinate axis through the basepoint (there
    |log_o p - log_o q| = d(p, q) in one coordinate, the tightest case for
    the log-map cells); `b` is `a` itself when `same`."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    threshold = draw(st.floats(1e-3, 1.0))
    radius = draw(st.floats(0.5, 6.0))
    o = hyp.basepoint(n)
    a = [o] + [hyp.random_point(rng, n, radius) for _ in range(draw(st.integers(0, 80)))]
    radial = []
    for _ in range(draw(st.integers(0, 6))):
        axis = np.zeros(n + 1)
        axis[draw(st.integers(1, n))] = draw(st.sampled_from([-1.0, 1.0]))
        r = draw(st.floats(0.0, radius))
        a.append(hyp.exp(o, r * axis))
        radial.append(hyp.exp(o, (r + threshold + draw(st.floats(-1e-12, 1e-12))) * axis))
    a = np.array(a)
    if draw(st.booleans()):
        return a, a, threshold
    b = radial + [hyp.random_point(rng, n, radius) for _ in range(draw(st.integers(0, 80)))]
    for _ in range(draw(st.integers(0, 20))):
        p = a[rng.integers(len(a))]
        v = hyp.tangent_project(p, rng.normal(size=n + 1))
        v /= math.sqrt(hyp.minkowski_dot(v, v))
        b.append(hyp.exp(p, (threshold + draw(st.floats(-1e-12, 1e-12))) * v))
    b = np.array(b).reshape(-1, n + 1)
    if len(b) and draw(st.booleans()):
        # a threshold equal to one of the distances tests d == threshold
        threshold = float(hyp.dist(a[0], b[-1]))
    return a, b, threshold


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pair_search_inputs())
def test_pairs_within_matches_all_pairs(inputs):
    a, b, threshold = inputs
    i, j, d = graphs._pairs_within(a, b, threshold)
    full = hyp.dist_many(a[:, None, :], b)
    ei, ej = np.nonzero(full <= threshold)
    assert list(zip(i.tolist(), j.tolist())) == list(zip(ei.tolist(), ej.tolist()))
    assert d.tobytes() == full[ei, ej].tobytes()


def test_readme_net_pair_search_work(monkeypatch):
    # hyp.dist elements evaluated inside `_pairs_within` while the README
    # net (order 4, radius 2, spacing 0.3, seed 1) is built: 1 335 156 on a
    # grid of Poincare-ball cells of side threshold / 2, 678 086 on the
    # log-map grid of side threshold
    evaluated, inside = [0], [False]
    dist, pairs_within = hyp.dist, graphs._pairs_within

    def counting_dist(p, q):
        d = dist(p, q)
        evaluated[0] += d.size if inside[0] else 0
        return d

    def flagged(*args):
        inside[0] = True
        try:
            return pairs_within(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(hyp, "dist", counting_dist)
    monkeypatch.setattr(graphs, "_pairs_within", flagged)
    g, _, _, _ = graphs.rotation_symmetric_net(np.random.default_rng(1), order=4, n=3,
                                               radius=2.0, spacing=0.3)
    assert (g.n, len(g.edges)) == (1880, 14190)
    assert evaluated[0] <= 700_000


def test_ball_net_edges_are_all_close_pairs():
    g, emb = graphs.hyperbolic_ball_net(np.random.default_rng(5), n=3, radius=1.5,
                                        spacing=0.45)
    expected = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            d = float(hyp.dist(emb[i], emb[j]))
            if d <= 2.0 * 0.45:
                expected.append((i, j))
    assert [(u, v) for u, v, _ in g.edges] == expected
    assert all(length == float(hyp.dist_many(emb[u], emb[v][None])[0])
               for u, v, length in g.edges)


def test_component_labels_of_disconnected_cover():
    base = graphs.heawood_graph()
    with pytest.raises(DisconnectedCoverError) as exc:
        build_cover(base, {0: (0, 1), 1: (0, 1)})
    comps = exc.value.components
    assert [len(c) for c in comps] == [14, 14]
    assert {s for c in comps for _, s in c} == {0, 1}
    assert all(len({s for _, s in c}) == 1 for c in comps)
    assert str(exc.value) == "graph splits into 2 components"
    # a plain graph: components by their least vertex index, each in index order
    with pytest.raises(DisconnectedGraphError) as exc:
        MMGraph([5, 1, 2, 3, 4], [(1, 4, 1.0), (5, 3, 2.0)])
    assert exc.value.components == [[5, 3], [1, 4], [2]]
    assert not isinstance(exc.value, DisconnectedCoverError)


def test_edgeless_graph_components_in_one_pass(monkeypatch):
    # one relaxation finds the graph disconnected; the components come from
    # one labelling pass, not one relaxation each
    calls = []
    relax = MMGraph._relax

    def spy(self, sources, cutoff):
        calls.append(len(sources))
        return relax(self, sources, cutoff)

    monkeypatch.setattr(MMGraph, "_relax", spy)
    n = 20_000
    with pytest.raises(DisconnectedGraphError) as exc:
        MMGraph(range(n), [])
    assert calls == [1]
    assert str(exc.value) == f"graph splits into {n} components"
    assert exc.value.components == [[v] for v in range(n)]
