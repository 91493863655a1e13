import dataclasses
import math

import numpy as np
import pytest

from barylab import graphs, hyperboloid as hyp
from barylab.errors import ConfigurationError, NonFiniteInputError, TruncationError
from barylab.measures import DiscreteMeasure
from barylab.mmgraph import MMGraph, build_cover
from barylab.naturalmap import (
    NaturalMapConfig,
    assemble_tensors,
    cauchy_schwarz_gap,
    deck_equivariance,
    entropy_volume_report,
    gates,
    jacobian_formula,
    jacobian_mesh,
    mu_x_s,
    natural_map_point,
    pushforward_with_fibers,
    run_natural_map,
    worst_gates,
)
from barylab.transport import wasserstein1

from oracles import (
    brute_force_deck,
    lipschitz_constant,
    loop_source_gradients,
    regular_tree_ball_mass,
)


def tree_cfg(s, radius=8.0, tol=1e-2):
    return NaturalMapConfig(s=s, truncation_radius=radius,
                            h_estimate=math.log(2), h_residual=0.0,
                            tail_tolerance=tol)


def star_fixture(t=1.0):
    """Center c with 2n leaves l0, ..., l(2n-1) at +-t along the coordinate
    axes: l(2i) at +t e_(i+1), l(2i+1) at -t e_(i+1)."""
    n = 3
    vertices = ["c"] + [f"l{i}" for i in range(2 * n)]
    edges = [("c", f"l{i}", 1.0) for i in range(2 * n)]
    g = MMGraph(vertices, edges)
    o = hyp.basepoint(n)
    images = [o]
    for i in range(n):
        v = np.zeros(n + 1)
        v[i + 1] = t
        images += [hyp.exp(o, v), hyp.exp(o, -v)]
    return g, np.array(images)


def nearest_to_origin(g, images):
    """The vertex whose image lies closest to the basepoint of H^3."""
    return g.vertices[int(np.argmin(hyp.dist_many(hyp.basepoint(3), images)))]


def small_net(seed=9, radius=1.4, spacing=0.4):
    return graphs.hyperbolic_ball_net(np.random.default_rng(seed), n=3,
                                      radius=radius, spacing=spacing)


def test_config_floor_enforced():
    with pytest.raises(ConfigurationError):
        NaturalMapConfig(s=0.5, truncation_radius=5.0, h_estimate=0.7, h_residual=0.1)
    NaturalMapConfig(s=1.2, truncation_radius=5.0, h_estimate=0.7, h_residual=0.1)


def on_ids(cover, atoms, weights):
    """mu as a measure on vertex ids, for W1 and pushforwards."""
    return DiscreteMeasure([cover.vertices[i] for i in atoms.tolist()], weights)


def test_mu_weight_at_center_is_exact():
    g = graphs.regular_tree(3, 9)
    atoms, weights, _ = mu_x_s(g, 0, tree_cfg(1.5))
    assert atoms.dtype == np.int64
    w = dict(zip(atoms.tolist(), weights.tolist()))
    assert w[g.index[0]] == g.measure[g.index[0]]  # e^0 term, exactly


def test_mu_drops_zero_measure_atoms_and_keeps_distance_order():
    # a path 0 - 1 - 2 - 3 - 4 with a zero-measure vertex 2 and leaves 5
    # (zero measure) and 6 on 2; 3, 5 and 6 tie at distance 3 from 0, and
    # index order (6, 3, 5) is not id order
    vertices = [6, 3, 0, 5, 2, 1, 4]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 5, 1.0), (2, 6, 1.0)]
    measure = {v: 1.0 for v in vertices}
    measure[2] = measure[5] = 0.0
    g = MMGraph(vertices, edges, measure)
    cfg = tree_cfg(1.5, radius=4.5, tol=10.0)
    atoms, weights, _ = mu_x_s(g, 0, cfg)
    dists = g.distances(0)
    assert [g.vertices[i] for i in atoms.tolist()] == [0, 1, 6, 3, 4]
    keys = [(dists[i], i) for i in atoms.tolist()]
    assert keys == sorted(keys)
    assert np.all(weights > 0)
    emb = np.array([hyp.exp(hyp.basepoint(2), np.array([0.0, 0.1 * v, 0.0]))
                    for v in g.vertices])
    _, info = natural_map_point(g, emb, 0, cfg)
    assert info["atoms"].tolist() == atoms.tolist()
    sigma = info["sigma"]
    assert len(sigma) == 5 and sigma.labels.tolist() == [0, 1, 2, 3, 4]
    for v in (2, 5):
        assert not np.any(np.all(sigma.sites == emb[g.index[v]], axis=1))


def test_mu_concentrates_for_large_s():
    g = graphs.regular_tree(3, 6)
    cfg = tree_cfg(50.0 * math.log(2), radius=5.0)
    norm = on_ids(g, *mu_x_s(g, 0, cfg)[:2]).normalize()
    delta = DiscreteMeasure.dirac(0)
    dist_from_root = g.dijkstra(0)
    value, _ = wasserstein1(norm, delta, metric=lambda a, b: abs(dist_from_root[a] - dist_from_root[b]))
    assert value < 0.01


def test_mu_tail_is_the_mass_beyond_the_radius_on_a_tree():
    # from the root of regular_tree(3, 12), the ball of radius 4 drops the
    # spheres 5..12: tail = sum_{r=5}^{12} 3 * 2^(r-1) e^(-0.8 r) = 4.98506...
    s = 0.8
    sphere = [regular_tree_ball_mass(3, r) - regular_tree_ball_mass(3, r - 1)
              for r in range(13)]
    tail = math.fsum(sphere[r] * math.exp(-s * r) for r in range(5, 13))
    retained = math.fsum(sphere[r] * math.exp(-s * r) for r in range(5))
    assert abs(tail - 4.98506) < 1e-5 and abs(retained - 5.62627) < 1e-5
    g = graphs.regular_tree(3, 12)
    cfg = NaturalMapConfig(s=s, truncation_radius=4.0, h_estimate=math.log(2),
                           tail_tolerance=1.0)
    atoms, weights, got = mu_x_s(g, 0, cfg)
    assert len(atoms) == regular_tree_ball_mass(3, 4)
    assert abs(got - tail) <= 1e-12 * tail
    assert abs(float(np.sum(weights)) - retained) <= 1e-12 * retained
    with pytest.raises(TruncationError, match="tail mass beyond radius 4.0") as exc:
        mu_x_s(g, 0, dataclasses.replace(cfg, tail_tolerance=1e-3))
    assert abs(exc.value.tail_bound - tail) <= 1e-12 * tail


def test_mu_tail_is_zero_when_the_ball_holds_the_graph():
    # the root of regular_tree(3, 5) has eccentricity 5; the library's
    # default tolerance holds because nothing is dropped
    g = graphs.regular_tree(3, 5)
    for radius in (5.0, 7.5):
        cfg = NaturalMapConfig(s=0.8, truncation_radius=radius, h_estimate=math.log(2))
        atoms, _, tail = mu_x_s(g, 0, cfg)
        assert tail == 0.0
        assert len(atoms) == g.n


def test_mu_deck_equivariance_exact():
    base = graphs.heawood_graph()
    voltage = {e: ((1, 2, 0) if e % 2 == 0 else (0, 1, 2)) for e in range(len(base.edges))}
    cover = build_cover(base, voltage)
    assert cover.deck, "fixture should have a nontrivial deck group"
    assert cover.deck == brute_force_deck(base, voltage)
    phi = next(p for p in cover.deck if any(p[v] != v for v in cover.total.vertices))
    cfg = NaturalMapConfig(s=1.4, truncation_radius=7.0, h_estimate=0.9,
                           tail_tolerance=1.0)
    x = (0, 0)
    mu_x = on_ids(cover.total, *mu_x_s(cover.total, x, cfg)[:2])
    mu_gx = on_ids(cover.total, *mu_x_s(cover.total, phi[x], cfg)[:2])
    pushed = mu_x.pushforward(lambda v: phi[v])
    lhs = dict(zip(pushed.sites, pushed.weights))
    rhs = dict(zip(mu_gx.sites, mu_gx.weights))
    assert set(lhs) == set(rhs)
    for k in lhs:
        assert abs(lhs[k] - rhs[k]) <= 1e-12 * max(1.0, rhs[k])


def test_pushforward_groups_equal_images_in_first_appearance_order():
    # first appearance B, C, A against the sorted order A, B, C; -0.0 and
    # 0.0 are one coordinate
    images = np.array([[1.0, 2.0], [3.0, 0.0], [1.0, 2.0], [0.5, 0.0], [3.0, 0.0], [1.0, 2.0]])
    signed = images.copy()
    signed[4, 1] = -0.0
    w = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.7])
    for rows in (images, signed):
        sigma = pushforward_with_fibers(w, rows)
        assert sigma.sites.tolist() == [[1.0, 2.0], [3.0, 0.0], [0.5, 0.0]]
        assert sigma.labels.tolist() == [0, 1, 0, 2, 1, 0]
        assert sigma.weights.tolist() == [0.0 + 0.1 + 0.3 + 0.7, 0.0 + 0.2 + 0.5, 0.4]


def grouped_by_row_tuples(rows, w):
    """Sites, weights and labels of the atoms grouped with their row tuples
    as dict keys: first appearance order, weights added in atom order,
    zero-weight groups dropped (label -1)."""
    groups = {}
    for i, key in enumerate(map(tuple, rows.tolist())):
        groups.setdefault(key, []).append(i)
    sites, weights, labels = [], [], np.full(len(rows), -1)
    for members in groups.values():
        total = sum(w[members].tolist(), 0.0)
        if total != 0.0:
            labels[members] = len(sites)
            sites.append(rows[members[0]])
            weights.append(total)
    return np.array(sites), np.array(weights), labels


def test_sigma_equals_the_row_tuple_grouping():
    # the folding embedding gives fibers of two atoms; zeroing one atom of
    # a fiber keeps its site, zeroing both drops it (labels read -1)
    g, emb = small_net(seed=21)
    pairs = 2 * (np.arange(g.n) // 2)
    folded = emb[pairs]
    cfg = NaturalMapConfig(s=2.5, truncation_radius=3.0, h_estimate=1.9,
                           tail_tolerance=5.0)
    atoms, weights, _ = mu_x_s(g, nearest_to_origin(g, emb), cfg)
    fiber = next(f for f in (np.flatnonzero(pairs[atoms] == v) for v in pairs[atoms])
                 if len(f) == 2)
    cases = [weights, weights.copy(), weights.copy()]
    cases[1][fiber[0]] = 0.0
    cases[2][fiber] = 0.0
    sigmas = []
    for w in cases:
        sigma = pushforward_with_fibers(w, folded[atoms])
        sites, sums, labels = grouped_by_row_tuples(folded[atoms], w)
        assert np.array_equal(sigma.sites, sites)
        assert np.array_equal(sigma.weights, sums)
        assert np.array_equal(sigma.labels, labels)
        sigmas.append(sigma)
    assert max(np.bincount(sigmas[0].labels)) == 2
    assert len(sigmas[1]) == len(sigmas[0]) and -1 not in sigmas[1].labels.tolist()
    assert len(sigmas[2]) == len(sigmas[0]) - 1
    assert sigmas[2].labels[fiber].tolist() == [-1, -1]
    # the measure's own checks run before any grouping
    bad = weights.copy()
    bad[0] = -bad[0]
    with pytest.raises(ValueError):
        pushforward_with_fibers(bad, folded[atoms])
    bad[0] = math.nan
    with pytest.raises(NonFiniteInputError):
        pushforward_with_fibers(bad, folded[atoms])


def test_source_gradients_match_the_per_fiber_loop():
    # a folding embedding (pairs of vertices share an image) makes fibers
    # of two atoms; the arithmetic differs from the loop only in the order
    # of fiber sums and in x*x for pow(x, 2), so 1e-12 is set beforehand
    from barylab.naturalmap import sample_rows, source_gradients

    g, emb = small_net(seed=21)
    folded = emb[2 * (np.arange(g.n) // 2)]
    cfg = NaturalMapConfig(s=2.5, truncation_radius=3.0, h_estimate=1.9,
                           tail_tolerance=5.0)
    center = nearest_to_origin(g, emb)
    _, info = natural_map_point(g, folded, center, cfg)
    labels = info["sigma"].labels
    assert max(np.bincount(labels)) == 2
    rows = sample_rows(g, center)
    G = source_gradients(g, center, rows[0], rows[1:], info["atoms"], info["weights"],
                         labels, 3)
    mu = on_ids(g, info["atoms"], info["weights"])
    sites, G_loop = loop_source_gradients(g, center, mu, folded, 3)
    assert np.array_equal(info["sigma"].sites, sites)
    assert np.max(np.abs(G - G_loop)) <= 1e-12


def test_natural_map_constant_embedding():
    g = graphs.regular_tree(3, 7)
    q = hyp.random_point(np.random.default_rng(1), 3, 1.0)
    point, info = natural_map_point(g, np.tile(q, (g.n, 1)), 0, tree_cfg(1.5, radius=6.0))
    assert hyp.dist(point, q) < 1e-12
    assert info["tail_bound"] <= 1e-2 * float(np.sum(info["weights"]))


def test_natural_map_two_s_values_smoke():
    g, emb = small_net()
    center = nearest_to_origin(g, emb)
    cfg1 = NaturalMapConfig(s=2.4, truncation_radius=3.0, h_estimate=1.8,
                            tail_tolerance=5.0)
    p1, _ = natural_map_point(g, emb, center, cfg1)
    p2, _ = natural_map_point(g, emb, center, dataclasses.replace(cfg1, s=3.0))
    assert np.all(np.isfinite(p1)) and np.all(np.isfinite(p2))
    assert hyp.dist(p1, p2) < 0.5


def test_natural_map_deck_equivariance():
    g, emb, deck, rot = graphs.rotation_symmetric_net(
        np.random.default_rng(14), order=4, n=3, radius=1.5, spacing=0.4)
    cfg = NaturalMapConfig(s=2.6, truncation_radius=3.5, h_estimate=2.0,
                           tail_tolerance=5.0)
    x = g.vertices[0]
    fx, _ = natural_map_point(g, emb, x, cfg)
    fgx, _ = natural_map_point(g, emb, deck[x], cfg)
    assert hyp.dist(fgx, hyp.project_to_sheet(rot @ fx)) < 1e-6


def test_gate_thresholds_are_the_acceptance_values():
    # the one gate table: loosening a gate needs a visible edit here
    g, emb, deck, rot = graphs.rotation_symmetric_net(
        np.random.default_rng(14), order=4, n=3, radius=1.5, spacing=0.4)
    cfg = NaturalMapConfig(s=2.6, truncation_radius=3.5, h_estimate=2.0,
                           tail_tolerance=5.0)
    x = g.vertices[0]
    rec = run_natural_map(g, emb, cfg, [x]).records[0]
    table = gates(rec, 2.0)
    assert [(gate.name, gate.threshold) for gate in table] == [
        ("trace_H", 1e-8), ("K_minus_ImH", -1e-8), ("det_B", 3**-3 * (1 + 1e-6)),
        ("jac_formula", (2.6 / 2.0) ** 3 * (1 + 1e-6))]
    assert [gate.value for gate in table] == [
        abs(rec.trace_H - 1.0), rec.min_eig_K_minus_ImH, rec.det_B, rec.jac_formula]
    assert all(gate.passed and gate.margin > 0 for gate in table)
    equiv = deck_equivariance(g, emb, deck, rot, [rec], cfg)
    assert (equiv.name, equiv.threshold, equiv.passed) == ("deck_equivariance", 1e-6, True)
    assert equiv.value < 1e-6
    # a rotation that is not the deck action fails the gate
    assert not deck_equivariance(g, emb, deck, np.eye(4), [rec], cfg).passed
    # F(x) is read from the record: a point moved 1e-3 off rot^-1 F(deck x) fails
    nudge = 1e-3 * hyp.tangent_frame(rec.point)[0]
    moved = dataclasses.replace(rec, point=hyp.exp(rec.point, nudge))
    off = deck_equivariance(g, emb, deck, rot, [moved], cfg)
    assert not off.passed and abs(off.value - 1e-3) < 1e-6
    # just past a threshold fails, with a negative margin, and the summary
    # keeps the least-margin entry of each gate
    over = dataclasses.replace(rec, jac_formula=table[3].threshold * (1 + 1e-12))
    bad = gates(over, 2.0)[3]
    assert not bad.passed and bad.margin < 0
    summary = worst_gates([table, gates(over, 2.0), [equiv]])
    assert summary["jac_formula"] == {"threshold": bad.threshold, "worst": bad.value,
                                      "margin": bad.margin, "passed": False}
    assert summary["trace_H"]["passed"] and summary["deck_equivariance"]["passed"]
    assert set(summary) == {"trace_H", "K_minus_ImH", "det_B", "jac_formula",
                            "deck_equivariance"}


def test_tensors_symmetric_star():
    g, emb = star_fixture(t=1.0)
    cfg = NaturalMapConfig(s=1.0, truncation_radius=2.5, h_estimate=0.0,
                           tail_tolerance=1.0)
    t = assemble_tensors(g, emb, "c", cfg)
    n = 3
    assert abs(np.trace(t.H) - 1.0) < 1e-8
    assert np.max(np.abs(t.H - np.eye(n) / n)) < 1e-8  # exact by symmetry
    # K = coth(1) (I - H) for atoms all at distance 1
    expected_K = (np.eye(n) - t.H) / math.tanh(1.0)
    assert np.max(np.abs(t.K - expected_K)) < 1e-8
    assert np.min(np.linalg.eigvalsh(t.K - (np.eye(n) - t.H))) > -1e-8
    # the center atom maps onto the barycenter itself (rho = 0), so its
    # sigma-mass is excluded from eta and reported
    assert abs(t.excluded_mass - 1.0) < 1e-12


def test_tensor_invariants_on_net():
    g, emb = small_net(seed=21)
    cfg = NaturalMapConfig(s=2.5, truncation_radius=3.0, h_estimate=1.9,
                           tail_tolerance=5.0)
    rng = np.random.default_rng(3)
    interior = [v for v in g.vertices
                if hyp.dist(emb[v], hyp.basepoint(3)) < 0.7]
    for x in rng.choice(interior, size=min(6, len(interior)), replace=False):
        t = assemble_tensors(g, emb, int(x), cfg)
        n = t.dim
        assert abs(np.trace(t.H) - 1.0) < 1e-8
        assert np.min(np.linalg.eigvalsh(t.K - (np.eye(n) - t.H))) > -1e-8
        assert abs(np.trace(t.A)) <= 1.0 + 1e-8
        assert np.linalg.det(t.B) <= (1.0 / n**n) * (1 + 1e-6)
        assert cauchy_schwarz_gap(t) > -1e-8
        jac, cond = jacobian_formula(t.H, t.K, t.L, t.A, cfg.s)
        # determinant chain: jac^2 <= (s^2/n)^n det H / det K^2
        chain = (cfg.s**2 / n) ** n * np.linalg.det(t.H) / np.linalg.det(t.K) ** 2
        assert jac**2 <= chain * (1 + 1e-6)
        assert jac <= (cfg.s / (n - 1)) ** n * (1 + 1e-6)


def test_jacobian_formula_trivial_and_symmetric():
    n = 3
    s = 2.5
    H = np.eye(n) / n
    K = np.eye(n) - H
    L = np.zeros((n, n))
    jac, _ = jacobian_formula(H, K, L, np.zeros((n, n)), s)
    assert jac == 0.0
    A = np.eye(n) / n
    jac, _ = jacobian_formula(H, K, L, A, s)
    assert abs(jac - (s / (n - 1)) ** n) < 1e-12


def test_jacobian_mesh_isometric_embedding():
    # fine-mesh regime: edges several spacings long keep the net's
    # path-metric distortion (hence the hull-volume bias) small
    g, emb = graphs.hyperbolic_ball_net(np.random.default_rng(33), n=3,
                                        radius=1.1, spacing=0.25,
                                        edge_factor=4.0)
    iso = hyp.random_isometry(np.random.default_rng(0), 3, spread=0.3)
    moved = np.array([hyp.project_to_sheet(iso @ p) for p in emb])
    value = jacobian_mesh(g, moved, nearest_to_origin(g, emb), r=0.8)
    assert abs(value - 1.0) < 0.1


def test_jacobian_mesh_degenerate_images():
    g, emb = small_net(seed=5)
    center = g.vertices[0]
    q = hyp.random_point(np.random.default_rng(2), 3, 0.5)
    assert math.isnan(jacobian_mesh(g, np.tile(q, (g.n, 1)), center, r=1.0))
    o = hyp.basepoint(3)
    e1 = np.zeros(4)
    e1[1] = 1.0
    collinear = np.array([hyp.exp(o, d * e1) for d in g.distances(center)])
    assert math.isnan(jacobian_mesh(g, collinear, center, r=1.0))


def test_run_and_entropy_volume_report():
    g, emb = small_net(seed=8)
    est_h = 1.9
    cfg = NaturalMapConfig(s=2.2, truncation_radius=3.0, h_estimate=est_h,
                           tail_tolerance=5.0)
    interior = [v for v in g.vertices if hyp.dist(emb[v], hyp.basepoint(3)) < 0.6]
    run = run_natural_map(g, emb, cfg, interior[:5], s_values=[2.2, 2.9])
    report = entropy_volume_report(run, h0=2.0)
    assert len(report) == 2
    for row in report:
        assert row["max_pointwise_violation"] <= 1e-6
        assert row["gap"] >= -1e-6 * row["bound"]
        assert row["integral_jac"] <= row["bound"] * (1 + 1e-6)


def test_natural_map_is_lipschitz_on_fixture():
    # the sample-point map x -> F_s(x) has a finite Lipschitz ratio, and the
    # edge-restricted bound dominates the sampled all-pairs ratio
    g, emb = small_net(seed=40)
    cfg = NaturalMapConfig(s=2.6, truncation_radius=3.0, h_estimate=1.9,
                           tail_tolerance=5.0)
    interior = [v for v in g.vertices
                if hyp.dist(emb[v], hyp.basepoint(3)) < 0.8][:12]
    values = {}
    for x in interior:
        values[x] = tuple(natural_map_point(g, emb, x, cfg)[0])

    sub_edges = [(u, v, length) for u, v, length in g.edges
                 if u in values and v in values]
    sub = MMGraph(interior, sub_edges) if sub_edges else None
    assert sub is not None

    def target_metric(a, b):
        return float(hyp.dist(np.array(a), np.array(b)))

    lip_edges = lipschitz_constant(values, sub, target_metric, mode="edges")
    lip_all = lipschitz_constant(values, sub, target_metric, mode="all")
    assert np.isfinite(lip_edges) and lip_edges > 0
    assert lip_all <= lip_edges + 1e-12

