import numpy as np
import pytest

from barylab.errors import ConfigurationError, NonGenericSampleError
from barylab.indices import (
    PLMap,
    Pseudomanifold,
    SimplicialMap,
    coarea_check,
    fold_words,
    ind_H_degree,
    pointwise_degree,
    pre_count,
    stallings_index,
)
from barylab import fixtures
from barylab.indices.stallings import parse_word

from oracles import subgroup_index_by_coset_tables

RNG = np.random.default_rng(2024)


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------

def test_fixture_complexes_validate():
    fixtures.octahedron()
    fixtures.torus_grid(3, 3)
    fixtures.circle(5)
    fixtures.sphere_double_wrap()


def test_bad_complexes_rejected():
    with pytest.raises(ValueError):
        # one face missing: boundary edge in a "closed" complex
        Pseudomanifold(2, [(1, 2, 3), (2, 4, 3)])
    with pytest.raises(ValueError):
        # incoherent orientation: second face flipped
        faces = [(1, 2, 3), (2, 4, 3), (4, 5, 3), (5, 1, 3),
                 (2, 1, 6), (4, 2, 6), (5, 4, 6), (5, 1, 6)]
        Pseudomanifold(2, faces)


def test_fixture_specs_build_maps_and_their_invariants():
    smap, data = fixtures.from_spec({"type": "torus_cover", "k": 3})
    assert isinstance(smap, SimplicialMap) and len(smap.domain.simplices) == 54
    assert data == {"subgroup": {"rank": 2, "generators": fixtures.cyclic_cover_subgroup(3)}}
    smap, data = fixtures.from_spec({"type": "sphere_double_wrap"})
    assert isinstance(smap, SimplicialMap) and data == {"declared_ind_pi": 1}
    smap, data = fixtures.from_spec({"type": "octahedron_identity"})
    assert smap.vertex_map == {v: v for v in fixtures.octahedron().vertices} and data == {}
    plm, data = fixtures.from_spec({"type": "identity_pl", "m": 3})
    assert isinstance(plm, PLMap) and data == {}
    a, _ = fixtures.from_spec({"type": "jittered_pl", "m": 4, "amplitude": 0.5}, rng=9)
    b = fixtures.jittered_pl_map(4, 0.5, rng=9)
    assert all(np.array_equal(x, y) for x, y in zip(a.image_simplices, b.image_simplices))
    with pytest.raises(ConfigurationError):
        fixtures.from_spec({"type": "klein_bottle"})


# ---------------------------------------------------------------------------
# pre, degree, ind_H
# ---------------------------------------------------------------------------

def test_identity_map_invariants():
    ident = fixtures.octahedron_identity()
    assert pre_count(ident, 200, rng=1) == 1.0
    assert ind_H_degree(ident, rng=1) == 1
    tgt = 0
    lam = np.array([0.2, 0.3, 0.5])
    assert pointwise_degree(ident, tgt, lam) == 1


def test_covering_maps_pre_equals_sheets():
    for k in (1, 2, 3):
        cover = fixtures.torus_cover_map(k)
        assert pre_count(cover, 150, rng=k) == float(k)
        assert ind_H_degree(cover, rng=k) == k
    for k in (2, 3):
        cover = fixtures.circle_cover_map(k)
        assert pre_count(cover, 100, rng=k) == float(k)
        assert ind_H_degree(cover, rng=k) == k


def test_reflection_has_degree_minus_one():
    refl = fixtures.octahedron_reflection()
    lam = np.array([0.25, 0.35, 0.4])
    degs = {pointwise_degree(refl, t, lam) for t in range(8)}
    assert degs == {-1}
    assert ind_H_degree(refl, rng=3) == 1  # absolute value


def test_degree_constancy_on_cover():
    cover = fixtures.torus_cover_map(2)
    rng = np.random.default_rng(8)
    values = set()
    for _ in range(100):
        tgt = int(rng.integers(0, len(cover.target.simplices)))
        lam = rng.dirichlet(np.ones(3))
        if np.min(lam) <= 1e-12:
            continue
        values.add(pointwise_degree(cover, tgt, lam))
    assert values == {2}


def test_double_wrap_fixture():
    wrap = fixtures.sphere_double_wrap()
    assert pre_count(wrap, 200, rng=5) == 2.0
    assert ind_H_degree(wrap, rng=5) == 2
    # the domain is simply connected: the fundamental index is 1, so this
    # fixture exhibits ind_pi = 1 strictly below ind_H = 2, and 1 divides 2
    ind_pi = 1
    assert ind_H_degree(wrap, rng=5) % ind_pi == 0


def test_pre_dominates_absolute_degree_pointwise():
    rng = np.random.default_rng(10)
    for f in (fixtures.torus_cover_map(2), fixtures.octahedron_reflection(),
              fixtures.sphere_double_wrap()):
        for _ in range(50):
            tgt = int(rng.integers(0, len(f.target.simplices)))
            lam = rng.dirichlet(np.ones(f.target.dim + 1))
            if np.min(lam) <= 1e-12:
                continue
            count = len(f.preimages(tgt, lam))
            assert count >= abs(pointwise_degree(f, tgt, lam))


def test_null_homotopic_collapse_is_degree_zero():
    # collapse the whole sphere onto closed walks within the 1-skeleton is
    # not simplicial onto a 2-complex; instead fold the sphere over one
    # face pair: every face maps to face 0's vertex set or degenerately
    sphere = fixtures.octahedron()
    vmap = {1: 1, 2: 2, 3: 3, 4: 2, 5: 1, 6: 3}
    folded = SimplicialMap(sphere, sphere, vmap)
    assert ind_H_degree(folded, rng=2) == 0


def test_non_generic_point_rejected():
    sphere = fixtures.octahedron()
    ident = SimplicialMap(sphere, sphere, {v: v for v in sphere.vertices})
    with pytest.raises(NonGenericSampleError):
        pointwise_degree(ident, 0, np.array([0.0, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# stallings foldings
# ---------------------------------------------------------------------------

def test_whole_group_has_index_one():
    assert stallings_index(["a", "b"], 2) == 1


def test_single_generator_infinite_index():
    assert stallings_index(["a"], 2) == 0


def test_spec_subgroup_index_two():
    gens = ["aa", "b", "abA"]
    assert stallings_index(gens, 2) == 2
    assert subgroup_index_by_coset_tables(gens, 2, max_index=5) == 2


def test_cyclic_cover_subgroups():
    for k in (1, 2, 3):
        gens = fixtures.cyclic_cover_subgroup(k)
        assert stallings_index(gens, 2) == k
        assert subgroup_index_by_coset_tables(gens, 2, max_index=4) == k


def test_empty_generators_infinite_index():
    assert stallings_index([], 2) == 0
    assert stallings_index(["", "aA"], 2) == 0


def test_membership_via_core_graph():
    core = fold_words(["aa", "b", "abA"], 2)
    assert core.reads_word(parse_word("aa", 2))
    assert core.reads_word(parse_word("abA", 2))
    assert core.reads_word(parse_word("bab", 2)) is False
    assert core.reads_word(parse_word("aabaa", 2))


def test_fold_confluence_over_orders():
    gens = ["abAB", "aab", "bbA"]
    reference = fold_words(gens, 2).canonical_form()
    for trial in range(100):
        rng = np.random.default_rng(trial)
        shuffled = fold_words(gens, 2, fold_order=rng).canonical_form()
        assert shuffled == reference


def test_word_parsing():
    assert parse_word("aA", 2) == []
    assert parse_word("abA", 2) == [(0, 1), (1, 1), (0, -1)]
    with pytest.raises(ValueError):
        parse_word("c", 2)


# ---------------------------------------------------------------------------
# coarea
# ---------------------------------------------------------------------------

def test_coarea_identity_map():
    ident = fixtures.octahedron_identity()
    report = coarea_check(ident, samples=2000, rng=1)
    assert report["relative_gap"] < 1e-12
    assert report["lhs"] == pytest.approx(ident.domain.total_volume)


def test_coarea_two_sheeted_cover():
    cover = fixtures.torus_cover_map(2)
    report = coarea_check(cover, samples=10_000, rng=2)
    assert report["lhs"] == pytest.approx(2 * cover.target.total_volume)
    assert report["relative_gap"] < 0.01


def test_coarea_random_pl_fixture():
    plm = fixtures.jittered_pl_map(6, amplitude=0.9, rng=7)
    report = coarea_check(plm, samples=100_000, rng=8)
    assert report["relative_gap"] < 0.02


def test_coarea_pl_identity_exact_lhs():
    plm = fixtures.identity_pl_map(4)
    report = coarea_check(plm, samples=50_000, rng=3)
    assert report["lhs"] == pytest.approx(1.0)  # unit square volume
    assert report["relative_gap"] < 0.02


def test_consistency_pre_ind_pi_ind_H_on_covers():
    # the three invariants coincide on k-sheeted covering fixtures: pre and
    # ind_H from the simplicial torus cover, ind_pi from the free-group
    # model of the corresponding cyclic cover of the rose
    for k in (1, 2, 3):
        cover = fixtures.torus_cover_map(k)
        pre = pre_count(cover, 120, rng=k)
        ih = ind_H_degree(cover, rng=k)
        ipi = stallings_index(fixtures.cyclic_cover_subgroup(k), 2)
        assert pre == float(k) and ih == k and ipi == k
        assert ih % ipi == 0
