import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barylab import hyperboloid as hyp
from barylab import transport
from barylab.errors import (
    ConfigurationError,
    EmptyMeasureError,
    NonFiniteInputError,
    UnbalancedMeasuresError,
)
from barylab.measures import DiscreteMeasure
from barylab.transport import wasserstein1

from oracles import brute_force_w1, lp_w1, rebuild_simplex

RNG = np.random.default_rng(7)


def hyp_metric(s, t):
    return float(hyp.dist(np.array(s), np.array(t)))


def random_point_measure(rng, k, n=3, radius=2.0, unit_weights=False):
    pts = np.array([hyp.random_point(rng, n, radius) for _ in range(k)])
    if unit_weights:
        w = np.ones(k)
    else:
        w = rng.uniform(0.2, 1.0, size=k)
    return DiscreteMeasure.from_points(pts, w)


def test_w1_between_diracs_is_distance():
    p = hyp.random_point(RNG, 3, 1.5)
    q = hyp.random_point(RNG, 3, 1.5)
    mu = DiscreteMeasure.from_points(p[None, :])
    nu = DiscreteMeasure.from_points(q[None, :])
    value, plan = wasserstein1(mu, nu, metric=hyp_metric)
    assert abs(value - hyp.dist(p, q)) < 1e-12
    assert plan.flows == ((0, 0, 1.0),)


def test_w1_self_distance_zero():
    mu = random_point_measure(RNG, 6)
    value, _ = wasserstein1(mu, mu, metric=hyp_metric)
    assert value < 1e-12


def test_w1_two_point_matching():
    # half/half masses: optimum is the better of the two matchings
    pts = np.array([hyp.random_point(RNG, 3, 2.0) for _ in range(4)])
    a, b, c, d = pts
    mu = DiscreteMeasure.from_points(np.array([a, b]), np.array([0.5, 0.5]))
    nu = DiscreteMeasure.from_points(np.array([c, d]), np.array([0.5, 0.5]))
    value, plan = wasserstein1(mu, nu, metric=hyp_metric)
    m1 = 0.5 * (hyp.dist(a, c) + hyp.dist(b, d))
    m2 = 0.5 * (hyp.dist(a, d) + hyp.dist(b, c))
    assert abs(value - min(m1, m2)) < 1e-12
    plan.validate(mu, nu)


def test_w1_errors():
    mu = random_point_measure(RNG, 3)
    nu = DiscreteMeasure([], [])
    with pytest.raises(EmptyMeasureError):
        wasserstein1(mu, nu, metric=hyp_metric)
    heavier = DiscreteMeasure(mu.sites, mu.weights * 2.0)
    with pytest.raises(UnbalancedMeasuresError):
        wasserstein1(mu, heavier, metric=hyp_metric)


def refuse_to_pivot(*args):
    raise AssertionError("the simplex ran on a cost it should have refused")


# a NaN or infinite cost is refused before any pivot (unchecked, a NaN
# cell gave W1 0.0 under Bland's rule), naming the count of bad cells and
# the first, whether the cost is passed in or built from the metric
@pytest.mark.parametrize("given", ["cost", "metric"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_w1_non_finite_cost_refused(bad, given, monkeypatch):
    monkeypatch.setattr(transport, "_transportation_simplex", refuse_to_pivot)
    mu = DiscreteMeasure(["a", "b"], [0.5, 0.5])
    nu = DiscreteMeasure(["c", "d"], [0.5, 0.5])
    cost = np.array([[0.0, bad], [1.0, bad]])
    kwargs = ({"cost": cost} if given == "cost"
              else {"metric": lambda s, t: cost["ab".index(s), "cd".index(t)]})
    with pytest.raises(NonFiniteInputError, match=r"2 non-finite entries, first at \(0, 1\)"):
        wasserstein1(mu, nu, **kwargs)


# a cost of the wrong shape is refused before the start indexes it
@pytest.mark.parametrize("shape", [(2, 1), (1, 2), (3, 2), (4,), (2, 2, 1)])
def test_w1_cost_of_wrong_shape_refused(shape, monkeypatch):
    monkeypatch.setattr(transport, "_transportation_simplex", refuse_to_pivot)
    mu = DiscreteMeasure(["a", "b"], [0.5, 0.5])
    nu = DiscreteMeasure(["c", "d"], [0.5, 0.5])
    with pytest.raises(ConfigurationError, match=r"not \(2, 2\)"):
        wasserstein1(mu, nu, cost=np.ones(shape))


def test_w1_agrees_with_unit_brute_force():
    # random unit-decomposable instances, <= 6 units per side
    for trial in range(200):
        rng = np.random.default_rng(1000 + trial)
        units = 6
        ka, kb = rng.integers(2, 5), rng.integers(2, 5)
        pa = np.array([hyp.random_point(rng, 3, 2.0) for _ in range(ka)])
        pb = np.array([hyp.random_point(rng, 3, 2.0) for _ in range(kb)])
        wa = np.bincount(rng.integers(0, ka, size=units), minlength=ka).astype(float)
        wb = np.bincount(rng.integers(0, kb, size=units), minlength=kb).astype(float)
        mu = DiscreteMeasure.from_points(pa, wa)
        nu = DiscreteMeasure.from_points(pb, wb)
        cost = np.array([[hyp_metric(s, t) for t in nu.sites] for s in mu.sites])
        value, plan = wasserstein1(mu, nu, cost=cost)
        oracle = brute_force_w1(mu, nu, cost)
        assert abs(value - oracle) < 1e-9
        assert abs(plan.cost(cost) - value) < 1e-9
        plan.validate(mu, nu)


@pytest.mark.parametrize("weights", ["uniform", "random"])
@pytest.mark.parametrize("k, l", [(5, 5), (20, 30), (60, 60), (100, 80)])
def test_w1_matches_highs_lp(k, l, weights):
    # relative tolerance 1e-9, fixed before the first run; uniform weights
    # make the simplex bases degenerate
    rng = np.random.default_rng(7000 + k + l)
    mu = random_point_measure(rng, k, unit_weights=weights == "uniform").normalize()
    nu = random_point_measure(rng, l, unit_weights=weights == "uniform").normalize()
    cost = hyp.dist(mu.sites[:, None], nu.sites[None])
    value, plan = wasserstein1(mu, nu, cost=cost)
    oracle = lp_w1(mu.weights, nu.weights, cost)
    assert abs(value - oracle) <= 1e-9 * oracle
    assert abs(plan.cost(cost) - value) <= 1e-9 * value
    plan.validate(mu, nu)


def test_w1_metric_properties_random_triples():
    # symmetry exact, triangle inequality within 1e-9, on normalized measures
    for trial in range(1000):
        rng = np.random.default_rng(5000 + trial)
        mu = random_point_measure(rng, int(rng.integers(2, 7))).normalize()
        nu = random_point_measure(rng, int(rng.integers(2, 7))).normalize()
        rho = random_point_measure(rng, int(rng.integers(2, 7))).normalize()
        d_mn, _ = wasserstein1(mu, nu, metric=hyp_metric)
        d_nr, _ = wasserstein1(nu, rho, metric=hyp_metric)
        d_mr, _ = wasserstein1(mu, rho, metric=hyp_metric)
        assert d_mr <= d_mn + d_nr + 1e-9
        if trial % 10 == 0:
            d_nm, _ = wasserstein1(nu, mu, metric=hyp_metric)
            assert abs(d_mn - d_nm) < 1e-12


# the metric axioms of W1 on normalized measures of H^n, with tolerances
# fixed before the first run: symmetry within 1e-12 relative, the triangle
# inequality within 1e-9, W1(mu, mu) <= 1e-12, and W1 > 0 between measures
# whose supports are disjoint (random points never coincide)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 7), st.integers(1, 7),
       st.sampled_from([2, 3, 5]), st.floats(0.05, 3.0))
def test_w1_metric_axioms(seed, k, l, m, n, radius):
    rng = np.random.default_rng(seed)
    mu, nu, rho = (random_point_measure(rng, size, n, radius).normalize() for size in (k, l, m))
    assert not np.any(np.all(mu.sites[:, None] == nu.sites[None], axis=-1))
    d_mn, _ = wasserstein1(mu, nu, metric=hyp_metric)
    d_nm, _ = wasserstein1(nu, mu, metric=hyp_metric)
    d_nr, _ = wasserstein1(nu, rho, metric=hyp_metric)
    d_mr, _ = wasserstein1(mu, rho, metric=hyp_metric)
    d_mm, _ = wasserstein1(mu, mu, metric=hyp_metric)
    assert abs(d_mn - d_nm) <= 1e-12 * max(d_mn, d_nm)
    assert d_mr <= d_mn + d_nr + 1e-9
    assert d_mm <= 1e-12
    assert d_mn > 0


def test_pushforward_identity_and_constant():
    mu = random_point_measure(RNG, 5)
    same = mu.pushforward(lambda s: s)
    assert same.total_mass == pytest.approx(mu.total_mass)
    assert len(same) == len(mu)
    const = mu.pushforward(lambda s: "star")
    assert len(const) == 1
    assert const.total_mass == pytest.approx(mu.total_mass)


def test_pushforward_keeps_points_as_arrays_and_ids_as_lists():
    mu = random_point_measure(RNG, 5)
    moved = mu.pushforward(lambda s: 2.0 * s)
    assert isinstance(moved.sites, np.ndarray)
    assert moved.sites.tolist() == (2.0 * mu.sites).tolist()
    first = mu.sites[0]
    labels = mu.pushforward(lambda s: "first" if (s == first).all() else "other")
    assert labels.sites == ["first", "other"]
    assert labels.weights.tolist() == [mu.weights[0], sum(mu.weights[1:].tolist())]
    with pytest.raises(ValueError):
        mu.pushforward(lambda s: s if (s == first).all() else "other")


def test_pushforward_contraction_bound():
    # W1(f#mu, f#nu) <= C * W1(mu, nu) for the Lipschitz bound C of f on the support
    for trial in range(1000):
        rng = np.random.default_rng(9000 + trial)
        mu = random_point_measure(rng, 5, unit_weights=True).normalize()
        nu = random_point_measure(rng, 5, unit_weights=True).normalize()
        center = hyp.basepoint(3)
        t = rng.uniform(0.2, 1.0)
        support = np.vstack([mu.sites, nu.sites])
        image = hyp.exp(center, t * hyp.log_many(center, support)[1])
        d = hyp.dist(support[:, None], support[None])
        apart = d > 1e-9
        lip = float(np.max(hyp.dist(image[:, None], image[None])[apart] / d[apart],
                           initial=0.0))
        d0, _ = wasserstein1(mu, nu, cost=hyp.dist(mu.sites[:, None], nu.sites[None]))
        # f#mu and f#nu: the image rows with the original weights
        fmu = DiscreteMeasure(image[:len(mu)], mu.weights)
        fnu = DiscreteMeasure(image[len(mu):], nu.weights)
        d1, _ = wasserstein1(fmu, fnu, cost=hyp.dist(fmu.sites[:, None], fnu.sites[None]))
        assert d1 <= lip * d0 * (1 + 1e-9) + 1e-12


def test_normalize():
    mu = DiscreteMeasure(["a", "b"], np.array([2.0, 2.0]))
    nu = mu.normalize()
    assert np.allclose(nu.weights, [0.5, 0.5])
    assert DiscreteMeasure(["x"], np.array([1.0])).normalize().total_mass == 1.0
    for trial in range(50):
        rng = np.random.default_rng(trial)
        w = rng.uniform(0.01, 5.0, size=8)
        m = DiscreteMeasure(list(range(8)), w).normalize()
        assert abs(m.total_mass - 1.0) < 1e-12
    with pytest.raises(EmptyMeasureError):
        DiscreteMeasure([], []).normalize()


def test_non_finite_weights_and_coordinates_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(NonFiniteInputError):
            DiscreteMeasure(["a", "b"], [1.0, bad])
        with pytest.raises(NonFiniteInputError):
            DiscreteMeasure.from_points([[1.0, 0.0, 0.0], [bad, 0.0, 1.0]])


def test_duplicate_sites_merge():
    mu = DiscreteMeasure(["a", "a", "b"], np.array([1.0, 2.0, 3.0]))
    assert len(mu) == 2
    assert dict(zip(mu.sites, mu.weights)) == {"a": 3.0, "b": 3.0}
    assert mu.labels.tolist() == [0, 0, 1]
    # point rows A, B, A, C, B, zero-weight D, and B again with -0.0 for 0.0;
    # sorted order would put B first
    a, b, c, d = [1.5, 0.0, 2.0], [1.0, 0.0, 0.0], [2.0, 1.0, 1.0], [3.0, 2.0, 2.0]
    rows = np.array([a, b, a, c, b, d, [1.0, -0.0, 0.0]])
    w = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.0, 0.7])
    mu = DiscreteMeasure(rows, w)
    assert isinstance(mu.sites, np.ndarray)
    assert mu.sites.tolist() == [a, b, c]
    assert mu.weights.tolist() == [0.0 + 0.1 + 0.3, 0.0 + 0.2 + 0.5 + 0.7, 0.0 + 0.4]
    # each input row's site; the dropped zero-weight D has none
    assert mu.labels.tolist() == [0, 1, 0, 2, 1, -1, 1]
    assert mu.normalize().labels.tolist() == mu.labels.tolist()
    # a zero-weight group ahead of kept ones shifts their labels down
    mu = DiscreteMeasure(["z", "a", "z", "b"], np.array([0.0, 1.0, 0.0, 2.0]))
    assert mu.sites == ["a", "b"]
    assert mu.labels.tolist() == [-1, 0, -1, 1]


def test_measure_json_roundtrip():
    mu = random_point_measure(RNG, 4)
    back = DiscreteMeasure.from_json(mu.to_json())
    assert isinstance(back.sites, np.ndarray)
    assert back.sites.tolist() == mu.sites.tolist()
    assert np.allclose(back.weights, mu.weights)
    ids = DiscreteMeasure(["u", "v"], np.array([1.0, 2.0]))
    back = DiscreteMeasure.from_json(ids.to_json())
    assert back.sites == ids.sites


def test_plan_cost_equals_reported_cost():
    for trial in range(50):
        rng = np.random.default_rng(100 + trial)
        mu = random_point_measure(rng, 8).normalize()
        nu = random_point_measure(rng, 8).normalize()
        cost = np.array([[hyp_metric(s, t) for t in nu.sites] for s in mu.sites])
        value, plan = wasserstein1(mu, nu, cost=cost)
        assert plan.cost(cost) == pytest.approx(value, abs=1e-12)
        plan.validate(mu, nu)


def simplex_instance(rng, n, m, weights, costs):
    """Weights and costs that force degenerate ties: "uniform" 1/k weights,
    "unit" integer multiples of 1/8 with equal totals, or "random"; costs
    are H^3 distances or, for "integer", integers 0..4."""
    if weights == "uniform":
        a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    elif weights == "unit":
        a, b = rng.integers(1, 6, n).astype(float), rng.integers(1, 6, m).astype(float)
        (a if a.sum() < b.sum() else b)[-1] += abs(a.sum() - b.sum())
        a, b = a / 8, b / 8
    else:
        a, b = rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, m)
        a, b = a / a.sum(), b / b.sum()
    if costs == "integer":
        cost = rng.integers(0, 5, (n, m)).astype(float)
    else:
        x = np.array([hyp.random_point(rng, 3, 1.5) for _ in range(n)])
        y = np.array([hyp.random_point(rng, 3, 1.5) for _ in range(m)])
        cost = hyp.dist(x[:, None], y[None])
    return a, b, cost


def assert_same_plan(a, b, cost):
    mu = DiscreteMeasure(list(range(len(a))), a)
    nu = DiscreteMeasure(list(range(len(b))), b)
    value, plan = wasserstein1(mu, nu, cost=cost)
    flows, pivots, bland = rebuild_simplex(a, b, cost)
    assert plan.flows == tuple(flows)
    assert (plan.pivots, plan.bland) == (pivots, bland)
    assert value == plan.cost(cost)
    assert all(type(i) is int and type(j) is int and type(q) is np.float64
               for i, j, q in plan.flows)
    return value, plan


# the start on a single row or column, and on masses equal only within
# MASS_RTOL: the last open row (column) must stay open while columns (rows)
# remain, taking zero flows, so the start is a spanning tree
@pytest.mark.parametrize("a, b, cost, expected", [
    ([1.0, 1e-10, 1e-10], [1.0], np.ones((3, 1)), 1.0),
    ([0.5, 0.5 + 1e-10, 1e-10], [0.5, 0.5], np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
     0.0),
    ([1.0], [0.25, 0.5, 0.25], np.array([[3.0, 1.0, 2.0]]), 1.75),
    ([0.25, 0.75], [1.0], np.array([[2.0], [1.0]]), 1.25),
    ([0.5, 0.5], [0.5, 0.5, 2e-10], np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 5.0]]), 0.0),
    ([0.5, 0.5, 2e-10], [0.5, 0.5], np.array([[0.0, 1.0], [1.0, 0.0], [5.0, 5.0]]), 0.0),
])
def test_least_cost_start_on_one_line_and_masses_equal_within_mass_rtol(a, b, cost, expected):
    mu = DiscreteMeasure(list(range(len(a))), a)
    nu = DiscreteMeasure(list(range(len(b))), b)
    value, plan = wasserstein1(mu, nu, cost=cost)
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == plan.cost(cost)
    assert all(q >= 0 for _, _, q in plan.flows)
    plan.validate(mu, nu)
    assert_start_is_spanning_tree(np.array(a, dtype=float), np.array(b, dtype=float), cost)


def assert_start_is_spanning_tree(a, b, cost):
    """The least-cost start has n + m - 1 cells joining all n + m lines
    without a cycle, non-negative flows, and both marginals to MASS_RTOL."""
    n, m = len(a), len(b)
    cells = transport._least_cost_start(a, b, cost.reshape(-1))
    assert len(cells) == n + m - 1
    root = list(range(n + m))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    rows, cols = np.zeros(n), np.zeros(m)
    for k, q in cells:
        i, j = divmod(k, m)
        ri, rj = find(i), find(n + j)
        assert ri != rj  # no cycle, so n + m - 1 cells span every line
        root[ri] = rj
        assert q >= 0
        rows[i] += q
        cols[j] += q
    scale = max(a.sum(), b.sum())
    assert np.max(np.abs(rows - a)) <= transport.MASS_RTOL * scale
    assert np.max(np.abs(cols - b)) <= transport.MASS_RTOL * scale


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 30),
       st.sampled_from(["uniform", "unit", "random"]), st.sampled_from(["hyperbolic", "integer"]),
       st.floats(-5e-10, 5e-10))
def test_least_cost_start_is_a_feasible_spanning_tree(seed, n, m, weights, costs, skew):
    # `skew` moves one target mass by up to half MASS_RTOL of the total mass,
    # which the start cannot match better than
    a, b, cost = simplex_instance(np.random.default_rng(seed), n, m, weights, costs)
    b = b.copy()
    b[-1] = max(b[-1] + skew * a.sum(), 0.0)
    assert_start_is_spanning_tree(a, b, cost)


# the tree-label simplex must return the plan of the simplex that rebuilds
# its tree every pivot: equal flows (==, not approx) and equal pivot counts
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from(["uniform", "unit", "random"]), st.sampled_from(["hyperbolic", "integer"]))
def test_simplex_plan_equals_rebuild_oracle(seed, n, m, weights, costs):
    rng = np.random.default_rng(seed)
    assert_same_plan(*simplex_instance(rng, n, m, weights, costs))


# the pinned pivot counts are a timing-free guard on the start: the
# least-cost basis takes 185 and 223 pivots here, the northwest corner 691
# and 893
@pytest.mark.parametrize("n, m, weights, pivots", [
    pytest.param(100, 100, "random", 185, id="100-100-random"),
    pytest.param(150, 90, "uniform", 223, id="150-90-uniform"),
])
def test_simplex_plan_equals_rebuild_oracle_at_benchmark_sizes(n, m, weights, pivots):
    rng = np.random.default_rng(n * m)
    a, b, cost = simplex_instance(rng, n, m, weights, "hyperbolic")
    value, plan = assert_same_plan(a, b, cost)
    assert (plan.pivots, plan.bland) == (pivots, False)
    oracle = lp_w1(a, b, cost)
    assert abs(value - oracle) <= 1e-9 * oracle


@pytest.mark.parametrize("seed", range(12))
def test_bland_rule_plan_equals_rebuild_oracle(seed, monkeypatch):
    # Bland's rule starts after _bland_after(n, m) pivots, which no instance
    # here reaches; at 0 it picks every entering cell
    monkeypatch.setattr(transport, "_bland_after", lambda n, m: 0)
    rng = np.random.default_rng(300 + seed)
    n, m = int(rng.integers(2, 16)), int(rng.integers(2, 16))
    a, b, cost = simplex_instance(rng, n, m, ["uniform", "unit"][seed % 2],
                                  ["integer", "hyperbolic"][seed // 2 % 2])
    value, plan = wasserstein1(DiscreteMeasure(list(range(n)), a),
                               DiscreteMeasure(list(range(m)), b), cost=cost)
    flows, pivots, bland = rebuild_simplex(a, b, cost, bland_after=0)
    assert plan.flows == tuple(flows)
    assert plan.pivots == pivots
    assert plan.bland and bland
    assert abs(value - lp_w1(a, b, cost)) <= 1e-9 * max(value, 1.0)
