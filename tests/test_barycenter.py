import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barylab import hyperboloid as hyp
from barylab.barycenter import BarycenterResult, barycenter, objective
from barylab.errors import EmptyMeasureError, InvalidPointError, SolverFailureError
from barylab.measures import DiscreteMeasure
from barylab.transport import wasserstein1

from oracles import (grid_barycenter_objective, hyperbolic_metric, psi_homotopy,
                     two_evaluation_barycenter)

RNG = np.random.default_rng(42)


def random_measure(rng, k, n=3, radius=1.5):
    pts = np.array([hyp.random_point(rng, n, radius) for _ in range(k)])
    return DiscreteMeasure.from_points(pts, rng.uniform(0.2, 1.0, size=k))


def test_dirac_barycenter():
    p = hyp.random_point(RNG, 3, 1.0)
    res = barycenter(DiscreteMeasure.from_points(p[None, :]))
    assert np.max(np.abs(res.coords - p)) < 1e-12
    assert res.gradient_norm == 0.0


def test_two_point_midpoint():
    for _ in range(20):
        p = hyp.random_point(RNG, 3, 1.5)
        q = hyp.random_point(RNG, 3, 1.5)
        mid = hyp.exp(p, 0.5 * hyp.log(p, q))
        nu = DiscreteMeasure.from_points(np.array([p, q]), np.array([0.5, 0.5]))
        res = barycenter(nu)
        assert hyp.dist(res.coords, mid) < 1e-7


def test_rotational_symmetry_plane():
    # three points forming an orbit of a rotation fixing only the center (H^2)
    c = hyp.basepoint(2)
    rot = hyp.rotation(2 * math.pi / 3, 2, i=1, j=2)
    p = hyp.random_point(RNG, 2, 1.2)
    orbit = np.array([p, rot @ p, rot @ rot @ p])
    orbit = np.array([hyp.project_to_sheet(q) for q in orbit])
    res = barycenter(DiscreteMeasure.from_points(orbit))
    assert hyp.dist(res.coords, c) < 1e-7


def test_rotational_symmetry_conjugated():
    # same configuration pushed through a random isometry, in H^3 with the
    # orbit taken inside the plane the rotation acts on
    g = hyp.random_isometry(RNG, 3)
    rot = hyp.rotation(2 * math.pi / 3, 3, i=2, j=3)
    c = hyp.basepoint(3)
    v = np.zeros(4)
    v[2], v[3] = 0.8, 0.3
    p = hyp.exp(c, v)
    orbit = np.array([p, rot @ p, rot @ (rot @ p)])
    orbit = np.array([hyp.project_to_sheet(g @ q) for q in orbit])
    res = barycenter(DiscreteMeasure.from_points(orbit))
    expected = hyp.project_to_sheet(g @ c)
    assert hyp.dist(res.coords, expected) < 1e-7


def test_grid_oracle_agreement():
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        nu = random_measure(rng, 20, radius=1.2).normalize()
        res = barycenter(nu)
        oracle_val, _ = grid_barycenter_objective(nu)
        assert abs(res.objective - oracle_val) < 1e-6


def test_uniqueness_under_restarts():
    nu = random_measure(RNG, 15, radius=1.5)
    results = []
    for _ in range(10):
        start = hyp.random_point(RNG, 3, 2.0)
        results.append(barycenter(nu, initial=start).coords)
    base = results[0]
    for r in results[1:]:
        assert hyp.dist(base, r) < 1e-7


def test_barycenter_is_one_lipschitz_in_w1():
    for trial in range(100):
        rng = np.random.default_rng(7000 + trial)
        mu = random_measure(rng, int(rng.integers(2, 7))).normalize()
        nu = random_measure(rng, int(rng.integers(2, 7))).normalize()
        bm = barycenter(mu).coords
        bn = barycenter(nu).coords
        w1, _ = wasserstein1(mu, nu, metric=hyperbolic_metric)
        assert hyp.dist(bm, bn) <= w1 * (1 + 1e-6) + 2e-9


seeds = st.integers(0, 2**32 - 1)
derandomized = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@derandomized
@given(seeds, st.integers(1, 12), st.sampled_from([2, 3, 4]), st.floats(0.0, 1.5))
def test_equivariance_under_isometries(seed, k, n, spread):
    rng = np.random.default_rng(seed)
    nu = random_measure(rng, k, n).normalize()
    g = hyp.random_isometry(rng, n, spread)

    def act(site):
        return hyp.project_to_sheet(g @ site)

    lhs = barycenter(nu.pushforward(act)).coords
    rhs = hyp.project_to_sheet(g @ barycenter(nu).coords)
    assert hyp.dist(lhs, rhs) < 1e-7


def _bits(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


@derandomized
@given(seeds, st.integers(1, 40), st.sampled_from([2, 3, 5]), st.floats(0.0, 2.0),
       st.integers(0, 5), st.booleans())
def test_one_evaluation_loop_repeats_the_two_evaluation_loop_bit_for_bit(
        seed, k, n, radius, repeats, start_at_atom):
    rng = np.random.default_rng(seed)
    pts = np.array([hyp.random_point(rng, n, radius) for _ in range(k)])
    pts = np.vstack([pts, pts[rng.integers(0, k, size=repeats)]])  # atoms that merge
    nu = DiscreteMeasure.from_points(pts, rng.uniform(0.2, 1.0, size=len(pts)))
    # starting on an atom puts a zero distance in the first kernel call
    initial = nu.sites[rng.integers(0, len(nu))] if start_at_atom else None
    w = nu.weights / nu.total_mass

    d = hyp.log_many(nu.sites[0], nu.sites)[0]
    assert _bits(d) == _bits(hyp.dist_many(nu.sites[0], nu.sites))

    res = barycenter(nu, initial=initial)
    ref = two_evaluation_barycenter(nu.sites, w, nu.total_mass, 1e-9, 10_000, initial)
    assert ref[4]
    assert _bits(res.coords, res.gradient_norm, res.iterations, res.objective) == \
        _bits(*ref[:4])

    # two iterations at an unreachable tolerance: the best iterate of the failure
    ref = two_evaluation_barycenter(nu.sites, w, nu.total_mass, 1e-16, 2, initial)
    try:
        best = barycenter(nu, tol=1e-16, max_iter=2, initial=initial)
        assert ref[4]
    except SolverFailureError as exc:
        best = exc.best
        assert not ref[4]
    assert _bits(best.coords, best.gradient_norm, best.iterations, best.objective) == \
        _bits(*ref[:4])


def test_basepoint_independence():
    nu = random_measure(RNG, 10).normalize()
    o1 = hyp.random_point(RNG, 3, 1.0)
    o2 = hyp.random_point(RNG, 3, 1.0)
    res = barycenter(nu)
    # the basepoint form differs from the plain objective by a constant, so
    # the gap between the two forms is the same at any probe point
    probes = [hyp.random_point(RNG, 3, 1.5) for _ in range(25)] + [res.coords]
    gaps1 = [objective(nu, y, basepoint=o1) - objective(nu, y) for y in probes]
    gaps2 = [objective(nu, y, basepoint=o2) - objective(nu, y) for y in probes]
    assert max(gaps1) - min(gaps1) < 1e-10
    assert max(gaps2) - min(gaps2) < 1e-10
    # and numerically minimizing the basepoint forms lands on the same argmin
    vals1 = [objective(nu, y, basepoint=o1) for y in probes]
    vals2 = [objective(nu, y, basepoint=o2) for y in probes]
    assert int(np.argmin(vals1)) == int(np.argmin(vals2)) == len(probes) - 1


def test_zero_measure_rejected():
    with pytest.raises(EmptyMeasureError):
        barycenter(DiscreteMeasure([], []))


def test_measure_on_vertex_ids_rejected():
    with pytest.raises(InvalidPointError):
        barycenter(DiscreteMeasure([0, 1], [0.5, 0.5]))


def test_solver_failure_attaches_best_iterate():
    nu = random_measure(RNG, 12, radius=2.0)
    with pytest.raises(SolverFailureError) as exc_info:
        barycenter(nu, tol=1e-16, max_iter=2)
    best = exc_info.value.best
    assert isinstance(best, BarycenterResult)
    assert best.gradient_norm > 0


def test_psi_homotopy_endpoints():
    rng = np.random.default_rng(11)
    sigma = random_measure(rng, 6).normalize()
    fx = hyp.random_point(rng, 3, 1.0)
    at1 = psi_homotopy(1.0, fx, sigma)
    assert np.max(np.abs(at1 - fx)) == 0.0
    at0 = psi_homotopy(0.0, fx, sigma)
    assert hyp.dist(at0, barycenter(sigma).coords) < 1e-7


def test_psi_homotopy_continuity():
    rng = np.random.default_rng(12)
    sigma = random_measure(rng, 6).normalize()
    fx = hyp.random_point(rng, 3, 1.0)
    # W1(mix(t), mix(t')) <= |t - t'| * mean distance from fx to sigma
    spread = float(np.sum(sigma.weights * hyp.dist_many(fx, sigma.sites)))
    steps = np.linspace(0.0, 1.0, 65)
    prev = psi_homotopy(steps[0], fx, sigma)
    for t in steps[1:]:
        cur = psi_homotopy(t, fx, sigma)
        bound = (steps[1] - steps[0]) * spread * (1 + 1e-6) + 1e-7
        assert hyp.dist(prev, cur) <= bound
        prev = cur


def test_gradient_norm_post_condition():
    for trial in range(20):
        rng = np.random.default_rng(606 + trial)
        nu = random_measure(rng, 9, radius=1.4)  # unnormalized mass
        res = barycenter(nu, tol=1e-9)
        assert res.gradient_norm <= 1e-9 * nu.total_mass * (1 + 1e-9)
