import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from barylab import graphs, hyperboloid as hyp
from barylab.errors import (
    DegenerateGradientError,
    InvalidPointError,
    SingularHessianError,
)

from oracles import minkowski_dot_reference, sample_ball_reference


RNG = np.random.default_rng(20240811)


def assert_lorentz(g):
    """g preserves the Minkowski form (entrywise |g^T J g - J| <= 1e-9) and
    the upper sheet."""
    J = np.diag([-1.0] + [1.0] * (g.shape[0] - 1))
    assert np.max(np.abs(g.T @ J @ g - J)) <= 1e-9
    assert g[0, 0] > 0


def test_distance_identity():
    p = hyp.basepoint(3)
    assert hyp.dist(p, p) == 0.0


def test_distance_parametrized_geodesic():
    p = hyp.check_point(np.array([1.0, 0.0, 0.0, 0.0]))
    q = hyp.check_point(np.array([math.cosh(1.0), math.sinh(1.0), 0.0, 0.0]))
    assert abs(hyp.dist(p, q) - 1.0) < 1e-12


def test_triangle_inequality_random_triples():
    n = 3
    worst = 0.0
    for _ in range(10_000):
        p = hyp.random_point(RNG, n, radius=3.0)
        q = hyp.random_point(RNG, n, radius=3.0)
        r = hyp.random_point(RNG, n, radius=3.0)
        worst = max(worst, hyp.dist(p, r) - hyp.dist(p, q) - hyp.dist(q, r))
    assert worst <= 1e-12


def test_distance_symmetry_and_separation():
    for _ in range(100):
        p = hyp.random_point(RNG, 4, radius=2.0)
        q = hyp.random_point(RNG, 4, radius=2.0)
        assert hyp.dist(p, q) == hyp.dist(q, p)
        if np.any(p != q):
            assert hyp.dist(p, q) > 0


def test_distance_rejects_off_sheet_pairs():
    p = np.array([1.0, 0.0, 0.0])
    bad = np.array([0.9, 0.0, 0.0])  # inside the sheet; -<p,bad> = 0.9 < 1
    with pytest.raises(InvalidPointError):
        hyp.dist(p, bad)


def test_exp_log_trivial_cases():
    p = hyp.basepoint(3)
    v = hyp.log(p, p)
    assert math.sqrt(max(hyp.minkowski_dot(v, v), 0.0)) == 0.0
    u = np.zeros(4)
    u[1] = 0.7
    assert abs(hyp.minkowski_dot(p, u)) <= 1e-10
    q = hyp.check_point(hyp.exp(p, u))
    assert abs(hyp.dist(p, q) - 0.7) < 1e-12


def test_exp_log_roundtrip_random_pairs():
    n = 3
    worst = 0.0
    for _ in range(10_000):
        p = hyp.random_point(RNG, n, radius=2.0)
        q = hyp.random_point(RNG, n, radius=2.0)
        v = hyp.log(p, q)
        q2 = hyp.exp(p, v)
        worst = max(worst, float(np.max(np.abs(q - q2))))
        assert abs(math.sqrt(max(hyp.minkowski_dot(v, v), 0.0)) - hyp.dist(p, q)) < 1e-9
    assert worst < 1e-9


def test_exp_log_roundtrip_far_pairs_relative():
    # ambient coordinates grow like cosh(d); at separation ~8 the sheet
    # constraint itself is only representable to ~coords^2 * eps, so the
    # roundtrip degrades gracefully rather than holding 1e-9
    n = 3
    for _ in range(1000):
        p = hyp.random_point(RNG, n, radius=4.0)
        q = hyp.random_point(RNG, n, radius=4.0)
        q2 = hyp.exp(p, hyp.log(p, q))
        rel = np.max(np.abs(q - q2)) / max(1.0, np.max(np.abs(q)))
        assert rel < 1e-7


def test_sheet_drift_per_call():
    p = hyp.random_point(RNG, 5, radius=2.0)
    for _ in range(50):
        q = hyp.random_point(RNG, 5, radius=2.0)
        p = hyp.exp(p, hyp.log(p, q) * 0.3)
        assert abs(hyp.minkowski_dot(p, p) + 1.0) < 1e-10


def test_grad_distance_aligns_with_geodesic():
    p = hyp.basepoint(3)
    v = np.zeros(4)
    v[1] = 1.0
    y = hyp.exp(p, 1.3 * v)
    g = hyp.grad_dist(y, p)
    # gradient at y of d(., p) is the unit velocity of the geodesic p -> y at y
    vel = hyp.log(y, p)
    vel /= -np.sqrt(hyp.minkowski_dot(vel, vel))
    assert np.max(np.abs(g - vel)) < 1e-10


def test_grad_distance_unit_norm_and_antisymmetry():
    for _ in range(100):
        y = hyp.random_point(RNG, 3, radius=2.0)
        z = hyp.random_point(RNG, 3, radius=2.0)
        g = hyp.grad_dist(y, z)
        assert abs(hyp.minkowski_dot(g, g) - 1.0) < 1e-9
        # moving along +g increases distance; along -g decreases it
        d0 = hyp.dist(y, z)
        eps = 1e-6
        assert hyp.dist(hyp.exp(y, eps * g), z) > d0
        assert hyp.dist(hyp.exp(y, -eps * g), z) < d0


def test_log_and_grad_at_tiny_separation():
    # from the basepoint, -<p,q>_M rounds to exactly 1 once d < ~1e-8; the
    # scalar log then divided by sqrt(1e-300) (|log| ~ 1e132 at d = 1e-9)
    p = hyp.basepoint(3)
    for d in (1e-9, 1e-10, 1e-11):
        for _ in range(5):
            v = hyp.tangent_project(p, RNG.normal(size=4))
            q = hyp.exp(p, d * v / math.sqrt(hyp.minkowski_dot(v, v)))
            dist = float(hyp.dist(p, q))
            u = hyp.log(p, q)
            assert abs(math.sqrt(hyp.minkowski_dot(u, u)) - dist) <= 1e-6 * dist
            assert np.array_equal(u, hyp.log_many(p, q[None])[1][0])
            g = hyp.grad_dist(p, q)
            assert abs(math.sqrt(hyp.minkowski_dot(g, g)) - 1.0) <= 1e-6


def test_log_keeps_its_digits_away_from_the_basepoint():
    # away from the basepoint -<p,q>_M rounds to 1 + ulp rather than 1 at
    # tiny d, where a factor d / sqrt(mu^2 - 1) is off by up to 2x
    rng = np.random.default_rng(17)
    for r in (0.7, 2.0, 3.0):
        for _ in range(3):
            p = hyp.random_point(rng, 3, r)
            frame = hyp.tangent_frame(p)
            for e in np.arange(2, 22) / 2:  # d = 10^-1 ... 10^-10.5
                u = rng.normal(size=3) @ frame
                q = hyp.exp(p, 10.0**-e * u / math.sqrt(hyp.minkowski_dot(u, u)))
                dist = float(hyp.dist(p, q))
                for v in (hyp.log(p, q), hyp.log_many(p, q[None])[1][0]):
                    assert abs(math.sqrt(hyp.minkowski_dot(v, v)) / dist - 1.0) <= 1e-3
                g = hyp.grad_dist(p, q)
                assert abs(math.sqrt(hyp.minkowski_dot(g, g)) - 1.0) <= 1e-3


def test_grad_degenerate_error():
    p = hyp.basepoint(2)
    with pytest.raises(DegenerateGradientError):
        hyp.grad_dist(p, p)
    with pytest.raises(SingularHessianError):
        hyp.hess_dist_matrix(p, p)


def test_hess_spectrum_closed_form():
    for t in (0.5, 1.0, 3.0, 8.0):
        n = 4
        z = hyp.basepoint(n)
        v = np.zeros(n + 1)
        v[2] = t
        y = hyp.exp(z, v)
        m, _ = hyp.hess_dist_matrix(y, z)
        eig = np.sort(np.linalg.eigvalsh(m))
        assert abs(eig[0]) < 1e-9
        assert np.max(np.abs(eig[1:] - 1.0 / math.tanh(t))) < 1e-9
    # coth(t) -> 1 for large t
    assert abs(1.0 / math.tanh(8.0) - 1.0) < 1e-6


def test_grad_and_hess_match_finite_differences():
    # central differences of the distance along an orthonormal frame,
    # 1e3 random configurations, relative error < 1e-4 at step 1e-5
    n = 3
    eps = 1e-5
    for _ in range(1000):
        y = hyp.random_point(RNG, n, radius=1.5)
        z = hyp.random_point(RNG, n, radius=1.5)
        if hyp.dist(y, z) < 0.3:
            continue
        frame = hyp.tangent_frame(y)
        g = hyp.frame_coords(frame, hyp.grad_dist(y, z))
        m, _ = hyp.hess_dist_matrix(y, z, frame=frame)
        d0 = hyp.dist(y, z)
        for i in range(n):
            dp = hyp.dist(hyp.exp(y, eps * frame[i]), z)
            dm = hyp.dist(hyp.exp(y, -eps * frame[i]), z)
            fd_grad = (dp - dm) / (2 * eps)
            assert abs(fd_grad - g[i]) <= 1e-4 * max(1.0, abs(g[i]))
            fd_hess = (dp - 2 * d0 + dm) / eps**2
            assert abs(fd_hess - m[i, i]) <= 1e-4 * max(1.0, abs(m[i, i])) + 5e-5
        # one mixed entry via the diagonal trick
        u = (frame[0] + frame[1]) / math.sqrt(2.0)
        dp = hyp.dist(hyp.exp(y, eps * u), z)
        dm = hyp.dist(hyp.exp(y, -eps * u), z)
        fd_mixed = (dp - 2 * d0 + dm) / eps**2
        expected = 0.5 * (m[0, 0] + m[1, 1]) + m[0, 1]
        assert abs(fd_mixed - expected) <= 1e-4 * max(1.0, abs(expected)) + 5e-5


def test_hess_comparison_lower_bound():
    # Hessian = coth(d) (I - g g^T) exactly in curvature -1: the comparison
    # bound holds with equality, so eigenvalues orthogonal to g equal coth(d).
    for _ in range(50):
        y = hyp.random_point(RNG, 3, radius=2.0)
        z = hyp.random_point(RNG, 3, radius=2.0)
        d = hyp.dist(y, z)
        if d < 0.1:
            continue
        frame = hyp.tangent_frame(y)
        m, _ = hyp.hess_dist_matrix(y, z, frame=frame)
        g = hyp.frame_coords(frame, hyp.grad_dist(y, z))
        bound = (np.eye(3) - np.outer(g, g)) / math.tanh(d)
        assert np.max(np.abs(m - bound)) < 1e-9


def test_apply_isometry_identity_and_boost():
    p = hyp.basepoint(3)
    assert hyp.dist(hyp.check_point(hyp.project_to_sheet(np.eye(4) @ p)), p) == 0.0
    b = hyp.boost(0.9, 3, axis=1)
    assert_lorentz(b)
    q = hyp.check_point(hyp.project_to_sheet(b @ p))
    assert abs(hyp.dist(p, q) - 0.9) < 1e-12


def test_random_isometries_preserve_distance():
    n = 3
    for _ in range(20):
        g = hyp.random_isometry(RNG, n)
        assert_lorentz(g)
        for _ in range(50):
            p = hyp.random_point(RNG, n, radius=2.5)
            q = hyp.random_point(RNG, n, radius=2.5)
            gp = hyp.check_point(hyp.project_to_sheet(g @ p))
            gq = hyp.check_point(hyp.project_to_sheet(g @ q))
            assert abs(hyp.dist(gp, gq) - hyp.dist(p, q)) < 1e-9


@pytest.mark.parametrize("x", [
    pytest.param([0.9, 0.0, 0.0], id="inside"),
    pytest.param([1.05, 0.0, 0.0, 0.0], id="scaled"),
    pytest.param([-1.0, 0.0, 0.0], id="lower-sheet"),
    pytest.param([math.nan, 0.0, 0.0], id="nan-x0"),
    pytest.param([1.0, math.nan, 0.0], id="nan-x1"),
    pytest.param([], id="empty"),
    pytest.param([[1.0, 0.0, 0.0], [1.1, 0.3, 0.0]], id="one-bad-row"),
])
def test_check_point_rejects(x):
    with pytest.raises(InvalidPointError):
        hyp.check_point(x)


def test_check_point_accepts_sheet_points_and_returns_them():
    pts = np.array([hyp.random_point(RNG, 3, radius=1.5) for _ in range(8)])
    assert hyp.check_point(pts) is pts
    assert (hyp.check_point(pts[0].tolist()) == pts[0]).all()


# hypothesis draws a rng seed and sizes; the points come from the library's
# own samplers so they lie on the sheet to rounding
seeds = st.integers(0, 2**32 - 1)
derandomized = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@derandomized
@given(seeds, st.integers(2, 5), st.floats(0.0, 2.0))
def test_exp_log_roundtrip_property(seed, n, radius):
    rng = np.random.default_rng(seed)
    p = hyp.random_point(rng, n, radius)
    q = hyp.random_point(rng, n, radius)
    scale = max(1.0, float(np.max(np.abs(p))))
    v = hyp.log(p, q)
    assert abs(hyp.minkowski_dot(p, v)) <= 1e-9 * scale**2
    assert np.max(np.abs(hyp.exp(p, v) - q)) <= 1e-9
    # and back: log(p, exp(p, w)) = w for a tangent w of length < 2
    w = hyp.tangent_project(p, rng.normal(size=n + 1))
    w *= rng.uniform(0.0, 2.0) / max(math.sqrt(hyp.minkowski_dot(w, w)), 1e-300)
    assert np.max(np.abs(hyp.log(p, hyp.exp(p, w)) - w)) <= 1e-8 * scale


@derandomized
@given(seeds, st.integers(2, 5), st.floats(0.0, 2.0), st.floats(0.0, 1.5))
def test_dist_and_log_equivariant_under_isometries(seed, n, radius, spread):
    rng = np.random.default_rng(seed)
    g = hyp.random_isometry(rng, n, spread)
    p = hyp.random_point(rng, n, radius)
    q = hyp.random_point(rng, n, radius)
    gp, gq = hyp.project_to_sheet(g @ p), hyp.project_to_sheet(g @ q)
    assert abs(hyp.dist(gp, gq) - hyp.dist(p, q)) <= 1e-9
    scale = max(1.0, float(np.max(np.abs(g))))
    assert np.max(np.abs(hyp.log(gp, gq) - g @ hyp.log(p, q))) <= 1e-9 * scale**2


@derandomized
@given(seeds, st.integers(2, 6), st.floats(0.05, 1.0), st.integers(1, 50))
def test_repeated_geodesic_steps_stay_on_the_sheet(seed, n, t, steps):
    rng = np.random.default_rng(seed)
    p = hyp.random_point(rng, n, 2.0)
    for _ in range(steps):
        q = hyp.random_point(rng, n, 2.0)
        p = hyp.exp(p, hyp.log(p, q) * t)
    hyp.check_point(p)


def test_log_many_and_dist_many_agree_with_scalar():
    p = hyp.random_point(RNG, 3, radius=1.0)
    Q = np.array([hyp.random_point(RNG, 3, radius=2.0) for _ in range(64)])
    D = hyp.dist_many(p, Q)
    D2, V = hyp.log_many(p, Q)
    assert np.array_equal(D2, D)
    for i in range(64):
        assert abs(D[i] - hyp.dist(p, Q[i])) < 1e-12
        assert np.max(np.abs(V[i] - hyp.log(p, Q[i]))) < 1e-10


# operand pairs of the Minkowski kernel: a last axis of `lengths`, shaped
# (k,), (m, k) or broadcast as (m, 1, k) against (1, m', k)
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.0**-1040, 1.0]


@st.composite
def operands(draw, lengths, elements):
    k, m, m2 = draw(lengths), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shapes = draw(st.sampled_from([((k,), (k,)), ((m, k), (m, k)),
                                   ((m, 1, k), (1, m2, k))]))
    return tuple(draw(hnp.arrays(np.float64, shape, elements=elements)) for shape in shapes)


@derandomized
@given(operands(st.integers(1, 8),
                st.one_of(st.sampled_from(SPECIAL), st.floats(-4.0, 4.0), st.floats())))
def test_minkowski_dot_equals_the_reduction_up_to_n_7(pair):
    """The kernel returns numpy's reduction bit for bit for n <= 7: equal
    values and signs of zero, and NaN in the same places (a NaN's sign bit
    is not a value: the reduction negates u0 v0 where the kernel subtracts
    it)."""
    with np.errstate(all="ignore"):
        got = np.asarray(hyp.minkowski_dot(*pair))
        want = np.asarray(minkowski_dot_reference(*pair))
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], want[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))


@derandomized
@given(operands(st.integers(9, 16), st.one_of(st.sampled_from([0.0, -0.0, 5e-324]),
                                               st.floats(-1e150, 1e150))))
def test_minkowski_dot_near_the_reduction_from_n_8(pair):
    """From n = 8 numpy sums in pairwise blocks, so the two sums may differ
    by rounding: within (n+1) 2^-52 sum |u_i v_i|."""
    got, want = hyp.minkowski_dot(*pair), minkowski_dot_reference(*pair)
    bound = pair[0].shape[-1] * 2.0**-52 * np.abs(pair[0] * pair[1]).sum(axis=-1)
    assert (np.abs(got - want) <= bound).all()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sample_ball_draws_the_reference_stream(n):
    for seed in (1, 2, 3):
        for count in (1, 200, 20_000):
            got = graphs._sample_ball(np.random.default_rng(seed), n, 2.0, count)
            want = sample_ball_reference(np.random.default_rng(seed), n, 2.0, count)
            assert np.array_equal(got, want)
