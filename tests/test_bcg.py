import numpy as np
import pytest

from barylab import bcg
from barylab.bcg import (
    CHUNK,
    SpectralInput,
    bcg_bound,
    bcg_ratio,
    bcg_scan,
    canonical_structures,
    denominator_matrix,
    domain_mask,
)
from barylab.errors import ConfigurationError, OutsideDomainError

from oracles import einsum_denominator_matrix, ratio_line_scan


def test_bound_closed_forms():
    assert bcg_bound(3, 1) == pytest.approx((3 / 4) ** 3)
    assert bcg_bound(4, 2) == pytest.approx((1 / 4) ** 4)
    assert bcg_bound(8, 1) == pytest.approx((8 / 49) ** 8)
    with pytest.raises(ValueError):
        bcg_bound(2, 1)


def test_ratio_equality_case_d1():
    # H = I/N attains the bound exactly, for all N in 3..10
    for n in range(3, 11):
        inp = SpectralInput(n, 1, np.eye(n) / n)
        assert abs(bcg_ratio(inp) - bcg_bound(n, 1)) < 1e-12


def test_ratio_equality_case_d2():
    for n in (4, 6, 8):
        J = canonical_structures(n, 2)
        inp = SpectralInput(n, 2, np.eye(n) / n, J)
        assert abs(bcg_ratio(inp) - bcg_bound(n, 2)) < 1e-12


def test_ratio_strict_below_bound_off_center():
    inp = SpectralInput(3, 1, np.diag([0.5, 0.3, 0.2]))
    r = bcg_ratio(inp)
    # direct determinant evaluation
    expected = (0.5 * 0.3 * 0.2) / (0.5 * 0.7 * 0.8) ** 2
    assert abs(r - expected) < 1e-14
    assert r < bcg_bound(3, 1)


def test_example_n3_value():
    inp = SpectralInput(3, 1, np.eye(3) / 3)
    assert abs(bcg_ratio(inp) - 27 / 64) < 1e-14


def test_symplectic_equality_value():
    J = canonical_structures(4, 2)
    inp = SpectralInput(4, 2, np.eye(4) / 4, J)
    assert abs(bcg_ratio(inp) - 1 / 256) < 1e-15


def test_structures_validate():
    for n, d in ((4, 2), (4, 4), (8, 4), (8, 8), (16, 8)):
        for J in canonical_structures(n, d):
            assert np.max(np.abs(J.T @ J - np.eye(n))) < 1e-12
            assert np.max(np.abs(J @ J + np.eye(n))) < 1e-12
    with pytest.raises(ValueError):
        canonical_structures(5, 2)
    with pytest.raises(ValueError):
        canonical_structures(6, 4)


def test_input_validation():
    with pytest.raises(ValueError):
        SpectralInput(2, 1, np.eye(2) / 2)
    with pytest.raises(ValueError):
        SpectralInput(3, 1, np.eye(3))  # trace 3
    with pytest.raises(ValueError):
        SpectralInput(3, 1, np.diag([0.5, 0.5, 0.0]))  # singular
    with pytest.raises(ValueError):
        SpectralInput(4, 2, np.eye(4) / 4, [np.eye(4)])  # J^2 != -I


def test_denominator_pd_for_valid_inputs():
    # I - H - sum J H J >= I - H > 0: the J terms are -J^T H J <= 0 subtracted
    rng = np.random.default_rng(0)
    for _ in range(200):
        G = rng.normal(size=(4, 4))
        H = G @ G.T + 1e-6 * np.eye(4)
        H /= np.trace(H)
        J = canonical_structures(4, 2)
        D = denominator_matrix(H, J)
        assert np.min(np.linalg.eigvalsh(D)) > 0


def test_outside_domain_error_reported():
    # for valid inputs I - H (- J terms) is always PD, so near-boundary
    # spectra still evaluate; the PD check fires only on doctored inputs
    inp = SpectralInput(3, 1, np.diag([0.98, 0.01, 0.01]))
    assert bcg_ratio(inp) < bcg_bound(3, 1)
    with pytest.raises(OutsideDomainError):
        bad = SpectralInput(3, 1, np.eye(3) / 3)
        bad.H = np.diag([1.5, -0.25, -0.25])  # bypass validation deliberately
        bcg_ratio(bad)


def test_scan_no_violations_and_positive_A():
    report = bcg_scan(3, 1, 3000, rng=1)
    assert report.violations == 0
    assert report.outside_domain == 0
    assert report.max_ratio <= bcg_bound(3, 1) * (1 + 1e-9)
    assert report.empirical_A > 0
    # the maximum is approached only near the center spectrum
    assert np.max(np.abs(report.argmax_spectrum - 1 / 3)) < 0.2
    # a block of one sample (count 1, or one past a chunk) is scanned too
    for count in (1, 2, CHUNK + 1):
        assert bcg_scan(3, 1, count, rng=1).count == count


def test_scan_d2_and_reports():
    report = bcg_scan(4, 2, 2000, rng=2)
    assert report.violations == 0
    assert report.max_ratio <= bcg_bound(4, 2) * (1 + 1e-9)
    s = report.summary()
    assert s["count"] == 2000 and s["N"] == 4 and s["d"] == 2


def test_empirical_A_reported_for_range():
    for n in range(3, 7):
        report = bcg_scan(n, 1, 1500, rng=n)
        assert report.empirical_A > 0


def test_deficit_monotone_line_scans():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        direction = rng.normal(size=n)
        direction -= direction.mean()
        ts, vals = ratio_line_scan(n, direction)
        assert np.all(np.diff(vals) <= 1e-12)
        assert abs(vals[0] - bcg_bound(n, 1)) < 1e-12


def test_conjugation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = 4
        G = rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(G)
        H = _random_pd_trace_one(rng, n)
        J = canonical_structures(n, 2)
        r1 = bcg_ratio(SpectralInput(n, 2, H, J))
        H2 = Q.T @ H @ Q
        J2 = [Q.T @ Ji @ Q for Ji in J]
        r2 = bcg_ratio(SpectralInput(n, 2, 0.5 * (H2 + H2.T), J2))
        assert abs(r1 - r2) < 1e-10 * max(1.0, r1)


def _random_pd_trace_one(rng, n):
    G = rng.normal(size=(n, n))
    H = G @ G.T + 1e-8 * np.eye(n)
    return H / np.trace(H)


def _boundary_hugging(rng, N, count):
    """Trace-one H with top eigenvalue 1 - 10^u, u uniform in [-16, -5]."""
    top = 1.0 - 10.0 ** rng.uniform(-16, -5, size=count)
    rest = rng.dirichlet(np.ones(N - 1), size=count) * (1.0 - top)[:, None]
    eigs = np.concatenate([top[:, None], rest], axis=1)
    Q, _ = np.linalg.qr(rng.normal(size=(count, N, N)))
    H = (Q * eigs[:, None, :]) @ np.swapaxes(Q, 1, 2)
    return 0.5 * (H + np.swapaxes(H, 1, 2))


@pytest.mark.parametrize("N, d", [(3, 1), (4, 2), (8, 4)])
def test_domain_certificate_matches_exact_test(N, d):
    """On boundary-hugging stacks the Weyl certificate plus its fallback
    accepts exactly the samples whose denominator is positive definite."""
    rng = np.random.default_rng(100 * N + d)
    H = _boundary_hugging(rng, N, 20_000)
    D = denominator_matrix(H, canonical_structures(N, d))
    eigs = np.linalg.eigvalsh(H)
    certified = 1.0 - eigs[:, -1] + (d - 1) * eigs[:, 0] > bcg.DOMAIN_MARGIN
    assert 0 < np.sum(certified) < len(H)  # both paths are taken
    exact = np.linalg.eigvalsh(D)[:, 0] > 0
    assert not np.all(exact)  # the stack reaches outside the domain
    assert np.array_equal(domain_mask(D, eigs, d), exact)


@pytest.mark.parametrize("N, d, spectrum", [
    (3, 1, [1.5, -0.25, -0.25]),
    # lambda_max < 1, but the structure term carries the negative eigenvalue
    # into D: a certificate from lambda_max(H) alone would accept it
    (4, 2, [0.9, 0.3, -0.5, 0.3]),
])
def test_doctored_samples_take_the_fallback(N, d, spectrum, monkeypatch):
    """A sampler returning H outside the domain gives NaN ratios counted in
    outside_domain; every other sample scans as before."""
    def doctored(rng, n, count):
        return np.repeat(np.diag(spectrum)[None], count, axis=0)

    J = canonical_structures(N, d)
    H = doctored(None, N, 1)
    assert not np.any(np.linalg.eigvalsh(denominator_matrix(H, J))[:, 0] > 0)
    assert not np.any(domain_mask(denominator_matrix(H, J), np.linalg.eigvalsh(H), d))
    monkeypatch.setitem(bcg.SAMPLERS, "dirichlet", doctored)
    report = bcg_scan(N, d, 3000, rng=1)
    assert report.outside_domain == 1000
    assert np.all(np.isnan(report.ratios[1000:2000]))
    assert np.all(np.isfinite(np.delete(report.ratios, np.s_[1000:2000])))
    assert report.violations == 0


@pytest.mark.parametrize("N, d", [(4, 2), (8, 2), (4, 4), (8, 4), (8, 8)])
def test_denominator_matches_einsum_bit_for_bit(N, d):
    """For the canonical structures (signed permutations) the matmul
    products equal the three-operand einsum exactly."""
    rng = np.random.default_rng(N + d)
    J = canonical_structures(N, d)
    for H in (bcg._sample_wishart(rng, N, 2000), _boundary_hugging(rng, N, 2000)):
        assert np.array_equal(denominator_matrix(H, J), einsum_denominator_matrix(H, J))
        assert np.array_equal(denominator_matrix(H[0], J), einsum_denominator_matrix(H[0], J))


@pytest.mark.parametrize("threads", [0, -1])
def test_scan_refuses_threads_below_one(threads):
    with pytest.raises(ConfigurationError):
        bcg_scan(3, 1, 10, rng=1, threads=threads)
