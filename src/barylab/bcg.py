"""Laboratory for the Besson-Courtois-Gallot determinant inequality.

For positive definite trace-one H (N >= 3) and orthogonal almost-complex
structures J_1..J_{d-1} (J^2 = -I),

    det(H) / det(I - H - sum_i J_i H J_i)^2  <=  (N / (N + d - 2)^2)^N,

with equality exactly at H = I/N.  The sharper form carries a quadratic
deficit factor (1 - A * sum_j (mu_j - 1/N)^2)^2 for some positive constant
A that is not constructive; scans report an empirical infimum for it,
clearly labeled as empirical.

The scan hammers the inequality with Wishart-normalized samples,
Dirichlet-spectrum samples in Haar-random frames, and boundary-hugging
spectra (one eigenvalue pushed toward 1), the known hard region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundViolationError, ConfigurationError, OutsideDomainError

CHUNK = 20_000  # samples per independently seeded block of a scan
VIOLATION_RTOL = 1e-9
# Margin of the Weyl certificate in domain_mask.  The rounding of D's
# entries and the backward errors of eigvalsh on H and on D add up to
# O(N^2 d^2 eps ||H||), with ||H|| < N for a trace-one H that passes the
# certificate: under 1e-12 at N = d = 8, and under 2e-10 at N = 100, beyond
# which a CHUNK of samples no longer fits in memory.  So a certified sample
# also passes the exact test on the computed D.
DOMAIN_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def _quaternion_units():
    i = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
    j = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
    k = i @ j
    return [i, j, k]


_OCTONION_TRIPLES = [(1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6),
                     (2, 5, 7), (3, 4, 7), (3, 6, 5)]


def _octonion_units():
    mats = []
    for i in range(1, 8):
        L = np.zeros((8, 8))
        L[i, 0] = 1.0
        L[0, i] = -1.0
        for a, b, c in _OCTONION_TRIPLES:
            table = {(a, b): (c, 1), (b, c): (a, 1), (c, a): (b, 1),
                     (b, a): (c, -1), (c, b): (a, -1), (a, c): (b, -1)}
            for (p, q), (r, sign) in table.items():
                if p == i:
                    L[r, q] = sign
        mats.append(L)
    return mats


def canonical_structures(N: int, d: int):
    """Block-diagonal standard complex/quaternionic/octonionic structures.

    d=1 returns []; d=2 needs N even, d=4 needs 4 | N, d=8 needs 8 | N.
    The octonionic case is included for experimentation only.
    """
    if d == 1:
        return []
    if d == 2:
        if N % 2:
            raise ValueError("d=2 needs even N")
        half = N // 2
        J = np.zeros((N, N))
        J[:half, half:] = -np.eye(half)
        J[half:, :half] = np.eye(half)
        return [J]
    if d == 4:
        if N % 4:
            raise ValueError("d=4 needs N divisible by 4")
        blocks = _quaternion_units()
    elif d == 8:
        if N % 8:
            raise ValueError("d=8 needs N divisible by 8")
        blocks = _octonion_units()
    else:
        raise ValueError("d must be one of 1, 2, 4, 8")
    reps = N // blocks[0].shape[0]
    out = []
    for b in blocks:
        J = np.zeros((N, N))
        for r in range(reps):
            lo = r * b.shape[0]
            J[lo:lo + b.shape[0], lo:lo + b.shape[0]] = b
        out.append(J)
    return out


@dataclass
class SpectralInput:
    """A validated (H, J_1..J_{d-1}) pair for the determinant inequality."""

    N: int
    d: int
    H: np.ndarray
    J: list = field(default_factory=list)

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("the inequality needs N >= 3")
        if self.d not in (1, 2, 4, 8):
            raise ValueError("d must be one of 1, 2, 4, 8")
        H = np.asarray(self.H, dtype=float)
        if H.shape != (self.N, self.N):
            raise ValueError("H has wrong shape")
        if np.max(np.abs(H - H.T)) > 1e-10:
            raise ValueError("H must be symmetric")
        if abs(np.trace(H) - 1.0) > 1e-10:
            raise ValueError("H must have unit trace")
        if np.min(np.linalg.eigvalsh(H)) <= 0:
            raise ValueError("H must be positive definite")
        if len(self.J) != self.d - 1:
            raise ValueError(f"expected {self.d - 1} structures, got {len(self.J)}")
        for Ji in self.J:
            Ji = np.asarray(Ji, dtype=float)
            if np.max(np.abs(Ji.T @ Ji - np.eye(self.N))) > 1e-9:
                raise ValueError("J must be orthogonal")
            if np.max(np.abs(Ji @ Ji + np.eye(self.N))) > 1e-9:
                raise ValueError("J^2 must equal -I")
        self.H = H
        self.J = [np.asarray(Ji, dtype=float) for Ji in self.J]


def bcg_bound(N: int, d: int = 1) -> float:
    """(N / (N + d - 2)^2)^N, the sharp constant; equality iff H = I/N."""
    if N < 3:
        raise ValueError("the inequality needs N >= 3")
    if d not in (1, 2, 4, 8):
        raise ValueError("d must be one of 1, 2, 4, 8")
    return (N / (N + d - 2) ** 2) ** N


def denominator_matrix(H, J):
    """I - H - sum_i J_i H J_i for one H or a stack of them (..., N, N).

    For the canonical structures (signed permutation matrices) every entry
    of J_i H J_i is +-H_jk or an exact zero, so the products are exact in
    any summation order.
    """
    D = np.eye(H.shape[-1]) - H
    for Ji in J:
        D = D - Ji @ H @ Ji
    return D


def domain_mask(D, eigs, d):
    """Which matrices of a stack D = denominator_matrix(H, J) are positive
    definite, given eigs = eigvalsh(H) in ascending order and the d - 1
    structures J_i of (N, d).

    Weyl certificate: J_i^T = -J_i, so D = (I - H) + sum_i J_i H J_i^T, and
    each J_i H J_i^T is similar to H.  By Weyl's inequality
    lambda_min(D) >= 1 - lambda_max(H) + (d - 1) lambda_min(H), so a sample
    whose bound exceeds DOMAIN_MARGIN is accepted from the spectrum of H
    alone.  Every other sample takes the exact test eigvalsh(D)[:, 0] > 0.
    """
    ok = 1.0 - eigs[:, -1] + (d - 1) * eigs[:, 0] > DOMAIN_MARGIN
    unsure = ~ok
    if np.any(unsure):
        ok[unsure] = np.linalg.eigvalsh(D[unsure])[:, 0] > 0
    return ok


def bcg_ratio(inp: SpectralInput) -> float:
    """det(H) / det(I - H - sum J H J)^2 for a validated input."""
    D = denominator_matrix(inp.H, inp.J)
    eig = np.linalg.eigvalsh(D)
    if eig[0] <= 0:
        raise OutsideDomainError(
            f"denominator matrix not positive definite (min eig {eig[0]:.3e})"
        )
    return float(np.linalg.det(inp.H) / np.linalg.det(D) ** 2)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _sample_wishart(rng, N, count):
    G = rng.normal(size=(count, N, N))
    H = G @ np.swapaxes(G, 1, 2)
    H += 1e-10 * np.eye(N)
    tr = np.trace(H, axis1=1, axis2=2)
    return H / tr[:, None, None]

def _haar_frames(rng, N, count):
    G = rng.normal(size=(count, N, N))
    Q, R = np.linalg.qr(G)
    sign = np.sign(np.einsum("...ii->...i", R))
    sign[sign == 0] = 1.0
    return Q * sign[:, None, :]


def _sample_dirichlet(rng, N, count):
    eigs = rng.dirichlet(np.full(N, 1.0), size=count)
    eigs = np.maximum(eigs, 1e-12)
    eigs /= eigs.sum(axis=1, keepdims=True)
    Q = _haar_frames(rng, N, count)
    return np.einsum("cij,cj,ckj->cik", Q, eigs, Q)


def _sample_boundary(rng, N, count):
    """One eigenvalue pushed toward 1: the hard region of the inequality."""
    top = 1.0 - 10.0 ** rng.uniform(-6, -0.7, size=count)
    rest = rng.dirichlet(np.full(N - 1, 1.0), size=count) * (1.0 - top)[:, None]
    rest = np.maximum(rest, 1e-14)
    eigs = np.concatenate([top[:, None], rest], axis=1)
    eigs /= eigs.sum(axis=1, keepdims=True)
    Q = _haar_frames(rng, N, count)
    return np.einsum("cij,cj,ckj->cik", Q, eigs, Q)


# the samplers of a scan, in the order their shares of a block are drawn
SAMPLERS = {
    "wishart": _sample_wishart,
    "dirichlet": _sample_dirichlet,
    "boundary": _sample_boundary,
}


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

@dataclass
class ScanReport:
    """Outcome of a sampling scan of the inequality."""

    N: int
    d: int
    count: int
    bound: float
    max_ratio: float
    argmax_spectrum: np.ndarray
    empirical_A: float
    violations: int
    outside_domain: int
    eigenvalues: np.ndarray
    ratios: np.ndarray
    deficits: np.ndarray

    def summary(self):
        return {
            "N": self.N,
            "d": self.d,
            "count": self.count,
            "bound": self.bound,
            "max_ratio": self.max_ratio,
            "argmax_spectrum": [float(x) for x in self.argmax_spectrum],
            "empirical_A": self.empirical_A,
            "violations": self.violations,
            "outside_domain": self.outside_domain,
        }


def _scan_block(N, d, size, rng, structures, bound):
    # shares of `per`, the last sampler taking the rest (a tiny block, none)
    per = max(1, size // len(SAMPLERS))
    ends = [min(size, i * per) for i in range(1, len(SAMPLERS))] + [size]
    H = np.concatenate([sample(rng, N, b - a)
                        for sample, a, b in zip(SAMPLERS.values(), [0] + ends, ends)])
    D = denominator_matrix(H, structures)
    eigs = np.linalg.eigvalsh(H)
    ok = domain_mask(D, eigs, d)
    ratios = np.full(size, np.nan)
    ratios[ok] = np.linalg.det(H[ok]) / np.linalg.det(D[ok]) ** 2
    deficits = np.sum((eigs - 1.0 / N) ** 2, axis=1)
    bad = ok & (ratios > bound * (1.0 + VIOLATION_RTOL))
    if np.any(bad):
        b = int(np.nonzero(bad)[0][0])
        payload = {
            "N": N, "d": d,
            "H": H[b].tolist(),
            "ratio": float(ratios[b]),
            "bound": bound,
        }
        raise BoundViolationError(
            f"determinant inequality violated: ratio {ratios[b]!r} > bound {bound!r}\n"
            + json.dumps(payload),
            counterexample=payload,
        )
    return eigs, ratios, deficits, int(np.sum(~ok))


def bcg_scan(N: int, d: int, count: int, rng=None, threads: int = 1) -> ScanReport:
    """Sample `count` inputs H, in equal shares from each of SAMPLERS, and
    verify the inequality on each with the canonical structures of (N, d).

    A sample whose denominator matrix is not positive definite gets a NaN
    ratio and counts in `outside_domain`; `domain_mask` decides, from the
    Weyl certificate on the spectrum of H where it holds and from the
    eigenvalues of D elsewhere.  Any ratio above bound * (1 + 1e-9) aborts
    with the counterexample serialized in the exception.  The empirical
    deficit constant is the infimum over samples of
    (1 - sqrt(ratio/bound)) / sum_j (mu_j - 1/N)^2.
    Chunks of CHUNK samples carry RNG streams spawned independently from
    the int seed `rng` (None reads as 0) and are merged in chunk order, so
    results are byte-identical for any thread count.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    bound = bcg_bound(N, d)
    structures = canonical_structures(N, d)
    sizes = [min(CHUNK, count - lo) for lo in range(0, count, CHUNK)]
    seeds = np.random.SeedSequence(rng if rng is not None else 0).spawn(len(sizes))
    jobs = list(zip(sizes, map(np.random.default_rng, seeds)))

    def scan(job):
        return _scan_block(N, d, *job, structures, bound)

    if threads > 1 and len(jobs) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(scan, jobs))
    else:
        results = list(map(scan, jobs))
    eigs_all = np.concatenate([r[0] for r in results], axis=0)
    ratios_all = np.concatenate([r[1] for r in results])
    deficits_all = np.concatenate([r[2] for r in results])
    outside = sum(r[3] for r in results)
    finite = np.isfinite(ratios_all)
    idx = int(np.nanargmax(np.where(finite, ratios_all, -np.inf)))
    meaningful = finite & (deficits_all > 1e-12) & (ratios_all <= bound)
    if np.any(meaningful):
        a_vals = (1.0 - np.sqrt(ratios_all[meaningful] / bound)) / deficits_all[meaningful]
        empirical_A = float(np.min(a_vals))
    else:
        empirical_A = float("nan")
    return ScanReport(
        N=N, d=d, count=count, bound=bound,
        max_ratio=float(ratios_all[idx]),
        argmax_spectrum=eigs_all[idx],
        empirical_A=empirical_A,
        violations=0,
        outside_domain=outside,
        eigenvalues=eigs_all,
        ratios=ratios_all,
        deficits=deficits_all,
    )

