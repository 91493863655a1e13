"""The natural-map pipeline on a truncated cover.

For a basepoint x of a metric measure graph (standing in for a cover of the
source space) and the images f(z) in H^n of its vertices under the lifted
comparison map, the pipeline:

1. builds the exponentially weighted measure mu with density
   measure(z) * exp(-s * d(x, z)) on the ball of the truncation radius,
   and the exact mass its truncation drops (the tail);
2. pushes mu forward along f and takes the d^2-barycenter, giving the
   natural map value F_s(x);
3. assembles, at y = F_s(x), the distance-weighted probability measure eta
   (density rho_z(y) against the pushforward) and its moment tensors

   - H: average of outer products of the unit directions from y to the
     atoms (symmetric PSD, unit trace),
   - K: average Hessian of the distance functions (equals
     coth(rho) * (I - g g^T) per atom in curvature -1),
   - L: average of (1/rho) g g^T,
   - A: average of g tensor G, coupling target directions with the
     discrete source gradients G of z -> d(x, .),
   - B: average of G G^T (trace <= 1 since |G| <= 1);

4. evaluates the differential formula s * (L + K)^{-1} A, its determinant
   (the Jacobian estimate), a mesh-scale Jacobian from convex-hull volume
   ratios (NaN on a rank-deficient ball), and the determinant inequality
   chain that bounds the Jacobian by (s / (N - 1))^N.

Per-vertex data are arrays in `cover.vertices` order: the images are one
(n, N+1) array `images` whose row i is f(cover.vertices[i]), and the
measure is `cover.measure`.  Vertices (x, sample points, deck maps) are
named by id.

The source gradients G are least-squares fits of directional difference
quotients over the one-ring of x, in a local chart obtained by classical
MDS on graph distances; they are clipped to unit norm, the one property the
continuum construction guarantees.  Atoms closer than an exclusion
threshold to y are dropped from eta (the 1/rho and coth singularities),
with the excluded mass reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import hyperboloid as hyp
from .barycenter import barycenter
from .errors import (
    ConfigurationError,
    DegeneratePointError,
    RankDeficiencyError,
    TruncationError,
)
from .measures import DiscreteMeasure
from .mmgraph import MMGraph


SOLVER_TOL = 1e-9           # barycenter gradient-norm tolerance
EXCLUSION_THRESHOLD = 1e-9  # sigma sites closer than this to y leave eta
CHART_RANK_TOL = 1e-8       # relative eigenvalue floor of the one-ring chart


@dataclass
class NaturalMapConfig:
    """Parameters of one natural-map evaluation.

    `s` must exceed the entropy estimate by three residuals (finite total
    mass of the weighted measure needs s above the growth rate; the margin
    covers window error).  `tail_tolerance` caps the exact mass dropped
    beyond `truncation_radius` as a fraction of the retained mass.
    """

    s: float
    truncation_radius: float
    h_estimate: float
    h_residual: float = 0.0
    tail_tolerance: float = 1e-3

    def __post_init__(self):
        floor = self.h_estimate + 3.0 * self.h_residual
        if not self.s > floor:
            raise ConfigurationError(
                f"s = {self.s} must exceed h_estimate + 3*residual = {floor}"
            )
        if self.truncation_radius <= 0:
            raise ConfigurationError("truncation radius must be positive")


# ---------------------------------------------------------------------------
# the weighted measure and the mass its truncation drops
# ---------------------------------------------------------------------------

def mu_x_s(cover: MMGraph, x, cfg: NaturalMapConfig, dists=None):
    """Exponentially weighted measure on the truncated ball about x.

    `dists` is x's full row of `cover.distances` (an entry cut off to inf
    adds nothing to the tail), computed when omitted.  Returns
    (atoms, weights, tail): int64 vertex indices in (distance, index) order
    and their weights, zero-weight atoms dropped, and the tail, the exact
    mass sum m(z) exp(-s d(x, z)) over the vertices z with d(x, z) > T that
    the truncation drops (0.0 when the ball holds the whole graph).  A tail
    above tail_tolerance times the retained mass (relative, so one
    tolerance works across fixture scales) raises TruncationError.
    """
    if dists is None:
        dists = cover.distances(x)
    order = np.argsort(dists, kind="stable")
    d = dists[order]
    m = cover.measure[order]
    k = int(np.searchsorted(d, cfg.truncation_radius, side="right"))
    weights = m[:k] * np.exp(-cfg.s * d[:k])
    retained = float(np.sum(weights))
    tail = float(np.sum(m[k:] * np.exp(-cfg.s * d[k:])))
    if tail > cfg.tail_tolerance * retained:
        raise TruncationError(
            f"tail mass beyond radius {cfg.truncation_radius} is {tail:.3e}, above "
            f"tolerance {cfg.tail_tolerance:.3e} x retained mass {retained:.3e}",
            tail_bound=tail,
        )
    return order[:k][weights > 0.0], weights[weights > 0.0], tail


# ---------------------------------------------------------------------------
# F_s and the tensors
# ---------------------------------------------------------------------------

def pushforward_with_fibers(weights, images):
    """sigma: `weights` pushed to the rows of `images`, equal rows merged in
    order of first appearance; `sigma.labels` holds each atom's fiber."""
    return DiscreteMeasure(images, weights)


def natural_map_point(cover: MMGraph, images, x, cfg: NaturalMapConfig, dists=None):
    """F_s(x): the barycenter of the normalized pushforward of mu_x_s.

    `dists` is x's full distance row (as `mu_x_s` takes it), computed when
    omitted.  Returns (coordinates of F_s(x), info): `info` holds mu's
    atoms (vertex indices) and weights, its pushforward sigma along
    `images`, the tail bound and the solver record.
    """
    atoms, weights, tail = mu_x_s(cover, x, cfg, dists=dists)
    sigma = pushforward_with_fibers(weights, images[atoms])
    res = barycenter(sigma.normalize(), tol=SOLVER_TOL)
    return res.coords, {"atoms": atoms, "weights": weights, "sigma": sigma,
                        "tail_bound": tail, "solver": res}


def local_chart(gram, dim, rank_tol, what):
    """Classical MDS: the top `dim` eigen-coordinates of a Gram matrix.

    Returns the (k, dim) chart positions; raises RankDeficiencyError when
    the dim-th eigenvalue is at most rank_tol times the largest (`what`
    names the points in the message).
    """
    vals, vecs = np.linalg.eigh(gram)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    if vals[dim - 1] <= rank_tol * max(vals[0], 1e-300):
        raise RankDeficiencyError(
            f"{what} spans fewer than {dim} directions (eigenvalues {vals[:dim]})"
        )
    return vecs[:, :dim] * np.sqrt(np.maximum(vals[:dim], 0.0))


def _one_ring(cover: MMGraph, x):
    """The neighbors of x other than x, once each, ordered by str(id)."""
    return sorted(dict.fromkeys(u for u, _ in cover.neighbors(x) if u != x), key=str)


def rows_by_sample(cover: MMGraph, samples):
    """Per sample x, in order, the distance rows of x and of its one-ring
    (in `_one_ring` order) as one (1 + k, n) array: row 0 is x's.

    Consecutive samples are grouped while the distinct vertices among
    them and their one-rings fit in one relaxation (`cover.chunk_rows`
    rows; a sample whose own rows do not fit is a group of its own), and
    each group's distinct rows come from one `distance_rows` call, which
    returns the same floats whatever rows share it.  So a row is relaxed
    once per group, and one group's rows are held at a time.
    """
    group, members = {}, []
    for x in samples:
        verts = [x, *_one_ring(cover, x)]
        fresh = [v for v in verts if v not in group]
        if members and len(group) + len(fresh) > cover.chunk_rows:
            yield from _group_rows(cover, group, members)
            group, members, fresh = {}, [], verts
        for v in fresh:
            group[v] = len(group)
        members.append(verts)
    if members:
        yield from _group_rows(cover, group, members)


def _group_rows(cover: MMGraph, group, members):
    rows = cover.distance_rows(list(group))
    for verts in members:
        yield rows[[group[v] for v in verts]]


def sample_rows(cover: MMGraph, x):
    """The rows of x and of its one-ring: `rows_by_sample` for x alone."""
    return next(rows_by_sample(cover, [x]))


def source_gradients(cover: MMGraph, x, dists, ring, atoms, weights, labels, dim):
    """Per-site discrete gradients G of z -> d(x, .), clipped to unit norm.

    `dists` is x's distance row and `ring` the rows of its one-ring.  Each
    mu atom (vertex index in `atoms`, mu weight in `weights`) contributes
    the least-squares fit of its directional differences d(u, .) - d(x, .)
    over the chart positions of the neighbors u, a chart found by classical
    MDS on the one-ring distances; the atoms sharing a site label are then
    averaged with their mu weights.
    """
    neighbors = [cover.index[u] for u in _one_ring(cover, x)]
    if len(neighbors) < dim:
        raise RankDeficiencyError(
            f"vertex {x!r} has {len(neighbors)} neighbors; chart needs at least {dim}"
        )
    d_x = ring[:, cover.index[x]]
    gram = 0.5 * (d_x[:, None] ** 2 + d_x[None, :] ** 2 - ring[:, neighbors] ** 2)
    M = local_chart(gram, dim, CHART_RANK_TOL, f"one-ring of {x!r}")
    diffs = np.take(ring, atoms, axis=1) - dists[atoms]
    G = (np.linalg.pinv(M) @ diffs).T  # (num mu atoms, dim)
    norms = np.linalg.norm(G, axis=1)
    G /= np.maximum(norms, 1.0)[:, None]
    G_site = np.zeros((labels.max() + 1, dim))
    np.add.at(G_site, labels, weights[:, None] * G)
    G_site /= np.bincount(labels, weights)[:, None]
    norms = np.linalg.norm(G_site, axis=1)
    G_site /= np.maximum(norms, 1.0)[:, None]
    return G_site


@dataclass
class TensorSet:
    """The moment tensors of eta at y = F_s(x), in an orthonormal frame."""

    y: np.ndarray
    frame: np.ndarray
    H: np.ndarray
    K: np.ndarray
    L: np.ndarray
    A: np.ndarray
    B: np.ndarray
    eta_mass: float
    excluded_mass: float
    tail_bound: float

    @property
    def dim(self):
        return self.H.shape[0]


def assemble_tensors(cover: MMGraph, images, x, cfg: NaturalMapConfig,
                     rows=None) -> TensorSet:
    """Build the full tensor set at the natural-map image of x.

    `rows` (`sample_rows(cover, x)`) is computed when omitted.
    """
    dim = images.shape[1] - 1
    if rows is None:
        rows = sample_rows(cover, x)
    dists, ring = rows[0], rows[1:]
    y, info = natural_map_point(cover, images, x, cfg, dists)

    weights = info["sigma"].weights
    rho, logs = hyp.log_many(y, info["sigma"].sites)
    keep = rho >= EXCLUSION_THRESHOLD
    excluded = float(np.sum(weights[~keep]))
    rhok, wk = rho[keep], weights[keep]

    eta_hat = rhok * wk
    eta_mass = float(np.sum(eta_hat))
    eta = eta_hat / eta_mass

    frame = hyp.tangent_frame(y)
    g_unit = -logs[keep] / rhok[:, None]
    g_hat = hyp.frame_coords(frame, g_unit)  # (m, dim), unit rows

    coth = 1.0 / np.tanh(rhok)
    H = (g_hat * eta[:, None]).T @ g_hat
    K = float(np.sum(eta * coth)) * np.eye(dim) - (g_hat * (eta * coth)[:, None]).T @ g_hat
    L = (g_hat * (eta / rhok)[:, None]).T @ g_hat

    G = source_gradients(cover, x, dists, ring, info["atoms"], info["weights"],
                         info["sigma"].labels, dim)[keep]
    A = (g_hat * eta[:, None]).T @ G
    B = (G * eta[:, None]).T @ G
    return TensorSet(
        y=y, frame=frame, H=H, K=K, L=L, A=A, B=B,
        eta_mass=eta_mass, excluded_mass=excluded, tail_bound=info["tail_bound"],
    )


def jacobian_formula(H, K, L, A, s):
    """|det(s * (L + K)^{-1} A)| and the condition number of L + K."""
    LK = L + K
    cond = float(np.linalg.cond(LK))
    if not np.isfinite(cond) or cond > 1e14:
        raise DegeneratePointError(f"L + K numerically singular (cond {cond:.3e})")
    M = s * np.linalg.solve(LK, A)
    return abs(float(np.linalg.det(M))), cond


def cauchy_schwarz_gap(tensors: TensorSet):
    """Minimum eigenvalue of B - A^T H^+ A (>= 0 up to rounding).

    This is the positive-semidefinite form of the bilinear Cauchy-Schwarz
    bound coupling A to H and B; it implies det(A)^2 <= det(H) det(B).
    """
    Hp = np.linalg.pinv(tensors.H, hermitian=True)
    gap = tensors.B - tensors.A.T @ Hp @ tensors.A
    return float(np.min(np.linalg.eigvalsh(0.5 * (gap + gap.T))))


def jacobian_mesh(cover: MMGraph, images, x, r, dists=None):
    """Mesh-scale Jacobian: image hull volume / source hull volume on B(x, r).

    `dists` is x's row of `cover.distances` (entries beyond r may be cut
    off to inf), relaxed up to r when omitted.  The image cloud is charted
    in the tangent space at the image of x, the source cloud by classical
    MDS on its pairwise graph distances; both volumes come from convex
    hulls.  O(r)-accurate at best; NaN when either cloud spans fewer than N
    directions (a rank-deficient ball).
    """
    from scipy.spatial import ConvexHull, QhullError

    center_img = images[cover.index[x]]
    dim = len(center_img) - 1
    ball = cover.distances(x, cutoff=r) if dists is None else dists
    verts = sorted(np.flatnonzero(ball <= r).tolist(),
                   key=lambda i: (ball[i], str(cover.vertices[i])))
    if len(verts) < dim + 1:
        return math.nan
    tangent = hyp.frame_coords(hyp.tangent_frame(center_img),
                               hyp.log_many(center_img, images[verts])[1])
    sing = np.linalg.svd(tangent - tangent.mean(axis=0), compute_uv=False)
    if len(sing) < dim or sing[dim - 1] <= 1e-9 * max(sing[0], 1e-300):
        return math.nan
    # source chart: MDS on pairwise distances within the ball
    pair = cover.distance_rows([cover.vertices[i] for i in verts], cutoff=2.0 * r + 1e-9,
                               columns=verts)
    pair[pair == np.inf] = 2.0 * r
    sq = pair**2
    row = sq.mean(axis=1)
    gram = -0.5 * (sq - row[:, None] - row[None, :] + sq.mean())
    try:
        source = local_chart(gram, dim, 1e-9, "mesh ball")
        vol_img, vol_src = ConvexHull(tangent).volume, ConvexHull(source).volume
    except (RankDeficiencyError, QhullError):
        return math.nan
    return float(vol_img / vol_src) if vol_src > 0 else math.nan


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

@dataclass
class PointRecord:
    """Diagnostics of one (sample point, s) evaluation."""

    x: object
    s: float
    point: np.ndarray
    tensors: TensorSet
    jac_formula: float
    jac_mesh: float
    cond: float
    cs_gap: float
    measure: float = 1.0

    @property
    def trace_H(self):
        return float(np.trace(self.tensors.H))

    @property
    def h_deviation(self):
        n = self.tensors.dim
        return float(np.linalg.norm(self.tensors.H - np.eye(n) / n))

    @property
    def det_K(self):
        return float(np.linalg.det(self.tensors.K))

    @property
    def det_B(self):
        return float(np.linalg.det(self.tensors.B))

    @property
    def min_eig_K_minus_ImH(self):
        t = self.tensors
        n = t.dim
        return float(np.min(np.linalg.eigvalsh(t.K - (np.eye(n) - t.H))))

    def jac_bound(self, h0):
        return (self.s / h0) ** self.tensors.dim


class Gate(NamedTuple):
    """An acceptance gate: a measured value against its threshold.  The
    margin is their distance, negative when the gate fails."""

    name: str
    value: float
    threshold: float
    passed: bool

    @property
    def margin(self):
        gap = abs(self.threshold - self.value)
        return gap if self.passed else -gap


def _at_most(name, value, limit):
    return Gate(name, value, limit, value <= limit)


def gates(record: PointRecord, h0: float):
    """The four tensor gates of one record, in a fixed order."""
    n = record.tensors.dim
    eig = record.min_eig_K_minus_ImH
    return [
        _at_most("trace_H", abs(record.trace_H - 1.0), 1e-8),
        Gate("K_minus_ImH", eig, -1e-8, eig >= -1e-8),
        _at_most("det_B", record.det_B, n**-n * (1 + 1e-6)),
        _at_most("jac_formula", record.jac_formula, record.jac_bound(h0) * (1 + 1e-6)),
    ]


def deck_equivariance(cover: MMGraph, images, deck, rot, records, cfg: NaturalMapConfig):
    """The gate max over `records` of d(F(deck x), rot F(x)) < 1e-6.

    F(x) is each record's point; F(deck x) is solved at the record's s
    (`cfg` gives the rest), from rows of one `distance_rows` call.
    """
    rows = cover.distance_rows([deck[r.x] for r in records])
    worst = 0.0
    for r, row in zip(records, rows):
        fgx, _ = natural_map_point(cover, images, deck[r.x], replace(cfg, s=r.s), row)
        worst = max(worst, float(hyp.dist(fgx, hyp.project_to_sheet(rot @ r.point))))
    return Gate("deck_equivariance", worst, 1e-6, worst < 1e-6)


def worst_gates(tables):
    """Per gate name over lists of Gates: the threshold, value and margin
    of the least-margin entry, and whether every entry passed."""
    by_name = {}
    for gate in (g for table in tables for g in table):
        by_name.setdefault(gate.name, []).append(gate)
    out = {}
    for name, entries in by_name.items():
        worst = min(entries, key=lambda g: g.margin)
        out[name] = {"threshold": worst.threshold, "worst": worst.value,
                     "margin": worst.margin, "passed": all(g.passed for g in entries)}
    return out


@dataclass
class NaturalMapRun:
    """All point records of a run, its s values in order, and the measures
    that scale their quadrature."""

    records: list
    s_values: list
    total_measure: float
    sample_measure: float

    def for_s(self, s):
        """The records at `s`, in sample order."""
        return [r for r in self.records if r.s == s]


def run_natural_map(cover: MMGraph, images, base_cfg: NaturalMapConfig,
                    sample_points, s_values=None, mesh_radius=None) -> NaturalMapRun:
    """Evaluate the pipeline at each sample point for each s.

    Before the first sample, every s is checked against the floor and the
    s values to be distinct.  The rows of the samples and their one-rings
    come from `rows_by_sample`, one relaxation for as many samples as fit
    in one.  Per sample point, its rows and the mesh Jacobian, a function
    of (x, mesh_radius) alone that reads x's row from them, are shared
    across the s grid.
    """
    s_values = list(s_values) if s_values is not None else [base_cfg.s]
    cfgs = [replace(base_cfg, s=s) for s in s_values]
    if len(set(s_values)) < len(s_values):
        raise ConfigurationError(f"s_values must be distinct, not {s_values}")
    sample_points = list(sample_points)
    records = []
    sample_measure = 0.0
    for x, rows in zip(sample_points, rows_by_sample(cover, sample_points)):
        measure = float(cover.measure[cover.index[x]])
        sample_measure += measure
        jm = (math.nan if mesh_radius is None
              else jacobian_mesh(cover, images, x, mesh_radius, dists=rows[0]))
        for cfg in cfgs:
            tensors = assemble_tensors(cover, images, x, cfg, rows=rows)
            jac, cond = jacobian_formula(tensors.H, tensors.K, tensors.L, tensors.A, cfg.s)
            records.append(PointRecord(
                x=x, s=cfg.s, point=tensors.y, tensors=tensors,
                jac_formula=jac, jac_mesh=jm,
                cond=cond, cs_gap=cauchy_schwarz_gap(tensors), measure=measure,
            ))
    return NaturalMapRun(
        records=records,
        s_values=s_values,
        total_measure=cover.total_measure,
        sample_measure=sample_measure,
    )


def entropy_volume_report(run: NaturalMapRun, h0: float):
    """Quadrature of the Jacobian against the bound (s/h0)^N * m(X).

    Returns one dict per s value: the sample-quadrature integral, the
    bound, their gap, the worst pointwise bound violation, and the
    H -> I/N monitor value max_x |H - I/N|_F.
    """
    out = []
    for s in run.s_values:
        recs = run.for_s(s)
        n = recs[0].tensors.dim
        scale = run.total_measure / run.sample_measure
        integral = scale * sum(r.jac_formula * r.measure for r in recs)
        bound = (s / h0) ** n * run.total_measure
        per_point_bound = (s / h0) ** n
        worst = max(r.jac_formula - per_point_bound for r in recs)
        out.append({
            "s": s,
            "integral_jac": integral,
            "bound": bound,
            "gap": bound - integral,
            "max_pointwise_violation": worst,
            "h_monitor": max(r.h_deviation for r in recs),
            "records": len(recs),
        })
    return out
