"""Real hyperbolic space H^n in the hyperboloid (Lorentz) model.

A point of H^n is an (n+1,) float array on the upper sheet of
{x : <x,x>_M = -1} in Minkowski space R^{n,1} with signature (-,+,...,+);
a tangent vector at p is an (n+1,) array Minkowski-orthogonal to p, and a
Lorentz isometry an (n+1, n+1) matrix acting on points by `g @ p`.
Functions take and return such arrays and broadcast over leading axes
where noted.  Distances, geodesics, exponential and logarithm maps and the
gradient and Hessian of the distance function are closed-form; every
operation re-projects its output so the sheet constraint drifts by less
than ~1e-15 per call.  `check_point` validates points that enter from
outside (JSON measures and embeddings).

The distance is the primitive: every log map (`log`, `log_many`,
`grad_dist`, `hess_dist_matrix`) is built from d(p, q), computed once.
`log_many(p, Q)` returns that distance row with the logs, as (d, V), and
its d is `dist_many(p, Q)` bit for bit, so a caller that needs both (the
barycenter's Armijo test and its next direction) evaluates the kernel
once.

The Minkowski product is the one kernel under every distance, log,
exponential and projection.  It sums the spatial products column by
column instead of calling numpy's `.sum(axis=-1)`, a reduction that costs
about 5x more on (m, 4) arrays.  It still returns the reduction's floats:
numpy adds fewer than 8 terms one after another, left to right, so for
n <= 7 the sequence ((0.0 + p1) + p2) + ... + pn is its sum bit for bit.
The +0.0 start matters only when every spatial product is a zero: +0.0 +
(-0.0) is +0.0, as the reduction gives, where a -0.0 start would keep the
sign of an all -0.0 row.  Subtracting p0 equals adding -(u0 v0), since
rounding is symmetric.  For n >= 8 numpy sums in pairwise blocks of 8,
and the two can differ in the last bits (within (n+1) 2^-52 sum |p_i|).

The dimension n >= 2 is a runtime parameter (the length of a coordinate
vector is n+1).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateGradientError,
    InvalidPointError,
    SingularHessianError,
)


SHEET_TOL = 1e-10            # |<x,x>_M + 1| on points
ILL_CONDITIONED_TOL = 1e-9   # -<p,q>_M may not drop below 1 - this
COINCIDENT_TOL = 1e-12       # points closer than this are "equal" for grad/hess


def minkowski_dot(u, v):
    """Minkowski inner product -u0*v0 + sum_i ui*vi (broadcasts over rows).

    The products are summed column by column, left to right from +0.0,
    and the time product is subtracted last (see the module docstring).
    """
    p = np.asarray(u, dtype=float) * np.asarray(v, dtype=float)
    s = 0.0
    for i in range(1, p.shape[-1]):
        s = s + p[..., i]
    return s - p[..., 0]


def project_to_sheet(x):
    """Rescale onto the unit hyperboloid, flipping to the upper sheet."""
    x = np.asarray(x, dtype=float)
    nrm = -minkowski_dot(x, x)
    if (nrm <= 0).any():
        raise InvalidPointError("coordinates are not timelike; cannot project to sheet")
    y = x / np.sqrt(nrm)[..., None]
    if y.ndim == 1:
        return y if y[0] > 0 else -y
    sign = np.where(y[..., 0] > 0, 1.0, -1.0)
    return y * sign[..., None]


def check_point(x):
    """Validate point(s) on the last axis: |<x,x>_M + 1| <= SHEET_TOL and
    x0 > 0, so NaN and empty coordinate vectors fail.  Returns the array."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise InvalidPointError("a point of H^n needs n+1 coordinates, not none")
    err = np.abs(minkowski_dot(x, x) + 1.0)
    if not ((err <= SHEET_TOL).all() and (x[..., 0] > 0).all()):
        raise InvalidPointError(
            f"point violates hyperboloid constraint (max error {float(np.max(err)):.3e})"
        )
    return x


def tangent_project(p, v):
    """Project an ambient vector onto the tangent space at p."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    return v + minkowski_dot(p, v)[..., None] * p


def basepoint(n):
    """The point (1, 0, ..., 0) of H^n."""
    o = np.zeros(n + 1)
    o[0] = 1.0
    return o


def _dist(p, q):
    """d = 2*asinh(|q-p|_M / 2); shapes broadcast.

    Exact on the hyperboloid, and free of the cancellation of
    acosh(-<p,q>_M) near zero.  On the sheet |q-p|_M^2 = 2(-<p,q>_M - 1),
    so the inputs are off the sheet when it drops below
    -2 * ILL_CONDITIONED_TOL.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    diff = q - p
    chord_sq = minkowski_dot(diff, diff)
    if (chord_sq < -2.0 * ILL_CONDITIONED_TOL).any():
        raise InvalidPointError(
            f"-<p,q>_M = {1.0 + 0.5 * float(np.min(chord_sq)):.12f} < 1; "
            "inputs are off the sheet"
        )
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(chord_sq, 0.0)))


def _log_from_dist(p, q, d):
    """log_p(q) given d = d(p, q); shapes broadcast."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mu = -minkowski_dot(p, q)
    # d / sinh(d) from the chord distance (sqrt(mu^2 - 1) loses its digits
    # where mu rounds to 1 + ulp); 1 where d is 0
    tiny = d < 1e-300
    if tiny.any():
        factor = np.where(tiny, 1.0, d / np.sinh(np.where(tiny, 1.0, d)))
    else:
        factor = d / np.sinh(d)
    return tangent_project(p, factor[..., None] * (q - mu[..., None] * p))


def dist(p, q):
    """Geodesic distance; shapes broadcast."""
    return _dist(p, q)


def dist_many(p, Q):
    """Distance from p to each row of Q."""
    return _dist(p, np.atleast_2d(Q))


def exp(p, v):
    """Geodesic starting at p with initial velocity v, evaluated at time 1."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    theta = np.sqrt(np.maximum(minkowski_dot(v, v), 0.0))
    if np.ndim(theta) == 0:
        if theta < 1e-300:
            return p.copy()
        out = math.cosh(theta) * p + (math.sinh(theta) / theta) * v
        return project_to_sheet(out)
    safe = np.where(theta < 1e-300, 1.0, theta)
    out = np.cosh(theta)[..., None] * p + (np.sinh(safe) / safe)[..., None] * v
    return project_to_sheet(out)


def _dist_log(p, q):
    """(d(p, q), log_p(q)) from the two pieces above."""
    d = _dist(p, q)
    return d, _log_from_dist(p, q, d)


def log(p, q):
    """Tangent vector at p whose exponential is q; |log(p,q)|_M = dist(p,q)."""
    d, v = _dist_log(p, q)
    if np.ndim(d) == 0 and d < 1e-300:
        return np.zeros_like(v)
    return v


def log_many(p, Q):
    """Distances and log maps from p to each row of Q: (d, V) of shapes
    (m,) and (m, n+1).  d is `dist_many(p, Q)` itself, bit for bit."""
    Q = np.atleast_2d(Q)
    d = dist_many(p, Q)
    return d, _log_from_dist(p, Q, d)


def tangent_frame(p):
    """Deterministic Minkowski-orthonormal basis of T_p H^n, shape (n, n+1).

    Gram-Schmidt of the spatial coordinate axes projected to the tangent
    space; always full rank because projection only kills the p direction.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[-1] - 1
    frame = []
    for i in range(1, n + 1):
        e = np.zeros(n + 1)
        e[i] = 1.0
        u = tangent_project(p, e)
        for f in frame:
            u = u - minkowski_dot(u, f) * f
        nrm = math.sqrt(max(minkowski_dot(u, u), 0.0))
        if nrm < 1e-12:
            raise InvalidPointError("degenerate tangent frame; point far off the sheet?")
        frame.append(u / nrm)
    return np.array(frame)


def grad_dist(y, z):
    """Unit tangent at y pointing away from z (the gradient of d(., z))."""
    d, v = _dist_log(y, z)
    if d < COINCIDENT_TOL:
        raise DegenerateGradientError("gradient of distance undefined at coincident points")
    return -v / d


def hess_dist_matrix(y, z, frame=None):
    """Hessian of d(., z) at y as an (n, n) matrix in an orthonormal frame.

    In curvature -1 the Hessian is coth(d) * (I - g g^T) where g is the unit
    radial direction: eigenvalue 0 along g, coth(d) on its orthocomplement.
    Returns (matrix, frame).
    """
    d, v = _dist_log(y, z)
    if d < COINCIDENT_TOL:
        raise SingularHessianError("Hessian of distance singular at coincident points")
    if frame is None:
        frame = tangent_frame(np.asarray(y, dtype=float))
    g = -v / d
    g_cof = frame @ (_j_matrix(frame.shape[1] - 1) @ g)
    n = frame.shape[0]
    coth = 1.0 / math.tanh(d)
    return coth * (np.eye(n) - np.outer(g_cof, g_cof)), frame


def _j_matrix(n):
    j = np.eye(n + 1)
    j[0, 0] = -1.0
    return j


def frame_coords(frame, v):
    """Coordinates of tangent vector(s) v in a Minkowski-orthonormal frame."""
    J = _j_matrix(frame.shape[1] - 1)
    return np.asarray(v, dtype=float) @ (J @ frame.T)


def random_point(rng, n, radius=1.0):
    """Point at a uniform-direction, uniform-radius position within `radius` of the basepoint."""
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    t = radius * rng.uniform()
    v = np.zeros(n + 1)
    v[1:] = t * u
    return exp(basepoint(n), v)


def random_isometry(rng, n, spread=1.0):
    """Haar-ish random Lorentz matrix preserving the upper sheet.

    Minkowski Gram-Schmidt applied to a random timelike first column and
    random Gaussian spatial columns.
    """
    s = spread * rng.normal(size=n)
    cols = [np.concatenate(([math.sqrt(1.0 + float(s @ s))], s))]
    signs = [-1.0]
    while len(cols) < n + 1:
        u = rng.normal(size=n + 1)
        for c, sg in zip(cols, signs):
            u = u - sg * minkowski_dot(u, c) * c
        nrm_sq = minkowski_dot(u, u)
        if nrm_sq < 1e-10:
            continue
        cols.append(u / math.sqrt(nrm_sq))
        signs.append(1.0)
    return np.column_stack(cols)


def boost(t, n, axis=1):
    """Lorentz boost of rapidity t along a spatial axis."""
    m = np.eye(n + 1)
    m[0, 0] = m[axis, axis] = math.cosh(t)
    m[0, axis] = m[axis, 0] = math.sinh(t)
    return m


def rotation(theta, n, i=1, j=2):
    """Rotation by theta in the (x_i, x_j) spatial plane."""
    m = np.eye(n + 1)
    m[i, i] = m[j, j] = math.cos(theta)
    m[i, j] = -math.sin(theta)
    m[j, i] = math.sin(theta)
    return m
