"""d^2-barycenters (Frechet means) of discrete measures on H^n.

The mean minimizes F(y) = sum_i w_i d(y, z_i)^2, which is 2-strongly convex
along geodesics in H^n, so Riemannian gradient descent with Armijo
backtracking converges linearly (Sturm's CAT(0) barycenter theory
guarantees existence, uniqueness and basepoint independence).  The descent
direction is the weighted mean of log maps; steps are capped at 0.5 to stay
well inside the chart arithmetic's comfortable range.

Each trial point costs one kernel evaluation, `hyperboloid.log_many`: its
distances give F for the Armijo test, and its logs become the next
descent direction when the trial is accepted, so an accepted iterate is
never evaluated twice.  The reported objective is the accepted trial's F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hyperboloid as hyp
from .errors import EmptyMeasureError, InvalidPointError, SolverFailureError
from .measures import DiscreteMeasure

DEFAULT_TOL = 1e-9
MAX_ITER = 10_000
STEP_CAP = 0.5
ARMIJO_C1 = 1e-4


@dataclass(frozen=True)
class BarycenterResult:
    """Solver output: the mean's coordinates, gradient norm at exit, and
    diagnostics.

    `gradient_norm` and `objective` refer to the unnormalized functional
    integral of d(y, .)^2 against the input measure; on success
    gradient_norm <= tol * total_mass.
    """

    coords: np.ndarray
    gradient_norm: float
    iterations: int
    objective: float


def _measure_points(nu: DiscreteMeasure):
    if nu.is_zero:
        raise EmptyMeasureError("barycenter of a zero measure")
    if not isinstance(nu.sites, np.ndarray):
        raise InvalidPointError("barycenter needs a measure on points of H^n, not vertex ids")
    return nu.sites, nu.weights / nu.total_mass


def objective(nu: DiscreteMeasure, y, basepoint=None):
    """F(y) = integral of d(z, y)^2 dnu(z), optionally with the basepoint
    correction -d(o, z)^2 under the integral (which shifts F by a constant)."""
    pts, _ = _measure_points(nu)
    d = hyp.dist_many(np.asarray(y, dtype=float), pts)
    val = float(np.sum(nu.weights * d * d))
    if basepoint is not None:
        d0 = hyp.dist_many(np.asarray(basepoint, dtype=float), pts)
        val -= float(np.sum(nu.weights * d0 * d0))
    return val


def barycenter(nu: DiscreteMeasure, tol: float = DEFAULT_TOL,
               max_iter: int = MAX_ITER, initial=None) -> BarycenterResult:
    """Unique minimizer of the average squared distance to `nu`.

    Parameters
    ----------
    nu : measure whose sites are points of H^n (a coordinate array);
        zero-weight atoms are dropped by construction.
    tol : success threshold on the gradient norm of the mass-normalized
        objective (equivalently tol * mass for the unnormalized one).
    initial : optional starting coordinates; defaults to the Minkowski
        weighted mean re-projected to the sheet.
    """
    pts, w = _measure_points(nu)
    mass = nu.total_mass
    if len(pts) == 1:
        return BarycenterResult(pts[0], 0.0, 0, 0.0)

    if initial is None:
        y = hyp.project_to_sheet(w @ pts)
    else:
        y = hyp.project_to_sheet(np.asarray(initial, dtype=float))

    def evaluate(pt):
        # one kernel evaluation: F(pt) for the Armijo test and the logs
        # that become the next direction if pt is accepted
        d, logs = hyp.log_many(pt, pts)
        return float(np.sum(w * d * d)), logs

    fy, logs = evaluate(y)
    for it in range(1, max_iter + 1):
        v = w @ logs  # equals -grad/2 of the normalized objective
        vnorm = math.sqrt(max(hyp.minkowski_dot(v, v), 0.0))
        grad_norm = 2.0 * vnorm
        if grad_norm <= tol:
            return BarycenterResult(y, grad_norm * mass, it - 1, fy * mass)
        t = min(1.0, STEP_CAP / vnorm)
        decrease = 2.0 * vnorm * vnorm  # = -<grad, v>
        if decrease <= 1e-13 * max(1.0, abs(fy)):
            # expected decrease is below the float noise of F: the Armijo
            # test is meaningless, but the plain Karcher step (t=1) is a
            # local contraction for this 2-strongly convex objective
            y = hyp.exp(y, t * v)
            fy, logs = evaluate(y)
            continue
        accepted = False
        for _ in range(60):
            y_new = hyp.exp(y, t * v)
            fy_new, logs_new = evaluate(y_new)
            if fy_new <= fy - ARMIJO_C1 * t * decrease:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        y, fy, logs = y_new, fy_new, logs_new

    v = w @ logs
    grad_norm = 2.0 * math.sqrt(max(hyp.minkowski_dot(v, v), 0.0))
    best = BarycenterResult(y, grad_norm * mass, max_iter, fy * mass)
    if grad_norm <= tol:
        return best
    raise SolverFailureError(
        f"barycenter solver stalled at gradient norm {grad_norm:.3e} (tol {tol:.3e})",
        best=best,
        gradient_norm=grad_norm,
        iterations=max_iter,
    )

