"""Exact Wasserstein-1 transport between discrete measures on H^3.

Run:  python3 demos/demo_transport.py
"""

import numpy as np
from scipy.optimize import linprog

from barylab import hyperboloid as hyp
from barylab.measures import DiscreteMeasure
from barylab.transport import wasserstein1

rng = np.random.default_rng(1)


def metric(a, b):
    return float(hyp.dist(a, b))


print("== exact optimum via the transportation simplex ==")
mu = DiscreteMeasure.from_points(
    np.array([hyp.random_point(rng, 3, 1.5) for _ in range(5)]),
    np.array([2.0, 1.0, 1.0, 1.0, 1.0]))
nu = DiscreteMeasure.from_points(
    np.array([hyp.random_point(rng, 3, 1.5) for _ in range(4)]),
    np.array([3.0, 1.0, 1.0, 1.0]))
value, plan = wasserstein1(mu, nu, metric=metric)
print(f"W1 = {value:.6f} with {len(plan.flows)} flows")
plan.validate(mu, nu)
print("plan marginals match both measures")
cost = np.array([[metric(s, t) for t in nu.sites] for s in mu.sites])
# the same transport problem as a linear program over the n x m flows:
# row sums are mu's weights, column sums nu's
n, m = cost.shape
marginals = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
lp = linprog(cost.ravel(), A_eq=marginals, b_eq=np.concatenate([mu.weights, nu.weights]),
             bounds=(0, None), method="highs")
print(f"HiGHS linear program agrees: {lp.fun:.6f} (gap {abs(value - lp.fun):.1e})")

print()
print("== pushforward contraction ==")
center = hyp.basepoint(3)
t = 0.5


def contract(site):
    return hyp.exp(center, t * hyp.log(center, site))


mu_n, nu_n = mu.normalize(), nu.normalize()
before, _ = wasserstein1(mu_n, nu_n, metric=metric)
after, _ = wasserstein1(mu_n.pushforward(contract), nu_n.pushforward(contract),
                        metric=metric)
print(f"geodesic contraction toward the basepoint with factor {t}:")
print(f"  W1 before {before:.4f}, after {after:.4f} "
      f"(<= {t} * before = {t * before:.4f}: strictly contracted in H^3)")
