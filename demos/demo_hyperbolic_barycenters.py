"""Walk through the hyperboloid geometry layer and d^2-barycenters.

Run:  python3 demos/demo_hyperbolic_barycenters.py
"""

import numpy as np

from barylab import hyperboloid as hyp
from barylab.barycenter import barycenter, psi_homotopy
from barylab.measures import DiscreteMeasure
from barylab.transport import wasserstein1

rng = np.random.default_rng(0)

print("== points, geodesics, and the distance Hessian ==")
p = hyp.random_point(rng, 3, radius=1.0)
q = hyp.random_point(rng, 3, radius=1.0)
d = hyp.dist(p, q)
print(f"two random points of H^3 at distance {d:.4f}")
mid = hyp.exp(p, 0.5 * hyp.log(p, q))
print(f"midpoint check: d(p, m) = {hyp.dist(p, mid):.6f} = d(m, q) = {hyp.dist(mid, q):.6f}")
m, _ = hyp.hess_dist_matrix(p, q)
eig = np.sort(np.linalg.eigvalsh(m))
print(f"Hessian of d(., q) at p has spectrum {np.round(eig, 4)}"
      f" = (0, coth d, coth d) with coth d = {1/np.tanh(d):.4f}")

print()
print("== barycenters: uniqueness, contraction, equivariance ==")
pts = np.array([hyp.random_point(rng, 3, 1.2) for _ in range(12)])
nu = DiscreteMeasure.from_points(pts).normalize()
res = barycenter(nu)
print(f"12-atom measure: barycenter after {res.iterations} iterations, "
      f"gradient norm {res.gradient_norm:.2e}")

restarts = [barycenter(nu, initial=hyp.random_point(rng, 3, 2.0)).coords
            for _ in range(5)]
spread = max(hyp.dist(restarts[0], r) for r in restarts[1:])
print(f"5 random restarts agree to {spread:.2e} (uniform convexity)")

mu = DiscreteMeasure.from_points(
    np.array([hyp.random_point(rng, 3, 1.2) for _ in range(8)])).normalize()
w1, _ = wasserstein1(mu, nu, metric=lambda a, b: float(hyp.dist(a, b)))
d_bary = hyp.dist(barycenter(mu).coords, res.coords)
print(f"barycenters move by {d_bary:.4f} <= W1 distance {w1:.4f} (1-Lipschitz)")

g = hyp.random_isometry(rng, 3)
moved = nu.pushforward(lambda s: hyp.project_to_sheet(g @ s))
dev = hyp.dist(barycenter(moved).coords, hyp.project_to_sheet(g @ res.coords))
print(f"equivariance under a random isometry: deviation {dev:.2e}")

print()
print("== the barycentric homotopy ==")
fx = hyp.random_point(rng, 3, 1.0)
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    pt = psi_homotopy(t, fx, nu)
    print(f"  t = {t:4.2f}: distance to the t=1 endpoint"
          f" {hyp.dist(pt, fx):.4f}")
print("t=0 is the plain barycenter, t=1 is the map value itself")
