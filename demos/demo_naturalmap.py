"""The natural-map pipeline end to end on a rotation-symmetric ball net.

Builds the exponentially weighted measures, pushes them into H^3, takes
barycenters, assembles the moment tensors, and checks the Jacobian bound
chain.  The net's points come as one array `images` whose row i is the
image of vertex g.vertices[i].  Run:  python3 demos/demo_naturalmap.py
"""

import numpy as np

from barylab import graphs, hyperboloid as hyp
from barylab.mmgraph import volume_entropy
from barylab.naturalmap import (
    NaturalMapConfig,
    deck_equivariance,
    entropy_volume_report,
    run_natural_map,
)

rng = np.random.default_rng(7)
print("building a rotation-symmetric epsilon-net of a ball in H^3 ...")
g, images, deck, rot = graphs.rotation_symmetric_net(
    rng, order=4, n=3, radius=1.8, spacing=0.33)
print(f"{g.n} vertices, {len(g.edges)} edges, 4-fold rotational deck action")

center = g.vertices[int(np.argmin(hyp.dist_many(hyp.basepoint(3), images)))]
est = volume_entropy(g, center, 0.8, 1.6, step=0.2)
print(f"entropy window estimate: h = {est.h:.3f} (residual {est.residual:.3f});"
      f" the ambient growth rate of H^3 is N - 1 = 2")

s_values = [round(f * est.h, 3) for f in (1.15, 1.5, 2.0)]
cfg = NaturalMapConfig(s=s_values[0], truncation_radius=3.0, h_estimate=est.h,
                       h_residual=est.residual, tail_tolerance=10.0)

d0 = g.dijkstra(center)
samples = sorted(g.vertices, key=lambda v: (d0[v], str(v)))[:6]
run = run_natural_map(g, images, cfg, samples, s_values=s_values)

print()
print("per-point tensor diagnostics (first sample, each s):")
for r in run.records[:3]:
    print(f"  s = {r.s:.3f}: trace H = {r.trace_H:.12f}, "
          f"|H - I/3| = {r.h_deviation:.4f}, "
          f"min eig K - (I - H) = {r.min_eig_K_minus_ImH:.3f}, "
          f"det B = {r.det_B:.4f} <= 3^-3 = {3**-3:.4f}")
    print(f"             jac = {r.jac_formula:.4f} <= (s/2)^3 = {r.jac_bound(2):.4f}")

report = entropy_volume_report(run, h0=2.0)
print()
print("entropy-volume comparison per s (integral vs (s/h0)^N * m(X)):")
for row in report:
    print(f"  s = {row['s']:.3f}: integral {row['integral_jac']:.1f} <= "
          f"bound {row['bound']:.1f}, worst pointwise slack "
          f"{-row['max_pointwise_violation']:.3f}, H-monitor {row['h_monitor']:.4f}")
print("the H-monitor (max |H - I/3|) shrinks as s decreases toward the")
print("growth rate: the direction distribution rounds out")

print()
print("deck equivariance of the pipeline:")
gate = deck_equivariance(g, images, deck, rot, run.for_s(s_values[0])[:1], cfg)
print(f"  F_s(deck x) vs rot F_s(x): deviation {gate.value:.2e}")

