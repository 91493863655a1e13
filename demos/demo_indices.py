"""Preimage counts, analytic degree, Stallings foldings, and the coarea
identity on small fixtures.

Run:  python3 demos/demo_indices.py
"""

import numpy as np

from barylab.indices import (
    SimplicialMap,
    coarea_check,
    fold_words,
    ind_H_degree,
    pre_count,
    stallings_index,
)
from barylab import fixtures as ifx

print("== preimage counting and degree on covers ==")
for k in (1, 2, 3):
    cover = ifx.torus_cover_map(k)
    print(f"  {k}-sheeted torus cover: pre = {pre_count(cover, 150, rng=k):.1f}, "
          f"ind_H = {ind_H_degree(cover, rng=k)}, "
          f"ind_pi (free-group model) = "
          f"{stallings_index(ifx.cyclic_cover_subgroup(k), 2)}")

refl = ifx.octahedron_reflection()
lam = np.array([0.3, 0.3, 0.4])
from barylab.indices import pointwise_degree

print(f"  orientation-reversing sphere reflection: deg = "
      f"{pointwise_degree(refl, 0, lam)}, ind_H = |deg| = {ind_H_degree(refl, rng=1)}")

wrap = ifx.sphere_double_wrap()
print(f"  equator double wrap of the sphere: pre = {pre_count(wrap, 200, rng=2):.1f}, "
      f"ind_H = {ind_H_degree(wrap, rng=2)}, while ind_pi = 1 "
      f"(homological index can exceed the fundamental one)")

print()
print("== Stallings foldings ==")
gens = ["aa", "b", "abA"]
core = fold_words(gens, 2)
print(f"  <a^2, b, aba^-1> in F(a,b): core graph has {len(core.vertices)} "
      f"vertices, complete: {core.is_complete} -> index {stallings_index(gens, 2)}")
print(f"  <a> in F(a,b): index {stallings_index(['a'], 2)} (infinite, by convention 0)")
print(f"  <a, b> : index {stallings_index(['a', 'b'], 2)} (the whole group)")
member = core.reads_word([(0, 1), (0, 1), (1, 1)])  # a a b
print(f"  membership of a^2 b via the core graph: {member}")

print()
print("== the coarea identity ==")
sphere = ifx.octahedron()
ident = SimplicialMap(sphere, sphere, {v: v for v in sphere.vertices})
r = coarea_check(ident, samples=5000, rng=0)
print(f"  identity: LHS {r['lhs']:.4f} = RHS {r['rhs']:.4f} "
      f"(gap {r['relative_gap']:.1e})")
r = coarea_check(ifx.torus_cover_map(2), samples=5000, rng=0)
print(f"  2-sheeted cover: LHS {r['lhs']:.4f} vs RHS {r['rhs']:.4f} "
      f"= twice the target volume")
plm = ifx.jittered_pl_map(6, amplitude=0.9, rng=5)
r = coarea_check(plm, samples=50_000, rng=6)
print(f"  random PL map (with folds): LHS {r['lhs']:.4f} vs Monte-Carlo RHS "
      f"{r['rhs']:.4f}, gap {r['relative_gap']:.2%}")
