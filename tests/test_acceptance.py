"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion (lines are also shown on failure without -s).
"""

import json
import math
import time

import numpy as np
import pytest

from barylab import graphs, hyperboloid as hyp
from barylab.barycenter import barycenter
from barylab.bcg import SpectralInput, bcg_bound, bcg_ratio, bcg_scan, canonical_structures
from barylab.indices import coarea_check, fold_words, ind_H_degree, pre_count, stallings_index
from barylab import fixtures as ifx
from barylab.measures import DiscreteMeasure
from barylab.mmgraph import volume_entropy
from barylab.naturalmap import (
    NaturalMapConfig,
    deck_equivariance,
    gates,
    run_natural_map,
    worst_gates,
)
from barylab.transport import wasserstein1

from oracles import (
    brute_force_w1,
    grid_barycenter_objective,
    hyperbolic_metric,
    subgroup_index_by_coset_tables,
)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_measure(rng, k, radius=1.2):
    pts = np.array([hyp.random_point(rng, 3, radius) for _ in range(k)])
    return DiscreteMeasure.from_points(pts, rng.uniform(0.2, 1.0, size=k))


# ---------------------------------------------------------------------------
# 1. barycenter correctness
# ---------------------------------------------------------------------------

def test_acceptance_1_barycenter_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_closed_form = 0.0
    # Dirac
    p = hyp.random_point(rng, 3, 1.0)
    res = barycenter(DiscreteMeasure.from_points(p[None, :]))
    worst_closed_form = max(worst_closed_form, float(hyp.dist(res.coords, p)))
    # two-point midpoint
    for _ in range(5):
        a, b = hyp.random_point(rng, 3, 1.5), hyp.random_point(rng, 3, 1.5)
        mid = hyp.exp(a, 0.5 * hyp.log(a, b))
        nu = DiscreteMeasure.from_points(np.array([a, b]), np.array([0.5, 0.5]))
        worst_closed_form = max(worst_closed_form,
                                float(hyp.dist(barycenter(nu).coords, mid)))
    # rotational symmetry about the basepoint of H^2
    rot = hyp.rotation(2 * math.pi / 3, 2)
    q = hyp.random_point(rng, 2, 1.2)
    orbit = np.array([q, hyp.project_to_sheet(rot @ q),
                      hyp.project_to_sheet(rot @ rot @ q)])
    res = barycenter(DiscreteMeasure.from_points(orbit))
    worst_closed_form = max(worst_closed_form,
                            float(hyp.dist(res.coords, hyp.basepoint(2))))
    # grid oracle on 50 random 20-atom measures
    worst_gap = 0.0
    for trial in range(50):
        rng_t = np.random.default_rng(2000 + trial)
        nu = random_measure(rng_t, 20).normalize()
        res = barycenter(nu)
        oracle_val, _ = grid_barycenter_objective(nu)
        worst_gap = max(worst_gap, abs(res.objective - oracle_val))
    elapsed = time.monotonic() - t0
    ok = worst_closed_form < 1e-7 and worst_gap < 1e-6 and elapsed < 10.0
    report(1, ok, f"closed-form err {worst_closed_form:.2e} (tol 1e-7), "
                  f"grid-oracle objective gap {worst_gap:.2e} (tol 1e-6), "
                  f"{elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 2. barycenter is 1-Lipschitz in W1
# ---------------------------------------------------------------------------

def test_acceptance_2_barycenter_lipschitz():
    t0 = time.monotonic()
    violations = 0
    worst = -np.inf
    for trial in range(1000):
        rng = np.random.default_rng(3000 + trial)
        mu = random_measure(rng, int(rng.integers(2, 7))).normalize()
        nu = random_measure(rng, int(rng.integers(2, 7))).normalize()
        d_bary = float(hyp.dist(barycenter(mu).coords, barycenter(nu).coords))
        w1, _ = wasserstein1(mu, nu, metric=hyperbolic_metric)
        ratio = d_bary / max(w1, 1e-300)
        worst = max(worst, ratio)
        if d_bary > w1 * (1 + 1e-6) + 2e-9:
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 120.0
    report(2, ok, f"1000 pairs, {violations} violations at tolerance 1+1e-6, "
                  f"worst ratio {worst:.6f}, {elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# 3. equivariance
# ---------------------------------------------------------------------------

def test_acceptance_3_equivariance():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(4000 + trial)
        nu = random_measure(rng, int(rng.integers(3, 9))).normalize()
        g = hyp.random_isometry(rng, 3)

        def act(site):
            return hyp.project_to_sheet(g @ site)

        lhs = barycenter(nu.pushforward(act)).coords
        rhs = hyp.project_to_sheet(g @ barycenter(nu).coords)
        worst = max(worst, float(hyp.dist(lhs, rhs)))
    ok = worst < 1e-7
    report(3, ok, f"100 isometry/measure pairs, max deviation {worst:.2e} (tol 1e-7)")


# ---------------------------------------------------------------------------
# 4. Wasserstein exactness against the assignment-enumeration oracle
# ---------------------------------------------------------------------------

def test_acceptance_4_wasserstein_exactness():
    worst = 0.0
    for trial in range(1000):
        rng = np.random.default_rng(5000 + trial)
        units = 6
        ka, kb = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        pa = np.array([hyp.random_point(rng, 3, 1.6) for _ in range(ka)])
        pb = np.array([hyp.random_point(rng, 3, 1.6) for _ in range(kb)])
        wa = np.bincount(rng.integers(0, ka, size=units), minlength=ka).astype(float)
        wb = np.bincount(rng.integers(0, kb, size=units), minlength=kb).astype(float)
        mu = DiscreteMeasure.from_points(pa, wa)
        nu = DiscreteMeasure.from_points(pb, wb)
        cost = np.array([[hyperbolic_metric(s, t) for t in nu.sites] for s in mu.sites])
        value, plan = wasserstein1(mu, nu, cost=cost)
        oracle = brute_force_w1(mu, nu, cost)
        worst = max(worst, abs(value - oracle))
        plan.validate(mu, nu)
    ok = worst < 1e-9
    report(4, ok, f"1000 instances vs assignment enumeration, "
                  f"max |simplex - oracle| = {worst:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 5. volume entropy
# ---------------------------------------------------------------------------

def test_acceptance_5_entropy():
    t0 = time.monotonic()
    g3 = graphs.regular_tree(3, 14)
    est3 = volume_entropy(g3, 0, 4, 12)
    err3 = abs(est3.h - math.log(2)) / math.log(2)
    g4 = graphs.regular_tree(4, 10)
    est4 = volume_entropy(g4, 0, 3, 9)
    err4 = abs(est4.h - math.log(3)) / math.log(3)
    path = graphs.path_graph(200)
    est_path = volume_entropy(path, 100, 10, 60)
    # basepoint independence: vertices within depth 2 of the root see exact
    # infinite-tree ball counts in this truncation
    rng = np.random.default_rng(6000)
    shallow = [v for v in g3.dijkstra(0, cutoff=2)]
    picks = rng.choice(shallow, size=5, replace=False)
    ests = [volume_entropy(g3, int(v), 4, 12) for v in picks]
    bp_dev = max(abs(e.h - ests[0].h) for e in ests)
    bp_tol = 2 * max(e.residual for e in ests)
    elapsed = time.monotonic() - t0
    ok = (err3 < 0.02 and err4 < 0.02 and abs(est_path.h) < 0.05
          and bp_dev <= bp_tol + 1e-12 and elapsed < 30.0)
    report(5, ok, f"3-regular h={est3.h:.4f} (log2 rel err {err3:.3%}), "
                  f"4-regular h={est4.h:.4f} (log3 rel err {err4:.3%}), "
                  f"path h={est_path.h:.4f} (tol 0.05), basepoint dev "
                  f"{bp_dev:.2e} <= 2*residual {bp_tol:.2e}, {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 6. determinant inequality scans
# ---------------------------------------------------------------------------

def test_acceptance_6_bcg():
    t0 = time.monotonic()
    details = []
    ok = True
    for N, d in [(3, 1), (4, 1), (5, 1), (4, 2), (6, 2)]:
        rep = bcg_scan(N, d, 100_000, rng=100 * N + d, threads=2)
        eq_gap = abs(bcg_ratio(SpectralInput(N, d, np.eye(N) / N,
                                             canonical_structures(N, d)))
                     - bcg_bound(N, d))
        ok = ok and rep.violations == 0 and eq_gap < 1e-12 and rep.empirical_A > 0
        details.append(f"({N},{d}): max ratio {rep.max_ratio:.6f} <= "
                       f"{rep.bound:.6f}, A~{rep.empirical_A:.3f}, eq gap {eq_gap:.1e}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report(6, ok, f"5 x 1e5 samples, zero violations at 1e-9 relative; "
                  + "; ".join(details) + f"; {elapsed:.1f}s (< 300s)")


# ---------------------------------------------------------------------------
# 7. natural-map pipeline on the truncated cover fixture
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def big_net():
    g, emb, deck, rot = graphs.rotation_symmetric_net(
        np.random.default_rng(2024), order=4, n=3, radius=2.35, spacing=0.27,
        edge_factor=2.0, oversample=12)
    return g, emb, deck, rot


def test_acceptance_7_naturalmap(big_net):
    t0 = time.monotonic()
    g, emb, deck, rot = big_net
    assert g.n >= 4500, f"fixture has {g.n} vertices; expected ~5e3"
    center = g.vertices[int(np.argmin(hyp.dist_many(hyp.basepoint(3), emb)))]
    est = volume_entropy(g, center, 1.2, 2.2, step=0.25)
    s_values = [f * est.h for f in (1.1, 1.5, 2.0)]
    cfg = NaturalMapConfig(s=s_values[0], truncation_radius=3.2,
                           h_estimate=est.h, h_residual=est.residual,
                           tail_tolerance=10.0)
    d0 = g.dijkstra(center)
    samples = sorted(g.vertices, key=lambda v: (d0[v], str(v)))[:24]
    run = run_natural_map(g, emb, cfg, samples, s_values=s_values)
    # the tensor gates of every record (h0 = N - 1 = 2) and the deck
    # equivariance of the full pipeline, each at its one threshold
    tables = [gates(r, 2) for r in run.records]
    tables.append([deck_equivariance(g, emb, deck, rot, run.for_s(s_values[0])[:4], cfg)])
    worst = worst_gates(tables)
    # H -> I/N monitor (diagnostic, not asserted): deviation along the s grid
    monitor = {s: max(r.h_deviation for r in run.for_s(s)) for s in s_values}
    elapsed = time.monotonic() - t0
    ok = len(worst) == 5 and all(w["passed"] for w in worst.values()) and elapsed < 600.0
    report(7, ok, f"{g.n} vertices, {len(samples)} samples x 3 s-values: "
                  + ", ".join(f"{name} worst {w['worst']:.1e} vs threshold "
                              f"{w['threshold']:.1e} (margin {w['margin']:.1e})"
                              for name, w in worst.items())
                  + f"; H-monitor {[round(monitor[s], 4) for s in s_values]} "
                  f"for s {[round(s, 3) for s in s_values]}; "
                  f"{elapsed:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 8. coarea identity
# ---------------------------------------------------------------------------

def test_acceptance_8_coarea():
    r_id = coarea_check(ifx.octahedron_identity(), samples=10_000, rng=1)
    cover = ifx.torus_cover_map(2)
    r_cov = coarea_check(cover, samples=10_000, rng=2)
    plm = ifx.jittered_pl_map(6, amplitude=0.9, rng=3)
    r_pl = coarea_check(plm, samples=100_000, rng=4)
    ok = (r_id["relative_gap"] < 0.01 and r_cov["relative_gap"] < 0.01
          and r_pl["relative_gap"] < 0.02)
    report(8, ok, f"identity gap {r_id['relative_gap']:.2e} (<1%), 2-cover gap "
                  f"{r_cov['relative_gap']:.2e} (<1%), random PL gap "
                  f"{r_pl['relative_gap']:.2e} (<2%)")


# ---------------------------------------------------------------------------
# 9. indices
# ---------------------------------------------------------------------------

def test_acceptance_9_indices():
    gens = ["aa", "b", "abA"]
    idx = stallings_index(gens, 2)
    oracle = subgroup_index_by_coset_tables(gens, 2, max_index=5)
    three_way = []
    for k in (1, 2, 3):
        cover = ifx.torus_cover_map(k)
        pre = pre_count(cover, 150, rng=k)
        ih = ind_H_degree(cover, rng=k)
        ipi = stallings_index(ifx.cyclic_cover_subgroup(k), 2)
        three_way.append((k, pre, ipi, ih))
    # pre >= |degree| at every generic sample, across all fixtures
    rng = np.random.default_rng(7000)
    dominated = True
    for f in (ifx.torus_cover_map(2), ifx.octahedron_reflection(),
              ifx.sphere_double_wrap()):
        for _ in range(100):
            tgt = int(rng.integers(0, len(f.target.simplices)))
            lam = rng.dirichlet(np.ones(f.target.dim + 1))
            if np.min(lam) <= 1e-12:
                continue
            hits = f.preimages(tgt, lam)
            if len(hits) < abs(sum(s for _, s in hits)):
                dominated = False
    reference = fold_words(gens, 2).canonical_form()
    confluent = all(
        fold_words(gens, 2, fold_order=np.random.default_rng(t)).canonical_form()
        == reference
        for t in range(100)
    )
    ok = (idx == 2 and oracle == 2
          and all(pre == float(k) and ipi == k and ih == k
                  for k, pre, ipi, ih in three_way)
          and dominated and confluent)
    report(9, ok, f"stallings {{a^2, b, abA}} = {idx} (oracle {oracle}); "
                  f"covers (k, pre, ind_pi, ind_H) = {three_way}; "
                  f"pre >= |deg| everywhere: {dominated}; "
                  f"fold confluence over 100 orders: {confluent}")


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def test_acceptance_10_cli_determinism(tmp_path):
    import io
    from contextlib import redirect_stdout

    from barylab.cli import main

    # inputs
    (tmp_path / "tree.json").write_text(graphs.regular_tree(3, 13).to_json())
    rng = np.random.default_rng(8)
    pts = np.array([hyp.random_point(rng, 3, 1.0) for _ in range(4)])
    (tmp_path / "m.json").write_text(DiscreteMeasure.from_points(pts).to_json())
    qts = np.array([hyp.random_point(rng, 3, 1.0) for _ in range(5)])
    (tmp_path / "mu.json").write_text(
        DiscreteMeasure.from_points(pts).normalize().to_json())
    (tmp_path / "nu.json").write_text(
        DiscreteMeasure.from_points(qts).normalize().to_json())
    (tmp_path / "idx.json").write_text(
        json.dumps({"fixture": {"type": "torus_cover", "k": 2}}))
    (tmp_path / "ca.json").write_text(
        json.dumps({"fixture": {"type": "jittered_pl", "m": 4, "amplitude": 0.5}}))
    (tmp_path / "nm.json").write_text(json.dumps({
        "fixture": {"type": "rotation_net", "order": 3, "radius": 1.3,
                    "spacing": 0.45, "dim": 3},
        "entropy": {"r_min": 0.5, "r_max": 1.2, "step": 0.35},
        "s_factors": [1.5],
        "truncation_radius": 3.0,
        "tail_tolerance": 5.0,
        "num_samples": 2,
    }))
    commands = [
        ["entropy", str(tmp_path / "tree.json"), "--rmin", "4", "--rmax", "10"],
        ["barycenter", str(tmp_path / "m.json")],
        ["wasserstein", str(tmp_path / "mu.json"), str(tmp_path / "nu.json")],
        ["naturalmap", str(tmp_path / "nm.json")],
        ["bcg", "--N", "3", "--count", "400"],
        ["indices", str(tmp_path / "idx.json"), "--samples", "50"],
        ["coarea", str(tmp_path / "ca.json"), "--samples", "4000"],
    ]

    def run(argv, out):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["--seed", "7", "--out-dir", str(out)] + argv)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        return code, buf.getvalue(), files

    identical = True
    names = []
    for i, argv in enumerate(commands):
        out = tmp_path / f"cmd{i}"
        c1, o1, f1 = run(argv, out)
        c2, o2, f2 = run(argv, out)
        same = c1 == c2 == 0 and o1 == o2 and f1 == f2
        identical = identical and same
        names.append(f"{argv[0]}:{'=' if same else '!'}")
    report(10, identical, "byte-identical reruns for " + " ".join(names))
