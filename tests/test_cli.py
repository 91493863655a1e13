import csv
import hashlib
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from barylab import fixtures, graphs, mmgraph, naturalmap
from barylab.cli import main
from barylab.errors import ConfigurationError
from barylab.measures import DiscreteMeasure
from barylab.mmgraph import MMGraph
from barylab import hyperboloid as hyp

from oracles import brute_force_w1, heap_dijkstra


def run_cli(argv, tmp_path, name="out"):
    out_dir = tmp_path / name
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--out-dir", str(out_dir)] + argv)
    files = {}
    if out_dir.exists():
        for p in sorted(out_dir.iterdir()):
            files[p.name] = p.read_bytes()
    return code, buf.getvalue(), files


@pytest.fixture(scope="module")
def tree_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures") / "tree.json"
    path.write_text(graphs.regular_tree(3, 13).to_json())
    return str(path)


def test_entropy_command_tree(tree_json, tmp_path):
    code, out, files = run_cli(
        ["entropy", tree_json, "--rmin", "4", "--rmax", "12"], tmp_path)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["h"] - math.log(2)) < 0.02 * math.log(2)
    assert "entropy.csv" in files


def test_entropy_command_path_flat(tmp_path):
    gpath = tmp_path / "path.json"
    gpath.write_text(graphs.path_graph(200).to_json())
    code, out, _ = run_cli(
        ["entropy", str(gpath), "--basepoint", "100",
         "--rmin", "10", "--rmax", "60"], tmp_path)
    assert code == 0
    assert abs(json.loads(out)["h"]) < 0.05


def test_entropy_saturation_exit_code(tmp_path):
    gpath = tmp_path / "small.json"
    gpath.write_text(graphs.path_graph(10).to_json())
    code, _, _ = run_cli(["entropy", str(gpath), "--rmin", "2", "--rmax", "20"],
                         tmp_path)
    assert code == 2


def test_entropy_on_tuple_vertex_ids(tmp_path):
    # JSON arrays as vertex ids, as to_json writes a cover's (vertex, sheet)
    gpath = tmp_path / "pairs.json"
    gpath.write_text('{"vertices": [[0,0],[0,1]], "edges": [[[0,0],[0,1],1.0]]}')
    code, out, _ = run_cli(["entropy", str(gpath), "--rmin", "0", "--rmax", "0.5",
                            "--step", "0.25", "--basepoint", "(0, 1)"], tmp_path)
    assert code == 0
    assert json.loads(out)["h"] == 0.0


def test_missing_file_exit_code(tmp_path):
    code, _, _ = run_cli(["entropy", "no_such_file.json",
                          "--rmin", "1", "--rmax", "2"], tmp_path)
    assert code == 2


def test_barycenter_command(tmp_path):
    rng = np.random.default_rng(0)
    pts = np.array([hyp.random_point(rng, 3, 1.0) for _ in range(5)])
    mpath = tmp_path / "measure.json"
    mpath.write_text(DiscreteMeasure.from_points(pts).to_json())
    code, out, _ = run_cli(["barycenter", str(mpath)], tmp_path)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["point"]) == 4
    assert payload["gradient_norm"] <= 1e-9 * 5 * (1 + 1e-9)


def test_wasserstein_command(tmp_path):
    rng = np.random.default_rng(1)
    a = np.array([hyp.random_point(rng, 3, 1.0) for _ in range(3)])
    b = np.array([hyp.random_point(rng, 3, 1.0) for _ in range(4)])
    mu = DiscreteMeasure.from_points(a).normalize()
    nu = DiscreteMeasure.from_points(b).normalize()
    (tmp_path / "mu.json").write_text(mu.to_json())
    (tmp_path / "nu.json").write_text(nu.to_json())
    code, out, files = run_cli(
        ["wasserstein", str(tmp_path / "mu.json"), str(tmp_path / "nu.json")],
        tmp_path)
    assert code == 0
    assert json.loads(out)["w1"] > 0
    assert "plan.csv" in files
    rows = files["plan.csv"].decode().splitlines()[2:]
    assert rows
    for row in rows:
        mass = row.split(",")[-1]
        assert "np." not in row
        assert float(mass) > 0


def test_wasserstein_graph_metric_one_dijkstra_per_source(tmp_path, monkeypatch):
    g = graphs.heawood_graph()
    mu = DiscreteMeasure([0, 3, 9], [0.25, 0.5, 0.25])
    nu = DiscreteMeasure([1, 6, 9, 12], [0.25, 0.25, 0.25, 0.25])
    (tmp_path / "g.json").write_text(g.to_json())
    for name, m in (("mu", mu), ("nu", nu)):
        atoms = [{"site": site, "w": float(w)} for site, w in zip(m.sites, m.weights)]
        (tmp_path / f"{name}.json").write_text(json.dumps({"atoms": atoms}))
    calls = []
    distance_rows = MMGraph.distance_rows

    def counting(self, sources, cutoff=None, columns=None):
        calls.append(list(sources))
        return distance_rows(self, sources, cutoff=cutoff, columns=columns)

    monkeypatch.setattr(MMGraph, "distance_rows", counting)
    code, out, _ = run_cli(
        ["wasserstein", str(tmp_path / "mu.json"), str(tmp_path / "nu.json"),
         "--graph", str(tmp_path / "g.json")], tmp_path)
    assert code == 0
    # one relaxation, one row per source
    assert calls == [[0, 3, 9]]
    cost = [[heap_dijkstra(g, a)[b] for b in nu.sites] for a in mu.sites]
    assert abs(json.loads(out)["w1"] - brute_force_w1(mu, nu, cost)) < 1e-12


def test_wasserstein_cost_is_the_per_pair_distance(tmp_path, monkeypatch):
    import barylab.cli

    rng = np.random.default_rng(2)
    sides = [np.array([hyp.random_point(rng, 3, 1.5) for _ in range(k)]) for k in (6, 5)]
    for name, pts in zip(("mu", "nu"), sides):
        (tmp_path / f"{name}.json").write_text(
            DiscreteMeasure.from_points(pts).normalize().to_json())
    seen = {}
    solve = barylab.cli.wasserstein1

    def capture(mu, nu, cost):
        seen["cost"] = cost
        return solve(mu, nu, cost=cost)

    monkeypatch.setattr(barylab.cli, "wasserstein1", capture)
    code, _, _ = run_cli(
        ["wasserstein", str(tmp_path / "mu.json"), str(tmp_path / "nu.json")], tmp_path)
    assert code == 0
    loop = np.array([[hyp.dist(p, q) for q in sides[1]] for p in sides[0]])
    assert seen["cost"].shape == loop.shape
    assert (seen["cost"] == loop).all()


def naturalmap_files(tmp_path, scale=1.0):
    """A file-based naturalmap config on a 189-vertex ball net: the graph
    and embedding JSON files it names, and its own text.  `scale`
    multiplies the embedding row of vertex 0, which is not a sample point
    (a sample point off the sheet would also trip the distance kernel's
    own check), so only the load-time sheet check can catch it."""
    g, emb = graphs.hyperbolic_ball_net(np.random.default_rng(5), n=3, radius=1.5,
                                        spacing=0.45)
    rows = {str(v): emb[v].tolist() for v in g.vertices}
    rows["0"] = (scale * emb[0]).tolist()
    (tmp_path / "graph.json").write_text(g.to_json())
    (tmp_path / "embedding.json").write_text(json.dumps(rows))
    return json.dumps({
        "graph": str(tmp_path / "graph.json"),
        "embedding": str(tmp_path / "embedding.json"),
        "entropy": {"r_min": 0.6, "r_max": 1.4, "step": 0.2},
        "s_factors": [1.3, 1.8],
        "truncation_radius": 3.2,
        "tail_tolerance": 5.0,
        "num_samples": 3,
    })


def missing_embedding_row(tmp_path):
    """naturalmap_files with the row of vertex 7 left out of the embedding."""
    text = naturalmap_files(tmp_path)
    rows = json.loads((tmp_path / "embedding.json").read_text())
    del rows["7"]
    (tmp_path / "embedding.json").write_text(json.dumps(rows))
    return text


def small_fixture(**overrides):
    """The fixture of small_naturalmap with some keys replaced."""
    return {"type": "rotation_net", "order": 3, "radius": 1.3, "spacing": 0.45, "dim": 3,
            **overrides}


def small_naturalmap(**overrides):
    """A fast rotation-net naturalmap config with some keys replaced."""
    return json.dumps({
        "fixture": small_fixture(),
        "entropy": {"r_min": 0.5, "r_max": 1.2, "step": 0.35},
        "s_factors": [1.5],
        "truncation_radius": 3.0,
        "tail_tolerance": 5.0,
        "num_samples": 2,
        **overrides,
    })


OFF_SHEET_SITES = ('{"atoms": [{"site": [1.1, 0.3, 0, 0], "w": 1}, '
                   '{"site": [1.2, 0, 0.4, 0], "w": 1}]}')


@pytest.mark.parametrize("argv, text", [
    pytest.param(["barycenter", "IN"], "[1, 2]", id="barycenter-array"),
    pytest.param(["naturalmap", "IN"], "[1, 2]", id="naturalmap-array"),
    pytest.param(["naturalmap", "IN"], '{"fixture": "rotation_net"}', id="naturalmap-fixture-string"),
    pytest.param(["coarea", "IN"], "[1, 2]", id="coarea-array"),
    pytest.param(["indices", "IN"], "[1, 2]", id="indices-array"),
    pytest.param(["entropy", "IN", "--rmin", "1", "--rmax", "2"], "[1, 2]", id="entropy-array"),
    pytest.param(["entropy", "IN", "--rmin", "1", "--rmax", "2"],
                 '{"vertices": [0, 1], "edges": [[0, 1, NaN]]}', id="graph-nan-length"),
    pytest.param(["entropy", "IN", "--rmin", "0", "--rmax", "0.5", "--step", "0.25"],
                 '{"vertices": [[[0], 1], [0, 1]], "edges": [[[[0], 1], [0, 1], 1.0]]}',
                 id="graph-unhashable-vertex"),
    pytest.param(["barycenter", "IN"], '{"atoms": [{"site": [1, 0, 0], "w": NaN}]}',
                 id="measure-nan-weight"),
    pytest.param(["barycenter", "IN"], '{"atoms": [{"site": [Infinity, 0, 0], "w": 1}]}',
                 id="measure-inf-coordinate"),
    pytest.param(["barycenter", "IN"],
                 '{"atoms": [{"site": [1, 0, 0], "w": 1}, {"site": 3, "w": 1}]}',
                 id="measure-mixes-points-and-ids"),
    pytest.param(["barycenter", "IN"], '{"atoms": [{"site": 3, "w": 1}, {"site": 4, "w": 1}]}',
                 id="barycenter-on-vertex-ids"),
    pytest.param(["wasserstein", "IN", "IN"], '{"atoms": [{"site": 3, "w": 1}]}',
                 id="wasserstein-ids-without-graph"),
    pytest.param(["barycenter", "IN"], OFF_SHEET_SITES, id="barycenter-off-sheet"),
    pytest.param(["wasserstein", "IN", "IN"], OFF_SHEET_SITES, id="wasserstein-off-sheet"),
    pytest.param(["barycenter", "IN"], '{"atoms": [[1, 0, 0]]}', id="atoms-not-objects"),
    pytest.param(["barycenter", "IN"], '{"atoms": 5}', id="atoms-not-a-list"),
    pytest.param(["barycenter", "IN"], '{"atoms": [{"site": [], "w": 1}]}',
                 id="point-site-without-coordinates"),
    pytest.param(["naturalmap", "IN"], lambda tmp_path: naturalmap_files(tmp_path, scale=1.05),
                 id="naturalmap-embedding-off-sheet"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(num_samples=0), id="naturalmap-no-samples"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(num_samples=-1),
                 id="naturalmap-negative-samples"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(sample_points=[]),
                 id="naturalmap-empty-sample-points"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(s_values=[]), id="naturalmap-empty-s-values"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(s_factors=[]),
                 id="naturalmap-empty-s-factors"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(s_values=3.0),
                 id="naturalmap-s-values-number"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(s_values="abc"),
                 id="naturalmap-s-values-string"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(s_factors=2.0),
                 id="naturalmap-s-factors-number"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(h_override="abc"),
                 id="naturalmap-h-override-string"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(h_override=float("nan")),
                 id="naturalmap-h-override-nan"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(h_override=[1.0]),
                 id="naturalmap-h-override-list"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(tail_tolerance=float("nan")),
                 id="naturalmap-tail-tolerance-nan"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(tail_tolerance="abc"),
                 id="naturalmap-tail-tolerance-string"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(truncation_radius="abc"),
                 id="naturalmap-truncation-radius-string"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(truncation_radius=float("inf")),
                 id="naturalmap-truncation-radius-inf"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(mesh_radius="abc"),
                 id="naturalmap-mesh-radius-string"),
    pytest.param(["naturalmap", "IN"],
                 small_naturalmap(entropy={"r_min": "a", "r_max": 1.2, "step": 0.35}),
                 id="naturalmap-entropy-r-min-string"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(entropy=[0.5, 1.2]),
                 id="naturalmap-entropy-list"),
    pytest.param(["naturalmap", "IN"],
                 small_naturalmap(fixture={"type": "rotation_net", "order": 3, "radius": 1.3,
                                           "spacing": "abc", "dim": 3}),
                 id="naturalmap-fixture-spacing-string"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(fixture=small_fixture(order=2.5)),
                 id="naturalmap-fixture-order-fraction"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(fixture=small_fixture(order=1)),
                 id="naturalmap-fixture-order-one"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(fixture=small_fixture(dim=2.5)),
                 id="naturalmap-fixture-dim-fraction"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(fixture=small_fixture(dim=1)),
                 id="naturalmap-fixture-dim-one"),
    pytest.param(["naturalmap", "IN"],
                 small_naturalmap(fixture={"type": "ball_net", "dim": 1, "radius": 1.3}),
                 id="naturalmap-ball-net-dim-one"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(fixture=small_fixture(spacing=-0.4)),
                 id="naturalmap-fixture-spacing-negative"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(fixture=small_fixture(radius=0)),
                 id="naturalmap-fixture-radius-zero"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(fixture=small_fixture(edge_factor=-2.0)),
                 id="naturalmap-fixture-edge-factor-negative"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(truncation_radius=0.0),
                 id="naturalmap-truncation-radius-zero"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(tail_tolerance=-1),
                 id="naturalmap-tail-tolerance-negative"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(mesh_radius=-1),
                 id="naturalmap-mesh-radius-negative"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(sample_points=["(0, 0)", [3, 1]]),
                 id="naturalmap-sample-point-unknown"),
    pytest.param(["naturalmap", "IN"], missing_embedding_row,
                 id="naturalmap-embedding-row-missing"),
    pytest.param(["indices", "IN", "--samples", "0"], '{"fixture": {"type": "torus_cover"}}',
                 id="indices-no-samples"),
    pytest.param(["coarea", "IN", "--samples", "0"], '{"fixture": {"type": "torus_cover"}}',
                 id="coarea-no-samples"),
    pytest.param(["coarea", "IN", "--samples", "0"], '{"fixture": {"type": "jittered_pl"}}',
                 id="coarea-pl-no-samples"),
    pytest.param(["coarea", "IN", "--samples", "200"], '{"fixture": {"type": "torus_cover", "k": 2.5}}',
                 id="coarea-torus-k-fraction"),
    pytest.param(["coarea", "IN", "--samples", "200"], '{"fixture": {"type": "torus_cover", "k": "3"}}',
                 id="coarea-torus-k-string"),
    pytest.param(["coarea", "IN", "--samples", "200"], '{"fixture": {"type": "torus_cover", "k": -1}}',
                 id="coarea-torus-k-negative"),
    pytest.param(["coarea", "IN", "--samples", "200"], '{"fixture": {"type": "torus_cover", "k": true}}',
                 id="coarea-torus-k-bool"),
    pytest.param(["indices", "IN"], '{"fixture": {"type": "torus_cover", "k": 2.5}}',
                 id="indices-torus-k-fraction"),
    pytest.param(["coarea", "IN", "--samples", "200"],
                 '{"fixture": {"type": "jittered_pl", "amplitude": NaN}}', id="coarea-amplitude-nan"),
    pytest.param(["coarea", "IN", "--samples", "200"],
                 '{"fixture": {"type": "jittered_pl", "amplitude": "x"}}', id="coarea-amplitude-string"),
    pytest.param(["coarea", "IN", "--samples", "200"], '{"fixture": {"type": "jittered_pl", "m": -2}}',
                 id="coarea-jittered-m-negative"),
    pytest.param(["coarea", "IN", "--samples", "200"], '{"fixture": {"type": "identity_pl", "m": 0}}',
                 id="coarea-identity-m-zero"),
    pytest.param(["indices", "IN"], '{"fixture": {"type": "identity_pl", "m": 0}}',
                 id="indices-identity-m-zero"),
    pytest.param(["naturalmap", "IN"], small_naturalmap(fixture={"radius": 6}),
                 id="naturalmap-net-over-the-draw-cap"),
    pytest.param(["entropy", "IN", "--rmin", "2", "--rmax", "5", "--step", "nan"],
                 lambda tmp_path: graphs.regular_tree(3, 8).to_json(), id="entropy-nan-step"),
    pytest.param(["entropy", "IN", "--rmin", "2", "--rmax", "5", "--step", "10"],
                 lambda tmp_path: graphs.regular_tree(3, 8).to_json(), id="entropy-one-radius"),
])
def test_malformed_input_exit_code(argv, text, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(text(tmp_path) if callable(text) else text)
    code, _, _ = run_cli([str(path) if a == "IN" else a for a in argv], tmp_path)
    assert code == 2


def test_bcg_command_and_rejection(tmp_path):
    code, out, files = run_cli(["bcg", "--N", "3", "--count", "500"], tmp_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["empirical_A"] > 0
    assert "bcg_scan.csv" in files
    code, _, _ = run_cli(["bcg", "--N", "2", "--count", "10"], tmp_path, "n2")
    assert code == 2


def test_indices_command_fixture(tmp_path):
    ipath = tmp_path / "cover.json"
    ipath.write_text(json.dumps({"fixture": {"type": "torus_cover", "k": 2}}))
    code, out, _ = run_cli(["indices", str(ipath), "--mode", "all",
                            "--samples", "60"], tmp_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["pre"] == 2.0
    assert payload["ind_H"] == 2
    assert payload["ind_pi"] == 2
    assert payload["consistency"] == "OK"


@pytest.mark.parametrize("spec, expected", [
    ({"type": "torus_cover", "k": 3}, {"pre": 3.0, "ind_H": 3, "ind_pi": 3}),
    ({"type": "sphere_double_wrap"}, {"pre": 2.0, "ind_H": 2, "ind_pi": 1}),
    ({"type": "octahedron_identity"}, {"pre": 1.0, "ind_H": 1}),
])
def test_indices_command_simplicial_fixtures(tmp_path, spec, expected):
    ipath = tmp_path / "fixture.json"
    ipath.write_text(json.dumps({"fixture": spec}))
    code, out, _ = run_cli(["indices", str(ipath), "--samples", "40"], tmp_path)
    assert code == 0
    payload = json.loads(out)
    assert {key: payload.get(key) for key in expected} == expected
    assert payload["consistency"] == "OK"


def refuse_to_build(monkeypatch):
    """Make every fixture builder fail the test if it is called."""
    def refuse(*args, **kwargs):
        pytest.fail("a fixture was built before its spec was checked")
    for name in ("torus_cover_map", "sphere_double_wrap", "octahedron_identity",
                 "identity_pl_map", "jittered_pl_map"):
        monkeypatch.setattr(fixtures, name, refuse)
    for name in ("rotation_symmetric_net", "hyperbolic_ball_net"):
        monkeypatch.setattr(graphs, name, refuse)


@pytest.mark.parametrize("spec", [{"type": "identity_pl", "m": 3},
                                  {"type": "jittered_pl", "m": 4},
                                  {"type": "klein_bottle"}, "torus_cover"])
def test_indices_rejects_pl_and_unknown_fixtures(tmp_path, spec, monkeypatch):
    refuse_to_build(monkeypatch)
    ipath = tmp_path / "fixture.json"
    ipath.write_text(json.dumps({"fixture": spec}))
    code, out, _ = run_cli(["indices", str(ipath)], tmp_path)
    assert code == 2 and out == ""
    if not isinstance(spec, dict) or spec["type"] == "klein_bottle":
        code, out, _ = run_cli(["coarea", str(ipath)], tmp_path)
        assert code == 2 and out == ""


@pytest.mark.parametrize("kind", ["torus_cover", "sphere_double_wrap",
                                  "octahedron_identity", "jittered_pl"])
def test_coarea_command_fixtures(tmp_path, kind):
    ipath = tmp_path / "coarea.json"
    ipath.write_text(json.dumps({"fixture": {"type": kind}}))
    code, out, _ = run_cli(["coarea", str(ipath), "--samples", "4000"], tmp_path)
    assert code == 0
    assert json.loads(out)["relative_gap"] < 0.05


def test_indices_command_subgroup_only(tmp_path):
    ipath = tmp_path / "subgroup.json"
    ipath.write_text(json.dumps(
        {"subgroup": {"rank": 2, "generators": ["aa", "b", "abA"]}}))
    code, out, _ = run_cli(["indices", str(ipath), "--mode", "indpi"], tmp_path)
    assert code == 0
    assert json.loads(out)["ind_pi"] == 2


def test_indices_malformed_json(tmp_path):
    ipath = tmp_path / "bad.json"
    ipath.write_text("{not json")
    code, _, _ = run_cli(["indices", str(ipath)], tmp_path)
    assert code == 2


def test_coarea_command(tmp_path):
    ipath = tmp_path / "coarea.json"
    ipath.write_text(json.dumps({"fixture": {"type": "identity_pl", "m": 3}}))
    code, out, _ = run_cli(["coarea", str(ipath), "--samples", "20000"], tmp_path)
    assert code == 0
    assert json.loads(out)["relative_gap"] < 0.02


def test_naturalmap_command_small(tmp_path):
    cpath = tmp_path / "nm.json"
    cpath.write_text(json.dumps({
        "fixture": {"type": "rotation_net", "order": 4, "radius": 1.5,
                    "spacing": 0.4, "dim": 3},
        "entropy": {"r_min": 0.6, "r_max": 1.4, "step": 0.2},
        "s_factors": [1.3, 1.8],
        "truncation_radius": 3.2,
        "tail_tolerance": 5.0,
        "num_samples": 4,
    }))
    code, out, files = run_cli(["naturalmap", str(cpath)], tmp_path)
    assert code == 0, out
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["equivariance"] < 1e-6
    assert sorted(payload["gates"]) == ["K_minus_ImH", "deck_equivariance", "det_B",
                                        "jac_formula", "trace_H"]
    assert all(g["passed"] and g["margin"] > 0 for g in payload["gates"].values())
    assert payload["gates"]["deck_equivariance"]["worst"] == payload["equivariance"]
    assert json.loads(files["naturalmap_summary.json"]) == payload
    for row in payload["per_s"]:
        assert row["max_pointwise_violation"] <= 1e-6
    assert "naturalmap_run.csv" in files and "naturalmap_summary.json" in files
    # the x column holds tuple vertex ids such as "(425, 2)": quoted, so every
    # row parses to one field per header column
    lines = files["naturalmap_run.csv"].decode().splitlines()
    header, *rows = csv.reader(lines[1:])
    assert len(rows) == 8
    assert all(len(row) == len(header) for row in rows)
    assert all(row[0].startswith("(") for row in rows)


def test_naturalmap_mesh_radius(tmp_path):
    cpath = tmp_path / "nm.json"
    cpath.write_text(small_naturalmap(mesh_radius=0.6))
    code, out, files = run_cli(["naturalmap", str(cpath)], tmp_path)
    assert code == 0, out
    lines = files["naturalmap_run.csv"].decode().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 2
    assert all(math.isfinite(float(row["jac_mesh"])) and float(row["jac_mesh"]) > 0
               for row in rows)


def test_naturalmap_degenerate_mesh_ball_reads_nan(tmp_path):
    # a mesh radius below the net's spacing leaves each sample point alone
    # in its ball, which spans no direction: the estimate is NaN, not 0.0
    cpath = tmp_path / "nm.json"
    cpath.write_text(small_naturalmap(mesh_radius=0.01))
    code, out, files = run_cli(["naturalmap", str(cpath)], tmp_path)
    assert code == 0, out
    rows = list(csv.DictReader(files["naturalmap_run.csv"].decode().splitlines()[1:]))
    assert len(rows) == 2 and all(row["jac_mesh"] == "nan" for row in rows)


@pytest.mark.parametrize("overrides, field", [
    ({"fixture": small_fixture(order=2.5)}, "order"),
    ({"fixture": small_fixture(dim=2.5)}, "dim"),
    ({"fixture": small_fixture(dim=1)}, "dim"),
    ({"fixture": small_fixture(spacing=-0.4)}, "spacing"),
    ({"fixture": small_fixture(radius=0)}, "radius"),
    ({"fixture": small_fixture(edge_factor=-2.0)}, "edge_factor"),
    ({"truncation_radius": 0.0}, "truncation_radius"),
    ({"tail_tolerance": -1}, "tail_tolerance"),
    ({"mesh_radius": -1}, "mesh_radius"),
    ({"num_samples": 2.5}, "num_samples"),
    ({"s_factors": [1.5, True]}, "s_factors"),
    ({"entropy": {"r_min": 0.5, "r_max": 1.2, "step": 0}}, "step"),
    ({"fixture": small_fixture(order=17)}, "order"),
    ({"fixture": small_fixture(dim=7)}, "dim"),
    ({"fixture": {"type": "ball_net", "radius": True}}, "radius"),
    ({"fixture": small_fixture(edge_factor=4.5)}, "edge_factor"),
])
def test_naturalmap_domain_error_names_the_field(overrides, field, tmp_path, capsys,
                                                 monkeypatch):
    refuse_to_build(monkeypatch)
    cpath = tmp_path / "nm.json"
    cpath.write_text(small_naturalmap(**overrides))
    assert main(["--out-dir", str(tmp_path), "naturalmap", str(cpath)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be ")


@pytest.mark.parametrize("command, spec, field", [
    ("coarea", {"type": "torus_cover", "k": 2.5}, "k"),
    ("coarea", {"type": "torus_cover", "k": "3"}, "k"),
    ("coarea", {"type": "torus_cover", "k": -1}, "k"),
    ("coarea", {"type": "torus_cover", "k": True}, "k"),
    ("indices", {"type": "torus_cover", "k": 201}, "k"),
    ("coarea", {"type": "jittered_pl", "amplitude": float("nan")}, "amplitude"),
    ("coarea", {"type": "jittered_pl", "amplitude": "x"}, "amplitude"),
    ("coarea", {"type": "jittered_pl", "m": -2}, "m"),
    ("coarea", {"type": "identity_pl", "m": 0}, "m"),
])
def test_fixture_domain_error_names_the_field(command, spec, field, tmp_path, capsys,
                                              monkeypatch):
    refuse_to_build(monkeypatch)
    ipath = tmp_path / "fixture.json"
    ipath.write_text(json.dumps({"fixture": spec}))
    assert main(["--out-dir", str(tmp_path), command, str(ipath), "--samples", "200"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be ")


@pytest.mark.parametrize("command, spec", [
    ("indices", {"type": "identity_pl", "m": 0}),
    ("coarea", {"type": "ball_net"}),
    ("naturalmap", {"type": "torus_cover"}),
])
def test_fixture_of_another_command_is_refused_unbuilt(command, spec, tmp_path, capsys,
                                                       monkeypatch):
    refuse_to_build(monkeypatch)
    ipath = tmp_path / "fixture.json"
    ipath.write_text(small_naturalmap(fixture=spec) if command == "naturalmap"
                     else json.dumps({"fixture": spec}))
    assert main(["--out-dir", str(tmp_path), command, str(ipath)]) == 2
    assert capsys.readouterr().err.startswith(f"error: fixture {spec['type']} builds a ")


def test_net_over_the_draw_cap_is_refused_before_drawing(tmp_path, capsys, monkeypatch):
    # the draw count is oversample * vol(B(radius)) / spacing^dim / order;
    # the README net draws about 2e4, radius 6 about 7.1e7
    def draws(radius, spacing, dim=3, order=4):
        return 30 * graphs.ball_volume(dim, radius) / spacing ** dim / order
    assert draws(2.0, 0.3) < 25_000 < graphs.MAX_NET_DRAWS < 7e7 < draws(6.0, 0.3)
    assert draws(4.0, 0.3) < graphs.MAX_NET_DRAWS < draws(2.0, 0.3, dim=6)
    monkeypatch.setattr(graphs, "_sample_ball", lambda *args: pytest.fail("drew samples"))
    cpath = tmp_path / "nm.json"
    cpath.write_text(json.dumps({"fixture": {"radius": 6}}))
    assert main(["--out-dir", str(tmp_path), "naturalmap", str(cpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: radius 6, spacing 0.3 and dim 3 make a net of 7.1e+07 draws")
    with pytest.raises(ConfigurationError, match="over the cap"):
        graphs.hyperbolic_ball_net(np.random.default_rng(0), n=3, radius=2.0, spacing=1e-120)


def test_net_builders_are_looked_up_when_called(tmp_path, monkeypatch):
    """A wrapper installed on graphs.rotation_symmetric_net or
    graphs.hyperbolic_ball_net (as a tracer installs one) sees the naturalmap
    fixture builds: the fixture table must not hold the functions themselves."""
    calls = []
    for name in ("rotation_symmetric_net", "hyperbolic_ball_net"):
        def spy(*args, _real=getattr(graphs, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(graphs, name, spy)
    ball = {"type": "ball_net", "radius": 1.5, "spacing": 0.4, "dim": 3}
    for spec in (small_fixture(), ball):
        cpath = tmp_path / "nm.json"
        cpath.write_text(small_naturalmap(fixture=spec, entropy={"r_min": 0.6, "r_max": 1.2,
                                                                 "step": 0.3}))
        code, _, _ = run_cli(["naturalmap", str(cpath)], tmp_path)
        assert code == 0
    assert calls == ["rotation_symmetric_net", "hyperbolic_ball_net"]


def test_naturalmap_command_file_based(tmp_path):
    cpath = tmp_path / "nm.json"
    cpath.write_text(naturalmap_files(tmp_path))
    code, out, files = run_cli(["naturalmap", str(cpath)], tmp_path)
    assert code == 0, out
    payload = json.loads(out)
    assert payload["vertices"] == 189 and payload["violations"] == 0
    assert payload["equivariance"] is None
    assert sorted(payload["gates"]) == ["K_minus_ImH", "det_B", "jac_formula", "trace_H"]
    assert all(g["passed"] for g in payload["gates"].values())
    assert json.loads(files["naturalmap_summary.json"]) == payload
    assert len(files["naturalmap_run.csv"].decode().splitlines()) == 2 + 3 * 2


def test_csv_fields_round_trip(tmp_path):
    from barylab import __version__
    from barylab.cli import _digest, _write_csv

    config = {"command": "test"}
    path = _write_csv(str(tmp_path), "t.csv", config, ["x", "v", "k", "a"],
                      [[(425, 2), 'say "hi"\nthere'], [0.1, -2.5e-300], [3, "plain"],
                       np.array([math.nan, 1e-17])])
    assert path == str(tmp_path / "t.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        comment = fh.readline()
        parsed = list(csv.reader(fh))
    assert comment == f"# barylab {__version__} config {_digest(config)}\n"
    assert parsed == [["x", "v", "k", "a"], ["(425, 2)", "0.1", "3", "nan"],
                      ['say "hi"\nthere', "-2.5e-300", "plain", "1e-17"]]


def test_naturalmap_s_below_entropy_rejected(tmp_path):
    cpath = tmp_path / "bad_s.json"
    cpath.write_text(json.dumps({
        "fixture": {"type": "ball_net", "radius": 1.4, "spacing": 0.4, "dim": 3},
        "entropy": {"r_min": 0.6, "r_max": 1.2, "step": 0.2},
        "s_values": [0.1],
        "truncation_radius": 3.0,
    }))
    code, _, _ = run_cli(["naturalmap", str(cpath)], tmp_path)
    assert code == 2


def test_naturalmap_s_grid_checked_before_any_barycenter(tmp_path, capsys, monkeypatch):
    # 5.0 clears the small config's floor at seed 1 (4.683), 0.1 does not
    def no_barycenter(*args, **kwargs):
        raise AssertionError("a barycenter ran before every s was checked")

    monkeypatch.setattr(naturalmap, "barycenter", no_barycenter)
    cpath = tmp_path / "nm.json"
    cpath.write_text(small_naturalmap(s_values=[5.0, 0.1]))
    assert main(["--out-dir", str(tmp_path), "--seed", "1", "naturalmap", str(cpath)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: s = 0.1 must exceed h_estimate + 3*residual = 4.68")


@pytest.mark.parametrize("overrides", [{"s_values": [5.0, 5.0]}, {"s_factors": [1.5, 1.5]}])
def test_naturalmap_duplicate_s_refused_before_any_barycenter(overrides, tmp_path, capsys,
                                                              monkeypatch):
    # a repeated s would count its records twice in the quadrature of per_s
    def no_barycenter(*args, **kwargs):
        raise AssertionError("a barycenter ran before the s values were checked")

    monkeypatch.setattr(naturalmap, "barycenter", no_barycenter)
    cpath = tmp_path / "nm.json"
    cpath.write_text(small_naturalmap(**overrides))
    assert main(["--out-dir", str(tmp_path), "--seed", "1", "naturalmap", str(cpath)]) == 2
    assert capsys.readouterr().err.startswith("error: s_values must be distinct, not [")


def test_naturalmap_solves_each_f_s_once(tmp_path, monkeypatch):
    """F_s is solved once per sample and s, and once more per deck image
    of the first four samples; the deck gate reads F(x) from the records.
    The samples' rows and their one-rings' come from one relaxation that
    holds each distinct row once.  The mesh Jacobian reads x's row from
    them and relaxes only its ball's pairs."""
    solves, relaxations = [], []

    def count(calls, real):
        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(naturalmap, "barycenter", count(solves, naturalmap.barycenter))
    monkeypatch.setattr(MMGraph, "_relax", count(relaxations, MMGraph._relax))
    cpath = tmp_path / "nm.json"
    for overrides, mesh in (({}, 0), ({"mesh_radius": 0.6}, 1)):
        solves.clear()
        relaxations.clear()
        cpath.write_text(small_naturalmap(**overrides))
        code, out, _ = run_cli(["--seed", "1", "naturalmap", str(cpath)], tmp_path)
        assert code == 0
        payload = json.loads(out)
        samples, s_count = len(payload["samples"]), len(payload["s_values"])
        assert payload["equivariance"] is not None
        assert len(solves) == samples * s_count + min(4, samples)
        # one row each for the net's connectivity check, the entropy ball
        # and the sample order; one call for the samples and their
        # one-rings; one per sample for its mesh ball's pairs; one call for
        # the deck images of the gate
        assert len(relaxations) == 3 + 1 + mesh * samples + 1
        cover, rows = relaxations[3][:2]
        distinct = {cover.index[v] for x in map(cover.vertex, payload["samples"])
                    for v in (x, *naturalmap._one_ring(cover, x))}
        assert len(rows) == len(distinct) and set(rows) == distinct


def test_naturalmap_rows_split_at_the_chunk_size(tmp_path, monkeypatch):
    """With relaxation chunks of a few rows the samples' rows are relaxed
    in several groups of consecutive samples.  No group holds more than a
    chunk, or one sample's rows where those alone exceed it, and the run's
    CSV and stdout are the bytes of the unsplit run."""
    cpath = tmp_path / "nm.json"
    cpath.write_text(small_naturalmap(num_samples=8))
    argv = ["--seed", "1", "naturalmap", str(cpath)]
    code, out, files = run_cli(argv, tmp_path)
    assert code == 0
    vertices = json.loads(out)["vertices"]
    calls = []
    distance_rows = MMGraph.distance_rows

    def recording(self, sources, cutoff=None, columns=None):
        calls.append((self, list(sources)))
        return distance_rows(self, sources, cutoff=cutoff, columns=columns)

    monkeypatch.setattr(MMGraph, "distance_rows", recording)
    for chunk in (24, 30):
        calls.clear()
        monkeypatch.setattr(mmgraph, "CHUNK_LABELS", chunk * vertices)
        code, split_out, split_files = run_cli(argv, tmp_path)
        assert code == 0
        assert split_out == out
        assert split_files["naturalmap_run.csv"] == files["naturalmap_run.csv"]
        # the entropy ball and the sample order come first, the deck images last
        cover = calls[0][0]
        groups = [rows for _, rows in calls[2:-1]]
        assert len(groups) > 1
        ring_rows = [1 + len(naturalmap._one_ring(cover, cover.vertex(x)))
                     for x in json.loads(out)["samples"]]
        for rows in groups:
            assert len(set(rows)) == len(rows) <= max(chunk, *ring_rows)


def tail_cells(csv_bytes):
    """The tail_bound column of a naturalmap_run.csv, below its comment line."""
    return [row["tail_bound"]
            for row in csv.DictReader(csv_bytes.decode().splitlines()[1:])]


@pytest.mark.parametrize("config", [
    pytest.param(small_naturalmap(tail_tolerance=1e-3), id="small-library-tolerance"),
    pytest.param(json.dumps({"fixture": {"type": "ball_net"}}), id="ball-net-defaults"),
])
def test_naturalmap_untruncated_net_has_zero_tail(config, tmp_path):
    """Both nets lie inside the truncation radius about every sample, so
    nothing is dropped: the tail is 0.0 and any tail tolerance holds."""
    cpath = tmp_path / "nm.json"
    cpath.write_text(config)
    code, out, files = run_cli(["--seed", "1", "naturalmap", str(cpath)], tmp_path)
    assert code == 0, out
    assert set(tail_cells(files["naturalmap_run.csv"])) == {"0.0"}


def test_determinism_all_commands(tmp_path, tree_json):
    rng = np.random.default_rng(4)
    pts = np.array([hyp.random_point(rng, 3, 1.0) for _ in range(4)])
    mpath = tmp_path / "m.json"
    mpath.write_text(DiscreteMeasure.from_points(pts).to_json())
    ipath = tmp_path / "idx.json"
    ipath.write_text(json.dumps({"fixture": {"type": "torus_cover", "k": 2}}))
    capath = tmp_path / "ca.json"
    capath.write_text(json.dumps({"fixture": {"type": "jittered_pl", "m": 4,
                                              "amplitude": 0.5}}))
    nmpath = tmp_path / "nm.json"
    nmpath.write_text(json.dumps({
        "fixture": {"type": "rotation_net", "order": 3, "radius": 1.3,
                    "spacing": 0.45, "dim": 3},
        "entropy": {"r_min": 0.5, "r_max": 1.2, "step": 0.35},
        "s_factors": [1.5],
        "truncation_radius": 3.0,
        "tail_tolerance": 5.0,
        "num_samples": 2,
    }))
    commands = [
        ["--seed", "11", "entropy", tree_json, "--rmin", "4", "--rmax", "10"],
        ["--seed", "11", "barycenter", str(mpath)],
        ["--seed", "11", "bcg", "--N", "3", "--count", "400"],
        ["--seed", "11", "indices", str(ipath), "--samples", "50"],
        ["--seed", "11", "coarea", str(capath), "--samples", "5000"],
        ["--seed", "11", "naturalmap", str(nmpath)],
    ]
    for i, argv in enumerate(commands):
        # identical invocations, including the out-dir, must be byte-identical
        code1, out1, files1 = run_cli(argv, tmp_path, f"d{i}")
        code2, out2, files2 = run_cli(argv, tmp_path, f"d{i}")
        assert code1 == code2 == 0
        assert out1 == out2
        assert files1 == files2


README_NATURALMAP = {
    "fixture": {"type": "rotation_net", "order": 4, "radius": 2.0, "spacing": 0.3},
    "s_factors": [1.1, 1.5, 2.0], "truncation_radius": 4.0, "tail_tolerance": 10.0,
    "entropy": {"r_min": 1.2, "r_max": 2.0, "step": 0.25},
}


@pytest.mark.parametrize("config, csv_sha, stdout_sha", [
    pytest.param(json.dumps(README_NATURALMAP),
                 "08322a50beb3a42e293c961a818f69cd10c83fb1fc8f7d67ea6b7392f80743cf",
                 "d1f2fb4cb404a5cf83d497114f97eff516de140d803d66095debdbd15f5fef21", id="readme"),
    pytest.param(small_naturalmap(),
                 "d8d11a80060baf593735e72a39ca9371afb5345064505116e063059d14b50b68",
                 "4fd3b10be96b6a847607d973cc3518b5415d27ec382df3966fc85df597ab285e", id="small"),
])
def test_naturalmap_output_pinned(config, csv_sha, stdout_sha, tmp_path):
    """`naturalmap --seed 1` writes the bytes recorded at commit 5e8e65f:
    the sha256 of naturalmap_run.csv, and of stdout without its "run_csv"
    line (the one path-dependent field).  The CSV digests were re-recorded
    when `tail_bound` became the exact dropped mass (0.0 here; every other
    cell unchanged).

    A refactor must leave these digests alone.  They may move only with a
    change that states its max |delta| over these outputs in CHANGES.md, or
    after a numpy/LAPACK change, naming the environment (library versions,
    CPU) the new digests were recorded in.
    """
    cpath = tmp_path / "nm.json"
    cpath.write_text(config)
    code, out, files = run_cli(["--seed", "1", "naturalmap", str(cpath)], tmp_path)
    assert code == 0
    assert set(tail_cells(files["naturalmap_run.csv"])) == {"0.0"}  # nothing truncated
    stdout = "".join(line for line in out.splitlines(keepends=True)
                     if not line.startswith('  "run_csv": '))
    assert hashlib.sha256(files["naturalmap_run.csv"]).hexdigest() == csv_sha
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha


def wasserstein_graph_files(tmp_path):
    """Measures on 5 and 6 vertices of the 189-vertex ball net (float edge
    lengths), written with the graph for `wasserstein --graph`."""
    g, _ = graphs.hyperbolic_ball_net(np.random.default_rng(5), n=3, radius=1.5,
                                      spacing=0.45)
    (tmp_path / "g.json").write_text(g.to_json())
    sides = {"mu": ([3, 17, 40, 88, 150], [0.1, 0.3, 0.2, 0.15, 0.25]),
             "nu": ([0, 21, 64, 99, 120, 188], [0.2, 0.1, 0.25, 0.05, 0.3, 0.1])}
    for name, (sites, weights) in sides.items():
        atoms = [{"site": site, "w": w} for site, w in zip(sites, weights)]
        (tmp_path / f"{name}.json").write_text(json.dumps({"atoms": atoms}))
    return [str(tmp_path / name) for name in ("mu.json", "nu.json", "g.json")]


def test_wasserstein_graph_plan_pinned(tmp_path):
    """`wasserstein --graph` writes the plan recorded at commit 7363a7c: the
    sha256 of plan.csv without its version/digest line (the digest covers
    the input paths).  It was re-recorded when the simplex started from the
    least-cost basis (same w1; masses moved in the last bit, max |delta|
    2.8e-17).  It moves under the same rule as
    test_naturalmap_output_pinned."""
    mu, nu, graph = wasserstein_graph_files(tmp_path)
    code, out, files = run_cli(["wasserstein", mu, nu, "--graph", graph], tmp_path)
    assert code == 0
    body = files["plan.csv"].split(b"\n", 1)[1]
    assert (hashlib.sha256(body).hexdigest()
            == "a5aa5754ea2542a88aebd2cc20caa56df8067541d66159b77afb2061289e892e")
    assert repr(json.loads(out)["w1"]) == "1.58124213685982"


def test_wasserstein_summary_reports_pivots_and_bland(tmp_path, monkeypatch):
    """The summary carries the pivot count and Bland flag of the plan the
    command solved, and they repeat run to run."""
    import barylab.cli

    plans = []
    solve = barylab.cli.wasserstein1

    def capture(mu, nu, cost):
        value, plan = solve(mu, nu, cost=cost)
        plans.append(plan)
        return value, plan

    monkeypatch.setattr(barylab.cli, "wasserstein1", capture)
    mu, nu, graph = wasserstein_graph_files(tmp_path)
    runs = [run_cli(["wasserstein", mu, nu, "--graph", graph], tmp_path) for _ in range(2)]
    assert [code for code, _, _ in runs] == [0, 0]
    assert runs[0][1] == runs[1][1]
    payload = json.loads(runs[0][1])
    assert (payload["pivots"], payload["bland"]) == (2, False)
    assert (payload["pivots"], payload["bland"]) == (plans[0].pivots, plans[0].bland)


def test_naturalmap_mesh_radius_output_pinned(tmp_path):
    """`naturalmap --seed 1` with a mesh radius writes the naturalmap_run.csv
    recorded at commit 7363a7c, with `tail_bound` re-recorded as the exact
    dropped mass.  It moves under the same rule as
    test_naturalmap_output_pinned."""
    cpath = tmp_path / "nm.json"
    cpath.write_text(small_naturalmap(mesh_radius=0.6))
    code, _, files = run_cli(["--seed", "1", "naturalmap", str(cpath)], tmp_path)
    assert code == 0
    assert (hashlib.sha256(files["naturalmap_run.csv"]).hexdigest()
            == "7635ba7743b6cffb001be9f2941b8316cca39d1f231793866720931defe76cc5")


@pytest.mark.parametrize("argv, csv_sha, stdout_sha", [
    pytest.param(["--N", "3"],
                 "3cc4025764a385b2eef93799c7aeacf921ecfb8d022123f157afc9ad7f8184e7",
                 "073abdf7be2483815a6653c38c19914c6d16ac2de20b8557b6ebf9cdaaf89c33", id="N3d1"),
    pytest.param(["--N", "6", "--d", "2"],
                 "1ea3bd40b1df6538d582a2a40d1b5f002a55f6d404b80821b3277d05699b13c7",
                 "ee1bf207ee1098b2a42449f1bc5ea535e0932a0d3b0344fc297574ca975e03b2", id="N6d2"),
])
def test_bcg_output_pinned(argv, csv_sha, stdout_sha, tmp_path):
    """`bcg --seed 1 --count 3000` writes the bytes recorded at commit
    fc5470a: the sha256 of bcg_scan.csv, and of stdout without its "csv"
    line (the one path-dependent field).  It moves under the same rule as
    test_naturalmap_output_pinned."""
    code, out, files = run_cli(["--seed", "1", "bcg", *argv, "--count", "3000"], tmp_path)
    assert code == 0
    stdout = "".join(line for line in out.splitlines(keepends=True)
                     if not line.startswith('  "csv": '))
    assert hashlib.sha256(files["bcg_scan.csv"]).hexdigest() == csv_sha
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_refused(threads, tmp_path, capsys):
    code, out, files = run_cli(["--threads", threads, "bcg", "--N", "3", "--count", "10"],
                               tmp_path)
    assert code == 2
    assert out == "" and files == {}
    assert "--threads must be >= 1" in capsys.readouterr().err
