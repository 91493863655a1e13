"""Command-line front end: JSON in, CSV/JSON out, deterministic under --seed.

Commands: entropy, barycenter, wasserstein, naturalmap, bcg, indices,
coarea.  Global flags: --seed, --tol, --threads, --out-dir.  Exit codes:
0 success, 1 assertion or bound violation, 2 input error.  Every report
embeds the tool version and a digest of the effective configuration, and
contains no timestamps, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__, fixtures, hyperboloid as hyp
from .barycenter import barycenter
from .bcg import bcg_scan
from .errors import BarylabError, BoundViolationError, ConfigurationError, SolverFailureError
from .fixtures import NUMBER, NUMBERS, POSITIVE, interval
from .indices import coarea_check, ind_H_degree, pre_count, stallings_index
from .io import (
    load_embedding,
    load_graph,
    load_json,
    load_measure,
    load_simplicial_map,
)
from .mmgraph import volume_entropy
from .naturalmap import NaturalMapConfig, deck_equivariance, entropy_volume_report, gates
# natural_map_point is not called here: perfbench's tracer wraps this import site
from .naturalmap import natural_map_point, run_natural_map, worst_gates  # noqa: F401
from .transport import wasserstein1


def _digest(config) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _stamp(config):
    return {"version": __version__, "config_digest": _digest(config)}


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _fmt(x):
    if isinstance(x, float):
        return repr(float(x))
    text = str(x)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'  # RFC 4180
    return text


def _cells(col):
    if not isinstance(col, np.ndarray):
        return map(_fmt, col)
    # a numpy string column holds cells already formatted by _fmt
    return col.tolist() if col.dtype.kind == "U" else map(repr, col.tolist())


def _write_csv(out_dir, name, config, header, columns):
    """Write a CSV report (version/digest comment, header, one row per column
    entry) to out_dir/name and return its path.  Numeric numpy columns skip
    _fmt (repr of each float); numpy string columns are written as is."""
    cells = [_cells(col) for col in columns]
    lines = [f"# barylab {__version__} config {_digest(config)}", ",".join(header)]
    lines += map(",".join, zip(*cells))
    path = os.path.join(out_dir, name)
    _write(path, "\n".join(lines) + "\n")
    return path


def _print_json(payload):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_entropy(args):
    g = load_graph(args.graph)
    x = g.vertex(args.basepoint) if args.basepoint is not None else g.vertices[0]
    est = volume_entropy(g, x, args.rmin, args.rmax, step=args.step)
    config = {"command": "entropy", "graph": args.graph, "basepoint": str(x),
              "rmin": args.rmin, "rmax": args.rmax, "step": args.step}
    out = _write_csv(args.out_dir, "entropy.csv", config, ["R", "log_mass"],
                     [est.radii, [math.log(mass) for mass in est.masses]])
    _print_json({**_stamp(config), "h": est.h, "window": list(est.window),
                 "residual": est.residual, "csv": out})
    return 0


def cmd_barycenter(args):
    nu = load_measure(args.measure)
    res = barycenter(nu, tol=args.tol)
    config = {"command": "barycenter", "measure": args.measure, "tol": args.tol}
    _print_json({**_stamp(config),
                 "point": [float(c) for c in res.coords],
                 "gradient_norm": res.gradient_norm,
                 "iterations": res.iterations,
                 "objective": res.objective})
    return 0


def cmd_wasserstein(args):
    mu = load_measure(args.mu)
    nu = load_measure(args.nu)
    if {isinstance(m.sites, np.ndarray) for m in (mu, nu)} != {not args.graph}:
        raise ConfigurationError("wasserstein takes measures on vertex ids with --graph, "
                                 "on points of H^n without")
    if args.graph:
        g = load_graph(args.graph)
        targets = [g.index[g.vertex(b)] for b in nu.sites]
        cost = g.distance_rows([g.vertex(a) for a in mu.sites], columns=targets)
    else:
        cost = hyp.dist(mu.sites[:, None], nu.sites[None])
    value, plan = wasserstein1(mu, nu, cost=cost)
    config = {"command": "wasserstein", "mu": args.mu, "nu": args.nu,
              "graph": args.graph}
    out = _write_csv(args.out_dir, "plan.csv", config, ["source", "target", "mass"],
                     zip(*plan.flows))
    _print_json({**_stamp(config), "w1": value, "plan": out,
                 "flows": len(plan.flows), "pivots": plan.pivots, "bland": plan.bland})
    return 0


# naturalmap's own fields, name -> (default, domain); a None default is unset
NATURALMAP_FIELDS = {
    "truncation_radius": (4.0, POSITIVE), "tail_tolerance": (2.0, POSITIVE),
    "mesh_radius": (None, POSITIVE), "h_override": (None, NUMBER),
    "num_samples": (12, interval(1, integer=True)),
    "s_values": (None, NUMBERS), "s_factors": ([1.1, 1.5, 2.0], NUMBERS),
}
ENTROPY_FIELDS = {"r_min": (0.8, interval(0)), "r_max": (1.8, POSITIVE), "step": (0.25, POSITIVE)}


def cmd_naturalmap(args):
    config = load_json(args.config)
    opts = fixtures.read_fields(config, NATURALMAP_FIELDS, "a naturalmap config")
    ew = fixtures.read_fields(config.get("entropy", {}), ENTROPY_FIELDS, "entropy")
    if "fixture" in config:
        cover, images, deck, rot = fixtures.from_spec(
            config["fixture"], args.seed, builds=("net",), default="rotation_net")
    else:
        cover = load_graph(config["graph"])
        images = load_embedding(load_json(config["embedding"]), cover)
        deck = rot = None
    o = hyp.basepoint(images.shape[1] - 1)
    base = cover.vertices[int(np.argmin(hyp.dist_many(o, images)))]
    est = volume_entropy(cover, base, ew["r_min"], ew["r_max"], step=ew["step"])
    h_est = est.h if opts["h_override"] is None else opts["h_override"]
    s_values = opts["s_values"] or [f * h_est for f in opts["s_factors"]]
    cfg = NaturalMapConfig(
        s=s_values[0],
        truncation_radius=opts["truncation_radius"],
        h_estimate=h_est,
        h_residual=est.residual,
        tail_tolerance=opts["tail_tolerance"],
    )
    if "sample_points" in config:
        samples = [cover.vertex(v) for v in config["sample_points"]]
        if not samples:
            raise ConfigurationError("sample_points is empty")
    else:
        dist0 = cover.dijkstra(base)
        samples = sorted(cover.vertices, key=lambda v: (dist0[v], str(v)))[:opts["num_samples"]]
    run = run_natural_map(cover, images, cfg, samples, s_values=s_values,
                          mesh_radius=opts["mesh_radius"])
    n = run.records[0].tensors.dim
    h0 = n - 1
    report = entropy_volume_report(run, h0=h0)
    tables = [gates(r, h0) for r in run.records]
    equivariance = None
    if deck is not None:
        gate = deck_equivariance(cover, images, deck, rot, run.for_s(s_values[0])[:4], cfg)
        equivariance = gate.value
        tables.append([gate])
    violations = sum(not all(g.passed for g in table) for table in tables)
    rows = []
    for r in run.records:
        bound = r.jac_bound(h0)
        rows.append((
            str(r.x), r.s, *[float(c) for c in r.point], r.trace_H,
            r.h_deviation, r.det_K, r.jac_formula, r.jac_mesh, bound,
            bound - r.jac_formula, r.tensors.eta_mass, r.tensors.tail_bound,
            r.tensors.excluded_mass, r.cond, r.det_B, r.cs_gap,
        ))
    header = (["x", "s"] + [f"F{i}" for i in range(n + 1)]
              + ["trace_H", "H_dev", "det_K", "jac_formula", "jac_mesh",
                 "bound", "gap", "eta_mass", "tail_bound", "excluded_mass",
                 "cond_LK", "det_B", "cs_gap"])
    run_csv = _write_csv(args.out_dir, "naturalmap_run.csv", config, header, zip(*rows))
    summary = {
        **_stamp(config),
        "h_estimate": h_est,
        "h_residual": est.residual,
        "vertices": cover.n,
        "samples": [str(x) for x in samples],
        "s_values": s_values,
        "per_s": report,
        "equivariance": equivariance,
        "gates": worst_gates(tables),
        "violations": violations,
        "run_csv": run_csv,
    }
    out = os.path.join(args.out_dir, "naturalmap_summary.json")
    _write(out, json.dumps(summary, indent=2, sort_keys=True, default=float) + "\n")
    _print_json(summary)
    return 1 if violations else 0


def cmd_bcg(args):
    config = {"command": "bcg", "N": args.N, "d": args.d,
              "count": args.count, "seed": args.seed}
    report = bcg_scan(args.N, args.d, args.count, rng=args.seed,
                      threads=args.threads)
    header = (["sample"] + [f"mu{j}" for j in range(args.N)]
              + ["ratio", "bound", "deficit", "margin"])
    out = _write_csv(args.out_dir, "bcg_scan.csv", config, header,
                     [np.arange(report.count), *report.eigenvalues.T, report.ratios,
                      np.full(report.count, _fmt(report.bound)), report.deficits,
                      report.bound - report.ratios])
    _print_json({**_stamp(config), **report.summary(), "csv": out})
    return 0


def cmd_indices(args):
    data = load_json(args.input)
    config = {"command": "indices", "input": args.input, "mode": args.mode,
              "samples": args.samples, "seed": args.seed}
    out = dict(_stamp(config))
    smap = None
    if "fixture" in data:
        smap, fixture_data = fixtures.from_spec(data["fixture"], args.seed,
                                                builds=("simplicial map",))
        data = {**fixture_data, **data}
    elif "simplicial_map" in data:
        smap = load_simplicial_map(data["simplicial_map"])
    if smap is not None and args.mode in ("pre", "all"):
        out["pre"] = pre_count(smap, args.samples, rng=args.seed)
    if smap is not None and args.mode in ("degree", "indh", "all"):
        out["ind_H"] = ind_H_degree(smap, rng=args.seed)
    if args.mode in ("indpi", "all"):
        if "subgroup" in data:
            sg = data["subgroup"]
            out["ind_pi"] = stallings_index(sg["generators"], sg["rank"])
        elif "declared_ind_pi" in data:
            out["ind_pi"] = data["declared_ind_pi"]
    if args.mode == "all" and "pre" in out and "ind_H" in out:
        consistent = out["pre"] >= out["ind_H"] - 1e-9
        if "ind_pi" in out and out["ind_pi"] > 0:
            consistent = consistent and out["ind_H"] % out["ind_pi"] == 0
            consistent = consistent and out["pre"] >= out["ind_pi"] - 1e-9
        out["consistency"] = "OK" if consistent else "VIOLATED"
    _print_json(out)
    if out.get("consistency") == "VIOLATED":
        return 1
    return 0


def cmd_coarea(args):
    data = load_json(args.input)
    config = {"command": "coarea", "input": args.input,
              "samples": args.samples, "seed": args.seed}
    if "fixture" in data:
        fmap, _ = fixtures.from_spec(data["fixture"], args.seed)
    else:
        fmap = load_simplicial_map(data["simplicial_map"])
    report = coarea_check(fmap, samples=args.samples, rng=args.seed)
    _print_json({**_stamp(config), **report})
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="barylab",
        description="barycenter / natural-map numerical laboratory",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed determining every stochastic choice")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="solver tolerance where applicable")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for scans, >= 1 (results unchanged)")
    parser.add_argument("--out-dir", default=".",
                        help="directory for CSV/JSON artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="volume entropy of a graph")
    p.add_argument("graph")
    p.add_argument("--basepoint", default=None)
    p.add_argument("--rmin", type=float, required=True)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--step", type=float, default=1.0)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("barycenter", help="d^2-barycenter of a measure on H^n")
    p.add_argument("measure")
    p.set_defaults(func=cmd_barycenter)

    p = sub.add_parser("wasserstein", help="exact W1 between measures")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--graph", default=None,
                   help="graph whose shortest-path metric to use for id sites")
    p.set_defaults(func=cmd_wasserstein)

    p = sub.add_parser("naturalmap", help="full natural-map pipeline run")
    p.add_argument("config")
    p.set_defaults(func=cmd_naturalmap)

    p = sub.add_parser("bcg", help="determinant inequality scan")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--count", type=int, default=10_000)
    p.set_defaults(func=cmd_bcg)

    p = sub.add_parser("indices", help="preimage/degree/subgroup indices")
    p.add_argument("input")
    p.add_argument("--mode", default="all",
                   choices=["pre", "degree", "indh", "indpi", "all"])
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_indices)

    p = sub.add_parser("coarea", help="coarea identity check")
    p.add_argument("input")
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=cmd_coarea)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        if args.threads < 1:
            raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except (BoundViolationError, SolverFailureError) as exc:
        sys.stderr.write(f"violation: {exc}\n")
        return 1
    except (BarylabError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
