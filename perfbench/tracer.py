"""Span tracer for the traced benchmark run, installed from outside barylab.

``Tracer.install`` wraps the public functions of each layer at every import
site: each attribute of a loaded ``barylab`` module that is bound to the
function (``barylab.cli.run_natural_map``, ``barylab.naturalmap.barycenter``,
``barylab.cli.wasserstein1``, every ``barylab.hyperboloid.*`` user, ...),
and methods on their classes (``MMGraph.dijkstra``).  A span is (name,
start, end, parent span, op id); spans stay in memory in flat arrays and
are written out when the run ends.  Counters (settled vertices, barycenter
iterations, transport cells, ...) are taken at the same boundaries.

``busy_s`` of a layer is the summed duration of its spans; ``self_s``
subtracts the parts covered by its traced children.
"""

from __future__ import annotations

import array
import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

TRANSPORT_SIZES = ("50x50", "100x100", "120x80", "150x90")
HYPERBOLOID = ("dist", "dist_many", "log_many", "exp", "project_to_sheet")

# (metric, unit, better): every per-layer metric a traced run reports, in order.
LAYER_METRICS = (
    [("graphs.rotation_symmetric_net.busy_s", "s", "lower"),
     ("graphs.net.vertices", "count", "lower"),
     ("graphs.net.edges", "count", "lower"),
     ("mmgraph.dijkstra.calls", "count", "lower"),
     ("mmgraph.dijkstra.busy_s", "s", "lower"),
     ("mmgraph.dijkstra.settled", "count", "lower"),
     ("mmgraph.dijkstra.us_per_settled", "us", "lower"),
     ("mmgraph.MMGraph.init.busy_s", "s", "lower"),
     ("mmgraph.volume_entropy.busy_s", "s", "lower")]
    + [(f"naturalmap.{f}.self_s", "s", "lower")
       for f in ("run_natural_map", "assemble_tensors", "mu_x_s",
                 "pushforward_with_fibers", "source_gradients")]
    + [("naturalmap.assemble_tensors.calls", "count", "lower"),
       ("naturalmap.natural_map_point.calls", "count", "lower"),
       ("naturalmap.natural_map_point.busy_s", "s", "lower"),
       ("naturalmap.jacobian_formula.busy_s", "s", "lower"),
       ("naturalmap.mu_x_s.retained_ratio", "ratio", "higher"),
       ("barycenter.barycenter.calls", "count", "lower"),
       ("barycenter.barycenter.busy_s", "s", "lower"),
       ("barycenter.barycenter.iterations", "count", "lower"),
       ("barycenter.barycenter.atoms", "count", "lower"),
       ("barycenter.barycenter.us_per_atom_iter", "us", "lower")]
    + [(f"hyperboloid.{f}.{k}", u, "lower")
       for f in HYPERBOLOID for k, u in (("calls", "count"), ("busy_s", "s"))]
    + [("measures.DiscreteMeasure.calls", "count", "lower"),
       ("measures.DiscreteMeasure.busy_s", "s", "lower"),
       ("measures.DiscreteMeasure.merge_ratio", "ratio", "higher"),
       ("transport.wasserstein1.calls", "count", "lower"),
       ("transport.wasserstein1.self_s", "s", "lower"),
       ("transport.cost_matrix_from_metric.busy_s", "s", "lower"),
       ("transport.cells", "count", "lower"),
       ("transport.flows", "count", "lower")]
    + [(f"transport.wasserstein1.p50_s.{size}", "s", "lower") for size in TRANSPORT_SIZES]
    + [("bcg.bcg_scan.calls", "count", "lower"),
       ("bcg.bcg_scan.busy_s", "s", "lower"),
       ("bcg.bcg_scan.samples", "count", "lower"),
       ("bcg.bcg_scan.outside_ratio", "ratio", "lower"),
       ("bcg.bcg_scan.us_per_sample", "us", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("cli.bytes_written", "B", "lower"),
       ("io.load.busy_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)

UNITS = {name: unit for name, unit, _ in LAYER_METRICS}

# Counters that must repeat exactly between traced rounds and traced runs.
EXACT_COUNTERS = (
    "mmgraph.dijkstra.calls", "mmgraph.dijkstra.settled",
    "barycenter.barycenter.calls", "barycenter.barycenter.iterations",
    "barycenter.barycenter.atoms", "transport.cells", "transport.flows",
    "bcg.bcg_scan.samples", "bcg.bcg_scan.outside_domain", "cli.bytes_written",
)


# -- counters taken when a traced call returns: hook(tracer, seconds, result, args, kwargs)

def _net(t, sec, result, args, kwargs):
    graph = result[0]
    t.counts["graphs.net.vertices"] += graph.n
    t.counts["graphs.net.edges"] += len(graph.edges)


def _dijkstra(t, sec, result, args, kwargs):
    t.counts["mmgraph.dijkstra.settled"] += len(result)


def _mu_x_s(t, sec, result, args, kwargs):
    cover = args[0]
    dists = kwargs.get("dists", args[3] if len(args) > 3 else None)
    t.counts["naturalmap.mu_x_s.retained"] += len(result[0])
    t.counts["naturalmap.mu_x_s.candidates"] += cover.n if dists is None else len(dists)


def _barycenter(t, sec, result, args, kwargs):
    atoms = len(args[0])
    t.counts["barycenter.barycenter.iterations"] += result.iterations
    t.counts["barycenter.barycenter.atoms"] += atoms
    t.counts["barycenter.barycenter.atom_iters"] += atoms * result.iterations


def _measure(t, sec, result, args, kwargs):
    t.counts["measures.DiscreteMeasure.inputs"] += len(args[1])
    t.counts["measures.DiscreteMeasure.atoms"] += len(args[0].sites)


def _wasserstein1(t, sec, result, args, kwargs):
    mu, nu = args[0], args[1]
    t.counts["transport.cells"] += len(mu) * len(nu)
    t.counts["transport.flows"] += len(result[1].flows)
    t.samples[f"transport.wasserstein1.p50_s.{len(mu)}x{len(nu)}"].append(sec)


def _bcg_scan(t, sec, result, args, kwargs):
    t.counts["bcg.bcg_scan.samples"] += result.count
    t.counts["bcg.bcg_scan.outside_domain"] += result.outside_domain


# (module, attribute, span name, hook) for functions, wrapped at every import site
FUNCTIONS = (
    [("barylab.graphs", "rotation_symmetric_net", "graphs.rotation_symmetric_net", _net),
     ("barylab.mmgraph", "volume_entropy", "mmgraph.volume_entropy", None)]
    + [("barylab.naturalmap", f, f"naturalmap.{f}", None)
       for f in ("run_natural_map", "assemble_tensors", "pushforward_with_fibers",
                 "source_gradients", "natural_map_point", "jacobian_formula")]
    + [("barylab.naturalmap", "mu_x_s", "naturalmap.mu_x_s", _mu_x_s),
       ("barylab.barycenter", "barycenter", "barycenter.barycenter", _barycenter)]
    + [("barylab.hyperboloid", f, f"hyperboloid.{f}", None) for f in HYPERBOLOID]
    + [("barylab.transport", "wasserstein1", "transport.wasserstein1", _wasserstein1),
       ("barylab.transport", "cost_matrix_from_metric", "transport.cost_matrix_from_metric", None),
       ("barylab.bcg", "bcg_scan", "bcg.bcg_scan", _bcg_scan),
       ("barylab.cli", "main", "cli.main", None)]
    + [("barylab.io", f, "io.load", None)
       for f in ("load_json", "load_graph", "load_measure", "load_embedding",
                 "load_simplicial_map")]
)

# (module, class, method, span name, hook) for methods, wrapped on the class
METHODS = (
    ("barylab.mmgraph", "MMGraph", "dijkstra", "mmgraph.dijkstra", _dijkstra),
    ("barylab.mmgraph", "MMGraph", "__init__", "mmgraph.MMGraph.init", None),
    ("barylab.measures", "DiscreteMeasure", "__init__", "measures.DiscreteMeasure", _measure),
)


class Tracer:
    """In-memory spans and counters; ``install``/``restore`` patch barylab."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []
        self.op_id = -1
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self.sites = defaultdict(list)
        self._undo = []

    def wrap(self, name, fn, hook):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.end)
            stack = self._stack
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, self.end[idx] - self.start[idx], result, args, kwargs)
            return result

        return traced

    def install(self):
        """Wrap every function of FUNCTIONS at each import site, and METHODS."""
        self.sites.clear()
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "barylab" or n.startswith("barylab.")]
        for module, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, hook)
            for mod in loaded:
                for site, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, site, wrapper)
                        self._undo.append((mod, site, original))
                        self.sites[f"{module}.{attr}"].append(f"{mod.__name__}.{site}")
        for module, cls_name, attr, name, hook in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original, hook))
            self._undo.append((cls, attr, original))
            self.sites[f"{module}.{cls_name}.{attr}"].append(f"{module}.{cls_name}.{attr}")

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def snapshot(self):
        """The counters so far, with the span count of each name as `<name>.calls`."""
        calls = np.bincount(np.frombuffer(self.name, dtype=np.int32), minlength=len(self.names))
        snap = dict(self.counts)
        snap.update({f"{n}.calls": int(c) for n, c in zip(self.names, calls)})
        return snap

    def layer_times(self):
        """busy and self seconds per span name, over every span recorded."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int32)
        nested = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[nested], dur[nested])
        k = len(self.names)
        busy = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - covered, minlength=k)
        return ({n: float(b) for n, b in zip(self.names, busy)},
                {n: float(s) for n, s in zip(self.names, own)})

    def save(self, path, meta):
        """Write every span (name id, start, end, parent, op) and the name table."""
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 names=np.array(self.names), meta=np.array(meta))


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer, rounds, overhead_s):
    """Per-layer metrics per traced round (every traced round does the same work)."""
    busy, own = tracer.layer_times()
    snap = tracer.snapshot()
    c = defaultdict(int, {k: v / rounds for k, v in snap.items()})
    b = defaultdict(float, {k: v / rounds for k, v in busy.items()})
    s = defaultdict(float, {k: v / rounds for k, v in own.items()})
    m = {
        "graphs.rotation_symmetric_net.busy_s": b["graphs.rotation_symmetric_net"],
        "graphs.net.vertices": c["graphs.net.vertices"],
        "graphs.net.edges": c["graphs.net.edges"],
        "mmgraph.dijkstra.calls": c["mmgraph.dijkstra.calls"],
        "mmgraph.dijkstra.busy_s": b["mmgraph.dijkstra"],
        "mmgraph.dijkstra.settled": c["mmgraph.dijkstra.settled"],
        "mmgraph.dijkstra.us_per_settled": _ratio(b["mmgraph.dijkstra"], c["mmgraph.dijkstra.settled"], 1e6),
        "mmgraph.MMGraph.init.busy_s": b["mmgraph.MMGraph.init"],
        "mmgraph.volume_entropy.busy_s": b["mmgraph.volume_entropy"],
    }
    for f in ("run_natural_map", "assemble_tensors", "mu_x_s",
              "pushforward_with_fibers", "source_gradients"):
        m[f"naturalmap.{f}.self_s"] = s[f"naturalmap.{f}"]
    m.update({
        "naturalmap.assemble_tensors.calls": c["naturalmap.assemble_tensors.calls"],
        "naturalmap.natural_map_point.calls": c["naturalmap.natural_map_point.calls"],
        "naturalmap.natural_map_point.busy_s": b["naturalmap.natural_map_point"],
        "naturalmap.jacobian_formula.busy_s": b["naturalmap.jacobian_formula"],
        "naturalmap.mu_x_s.retained_ratio": _ratio(c["naturalmap.mu_x_s.retained"],
                                                   c["naturalmap.mu_x_s.candidates"]),
        "barycenter.barycenter.calls": c["barycenter.barycenter.calls"],
        "barycenter.barycenter.busy_s": b["barycenter.barycenter"],
        "barycenter.barycenter.iterations": c["barycenter.barycenter.iterations"],
        "barycenter.barycenter.atoms": c["barycenter.barycenter.atoms"],
        "barycenter.barycenter.us_per_atom_iter": _ratio(b["barycenter.barycenter"],
                                                         c["barycenter.barycenter.atom_iters"], 1e6),
    })
    for f in HYPERBOLOID:
        m[f"hyperboloid.{f}.calls"] = c[f"hyperboloid.{f}.calls"]
        m[f"hyperboloid.{f}.busy_s"] = b[f"hyperboloid.{f}"]
    m.update({
        "measures.DiscreteMeasure.calls": c["measures.DiscreteMeasure.calls"],
        "measures.DiscreteMeasure.busy_s": b["measures.DiscreteMeasure"],
        "measures.DiscreteMeasure.merge_ratio": _ratio(c["measures.DiscreteMeasure.atoms"],
                                                       c["measures.DiscreteMeasure.inputs"]),
        "transport.wasserstein1.calls": c["transport.wasserstein1.calls"],
        "transport.wasserstein1.self_s": s["transport.wasserstein1"],
        "transport.cost_matrix_from_metric.busy_s": b["transport.cost_matrix_from_metric"],
        "transport.cells": c["transport.cells"],
        "transport.flows": c["transport.flows"],
    })
    for size in TRANSPORT_SIZES:
        key = f"transport.wasserstein1.p50_s.{size}"
        m[key] = statistics.median(tracer.samples[key]) if tracer.samples[key] else 0.0
    m.update({
        "bcg.bcg_scan.calls": c["bcg.bcg_scan.calls"],
        "bcg.bcg_scan.busy_s": b["bcg.bcg_scan"],
        "bcg.bcg_scan.samples": c["bcg.bcg_scan.samples"],
        "bcg.bcg_scan.outside_ratio": _ratio(c["bcg.bcg_scan.outside_domain"], c["bcg.bcg_scan.samples"]),
        "bcg.bcg_scan.us_per_sample": _ratio(b["bcg.bcg_scan"], c["bcg.bcg_scan.samples"], 1e6),
        "cli.main.self_s": s["cli.main"],
        "cli.bytes_written": c["cli.bytes_written"],
        "io.load.busy_s": b["io.load"],
        "trace.overhead_s": overhead_s,
    })
    # counts are identical in every traced round, so the per-round value is whole
    return {k: int(v) if UNITS[k] in ("count", "B") else float(v) for k, v in m.items()}
