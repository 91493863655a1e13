"""perfbench's tracer wraps barylab functions by (module, attribute) name;
a rename in barylab would break a traced benchmark run silently.  This
reads the tracer's tables from its file and checks that every name
resolves, and that the hooks which read a function's arguments and result
still read them right."""

import importlib
import importlib.util
import math
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for module, attr, _, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for module, cls, attr, _, _ in tracer.METHODS:
        owner = getattr(importlib.import_module(module), cls)
        assert callable(owner.__dict__.get(attr)), f"{module}.{cls}.{attr}"


def test_cli_import_sites_the_benchmark_tests_expect():
    import barylab.bcg
    import barylab.cli
    import barylab.naturalmap

    assert barylab.cli.natural_map_point is barylab.naturalmap.natural_map_point
    assert barylab.cli.bcg_scan is barylab.bcg.bcg_scan


def test_mu_x_s_hook_counts_real_calls():
    # the hook reads `dists` as args[3] or kwargs["dists"] (the cover's size
    # when omitted) and the atoms as result[0]
    from barylab import graphs
    from barylab.naturalmap import NaturalMapConfig, mu_x_s

    tracer = load_tracer()
    t = tracer.Tracer()
    traced = t.wrap("naturalmap.mu_x_s", mu_x_s, tracer._mu_x_s)
    g = graphs.regular_tree(3, 6)  # 190 vertices, 22 within distance 3 of the root
    cfg = NaturalMapConfig(s=1.5, truncation_radius=3.0, h_estimate=math.log(2),
                           tail_tolerance=1.0)
    row = g.distances(0)
    results = [traced(g, 0, cfg, row), traced(g, 0, cfg, dists=row), traced(g, 0, cfg)]
    assert all(np.array_equal(r[0], results[0][0]) for r in results)
    assert len(results[0][0]) == 22 and g.n == 190
    assert t.counts["naturalmap.mu_x_s.retained"] == 3 * 22
    assert t.counts["naturalmap.mu_x_s.candidates"] == 3 * 190
    assert t.snapshot()["naturalmap.mu_x_s.calls"] == 3
    ratio = tracer.layer_metrics(t, 1, 0.0)["naturalmap.mu_x_s.retained_ratio"]
    assert ratio == 22 / 190
