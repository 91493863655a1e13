"""perfbench's tracer wraps barylab functions by (module, attribute) name;
a rename in barylab would break a traced benchmark run silently.  This
reads the tracer's tables from its file and checks that every name
resolves."""

import importlib
import importlib.util
import os

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
