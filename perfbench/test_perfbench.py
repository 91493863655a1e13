"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of the checkout.  The traced runs take about two
minutes: each workload runs traced twice at the same seed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7

# Per-layer counts and the workloads where each must be nonzero; on every
# other workload the layer is bypassed and the count must be exactly zero.
EXERCISED = {
    "graphs.net.vertices": {"naturalmap"},
    "mmgraph.dijkstra.calls": {"naturalmap"},
    "naturalmap.assemble_tensors.calls": {"naturalmap"},
    "naturalmap.natural_map_point.calls": {"naturalmap"},
    "barycenter.barycenter.calls": {"naturalmap", "contraction"},
    "hyperboloid.dist.calls": {"naturalmap", "transport", "contraction"},
    "hyperboloid.dist_many.calls": {"naturalmap", "contraction"},
    "hyperboloid.log_many.calls": {"naturalmap", "contraction"},
    "hyperboloid.exp.calls": {"naturalmap", "contraction"},
    "hyperboloid.project_to_sheet.calls": {"naturalmap", "contraction"},
    "measures.DiscreteMeasure.calls": {"naturalmap", "transport", "contraction"},
    "transport.wasserstein1.calls": {"transport", "contraction"},
    "transport.cells": {"transport", "contraction"},
    "bcg.bcg_scan.calls": {"bcg"},
    "bcg.bcg_scan.samples": {"bcg"},
    "cli.bytes_written": {"naturalmap", "transport", "bcg"},
    "io.load.busy_s": {"naturalmap", "transport"},
}


def run(workdir, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join(workdir, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=200)


_traced = {}


def traced(workload):
    """Two traced runs of `workload` at the same seed, run once per session."""
    if workload not in _traced:
        results = []
        for _ in range(2):
            out = run(ROOT, workload, 1)
            assert out.returncode == 0, out.stderr
            results.append(json.loads(out.stdout.splitlines()[-1]))
        _traced[workload] = results
    return _traced[workload]


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == LAYER_METRICS
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_tracer_wraps_every_import_site_and_restores():
    import barylab.cli
    import barylab.hyperboloid
    import barylab.naturalmap
    from barylab.mmgraph import MMGraph

    originals = (barylab.cli.run_natural_map, barylab.naturalmap.barycenter,
                 barylab.cli.wasserstein1, MMGraph.dijkstra, barylab.hyperboloid.dist)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = (barylab.cli.run_natural_map, barylab.naturalmap.barycenter,
                   barylab.cli.wasserstein1, MMGraph.dijkstra, barylab.hyperboloid.dist)
        for before, after in zip(originals, wrapped):
            assert after is not before and after.__wrapped__ is before
        assert "barylab.cli.bcg_scan" in tracer.sites["barylab.bcg.bcg_scan"]
        assert "barylab.cli.natural_map_point" in tracer.sites["barylab.naturalmap.natural_map_point"]
    finally:
        tracer.restore()
    assert (barylab.cli.run_natural_map, barylab.naturalmap.barycenter, barylab.cli.wasserstein1,
            MMGraph.dijkstra, barylab.hyperboloid.dist) == originals


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_confirm_the_bypass_table(workload):
    first, _ = traced(workload)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {name for name, _, _ in LAYER_METRICS}
    for name, exercised in EXERCISED.items():
        value = first["metrics"][name]["value"]
        if workload in exercised:
            assert value > 0, f"{name} is 0 on {workload}, which exercises it"
        else:
            assert value == 0, f"{name} is {value} on {workload}, which bypasses it"


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = traced(workload)
    exact = [name for name, unit, _ in LAYER_METRICS if unit in ("count", "B", "ratio")]
    assert {k: first["metrics"][k]["value"] for k in exact} == \
        {k: second["metrics"][k]["value"] for k in exact}


@pytest.mark.parametrize("workload", ["contraction", "transport"])
def test_untraced_run_reports_end_to_end_metrics(workload):
    out = run(ROOT, workload, 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "run_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run(str(tmp_path), "transport", 0)
    assert out.returncode != 0
    assert not out.stdout.strip()
