"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/ledger.py [--seeds 1-10] [--write perfbench/baseline.json]

Run it from the root of a barylab checkout.  For every workload it runs
``run.py`` once per seed (untraced) for BENCHMARK.json's ``run_seconds``,
then once traced, and prints each metric's median and its spread: the
distance between the first and third quartiles of the per-seed values
(``statistics.quantiles(n=4)``) as a share of the median.  ``--write``
records the summary, the traced per-layer metrics and the environment as a
ledger entry.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("naturalmap", "transport", "contraction", "bcg")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         check=True, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = out.stdout.splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return json.loads(lines[-1]), env


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--write", default=None)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    ledger = {"seeds": [args.seeds[0], args.seeds[-1]], "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        per_metric = {}
        attempted = failed = 0
        for seed in args.seeds:
            result, env = run(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v[1][-1]:.4g}" for k, v in per_metric.items()), flush=True)
        summary = {name: {"unit": unit, "median": statistics.median(values),
                          "spread": spread(values), "values": values}
                   for name, (unit, values) in per_metric.items()}
        for name, s in summary.items():
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {100 * s['spread']:.2f}%", flush=True)
        traced, _ = run(workload, args.seeds[0], seconds, 1) if args.write else (None, None)
        ledger["workloads"][workload] = {
            "fail_ratio": failed / attempted, "attempted": attempted, "end_to_end": summary,
            "per_layer_seed": args.seeds[0] if traced else None,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()} if traced else None,
        }
        ledger["env"] = env
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
