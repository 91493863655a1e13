"""One benchmark run of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --oracle

The worker makes the workload's inputs from the seed, then repeats whole
rounds of ops until ``--seconds`` of timed ops have passed (at least one
round).  Only ``op.run`` is timed; preparing and checking an op are not.
``--oracle`` makes the inputs and writes the reference results the checks
need (``Workload.oracle``) to ``.perfbench_out/oracle-<workload>-s<seed>.json``,
which the measuring worker reads; the oracle's code never runs there.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced rounds, and reports the per-layer
metrics of the traced rounds, per round, plus the tracing overhead (mean
traced round minus mean untraced round).  The spans are written to ``.perfbench_out/trace-<workload>-s<seed>.npz``.

Human-readable lines go first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

from tracer import EXACT_COUNTERS, UNITS, Tracer, layer_metrics
from workloads import WORKLOADS

OUT = ".perfbench_out"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MB"}


def oracle_path(workload, seed):
    return os.path.join(OUT, f"oracle-{workload}-s{seed}.json")


def env_record():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": package_version("scipy"), "git_sha": git_sha()}


def package_version(name):
    """Installed version, read from the package metadata without importing it."""
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def git_sha():
    """HEAD of the checkout, read from .git without running git; unknown outside a repo."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as fh:
            return next(line.split()[0] for line in fh if line.rstrip().endswith(ref))
    except (OSError, StopIteration):
        return "unknown"


class Loop:
    """Closed loop over a workload's ops: one op at a time, whole rounds."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failures = []
        self.first_counts = None
        self.count_mismatch = None

    def run(self, seconds, tracer=None):
        """Rounds until `seconds` of timed ops (at least one); per-round op times."""
        rounds = []
        timed = 0.0
        while not rounds or timed < seconds:
            before = tracer.snapshot() if tracer else None
            times = [self.run_op(op, tracer) for op in self.ops]
            rounds.append(times)
            timed += sum(times)
            if tracer:
                after = tracer.snapshot()
                counts = {k: after.get(k, 0) - before.get(k, 0) for k in EXACT_COUNTERS}
                if self.first_counts is None:
                    self.first_counts = counts
                elif counts != self.first_counts and self.count_mismatch is None:
                    self.count_mismatch = f"traced round counts {counts} != {self.first_counts}"
        return rounds

    def run_op(self, op, tracer):
        op.prepare()
        if tracer:
            tracer.op_id += 1
        self.attempted += 1
        error = None
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception:  # a failing op is counted, and the run goes on
            error = traceback.format_exc(limit=3)
        elapsed = perf_counter() - t0
        if error is None:
            try:
                error = op.check(result)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        if error is None and tracer and hasattr(op, "bytes_written"):
            tracer.counts["cli.bytes_written"] += op.bytes_written(result)
        if error is not None:
            self.failures.append(f"{op.label}: {error}")
        return elapsed


def tail(op_times):
    """Highest listed percentile with at least ten ops beyond it, or None."""
    ordered = sorted(op_times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        beyond = int(n * (1 - p / 100))
        if beyond >= 10:
            return p, ordered[n - beyond - 1], n
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--oracle", action="store_true")
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    if args.setup_only:
        return 0
    reference_path = oracle_path(args.workload, args.seed)
    if args.oracle:
        reference = workload.oracle()
        if reference is not None:
            with open(reference_path, "w", encoding="utf-8") as fh:
                json.dump(reference, fh)
        return 0
    if os.path.exists(reference_path):
        with open(reference_path, encoding="utf-8") as fh:
            workload.use_oracle(json.load(fh))
        os.remove(reference_path)
    try:
        return measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload):
    loop = Loop(workload.ops)
    env = env_record()
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# bypasses: {workload.bypasses}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if args.trace:
        # untraced and traced rounds alternate, so both see the same warm-up and drift
        plain, traced = [], []
        tracer = Tracer()
        while not traced or sum(map(sum, plain + traced)) < args.seconds:
            plain += loop.run(0.0)
            tracer.install()
            try:
                traced += loop.run(0.0, tracer)
            finally:
                tracer.restore()
        overhead = statistics.fmean(map(sum, traced)) - statistics.fmean(map(sum, plain))
        values = layer_metrics(tracer, len(traced), overhead)
        units = UNITS
        path = os.path.join(OUT, f"trace-{workload.name}-s{args.seed}.npz")
        tracer.save(path, json.dumps({"env": env, "workload": workload.name, "seed": args.seed,
                                      "traced_rounds": len(traced), "metrics": values}))
        print(f"# {len(traced)} traced round(s) alternating with {len(plain)} untraced; "
              f"{len(tracer.end)} spans written to {path}")
        for site, wrapped in sorted(tracer.sites.items()):
            print(f"# wrapped {site} at {', '.join(wrapped)}")
    else:
        rounds = loop.run(args.seconds)
        op_times = [t for r in rounds for t in r]
        values = {
            # The mean, not the median: the machine's speed switches between
            # regimes lasting seconds, and the median of many short rounds
            # snaps to one regime, while the mean weighs each by its time.
            "run_s": statistics.fmean(map(sum, rounds)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"# {len(rounds)} round(s) of {len(workload.ops)} op(s); run_s is the mean round")
        print(f"# round times (s): {' '.join(f'{sum(r):.3f}' for r in rounds)}")
        # Printed but not in the JSON result: over a round of unlike ops (five
        # bcg scans, four transport sizes) the median op flips between the two
        # middle op kinds from run to run, so it is too unsteady to gate on.
        print(f"op_p50_s {statistics.median(op_times)!r} s (median of {len(op_times)} ops)")
        found = tail(op_times)
        if found:
            p, value, n = found
            print(f"op_tail_s {value!r} s (p{p:g} of {n} ops)")
        else:
            print(f"op_tail_s n/a s ({len(op_times)} ops; a percentile needs ten ops beyond it)")
    failed = len(loop.failures)
    print(f"fail_ratio {failed / loop.attempted!r} ratio ({failed} of {loop.attempted} ops)")
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    for failure in loop.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    if loop.count_mismatch:
        print(f"FAILED {loop.count_mismatch}", file=sys.stderr)
    result = {
        "correct": failed == 0 and loop.count_mismatch is None,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
