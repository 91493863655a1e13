"""barylab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a barylab checkout; barylab is imported from
``src`` (``PYTHONPATH=src``), not from an installed package.  Workloads:
naturalmap, transport, contraction, bcg (see workloads.py for why each
exists and what it bypasses).

The workload runs in a fresh worker process with a pinned environment: one
BLAS/OpenMP thread and ``PYTHONHASHSEED=0``.  With ``--trace 0`` the run
first times ``SETUP_REPEATS`` fresh set-up processes (interpreter start,
imports, inputs made from the seed and written to files) and reports their
median as ``setup_s``.  An untimed process then computes the reference
results the checks need (the transport LP optima), so the oracle's code
stays out of the measured worker.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every output file of
the run is under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
WORKLOADS = ("naturalmap", "transport", "contraction", "bcg")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 30.0
DEADLINE_S = 170.0  # a run must end within 180 s


def pinned_env():
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.abspath("src"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def time_setup(cmd, env):
    """Wall time of one set-up process, from its start until it has exited.

    ``Popen.wait`` with a timeout polls with sleeps of up to 50 ms, which
    would round the time; a timer thread kills a hung process instead.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    elapsed = perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description="barylab benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "barylab", "__init__.py")):
        print("error: run from the root of a barylab checkout (src/barylab is missing)",
              file=sys.stderr)
        return 2

    # SIGTERM becomes SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = perf_counter()
    env = pinned_env()
    base = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = [time_setup(base + ["--setup-only"], env)
                 for _ in range(0 if args.trace else SETUP_REPEATS)]
        subprocess.run(base + ["--oracle"], env=env, check=True, stdout=subprocess.DEVNULL,
                       timeout=DEADLINE_S - (perf_counter() - started))
        remaining = DEADLINE_S - (perf_counter() - started)
        worker = subprocess.run(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, check=True, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.CalledProcessError as exc:
        print(f"error: worker exited with code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("error: a worker did not finish within the deadline", file=sys.stderr)
        return 1

    *lines, last = worker.stdout.splitlines()
    result = json.loads(last)
    if setup:
        setup_s = statistics.median(setup)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        lines.append(f"setup_s {setup_s!r} s (median of {SETUP_REPEATS} set-up processes)")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
