"""The four benchmark workloads: inputs made from a seed, the ops, their checks.

Every workload is a closed loop: one client, one op at a time, no
concurrency.  A *round* is a workload's fixed list of ops.  The worker
repeats rounds, so every op input recurs, and the stdout of a repeated CLI
op is compared byte for byte with its first run (barylab's output is
deterministic under ``--seed``; a timing must never come from a changed
output).

Ops call the user's entry points in-process: ``barylab.cli.main([...])``
for ``naturalmap``, ``wasserstein`` and ``bcg``, and the library API for
the contraction check.  They reach barylab through module attributes
(``cli.main``, ``barycenter.barycenter``, ...) at call time, so the traced
run's wrappers see them.

Each op has three parts: ``prepare`` (untimed), ``run`` (timed) and
``check`` (untimed).  ``check`` returns ``None`` or the reason the op failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from barylab import barycenter, cli, hyperboloid, measures, transport

DIM = 3  # every hyperbolic workload lives in H^3


def minkowski(a, b):
    return -a[..., 0] * b[..., 0] + np.sum(a[..., 1:] * b[..., 1:], axis=-1)


def h3_distance(p, q):
    """Hyperbolic distance by the chord formula, written here and not taken
    from barylab, so the checks stay independent of the code they check."""
    diff = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(minkowski(diff, diff), 0.0)))


def random_sites(rng, k, radius):
    """k points of H^3 at uniform direction and uniform radius <= `radius`."""
    u = rng.normal(size=(k, DIM))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    t = radius * rng.uniform(size=k)
    return np.column_stack([np.cosh(t), np.sinh(t)[:, None] * u])


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


class CliOp:
    """One ``barylab.cli.main(argv)`` call with stdout captured.

    All ops of a run share one ``--out-dir``, emptied before each op, so
    repeated ops print identical paths and the files left after an op are
    exactly what it wrote.
    """

    def __init__(self, label, argv, out_dir, check_summary):
        self.label = label
        self.argv = argv
        self.out_dir = out_dir
        self.check_summary = check_summary
        self.first_stdout = None

    def prepare(self):
        for entry in os.scandir(self.out_dir):
            os.remove(entry.path)

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, result):
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        if self.first_stdout is None:
            self.first_stdout = stdout
        elif stdout != self.first_stdout:
            return "stdout differs from the first run of the same op"
        return self.check_summary(json.loads(stdout))

    def bytes_written(self, result):
        """Bytes the op wrote: its stdout plus every file in ``--out-dir``."""
        files = sum(entry.stat().st_size for entry in os.scandir(self.out_dir))
        return len(result[1].encode()) + files


class Workload:
    """Base: ``setup`` makes the inputs from the seed and writes input files."""

    name = ""
    why = ""
    bypasses = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.out_dir = os.path.join(workdir, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.ops = []

    def setup(self):
        raise NotImplementedError

    def oracle(self):
        """Reference results the checks need, or None.  run.py computes them
        in a process of their own, so the measured process never loads the
        oracle's code and its peak memory is barylab's alone."""
        return None

    def use_oracle(self, reference):
        """Hand the checks the reference that ``oracle`` made."""


class NaturalMap(Workload):
    """README's documented ``barylab --seed S naturalmap`` run.

    Why: the lab's headline pipeline, and the only workload where
    ``graphs`` (fixture build, about half of an op) and ``mmgraph``
    (full Dijkstra from every sample and its one-ring, about a third) do
    most of the work; the rest is natural-map glue and barycenters on about
    1880 atoms.  The fixture is a 4-fold rotation net of radius 2 (about
    1880 vertices, depending on the seed), 12 samples x 3 values of s, plus
    a 4-sample deck-equivariance check.

    The config keeps the README's ``tail_tolerance: 10.0``.  With the CLI
    default of 2.0 every op exits 2 ("certified tail 7.056e+01 exceeds
    tolerance"): the truncation "certificate" reports a tail on a finite
    graph where nothing is truncated (ROADMAP item 3).  The traced
    ``naturalmap.mu_x_s.retained_ratio`` (1.0: every atom retained) keeps
    that defect visible.  Do not change the config or the seed to hide it.

    Bypasses: ``transport`` and ``bcg`` (0 calls).
    """

    name = "naturalmap"
    why = "README natural-map run: fixture build, full Dijkstra, tensors, barycenters on ~1880 atoms"
    bypasses = "transport, bcg"
    CONFIG = {
        "fixture": {"type": "rotation_net", "order": 4, "radius": 2.0, "spacing": 0.3},
        "s_factors": [1.1, 1.5, 2.0],
        "truncation_radius": 4.0,
        "tail_tolerance": 10.0,
        "entropy": {"r_min": 1.2, "r_max": 2.0, "step": 0.25},
    }

    def setup(self):
        config = write_json(os.path.join(self.workdir, "naturalmap.json"), self.CONFIG)
        argv = ["--seed", str(self.seed), "--out-dir", self.out_dir, "naturalmap", config]
        self.ops = [CliOp("rotation_net", argv, self.out_dir, self.check_summary)]

    @staticmethod
    def check_summary(summary):
        if summary["violations"] != 0:
            return f"{summary['violations']} gate violations"
        if not summary["equivariance"] <= 1e-6:
            return f"equivariance {summary['equivariance']!r} > 1e-6"
        return None


class Transport(Workload):
    """``barylab wasserstein MU NU`` with sites on H^3 and no graph.

    Why: the transportation simplex (about 55% of an op) and the per-pair
    scalar ``hyp.dist`` cost matrix (about 45%) do all the work.  Support
    sizes cycle through 50x50, 100x100 and 120x80 with random weights, and
    150x90 with uniform weights, which makes the simplex degenerate.

    Check: ``w1`` equals an independent HiGHS LP (``scipy.optimize.linprog``)
    on a cost computed here, within 1e-9 relative, and the plan's marginals
    equal the input weights.  The LP optima are solved once per run in a
    process of their own (``oracle``), so scipy never enters the measured
    process or its ``peak_rss_mb``.

    Bypasses: ``graphs``, ``mmgraph``, ``naturalmap``, ``barycenter`` and
    ``bcg`` (0 calls).
    """

    name = "transport"
    why = "CLI exact W1 on H^3 supports 50x50 to 150x90: simplex and scalar cost matrix, no graph"
    bypasses = "graphs, mmgraph, naturalmap, barycenter, bcg"
    SIZES = ((50, 50, "random"), (100, 100, "random"), (120, 80, "random"), (150, 90, "uniform"))
    RADIUS = 1.5

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.format_reported = False
        self.problems = {}
        for n, m, kind in self.SIZES:
            sides = []
            for k, tag in ((n, "mu"), (m, "nu")):
                sites = random_sites(rng, k, self.RADIUS)
                if kind == "uniform":
                    w = np.full(k, 1.0 / k)
                else:
                    w = rng.uniform(0.1, 1.0, size=k)
                    w /= w.sum()
                path = os.path.join(self.workdir, f"{tag}_{n}x{m}.json")
                write_json(path, {"atoms": [{"site": s.tolist(), "w": float(x)}
                                            for s, x in zip(sites, w)]})
                sides.append((path, sites, w))
            (mu_path, mu_sites, a), (nu_path, nu_sites, b) = sides
            problem = {"a": a, "b": b, "cost": h3_distance(mu_sites[:, None, :], nu_sites[None, :, :]),
                       "lp": None}
            label = f"{n}x{m}"
            self.problems[label] = problem
            argv = ["--out-dir", self.out_dir, "wasserstein", mu_path, nu_path]
            self.ops.append(CliOp(label, argv, self.out_dir,
                                  lambda summary, p=problem: self.check_plan(summary, p)))

    def oracle(self):
        return {label: lp_w1(p["a"], p["b"], p["cost"]) for label, p in self.problems.items()}

    def use_oracle(self, reference):
        for label, problem in self.problems.items():
            problem["lp"] = reference[label]

    def check_plan(self, summary, problem):
        if problem["lp"] is None:
            return "no LP optimum to check against (the oracle did not run)"
        w1, lp = summary["w1"], problem["lp"]
        if not abs(w1 - lp) <= 1e-9 * abs(lp):
            return f"w1 {w1!r} differs from the LP optimum {lp!r}"
        a = np.zeros_like(problem["a"])
        b = np.zeros_like(problem["b"])
        with open(summary["plan"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()[2:]  # comment line, CSV header
        wrapped = 0
        for line in lines:
            i, j, mass = line.split(",")
            if mass.startswith("np.float64(") and mass.endswith(")"):
                mass = mass[len("np.float64("):-1]
                wrapped += 1
            a[int(i)] += float(mass)
            b[int(j)] += float(mass)
        if wrapped and not self.format_reported:
            # A known output defect, reported on its own line rather than as a
            # failed op: the check asks for the plan's values, which are right.
            print(f"# defect: plan.csv prints {wrapped} of {len(lines)} masses as "
                  f"np.float64(...) (cli._fmt uses the numpy 2 repr of numpy scalars)")
            self.format_reported = True
        if len(lines) != summary["flows"]:
            return f"plan has {len(lines)} rows but reports {summary['flows']} flows"
        worst = max(np.max(np.abs(a - problem["a"])), np.max(np.abs(b - problem["b"])))
        if not worst <= 1e-9:
            return f"plan marginals differ from the weights by {worst:.3e}"
        return None


def lp_w1(a, b, cost):
    """Optimal transport cost by HiGHS: the oracle for the simplex."""
    from scipy.optimize import linprog
    from scipy.sparse import eye, kron, vstack

    n, m = cost.shape
    rows = vstack([kron(eye(n), np.ones((1, m))), kron(np.ones((1, n)), eye(m))]).tocsr()
    res = linprog(cost.ravel(), A_eq=rows, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


class Contraction(Workload):
    """Acceptance criterion 2 on pairs of 2-6-atom measures on H^3.

    One op builds both measures, takes ``barycenter(mu)``,
    ``barycenter(nu)`` and ``wasserstein1(mu, nu)`` with the hyperbolic
    metric through the library API.  Check: d(bar mu, bar nu) <=
    W1 (1 + 1e-6) + 2e-9, with d computed here.

    Why: ``barycenter`` (about two thirds of an op) and ``transport`` (one
    third) on tiny inputs, where per-call overhead dominates; here the
    ``barycenter`` and ``hyperboloid`` layers do most of the work.

    Bypasses: ``graphs``, ``mmgraph``, ``naturalmap``, ``bcg`` (0 calls)
    and the CLI (no bytes written, nothing loaded).
    """

    name = "contraction"
    why = "library barycenter + W1 on 2-6-atom measure pairs: per-call overhead of tiny solves"
    bypasses = "graphs, mmgraph, naturalmap, bcg, cli, io"
    PAIRS = 200
    RADIUS = 1.2

    def setup(self):
        rng = np.random.default_rng(self.seed)
        for k in range(self.PAIRS):
            sides = []
            for _ in range(2):
                atoms = int(rng.integers(2, 7))
                sides.append((random_sites(rng, atoms, self.RADIUS),
                              rng.uniform(0.2, 1.0, size=atoms)))
            self.ops.append(ContractionOp(f"pair{k}", sides))


def hyperbolic_metric(a, b):
    return float(hyperboloid.dist(np.array(a), np.array(b)))


class ContractionOp:
    def __init__(self, label, sides):
        self.label = label
        self.sides = sides

    def prepare(self):
        pass

    def run(self):
        mu, nu = (measures.DiscreteMeasure.from_points(p, w).normalize() for p, w in self.sides)
        bar_mu = barycenter.barycenter(mu).coords
        bar_nu = barycenter.barycenter(nu).coords
        w1, _ = transport.wasserstein1(mu, nu, metric=hyperbolic_metric)
        return bar_mu, bar_nu, w1

    def check(self, result):
        bar_mu, bar_nu, w1 = result
        d = float(h3_distance(bar_mu, bar_nu))
        if not d <= w1 * (1 + 1e-6) + 2e-9:
            return f"barycenter distance {d!r} exceeds W1 {w1!r}"
        return None


class BCG(Workload):
    """``barylab bcg --N N --d d --count 20000`` at the default ``--threads 1``.

    Why: the only user of ``bcg``, and the heaviest user of the CLI's CSV
    formatting (about 4 MB per op; formatting about 58% of an op,
    ``bcg_scan`` about 33%).  One op per (N, d) of acceptance 6's set.

    An op scans 20000 samples, one ``bcg_scan`` chunk, so a round of five
    ops (1e5 samples) takes about 2.6 s and a run holds several rounds.
    At acceptance 6's 1e5 samples per op a round took about 12.5 s, a run
    held one or two, and each op built about 100 MB of CSV rows (peak RSS
    170 MB): that made ``run_s`` spread past its bound between runs of the
    same code on a shared host.  Time per sample is about the same at both sizes.

    Check: exit 0, zero violations, ``max_ratio <= bound``.

    Bypasses: ``graphs``, ``mmgraph``, ``naturalmap``, ``barycenter``,
    ``hyperboloid``, ``measures`` and ``transport`` (0 calls).
    """

    name = "bcg"
    why = "CLI determinant-inequality scans, 2e4 samples for each of five (N, d): bcg_scan and CSV output"
    bypasses = "graphs, mmgraph, naturalmap, barycenter, hyperboloid, measures, transport"
    CASES = ((3, 1), (4, 1), (5, 1), (4, 2), (6, 2))
    COUNT = 20_000

    def setup(self):
        for N, d in self.CASES:
            argv = ["--seed", str(self.seed), "--out-dir", self.out_dir,
                    "bcg", "--N", str(N), "--d", str(d), "--count", str(self.COUNT)]
            self.ops.append(CliOp(f"N{N}d{d}", argv, self.out_dir, self.check_summary))

    @staticmethod
    def check_summary(summary):
        if summary["violations"] != 0:
            return f"{summary['violations']} violations"
        if not summary["max_ratio"] <= summary["bound"]:
            return f"max_ratio {summary['max_ratio']!r} > bound {summary['bound']!r}"
        return None


WORKLOADS = {w.name: w for w in (NaturalMap, Transport, Contraction, BCG)}
