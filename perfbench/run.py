"""qillum benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload W|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/qillum`` must exist).
Workloads: spectral_nb3, mc_mgrid, mc_rare, qfi_converge (see NOTES.md).

Each job is a fresh interpreter (``job.py``) with BLAS pinned to one
thread and ``simulate --threads 1``; jobs run back to back, one client,
until the next one would end after ``--seconds``.  Set-up probes (fresh
interpreters that only import ``qillum.cli``) then fill the time left
over.
After the timed jobs, every op's outputs are checked (``workloads.py``)
and the outputs of all jobs must be byte-identical.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs, prints the per-layer metrics of the traced
ones and the tracing overhead, and requires the traced outputs to be
byte-identical to the untraced ones.

A result file with the metrics, every job and the environment goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy
from scipy.special import betainc

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BLAS_THREADS = 1
MIN_SETUP_PROBES = 3
MAX_SETUP_PROBES = 12
JOB_TIMEOUT_S = 150.0


def declared_metrics(trace):
    """Metric names and units, in order, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit():
    """HEAD of the checkout's own .git, read without running git, or None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(workload, seed, job_dir, trace=False, setup_only=False):
    """Start one fresh interpreter, wait for it, return its job.json."""
    os.makedirs(job_dir)
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload", workload,
           "--seed", str(seed), "--dir", job_dir]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"job exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(os.path.join(job_dir, "job.json"), encoding="utf-8") as fh:
        job = json.load(fh)
    job["elapsed_s"] = elapsed
    return job


def outputs_digest(workload, ops):
    digest = hashlib.sha256()
    for path in workloads.output_files(workload, ops):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  It moves smoothly when ops near the quantile trade
    places, where a single order statistic jumps across gaps between ops of
    different cost.  Of one value it is that value."""
    xs = sorted(values)
    n = len(xs)
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), numpy.arange(n + 1) / n)
    return float(numpy.dot(numpy.diff(edges), xs))


def exact_or_median(values):
    """A counter repeats exactly across jobs and is kept as it is."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def measure(args):
    """Run the jobs of one benchmark run back to back, then fill the time
    left with set-up probes; returns the jobs and the probes."""
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = time.perf_counter() + args.seconds
    kinds = (False, True) if args.trace else (False,)
    last = dict.fromkeys(kinds, 0.0)
    jobs, probes = [], []

    def probe():
        job_dir = os.path.join(run_dir, f"probe{len(probes)}")
        probes.append(run_job(args.workload, args.seed, job_dir, setup_only=True))

    while True:
        traced = kinds[len(jobs) % len(kinds)]
        if len(jobs) >= len(kinds) and time.perf_counter() + last[traced] > deadline:
            break
        start = time.perf_counter()
        job_dir = os.path.join(run_dir, f"job{len(jobs)}")
        job = run_job(args.workload, args.seed, job_dir, trace=traced)
        job.update(traced=traced, dir=job_dir)
        jobs.append(job)
        last[traced] = time.perf_counter() - start
    while len(probes) < MAX_SETUP_PROBES and (
            len(probes) < MIN_SETUP_PROBES
            or time.perf_counter() + probes[-1]["elapsed_s"] <= deadline):
        probe()
    return jobs, probes


def evaluate(args, jobs, probes):
    """Output checks, failure counts and metrics of one run."""
    failures = {}
    attempted = failed = 0
    digests = set()
    for job in jobs:
        ops = workloads.make_ops(args.workload, args.seed, job["dir"])
        bad = workloads.check_job(args.workload, ops, job["ops"])
        job["failures"] = bad
        attempted += len(ops)
        failed += len(bad)
        for name, msgs in bad.items():
            failures.setdefault(name, msgs)
        digests.add(outputs_digest(args.workload, ops))
    unexpected = sorted(set(failures) - workloads.KNOWN_FAILURES)
    identical = len(digests) == 1
    correct = not unexpected and identical

    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = exact_or_median([j["layers"][name] for j in traced])
        metrics["trace.overhead_s"] = (statistics.median(j["wall_s"] for j in traced)
                                       - statistics.median(j["wall_s"] for j in plain))
    else:
        # Each op's best latency over the run's jobs: the host runs in fast
        # and slow phases of 5-30 s, and the best of jobs spread over the
        # run sees a fast one (NOTES.md, "Run-to-run noise").
        best = [min(j["ops"][name]["ms"] for j in plain) for name in plain[0]["ops"]]
        metrics = {
            "wall_s": statistics.median(j["wall_s"] for j in plain),
            "cpu_s": statistics.median(j["cpu_s"] for j in plain),
            "setup_s": statistics.median(j["setup_s"] for j in jobs + probes),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain),
            "ok_frac": 1.0 - failed / attempted,
            "point_ms_p50": quantile(best, 0.5),
            "point_ms_p90": quantile(best, 0.9),
        }
    units = declared_metrics(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from "
                           f"BENCHMARK.json {sorted(units)}")
    metrics = {name: metrics[name] for name in units}
    env = {key: jobs[0][key] for key in ("python", "numpy", "scipy", "blas", "openblas",
                                         "blas_threads")}
    env.update(nproc=os.cpu_count(), blas_threads_requested=BLAS_THREADS,
               threads=workloads.SIM_THREADS, seed=args.seed, git_commit=git_commit())
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": failures, "unexpected_failures": unexpected,
        "outputs_identical": identical, "metrics": metrics, "units": units,
        "setup_probes_s": [p["setup_s"] for p in probes],
        "jobs": [{k: v for k, v in j.items() if k != "ops"} | {
            "op_ms": {name: op["ms"] for name, op in j["ops"].items()}} for j in jobs],
    }
    return summary


def run_workload(args):
    """Measure, check and report one workload; the last line printed is
    the run's JSON result."""
    jobs, probes = measure(args)
    summary = evaluate(args, jobs, probes)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    env = summary["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(jobs)}  setup probes {len(probes)}")
    print("environment " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    print(f"fail_frac {summary['fail_frac']!r} ratio  ({summary['failed']}/"
          f"{summary['attempted']} ops; known failures: "
          f"{sorted(set(summary['failures']) & workloads.KNOWN_FAILURES)})")
    for name, value in summary["metrics"].items():
        print(f"{name} {value!r} {summary['units'][name]}")
    for name in summary["unexpected_failures"]:
        print(f"FAIL {name}: {'; '.join(summary['failures'][name])}")
    if not summary["outputs_identical"]:
        print("FAIL outputs differ between jobs of the same seed")
    print(f"result file {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": summary["correct"], "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": summary["units"][name]}
                    for name, value in summary["metrics"].items()}}), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qillum", "cli.py")):
        sys.stderr.write(f"error: no qillum source under {ROOT}/src; "
                         "run from the root of a source checkout\n")
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
