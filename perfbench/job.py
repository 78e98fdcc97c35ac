"""One benchmark job: a fresh interpreter that imports qillum and runs
one workload's ops in a closed loop (the next op starts when the last
one returns).

    python3 perfbench/job.py --workload W --seed N --dir JOB_DIR [--trace] [--setup-only]

Writes ``JOB_DIR/job.json`` with the import time, the wall and CPU time
of the ops (import excluded), the peak resident memory, each op's exit
code, latency and stderr, the library versions, and with ``--trace`` the
per-layer metrics and the raw spans.  The parent sets the BLAS thread
count and ``PYTHONPATH`` in the environment.
"""

import argparse
import contextlib
import ctypes
import glob
import importlib
import io
import json
import os
import platform
import resource
import time

import spans
import workloads


def blas_info(numpy):
    """OpenBLAS version and live thread count of the library numpy loaded."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "openblas": blas.get("version"),
            "blas_threads": threads}


def run_ops(cli, ops):
    results = {}
    for name, argv in ops:
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # an op that raises counts as failed
            rc, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
        results[name] = {"rc": rc, "ms": 1e3 * (time.perf_counter() - start),
                         "stderr": err.getvalue()}
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    cli = importlib.import_module("qillum.cli")  # pulls in numpy and scipy
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    out = {"setup_s": setup_s, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__, **blas_info(numpy)}
    if not args.setup_only:
        workloads.write_inputs(args.workload, args.seed, args.dir)
        ops = workloads.make_ops(args.workload, args.seed, args.dir)
        recorder = spans.Recorder()
        if args.trace:
            recorder.install()
        w0, c0 = time.perf_counter(), time.process_time()
        results = run_ops(cli, ops)
        out["wall_s"] = time.perf_counter() - w0
        out["cpu_s"] = time.process_time() - c0
        recorder.uninstall()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["ops"] = results
        if args.trace:
            out["layers"] = spans.layer_metrics(recorder.spans, recorder.counters)
            with open(os.path.join(args.dir, "spans.json"), "w", encoding="utf-8") as fh:
                json.dump(recorder.spans, fh)
    with open(os.path.join(args.dir, "job.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True)


if __name__ == "__main__":
    main()
