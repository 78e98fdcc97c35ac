"""Record the reference error fractions of the simulate workloads.

    python3 perfbench/record_refs.py

Runs each simulate workload at the reference seeds, pools the error
counts and trials of every (M, xi) row, and writes ``perfbench/refs.json``.
The checked-in file was recorded at the commit that added the benchmark;
re-record it only when the sampled distributions are meant to change.
"""

import csv
import json
import os
import shutil

import run
import workloads

REF_SEEDS = (1001, 1002, 1003, 1004)


def main():
    refs = {}
    for workload in workloads.SIMULATE:
        rows = {}
        for seed in REF_SEEDS:
            job_dir = os.path.join(run.OUT, f"refs-{workload}-seed{seed}")
            shutil.rmtree(job_dir, ignore_errors=True)
            job = run.run_job(workload, seed, job_dir)
            if job["ops"]["simulate"]["rc"] != 0:
                raise SystemExit(f"{workload} seed {seed}: {job['ops']['simulate']['stderr']}")
            with open(os.path.join(job_dir, "simulate.csv"), encoding="utf-8") as fh:
                lines = [line for line in fh if not line.startswith("#")]
            for r in csv.DictReader(lines):
                row = rows.setdefault(f"M={int(r['M'])},xi={float(r['xi'])!r}",
                                      {"trials": 0, "errors_I": 0, "errors_II": 0})
                for col in row:
                    row[col] += int(r[col])
            shutil.rmtree(job_dir)
        refs[workload] = {"seeds": list(REF_SEEDS), "rows": rows}
        print(workload, rows, flush=True)
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
