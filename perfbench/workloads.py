"""Workload inputs and output checks.

Each workload is a list of ops, each one ``qillum.cli.main(argv)`` call.
The inputs come from the seed alone.  The checks run outside the timed
interval and compare against references that the checked code does not
produce: closed forms written out here, and error fractions recorded
from the seed commit in ``refs.json`` (see ``record_refs.py``).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")

SIMULATE = {
    # desk-scale edge: auto cutoffs 23 x 67, one dense 1541^2 problem
    "spectral_nb3": {"family": "tmsv", "n_signal": 0.5, "n_bath": 3.0, "eta": 0.1,
                     "m": [200], "xi": 0.5, "trials": 20000},
    # fixed-budget sampling, no doublings: 1.48e8 draws
    "mc_mgrid": {"family": "tmsv", "n_signal": 0.5, "n_bath": 1.0, "eta": 0.1,
                 "m": [200, 500, 1000, 2000], "xi": 0.5, "trials": 20000},
    # rare tails: two points double 2048 -> 8192 trials
    "mc_rare": {"family": "tmsv", "n_signal": 0.5, "n_bath": 1.0, "eta": 0.1,
                "m": [1000], "xi": [0.2, 0.5, 0.8], "trials": 2048,
                "trials_cap_factor": 8},
}

QFI_FAMILIES = ("tmsv", "coherent", "cat:2", "cat:3", "cat:inf")
QFI_NS = tuple(1e-3 * 30000.0 ** (i / 23) for i in range(24))
QFI_NB = 50.0
QFI_REL_TOL = 1e-10

WORKLOADS = tuple(SIMULATE) + ("qfi_converge",)
SIM_THREADS = 1

# Ops that fail at the seed commit and stay in the grid.  ``_qfi_report``
# starts ``converge_cutoff`` at cutoff 16 whatever N_S is, so the cat:2
# and cat:3 states at N_S ~ 19.2 and 30 exit 2 with "signal cutoff too
# small to resolve a retained component".  They count in the failure
# fraction; any other failing op makes the run incorrect.
KNOWN_FAILURES = frozenset({"cat:2@ns22", "cat:2@ns23", "cat:3@ns22", "cat:3@ns23"})

# Tolerances, from the seed errors (H: 5e-10 simulate, 3e-11 qfi).
H_REL_TOL = 1e-8
GAIN_TOL = 1e-9
ORDER_REL_TOL = 1e-9
FRACTION_SIGMAS = 5.0


def tmsv_h(n_signal, n_bath):
    """Closed-form two-mode squeezed vacuum Fisher information."""
    shrink = 1.0 + n_signal / (1.0 + n_signal) * n_bath / (1.0 + n_bath)
    return 4.0 * n_signal / (1.0 + n_bath) / shrink


def write_inputs(workload, seed, job_dir):
    """Write the simulate config, with the seed in it, into the job dir."""
    if workload in SIMULATE:
        with open(os.path.join(job_dir, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(dict(SIMULATE[workload], seed=seed), fh, sort_keys=True)


def make_ops(workload, seed, job_dir):
    """(op name, argv) pairs of one job, in the order they run."""
    if workload in SIMULATE:
        path = os.path.join(job_dir, "config.json")
        return [("simulate", ["simulate", "--config", path,
                              "--out", os.path.join(job_dir, "simulate.csv"),
                              "--json-out", os.path.join(job_dir, "simulate.json"),
                              "--threads", str(SIM_THREADS)])]
    ops = []
    for family in QFI_FAMILIES:
        for i, ns in enumerate(QFI_NS):
            name = f"{family}@ns{i:02d}"
            ops.append((name, ["qfi", "--family", family, "--ns", repr(ns),
                               "--nb", repr(QFI_NB), "--rel-tol", repr(QFI_REL_TOL),
                               "--out", os.path.join(job_dir, name.replace(":", "_") + ".json")]))
    random.Random(seed).shuffle(ops)
    return ops


def output_files(workload, ops):
    """The files a job's ops write, in a canonical order."""
    if workload in SIMULATE:
        return [argv[argv.index(flag) + 1] for _, argv in ops
                for flag in ("--out", "--json-out")]
    return [argv[argv.index("--out") + 1] for _, argv in sorted(ops)]


def _load_refs():
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _fraction_ok(k, n, k_ref, n_ref):
    p_ref = k_ref / n_ref
    sigma = math.sqrt(max(p_ref * (1.0 - p_ref), 1.0 / n_ref) * (1.0 / n + 1.0 / n_ref))
    return abs(k / n - p_ref) <= FRACTION_SIGMAS * sigma


def check_simulate(workload, ops):
    """Failure messages of the one simulate op, empty when it passes."""
    (_, argv), = ops
    spec = SIMULATE[workload]
    csv_path = argv[argv.index("--out") + 1]
    json_path = argv[argv.index("--json-out") + 1]
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "# schema: qi.sim.v1":
        return ["missing qi.sim.v1 schema line"]
    rows = list(csv.DictReader(line for line in lines[1:] if not line.startswith("#")))
    with open(json_path, encoding="utf-8") as fh:
        if len(json.load(fh)) != len(rows):
            return ["JSON and CSV row counts differ"]
    ms = spec["m"] if isinstance(spec["m"], list) else [spec["m"]]
    xis = spec["xi"] if isinstance(spec["xi"], list) else [spec["xi"]]
    want = sorted((int(m), float(x)) for m in ms for x in xis)
    got = sorted((int(r["M"]), float(r["xi"])) for r in rows)
    if got != want:
        return [f"rows {got} differ from the grid {want}"]
    refs = _load_refs()[workload]["rows"]
    h_ref = tmsv_h(spec["n_signal"], spec["n_bath"])
    cap = spec["trials"] * spec.get("trials_cap_factor", 8)
    bad = []
    for r in rows:
        key = f"M={int(r['M'])},xi={float(r['xi'])!r}"
        xi, eta, h = float(r["xi"]), spec["eta"], float(r["H"])
        if abs(h - h_ref) > H_REL_TOL * h_ref:
            bad.append(f"{key}: H {h!r} != closed form {h_ref!r}")
        for col, frac in (("rate_I_pred", xi), ("rate_II_pred", 1.0 - xi)):
            pred = frac ** 2 * eta ** 2 * h_ref / 2.0
            if abs(float(r[col]) - pred) > H_REL_TOL * pred:
                bad.append(f"{key}: {col} {r[col]} != {pred!r}")
        n = int(r["trials"])
        if not spec["trials"] <= n <= cap:
            bad.append(f"{key}: trials {n} outside [{spec['trials']}, {cap}]")
            continue
        ref = refs[key]
        for col in ("errors_I", "errors_II"):
            if not _fraction_ok(int(r[col]), n, ref[col], ref["trials"]):
                bad.append(f"{key}: {col} {r[col]}/{n} is more than {FRACTION_SIGMAS:g} "
                           f"standard errors from {ref[col]}/{ref['trials']}")
    return bad


def check_qfi(ops, results):
    """Failure messages per op name for the qfi_converge checks."""
    bad = {}
    reports = {}
    for name, argv in ops:
        if results[name]["rc"] != 0:
            continue
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            reports[name] = json.load(fh)
    for name, rep in reports.items():
        family, index = name.split("@ns")
        ns = QFI_NS[int(index)]
        msgs = []
        if family == "tmsv":
            h_ref = tmsv_h(ns, QFI_NB)
            if abs(rep["H"] - h_ref) > H_REL_TOL * h_ref:
                msgs.append(f"H {rep['H']!r} != closed form {h_ref!r}")
        if family == "coherent" and abs(rep["gain"] - 1.0) > GAIN_TOL:
            msgs.append(f"coherent gain {rep['gain']!r} != 1")
        if rep["gain"] > 2.0 + GAIN_TOL:
            msgs.append(f"gain {rep['gain']!r} > 2")
        if msgs:
            bad[name] = msgs
    for i in range(len(QFI_NS)):
        chain = [f"{fam}@ns{i:02d}" for fam in ("cat:2", "cat:inf", "tmsv")]
        if not all(name in reports for name in chain):
            continue
        for lo, hi in zip(chain, chain[1:]):
            h_lo, h_hi = reports[lo]["H"], reports[hi]["H"]
            if h_lo > h_hi * (1.0 + ORDER_REL_TOL):
                bad.setdefault(lo, []).append(f"H {h_lo!r} > {hi} H {h_hi!r}")
    return bad


def check_job(workload, ops, results):
    """Failure messages per op name.  An op fails on a nonzero exit code,
    an exception, or a failed output check."""
    bad = {}
    for name, _ in ops:
        res = results[name]
        if res["rc"] != 0:
            bad[name] = [f"exit {res['rc']}: {res['stderr'].strip()}"]
    if workload in SIMULATE:
        if not bad:
            msgs = check_simulate(workload, ops)
            if msgs:
                bad["simulate"] = msgs
    else:
        for name, msgs in check_qfi(ops, results).items():
            bad.setdefault(name, []).extend(msgs)
    return bad
