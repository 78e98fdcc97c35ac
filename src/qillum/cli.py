"""Command-line front end.

Subcommands
    qfi        one Fisher-information report for a transmitter family
    curves     gain-versus-photon-number sweep, CSV for external plotting
    simulate   Monte Carlo detection protocol from a JSON config
    validate   built-in verification suite (fast | full)

Outputs are data only (CSV or JSON, never images).  Every command is
deterministic given its flags and seed; CSV files start with a schema
comment line.  Exit codes: 0 ok, 1 a failed ``validate`` check, 2 usage
or invalid parameters, 3 non-convergence, 4 unresolved statistics.  An
unwritable ``--out`` or ``--json-out`` exits 2 before any work.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys

import numpy as np

from . import qfi, sim
from .fock import TruncationError
from .qfi import ConvergenceError, QfiReport, default_cutoff, qfi_schmidt
from .sim import (ErrorReport, ProtocolConfig, UnresolvedStatisticsError,
                  prepare_distributions)
from .states import SchmidtState, parse_family, state_from_family

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_UNRESOLVED = 4


def _parse_grid(spec: str):
    """Grid spec: a number, a comma list, or lo:hi:count[:log], as floats."""
    if "," in spec:
        grid = [float(tok) for tok in spec.split(",") if tok]
        if not grid:
            raise ValueError(f"grid spec {spec!r} has no values")
        return grid
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"bad grid spec {spec!r}")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid needs at least one point")
        if len(parts) == 4 and parts[3] != "log":
            raise ValueError(f"bad grid spacing {parts[3]!r}; only 'log' is known")
        spaced = np.geomspace if len(parts) == 4 else np.linspace
        return [float(x) for x in spaced(lo, hi, count)]
    return [float(spec)]


def _qfi_report(family: str, n_signal: float, n_bath: float, cutoff: int | None,
                rel_tol: float | None = None) -> tuple[SchmidtState, QfiReport]:
    """The transmitter at its final cutoff and its Fisher-information report.

    A cutoff that leaves H = 0 while the transmitter loses photons to it
    is a ValueError: the zero comes from the cut, not from the state."""
    if not all(map(math.isfinite, (n_signal, n_bath))):
        raise ValueError(f"N_S and N_B must be finite, got {n_signal}, {n_bath}")
    if cutoff is not None and cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if rel_tol is not None and not 0 < rel_tol < math.inf:
        raise ValueError("rel_tol must be positive and finite")

    @functools.cache   # the converged cutoff is evaluated once, by converge_cutoff
    def report(d_signal):
        state = state_from_family(family, n_signal, d_signal)
        return state, qfi_schmidt(state, n_bath)

    if cutoff is None:
        cutoff = default_cutoff(family, n_signal)
        if rel_tol is not None:
            # grow the cutoff from the family's rule until H stabilizes
            _, cutoff = qfi.converge_cutoff(lambda d: report(d)[1].h, start=cutoff,
                                            rel_tol=rel_tol)
    state, rep = report(cutoff)
    if rep.h == 0 and state.deficit > 0:
        raise ValueError(f"cutoff {cutoff} leaves H = 0 and loses {state.deficit:.3g} "
                         f"of the transmitter's probability; raise the cutoff")
    return state, rep


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(path: str | None) -> None:
    """Raise the OSError that opening ``path`` for writing would raise,
    without creating or truncating it; no path is standard output."""
    if not path:
        return
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def cmd_qfi(args) -> int:
    _, report = _qfi_report(args.family, args.ns, args.nb, args.cutoff, rel_tol=args.rel_tol)
    if args.format == "csv":
        text = "# schema: qi.qfi.v1\n" + QfiReport.CSV_HEADER + "\n" + report.to_csv_row() + "\n"
    else:
        text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_curves(args) -> int:
    families = [tok for tok in args.families.split(",") if tok]
    if not families:
        raise ValueError(f"family list {args.families!r} has no families")
    names = [parse_family(fam)[0] for fam in families]
    grid = _parse_grid(args.ns)
    rows = []
    for fam, name in zip(families, names):
        # maxfock:<d> fixes its own N_S, whatever the grid asks for: one row
        for ns in grid[:1] if name == "maxfock" else grid:
            state, rep = _qfi_report(fam, ns, args.nb, args.cutoff, rel_tol=args.rel_tol)
            rows.append((fam, state.meta["n_signal"], args.nb, rep.h, rep.h_c, rep.gain,
                         rep.gain_db, rep.cutoff))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["# schema: qi.curves.v1",
             "family,N_S,N_B,H,H_C,gain,gain_db,cutoff"]
    for fam, ns, nb, h, h_c, gain, gain_db, cutoff in rows:
        lines.append(f"{fam},{repr(ns)},{repr(nb)},{repr(h)},{repr(h_c)},"
                     f"{repr(gain)},{repr(gain_db)},{cutoff}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    with open(args.config, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("a simulate config must be a JSON object")
    unknown = sorted(payload.keys() - {f.name for f in dataclasses.fields(ProtocolConfig)})
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    # command-line overrides shadow the file
    overrides = {"eta": args.eta, "m": args.m, "xi": args.xi, "trials": args.trials,
                 "seed": args.seed}
    cfg = ProtocolConfig(**{**payload, **{k: v for k, v in overrides.items() if v is not None}})
    # the spectral work runs once, sequentially; only the sampling is fanned out
    dists = prepare_distributions(cfg)
    reports = sim.simulate(cfg, dists, args.threads)
    lines = ["# schema: qi.sim.v1", ErrorReport.CSV_HEADER]
    best = None
    for rep in reports:
        lines.append(rep.to_csv_row())
        floor = min(rep.rate_type1, rep.rate_type2)
        if not math.isnan(floor) and (best is None or floor > best[0]):
            best = (floor, rep.xi)
    if best is not None and len(cfg.xi) > 1:
        lines.append(f"# max-min-rate at xi={repr(best[1])}")
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    if args.json_out:
        _emit(json.dumps([dataclasses.asdict(r) for r in reports], sort_keys=True, indent=2),
              args.json_out)
    if any(r.errors_type1 == 0 or r.errors_type2 == 0 for r in reports):
        sys.stderr.write("error: zero error events at the trial cap; "
                         "exponent unresolved\n")
        return EXIT_UNRESOLVED
    return EXIT_OK


def cmd_validate(args) -> int:
    from .validate import run_suite

    results = run_suite(args.suite)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: measured {res.measured}, expected {res.expected}")
        failed += 0 if res.passed else 1
    summary = {
        "suite": args.suite,
        "total": len(results),
        "failed": failed,
        "checks": [dataclasses.asdict(res) for res in results],
    }
    if args.json_out:
        _emit(json.dumps(summary, sort_keys=True, indent=2), args.json_out)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="qillum",
        description="Quantum illumination via reflectivity estimation: "
                    "Fisher information, optimal local estimators, and "
                    "detection-error Monte Carlo.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_qfi = sub.add_parser("qfi", help="one Fisher-information report")
    p_qfi.add_argument("--family", required=True,
                       help="tmsv | coherent | cat:<d> | cat:inf | maxfock:<d>")
    p_qfi.add_argument("--ns", type=float, default=0.0, help="mean signal photons")
    p_qfi.add_argument("--nb", type=float, required=True, help="mean bath photons")
    p_qfi_cut = p_qfi.add_mutually_exclusive_group()
    p_qfi_cut.add_argument("--cutoff", type=int, default=None)
    p_qfi_cut.add_argument("--rel-tol", type=float, default=None,
                           help="auto-converge the cutoff to this relative tolerance")
    p_qfi.add_argument("--format", choices=("json", "csv"), default="json")
    p_qfi.add_argument("--out", default=None)

    p_cur = sub.add_parser("curves", help="gain sweep over signal photon number")
    p_cur.add_argument("--nb", type=float, required=True)
    p_cur.add_argument("--ns", required=True,
                       help="grid: number, comma list, or lo:hi:count[:log]")
    p_cur.add_argument("--families", default="tmsv,coherent,cat:2,cat:inf")
    p_cur_cut = p_cur.add_mutually_exclusive_group()
    p_cur_cut.add_argument("--cutoff", type=int, default=None)
    p_cur_cut.add_argument("--rel-tol", type=float, default=None)
    p_cur.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="Monte Carlo detection protocol")
    p_sim.add_argument("--config", required=True, help="JSON protocol config")
    p_sim.add_argument("--eta", type=float, default=None)
    p_sim.add_argument("--m", type=int, default=None)
    p_sim.add_argument("--xi", type=float, default=None)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", default=None, help="CSV output path")
    p_sim.add_argument("--json-out", default=None)
    p_sim.add_argument("--threads", type=int, default=1)

    p_val = sub.add_parser("validate", help="run the verification suite")
    p_val.add_argument("--suite", choices=("fast", "full"), default="fast")
    p_val.add_argument("--json-out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"qfi": cmd_qfi, "curves": cmd_curves,
                "simulate": cmd_simulate, "validate": cmd_validate}
    try:
        # a bad output path fails before any work, and leaves no file written
        for flag in ("out", "json_out"):
            _check_writable(getattr(args, flag, None))
        return handlers[args.command](args)
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_CONVERGENCE
    except UnresolvedStatisticsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNRESOLVED
    # json.JSONDecodeError and UnicodeDecodeError are ValueErrors
    except (ValueError, TruncationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
