"""Span recorder for the traced benchmark run.

The recorder wraps qillum's public functions at the module attributes
through which the pipeline calls them (``qillum.sim.received_state``,
``qillum.cli.qfi_schmidt``, ...), so no file of the package changes.
Each call records a span (name, start, end, parent) in memory; exact
work counters are derived from call arguments and results only, never
from timings, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

# (module, attribute) -> span name.  One function reached through several
# modules gets one span name, so its calls and times add up.
WRAPPED = (
    ("qillum.cli", "main", "cli.main"),
    ("qillum.cli", "state_from_family", "states.state_from_family"),
    ("qillum.sim", "state_from_family", "states.state_from_family"),
    ("qillum.cli", "qfi_schmidt", "qfi.qfi_schmidt"),
    ("qillum.sim", "qfi_schmidt", "qfi.qfi_schmidt"),
    ("qillum.estimator", "qfi_schmidt", "qfi.qfi_schmidt"),
    ("qillum.qfi", "converge_cutoff", "qfi.converge_cutoff"),
    ("qillum.estimator", "beamsplitter_unitary", "fock.beamsplitter_unitary"),
    ("qillum.sim", "sld_observable", "estimator.sld_observable"),
    ("qillum.sim", "received_state", "estimator.received_state"),
    ("qillum.sim", "outcome_distribution", "estimator.outcome_distribution"),
    ("qillum.cli", "prepare_distributions", "sim.prepare_distributions"),
    ("qillum.sim", "xi_sweep", "sim.xi_sweep"),
    ("qillum.sim", "sample_means", "sim.sample_means"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPPED))

COUNTERS = ("states.d_signal_max", "states.deficit_max", "qfi.cutoff_max",
            "qfi.converge_cutoff.evals", "estimator.joint_dim_max",
            "estimator.outcomes", "sim.draws", "sim.useful_draws", "sim.doublings")


def _observe_state(counters, a, state):
    counters["states.d_signal_max"] = max(counters["states.d_signal_max"], int(a["d_signal"]))
    counters["states.deficit_max"] = max(counters["states.deficit_max"], float(state.deficit))


def _observe_qfi(counters, a, _report):
    counters["qfi.cutoff_max"] = max(counters["qfi.cutoff_max"], int(a["state"].d_signal))


def _observe_sld(counters, a, _obs):
    joint = a["state"].rank * int(a["dim_bath"])
    counters["estimator.joint_dim_max"] = max(counters["estimator.joint_dim_max"], joint)


def _observe_outcomes(counters, _a, dist):
    counters["estimator.outcomes"] += len(dist.values)


def _observe_draws(counters, a, _means):
    counters["sim.draws"] += int(a["trials"]) * int(a["m"])


def _observe_sweep(counters, a, reports):
    # each reported row stands on 2 * trials * M draws (both hypotheses)
    counters["sim.useful_draws"] += sum(2 * r.trials * r.m_copies for r in reports)
    if reports:
        counters["sim.doublings"] += math.ceil(math.log2(reports[0].trials / a["cfg"].trials))


OBSERVERS = {
    "states.state_from_family": _observe_state,
    "qfi.qfi_schmidt": _observe_qfi,
    "estimator.sld_observable": _observe_sld,
    "estimator.outcome_distribution": _observe_outcomes,
    "sim.sample_means": _observe_draws,
    "sim.xi_sweep": _observe_sweep,
}


class Recorder:
    """Holds the spans and counters of one traced process."""

    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._saved = []

    def span(self, name, fn, observer=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if observer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observer(self.counters, bound.arguments, result)
            return result

        return wrapper

    def count_evals(self, converge_cutoff):
        """``converge_cutoff`` with its ``f`` counted on every evaluation."""

        @functools.wraps(converge_cutoff)
        def counting(f, *args, **kwargs):
            def counted(cutoff):
                self.counters["qfi.converge_cutoff.evals"] += 1
                return f(cutoff)

            return converge_cutoff(counted, *args, **kwargs)

        return counting

    def install(self):
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            fn = self.count_evals(original) if name == "qfi.converge_cutoff" else original
            setattr(module, attr, self.span(name, fn, OBSERVERS.get(name)))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans, counters):
    """Per-layer metrics of one traced process: calls, ms and self_ms of
    every wrapped function, ``first_ms`` of the beamsplitter, and the
    exact counters with the ratios derived from them."""
    own = self_times(spans)
    out = {}
    for name in SPAN_NAMES:
        mine = [s for s in spans if s["name"] == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.ms"] = 1e3 * sum(s["end"] - s["start"] for s in mine)
        out[f"{name}.self_ms"] = 1e3 * sum(own[s["id"]] for s in mine)
    bs = [s for s in spans if s["name"] == "fock.beamsplitter_unitary"]
    out["fock.beamsplitter_unitary.first_ms"] = 1e3 * (bs[0]["end"] - bs[0]["start"]) if bs else 0.0
    for key in COUNTERS:
        if key != "sim.useful_draws":
            out[key] = counters[key]
    draws = counters["sim.draws"]
    out["sim.ns_per_draw"] = 1e6 * out["sim.sample_means.ms"] / draws if draws else 0.0
    out["sim.useful_draw_frac"] = counters["sim.useful_draws"] / draws if draws else 0.0
    return out
