"""The traced benchmark wraps qillum functions by module attribute and
reads their arguments by name: both must still exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"

# the arguments each observer of perfbench/spans.py reads, by span name
OBSERVED = {
    "sim.xi_sweep": {"cfg"},
    "sim.sample_means": {"m", "trials"},
    "estimator.sld_observable": {"state", "dim_bath"},
    "qfi.qfi_schmidt": {"state"},
    "states.state_from_family": {"d_signal"},
}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_attributes_exist_with_the_observed_parameters():
    spans = _spans()
    assert set(OBSERVED) <= set(spans.SPAN_NAMES)
    for module_name, attr, name in spans.WRAPPED:
        fn = getattr(importlib.import_module(module_name), attr)
        assert callable(fn), (module_name, attr)
        params = set(inspect.signature(fn).parameters)
        assert OBSERVED.get(name, set()) <= params, (module_name, attr, params)
