"""The benchmark tracer in perfbench/spans.py wraps library functions by the
names they are looked up under; a rename in the library must fail here, not
as a KeyError in a traced benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    spans = load_spans()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in spans.BOUNDARIES
               if not callable(owner.__dict__.get(attr))]
    assert not missing

