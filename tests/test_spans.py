"""Every span of the benchmark's tracer names a function it can wrap.

`perfbench/spans.py` wraps, by name, the public non-generator functions
that each gradix layer defines; a span whose function was renamed or
turned into a generator would read 0 in every run without an error.  This
test only reads `perfbench/`.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_names(spans):
    """The spans behind PER_LAYER, COUNTERS and PARSERS.  `trace` is the
    tracer's own overhead and `jsonio.parse` the sum of the parsers."""
    names = {metric.rsplit(".", 1)[0] for metric, _, _ in spans.PER_LAYER}
    names -= {"trace", "jsonio.parse"}
    return sorted(names | set(spans.COUNTERS)
                  | {f"jsonio.{name}" for name in spans.PARSERS})


def test_every_span_names_a_public_function_of_its_layer():
    spans = load_spans()
    names = span_names(spans)
    assert "linalg.np_rref" in names and "jsonio.parse_laurent" in names
    for name in names:
        layer, *path = name.split(".")
        assert layer in spans.LAYERS, name
        module = importlib.import_module(f"gradix.{layer}")
        owner, fn = None, module
        for part in path:
            assert not part.startswith("_"), name
            owner, fn = fn, getattr(fn, part, None)
        assert inspect.isfunction(fn), f"{name} is not a function"
        assert not inspect.isgeneratorfunction(fn), f"{name} is a generator"
        if owner is module:
            # defined in its layer, which is where the tracer looks
            assert fn.__module__ == module.__name__, name
