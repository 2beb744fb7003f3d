"""The per-layer metrics of BENCHMARK.json name functions that exist.

A traced benchmark run looks up every ``<layer>.<func>.<calls|self_s|total_s>``
metric among the public functions of ``diracszego.<layer>`` (its ``__all__``
where it has one) and fails on a name that is gone, so renaming or deleting such a function must update the
benchmark in the same change.
"""

import importlib
import inspect
import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
SPAN_STATS = ("calls", "self_s", "total_s")


def span_metrics():
    names = [m["name"] for m in SPEC["per_layer"]]
    return [n for n in names if n.count(".") == 2 and n.rsplit(".", 1)[1] in SPAN_STATS]


def test_spec_has_span_metrics():
    assert len(span_metrics()) >= 10


def test_every_span_names_a_public_function():
    missing = []
    for name in span_metrics():
        layer, func, _ = name.split(".")
        module = importlib.import_module(f"diracszego.{layer}")
        obj = getattr(module, func, None)
        exported = func in getattr(module, "__all__", [func])
        if (func.startswith("_") or not exported or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__):
            missing.append(name)
    assert missing == []
