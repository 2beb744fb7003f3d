"""The per-layer metrics of BENCHMARK.json name functions that exist.

A traced benchmark run looks up every ``<layer>.<func>.<calls|self_s|total_s>``
metric among the public functions of ``diracszego.<layer>`` (its ``__all__``
where it has one) and fails on a name that is gone, so renaming or deleting such a function must update the
benchmark in the same change. Its work counters read arguments by position
and name, so those are pinned here too, and so is every name of the package
that its workloads read.
"""

import functools
import importlib
import importlib.util
import inspect
import json
import os
from pathlib import Path

import numpy as np

import diracszego as dz
import diracszego.cli  # noqa: F401  (the package does not import its command-line module)
from conftest import benchmark_reads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SPAN_STATS = ("calls", "self_s", "total_s")


def load_tracer():
    """``perfbench/tracer.py`` as a module, without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_every_benchmark_read_resolves():
    """Each ``dz.`` or ``self.dz.`` path that ``perfbench/run.py`` reads exists
    on the package, so a deleted or renamed name fails here, and not only in a
    benchmark run."""
    paths = benchmark_reads()
    assert len(paths) >= 10
    missing = object()
    assert [".".join(path) for path in sorted(paths)
            if functools.reduce(lambda obj, name: getattr(obj, name, missing), path, dz)
            is missing] == []


def test_work_counters_read_the_library_signatures(tmp_path, ex41_system):
    """Each counted span's argument sits at the position and under the name
    the tracer reads, and one call adds the count its shapes give."""
    tracer = load_tracer()
    for layer in tracer.LAYERS:
        importlib.import_module(f"diracszego.{layer}")
    read = {"linalg.min_eig": (0, "M"), "linalg.pd_solve": (0, "S"),
            "linalg.block_toeplitz": (0, "alpha"), "system.propagate": (2, "k"),
            "io.write_doc": (0, "path")}
    assert set(read) == set(tracer.COUNTERS)
    for span, (index, name) in read.items():
        layer, func = span.split(".")
        params = list(inspect.signature(getattr(getattr(dz, layer), func)).parameters)
        assert params[index] == name, span
    path = tmp_path / "sys.json"
    with tracer.Tracer() as t:
        dz.linalg.min_eig(np.eye(3))
        dz.linalg.pd_solve(np.eye(4), np.ones((4, 1)))
        dz.linalg.block_toeplitz(np.zeros((3, 2, 2)))
        dz.system.propagate(ex41_system, 1 - 1j, 5)
        dz.io.write_doc(str(path), dz.io.potentials_to_doc(ex41_system))
    assert dict(t.counters) == {
        "linalg.min_eig.work_n3": 27, "linalg.pd_solve.work_n3": 64,
        "linalg.block_toeplitz.bytes": 6 ** 2 * 16, "system.propagate.steps": 5,
        "io.doc_bytes": os.path.getsize(path)}
    assert all(t.span_stat(span, "calls") == 1 for span in read)
