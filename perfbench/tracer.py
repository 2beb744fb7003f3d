"""Per-layer spans for the diracszego benchmark, recorded from outside the library.

The layers are the seven runtime modules of the package. While a ``Tracer`` is
entered, every public function of those modules is replaced by a timing
wrapper at each module-global name through which callers look it up (for
example ``diracszego.inverse.block_toeplitz`` and ``diracszego.cli.direct_taylor``),
so calls between layers nest. A span's self time is its duration minus the
durations of the spans it called. Leaving the tracer restores the originals.

Some spans also add to work counters computed from argument shapes; these
repeat exactly from run to run and are computed counts, not measurements.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "diracszego"
LAYERS = ("cli", "io", "pseudoexp", "system", "inverse", "linalg", "szego")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _order_cubed(args, kwargs, name):
    return _arg(args, kwargs, 0, name).shape[0] ** 3


def _toeplitz_bytes(args, kwargs):
    alpha = _arg(args, kwargs, 0, "alpha")
    order = len(alpha) * len(alpha[0])
    return order * order * 16  # complex128 entries of the assembled matrix


# span name -> (counter name, count computed from the call's arguments)
COUNTERS = {
    "linalg.min_eig": ("linalg.min_eig.work_n3",
                       lambda a, k: _order_cubed(a, k, "M")),
    "linalg.pd_solve": ("linalg.pd_solve.work_n3",
                        lambda a, k: _order_cubed(a, k, "S")),
    "linalg.block_toeplitz": ("linalg.block_toeplitz.bytes", _toeplitz_bytes),
    "system.propagate": ("system.propagate.steps",
                         lambda a, k: _arg(a, k, 2, "k")),
    "io.write_doc": ("io.doc_bytes",
                     lambda a, k: os.path.getsize(_arg(a, k, 0, "path"))),
}


def public_functions(module):
    """Functions a module exports: its ``__all__``, or its non-underscore names."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    found = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found[name] = obj
    return found


class Tracer:
    """Accumulates calls, total and self time per span, and work counters."""

    counter_names = frozenset(name for name, _ in COUNTERS.values())
    STATS = ("calls", "total_s", "self_s")

    def __init__(self):
        self.stats = {}       # span name -> [calls, total_s, self_s]
        self.counters = defaultdict(float)
        self.top_level_s = 0.0
        self._children = []   # one child-time accumulator per open span
        self._patched = []    # (module, attribute, original) to restore on exit

    def _wrap(self, span, fn):
        stat = self.stats.setdefault(span, [0, 0.0, 0.0])
        count = COUNTERS.get(span)
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                else:
                    self.top_level_s += elapsed
            if count is not None:
                self.counters[count[0]] += count[1](args, kwargs)
            return result

        return wrapper

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def span_stat(self, span: str, stat: str) -> float:
        """``calls``, ``total_s`` or ``self_s`` of one span, summed over all entries."""
        return self.stats[span][self.STATS.index(stat)]

    def layer_self_s(self, layer: str) -> float:
        return sum(v[2] for k, v in self.stats.items() if k.split(".", 1)[0] == layer)
