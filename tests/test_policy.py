"""The one tolerance rule: every gate goes through ``policy.check``.

The AST guard fails on any positive float literal at or below 1e-6 in a
library module other than ``policy.py``: such a literal is almost always a
tolerance that bypasses ``DEFAULT_POLICY``. The allow-list names the few that
are not gates. A second AST guard keeps the state-space form of a Weyl
function behind ``pseudoexp``, and a third keeps every module free of public
names that only tests reach.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

import diracszego as dz
import diracszego.cli  # noqa: F401  (the package does not import its command-line module)
from diracszego.errors import DiracSzegoError
from diracszego.policy import DEFAULT_POLICY, NumericPolicy, check, check_stack, failure
from conftest import benchmark_reads

SRC = Path(__file__).resolve().parents[1] / "src" / "diracszego"

ALLOWED = {
    ("linalg.py", "_rank_p_factor_gates", 1e-12),   # phase pick of eigenvector entries
    ("linalg.py", "_rank_p_factor_gates", 1e-300),  # floor under the largest eigenvalue
    ("pseudoexp.py", "random_bdt_parameters", 1e-6),  # rejection of ill-conditioned draws
}


def small_literals(path):
    """(file, enclosing function, value) for every float literal in (0, 1e-6]."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0 < node.value <= 1e-6):
            found.append((path.name, func, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_tolerance_literals_outside_policy():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "policy.py")
    assert len(modules) >= 9
    stray = [hit for path in modules for hit in small_literals(path) if hit not in ALLOWED]
    assert stray == []


def test_allow_list_is_current():
    seen = {hit for path in SRC.glob("*.py") for hit in small_literals(path)}
    assert ALLOWED <= seen


def test_inverse_reads_no_state_space_field():
    """``inverse`` takes (A_x, c, b) from ``pseudoexp._weyl_state_space`` and
    reads neither a parameter triple's S0 nor a state-space field."""
    tree = ast.parse((SRC / "inverse.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert read & {"S0", "theta", "PhiT", "PsiT", "Phi", "Psi"} == set()


LAYERS = ("cli", "io", "pseudoexp", "system", "inverse", "linalg", "szego")

# Exports that no library, CLI or benchmark code reaches, kept as the
# library's statement of a paper result; each maps to the README section
# that names it.
PAPER_RESULTS = {
    "inverse.borg_marchenko_check": "Public surface",
    "inverse.lyapunov_residual": "Public surface",
    "pseudoexp.explicit_fundamental": "Public surface",
    "pseudoexp.explicit_partial_sum": "Public surface",
    "system.weyl_partial_sum": "Public surface",
    "system.weyl_disk_eval": "Public surface",
    "system.MoebiusPair": "Public surface",
    "szego.szego_solution_map": "Public surface",
}


def library_uses():
    """(called, read) over the library: the names it calls, each call outside
    the function of that name, and the names it loads outside type annotations
    and outside the class argument of ``isinstance``/``issubclass``: a type
    test of a class no code builds is not a use."""
    called, read = set(), set()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name != func:
                called.add(name)
            if name in ("isinstance", "issubclass"):
                node = ast.Call(node.func, node.args[:1], node.keywords)
        if isinstance(getattr(node, "ctx", None), ast.Load):
            read.add(getattr(node, "id", getattr(node, "attr", None)))
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        visit(child, func)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), None)
    return called, read


def unused_exports():
    """Names ``layer.name`` in a layer's ``__all__`` that the library does not
    call (a function) or read (a class or constant), that ``perfbench/run.py``
    does not read and that no ``BENCHMARK.json`` metric names."""
    called, read = library_uses()
    bench = json.loads((SRC.parents[1] / "BENCHMARK.json").read_text())
    metrics = {tuple(m["name"].split(".")[:2]) for m in bench["end_to_end"] + bench["per_layer"]}
    benched = [functools.reduce(getattr, path, dz) for path in benchmark_reads()]
    unused = set()
    for layer in LAYERS:
        module = importlib.import_module(f"diracszego.{layer}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not (name in (called if inspect.isfunction(obj) else read)
                    or (layer, name) in metrics or any(obj is b for b in benched)):
                unused.add(f"{layer}.{name}")
    return unused


def test_every_export_has_a_user():
    """The exports that no library, CLI or benchmark code uses are exactly the
    paper results, so a listed name that gains a use fails too and the list
    stays current; the README section of each names it."""
    assert unused_exports() == set(PAPER_RESULTS)
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    for name, heading in PAPER_RESULTS.items():
        section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
        assert f"`{name.split('.')[1]}`" in section, name


def test_policy_has_four_fields():
    names = [f.name for f in dataclasses.fields(NumericPolicy)]
    assert names == ["tau", "tau_pd", "tau_rank", "cond_limit"]


class TestRule:
    def test_boundary_passes(self):
        assert failure(2e-10, 2.0, "residual") is None
        check(2e-10, 2.0, DiracSzegoError, "residual")

    def test_nan_fails(self):
        assert failure(math.nan, 1.0, "residual") is not None
        assert failure(0.0, math.nan, "residual") is not None
        with pytest.raises(DiracSzegoError):
            check(math.nan, 1.0, DiracSzegoError, "residual")

    def test_message_names_quantity_measured_and_allowed(self):
        with pytest.raises(DiracSzegoError) as info:
            check(3e-9, 5.0, DiracSzegoError, "C_4 residual")
        assert str(info.value) == "C_4 residual is 3.000e-09, allowed at most 5.000e-10"

    def test_lower_bound_is_the_rule_negated(self):
        tau_pd = DEFAULT_POLICY.tau_pd
        assert failure(-1e-3, 1.0, "-min_eig", -tau_pd) is None
        assert failure(-1e-12, 1.0, "-min_eig", -tau_pd) is not None

    def test_error_carries_measured_and_allowed(self):
        with pytest.raises(DiracSzegoError) as info:
            check(3e-9, 5.0, DiracSzegoError, "C_4 residual")
        err = info.value
        assert (err.measured, err.allowed, err.index) == (3e-9, DEFAULT_POLICY.tau * 5.0, None)

    def test_stack_error_carries_its_index(self):
        tau = DEFAULT_POLICY.tau
        gates = [(np.array([0.0, 0.0, 1.0, 2.0]), 1.0, DiracSzegoError, lambda i: f"r_{i}", tau),
                 (np.array([0.0, 1.0, 0.0, 0.0]), 2.0, ValueError, lambda i: f"s_{i}", tau)]
        with pytest.raises(ValueError) as info:
            check_stack(gates)
        err = info.value
        assert (err.index, err.measured, err.allowed) == (1, 1.0, tau * 2.0)
        assert str(err).startswith("s_1 is")
