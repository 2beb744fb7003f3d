"""The one tolerance rule: every gate goes through ``policy.check``.

The AST guard fails on any positive float literal at or below 1e-6 in a
library module other than ``policy.py``: such a literal is almost always a
tolerance that bypasses ``DEFAULT_POLICY``. The allow-list names the few that
are not gates. A second AST guard keeps the state-space form of a Weyl
function behind ``pseudoexp``, and a third keeps ``linalg`` free of public
helpers that only tests call.
"""

import ast
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from diracszego import linalg
from diracszego.errors import DiracSzegoError
from diracszego.policy import DEFAULT_POLICY, NumericPolicy, check, check_stack, failure

SRC = Path(__file__).resolve().parents[1] / "src" / "diracszego"

ALLOWED = {
    ("linalg.py", "_rank_p_factor_gates", 1e-12),   # phase pick of eigenvector entries
    ("linalg.py", "_rank_p_factor_gates", 1e-300),  # floor under the largest eigenvalue
    ("inverse.py", "borg_marchenko_check", 1e-8),   # public coeff_tol default
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
    reads no field of a parameter triple's S0 or of a realization."""
    tree = ast.parse((SRC / "inverse.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert read & {"S0", "theta", "PhiT", "PsiT", "Phi", "Psi"} == set()


def called_names(path):
    """Names called in a module, each call outside the function of that name."""
    found = set()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name != func:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_every_linalg_export_has_a_library_caller():
    """Each name in ``linalg.__all__`` is called by another function of the
    library or named by a ``linalg.*`` metric of the benchmark."""
    called = set().union(*(called_names(path) for path in SRC.glob("*.py")))
    bench = json.loads((SRC.parents[1] / "BENCHMARK.json").read_text())
    metrics = [m["name"].split(".") for m in bench["end_to_end"] + bench["per_layer"]]
    benched = {parts[1] for parts in metrics if parts[0] == "linalg"}
    assert [name for name in linalg.__all__ if name not in called | benched] == []


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
