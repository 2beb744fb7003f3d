"""JSON document envelopes for the command-line tools.

Every document is an object with ``kind``, ``version``, the applicable
dimensions, and a ``payload`` of matrices. Complex entries are always
two-element [re, im] arrays, row-major; serialization round-trips bit-for-bit
on the canonical form.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .errors import DocumentError
from .inverse import TaylorSequence
from .linalg import SignatureContext
from .pseudoexp import BdtParameters
from .system import PotentialSequence, ValidationReport
from .szego import SzegoSequence

FORMAT_VERSION = "1"

KINDS = ("potentials", "bdt-params", "taylor", "szego", "report")


def matrix_to_json(M: np.ndarray) -> list:
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def matrix_from_json(data, path: str) -> np.ndarray:
    try:
        rows = [[complex(c[0], c[1]) for c in row] for row in data]
    except (TypeError, IndexError, ValueError) as exc:
        raise DocumentError(f"{path}: expected a matrix of [re, im] pairs") from exc
    M = np.array(rows, dtype=complex)
    if M.ndim != 2:
        raise DocumentError(f"{path}: ragged matrix")
    return M


def complex_to_json(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def complex_from_json(data, path: str) -> complex:
    try:
        return complex(data[0], data[1])
    except (TypeError, IndexError, ValueError) as exc:
        raise DocumentError(f"{path}: expected an [re, im] pair") from exc


def _envelope(kind: str, payload: dict, **dims) -> dict:
    doc = {"kind": kind, "version": FORMAT_VERSION}
    doc.update({k: v for k, v in dims.items() if v is not None})
    doc["payload"] = payload
    return doc


def potentials_to_doc(sys: PotentialSequence, report: ValidationReport | None = None) -> dict:
    payload = {"C": [matrix_to_json(C) for C in sys.C]}
    if report is not None:
        payload["validation"] = report_payload(report)
    return _envelope("potentials", payload, p=sys.p, N=sys.N)


def potentials_from_doc(doc: dict) -> PotentialSequence:
    _expect_kind(doc, "potentials")
    p = _dim(doc, "p")
    C = [matrix_from_json(c, f"payload.C[{k}]") for k, c in enumerate(_payload_list(doc, "C"))]
    for k, c in enumerate(C):
        if c.shape != (2 * p, 2 * p):
            raise DocumentError(f"payload.C[{k}]: shape {c.shape} inconsistent with p={p}")
    return PotentialSequence(ctx=SignatureContext(p=p), C=C)


def bdt_params_to_doc(params: BdtParameters) -> dict:
    payload = {
        "A": matrix_to_json(params.A),
        "S0": matrix_to_json(params.S0),
        "Pi0": matrix_to_json(params.Pi0),
    }
    return _envelope("bdt-params", payload, p=params.ctx.p, n=params.n)


def bdt_params_from_doc(doc: dict) -> BdtParameters:
    _expect_kind(doc, "bdt-params")
    p = _dim(doc, "p")
    payload = doc.get("payload", {})
    mats = {}
    for name in ("A", "S0", "Pi0"):
        if name not in payload:
            raise DocumentError(f"payload.{name}: missing")
        mats[name] = matrix_from_json(payload[name], f"payload.{name}")
    return BdtParameters(ctx=SignatureContext(p=p), **mats)


def taylor_to_doc(alpha: TaylorSequence) -> dict:
    payload = {"alpha": [matrix_to_json(a) for a in alpha.alpha]}
    return _envelope("taylor", payload, p=alpha.p, N=alpha.N)


def taylor_from_doc(doc: dict) -> TaylorSequence:
    _expect_kind(doc, "taylor")
    p = _dim(doc, "p")
    alpha = [matrix_from_json(a, f"payload.alpha[{k}]")
             for k, a in enumerate(_payload_list(doc, "alpha"))]
    return TaylorSequence(p=p, alpha=alpha)


def szego_to_doc(sz: SzegoSequence) -> dict:
    payload = {
        "R": [matrix_to_json(R) for R in sz.R],
        "theta": [complex_to_json(t) for t in sz.theta],
    }
    return _envelope("szego", payload, p=sz.ctx.p, N=sz.N)


def szego_from_doc(doc: dict) -> SzegoSequence:
    _expect_kind(doc, "szego")
    p = _dim(doc, "p")
    R = [matrix_from_json(r, f"payload.R[{k}]") for k, r in enumerate(_payload_list(doc, "R"))]
    theta = [complex_from_json(t, f"payload.theta[{k}]")
             for k, t in enumerate(_payload_list(doc, "theta"))]
    return SzegoSequence(ctx=SignatureContext(p=p), R=R, theta=theta)


def report_payload(report: ValidationReport) -> dict:
    failures = report.failures()
    return {
        "passed": not failures,
        "steps": [dataclasses.asdict(s) for s in report.steps],
        "failures": failures,
    }


def report_to_doc(payload: dict) -> dict:
    return _envelope("report", payload)


def write_doc(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top level must be an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"{path}: unknown kind {kind!r}")
    return doc


def _expect_kind(doc: dict, kind: str) -> None:
    if doc.get("kind") != kind:
        raise DocumentError(f"expected a {kind} document, got {doc.get('kind')!r}")


def _dim(doc: dict, name: str) -> int:
    value = doc.get(name)
    if not isinstance(value, int) or value < 1:
        raise DocumentError(f"{name}: missing or not a positive integer")
    return value


def _payload_list(doc: dict, name: str) -> list:
    payload = doc.get("payload")
    if not isinstance(payload, dict) or name not in payload:
        raise DocumentError(f"payload.{name}: missing")
    value = payload[name]
    if not isinstance(value, list) or not value:
        raise DocumentError(f"payload.{name}: must be a nonempty list")
    return value
