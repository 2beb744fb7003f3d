"""JSON document envelopes for the command-line tools.

Every document is an object with ``kind``, ``version``, the applicable
dimensions, and a ``payload`` of complex arrays: a matrix, or a whole block
sequence as one stack. Each is one nested list, row-major, whose complex
entries are two-element [re, im] lists; serialization round-trips finite
values bit-for-bit. Documents are strict JSON: a NaN or an infinity is
written as null, which a reader of an array rejects. A reader leaves the
shape checks to the constructor of the object it builds, so every malformed
payload raises ``DocumentError``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DocumentError
from .inverse import TaylorSequence
from .linalg import SignatureContext
from .pseudoexp import BdtParameters
from .system import CHECKS, PotentialSequence, ValidationReport
from .szego import SzegoSequence

FORMAT_VERSION = "1"

KINDS = ("potentials", "bdt-params", "taylor", "szego", "report")


def to_json(a) -> list:
    """A complex scalar, matrix or stack of matrices as nested [re, im] pairs."""
    a = np.asarray(a)
    return np.stack([a.real, a.imag], -1).tolist()


def from_json(data, path: str, ndim: int) -> np.ndarray:
    """Nested [re, im] pairs of numbers as a complex array of ``ndim`` axes,
    bit for bit; anything else, a bool among floats too, raises
    ``DocumentError`` naming ``path``."""
    try:
        a = np.array(data)
    except ValueError as exc:                   # a ragged nesting
        raise DocumentError(f"{path}: the entries do not form one array") from exc
    if (a.dtype.kind not in "iuf" or a.ndim != ndim + 1 or a.shape[-1] != 2
            or any(type(x) is bool for x in np.array(data, dtype=object).flat)):
        raise DocumentError(f"{path}: expected a {ndim}-axis array of [re, im] number pairs")
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def _envelope(kind: str, payload: dict, **dims) -> dict:
    doc = {"kind": kind, "version": FORMAT_VERSION}
    doc.update({k: v for k, v in dims.items() if v is not None})
    doc["payload"] = payload
    return doc


def potentials_to_doc(sys: PotentialSequence, report: ValidationReport | None = None) -> dict:
    payload = {"C": to_json(sys.C)}
    if report is not None:
        payload["validation"] = report_payload(report)
    return _envelope("potentials", payload, p=sys.p, N=sys.N)


def potentials_from_doc(doc: dict) -> PotentialSequence:
    _expect_kind(doc, "potentials")
    return _build(PotentialSequence, ctx=SignatureContext(p=_dim(doc, "p")),
                  C=_field(doc, "C", 3))


def bdt_params_to_doc(params: BdtParameters) -> dict:
    payload = {name: to_json(getattr(params, name)) for name in ("A", "S0", "Pi0")}
    return _envelope("bdt-params", payload, p=params.ctx.p, n=params.n)


def bdt_params_from_doc(doc: dict) -> BdtParameters:
    _expect_kind(doc, "bdt-params")
    return _build(BdtParameters, ctx=SignatureContext(p=_dim(doc, "p")),
                  **{name: _field(doc, name, 2) for name in ("A", "S0", "Pi0")})


def taylor_to_doc(alpha: TaylorSequence) -> dict:
    return _envelope("taylor", {"alpha": to_json(alpha.alpha)}, p=alpha.p, N=alpha.N)


def taylor_from_doc(doc: dict) -> TaylorSequence:
    _expect_kind(doc, "taylor")
    return _build(TaylorSequence, p=_dim(doc, "p"), alpha=_field(doc, "alpha", 3))


def szego_to_doc(sz: SzegoSequence) -> dict:
    payload = {"R": to_json(sz.R), "theta": to_json(sz.theta)}
    return _envelope("szego", payload, p=sz.ctx.p, N=sz.N)


def szego_from_doc(doc: dict) -> SzegoSequence:
    _expect_kind(doc, "szego")
    return _build(SzegoSequence, ctx=SignatureContext(p=_dim(doc, "p")),
                  R=_field(doc, "R", 3), theta=_field(doc, "theta", 1))


def report_payload(report: ValidationReport) -> dict:
    failures = report.failures()
    return {
        "passed": not failures,
        "steps": [{"k": k, **dict(zip(CHECKS, row))}
                  for k, row in enumerate(report.residuals.tolist())],
        "failures": failures,
    }


def report_to_doc(payload: dict) -> dict:
    return _envelope("report", payload)


def _finite_or_null(value):
    """``value`` with every non-finite float, at any depth of its lists and
    dicts, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def dumps_doc(doc: dict) -> str:
    """``doc`` as strict JSON (RFC 8259): a NaN or an infinity is written as
    null, so no document holds a NaN or Infinity token."""
    return json.dumps(_finite_or_null(doc), indent=1, allow_nan=False)


def write_doc(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_doc(doc) + "\n")


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
    if type(value) is not int or value < 1:     # JSON true is a bool, not a dimension
        raise DocumentError(f"{name}: missing or not a positive integer")
    return value


def _field(doc: dict, name: str, ndim: int) -> np.ndarray:
    payload = doc.get("payload")
    if not isinstance(payload, dict) or name not in payload:
        raise DocumentError(f"payload.{name}: missing")
    return from_json(payload[name], f"payload.{name}", ndim)


def _build(cls, **fields):
    """``cls(**fields)``; the ValueError its constructor raises on fields of
    the wrong shape or value is reported as a malformed payload."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise DocumentError(f"payload: {exc}") from exc
