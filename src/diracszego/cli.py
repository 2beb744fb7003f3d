"""Batch command-line front end.

Commands compose through JSON documents on disk:

    generate -> direct -> inverse -> verify

Exit codes are a stable contract: 0 pass, 1 I/O or parse error, 2 invariant
failure (a LAPACK failure too), 3 direct-problem singularity, 4 Toeplitz
indefiniteness.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io
from .errors import (
    DiracSzegoError,
    DocumentError,
    ModulusAtLeastOne,
    Phi1Mismatch,
    SingularLeadingBlock,
    SingularVMinus,
    ToeplitzNotPD,
)
from .inverse import direct_taylor, inverse_potentials
from .policy import failure
from .pseudoexp import example41_params, explicit_weyl, generate
from .system import (_summation_defects, fundamental_solutions, herglotz_map, propagate,
                     validate)
from .szego import dirac_to_szego, schur_coeffs, schur_to_R, szego_to_dirac, SchurCoefficients

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVARIANT = 2
EXIT_SINGULAR = 3
EXIT_TOEPLITZ = 4

DEFAULT_LAMBDA_GRID = (1 - 1j, -2j, 3 - 0.5j)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise DocumentError(f"cannot parse complex number from {text!r}") from exc


def _parse_complex_list(text: str) -> list[complex]:
    return [_parse_complex(part) for part in text.split(",") if part.strip()]


def _parse_lambda(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 2:
        try:
            return complex(float(parts[0]), float(parts[1]))
        except ValueError:
            pass
    return _parse_complex(text)


def _exit_code(failures: list[str]) -> int:
    """Print one stderr line per failed check; EXIT_INVARIANT if any failed."""
    for line in failures:
        print(line, file=sys.stderr)
    return EXIT_INVARIANT if failures else EXIT_OK


def _write_validated(path: str, system) -> int:
    """Write a potentials document with its validation report; exit as it says."""
    report = validate(system)
    io.write_doc(path, io.potentials_to_doc(system, report))
    return _exit_code(report.failures())


def cmd_generate(args) -> int:
    if (args.params is None) == (args.example41 is None):
        raise _UsageError("generate: exactly one of --params and --example41 is required")
    if args.steps < 0:
        raise _UsageError("generate: --steps must be a nonnegative integer")
    if args.params is not None:
        params = io.bdt_params_from_doc(io.read_doc(args.params))
    else:
        vals = _parse_complex_list(args.example41)
        if len(vals) != 3:
            raise DocumentError("--example41 expects a,phi,psi")
        a, phi, psi = vals
        try:
            params = example41_params(a, phi, psi)
        except ValueError as exc:
            raise _UsageError(f"generate --example41: {exc}") from exc
    return _write_validated(args.out, generate(params, args.steps)[0])


def cmd_direct(args) -> int:
    system = io.potentials_from_doc(io.read_doc(args.system))
    if not args.no_validate and (code := _exit_code(validate(system).failures())):
        return code
    io.write_doc(args.out, io.taylor_to_doc(direct_taylor(system)))
    return EXIT_OK


def cmd_inverse(args) -> int:
    alpha = io.taylor_from_doc(io.read_doc(args.taylor))
    return _write_validated(args.out, inverse_potentials(alpha))


def cmd_verify(args) -> int:
    grid = DEFAULT_LAMBDA_GRID if args.lambda_grid is None else _parse_complex_list(args.lambda_grid)
    if not grid:
        raise _UsageError("verify: --lambda-grid names no point")
    for lam in grid:
        if lam.imag == 0:
            raise _UsageError(f"verify: --lambda-grid point {lam} is real; use Im lambda != 0")
    system = io.potentials_from_doc(io.read_doc(args.system))
    report = validate(system)
    N, j = system.N, system.ctx.j
    failures = report.failures()
    summation, det_checks = [], []
    for lam in grid:
        W = fundamental_solutions(system, lam, N + 1)
        defects = _summation_defects(system, lam, W)
        summation.extend({"lambda": io.to_json(lam), "r": r, "residual": float(defects[r])}
                         for r in sorted({N // 2, N}))
        failures.extend(failure(resid, 1.0, f"summation defect at lambda={lam}, r={r}")
                        for r, resid in enumerate(defects))
        # W(lam) and W(conj(lam)) are divided by their norms before the product,
        # whose norm overflows at long N while W itself is finite
        Wn, Wc = W[-1], propagate(system, np.conj(lam), N + 1)
        nn, nc, norm_j = np.linalg.norm(Wn), np.linalg.norm(Wc), np.linalg.norm(j)
        factor = ((lam + 1j) * (lam - 1j) / lam**2) ** (N + 1)
        f = factor / (nn * nc)
        relative = float(np.linalg.norm((Wn / nn) @ j @ (Wc / nc).conj().T - f * j)
                         / ((1 + abs(f)) * norm_j))
        resid = relative * (nn * nc + abs(factor)) * norm_j
        det_checks.append({"lambda": io.to_json(lam), "residual": resid,
                           "relative_residual": relative})
        failures.append(failure(relative, 1.0, f"determinant defect at lambda={lam}, k={N + 1}"))
    failures = [line for line in failures if line is not None]
    doc = io.report_to_doc({
        "validation": io.report_payload(report),
        "summation_residuals": summation,
        "determinant_identity_residuals": det_checks,
        "passed": not failures,
    })
    if args.out:
        io.write_doc(args.out, doc)
    else:
        print(json.dumps(doc, indent=1))
    return _exit_code(failures)


def cmd_szego(args) -> int:
    modes = [m for m in ("to_dirac", "to_szego", "schur", "from_schur", "round_trip")
             if getattr(args, m) not in (False, None)]
    if len(modes) != 1:
        raise _UsageError("szego: exactly one mode flag is required")
    mode = modes[0]
    writes = mode in ("to_dirac", "to_szego", "from_schur")
    for flag, given, needed in (("--in", args.infile, mode != "from_schur"),
                                ("--out", args.out, writes)):
        if needed and given is None:
            raise _UsageError(f"szego --{mode.replace('_', '-')}: {flag} is required")
    if mode == "from_schur":
        values = _parse_complex_list(args.from_schur)
        if not values:
            raise _UsageError("szego --from-schur: the list names no coefficient")
        try:
            rho = SchurCoefficients(rho=values)
        except ModulusAtLeastOne as exc:
            raise _UsageError(f"szego --from-schur: {exc}") from exc
        io.write_doc(args.out, io.szego_to_doc(schur_to_R(rho)))
        return EXIT_OK
    doc = io.read_doc(args.infile)
    if mode == "to_dirac":
        return _write_validated(args.out, szego_to_dirac(io.szego_from_doc(doc)))
    if mode == "to_szego":
        sz = dirac_to_szego(io.potentials_from_doc(doc))
        io.write_doc(args.out, io.szego_to_doc(sz))
        return EXIT_OK
    if mode == "schur":
        sz = io.szego_from_doc(doc)
        if sz.ctx.p != 1:
            raise DocumentError("szego --schur: Schur coefficients require block size p = 1")
        print(json.dumps(io.to_json(schur_coeffs(sz).rho)))
        return EXIT_OK
    # round trip: potentials -> szego -> potentials, report max deviation
    system = io.potentials_from_doc(doc)
    back = szego_to_dirac(dirac_to_szego(system))
    dev = max(float(np.linalg.norm(a - b)) for a, b in zip(system.C, back.C))
    print(f"round-trip max deviation: {dev:.3e}")
    return EXIT_OK


def cmd_weyl(args) -> int:
    params = io.bdt_params_from_doc(io.read_doc(args.params))
    lam = _parse_lambda(args.lam)
    if lam.imag > 0:
        raise _UsageError(f"--lambda {lam} is in the upper half-plane; use Im lambda <= 0")
    value = explicit_weyl(params, lam)
    if args.convention == "K":
        value = herglotz_map(value)
    print(json.dumps(io.to_json(value)))
    return EXIT_OK


class _UsageError(Exception):
    """A command line that names no valid action; ``main`` exits EXIT_IO."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would print the usage and exit 2, the code of an invariant failure
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diracszego",
        description="Direct and inverse spectral problems for discrete Dirac-type systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate pseudo-exponential potentials")
    g.add_argument("--params", help="bdt-params document")
    g.add_argument("--example41", metavar="A,PHI,PSI",
                   help="closed-form scalar family parameters")
    g.add_argument("--steps", type=int, required=True, metavar="N")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("direct", help="potentials to Weyl Taylor coefficients")
    d.add_argument("--system", required=True, help="potentials document")
    d.add_argument("--out", required=True)
    d.add_argument("--no-validate", action="store_true")
    d.set_defaults(func=cmd_direct)

    i = sub.add_parser("inverse", help="Taylor coefficients to potentials")
    i.add_argument("--taylor", required=True, help="taylor document")
    i.add_argument("--out", required=True)
    i.set_defaults(func=cmd_inverse)

    v = sub.add_parser("verify", help="run the invariant suite on a system")
    v.add_argument("--system", required=True)
    v.add_argument("--lambda-grid", dest="lambda_grid", metavar="SPEC",
                   help="comma list of complex sample points")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("szego", help="conversions between system forms")
    s.add_argument("--to-dirac", dest="to_dirac", action="store_true")
    s.add_argument("--to-szego", dest="to_szego", action="store_true")
    s.add_argument("--schur", action="store_true",
                   help="extract scalar Schur coefficients")
    s.add_argument("--from-schur", dest="from_schur", metavar="RHO_LIST",
                   help="build a szego document from Schur coefficients")
    s.add_argument("--round-trip", dest="round_trip", action="store_true",
                   help="potentials -> szego -> potentials, print max deviation")
    s.add_argument("--in", dest="infile")
    s.add_argument("--out")
    s.set_defaults(func=cmd_szego)

    w = sub.add_parser("weyl", help="evaluate the explicit Weyl function")
    w.add_argument("--params", required=True)
    w.add_argument("--lambda", dest="lam", required=True, metavar="RE,IM")
    w.add_argument("--convention", choices=("identity", "K"), default="identity")
    w.set_defaults(func=cmd_weyl)

    return parser


# the first class an error belongs to sets its exit code
_EXIT_CODES = (
    (ToeplitzNotPD, EXIT_TOEPLITZ),
    ((SingularLeadingBlock, SingularVMinus, Phi1Mismatch), EXIT_SINGULAR),
    (DiracSzegoError, EXIT_INVARIANT),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, DocumentError, OSError) as exc:
        code, message = EXIT_IO, str(exc)
    except np.linalg.LinAlgError as exc:
        code, message = EXIT_INVARIANT, f"linear algebra failure: {exc}"
    except DiracSzegoError as exc:
        code = next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
        # only an error found by scanning the steps (the Toeplitz gate) names
        # its first failing index; a stack gate's message names its step
        where = getattr(exc, "failing_index", None)
        message = str(exc) if where is None else f"{exc} (first failing index {where})"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
