"""Batch command-line front end.

Commands compose through JSON documents on disk:

    generate -> direct -> inverse -> verify

Exit codes are a stable contract: 0 pass, 1 I/O or parse error, 2 invariant
failure, 3 direct-problem singularity, 4 Toeplitz indefiniteness.
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
    Phi1Mismatch,
    SingularLeadingBlock,
    SingularVMinus,
    ToeplitzNotPD,
)
from .inverse import direct_taylor, inverse_potentials, toeplitz_positivity
from .pseudoexp import example41_params, explicit_weyl, generate
from .system import herglotz_map, propagate, summation_residual, validate
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


def cmd_generate(args) -> int:
    if (args.params is None) == (args.example41 is None):
        print("generate: exactly one of --params and --example41 is required", file=sys.stderr)
        return EXIT_IO
    if args.params is not None:
        params = io.bdt_params_from_doc(io.read_doc(args.params))
    else:
        vals = _parse_complex_list(args.example41)
        if len(vals) != 3:
            raise DocumentError("--example41 expects a,phi,psi")
        a, phi, psi = vals
        params = example41_params(a.real, phi, psi)
    sys_out, _ = generate(params, args.steps)
    report = validate(sys_out)
    io.write_doc(args.out, io.potentials_to_doc(sys_out, report))
    if not report.passed:
        for line in report.failures():
            print(line, file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_direct(args) -> int:
    system = io.potentials_from_doc(io.read_doc(args.system))
    report = validate(system)
    if not args.no_validate and not report.passed:
        for line in report.failures():
            print(line, file=sys.stderr)
        return EXIT_INVARIANT
    alpha = direct_taylor(system)
    io.write_doc(args.out, io.taylor_to_doc(alpha, toeplitz_positivity(alpha)))
    return EXIT_OK


def cmd_inverse(args) -> int:
    alpha = io.taylor_from_doc(io.read_doc(args.taylor))
    system = inverse_potentials(alpha)
    report = validate(system)
    io.write_doc(args.out, io.potentials_to_doc(system, report))
    if not report.passed:
        for line in report.failures():
            print(line, file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_verify(args) -> int:
    system = io.potentials_from_doc(io.read_doc(args.system))
    report = validate(system)
    N = system.N
    grid = _parse_complex_list(args.lambda_grid) if args.lambda_grid else list(DEFAULT_LAMBDA_GRID)
    r_values = sorted({N // 2, N})
    summation = []
    for lam in grid:
        for r in r_values:
            summation.append({
                "lambda": io.complex_to_json(lam),
                "r": r,
                "residual": summation_residual(system, lam, r),
            })
    det_checks = []
    j = system.ctx.j
    for lam in grid:
        W = propagate(system, lam, N + 1)
        Wc = propagate(system, np.conj(lam), N + 1)
        factor = ((lam + 1j) * (lam - 1j) / lam**2) ** (N + 1)
        resid = float(np.linalg.norm(W @ j @ Wc.conj().T - factor * j))
        det_checks.append({
            "lambda": io.complex_to_json(lam),
            "residual": resid,
            "relative_residual": resid / (abs(factor) * np.sqrt(system.ctx.m)),
        })
    scale = max(max(np.linalg.norm(C) for C in system.C), 1.0)
    sum_tol = 1e-9 * scale * (N + 1)
    all_pass = (report.passed
                and all(s["residual"] < sum_tol for s in summation)
                and all(c["relative_residual"] < 1e-9 for c in det_checks))
    payload = {
        "validation": io.report_payload(report),
        "summation_residuals": summation,
        "determinant_identity_residuals": det_checks,
        "passed": bool(all_pass),
    }
    doc = io.report_to_doc(payload)
    if args.out:
        io.write_doc(args.out, doc)
    else:
        print(json.dumps(doc, indent=1))
    if not all_pass:
        if args.out:
            print("verification failed", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_szego(args) -> int:
    modes = [m for m in ("to_dirac", "to_szego", "schur", "from_schur", "round_trip")
             if getattr(args, m) not in (False, None)]
    if len(modes) != 1:
        print("szego: exactly one mode flag is required", file=sys.stderr)
        return EXIT_IO
    mode = modes[0]
    if mode == "from_schur":
        rho = SchurCoefficients(rho=tuple(_parse_complex_list(args.from_schur)))
        io.write_doc(args.out, io.szego_to_doc(schur_to_R(rho)))
        return EXIT_OK
    doc = io.read_doc(args.infile)
    if mode == "to_dirac":
        system = szego_to_dirac(io.szego_from_doc(doc))
        report = validate(system)
        io.write_doc(args.out, io.potentials_to_doc(system, report))
        return EXIT_OK if report.passed else EXIT_INVARIANT
    if mode == "to_szego":
        sz = dirac_to_szego(io.potentials_from_doc(doc))
        io.write_doc(args.out, io.szego_to_doc(sz))
        return EXIT_OK
    if mode == "schur":
        sz = io.szego_from_doc(doc)
        if sz.ctx.p != 1:
            print("szego --schur: Schur coefficients require block size p = 1",
                  file=sys.stderr)
            return EXIT_IO
        rho = schur_coeffs(sz)
        print(json.dumps([io.complex_to_json(r) for r in rho.rho]))
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
    value = explicit_weyl(params, lam)
    if args.convention == "K":
        value = herglotz_map(value)
    print(json.dumps(io.matrix_to_json(value)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ToeplitzNotPD as exc:
        where = f" (first failing index {exc.failing_index})" if exc.failing_index is not None else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_TOEPLITZ
    except (SingularLeadingBlock, SingularVMinus, Phi1Mismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except DiracSzegoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
