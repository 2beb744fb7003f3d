"""Shared numeric tolerances and the one rule every gate applies.

A gate passes when ``measured <= tau * scale``, with ``scale`` the rounding
scale of the operands that formed the residual (the norms of the factors of
each product, as in the standard backward-error bounds): C j C - j is judged
against ||C||^2, not a constant, because the Dirac coefficients and the
fundamental solutions grow geometrically with the step. The comparison is
written in its passing form, so a NaN fails it, in ``passes``, which also
judges arrays elementwise. ``check`` raises on failure, and ``check_stack``
on the first failure over a stack; ``failure`` returns the verdict as a
line, for reports that list them all; ``finite_gate`` is the gate of
``check_stack`` that a stack stays inside the floating-point range. The
exception raised carries the numbers of its line as attributes:
``measured``, ``allowed`` (tau * scale) and, from ``check_stack``, the
stack ``index`` of the failing member.
A lower bound lambda_min > t * scale is the same rule negated, ``tau=-t``.

``DEFAULT_POLICY`` is the one fixed policy; nothing takes a per-call override.
``tau`` bounds every identity and asymmetry residual and the slack of every
sign check lambda_min >= -tau * scale. M is positive definite when
lambda_min(M) > ``tau_pd`` * max(||M||, 1); below that it is singular to
working precision. Eigenvalues under ``tau_rank`` * lambda_max count as zero
for a numerical rank, and a condition number above ``cond_limit`` is singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FloatOverflow


@dataclass(frozen=True)
class NumericPolicy:
    tau: float = 1e-10
    tau_pd: float = 1e-10
    tau_rank: float = 1e-9
    cond_limit: float = 1e12


DEFAULT_POLICY = NumericPolicy()


def passes(measured, scale, tau: float = DEFAULT_POLICY.tau):
    """``measured <= tau * scale``, elementwise on arrays; NaN fails."""
    return measured <= tau * scale


def failure(measured: float, scale: float, what: str,
            tau: float = DEFAULT_POLICY.tau) -> str | None:
    """None when the gate ``passes``; otherwise a line naming the quantity,
    its measured value and the allowed value."""
    if passes(measured, scale, tau):
        return None
    return f"{what} is {measured:.3e}, allowed at most {tau * scale:.3e}"


def _error(measured, scale, exc: type[Exception], what: str, tau: float):
    """The exception ``check`` raises, with ``measured`` and ``allowed`` set;
    None when the gate passes."""
    line = failure(measured, scale, what, tau)
    if line is None:
        return None
    err = exc(line)
    err.measured, err.allowed = float(measured), float(tau * scale)
    return err


def check(measured: float, scale: float, exc: type[Exception], what: str,
          tau: float = DEFAULT_POLICY.tau) -> None:
    """Raise ``exc`` with the ``failure`` line when the gate fails."""
    err = _error(measured, scale, exc, what, tau)
    if err is not None:
        raise err


def check_stack(gates) -> None:
    """``check`` of several gates judged elementwise over one 1-D stack.

    Each gate is (measured, scale, exc, what, tau): ``measured`` is an array
    over the stack, ``scale`` an array or a number and ``what(i)`` names the
    quantity at stack index i. The first index that fails any gate raises
    the first gate that fails there, with ``index`` set to that stack index,
    so a stack fails as its members checked one at a time in order, each
    through all the gates, would.
    """
    ok = np.logical_and.reduce([passes(m, s, tau) for m, s, _, _, tau in gates])
    if not ok.all():
        i = int(np.argmin(ok))
        for measured, scale, exc, what, tau in gates:
            err = _error(measured[i], np.broadcast_to(scale, ok.shape)[i], exc, what(i), tau)
            if err is not None:
                err.index = i
                raise err


def finite_gate(X, what):
    """The gate of ``check_stack`` that every block of the stack X is finite:
    its largest real or imaginary part, NaN read as inf, is at most the
    largest float, else ``FloatOverflow`` names it by ``what(i)``."""
    part = np.maximum(np.abs(X.real), np.abs(X.imag)).max(axis=tuple(range(1, X.ndim)))
    return np.where(np.isnan(part), np.inf, part), np.finfo(float).max, FloatOverflow, what, 1.0
