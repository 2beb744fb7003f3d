"""Discrete self-adjoint Dirac-type systems: validation, propagation, Weyl-disk
evaluation on an interval, and the Herglotz change of convention.

The system is the recursion W_{k+1} = (I - (i/lambda) j C_k) W_k with Hermitian
j-unitary coefficients C_k. All operations are pure functions over immutable
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    LambdaZero,
    RealLambda,
    SingularDenominator,
    SingularShift,
)
from .linalg import (SignatureContext, _block_stack, check_cond, check_cond_stack, min_eig,
                     min_eig_stack, norm_stack, prefix_products)
from .policy import DEFAULT_POLICY, check, failure, passes

__all__ = [
    "PotentialSequence",
    "MoebiusPair",
    "CHECKS",
    "ValidationReport",
    "validate",
    "fundamental_solutions",
    "propagate",
    "q_weight",
    "summation_residual",
    "weyl_disk_eval",
    "herglotz_map",
    "weyl_partial_sum",
]


@dataclass(frozen=True)
class PotentialSequence:
    """Sequence {C_k}, k = 0..N, of m x m Hermitian j-unitary coefficients,
    stored as one read-only (N+1, m, m) array."""

    ctx: SignatureContext
    C: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "C", _block_stack(self.C, (self.ctx.m, self.ctx.m), "C"))

    @property
    def N(self) -> int:
        return len(self.C) - 1

    @property
    def p(self) -> int:
        return self.ctx.p


@dataclass(frozen=True)
class MoebiusPair:
    """Constant nonsingular pair (R, Q) with the j-property
    R*R + Q*Q > 0 and R*R <= Q*Q."""

    R: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=complex)
        Q = np.asarray(self.Q, dtype=complex)
        if R.shape != Q.shape or R.shape[0] != R.shape[1]:
            raise ValueError("R and Q must be square of equal size")
        gram = R.conj().T @ R + Q.conj().T @ Q
        check(-min_eig(gram), max(np.linalg.norm(gram), 1.0), ValueError,
              "pair is singular: -min_eig(R*R + Q*Q)", -DEFAULT_POLICY.tau_pd)
        check(-min_eig(Q.conj().T @ Q - R.conj().T @ R), np.linalg.norm(gram), ValueError,
              "pair violates R*R <= Q*Q: -min_eig(Q*Q - R*R)")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Q", Q)


CHECKS = ("herm_residual", "junitary_residual", "min_eig", "min_eig_plus_j",
          "min_eig_minus_j")
# per column: the sign that makes it the residual ``policy.failure`` judges,
# and the quantity its failure line names
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0, -1.0])
_WHAT = ("||C - C*|| / max(||C||, 1)", "||C j C - j|| / max(||C||^2, 1)",
         "-min_eig(C) / max(||C||, 1)", "-min_eig(C + j) / max(||C||, 1)",
         "-min_eig(C - j) / max(||C||, 1)")


@dataclass(frozen=True)
class ValidationReport:
    """Checks on every C_k as one (N+1, 5) array, column c holding ``CHECKS[c]``:
    C j C - j over max(||C||^2, 1), the others over max(||C||, 1)."""

    residuals: np.ndarray = field(repr=False)

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        """One line per failed check, step by step and check by check, each
        judged by ``policy.failure`` on the signed residual (a NaN fails)."""
        signed = self.residuals * _SIGNS
        return [failure(signed[k, c], 1.0, f"C_{k}: {_WHAT[c]}")
                for k, c in np.argwhere(~passes(signed, 1.0))]


def validate(sys: PotentialSequence) -> ValidationReport:
    """Per-step residual report for the structure relations C = C*, C j C = j,
    C > 0 and C +- j >= 0, as one read-only array. Never raises; callers
    decide pass/fail. C > 0 follows from the other three, so min_eig(C)
    (about 1/||C||, below its own rounding error at large ||C||) is judged
    >= -tau like those of C +- j. Every residual is taken over the whole stack
    of coefficients at once, the smallest eigenvalues of C, C + j and C - j
    with one batched eigvalsh."""
    j, C = sys.ctx.j, sys.C
    norm = norm_stack(C)
    scale = np.maximum(norm, 1.0)
    herm = norm_stack(C - C.conj().transpose(0, 2, 1)) / scale
    junitary = norm_stack(C @ j @ C - j) / np.maximum(norm ** 2, 1.0)
    eig = min_eig_stack(np.stack([C, C + j, C - j])) / scale
    residuals = np.column_stack([herm, junitary, *eig])
    residuals.flags.writeable = False
    return ValidationReport(residuals)


def fundamental_solutions(sys: PotentialSequence, lam: complex, k: int) -> np.ndarray:
    """Stack W_0(lambda)..W_k(lambda) of fundamental solutions, shape
    (k+1, m, m): W_0 = I and W_{r+1} = (I - (i/lambda) j C_r) W_r, the one-step
    factors formed as one stack and left-multiplied by ``prefix_products``
    from W_0. W_r does not depend on k, and W_1..W_16 have the bits of the
    per-step loop. The one propagation kernel: ``propagate``, the summation and
    partial Weyl sums and ``verify`` all read their W_k from it."""
    if lam == 0:
        raise LambdaZero("the system has a pole at lambda = 0")
    if k < 0 or k > sys.N + 1:
        raise ValueError(f"step index {k} out of range 0..{sys.N + 1}")
    eye = np.eye(sys.ctx.m, dtype=complex)
    steps = eye - (1j / lam) * sys.ctx.j @ sys.C[:k]
    return prefix_products(steps, eye, lambda W, step: step @ W)


def propagate(sys: PotentialSequence, lam: complex, k: int) -> np.ndarray:
    """Fundamental solution W_k(lambda), normalized to W_0 = I."""
    return fundamental_solutions(sys, lam, k)[k]


def q_weight(lam: complex) -> float:
    """The weight |lambda|^2 / (|lambda|^2 + 1) in (0, 1)."""
    if lam == 0:
        raise LambdaZero("lambda must be nonzero")
    a = abs(lam) ** 2
    return a / (a + 1.0)


def summation_residual(sys: PotentialSequence, lam: complex, r: int) -> float:
    """Norm of the defect in the summation formula

        sum_{k<=r} q^k W_k* C_k W_k
            = (|lambda|^2 + 1) / (i (lambda - conj(lambda)))
              * (q^{r+1} W_{r+1}* j W_{r+1} - j).

    Divided by the rounding scale of the two sides, sum_k q^k ||W_k||^2 ||C_k||
    + |c| (q^{r+1} ||W_{r+1}||^2 + 1) ||j|| with c the coefficient above, it is
    at rounding level for every valid system however fast W_k grows; a large
    value flags an invalid potential or a propagation defect.
    """
    if not 0 <= r <= sys.N:
        raise ValueError(f"r={r} is outside 0..N, N={sys.N}")
    return float(_summation_defects(sys, lam, fundamental_solutions(sys, lam, r + 1))[r])


def _summation_defects(sys: PotentialSequence, lam: complex, W: np.ndarray) -> np.ndarray:
    """``summation_residual`` at every r = 0..len(W) - 2 from one stack
    W_0, W_1, ... of ``fundamental_solutions``: the left side and the first
    term of the scale are running sums over k."""
    if lam.imag == 0:
        raise RealLambda("summation formula requires Im(lambda) != 0")
    j = sys.ctx.j
    weights = q_weight(lam) ** np.arange(len(W))
    C = sys.C[: len(W) - 1]
    Wh = W.conj().transpose(0, 2, 1)
    lhs = np.cumsum(weights[:-1, None, None] * (Wh[:-1] @ C @ W[:-1]), axis=0)
    coef = (abs(lam) ** 2 + 1) / (1j * (lam - np.conj(lam)))
    rhs = coef * (weights[1:, None, None] * (Wh[1:] @ j @ W[1:]) - j)
    norm_w = np.linalg.norm(W, axis=(1, 2)) ** 2
    scale = (np.cumsum(weights[:-1] * norm_w[:-1] * np.linalg.norm(C, axis=(1, 2)))
             + abs(coef) * (weights[1:] * norm_w[1:] + 1) * np.linalg.norm(j))
    return np.linalg.norm(lhs - rhs, axis=(1, 2)) / scale


def weyl_disk_eval(sys: PotentialSequence, pair: MoebiusPair, lam: complex) -> np.ndarray:
    """Interval Weyl-disk point: the Moebius transform of the pair by the
    rotated fundamental solution cal-W(lambda) = K W_{N+1}(conj(lambda))*.

    Returns phi = i (W21 R + W22 Q)(W11 R + W12 Q)^{-1}.
    """
    if lam.imag > 0:
        raise ValueError("weyl_disk_eval is defined on the closed lower half-plane")
    p = sys.ctx.p
    Wfull = sys.ctx.K @ propagate(sys, np.conj(lam), sys.N + 1).conj().T
    W11, W12 = Wfull[:p, :p], Wfull[:p, p:]
    W21, W22 = Wfull[p:, :p], Wfull[p:, p:]
    den_inv = check_cond(W11 @ pair.R + W12 @ pair.Q, SingularDenominator,
                         "the Moebius denominator")
    return 1j * (W21 @ pair.R + W22 @ pair.Q) @ den_inv


def herglotz_map(phiI: np.ndarray) -> np.ndarray:
    """Change of convention phi_K = -i (I - phi_I)(I + phi_I)^{-1}, for one
    p x p value (scalars are promoted) or a (..., p, p) stack. Each I + phi_I
    passes the ``cond_limit`` gate, else ``SingularShift`` names the first
    failing one by its stack index. The inverses are the gate's own."""
    phiI = np.atleast_2d(np.asarray(phiI, dtype=complex))
    eye = np.eye(phiI.shape[-1], dtype=complex)
    shift = eye + phiI
    if shift.ndim == 2:
        inv = check_cond(shift, SingularShift, "I + phi_I")
    else:
        inv = check_cond_stack(shift, SingularShift, lambda i: f"I + phi_I (stack index {i})")
    return -1j * (eye - phiI) @ inv


def weyl_partial_sum(sys: PotentialSequence, phi, lam: complex, r: int,
                     convention: str = "identity") -> np.ndarray:
    """Partial Weyl sum at lambda in the lower half-plane.

    ``phi`` is a callable lambda -> p x p array (scalars are promoted). The
    identity convention sums [phi* I] q^k W_k* C_k W_k [phi; I]; the K
    convention sums [i phi* I] q^k K W_k* C_k W_k K* [-i phi; I]. The result
    is Hermitian and monotone nondecreasing in ``r``.
    """
    if lam.imag >= 0:
        raise ValueError("partial Weyl sums are evaluated in the open lower half-plane")
    if convention not in ("identity", "K"):
        raise ValueError(f"unknown convention {convention!r}")
    if r > sys.N:
        raise ValueError(f"r={r} exceeds sequence length N={sys.N}")
    p = sys.ctx.p
    val = np.atleast_2d(np.asarray(phi(lam), dtype=complex))
    if convention == "identity":
        col = np.vstack([val, np.eye(p, dtype=complex)])
    else:
        col = sys.ctx.K.conj().T @ np.vstack([-1j * val, np.eye(p, dtype=complex)])
    u = fundamental_solutions(sys, lam, r) @ col    # u_k = W_k col, (r+1, m, p)
    acc = np.einsum("k,kba,kbc,kcd->ad", q_weight(lam) ** np.arange(r + 1), u.conj(),
                    sys.C[: r + 1], u)
    return (acc + acc.conj().T) / 2
