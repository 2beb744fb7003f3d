"""Conversion between the Dirac form and the block Szego recurrence, scalar
Schur-coefficient extraction, and the map between their solutions.

The correspondence is a bijection on the subclass of Dirac systems with
positive-definite coefficients. The accumulated rotation U_k is a product of
j-unitary factors; rounding drift off the j-unitary manifold feeds back
through the square-root extraction and doubles per step, so the accumulation
reprojects after every update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlockSizeNotOne,
    InvariantViolated,
    ModulusAtLeastOne,
    NotHermitian,
    NotPositiveDefinite,
    PoleAtInput,
)
from .linalg import SignatureContext, _block_stack, min_eig_stack, norm_stack
from .policy import DEFAULT_POLICY, check_stack
from .system import PotentialSequence


def _rotate(U: np.ndarray, ijR: np.ndarray, flip: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """One step U (i j R) of the accumulated rotation, given ijR = i j R,
    followed by the first-order projection back onto the j-unitary manifold:
    V (I - E/2) with V = U (i j R) and E = j V* j V - I. j V* j is V* with the
    sign pattern ``flip`` = (s_a s_b) of j = diag(s) applied, exact, so a step
    is three products, with the bits of the six-product form.

    ``dirac_to_szego`` needs it: R_k comes from U_k* C_k U_k, so a drift off
    the manifold feeds back, doubles per step and stops the conversion near
    k = 20. Where the R_k are given the projection only adds rounding.
    """
    V = U @ ijR
    E = flip * V.conj().T @ V - eye
    return V @ (eye - E / 2)


def _signs(j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constants of ``_rotate`` for j = diag(s): s as a column, which
    forms i j R exactly as ``1j * (s * R)``, the sign pattern (s_a s_b), and I."""
    s = j.diagonal().real
    return s[:, None], np.outer(s, s), np.eye(len(s))


__all__ = [
    "SzegoSequence",
    "SchurCoefficients",
    "szego_to_dirac",
    "dirac_to_szego",
    "schur_to_R",
    "schur_coeffs",
    "szego_solution_map",
    "random_szego_sequence",
]


@dataclass(frozen=True)
class SzegoSequence:
    """Hermitian PD j-unitary factors R_k plus the scalar weights theta_k,
    stored as one read-only (N+1, m, m) array and one read-only (N+1,) array."""

    ctx: SignatureContext
    R: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)

    def __post_init__(self):
        R = _block_stack(self.R, (self.ctx.m, self.ctx.m), "R")
        theta = _block_stack(self.theta, (), "theta")
        if len(R) != len(theta):
            raise ValueError("R and theta must have equal length")
        if (theta == 0).any():
            raise ValueError("theta_k must be nonzero")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "theta", theta)

    @property
    def N(self) -> int:
        return len(self.R) - 1


@dataclass(frozen=True)
class SchurCoefficients:
    """Scalar Schur (Verblunsky) coefficients, |rho_k| < 1; NaN fails."""

    rho: tuple

    def __post_init__(self):
        rho = tuple(complex(r) for r in self.rho)
        if not all(abs(r) < 1 for r in rho):
            raise ModulusAtLeastOne("all Schur coefficients must satisfy |rho| < 1")
        object.__setattr__(self, "rho", rho)


def _rotations(R, j: np.ndarray, count: int) -> np.ndarray:
    """U_0..U_{count-1} as one (count, m, m) stack, U_0 = I and
    U_{k+1} = U_k (i j R_k) reprojected by ``_rotate``."""
    rows, flip, eye = _signs(j)
    ijR = 1j * (rows * np.asarray(R[:count - 1]))
    U = np.empty((count,) + eye.shape, dtype=complex)
    U[0] = eye
    for k in range(1, count):
        U[k] = _rotate(U[k - 1], ijR[k - 1], flip, eye)
    return U


def szego_to_dirac(sz: SzegoSequence) -> PotentialSequence:
    """Dirac coefficients C_k = (U_k*)^{-1} R_k^2 U_k^{-1}, one stacked product."""
    ctx, j = sz.ctx, sz.ctx.j
    U = _rotations(sz.R, j, len(sz.R))
    # U is j-unitary, so its inverse is available exactly as j U* j
    Uinv = j @ U.conj().transpose(0, 2, 1) @ j
    C = Uinv.conj().transpose(0, 2, 1) @ (sz.R @ sz.R) @ Uinv
    return PotentialSequence(ctx=ctx, C=(C + C.conj().transpose(0, 2, 1)) / 2)


def dirac_to_szego(sys: PotentialSequence) -> SzegoSequence:
    """Szego factors R_k = (U_k* C_k U_k)^{1/2} with U_{k+1} = U_k (i j R_k).

    Requires C_k > 0 (judged like ``validate``). U_k* C_k U_k is checked
    Hermitian at ||U_k||^2 ||C_k||, its Hermitian part H Hermitian and positive
    definite at max(||H||, 1), and R j R = j at ||R||^2 + ||j||: a failure
    means the input is outside the positive-definite subclass or the rotation
    ran out of digits. The theta weights are sqrt(1 - |rho_k|^2) with the
    scalar Schur coefficient rho_k for p = 1 and the constant 1 for p > 1;
    other weights can be set with ``dataclasses.replace(sz, theta=...)``.

    The recursion runs first, each root V w^{1/2} V* from one eigh of H, and
    all five gates of every step are then judged in one pass on stacks, in
    the order a per-step loop checks them: the error names the first step
    that fails, with the first of its gates that fails. A LinAlgError of the
    eigensolver at step k is raised once the gates before it pass.
    """
    ctx = sys.ctx
    j, norm_j = ctx.j, np.linalg.norm(ctx.j)
    C = sys.C
    U, M, R = np.empty_like(C), np.empty_like(C), np.empty_like(C)
    low = np.empty(len(C))                      # smallest eigenvalue of each Hermitian part
    rows, flip, eye = _signs(j)
    u, error = eye.astype(complex), None
    # the steps after a failing one may run on NaN or inf, and their gate norms
    # overflow; that step's gate raises first
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(len(C)):
            U[k] = u
            M[k] = u.conj().T @ C[k] @ u
            try:
                w, V = np.linalg.eigh((M[k] + M[k].conj().T) / 2)
            except np.linalg.LinAlgError as exc:
                # values that pass the gates after the eigensolver: its error stands for them
                error, low[k], R[k] = exc, np.inf, np.eye(ctx.m)
                break
            r = (V * np.sqrt(w)) @ V.conj().T
            R[k], low[k] = (r + r.conj().T) / 2, w[0]
            u = _rotate(u, 1j * (rows * R[k]), flip, eye)
        n = k + 1
        U, M, R, C, low = U[:n], M[:n], R[:n], C[:n], low[:n]
        H = (M + M.conj().transpose(0, 2, 1)) / 2
        norm_c, norm_h = norm_stack(C), np.maximum(norm_stack(H), 1.0)
        tau, tau_pd = DEFAULT_POLICY.tau, DEFAULT_POLICY.tau_pd
        # float_power squares with libm pow, as ``norm ** 2`` of one matrix does
        gates = [
            (-min_eig_stack(C), np.maximum(norm_c, 1.0), NotPositiveDefinite,
             lambda k: f"-min_eig(C_{k})", tau),
            (norm_stack(M - M.conj().transpose(0, 2, 1)), np.float_power(norm_stack(U), 2) * norm_c,
             NotHermitian, lambda k: f"asymmetry of U_{k}* C_{k} U_{k}", tau),
            (norm_stack(H - H.conj().transpose(0, 2, 1)), norm_h, NotHermitian,
             lambda k: "asymmetry", tau),
            (-low, norm_h, NotPositiveDefinite, lambda k: "-min_eig", -tau_pd),
            (norm_stack(R @ j @ R - j), np.float_power(norm_stack(R), 2) + norm_j,
             InvariantViolated, lambda k: f"R_{k} j R_{k} - j residual", tau),
        ]
        check_stack(gates)
    if error is not None:
        raise error
    # sqrt(1 - |rho_k|^2) with scalar arithmetic: the array forms of abs and ** 2 round differently
    theta = [np.sqrt(1 - abs(-r[0, 1] / r[0, 0]) ** 2) for r in R] if ctx.p == 1 else np.ones(n)
    return SzegoSequence(ctx=ctx, R=R, theta=theta)


def schur_to_R(rho: SchurCoefficients) -> SzegoSequence:
    """Scalar Szego factors R_k = (1-|rho_k|^2)^{-1/2} [[1, -rho_k], [-conj(rho_k), 1]]."""
    ctx = SignatureContext(p=1)
    R, theta = [], []
    for r in rho.rho:
        t = np.sqrt(1 - abs(r) ** 2)
        R.append(np.array([[1.0, -r], [-np.conj(r), 1.0]], dtype=complex) / t)
        theta.append(t)
    return SzegoSequence(ctx=ctx, R=R, theta=theta)


def schur_coeffs(sz: SzegoSequence) -> SchurCoefficients:
    """Read rho_k = -(R_k)_{12} / (R_k)_{11} off a scalar (p = 1) sequence."""
    if sz.ctx.p != 1:
        raise BlockSizeNotOne("Schur coefficients exist only for block size 1")
    return SchurCoefficients(rho=tuple(-R[0, 1] / R[0, 0] for R in sz.R))


def random_szego_sequence(rng, p: int, N: int, scale: float = 0.15) -> SzegoSequence:
    """Draw N + 1 random Hermitian PD j-unitary factors.

    Each factor is exp(H) with H = [[0, h], [h*, 0]] for a random complex p x p
    block h; the anticommutation j H j = -H makes exp(H) j-unitary, and the
    Hermitian exponential is automatically positive definite. ``scale``
    controls conditioning of the induced Dirac coefficients: the accumulated
    rotations compound, so large values degrade downstream Toeplitz inversion.
    With h = U S V*, exp(H) = [[U cosh S U*, U sinh S V*], [V sinh S U*, V cosh S V*]],
    formed from one batched SVD.
    """
    h = np.stack([scale * (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
                  for _ in range(N + 1)])
    U, s, Vh = np.linalg.svd(h)
    UH, V = U.conj().transpose(0, 2, 1), Vh.conj().transpose(0, 2, 1)
    ch, sh = np.cosh(s)[:, None, :], np.sinh(s)[:, None, :]
    R = np.block([[(U * ch) @ UH, (U * sh) @ Vh], [(V * sh) @ UH, (V * ch) @ Vh]])
    return SzegoSequence(ctx=SignatureContext(p=p), R=R, theta=np.ones(N + 1))


def szego_solution_map(sz: SzegoSequence, X_k: np.ndarray, k: int, lam: complex) -> np.ndarray:
    """Map a Szego-recurrence solution value X_k(z) to the Dirac solution

        W_k(lambda) = (i - 1/lambda)^k / prod_{r<k} theta_r
                      * U_k diag(z I_p, I_p) X_k,   z = (1+i lambda)/(1-i lambda),

    with the accumulated rotation U_k = (i j R_0) ... (i j R_{k-1}) of the
    form conversions. z is the Szego-recurrence variable, not the
    half-plane-to-disk Cayley map (lambda + i) / (lambda - i).
    """
    if lam == 0:
        raise PoleAtInput("lambda must be nonzero")
    if lam == -1j:
        raise PoleAtInput("the Szego variable has a pole at lambda = -i")
    z = (1 + 1j * lam) / (1 - 1j * lam)
    p = sz.ctx.p
    scale = (1j - 1 / lam) ** k / np.prod([sz.theta[r] for r in range(k)]) if k > 0 else 1.0
    D = np.block([
        [z * np.eye(p), np.zeros((p, p))],
        [np.zeros((p, p)), np.eye(p)],
    ]).astype(complex)
    return scale * _rotations(sz.R, sz.ctx.j, k + 1)[k] @ D @ np.asarray(X_k, dtype=complex)
