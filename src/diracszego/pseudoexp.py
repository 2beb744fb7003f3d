"""Explicit machinery for rational Weyl functions: generation of
pseudo-exponential potentials from finite-dimensional parameter triples,
the transfer matrix function, the explicit fundamental solution, the explicit
Weyl function, recovery from a realization, and the scalar closed-form family
used as an oracle throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IdentityViolated,
    InvariantViolated,
    LambdaZero,
    ModulusMismatch,
    NotPositiveDefinite,
    ResolventSingular,
    SingularS,
    SingularW0,
)
from .linalg import (SignatureContext, check_cond, check_cond_stack, herm_residual, hermitian_sqrt,
                     min_eig, min_eig_stack, norm_stack)
from .policy import DEFAULT_POLICY, check, check_stack
from .system import PotentialSequence

__all__ = [
    "BdtParameters",
    "BdtState",
    "WeylRealization",
    "generate",
    "normalize",
    "transfer",
    "explicit_fundamental",
    "explicit_weyl",
    "explicit_partial_sum",
    "realization_to_params",
    "example41",
    "example41_params",
    "random_bdt_parameters",
]


@dataclass(frozen=True)
class BdtParameters:
    """Parameter triple (A, S0, Pi0) with A S0 - S0 A* = i Pi0 j Pi0*.

    ``A`` is n x n invertible, ``S0`` n x n Hermitian, ``Pi0`` n x 2p.
    """

    ctx: SignatureContext
    A: np.ndarray = field(repr=False)
    S0: np.ndarray = field(repr=False)
    Pi0: np.ndarray = field(repr=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        S0 = np.asarray(self.S0, dtype=complex)
        Pi0 = np.asarray(self.Pi0, dtype=complex)
        n = A.shape[0]
        if A.shape != (n, n) or S0.shape != (n, n) or Pi0.shape != (n, self.ctx.m):
            raise ValueError("inconsistent parameter shapes")
        check_cond(A, ValueError, "A, which must be invertible,")
        scale = max(np.linalg.norm(A) * np.linalg.norm(S0), np.linalg.norm(Pi0) ** 2, 1.0)
        check(herm_residual(S0), scale, IdentityViolated, "asymmetry of S0")
        check(np.linalg.norm(A @ S0 - S0 @ A.conj().T - 1j * Pi0 @ self.ctx.j @ Pi0.conj().T),
              scale, IdentityViolated, "parameter identity residual")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "S0", S0)
        object.__setattr__(self, "Pi0", Pi0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def Phi(self) -> np.ndarray:
        return self.Pi0[:, : self.ctx.p]

    @property
    def Psi(self) -> np.ndarray:
        return self.Pi0[:, self.ctx.p:]

    @property
    def s0_positive(self) -> bool:
        return min_eig(self.S0) > 0


@dataclass(frozen=True)
class BdtState:
    """Snapshot (k, Pi_k, S_k) of the generating recursion."""

    k: int
    Pi: np.ndarray
    S: np.ndarray


def _norm(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, taken from it divided by its
    largest modulus: finite while the matrix is, NaN with a NaN or inf entry."""
    top = np.abs(M).max(axis=(-2, -1))
    return top * norm_stack(M / np.where(top > 0, top, 1.0)[..., None, None])


def _stacks(params: BdtParameters, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Pi_k and S_k, k = 0..count-1, as a (count, n, 2p) and a Hermitian
    (count, n, n) stack. The recursion runs first, on inf and NaN past the
    floating-point range; one ``check_stack`` then judges at each k: S_k is
    finite (``SingularS``, "S_k overflows"), the step identity
    A S_k - S_k A* = i Pi_k j Pi_k* at the scale 2 ||A|| ||S_k|| + ||Pi_k||^2
    (``IdentityViolated``), and, when S0 > 0, min_eig(S_k) > tau_pd
    max(||S_k||, 1): S_k > 0 exactly, but min_eig(S_k) / ||S_k|| can decay
    geometrically, and below tau_pd S_k is singular to working precision
    (``SingularS``). The norms are overflow-safe (``_norm``)."""
    A, j = params.A, params.ctx.j
    Ainv = np.linalg.inv(A)
    Pi = np.empty((count,) + params.Pi0.shape, dtype=complex)
    S = np.empty((count,) + params.S0.shape, dtype=complex)
    Pi[0], S[0] = params.Pi0, params.S0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(count - 1):
            Pi[k + 1] = Pi[k] + 1j * Ainv @ Pi[k] @ j
            S_next = (S[k] + Ainv @ S[k] @ Ainv.conj().T
                      + Ainv @ (Pi[k] @ Pi[k].conj().T) @ Ainv.conj().T)
            S[k + 1] = (S_next + S_next.conj().T) / 2
        part = np.abs(S.view(float))   # a NaN part reads inf in the overflow gate
        norm_s = _norm(S)
        step = A @ S - S @ A.conj().T - 1j * Pi @ j @ Pi.conj().transpose(0, 2, 1)
        gates = [(np.where(np.isnan(part), np.inf, part).max(axis=(1, 2)), np.finfo(float).max,
                  SingularS, lambda k: f"S_{k} overflows: its largest real or imaginary part", 1.0),
                 (_norm(step), 2 * _norm(A) * norm_s + _norm(Pi) ** 2, IdentityViolated,
                  lambda k: f"step identity residual at k={k}", DEFAULT_POLICY.tau)]
        if params.s0_positive:
            lo = min_eig_stack(S)
            gates.append((-lo, np.maximum(norm_s, 1.0), SingularS,
                          lambda k: f"S_{k} is singular to working precision (min_eig/||S_k|| = "
                          f"{lo[k] / norm_s[k]:.1e}); precision is exhausted: -min_eig(S_{k})",
                          -DEFAULT_POLICY.tau_pd))
        check_stack(gates)
    S[0] = (S[0] + S[0].conj().T) / 2
    return Pi, S


def _states(params: BdtParameters, count: int) -> list[BdtState]:
    """``_stacks`` as one ``BdtState`` per k, each a view of the stacks."""
    Pi, S = _stacks(params, count)
    return [BdtState(k, Pi[k], S[k]) for k in range(count)]


def generate(params: BdtParameters, N: int):
    """Pseudo-exponential potentials C_0..C_N with their recursion states.

    C_k = I + Pi_k* S_k^{-1} Pi_k - Pi_{k+1}* S_{k+1}^{-1} Pi_{k+1}, every
    S_k^{-1} Pi_k by one stacked solve after one ``check_cond_stack``. With
    S0 > 0 every S_k and C_k is positive definite and the output passes
    ``system.validate``.
    """
    Pi, S = _stacks(params, N + 2)
    check_cond_stack(S, SingularS, lambda k: f"S_{k}")
    terms = Pi.conj().transpose(0, 2, 1) @ np.linalg.solve(S, Pi)
    C = np.eye(params.ctx.m, dtype=complex) + terms[:-1] - terms[1:]
    states = [BdtState(k, Pi[k], S[k]) for k in range(N + 2)]
    return PotentialSequence(ctx=params.ctx, C=(C + C.conj().transpose(0, 2, 1)) / 2), states


def normalize(params: BdtParameters) -> BdtParameters:
    """Equivalent parameters with S0 = I: (S0^{-1/2} A S0^{1/2}, I, S0^{-1/2} Pi0)."""
    root = hermitian_sqrt(params.S0)
    root_inv = np.linalg.inv(root)
    return BdtParameters(
        ctx=params.ctx,
        A=root_inv @ params.A @ root,
        S0=np.eye(params.n, dtype=complex),
        Pi0=root_inv @ params.Pi0,
    )


def _resolvent_solve(M: np.ndarray, lam, B: np.ndarray, name: str, why: str) -> np.ndarray:
    """(M - lambda I)^{-1} B for a scalar lambda, shape (n, q), or a 1-D array
    of s values, shape (s, n, q). One ``check_cond_stack`` gates every
    M - lambda I; the first failing lambda raises ``ResolventSingular`` as
    "{name} - lambda I at lambda=..., {why},". B is broadcast to the stack:
    NumPy < 2 would read an (n, q) B under an (s, n, n) stack as n vectors."""
    lams = np.asarray(lam)
    res = M - lams[..., None, None] * np.eye(len(M), dtype=complex)
    check_cond_stack(res, ResolventSingular,
                     lambda i: f"{name} - lambda I at lambda={lams.flat[i]}, {why},")
    return np.linalg.solve(res, np.broadcast_to(B, res.shape[:-2] + B.shape))


def transfer(params: BdtParameters, state: BdtState, lam: complex) -> np.ndarray:
    """Transfer matrix function w_A(k, lambda) = I - i j Pi_k* S_k^{-1} (A - lambda I)^{-1} Pi_k."""
    X = _resolvent_solve(params.A, lam, state.Pi, "A", "near the spectrum of A")
    check_cond(state.S, SingularS, f"S_{state.k}")
    Y = np.linalg.solve(state.S, X)
    return np.eye(params.ctx.m, dtype=complex) - 1j * params.ctx.j @ state.Pi.conj().T @ Y


def explicit_fundamental(params: BdtParameters, k: int, lam: complex) -> np.ndarray:
    """Closed-form fundamental solution
    W_k(lambda) = w_A(k, lambda) (I - (i/lambda) j)^k w_A(0, lambda)^{-1}."""
    if lam == 0:
        raise LambdaZero("lambda must be nonzero")
    if k < 1:
        raise ValueError("explicit representation starts at k = 1")
    states = _states(params, k + 1)
    p = params.ctx.p
    w_k = transfer(params, states[k], lam)
    w_0 = transfer(params, states[0], lam)
    check_cond(w_0, SingularW0, "w_A(0, lambda)")
    mid = np.diag(np.concatenate([
        np.full(p, (1 - 1j / lam) ** k),
        np.full(p, (1 + 1j / lam) ** k),
    ])).astype(complex)
    return w_k @ mid @ np.linalg.inv(w_0)


def explicit_weyl(params: BdtParameters, lam) -> np.ndarray:
    """Identity-convention Weyl function of the generated system:

        phi_I(lambda) = -i Phi* S0^{-1} (A_x - lambda I)^{-1} Psi,
        A_x = A + i Psi Psi* S0^{-1}.

    Requires S0 > 0; strictly contractive in the open lower half-plane.
    ``lam`` is a scalar, giving a p x p value, or a 1-D array of s points,
    giving an (s, p, p) stack; S0 > 0, S0^{-1} and A_x are formed once per
    call. Each A_x - lambda I passes the ``cond_limit`` gate, else
    ``ResolventSingular`` names the first failing lambda.
    """
    if not params.s0_positive:
        raise NotPositiveDefinite("the Weyl function requires S0 > 0")
    S0_inv = np.linalg.inv(params.S0)
    Across = params.A + 1j * params.Psi @ params.Psi.conj().T @ S0_inv
    X = _resolvent_solve(Across, lam, params.Psi, "A_x", "a pole of the Weyl function")
    return -1j * params.Phi.conj().T @ S0_inv @ X


def explicit_partial_sum(params: BdtParameters, lam: complex, r: int) -> np.ndarray:
    """Partial Weyl sum of the generated system with its own Weyl function,
    evaluated through the transfer matrix instead of step-by-step propagation.

    Telescoping the one-step j-relation collapses the sum to boundary terms:

        sum_{k<=r} q^k u_k* C_k u_k
            = c (q^{r+1} u_{r+1}* j u_{r+1} - (phi* phi - I)),
        u_k = W_k [phi; I],   c = (|lambda|^2 + 1) / (i (lambda - conj(lambda))),

    and the remaining j-form has the closed expression

        q^{r+1} u_{r+1}* j u_{r+1}
            = rho^{r+1} d^{-*} [0 I] w_A(r+1)* j w_A(r+1) [0; I] d^{-1},
        rho = |lambda + i|^2 / (|lambda|^2 + 1),   d = lower-right block of w_A(0).

    Step-by-step accumulation mixes the decaying column u_k with the growing
    solution at roundoff level, which overwhelms the sum for large r; this
    form stays accurate for arbitrary r and is the one to use when checking
    the half-plane Weyl bound deep into the sequence.
    """
    if lam.imag >= 0:
        raise ValueError("partial Weyl sums are evaluated in the open lower half-plane")
    if not params.s0_positive:
        raise NotPositiveDefinite("the Weyl function requires S0 > 0")
    states = _states(params, r + 2)
    p = params.ctx.p
    j = params.ctx.j
    phi = explicit_weyl(params, lam)
    w0 = transfer(params, states[0], lam)
    d = w0[p:, p:]
    check_cond(d, SingularW0, "the lower-right block of w_A(0, lambda)")
    w_next = transfer(params, states[r + 1], lam)
    col = np.linalg.solve(d, np.eye(p, dtype=complex))
    v = w_next[:, p:] @ col
    rho = abs(lam + 1j) ** 2 / (abs(lam) ** 2 + 1)
    c = (abs(lam) ** 2 + 1) / (1j * (lam - np.conj(lam)))
    tail = rho ** (r + 1) * (v.conj().T @ j @ v)
    out = c * (tail - (phi.conj().T @ phi - np.eye(p, dtype=complex)))
    return (out + out.conj().T) / 2


@dataclass(frozen=True)
class WeylRealization:
    """State-space data (theta, PhiT, PsiT) of a rational, strictly proper
    matrix function contractive in the lower half-plane."""

    ctx: SignatureContext
    theta: np.ndarray = field(repr=False)
    PhiT: np.ndarray = field(repr=False)
    PsiT: np.ndarray = field(repr=False)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=complex)
        PhiT = np.asarray(self.PhiT, dtype=complex)
        PsiT = np.asarray(self.PsiT, dtype=complex)
        n = theta.shape[0]
        p = self.ctx.p
        if theta.shape != (n, n) or PhiT.shape != (n, p) or PsiT.shape != (n, p):
            raise ValueError("inconsistent realization shapes")
        scale = max(np.linalg.norm(theta), np.linalg.norm(PhiT) ** 2,
                    np.linalg.norm(PsiT) ** 2, 1.0)
        check(np.linalg.norm(theta - theta.conj().T
                             - 1j * (PhiT @ PhiT.conj().T + PsiT @ PsiT.conj().T)),
              scale, InvariantViolated, "realization identity residual")
        check_cond(theta - 1j * PsiT @ PsiT.conj().T, InvariantViolated,
                   "theta - i PsiT PsiT*, which must be invertible,")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "PhiT", PhiT)
        object.__setattr__(self, "PsiT", PsiT)

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    def value(self, lam) -> np.ndarray:
        """The realized function -i PhiT* (theta - lambda I)^{-1} PsiT at a
        scalar ``lam`` (p x p) or a 1-D array of s points ((s, p, p)). Each
        theta - lambda I passes the ``cond_limit`` gate, else
        ``ResolventSingular`` names the first failing lambda."""
        X = _resolvent_solve(self.theta, lam, self.PsiT, "theta",
                             "a pole of the realized function")
        return -1j * self.PhiT.conj().T @ X


def realization_to_params(rz: WeylRealization) -> BdtParameters:
    """Inverse problem from a realization: A = theta - i PsiT PsiT*, S0 = I,
    Pi0 = [PhiT PsiT]. The generated system has Weyl function ``rz.value``."""
    return BdtParameters(
        ctx=rz.ctx,
        A=rz.theta - 1j * rz.PsiT @ rz.PsiT.conj().T,
        S0=np.eye(rz.n, dtype=complex),
        Pi0=np.hstack([rz.PhiT, rz.PsiT]),
    )


def example41_params(a: float, Phi: complex, Psi: complex) -> BdtParameters:
    """Scalar oracle parameters: n = p = 1, A = a, S0 = 1, Pi0 = [Phi Psi]."""
    if a == 0 or a != np.real(a):
        raise ValueError("a must be real and nonzero")
    check(abs(abs(Phi) - abs(Psi)), max(abs(Phi), 1.0), ModulusMismatch,
          "|Phi| must equal |Psi|: their difference")
    return BdtParameters(
        ctx=SignatureContext(p=1),
        A=np.array([[a]], dtype=complex),
        S0=np.array([[1.0]], dtype=complex),
        Pi0=np.array([[Phi, Psi]], dtype=complex),
    )


def example41(a: float, Phi: complex, Psi: complex, k: int):
    """Closed-form oracle for the scalar one-dimensional parameter family.

    Returns (C_k, phi) where C_k is the 2 x 2 coefficient at step ``k`` and
    ``phi`` evaluates the identity-convention Weyl function
    i conj(Phi) Psi / (lambda - a - i |Psi|^2).
    """
    example41_params(a, Phi, Psi)  # rejects the same arguments
    zeta = 2 * abs(Phi) ** 2 / (a ** 2 + 1)
    diag = 1 + zeta * abs(Phi) ** 2 / ((k * zeta + 1) * ((k + 1) * zeta + 1))
    ratio = (a + 1j) / (a - 1j)
    c21 = Phi * np.conj(Psi) * (ratio ** k / (k * zeta + 1)
                                - ratio ** (k + 1) / ((k + 1) * zeta + 1))
    C = np.array([[diag, np.conj(c21)], [c21, diag]], dtype=complex)

    def phi(lam: complex) -> complex:
        return 1j * np.conj(Phi) * Psi / (lam - a - 1j * abs(Psi) ** 2)

    return C, phi


def random_bdt_parameters(rng: np.random.Generator, n: int, p: int,
                          normalized: bool = False) -> BdtParameters:
    """Random parameter triple with S0 > 0.

    S0 (positive definite) and Pi0 are drawn freely. Splitting A S0 into a
    Hermitian part X and the skew part (i/2) Pi0 j Pi0* makes the parameter
    identity hold by construction:

        A = (X + (i/2) Pi0 j Pi0*) S0^{-1},   X = X*,

    so A S0 - S0 A* = i Pi0 j Pi0* exactly, for every draw. The identity is
    invariant under (A, S0, Pi0) -> (c A, S0, sqrt(c) Pi0) for real c > 0;
    that freedom is used to pin the smallest singular value of A at 1, which
    keeps the generating recursion (driven by powers of A^{-1}) from blowing
    up over the step counts the tests use. Ill-conditioned draws are
    rejected, and 500 rejections in a row raise ``RuntimeError``.
    """
    ctx = SignatureContext(p=p)
    j = ctx.j
    for _ in range(500):
        W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S0 = W @ W.conj().T + 0.5 * np.eye(n)
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = (X + X.conj().T) / 2
        Pi0 = 0.4 * (rng.standard_normal((n, 2 * p)) + 1j * rng.standard_normal((n, 2 * p)))
        A = (X + 0.5j * Pi0 @ j @ Pi0.conj().T) @ np.linalg.inv(S0)
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] < 1e-6 or sv[0] / sv[-1] > 20.0:
            continue
        c = 1.0 / sv[-1]
        params = BdtParameters(ctx=ctx, A=c * A, S0=(S0 + S0.conj().T) / 2,
                               Pi0=np.sqrt(c) * Pi0)
        return normalize(params) if normalized else params
    raise RuntimeError("could not draw a well-conditioned parameter matrix")
