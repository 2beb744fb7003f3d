"""Explicit machinery for rational Weyl functions: generation of
pseudo-exponential potentials from finite-dimensional parameter triples,
the transfer matrix function, the explicit fundamental solution, the explicit
Weyl function and its state-space realization, and the scalar closed-form
family used as an oracle throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    FloatOverflow,
    IdentityViolated,
    InvariantViolated,
    LambdaZero,
    ModulusMismatch,
    NotPositiveDefinite,
    ResolventSingular,
    SingularW0,
)
from .linalg import SignatureContext, check_cond, check_cond_stack, min_eig, norm_stack
from .policy import DEFAULT_POLICY, check, check_stack
from .system import PotentialSequence

__all__ = [
    "BdtParameters",
    "WeylRealization",
    "generate",
    "transfer",
    "explicit_fundamental",
    "explicit_weyl",
    "explicit_partial_sum",
    "example41",
    "example41_params",
    "random_bdt_parameters",
]


def _cholesky_gauge(A: np.ndarray, S0: np.ndarray, Pi0: np.ndarray) -> np.ndarray:
    """L^{-1} [A L, Pi0] with S0 = L L*, for a positive definite S0."""
    L = np.linalg.cholesky(S0)
    return np.linalg.solve(L, np.hstack([A @ L, Pi0]))


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
        norm_a, norm_s0, asym, resid = norm_stack(np.stack([
            A, S0, S0 - S0.conj().T,
            A @ S0 - S0 @ A.conj().T - 1j * Pi0 @ self.ctx.j @ Pi0.conj().T]))
        norm_pi = norm_stack(Pi0)
        scale = max(norm_a * norm_s0, norm_pi * norm_pi, 1.0)
        check(asym, scale, IdentityViolated, "asymmetry of S0")
        check(resid, scale, IdentityViolated, "parameter identity residual")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "S0", S0)
        object.__setattr__(self, "Pi0", Pi0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def _normal(self) -> np.ndarray:
        """Normal form L^{-1} [A L, Pi0], S0 = L L*, formed once after the one S0 > 0
        gate, min_eig(S0) > tau_pd max(||S0||_F, 1); else ``NotPositiveDefinite``, at each use."""
        check(-min_eig(self.S0), max(norm_stack(self.S0), 1.0), NotPositiveDefinite,
              "the generating recursion requires S0 > 0: -min_eig(S0)", -DEFAULT_POLICY.tau_pd)
        normal = _cholesky_gauge(self.A, self.S0, self.Pi0)
        normal.flags.writeable = False
        return normal


def _states(params: BdtParameters, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The generating recursion Pi_{k+1} = Pi_k + i A^{-1} Pi_k j,
    S_{k+1} = S_k + A^{-1} (S_k + Pi_k Pi_k*) A^{-*}, carried where S_k = I:
    with S_k = L_k L_k*, A_k = L_k^{-1} A L_k and Phi_k = L_k^{-1} Pi_k for
    k = 0..count-1, as read-only (count, n, n) and (count, n, 2p) stacks;
    Pi_k* S_k^{-1} Pi_k = Phi_k* Phi_k.

    From the normal form ``BdtParameters._normal`` (L_0 = chol(S0); S0 > 0
    required) a step is (L_{k+1} = L_k M)

        X = A_k^{-1} Phi_k,   M = chol(I + A_k^{-1} A_k^{-*} + X X*),
        Phi_{k+1} = M^{-1} (Phi_k + i X j),   A_{k+1} = M^{-1} A_k M.

    The matrix under the root is >= I, so M exists and M^{-1} is a
    contraction. No S_k is formed: it overflows and turns singular to working
    precision while A_k and Phi_k stay bounded. A_k^{-1} is taken afresh at
    each step, with X by one solve against [I Phi_k], because the update
    M^{-1} A_k^{-1} M drifts and overflows. Past the floating-point range the
    loop runs on inf and NaN without a warning; ``_check_step_identity`` judges every step."""
    n, eye, j = params.n, np.eye(params.n), params.ctx.j
    state = np.empty((count,) + params._normal.shape, dtype=complex)   # [A_k Phi_k]
    state[0] = params._normal
    rhs = np.hstack([eye, params.Pi0])                                # [I Phi_k]
    ij = 1j * j.diagonal()                                            # X j = X * diag(j)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(count - 1):
            A_k = state[k, :, :n]
            rhs[:, n:] = state[k, :, n:]
            Y = np.linalg.solve(A_k, rhs)                             # [A_k^{-1} X]
            M = np.linalg.cholesky(eye + Y @ Y.conj().T)
            state[k + 1] = np.linalg.solve(M, np.hstack([A_k @ M, rhs[:, n:] + Y[:, n:] * ij]))
        state.flags.writeable = False
        A, Phi = state[..., :n], state[..., n:]
        _check_step_identity(A, Phi, j)
    return A, Phi


def _check_step_identity(A: np.ndarray, Phi: np.ndarray, j: np.ndarray) -> None:
    """Judges A_k - A_k* = i Phi_k j Phi_k* at the scale 2 ||A_k|| + ||Phi_k||^2."""
    check_stack([(norm_stack(A - A.conj().transpose(0, 2, 1)
                             - 1j * Phi @ j @ Phi.conj().transpose(0, 2, 1)),
                  2 * norm_stack(A) + norm_stack(Phi) ** 2, IdentityViolated,
                  lambda k: f"step identity residual at k={k}", DEFAULT_POLICY.tau)])


def generate(params: BdtParameters, N: int):
    """Pseudo-exponential potentials C_0..C_N with the normalized recursion
    stacks (A, Phi) of ``_states``, A_k and Phi_k for k = 0..N+1.

    C_k = I + T_k - T_{k+1} with T_k = Pi_k* S_k^{-1} Pi_k = Phi_k* Phi_k, so
    the difference cancels at the scale of ||T_k||, with no cond(S_k) factor.
    Requires S0 > 0 (``NotPositiveDefinite``); then every C_k is positive
    definite and the output passes ``system.validate``.
    """
    A, Phi = _states(params, N + 2)
    T = Phi.conj().transpose(0, 2, 1) @ Phi
    C = np.eye(params.ctx.m, dtype=complex) + T[:-1] - T[1:]
    return PotentialSequence(ctx=params.ctx, C=(C + C.conj().transpose(0, 2, 1)) / 2), (A, Phi)


def _resolvent_solve(M: np.ndarray, lam, B: np.ndarray, name: str, why: str) -> np.ndarray:
    """(M - lambda I)^{-1} B for a scalar lambda, shape (n, q), or a 1-D array
    of s values, shape (s, n, q). One ``check_cond_stack`` gates every
    M - lambda I; the first failing lambda raises ``ResolventSingular`` as
    "{name} - lambda I at lambda=..., {why},". B multiplies the gate's
    inverses, broadcast over the stack: one LU per lambda."""
    lams = np.asarray(lam)
    res = M - lams[..., None, None] * np.eye(len(M), dtype=complex)
    return check_cond_stack(res, ResolventSingular,
                            lambda i: f"{name} - lambda I at lambda={lams.flat[i]}, {why},") @ B


def transfer(params: BdtParameters, k: int, lam: complex) -> np.ndarray:
    """Transfer matrix function w_A(k, lambda) = I - i j Pi_k* S_k^{-1} (A - lambda I)^{-1} Pi_k
    = I - i j Phi_k* (A_k - lambda I)^{-1} Phi_k, after the normalized recursion
    has run to k and passed its gates (``_states``). Requires S0 > 0."""
    if k < 0:
        raise ValueError(f"step index {k} is negative")
    A, Phi = (stack[k] for stack in _states(params, k + 1))
    X = _resolvent_solve(A, lam, Phi, f"A_{k}", "near the spectrum of A")
    return np.eye(params.ctx.m, dtype=complex) - 1j * params.ctx.j @ Phi.conj().T @ X


def explicit_fundamental(params: BdtParameters, k: int, lam: complex) -> np.ndarray:
    """Closed-form fundamental solution
    W_k(lambda) = w_A(k, lambda) (I - (i/lambda) j)^k w_A(0, lambda)^{-1}.

    The powers (1 -+ i/lambda)^k past the floating-point range raise
    ``FloatOverflow``."""
    if lam == 0:
        raise LambdaZero("lambda must be nonzero")
    if k < 1:
        raise ValueError("explicit representation starts at k = 1")
    p = params.ctx.p
    w_k = transfer(params, k, lam)
    w_0_inv = check_cond(transfer(params, 0, lam), SingularW0, "w_A(0, lambda)")
    # an overflowing power reads inf or NaN here, and fails the gate below
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.power(np.array([1 - 1j / lam, 1 + 1j / lam], dtype=complex), k)
    part = np.abs(powers.view(float))
    check(np.where(np.isnan(part), np.inf, part).max(), np.finfo(float).max, FloatOverflow,
          f"(1 -+ i/lambda)^{k} overflows: its largest real or imaginary part", 1.0)
    return w_k @ np.diag(np.repeat(powers, p)) @ w_0_inv


def _weyl_state_space(source) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A_x, c, b) = (theta, -i PhiT*, PsiT) of a ``WeylRealization``, or of
    ``BdtParameters`` in normal form (S0 = L L*; S0 > 0 required): PhiT = L^{-1} Phi,
    PsiT = L^{-1} Psi and theta = L^{-1} A L + i PsiT PsiT*."""
    if isinstance(source, WeylRealization):
        theta, PhiT, PsiT = source.theta, source.PhiT, source.PsiT
    else:
        A_0, PhiT, PsiT = np.split(source._normal, [source.n, source.n + source.ctx.p], axis=1)
        theta = A_0 + 1j * PsiT @ PsiT.conj().T
    return theta, -1j * PhiT.conj().T, PsiT


def explicit_weyl(params: BdtParameters, lam) -> np.ndarray:
    """Identity-convention Weyl function of the generated system,
    phi_I(lambda) = -i Phi* S0^{-1} (A + i Psi Psi* S0^{-1} - lambda I)^{-1} Psi,
    evaluated as ``WeylRealization.value`` of the normal form (``_weyl_state_space``).
    Requires S0 > 0; strictly contractive in the open lower half-plane.
    ``lam`` is a scalar, giving a p x p value, or a 1-D array of s points,
    giving an (s, p, p) stack. Each A_x - lambda I passes the ``cond_limit``
    gate, else ``ResolventSingular`` names the first failing lambda.
    """
    A_x, c, b = _weyl_state_space(params)
    return c @ _resolvent_solve(A_x, lam, b, "A_x", "a pole of the Weyl function")


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
    p = params.ctx.p
    j = params.ctx.j
    w_next = transfer(params, r + 1, lam)
    phi = explicit_weyl(params, lam)
    d = transfer(params, 0, lam)[p:, p:]
    v = w_next[:, p:] @ check_cond(d, SingularW0, "the lower-right block of w_A(0, lambda)")
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
        norm_phi, norm_psi = norm_stack(np.stack([PhiT, PsiT]))
        norm_theta, resid = norm_stack(np.stack([
            theta, theta - theta.conj().T - 1j * (PhiT @ PhiT.conj().T + PsiT @ PsiT.conj().T)]))
        scale = max(norm_theta, norm_phi * norm_phi, norm_psi * norm_psi, 1.0)
        check(resid, scale, InvariantViolated, "realization identity residual")
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
        theta, c, b = _weyl_state_space(self)
        return c @ _resolvent_solve(theta, lam, b, "theta", "a pole of the realized function")


def example41_params(a: float, Phi: complex, Psi: complex) -> BdtParameters:
    """Scalar oracle parameters: n = p = 1, A = a, S0 = 1, Pi0 = [Phi Psi]."""
    if a == 0 or a != np.real(a):
        raise ValueError("a must be real and nonzero")
    check(abs(abs(Phi) - abs(Psi)), max(abs(Phi), 1.0), ModulusMismatch,
          "|Phi| must equal |Psi|: their difference")
    return BdtParameters(ctx=SignatureContext(p=1), A=np.array([[a]], dtype=complex),
                         S0=np.array([[1.0]], dtype=complex),
                         Pi0=np.array([[Phi, Psi]], dtype=complex))


def example41(a: float, Phi: complex, Psi: complex, k: int):
    """Closed-form oracle for the scalar one-dimensional parameter family.

    Returns (C_k, phi) where C_k is the 2 x 2 coefficient at step ``k`` and
    ``phi`` evaluates the identity-convention Weyl function
    i conj(Phi) Psi / (lambda - a - i |Psi|^2).
    """
    example41_params(a, Phi, Psi)  # rejects the same arguments
    # a ** 2 is finite for |a| < 2^512 and past the floating-point range beyond
    zeta = 2 * abs(Phi) ** 2 / (a ** 2 + 1) if abs(a) < 2.0 ** 512 else 2 * abs(Phi) ** 2 / a / a
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
    that freedom is used to pin the smallest singular value of A at 1, so
    ||A^{-1}||_2 = 1 and every draw's generating step, driven by A^{-1}, has
    the same scale. Ill-conditioned draws are rejected, and 500 rejections in
    a row raise ``RuntimeError``.
    """
    ctx = SignatureContext(p=p)
    j = ctx.j
    for _ in range(500):
        W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S0 = W @ W.conj().T + 0.5 * np.eye(n)
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = (X + X.conj().T) / 2
        Pi0 = 0.4 * (rng.standard_normal((n, 2 * p)) + 1j * rng.standard_normal((n, 2 * p)))
        # A = Y S0^{-1} = (S0^{-1} Y*)* for Y = X + (i/2) Pi0 j Pi0* and Hermitian S0
        A = np.linalg.solve(S0, (X - 0.5j * Pi0 @ j @ Pi0.conj().T)).conj().T
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] < 1e-6 or sv[0] / sv[-1] > 20.0:
            continue
        c = 1.0 / sv[-1]
        A, S0, Pi0 = c * A, (S0 + S0.conj().T) / 2, np.sqrt(c) * Pi0
        if normalized:      # S0 >= I/2 by construction: the normal form without its gate
            A, Pi0 = np.split(_cholesky_gauge(A, S0, Pi0), [n], axis=1)
            S0 = np.eye(n, dtype=complex)
        return BdtParameters(ctx=ctx, A=A, S0=S0, Pi0=Pi0)
    raise RuntimeError("could not draw a well-conditioned parameter matrix")
