"""General direct and inverse spectral problems.

Direct: potentials -> Taylor coefficients of the Weyl function in the Cayley
variable, through the block lower-triangular V_- recursion and block forward
substitution. Inverse: coefficients -> potentials, through the backward
predictors B_r and pivots P_r of the nested Hermitian block Toeplitz matrices
S(r) (B_r P_r^{-1} is the last block column of S(r)^{-1}), which the block
Levinson engine of ``linalg`` yields one r at a time: with Y_r = B_r* Pi(r),
beta(r)* beta(r) = Y_r* P_r^{-1} Y_r, and Y_r J Y_r* = P_r is the
J-normalization. Both recursions cost O(N^2 p^3). Also houses the structural
Lyapunov self-test, Toeplitz positivity, FFT-based coefficient extraction for
rational Weyl functions, and the two-system uniqueness check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import (
    AnalyticityViolation,
    DiracSzegoError,
    InvariantViolated,
    Phi1Mismatch,
    SingularLeadingBlock,
    SingularVMinus,
    ToeplitzNotPD,
)
from .linalg import (SignatureContext, _block_stack, _rank_p_factor_gates, block_levinson,
                     block_toeplitz, cond_stack, min_eig, norm_stack)
from .policy import DEFAULT_POLICY, check, check_stack, failure
from .pseudoexp import BdtParameters, WeylRealization, explicit_weyl
from .system import PotentialSequence, herglotz_map
from .szego import cayley_lambda_of_z

__all__ = [
    "TaylorSequence",
    "BetaSequence",
    "structured_a",
    "beta_from_potentials",
    "taylor_from_beta",
    "direct_taylor",
    "inverse_potentials",
    "lyapunov_residual",
    "toeplitz_positivity",
    "rational_taylor",
    "borg_marchenko_check",
]


@dataclass(frozen=True)
class TaylorSequence:
    """Blocks alpha_0..alpha_N of the Weyl function in the Cayley variable,
    one read-only (N+1, p, p) array (at p = 1 a sequence of scalars is also
    accepted); ``rational_taylor`` also records its truncation error estimate."""

    p: int
    alpha: np.ndarray = field(repr=False)
    truncation_estimate: float | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _block_stack(self.alpha, (self.p, self.p), "alpha"))

    @property
    def N(self) -> int:
        return len(self.alpha) - 1


@dataclass(frozen=True)
class BetaSequence:
    """J-normalized factors beta(k) with beta J beta* = I_p, one read-only
    (N+1, p, 2p) array."""

    ctx: SignatureContext
    beta: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", _block_stack(self.beta, (self.ctx.p, self.ctx.m), "beta"))

    @property
    def N(self) -> int:
        return len(self.beta) - 1


def structured_a(num_blocks: int, p: int) -> np.ndarray:
    """Block lower triangular Toeplitz matrix with (i/2) I_p on the diagonal
    and i I_p strictly below."""
    return np.kron(0.5j * np.eye(num_blocks) + 1j * np.tri(num_blocks, k=-1), np.eye(p))


def beta_from_potentials(sys: PotentialSequence) -> BetaSequence:
    """Factor each coefficient as C_k = 2 K* beta(k)* beta(k) K - j.

    beta(k) is the canonical rank-p factor of (C_k + j)/2 rotated by K*; the
    J-normalization beta J beta* = I_p follows from C j C = j and is asserted
    at the scale ||beta||^2 ||J|| + ||I_p||, not imposed. All coefficients
    are factored as one stack and every gate is judged in one pass: the
    error names the first C_k that fails, with the first of its gates that
    fails.
    """
    ctx = sys.ctx
    f, gates = _rank_p_factor_gates((sys.C + ctx.j) / 2, ctx.p)
    b = f @ ctx.K.conj().T
    resid = b @ ctx.J @ b.conj().transpose(0, 2, 1) - np.eye(ctx.p)
    gates.append((norm_stack(resid), norm_stack(b) ** 2 * np.linalg.norm(ctx.J) + np.sqrt(ctx.p),
                  InvariantViolated, lambda k: f"beta({k}) J-normalization residual",
                  DEFAULT_POLICY.tau))
    check_stack([(m, s, exc, lambda k, what=what: f"C_{k} is not a valid potential: {what(k)}",
                  tau) for m, s, exc, what, tau in gates])
    return BetaSequence(ctx=ctx, beta=b)


def taylor_from_beta(beta: BetaSequence) -> TaylorSequence:
    """Taylor coefficients through the V_- recursion.

    Block row k of the block lower triangular V_-(N) is [X, v_-(k)], where
    X_c = M_{c-1} - M_c with M = beta(k) J sum_{l<k} beta(l)* V_-[l, :] and
    M_{-1} the first block of beta(k); the running sum is carried forward, so
    step k costs O(k p^3). Block forward substitution maps the stack of beta(k)
    onto [Phi_1 Phi_2] row by row: the first block column must come out as a
    stack of identities (internal consistency assertion, at the scale
    sum_k ||beta(k)||^2) and the second carries the partial sums psi_k of the
    coefficients.

    The diagonal blocks v_-(0) = the first block of beta(0) and
    v_-(k) = beta(k) J (beta(k-1)* v_-(k-1)) are formed first, and one
    batched SVD judges them all before any is solved against. The running
    sum is stored block-column-major, 2p x (N+1)p, so that M, its update
    and sum_c X_c Pi_c are each one 2-D product per step.
    """
    ctx = beta.ctx
    p, J = ctx.p, ctx.J
    N = beta.N
    b = beta.beta                                # (N+1, p, 2p)
    bH = b.conj().transpose(0, 2, 1)
    bJ = b @ J
    v = np.empty((N + 1, p, p), dtype=complex)   # the diagonal blocks v_-(k)
    v[0] = b[0, :, :p]
    for k in range(1, N + 1):
        v[k] = bJ[k] @ (bH[k - 1] @ v[k - 1])   # the last block of M at step k
    cond = cond_stack(v)
    check(cond[0], 1.0, SingularLeadingBlock, "condition number of the first block of beta(0)",
          DEFAULT_POLICY.cond_limit)
    # cond[0] passed just above, so the stack index of a failure is its k
    check_stack([(cond, 1.0, SingularVMinus, lambda k: f"condition number of v_-({k})",
                  DEFAULT_POLICY.cond_limit)])
    T = np.ascontiguousarray((bH @ v).transpose(1, 0, 2))  # sum_l beta(l)* V_-[l, :], by column
    Pi = np.zeros((N + 1, p, 2 * p), dtype=complex)  # block rows of V_-^{-1} [beta(0); ...]
    Pi[0] = np.linalg.solve(v[0], b[0])
    for k in range(1, N + 1):
        M = (bJ[k] @ T[:, :k].reshape(2 * p, k * p)).reshape(p, k, p)
        X = np.empty_like(M)
        X[:, 0] = b[k, :, :p] - M[:, 0]
        X[:, 1:] = M[:, :-1] - M[:, 1:]
        X = X.reshape(p, k * p)
        T[:, :k] += (bH[k] @ X).reshape(2 * p, k, p)
        Pi[k] = np.linalg.solve(v[k], b[k] - X @ Pi[:k].reshape(k * p, 2 * p))
    check(np.linalg.norm(Pi[:, :, :p] - np.eye(p)), np.linalg.norm(b) ** 2, Phi1Mismatch,
          "deviation of the first block column from the identity stack")
    alpha = np.diff(Pi[:, :, p:], axis=0, prepend=np.zeros((1, p, p)))
    return TaylorSequence(p=p, alpha=alpha)


def direct_taylor(sys: PotentialSequence) -> TaylorSequence:
    """Direct spectral problem: potentials to Weyl Taylor coefficients."""
    return taylor_from_beta(beta_from_potentials(sys))


def _first_not_pd(S: np.ndarray, p: int):
    """First r at which S(r) fails the positivity gate, with its failure line.

    The gate passes when min_eig(S(r)) > t_r = tau_pd * max(||S(r)||_F, 1);
    NaN fails. S(r) is a leading principal block of S(r+1), so its smallest
    eigenvalue does not increase with r (Cauchy interlacing) while the norm
    does not decrease: once the gate fails it fails for every larger r, and
    min_eig(S(N)) > t_N makes it pass at every r (None is returned).

    One Cholesky factorization, O(n^3 / 3) for n = (N + 1) p, decides most
    passing inputs; it reads only the lower triangle, so S must be exactly
    Hermitian, as ``block_toeplitz`` builds it. If L L* = fl(S - t' I)
    completes, with t' = t_N + delta, then L L* = S - t' I + E with
    ||E||_2 <= gamma ||L||_F^2 and gamma = gamma_{n+4} = (n+4)u / (1 - (n+4)u):
    gamma_{n+1} of the backward error of Cholesky (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3), two more for
    complex arithmetic (ibid., sec. 3.6) and one for forming S - t' I. So
    min_eig(S) >= t' - gamma ||L||_F^2, and the gate passes when that is at
    least t_N; the check takes 2 gamma to cover the rounding of ||L||_F^2 and
    of the comparison. As ||L||_F^2 is about trace(S) - n t', the shift
    delta = 2 gamma trace(S) leaves room for it. Inputs it does not certify,
    those within that margin of t_N included, go to the exact test: one
    eigenvalue problem on S(N), and bisection to the first failure.
    """
    def verdict(r):
        Sr = S[:(r + 1) * p, :(r + 1) * p]
        return failure(-min_eig(Sr), max(np.linalg.norm(Sr), 1.0),
                       f"-min_eig(S({r}))", -DEFAULT_POLICY.tau_pd)

    if np.isfinite(S).all():
        n = len(S)
        t = DEFAULT_POLICY.tau_pd * max(np.linalg.norm(S), 1.0)
        u = np.finfo(float).eps / 2             # unit roundoff
        gamma = (n + 4) * u / (1 - (n + 4) * u)
        shift = t + 2 * gamma * np.trace(S).real
        H = S.copy()
        H[np.diag_indices(n)] -= shift
        try:
            certified = shift - 2 * gamma * np.linalg.norm(np.linalg.cholesky(H)) ** 2 >= t
        except np.linalg.LinAlgError:
            certified = False
        if certified:
            return None
    N = S.shape[0] // p - 1
    if verdict(N) is None:
        return None
    first, hi = 0, N                  # the gate passes below first and fails at hi
    while first < hi:
        mid = (first + hi) // 2
        if verdict(mid) is None:
            first = mid + 1
        else:
            hi = mid
    return hi, verdict(hi)


def inverse_potentials(alpha: TaylorSequence) -> PotentialSequence:
    """Inverse spectral problem: Taylor coefficients to potentials.

    For each r the induced block Toeplitz matrix S(r) must be positive
    definite; S(N) is assembled once and the gate is decided on it (see
    ``_first_not_pd``). From the block Levinson engine's B_r and P_r, each
    step forms Y_r = sum_l B_r[l]* [I, psi_l] = B_r* Pi(r). The Gram matrix
    G_r = beta(r)* beta(r) is Y_r* P_r^{-1} Y_r, one stacked solve for every
    r, and C_r = 2 K* G_r K - j. The J-normalization Y_r J Y_r* = P_r (the
    Lyapunov identity A S - S A* = i Pi J Pi* compressed by B_r, since
    B_r* (A S(r) - S(r) A*) B_r = i P_r) is asserted at the scale
    ||Y_r||^2 ||J|| + ||P_r||, and the first r that fails is named.
    The recursion costs O(N^2 p^3); the gate adds one Cholesky factorization
    on a passing input, and an eigenvalue problem where that does not decide.
    """
    ctx = SignatureContext(p=alpha.p)
    p, J, K, j = alpha.p, ctx.J, ctx.K, ctx.j
    failed = _first_not_pd(block_toeplitz(alpha.alpha), p)
    stop = alpha.N + 1 if failed is None else failed[0]
    Pi = np.concatenate([np.broadcast_to(np.eye(p), alpha.alpha.shape),  # [I, psi_l] as rows
                         np.cumsum(alpha.alpha, axis=0)], axis=2).reshape(-1, 2 * p)
    Y = np.empty((stop, p, 2 * p), dtype=complex)    # B_r* Pi(r)
    P = np.empty((stop, p, p), dtype=complex)        # the backward pivots
    for r, (B, pivot) in enumerate(islice(block_levinson(alpha.alpha), stop)):
        Y[r] = B.reshape((r + 1) * p, p).conj().T @ Pi[:(r + 1) * p]
        P[r] = pivot
    YH = Y.conj().transpose(0, 2, 1)
    G = YH @ np.linalg.solve(P, Y)
    check_stack([(norm_stack(Y @ J @ YH - P),
                  norm_stack(Y) ** 2 * np.linalg.norm(J) + norm_stack(P),
                  InvariantViolated, lambda r: f"J-normalization residual at r={r}",
                  DEFAULT_POLICY.tau)])
    C = 2 * K.conj().T @ G @ K - j
    C = (C + C.conj().transpose(0, 2, 1)) / 2
    if failed is not None:
        r, line = failed
        raise ToeplitzNotPD(f"block Toeplitz matrix S({r}) is not positive definite: {line}",
                            r)
    return PotentialSequence(ctx=ctx, C=C)


def lyapunov_residual(alpha: TaylorSequence) -> float:
    """Norm of A S - S A* - i Pi J Pi* for the structured lower-triangular A,
    the induced block Toeplitz S, and Pi = [Phi_1 Phi_2], a stack of
    identities beside the cumulative sums of the blocks.

    An algebraic identity of the construction: small for any Hermitian-symbol
    input, positive definiteness not required.
    """
    p = alpha.p
    ctx = SignatureContext(p=p)
    S = block_toeplitz(alpha.alpha)
    A = structured_a(alpha.N + 1, p)
    Pi = np.hstack([np.tile(np.eye(p), (alpha.N + 1, 1)),
                    np.cumsum(alpha.alpha, axis=0).reshape(-1, p)])
    return float(np.linalg.norm(A @ S - S @ A.conj().T - 1j * Pi @ ctx.J @ Pi.conj().T))


def toeplitz_positivity(alpha: TaylorSequence) -> list[float]:
    """Minimum eigenvalue of each nested block Toeplitz matrix S(0)..S(N)."""
    S = block_toeplitz(alpha.alpha)
    return [min_eig(S[:(r + 1) * alpha.p, :(r + 1) * alpha.p]) for r in range(alpha.N + 1)]


def rational_taylor(source, N: int, radius: float = 0.5, samples: int = 512) -> TaylorSequence:
    """Taylor coefficients of a rational Weyl function by circle sampling.

    ``source`` is either parameter matrices or a realization; its
    identity-convention Weyl function is evaluated on |z| = radius, mapped to
    the K convention, and the blocks of i phi_K(lambda(z)) are extracted by
    discrete Fourier sums. The magnitude of the (N+1)-th block times the
    radius estimates the truncation error.

    All samples go through one call of the Weyl function and one of
    ``herglotz_map``, each gating its whole stack: every A_x - lambda I (or
    theta - lambda I) is judged before any I + phi_I, and the first failing
    sample of the first failing gate is named. A gate failure or a
    non-finite value raises ``AnalyticityViolation``; N >= samples - 1, ``ValueError``.
    """
    if N >= samples - 1:
        raise ValueError(f"N must be below samples - 1 = {samples - 1}; got N = {N}")
    if isinstance(source, BdtParameters):
        p = source.ctx.p
        phi_i = lambda lam: explicit_weyl(source, lam)
    elif isinstance(source, WeylRealization):
        p = source.ctx.p
        phi_i = source.value
    else:
        raise TypeError("source must be BdtParameters or WeylRealization")
    # a real angle: dividing a complex array by ``samples`` would round
    # differently from the scalar 2j pi m / samples
    z = radius * np.exp(1j * (2 * np.pi * np.arange(samples) / samples))
    lam = cayley_lambda_of_z(z)
    try:
        vals = 1j * herglotz_map(phi_i(lam))
    except (DiracSzegoError, np.linalg.LinAlgError) as exc:
        raise AnalyticityViolation(
            f"Weyl function could not be evaluated on the sample circle |z|={radius}: {exc}"
        ) from exc
    finite = np.isfinite(vals).all(axis=(1, 2))
    if not finite.all():
        raise AnalyticityViolation(
            f"pole detected on the sample circle at z={z[np.argmin(finite)]}")
    spectrum = np.fft.fft(vals, axis=0) / samples  # coefficient k at index k
    alpha = [spectrum[k] / radius**k for k in range(N + 1)]
    tail = np.linalg.norm(spectrum[N + 1] / radius ** (N + 1)) * radius
    return TaylorSequence(p=p, alpha=alpha, truncation_estimate=float(tail))


def borg_marchenko_check(sysA: PotentialSequence, sysB: PotentialSequence, N: int,
                         coeff_tol: float = 1e-8):
    """Uniqueness check: coefficient agreement to order N forces potential
    agreement up to index N.

    Returns (agree, max_potential_deviation, first_mismatch). ``agree`` is
    True when the first N+1 Taylor blocks of the two systems coincide within
    ``coeff_tol``; in that case the reported deviation is over C_0..C_N. When
    they do not, ``first_mismatch`` is the first differing coefficient index.
    """
    if N > min(sysA.N, sysB.N):
        raise ValueError("N exceeds one of the sequence lengths")
    ta = direct_taylor(PotentialSequence(ctx=sysA.ctx, C=sysA.C[: N + 1]))
    tb = direct_taylor(PotentialSequence(ctx=sysB.ctx, C=sysB.C[: N + 1]))
    first_mismatch = None
    for k in range(N + 1):
        if np.linalg.norm(ta.alpha[k] - tb.alpha[k]) > coeff_tol:
            first_mismatch = k
            break
    if first_mismatch is not None:
        return False, None, first_mismatch
    dev = max(float(np.linalg.norm(sysA.C[k] - sysB.C[k])) for k in range(N + 1))
    return True, dev, None
