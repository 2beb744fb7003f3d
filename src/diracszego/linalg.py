"""Complex linear-algebra primitives, the block Toeplitz engine, and the fixed
signature matrices.

Everything here operates on plain ``numpy`` complex arrays and needs no SciPy,
so importing the package does not load it. ``numpy.linalg.eigh`` and
``numpy.linalg.cholesky`` are the low-level dependency points; all higher
modules go through the helpers below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotHermitian, NotPositiveDefinite, RankMismatch
from .policy import DEFAULT_POLICY, check, check_stack

__all__ = [
    "SignatureContext",
    "hermitian_sqrt",
    "rank_p_factor",
    "block_toeplitz",
    "pd_solve",
    "block_levinson",
    "block_levinson_solve",
    "herm_residual",
    "min_eig",
    "min_eig_stack",
    "norm_stack",
    "cond_stack",
]


def herm_residual(M: np.ndarray) -> float:
    """Frobenius norm of the anti-Hermitian part of ``M``."""
    return float(np.linalg.norm(M - M.conj().T))


def norm_stack(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of a (..., m, n) stack, each with the
    bits ``numpy.linalg.norm`` gives that matrix alone when it is stored in C
    order: the squares of the real parts and of the imaginary parts are each
    summed as one dot product, as it sums them, so a gate judged on a stack
    gives the verdict the same gate gives one matrix."""
    M = np.asarray(M)
    flat = np.ascontiguousarray(M).reshape(M.shape[:-2] + (1, M.shape[-2] * M.shape[-1]))
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    return np.sqrt(sum((x @ x.swapaxes(-1, -2))[..., 0, 0] for x in parts))


def min_eig(M: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of one matrix ``M``; NaN if
    ``M`` has a non-finite entry (LAPACK may return any number for it) or
    eigvalsh fails."""
    if not np.isfinite(M).all():
        return float("nan")
    try:
        return float(np.linalg.eigvalsh((M + M.conj().T) / 2)[0])
    except np.linalg.LinAlgError:
        return float("nan")


def min_eig_stack(M: np.ndarray) -> np.ndarray:
    """``min_eig`` of every matrix of a (..., n, n) stack, from one batched
    eigvalsh; the result has the stack's shape.

    A matrix with a non-finite entry skips eigvalsh and reads NaN. If the
    batched eigvalsh fails, the finite matrices are judged again one at a
    time, so only the one that fails reads NaN.
    """
    M = np.asarray(M)
    stack = M.reshape((-1,) + M.shape[-2:])
    finite = np.isfinite(stack).all(axis=(1, 2))
    A = stack[finite]
    value = np.full(len(stack), np.nan)
    try:
        value[finite] = np.linalg.eigvalsh((A + A.conj().transpose(0, 2, 1)) / 2)[:, 0]
    except np.linalg.LinAlgError:
        # error path only: one matrix at a time
        value[finite] = [min_eig(B) for B in A]
    return value.reshape(M.shape[:-2])


def check_cond(M: np.ndarray, exc: type[Exception], what: str) -> None:
    """``policy.check`` of cond(M) against cond_limit for one n x n matrix;
    one SVD, as ``check_cond_stack`` on a stack of one."""
    check_cond_stack(np.asarray(M)[None], exc, lambda i: what)


def _cond_or_nan(M: np.ndarray) -> float:
    try:
        return np.linalg.cond(M)
    except np.linalg.LinAlgError:
        return np.nan


def cond_stack(M: np.ndarray) -> np.ndarray:
    """Condition number of every matrix of a (..., n, n) stack, flattened to
    one axis in C order, from one batched SVD.

    A matrix with a non-finite entry skips the SVD (LAPACK rejects it) and
    reads as ``numpy.linalg.cond`` reports it, NaN with a NaN entry and inf
    without; a matrix whose SVD fails reads NaN.
    """
    stack = np.asarray(M).reshape((-1,) + np.shape(M)[-2:])
    finite = np.isfinite(stack).all(axis=(1, 2))
    value = np.where(np.isnan(stack).any(axis=(1, 2)), np.nan, np.inf)
    try:
        value[finite] = np.linalg.cond(stack[finite])
    except np.linalg.LinAlgError:
        # error path only: one matrix at a time, so only the one that failed reads NaN
        value[finite] = [_cond_or_nan(A) for A in stack[finite]]
    return value


def check_cond_stack(M: np.ndarray, exc: type[Exception], name) -> None:
    """``policy.check`` of cond against cond_limit for every matrix of a
    (..., n, n) stack, judged with one batched SVD (``cond_stack``).

    NaN and inf fail. The first failing matrix in C order of the stack
    raises ``exc``, named by ``name`` of its flat stack index.
    """
    check_stack([(cond_stack(M), 1.0, exc, lambda i: f"condition number of {name(i)}",
                  DEFAULT_POLICY.cond_limit)])


@dataclass(frozen=True)
class SignatureContext:
    """Block size ``p`` together with the fixed m x m matrices (m = 2p).

    ``j`` is diag(I_p, -I_p); ``J`` has identity off-diagonal blocks; ``K`` is
    the unitary rotation with K j K* = J.
    """

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("block size must be a positive integer")

    @property
    def m(self) -> int:
        return 2 * self.p

    def _block(self, rows) -> np.ndarray:
        """The m x m matrix whose p x p blocks are c I_p, c read from ``rows``."""
        return np.block([[c * np.eye(self.p) for c in row] for row in rows]).astype(complex)

    @cached_property
    def j(self) -> np.ndarray:
        return self._block([[1, 0], [0, -1]])

    @cached_property
    def J(self) -> np.ndarray:
        return self._block([[0, 1], [1, 0]])

    @cached_property
    def K(self) -> np.ndarray:
        return self._block([[1, -1], [1, 1]]) / np.sqrt(2.0)


def _block_stack(blocks, shape: tuple, name: str) -> np.ndarray:
    """The blocks of a sequence field as one read-only complex array of
    shape (N+1,) + ``shape``, N >= 0.

    ``blocks`` is an array or a sequence of equally shaped blocks; for 1 x 1
    blocks, a sequence of scalars is read as one scalar per block. A wrong
    or empty shape raises ``ValueError`` naming the field. The result is a
    read-only view (a C-ordered copy only where the input is not already a
    C-ordered complex array), so the caller's own array stays writable.
    """
    try:
        a = np.ascontiguousarray(blocks, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: the blocks do not form one array: {exc}") from exc
    if a.ndim == 1 and shape == (1, 1):
        a = a.reshape(-1, 1, 1)
    if a.shape[1:] != shape or a.shape[:1] == (0,):
        raise ValueError(f"{name} has shape {a.shape}, expected (N+1,) + {shape} with N >= 0")
    a = a.view()
    a.flags.writeable = False
    return a


def hermitian_sqrt(M: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian positive-definite matrix.

    Returns the unique Hermitian PD ``R`` with ``R @ R == M``, computed from
    the spectral decomposition.
    """
    M = np.asarray(M, dtype=complex)
    scale = max(np.linalg.norm(M), 1.0)
    check(herm_residual(M), scale, NotHermitian, "asymmetry")
    w, V = np.linalg.eigh((M + M.conj().T) / 2)
    check(-w[0], scale, NotPositiveDefinite, "-min_eig", -DEFAULT_POLICY.tau_pd)
    R = (V * np.sqrt(w)) @ V.conj().T
    return (R + R.conj().T) / 2


def rank_p_factor(G: np.ndarray, p: int) -> np.ndarray:
    """Rank-``p`` factor of a PSD 2p x 2p matrix: returns beta with beta* beta = G.

    The factor is built from the top-``p`` eigenpairs as Lambda^{1/2} V*. To make
    the result deterministic the eigenvalues are ordered descending and each
    eigenvector's phase is fixed so its first nonzero entry is real positive.
    ``G`` may also be an (s, 2p, 2p) stack, factored with one batched eigh
    into an (s, p, 2p) stack; each matrix gives the bits it gives alone, and
    the first matrix that fails a gate raises as it would alone.
    """
    G = np.asarray(G, dtype=complex)
    beta, gates = _rank_p_factor_gates(G, p)
    check_stack(gates)
    return beta.reshape(G.shape[:-2] + (p, 2 * p))


def _rank_p_factor_gates(G: np.ndarray, p: int):
    """``rank_p_factor`` of G flattened to an (s, 2p, 2p) stack, unchecked:
    the (s, p, 2p) factors, valid only where all four gates pass, and those
    gates in ``check_stack`` form."""
    if G.shape[-2:] != (2 * p, 2 * p):
        raise ValueError(f"expected a {2 * p} x {2 * p} matrix, got {G.shape}")
    stack = G.reshape((-1, 2 * p, 2 * p))
    GH = stack.conj().transpose(0, 2, 1)
    scale = np.maximum(norm_stack(stack), 1.0)
    # a non-finite matrix skips eigh (LAPACK may not converge on it) and fails the first gate
    finite = np.isfinite(stack).all(axis=(1, 2))
    w, V = np.full(stack.shape[:2], np.nan), np.full(stack.shape, np.nan, dtype=complex)
    w[finite], V[finite] = np.linalg.eigh((stack[finite] + GH[finite]) / 2)
    w, V = w[:, ::-1], V[:, :, ::-1]  # descending
    top, what = np.maximum(w[:, 0], 1e-300), f"numerical rank is not {p}:"
    gates = [
        (norm_stack(stack - GH), scale, NotPositiveDefinite,
         lambda i: "asymmetry", DEFAULT_POLICY.tau),
        (-w[:, -1], scale, NotPositiveDefinite, lambda i: "-min_eig", DEFAULT_POLICY.tau_pd),
        (-w[:, p - 1], top, RankMismatch, lambda i: f"{what} -eigenvalue {p}",
         -DEFAULT_POLICY.tau_rank),
        (w[:, p], top, RankMismatch, lambda i: f"{what} eigenvalue {p + 1}",
         DEFAULT_POLICY.tau_rank),
    ]
    V = V[:, :, :p]
    mag = np.abs(V)
    first = np.argmax(mag > 1e-12 * mag.max(axis=1, keepdims=True), axis=1)  # (s, p)
    lead = np.take_along_axis(V, first[:, None, :], axis=1)
    # a matrix the gates reject may carry NaN eigenvectors or negative eigenvalues here
    with np.errstate(invalid="ignore"):
        V = V / (lead / np.abs(lead))
        return np.sqrt(w[:, :p])[:, :, None] * V.conj().transpose(0, 2, 1), gates


def block_toeplitz(alpha: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Hermitian block Toeplitz matrix with symbol blocks ``alpha``.

    Block (k, j) equals s_{j-k} with s_{-r} = alpha_r, s_r = alpha_r* for r > 0
    and s_0 = alpha_0 + alpha_0*.
    """
    a = np.asarray(alpha, dtype=complex)
    n, p = a.shape[:2]
    ah = a.conj().transpose(0, 2, 1)
    s = np.concatenate([a[:0:-1], (a[0] + ah[0])[None], ah[1:]])  # s[m + n - 1] = s_m
    offset = np.arange(n)[None, :] - np.arange(n)[:, None] + n - 1
    return s[offset].transpose(0, 2, 1, 3).reshape(n * p, n * p)


def pd_solve(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve S X = B for Hermitian positive-definite ``S`` via Cholesky.

    S = L L* from the lower triangle, then two solves; a 1-D ``B`` gives a 1-D
    result. A non-finite entry (LAPACK factors it into NaN without an error)
    or a Cholesky breakdown raises ``NotPositiveDefinite``.
    """
    S = np.asarray(S, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if not np.isfinite(S).all():
        raise NotPositiveDefinite("Cholesky input has a non-finite entry")
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky breakdown: {exc}") from exc
    return np.linalg.solve(L.conj().T, np.linalg.solve(L, B))


def block_levinson(alpha: list[np.ndarray] | np.ndarray):
    """Yield the last block column of S(r)^{-1} for r = 0, 1, ..., N.

    S(r) is ``block_toeplitz(alpha[:r + 1])``, which must be positive definite
    for every r reached. Each item is an (r+1, p, p) array whose block l is
    (S(r)^{-1})_{l,r}. Block Levinson/Whittle recursion on the monic forward
    and backward predictors A, B of S(r) [A; 0] = [Pf; 0], S(r) B = [0; Pb]:
    step r costs O(r p^3), so running through r = N costs O(N^2 p^3). The
    last block column is B Pb^{-1}.
    """
    a = np.asarray(alpha, dtype=complex)
    ah = a.conj().transpose(0, 2, 1)
    p = a.shape[1]

    def times(X, M):
        # an (n, p, p) stack times one p x p matrix as one flat product
        return (X.reshape(-1, p) @ M).reshape(X.shape)

    fwd = bwd = np.eye(p, dtype=complex)[None]
    pf = pb = a[0] + ah[0]
    yield times(bwd, np.linalg.inv(pb))
    for r in range(1, len(a)):
        # block row r of S(r) times [fwd; 0]; block row 0 times [0; bwd] is its adjoint
        delta = np.einsum("lab,lbc->ac", a[r:0:-1], fwd)
        kf = np.linalg.solve(pb, delta)
        kb = np.linalg.solve(pf, delta.conj().T)
        new_fwd = np.zeros((r + 1,) + delta.shape, dtype=complex)
        new_bwd = np.zeros_like(new_fwd)
        new_fwd[:r] = fwd
        new_fwd[1:] -= times(bwd, kf)
        new_bwd[1:] = bwd
        new_bwd[:r] -= times(fwd, kb)
        fwd, bwd = new_fwd, new_bwd
        pf = pf - delta.conj().T @ kf
        pb = pb - delta @ kb
        pf, pb = (pf + pf.conj().T) / 2, (pb + pb.conj().T) / 2
        yield times(bwd, np.linalg.inv(pb))


def block_levinson_solve(alpha: list[np.ndarray], B: np.ndarray) -> np.ndarray:
    """Solve ``block_toeplitz(alpha) @ X = B`` by block Levinson recursion.

    Runs on ``block_levinson``, the engine of the inverse spectral problem:
    O(N^2 p^3) instead of the O(N^3 p^3) dense factorization. Each step adds
    the last block column of S(r)^{-1} times the residual of block row r.
    """
    a = np.asarray(alpha, dtype=complex)
    n, p = a.shape[:2]
    B = np.asarray(B, dtype=complex)
    if B.ndim == 1:
        B = B[:, None]
    rhs = B.reshape(n, p, -1)
    X = np.zeros_like(rhs)
    for r, last in enumerate(block_levinson(a)):
        resid = rhs[r] - np.einsum("lab,lbc->ac", a[r:0:-1], X[:r])
        X[:r + 1] += last @ resid
    return X.reshape(n * p, -1)
