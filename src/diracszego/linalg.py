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

from .errors import NotPositiveDefinite, RankMismatch
from .policy import DEFAULT_POLICY, check_stack

__all__ = [
    "SignatureContext",
    "block_toeplitz",
    "pd_solve",
    "block_levinson",
    "block_levinson_solve",
    "min_eig",
    "min_eig_stack",
    "norm_stack",
    "cond_stack",
]


def _sum_squares(flat: np.ndarray) -> np.ndarray:
    """Sum of squares of each (..., 1, L) row, as ``numpy.linalg.norm`` sums one matrix."""
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    return sum((x @ x.swapaxes(-1, -2))[..., 0, 0] for x in parts)


def norm_stack(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of a (..., m, n) stack, each with the
    bits ``numpy.linalg.norm`` gives that matrix alone when it is stored in C
    order, so a gate judged on a stack gives the verdict the same gate gives
    one matrix. A finite matrix whose sum of squares overflows is scaled
    exactly by 2^-e, 2^e above its largest real or imaginary part, and its
    norm back by 2^e: finite wherever representable. NaN entries read NaN.
    """
    M = np.asarray(M)
    flat = np.ascontiguousarray(M).reshape(M.shape[:-2] + (1, M.shape[-2] * M.shape[-1]))
    with np.errstate(over="ignore"):
        norm = np.sqrt(_sum_squares(flat))
        over = norm == np.inf
        if over.any():                                  # only past the square of the range
            norm, big = np.array(norm), flat[over]      # big is a copy, scaled in place
            part = big.view(big.real.dtype)
            e = np.frexp(np.abs(part).max(axis=(-2, -1)))[1]    # 0 for an inf entry
            part[...] = np.ldexp(part, -e[:, None, None])
            norm[over] = np.ldexp(np.sqrt(_sum_squares(big)), e)
            norm = norm[()]
    return norm


def min_eig(M: np.ndarray) -> float:
    """``min_eig_stack`` of the stack of one matrix ``M``."""
    return float(min_eig_stack(M))


def min_eig_stack(M: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of every matrix of a
    (..., n, n) stack, from one batched eigvalsh, in the stack's shape. A
    matrix with a non-finite entry (LAPACK may return any number for it)
    reads NaN; if the batched eigvalsh fails, the finite matrices are judged
    again one at a time, so only the one that fails reads NaN."""
    M = np.asarray(M)
    stack = M.reshape((-1,) + M.shape[-2:])
    finite = np.isfinite(stack).all(axis=(1, 2))
    A = stack[finite]
    value = np.full(len(stack), np.nan)
    try:
        value[finite] = np.linalg.eigvalsh((A + A.conj().transpose(0, 2, 1)) / 2)[:, 0]
    except np.linalg.LinAlgError:
        # error path only: one matrix at a time, so only the one that fails reads NaN
        value[finite] = [min_eig_stack(B) for B in A] if len(A) > 1 else np.nan
    return value.reshape(M.shape[:-2])


def check_cond(M: np.ndarray, exc: type[Exception], what: str) -> np.ndarray:
    """``check_cond_stack`` on the stack of one n x n matrix ``M``; returns
    its inverse."""
    return check_cond_stack(np.asarray(M)[None], exc, lambda i: what)[0]


def cond_stack(M: np.ndarray) -> np.ndarray:
    """Condition number of every matrix of a (..., n, n) stack, flattened to
    one axis in C order, from one batched SVD: the exact test of
    ``check_cond_stack``.

    A matrix with a non-finite entry skips the SVD (LAPACK rejects it) and
    reads as ``numpy.linalg.cond`` reports it, NaN with a NaN entry and inf
    without; a matrix whose SVD fails reads NaN.
    """
    stack = np.asarray(M).reshape((-1,) + np.shape(M)[-2:])
    finite = np.isfinite(stack).all(axis=(1, 2))
    A = stack[finite]
    value = np.where(np.isnan(stack).any(axis=(1, 2)), np.nan, np.inf)
    try:
        value[finite] = np.linalg.cond(A)
    except np.linalg.LinAlgError:
        # error path only: one matrix at a time, so only the one that fails reads NaN
        value[finite] = [cond_stack(B)[0] for B in A] if len(A) > 1 else np.nan
    return value


def check_cond_stack(M: np.ndarray, exc: type[Exception], name) -> np.ndarray:
    """``policy.check`` of cond against cond_limit for every matrix of a
    (..., n, n) stack; returns the stack of inverses, from one batched
    ``numpy.linalg.inv``.

    NaN and inf fail. The first failing matrix in C order of the stack
    raises ``exc``, named by ``name`` of its flat stack index, with the line,
    ``measured``, ``allowed`` and ``index`` of the exact test (``cond_stack``).

    The inverse X of each finite matrix certifies most passing matrices
    without an SVD. With R = I - X M, X M = I - R gives M^{-1} = (I - R)^{-1} X
    whenever ||R||_2 < 1, so

        cond_2(M) <= ||M||_F ||X||_F / (1 - rho),   rho >= ||R||_2.

    -R is computed as fl(fl(X M) - I), which has the norm of fl(R). A complex
    matrix product carries |fl(X M) - X M| <= gamma_{n+2} |X| |M| elementwise
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 3.5 for the real product with gamma_n, sec. 3.6 for the two more of
    complex arithmetic), and the subtraction of I at most
    gamma_1 |fl(R)| <= gamma_{n+2} |fl(R)|, with gamma_k = k u / (1 - k u) and
    u the unit roundoff. Hence ||R||_2 <= ||R||_F is at most

        rho = ||fl(R)||_F + gamma_{n+2} (||fl(R)||_F + ||X||_F ||M||_F).

    A matrix is certified when rho <= 1/4 and the bound is at most
    cond_limit / 4. Those two thresholds only route: the factor 4 leaves room
    for the rounding of the norms and of the bound, and for the SVD's own
    error, about n u cond relative in its smallest singular value, so the
    exact test passes every certified matrix too. As ||M||_F ||X||_F is at
    most n cond_2(M), matrices within about a factor 4n of the limit are left
    undecided. Those, the matrices with a non-finite entry and, when the
    batched inverse raises ``LinAlgError``, every matrix of the stack go to
    ``cond_stack``, one batched SVD. A stack that passes but could not be
    inverted re-raises that ``LinAlgError``, as the solve it replaces would.
    """
    stack = np.asarray(M).reshape((-1,) + np.shape(M)[-2:])
    n = stack.shape[-1]
    finite = np.isfinite(stack).all(axis=(1, 2))
    A = stack if finite.all() else stack[finite]
    value = np.full(len(stack), np.inf)
    failed = None
    try:
        X = np.linalg.inv(A)
    except np.linalg.LinAlgError as err:
        failed = err
    else:
        u = np.finfo(float).eps / 2                 # unit roundoff
        gamma = (n + 2) * u / (1 - (n + 2) * u)
        # an inverse near overflow reads inf or NaN here, and is not certified
        with np.errstate(over="ignore", invalid="ignore"):
            R = X @ A
            R -= np.eye(n)
            xm = np.linalg.norm(X, axis=(1, 2)) * np.linalg.norm(A, axis=(1, 2))
            r = np.linalg.norm(R, axis=(1, 2))
            rho = r + gamma * (r + xm)
            bound = xm / (1 - rho)
        value[finite] = np.where((rho <= 0.25) & (bound <= DEFAULT_POLICY.cond_limit / 4),
                                 bound, np.inf)
    undecided = np.isinf(value)
    if undecided.any():
        value[undecided] = cond_stack(stack[undecided])
    check_stack([(value, 1.0, exc, lambda i: f"condition number of {name(i)}",
                  DEFAULT_POLICY.cond_limit)])
    if failed is not None:
        raise failed
    # every matrix passed, so all are finite and X inverts the whole stack
    return X.reshape(np.shape(M))


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


def _rank_p_factor_gates(G: np.ndarray, p: int):
    """Rank-``p`` factors beta = Lambda^{1/2} V* (beta* beta = G) from the top-``p``
    eigenpairs of each PSD 2p x 2p matrix of G flattened to an (s, 2p, 2p) stack,
    by one batched eigh; each matrix gives the bits it gives alone. The
    eigenvalues are ordered descending and each eigenvector's phase is fixed so
    its first nonzero entry is real positive. Unchecked: returns the (s, p, 2p)
    factors, valid only where all four gates pass, and those gates in
    ``check_stack`` form."""
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
    and s_0 = alpha_0 + alpha_0*: exactly Hermitian. Block row k is the window
    of the flat symbol [s_{-N} ... s_N] that starts at its block N - k.
    """
    a = np.asarray(alpha, dtype=complex)
    n, p = a.shape[:2]
    ah = a.conj().transpose(0, 2, 1)
    s = np.concatenate([a[:0:-1], (a[0] + ah[0])[None], ah[1:]])  # s[m + n - 1] = s_m
    flat = s.transpose(1, 0, 2).reshape(p, (2 * n - 1) * p)
    e = flat.itemsize
    # the n windows as one strided view on flat's buffer, made without Python temporaries
    rows = np.ndarray((n, p, n * p), complex, flat, (n - 1) * p * e, (-p * e, flat.strides[0], e))
    return np.array(rows, order="C").reshape(n * p, n * p)


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
    """Yield the backward predictor B and pivot P, S(r) B = [0; P], for r = 0..N.

    S(r) is ``block_toeplitz(alpha[:r + 1])``, which must be positive definite
    for every r reached. B is a new (r+1, p, p) array whose last block is
    exactly I_p and P a new Hermitian p x p array; B P^{-1} is the last block
    column of S(r)^{-1}. Block Levinson/Whittle recursion on B and the forward
    predictor A, S(r) [A; 0] = [Pf; 0]: step r costs O(r p^3), so running
    through r = N costs O(N^2 p^3).
    """
    a = np.asarray(alpha, dtype=complex)
    n, p = a.shape[:2]
    row = a[::-1].transpose(1, 0, 2).reshape(p, n * p)  # alpha_N ... alpha_0 side by side

    fwd = bwd = np.eye(p, dtype=complex)[None]
    pf = pb = a[0] + a[0].conj().T
    yield bwd, pb
    for r in range(1, n):
        # block row r of S(r) times [fwd; 0]; block row 0 times [0; bwd] is its adjoint
        delta = row[:, (n - 1 - r) * p:(n - 1) * p] @ fwd.reshape(r * p, p)
        kf = np.linalg.solve(pb, delta)
        kb = np.linalg.solve(pf, delta.conj().T)
        new_fwd = np.zeros((r + 1,) + delta.shape, dtype=complex)
        new_bwd = np.zeros_like(new_fwd)
        new_fwd[:r] = fwd
        # each (r, p, p) predictor times its p x p factor as one flat product
        new_fwd[1:] -= (bwd.reshape(r * p, p) @ kf).reshape(r, p, p)
        new_bwd[1:] = bwd
        new_bwd[:r] -= (fwd.reshape(r * p, p) @ kb).reshape(r, p, p)
        fwd, bwd = new_fwd, new_bwd
        pf = pf - delta.conj().T @ kf
        pb = pb - delta @ kb
        pf, pb = (pf + pf.conj().T) / 2, (pb + pb.conj().T) / 2
        yield bwd, pb


def block_levinson_solve(alpha: list[np.ndarray], B: np.ndarray) -> np.ndarray:
    """Solve ``block_toeplitz(alpha) @ X = B`` by block Levinson recursion.

    Runs on ``block_levinson``, the engine of the inverse spectral problem:
    O(N^2 p^3) instead of the O(N^3 p^3) dense factorization. Each step adds
    the last block column of S(r)^{-1}, B P^{-1}, times block row r's residual.
    """
    a = np.asarray(alpha, dtype=complex)
    n, p = a.shape[:2]
    B = np.asarray(B, dtype=complex)
    if B.ndim == 1:
        B = B[:, None]
    rhs = B.reshape(n, p, -1)
    X = np.zeros_like(rhs)
    for r, (bwd, pivot) in enumerate(block_levinson(a)):
        resid = rhs[r] - np.einsum("lab,lbc->ac", a[r:0:-1], X[:r])
        X[:r + 1] += (bwd @ np.linalg.inv(pivot)) @ resid
    return X.reshape(n * p, -1)
