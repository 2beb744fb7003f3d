"""Shared fixtures and helpers for the test suite."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import diracszego as dz
from diracszego.errors import (AnalyticityViolation, DiracSzegoError, IdentityViolated,
                               InvariantViolated, NotHermitian, NotPositiveDefinite, PoleAtInput,
                               RankMismatch)
from diracszego.linalg import _rank_p_factor_gates, min_eig, pd_solve
from diracszego.policy import check, check_stack, failure

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def ex41_params():
    return dz.example41_params(1.0, 1.0, 1.0)


@pytest.fixture
def ex41_system(ex41_params):
    sys_out, _ = dz.generate(ex41_params, 12)
    return sys_out


@pytest.fixture
def trivial_system():
    ctx = dz.SignatureContext(p=1)
    return dz.PotentialSequence(ctx=ctx, C=tuple(np.eye(2) for _ in range(8)))


def random_schur(rng, N, max_modulus=0.6):
    """Random scalar Schur coefficients with moduli bounded away from 1."""
    mod = rng.uniform(0, max_modulus, N + 1)
    arg = rng.uniform(0, 2 * np.pi, N + 1)
    return dz.SchurCoefficients(rho=tuple(mod * np.exp(1j * arg)))


def indefinite_s0_params(rng, n=3, p=1):
    """A valid parameter triple whose S0 is indefinite: A is built from S0 as
    in ``random_bdt_parameters``, so the parameter identity holds."""
    ctx = dz.SignatureContext(p=p)
    S0 = np.diag([1.0] + [-1.0] * (n - 1)).astype(complex)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Pi0 = 0.4 * (rng.standard_normal((n, 2 * p)) + 1j * rng.standard_normal((n, 2 * p)))
    A = ((X + X.conj().T) / 2 + 0.5j * Pi0 @ ctx.j @ Pi0.conj().T) @ np.linalg.inv(S0)
    return dz.BdtParameters(ctx=ctx, A=A, S0=S0, Pi0=Pi0)


def near_singular_s0_params():
    """A valid triple whose S0 = diag(1, 1e-11) is positive definite but
    singular to working precision: min_eig(S0) = 1e-11 fails the S0 > 0 gate,
    min_eig(S0) > tau_pd max(||S0||_F, 1) = 1e-10."""
    ctx = dz.SignatureContext(p=1)
    S0 = np.diag([1.0, 1e-11]).astype(complex)
    Pi0 = np.array([[0.3 + 0.1j, 0.2], [0.1j, 0.25]])
    A = (np.diag([1.0, 2.0]) + 0.5j * Pi0 @ ctx.j @ Pi0.conj().T) @ np.linalg.inv(S0)
    return dz.BdtParameters(ctx=ctx, A=A, S0=S0, Pi0=Pi0)


def benchmark_reads():
    """Every attribute path of the package that ``perfbench/run.py`` reads, as
    the tuple of names after its root ``dz`` or ``self.dz``: ``dz.io.read_doc``
    gives ("io", "read_doc")."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    paths = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        names = []
        while isinstance(node, ast.Attribute):
            names.insert(0, node.attr)
            node = node.value
        names.insert(0, getattr(node, "id", None))
        for root in (["dz"], ["self", "dz"]):
            if names[:len(root)] == root and len(names) > len(root):
                paths.add(tuple(names[len(root):]))
    return paths


def cayley_lambda_of_z(z):
    """Disk-to-half-plane map lambda(z) = i (z + 1) / (z - 1), elementwise on
    a scalar or an array; any z == 1 raises ``PoleAtInput``."""
    if np.any(z == 1):
        raise PoleAtInput("lambda(z) has a pole at z = 1")
    return 1j * (z + 1) / (z - 1)


def disk_taylor(sys, pair, N, radius=0.5, samples=256):
    """Taylor blocks of i * phi(lambda(z)) on |z| = radius for the disk
    Weyl function produced by ``pair``."""
    p = sys.ctx.p
    vals = np.empty((samples, p, p), dtype=complex)
    for m in range(samples):
        z = radius * np.exp(2j * np.pi * m / samples)
        lam = cayley_lambda_of_z(z)
        vals[m] = 1j * dz.weyl_disk_eval(sys, pair, lam)
    spectrum = np.fft.fft(vals, axis=0) / samples
    return [spectrum[k] / radius**k for k in range(N + 1)]


def loop_rational_taylor(params, N, radius=0.5, samples=512):
    """Taylor blocks of i phi_K(lambda(z)) by sampling, one point at a time: a
    scalar Weyl-function call, ``herglotz_map`` and finiteness check per point
    of the circle |z| = radius, then one FFT. An oracle independent of the
    state-space formula of ``rational_taylor``; its error grows about like
    radius^-k, so compare at small N only."""
    p = params.ctx.p
    vals = np.empty((samples, p, p), dtype=complex)
    for mth in range(samples):
        z = radius * np.exp(2j * np.pi * mth / samples)
        lam = cayley_lambda_of_z(z)
        try:
            f = 1j * dz.herglotz_map(dz.explicit_weyl(params, lam))
        except (DiracSzegoError, np.linalg.LinAlgError) as exc:
            raise AnalyticityViolation(
                f"Weyl function could not be evaluated at sample z={z}: {exc}") from exc
        if not np.all(np.isfinite(f)):
            raise AnalyticityViolation(f"pole detected on the sample circle at z={z}")
        vals[mth] = f
    spectrum = np.fft.fft(vals, axis=0) / samples
    return dz.TaylorSequence(p=p, alpha=tuple(spectrum[k] / radius**k for k in range(N + 1)))


def max_block_dev(seq_a, seq_b):
    return max(float(np.abs(np.asarray(a) - np.asarray(b)).max())
               for a, b in zip(seq_a, seq_b))


# Dense reference formulations of the spectral problems. The library runs the
# structured O(N^2 p^3) recursions; these O(N^3)-O(N^4) versions are kept only
# as the references the equivalence tests compare against.

def dense_block_toeplitz(alpha):
    """Block-by-block assembly of the Hermitian block Toeplitz matrix."""
    blocks = [np.asarray(a, dtype=complex) for a in alpha]
    p = blocks[0].shape[0]
    n = len(blocks)
    s = {0: blocks[0] + blocks[0].conj().T}
    for r in range(1, n):
        s[-r] = blocks[r]
        s[r] = blocks[r].conj().T
    S = np.zeros((n * p, n * p), dtype=complex)
    for k in range(n):
        for col in range(n):
            S[k * p:(k + 1) * p, col * p:(col + 1) * p] = s[col - k]
    return S


def dense_taylor_from_beta(beta):
    """V_- recursion with the dense inverse of i*L at every step and one
    dense solve against the assembled V_-(N)."""
    ctx = beta.ctx
    p, J = ctx.p, ctx.J
    N = beta.N
    b = beta.beta
    beta1 = [x[:, :p] for x in b]
    V = beta1[0].copy()
    v_prev = beta1[0]
    eye = np.eye(p, dtype=complex)
    for k in range(1, N + 1):
        v_k = b[k] @ J @ b[k - 1].conj().T @ v_prev
        stack = np.hstack([b[l].conj().T for l in range(k)])
        M = b[k] @ J @ stack @ V
        if k > 1:
            core = dz.structured_a(k - 1, p) + 0.5j * np.eye((k - 1) * p)
            ones_row = np.hstack([eye] * (k - 1))
            Xt = 1j * (M[:, : (k - 1) * p] - v_k @ ones_row) @ np.linalg.inv(core)
            X0 = beta1[k] - v_k - Xt @ np.vstack([eye] * (k - 1))
            X = np.hstack([X0, Xt])
        else:
            X = beta1[1] - v_k
        V = np.block([
            [V, np.zeros((k * p, p), dtype=complex)],
            [X, v_k],
        ])
        v_prev = v_k
    Pi = np.linalg.solve(V, np.vstack(b))
    psi = [Pi[k * p:(k + 1) * p, p:] for k in range(N + 1)]
    return [psi[0]] + [psi[k] - psi[k - 1] for k in range(1, N + 1)]


def dense_first_not_pd(alpha, policy=dz.DEFAULT_POLICY):
    """First r at which the positivity gate fails, scanning S(0), S(1), ..."""
    for r in range(alpha.N + 1):
        S = dense_block_toeplitz(alpha.alpha[: r + 1])
        lo = float(np.linalg.eigvalsh((S + S.conj().T) / 2)[0])
        if lo <= policy.tau_pd * max(np.linalg.norm(S), 1.0):
            return r
    return None


def taylor_pi(alpha, r):
    """The (r+1)p x 2p matrix [Phi_1 Phi_2] of cumulative coefficient sums."""
    p = alpha.p
    eye = np.eye(p, dtype=complex)
    phi2 = np.cumsum(alpha.alpha[: r + 1], axis=0)
    return np.hstack([np.vstack([eye] * (r + 1)), phi2.reshape((r + 1) * p, p)])


def dense_inverse_potentials(alpha):
    """Inverse problem with two Cholesky solves against each assembled S(r)."""
    ctx = dz.SignatureContext(p=alpha.p)
    p, K, j = alpha.p, ctx.K, ctx.j
    C = []
    for r in range(alpha.N + 1):
        S = dense_block_toeplitz(alpha.alpha[: r + 1])
        factor = scipy.linalg.cho_factor(S, lower=True)
        Pi = taylor_pi(alpha, r)
        last = slice(r * p, (r + 1) * p)
        core = scipy.linalg.cho_solve(factor, Pi)[last, :]
        unit = np.zeros(((r + 1) * p, p), dtype=complex)
        unit[last] = np.eye(p)
        small = scipy.linalg.cho_solve(factor, unit)[last, :]
        G = core.conj().T @ np.linalg.solve(small, core)
        Cr = 2 * K.conj().T @ G @ K - j
        C.append((Cr + Cr.conj().T) / 2)
    return C


# Per-step forms of the stages the library runs on stacks: one NumPy call per
# block or per coefficient. They are kept only as the references the batched
# equivalence tests compare against.

def loop_block_levinson(alpha):
    """Block Levinson/Whittle recursion: yields the monic backward predictor
    B_r, an (r+1, p, p) stack, and its pivot P_r, S(r) B_r = [0; P_r], for
    r = 0..N. The engine of ``loop_inverse_potentials``."""
    a = np.asarray(alpha, dtype=complex)
    ah = a.conj().transpose(0, 2, 1)
    n, p = a.shape[:2]
    row = a[::-1].transpose(1, 0, 2).reshape(p, n * p)
    fwd = bwd = np.eye(p, dtype=complex)[None]
    pf = pb = a[0] + ah[0]
    yield bwd, pb
    for r in range(1, n):
        delta = row[:, (n - 1 - r) * p:(n - 1) * p] @ fwd.reshape(r * p, p)
        kf = np.linalg.solve(pb, delta)
        kb = np.linalg.solve(pf, delta.conj().T)
        new_fwd = np.zeros((r + 1,) + delta.shape, dtype=complex)
        new_bwd = np.zeros_like(new_fwd)
        new_fwd[:r] = fwd
        new_fwd[1:] -= bwd @ kf
        new_bwd[1:] = bwd
        new_bwd[:r] -= fwd @ kb
        fwd, bwd = new_fwd, new_bwd
        pf = pf - delta.conj().T @ kf
        pb = pb - delta @ kb
        pf, pb = (pf + pf.conj().T) / 2, (pb + pb.conj().T) / 2
        yield bwd, pb


def herm_residual(M):
    """Frobenius norm of the anti-Hermitian part of ``M``."""
    return float(np.linalg.norm(M - M.conj().T))


def hermitian_sqrt(M):
    """Principal square root of a Hermitian positive-definite matrix, from the
    spectral decomposition, with the gates ``dirac_to_szego`` applies to each
    of its square roots."""
    M = np.asarray(M, dtype=complex)
    scale = max(np.linalg.norm(M), 1.0)
    check(herm_residual(M), scale, NotHermitian, "asymmetry")
    w, V = np.linalg.eigh((M + M.conj().T) / 2)
    check(-w[0], scale, NotPositiveDefinite, "-min_eig", -dz.DEFAULT_POLICY.tau_pd)
    R = (V * np.sqrt(w)) @ V.conj().T
    return (R + R.conj().T) / 2


def rank_p_factor(G, p):
    """``linalg._rank_p_factor_gates`` with its gates judged: the rank-p factor
    of a matrix, or an (s, p, 2p) stack of factors of an (s, 2p, 2p) stack,
    where the first matrix that fails a gate raises as it would alone."""
    G = np.asarray(G, dtype=complex)
    beta, gates = _rank_p_factor_gates(G, p)
    check_stack(gates)
    return beta.reshape(G.shape[:-2] + (p, 2 * p))


def loop_rank_p_factor(G, p):
    """``rank_p_factor`` on one matrix, one eigh and four checks."""
    G = np.asarray(G, dtype=complex)
    scale = max(np.linalg.norm(G), 1.0)
    check(herm_residual(G), scale, NotPositiveDefinite, "asymmetry")
    w, V = np.linalg.eigh((G + G.conj().T) / 2)
    check(-w[0], scale, NotPositiveDefinite, "-min_eig", dz.DEFAULT_POLICY.tau_pd)
    w, V = w[::-1], V[:, ::-1]
    top, what = max(w[0], 1e-300), f"numerical rank is not {p}:"
    check(-w[p - 1], top, RankMismatch, f"{what} -eigenvalue {p}", -dz.DEFAULT_POLICY.tau_rank)
    check(w[p], top, RankMismatch, f"{what} eigenvalue {p + 1}", dz.DEFAULT_POLICY.tau_rank)
    V = V[:, :p].copy()
    for col in range(p):
        v = V[:, col]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())
        phase = v[nz[0]] / abs(v[nz[0]])
        V[:, col] = v / phase
    return (np.sqrt(w[:p])[:, None]) * V.conj().T


def loop_beta_from_potentials(sys):
    """``beta_from_potentials`` one coefficient at a time."""
    ctx = sys.ctx
    norm_J, norm_I = np.linalg.norm(ctx.J), np.sqrt(ctx.p)
    betas = []
    for k, C in enumerate(sys.C):
        G = (C + ctx.j) / 2
        try:
            bhat = loop_rank_p_factor(G, ctx.p)
        except (NotPositiveDefinite, RankMismatch) as exc:
            raise type(exc)(f"C_{k} is not a valid potential: {exc}") from exc
        b = bhat @ ctx.K.conj().T
        check(np.linalg.norm(b @ ctx.J @ b.conj().T - np.eye(ctx.p)),
              np.linalg.norm(b) ** 2 * norm_J + norm_I, InvariantViolated,
              f"C_{k} is not a valid potential: beta({k}) J-normalization residual")
        betas.append(b)
    return dz.BetaSequence(ctx=ctx, beta=tuple(betas))


def loop_inverse_potentials(alpha):
    """The inverse problem by block Levinson recursion, the reference for
    the layer peeling of ``inverse_potentials``: with Y_r = B_r* Pi(r), the
    Gram matrix beta(r)* beta(r) = Y_r* P_r^{-1} Y_r gives C_r, and the
    J-normalization Y_r J Y_r* = P_r is checked at each r."""
    ctx = dz.SignatureContext(p=alpha.p)
    p, J, K, j, norm_J = alpha.p, ctx.J, ctx.K, ctx.j, np.linalg.norm(ctx.J)
    failed = dz.inverse._first_not_pd(dz.block_toeplitz(alpha.alpha), p)
    stop = alpha.N + 1 if failed is None else failed[0]
    psi = np.cumsum(np.stack(alpha.alpha), axis=0)
    C = []
    for r, (B, P) in enumerate(loop_block_levinson(alpha.alpha)):
        if r == stop:
            break
        Pi = np.hstack([np.vstack([np.eye(p)] * (r + 1)), psi[:r + 1].reshape(-1, p)])
        Y = B.reshape(-1, p).conj().T @ Pi
        G = Y.conj().T @ np.linalg.solve(P, Y)
        check(np.linalg.norm(Y @ J @ Y.conj().T - P),
              np.linalg.norm(Y) ** 2 * norm_J + np.linalg.norm(P),
              InvariantViolated, f"J-normalization residual at r={r}")
        Cr = 2 * K.conj().T @ G @ K - j
        C.append((Cr + Cr.conj().T) / 2)
    if failed is not None:
        raise dz.ToeplitzNotPD(f"block Toeplitz matrix S({failed[0]}) is not positive "
                               f"definite: {failed[1]}", failed[0])
    return dz.PotentialSequence(ctx=ctx, C=tuple(C))


def six_product_rotate(U, R, j):
    """The rotation step U (i j R), reprojected as V (I - E/2) with
    E = j V* j V - I, written with j as a matrix: six products, where
    ``szego._rotate`` applies j as a sign pattern in three, with the same bits."""
    V = U @ (1j * j @ R)
    E = j @ V.conj().T @ j @ V - np.eye(V.shape[0])
    return V @ (np.eye(V.shape[0]) - E / 2)


def loop_szego_to_dirac(sz):
    """``szego_to_dirac`` with C_k formed at step k inside the rotation loop."""
    ctx = sz.ctx
    j = ctx.j
    C = []
    U = np.eye(ctx.m, dtype=complex)
    for R in sz.R:
        Uinv = j @ U.conj().T @ j
        Ck = Uinv.conj().T @ (R @ R) @ Uinv
        C.append((Ck + Ck.conj().T) / 2)
        U = six_product_rotate(U, R, j)
    return dz.PotentialSequence(ctx=ctx, C=tuple(C))


def replay_rotations(R, j):
    """U_0..U_len(R) of U_{k+1} = U_k (i j R_k), U_0 = I, as one np.clongdouble
    stack (64-bit mantissa): the plain product of the given R_k, about three
    digits closer to the exact one than a float64 product. Where long double
    is plain double, the replay would be one more float64 product and no
    reference, so it refuses to run."""
    assert np.finfo(np.longdouble).nmant > 52, "np.longdouble has no more bits than float64"
    j, R = np.asarray(j, dtype=np.clongdouble), np.asarray(R, dtype=np.clongdouble)
    U = np.empty((len(R) + 1,) + j.shape, dtype=np.clongdouble)
    U[0] = np.eye(len(j))
    for k, Rk in enumerate(R):
        U[k + 1] = U[k] @ (1j * j @ Rk)
    return U


def replay_szego_to_dirac(sz):
    """``szego_to_dirac``'s C_k = U_k^{-*} R_k^2 U_k^{-1}, U_k^{-1} = j U_k* j,
    on ``replay_rotations``, in np.clongdouble."""
    j, R = np.asarray(sz.ctx.j, dtype=np.clongdouble), np.asarray(sz.R, dtype=np.clongdouble)
    Uinv = j @ replay_rotations(sz.R[:-1], sz.ctx.j).conj().transpose(0, 2, 1) @ j
    C = Uinv.conj().transpose(0, 2, 1) @ (R @ R) @ Uinv
    return (C + C.conj().transpose(0, 2, 1)) / 2


def forward_error(X, Y):
    """max_k ||X_k - Y_k||_F / max(||Y_k||_F, 1) of two block stacks, taken in
    the precision of the extended one."""
    X, Y = np.asarray(X, dtype=np.clongdouble), np.asarray(Y, dtype=np.clongdouble)
    norm = lambda M: np.sqrt((abs(M) ** 2).sum(axis=(1, 2)))
    return float((norm(X - Y) / np.maximum(norm(Y), 1)).max())


def loop_dirac_to_szego(sys):
    """``dirac_to_szego`` (default theta rule) with min_eig(C_k) and ||C_k||
    taken at step k."""
    ctx = sys.ctx
    j, norm_j = ctx.j, np.linalg.norm(ctx.j)
    R_out, theta_out = [], []
    U = np.eye(ctx.m, dtype=complex)
    for k, C in enumerate(sys.C):
        norm_c = np.linalg.norm(C)
        check(-min_eig(C), max(norm_c, 1.0), NotPositiveDefinite, f"-min_eig(C_{k})")
        M = U.conj().T @ C @ U
        check(herm_residual(M), np.linalg.norm(U) ** 2 * norm_c, NotHermitian,
              f"asymmetry of U_{k}* C_{k} U_{k}")
        R = hermitian_sqrt((M + M.conj().T) / 2)
        check(np.linalg.norm(R @ j @ R - j), np.linalg.norm(R) ** 2 + norm_j,
              InvariantViolated, f"R_{k} j R_{k} - j residual")
        if ctx.p == 1:
            rho = -R[0, 1] / R[0, 0]
            theta = float(np.sqrt(1 - abs(rho) ** 2))
        else:
            theta = 1.0
        R_out.append(R)
        theta_out.append(theta)
        U = six_product_rotate(U, R, j)
    return dz.SzegoSequence(ctx=ctx, R=tuple(R_out), theta=tuple(theta_out))


def loop_validate(sys):
    """``validate``'s five fields per coefficient, one matrix at a time."""
    j = sys.ctx.j
    rows = []
    for C in sys.C:
        norm = np.linalg.norm(C)
        scale = max(norm, 1.0)
        rows.append((herm_residual(C) / scale,
                     float(np.linalg.norm(C @ j @ C - j)) / max(norm ** 2, 1.0),
                     min_eig(C) / scale, min_eig(C + j) / scale, min_eig(C - j) / scale))
    return rows


def loop_failures(rows):
    """``ValidationReport.failures()`` of ``loop_validate``'s rows, one check
    of one step at a time, with the line each check prints."""
    checks = (
        (1, "||C - C*|| / max(||C||, 1)"),
        (1, "||C j C - j|| / max(||C||^2, 1)"),
        (-1, "-min_eig(C) / max(||C||, 1)"),
        (-1, "-min_eig(C + j) / max(||C||, 1)"),
        (-1, "-min_eig(C - j) / max(||C||, 1)"),
    )
    lines = (failure(sign * value, 1.0, f"C_{k}: {what}")
             for k, row in enumerate(rows) for value, (sign, what) in zip(row, checks))
    return [line for line in lines if line is not None]


def loop_states(params, count):
    """The generating recursion in its own coordinates, Pi_{k+1} =
    Pi_k + i A^{-1} Pi_k j and S_{k+1} = S_k + A^{-1} (S_k + Pi_k Pi_k*) A^{-*},
    one step at a time and ungated, past the floating-point range on inf and
    NaN; the states as a Pi stack and an S stack."""
    A, j = params.A, params.ctx.j
    Ainv = np.linalg.inv(A)
    Pis, Ss = [params.Pi0], [(params.S0 + params.S0.conj().T) / 2]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(count - 1):
            Pi, S = Pis[-1], Ss[-1]
            S_next = S + Ainv @ S @ Ainv.conj().T + Ainv @ (Pi @ Pi.conj().T) @ Ainv.conj().T
            Pis.append(Pi + 1j * Ainv @ Pi @ j)
            Ss.append((S_next + S_next.conj().T) / 2)
    return np.array(Pis), np.array(Ss)


def loop_generate(params, N):
    """Potentials from ``loop_states``, C_k = I + T_k - T_{k+1} with
    T_k = Pi_k* S_k^{-1} Pi_k, each S_k solved on its own by Cholesky. Its
    rounding error is about eps cond(S_k) ||T_k||; S0 > 0 is assumed."""
    Pis, Ss = loop_states(params, N + 2)
    terms = [Pi.conj().T @ pd_solve(S, Pi) for Pi, S in zip(Pis, Ss)]
    C = [np.eye(params.ctx.m) + terms[k] - terms[k + 1] for k in range(N + 1)]
    return (dz.PotentialSequence(ctx=params.ctx, C=tuple((c + c.conj().T) / 2 for c in C)),
            (Pis, Ss))


def loop_normalized_states(params, count):
    """``pseudoexp._states`` with the identity A_k - A_k* = i Phi_k j Phi_k*
    judged at each step, stopping at the first failure with k set as the
    error's ``index``; the states as an A stack and a Phi stack."""
    j, n, eye = params.ctx.j, params.n, np.eye(params.n)
    L = np.linalg.cholesky(params.S0)
    A, Phi = np.split(np.linalg.solve(L, np.hstack([params.A @ L, params.Pi0])), [n], axis=1)
    As, Phis = [], []
    for k in range(count):
        try:
            check(np.linalg.norm(A - A.conj().T - 1j * Phi @ j @ Phi.conj().T),
                  2 * np.linalg.norm(A) + np.linalg.norm(Phi) ** 2, IdentityViolated,
                  f"step identity residual at k={k}")
        except IdentityViolated as err:
            err.index = k
            raise
        As.append(A)
        Phis.append(Phi)
        Y = np.linalg.solve(A, np.hstack([eye, Phi]))
        M = np.linalg.cholesky(eye + Y @ Y.conj().T)
        A, Phi = np.split(np.linalg.solve(M, np.hstack([A @ M, Phi + 1j * Y[:, n:] @ j])), [n],
                          axis=1)
    return np.array(As), np.array(Phis)
