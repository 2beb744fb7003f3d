"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest
import scipy.linalg

import diracszego as dz
from diracszego.errors import AnalyticityViolation, DiracSzegoError


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


def disk_taylor(sys, pair, N, radius=0.5, samples=256):
    """Taylor blocks of i * phi(lambda(z)) on |z| = radius for the disk
    Weyl function produced by ``pair``."""
    p = sys.ctx.p
    vals = np.empty((samples, p, p), dtype=complex)
    for m in range(samples):
        z = radius * np.exp(2j * np.pi * m / samples)
        lam = dz.cayley_lambda_of_z(z)
        vals[m] = 1j * dz.weyl_disk_eval(sys, pair, lam)
    spectrum = np.fft.fft(vals, axis=0) / samples
    return [spectrum[k] / radius**k for k in range(N + 1)]


def loop_rational_taylor(source, N, radius=0.5, samples=512):
    """``rational_taylor`` one sample at a time: a scalar Weyl-function call,
    ``herglotz_map`` and finiteness check per point of the circle. The library
    evaluates all samples in one batched pass; this loop is kept only as the
    reference the equivalence tests compare against."""
    p = source.ctx.p
    if isinstance(source, dz.BdtParameters):
        phi_i = lambda lam: dz.explicit_weyl(source, lam)
    else:
        phi_i = source.value
    vals = np.empty((samples, p, p), dtype=complex)
    for mth in range(samples):
        z = radius * np.exp(2j * np.pi * mth / samples)
        lam = dz.cayley_lambda_of_z(z)
        try:
            f = 1j * dz.herglotz_map(phi_i(lam))
        except (DiracSzegoError, np.linalg.LinAlgError) as exc:
            raise AnalyticityViolation(
                f"Weyl function could not be evaluated at sample z={z}: {exc}") from exc
        if not np.all(np.isfinite(f)):
            raise AnalyticityViolation(f"pole detected on the sample circle at z={z}")
        vals[mth] = f
    spectrum = np.fft.fft(vals, axis=0) / samples
    alpha = [spectrum[k] / radius**k for k in range(N + 1)]
    tail = np.linalg.norm(spectrum[N + 1] / radius ** (N + 1)) * radius
    return dz.TaylorSequence(p=p, alpha=tuple(alpha), truncation_estimate=float(tail))


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


def dense_inverse_potentials(alpha):
    """Inverse problem with two Cholesky solves against each assembled S(r)."""
    ctx = dz.SignatureContext(p=alpha.p)
    p, K, j = alpha.p, ctx.K, ctx.j
    C = []
    for r in range(alpha.N + 1):
        S = dense_block_toeplitz(alpha.alpha[: r + 1])
        factor = scipy.linalg.cho_factor(S, lower=True)
        Pi = dz.inverse.taylor_pi(alpha, r)
        last = slice(r * p, (r + 1) * p)
        core = scipy.linalg.cho_solve(factor, Pi)[last, :]
        unit = np.zeros(((r + 1) * p, p), dtype=complex)
        unit[last] = np.eye(p)
        small = scipy.linalg.cho_solve(factor, unit)[last, :]
        G = core.conj().T @ np.linalg.solve(small, core)
        Cr = 2 * K.conj().T @ G @ K - j
        C.append((Cr + Cr.conj().T) / 2)
    return C
