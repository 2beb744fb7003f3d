import warnings

import numpy as np
import pytest

import diracszego as dz
from diracszego.errors import NotPositiveDefinite, RankMismatch
from diracszego.linalg import check_cond, check_cond_stack, min_eig, min_eig_stack, norm_stack
from diracszego.policy import DEFAULT_POLICY, check_stack, failure, passes
from conftest import rank_p_factor


def random_hpd(rng, n, shift=0.5):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return M @ M.conj().T + shift * np.eye(n)


class TestSignatureContext:
    def test_signature_matrices(self):
        for p in (1, 2, 3):
            ctx = dz.SignatureContext(p=p)
            assert ctx.m == 2 * p
            assert np.array_equal(ctx.j @ ctx.j, np.eye(2 * p))
            assert np.array_equal(ctx.J @ ctx.J, np.eye(2 * p))
            # K is unitary and rotates j onto J
            assert np.allclose(ctx.K @ ctx.K.conj().T, np.eye(2 * p), atol=1e-15)
            assert np.allclose(ctx.K @ ctx.j @ ctx.K.conj().T, ctx.J, atol=1e-15)

    def test_rejects_nonpositive_block_size(self):
        with pytest.raises(ValueError):
            dz.SignatureContext(p=0)


class TestRankPFactor:
    def test_recovers_gram_matrix(self, rng):
        for p in (1, 2):
            b = rng.standard_normal((p, 2 * p)) + 1j * rng.standard_normal((p, 2 * p))
            G = b.conj().T @ b
            f = rank_p_factor(G, p)
            assert f.shape == (p, 2 * p)
            assert np.linalg.norm(f.conj().T @ f - G) < 1e-12 * np.linalg.norm(G)

    def test_deterministic_phase(self, rng):
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        G = b.conj().T @ b
        f1 = rank_p_factor(G, 2)
        f2 = rank_p_factor(G.copy(), 2)
        assert np.array_equal(f1, f2)

    def test_rejects_wrong_rank(self):
        with pytest.raises(RankMismatch):
            rank_p_factor(np.eye(4), 2)  # rank 4, not 2
        with pytest.raises(RankMismatch):
            rank_p_factor(np.diag([1.0, 0, 0, 0]), 2)  # rank 1

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveDefinite):
            rank_p_factor(np.diag([1.0, 1.0, -0.5, 0.0]), 2)


    def test_stack_gives_the_bits_of_each_matrix(self, rng):
        for p in (1, 2, 3):
            b = rng.standard_normal((5, p, 2 * p)) + 1j * rng.standard_normal((5, p, 2 * p))
            G = b.conj().transpose(0, 2, 1) @ b
            f = rank_p_factor(G, p)
            assert f.shape == (5, p, 2 * p)
            assert all(np.array_equal(f[i], rank_p_factor(G[i], p)) for i in range(5))

    def test_stack_raises_as_its_first_failing_matrix(self, rng):
        b = rng.standard_normal((4, 2, 4)) + 1j * rng.standard_normal((4, 2, 4))
        G = b.conj().transpose(0, 2, 1) @ b
        G[1] = np.diag([1.0, 1.0, 1.0, 0.0])          # rank 3
        G[3] = np.diag([1.0, 1.0, -0.5, 0.0])         # indefinite
        with pytest.raises(RankMismatch) as alone:
            rank_p_factor(G[1], 2)
        with pytest.raises(RankMismatch) as stacked:
            rank_p_factor(G, 2)
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(NotPositiveDefinite):
            rank_p_factor(G[2:], 2)


class TestStackHelpers:
    def test_norm_stack_has_the_bits_of_numpy_norm(self, rng):
        for shape in ((7, 2, 2), (3, 4, 4, 4), (5, 2, 6)):
            M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            M *= 10.0 ** rng.uniform(-5, 5, shape[:-2] + (1, 1))
            got = norm_stack(M)
            assert got.shape == shape[:-2]
            ref = np.array([np.linalg.norm(A) for A in M.reshape((-1,) + shape[-2:])])
            assert np.array_equal(got.ravel(), ref)
            real = np.ascontiguousarray(M.real)
            assert np.array_equal(norm_stack(real).ravel(),
                                  [np.linalg.norm(A) for A in real.reshape(ref.size, *shape[-2:])])

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_norm_stack_is_finite_past_the_square_of_the_range(self, rng, dtype):
        """Entries up to 1e300 give the norm of the matrix scaled by 2^-e,
        2^e above its largest real or imaginary part, times 2^e: finite, with
        no RuntimeWarning."""
        M = rng.standard_normal((6, 3, 4)).astype(dtype)
        if dtype is complex:
            M += 1j * rng.standard_normal(M.shape)
        M *= 10.0 ** rng.uniform(150, 300, (6, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = norm_stack(M)
            alone = norm_stack(M[0])
        e = np.frexp(np.abs(M.view(float)).max(axis=(1, 2)))[1]
        ref = [np.ldexp(np.linalg.norm(A * np.ldexp(1.0, -k)), k) for A, k in zip(M, e)]
        assert np.isfinite(got).all() and np.array_equal(got, ref) and alone == ref[0]

    def test_norm_stack_keeps_nan_and_inf(self, rng):
        M = 1e300 * (rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2)))
        M[0, 0, 0] = np.nan
        M[1, 1, 0] = np.inf
        M[2, 0, 1] = complex(1.0, np.nan)
        M[3, 1, 1] = complex(-np.inf, 1.0)
        M[4, 0, 0] = complex(np.inf, np.nan)
        got = norm_stack(M)
        assert np.isnan(got[[0, 2, 4]]).all() and np.array_equal(got[[1, 3]], [np.inf, np.inf])
        assert np.isnan(norm_stack(M[0])) and norm_stack(M[1]) == np.inf
        assert norm_stack(M.real)[1] == np.inf

    def test_min_eig_stack_has_the_bits_of_min_eig(self, rng):
        M = np.stack([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                      for _ in range(6)]).reshape(2, 3, 3, 3)
        got = min_eig_stack(M)
        assert got.shape == (2, 3)
        assert np.array_equal(got, [[min_eig(A) for A in row] for row in M])

    def test_non_finite_matrix_reads_nan(self, rng):
        stack = np.stack([random_hpd(rng, 2) for _ in range(4)])
        stack[1, 0, 0] = np.nan      # eigvalsh would return a finite number here
        stack[2, 0, 1] = np.inf
        got = min_eig_stack(stack)
        assert np.isnan(got[1:3]).all() and np.isfinite(got[[0, 3]]).all()
        assert np.isnan(min_eig(stack[1])) and np.isnan(min_eig(stack[2]))

    def test_failed_eigvalsh_reads_nan_for_that_matrix_only(self, rng, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def fails_on_marked(x, *args, **kwargs):
            if (np.asarray(x)[..., 0, 0] == 7.0).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", fails_on_marked)
        stack = np.stack([random_hpd(rng, 2) for _ in range(3)])
        stack[1, 0, 0] = 7.0
        got = min_eig_stack(stack)
        assert np.isnan(got[1]) and np.isfinite(got[[0, 2]]).all()

    def test_check_stack_names_first_index_then_first_gate(self):
        a = np.array([0.0, 0.0, 5.0, 5.0])
        b = np.array([0.0, 5.0, 5.0, 0.0])
        gates = [(a, 1.0, ValueError, lambda i: f"a at {i}", 1.0),
                 (b, np.ones(4), KeyError, lambda i: f"b at {i}", 1.0)]
        with pytest.raises(KeyError, match="b at 1 is 5.000e"):
            check_stack(gates)
        with pytest.raises(ValueError, match="a at 0 is 5.000e"):
            check_stack([(a[2:], 1.0, ValueError, lambda i: f"a at {i}", 1.0),
                         (b[2:], 1.0, KeyError, lambda i: f"b at {i}", 1.0)])
        check_stack([(a[:2], 1.0, ValueError, lambda i: f"a at {i}", 1.0)])
        check_stack([(np.zeros(0), 1.0, ValueError, str, 1.0)])


class TestBlockToeplitz:
    def test_scalar_structure(self):
        S = dz.block_toeplitz([np.array([[2.0 + 1j]]), np.array([[0.5j]]),
                               np.array([[0.1]])])
        expect = np.array([
            [4.0, -0.5j, 0.1],
            [0.5j, 4.0, -0.5j],
            [0.1, 0.5j, 4.0],
        ], dtype=complex)
        assert np.allclose(S, expect, atol=1e-15)

    def test_hermitian(self, rng):
        alpha = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                 for _ in range(4)]
        S = dz.block_toeplitz(alpha)
        assert np.linalg.norm(S - S.conj().T) == 0.0

    def test_constant_block_diagonals(self, rng):
        p = 2
        alpha = [rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
                 for _ in range(5)]
        S = dz.block_toeplitz(alpha)
        for k in range(4):
            a = S[k * p:(k + 1) * p, (k + 1) * p:(k + 2) * p]
            b = S[(k + 1) * p:(k + 2) * p, (k + 2) * p:(k + 3) * p] if k < 3 else None
            if b is not None:
                assert np.array_equal(a, b)


class TestSolvers:
    def test_pd_solve_matches_dense(self, rng):
        S = random_hpd(rng, 6)
        B = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        X = dz.pd_solve(S, B)
        assert np.linalg.norm(S @ X - B) < 1e-12 * np.linalg.norm(B)

    def test_pd_solve_rejects_indefinite(self, rng):
        with pytest.raises(NotPositiveDefinite):
            dz.pd_solve(np.diag([1.0, -1.0]), np.ones((2, 1)))

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_pd_solve_matches_general_solve(self, rng, n):
        S = random_hpd(rng, n)
        B = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        expect = np.linalg.solve(S, B)
        assert np.linalg.norm(dz.pd_solve(S, B) - expect) < 1e-12 * np.linalg.norm(expect)

    def test_pd_solve_vector_rhs(self, rng):
        S = random_hpd(rng, 4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = dz.pd_solve(S, b)
        assert x.shape == (4,)
        assert np.linalg.norm(S @ x - b) < 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("S", [
        np.array([[1.0, 1j], [-1j, 1.0]]),             # singular PSD: eigenvalues 0 and 2
        np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 1.0]]),  # indefinite Hermitian
        np.array([[1.0, np.nan], [np.nan, 1.0]]),      # LAPACK factors NaN without an error
    ], ids=["singular", "indefinite", "nan"])
    def test_pd_solve_rejects_non_pd(self, S):
        with pytest.raises(NotPositiveDefinite):
            dz.pd_solve(S, np.ones((2, 1)))

    def test_levinson_matches_pd_solve(self, rng):
        for p, n in ((1, 8), (2, 6)):
            # Hermitian PD Toeplitz symbol: diagonally dominant alpha_0
            alpha = [np.eye(p) * (2.0 + 0.5j)]
            alpha += [0.2 * (rng.standard_normal((p, p))
                             + 1j * rng.standard_normal((p, p)))
                      for _ in range(n - 1)]
            S = dz.block_toeplitz(alpha)
            assert dz.linalg.min_eig(S) > 0
            B = rng.standard_normal((n * p, 3)) + 1j * rng.standard_normal((n * p, 3))
            x_dense = dz.pd_solve(S, B)
            x_lev = dz.block_levinson_solve(alpha, B)
            assert np.linalg.norm(x_dense - x_lev) < 1e-9 * np.linalg.norm(x_dense)

    def test_levinson_vector_rhs(self, rng):
        alpha = [np.array([[3.0]]), np.array([[0.4 - 0.1j]]), np.array([[0.2j]])]
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = dz.block_levinson_solve(alpha, b)
        assert np.linalg.norm(dz.block_toeplitz(alpha) @ x - b[:, None]) < 1e-12


@pytest.fixture
def svd_stacks(monkeypatch):
    """Matrix counts of the stacks handed to ``numpy.linalg.cond``, one
    entry per (batched) SVD."""
    sizes = []
    cond = np.linalg.cond

    def counted(x, *args, **kwargs):
        sizes.append(int(np.prod(np.shape(x)[:-2])))
        return cond(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted)
    return sizes


class TestCheckCond:
    def test_certified_matrix_costs_no_svd(self, rng, svd_stacks):
        M = random_hpd(rng, 3)
        assert np.array_equal(check_cond(M, ValueError, "M"), np.linalg.inv(M))
        assert svd_stacks == []
        with pytest.raises(ValueError, match=r"^condition number of M is inf"):
            check_cond(np.zeros((2, 2)), ValueError, "M")
        assert svd_stacks == [1]

    def test_stack_svd_covers_the_undecided_finite_matrices(self, rng, svd_stacks):
        stack = np.stack([random_hpd(rng, 2) for _ in range(5)])
        check_cond_stack(stack, ValueError, lambda i: f"matrix {i}")
        assert svd_stacks == []
        stack[1, 0, 0] = np.nan
        stack[4] = np.diag([1.0, 0.5 / DEFAULT_POLICY.cond_limit])   # near the limit
        with pytest.raises(ValueError, match=r"^condition number of matrix 1 is nan"):
            check_cond_stack(stack, ValueError, lambda i: f"matrix {i}")
        assert svd_stacks == [1]
        # an exactly singular matrix fails the batched inverse: every finite
        # matrix goes to the SVD
        stack[4] = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ValueError, match=r"^condition number of matrix 1 is nan"):
            check_cond_stack(stack, ValueError, lambda i: f"matrix {i}")
        assert svd_stacks == [1, 4]

    def test_first_failure_in_stack_order_is_named(self, rng):
        stack = np.stack([random_hpd(rng, 2) for _ in range(4)])
        stack[2] = [[1.0, 1.0], [1.0, 1.0]]
        stack[3, 1, 1] = np.inf
        with pytest.raises(ValueError, match=r"^condition number of matrix 2 is inf"):
            check_cond_stack(stack, ValueError, lambda i: f"matrix {i}")
        check_cond_stack(stack[:2], ValueError, lambda i: f"matrix {i}")

    def test_failed_svd_names_the_failing_matrix(self, rng, monkeypatch):
        """A LinAlgError from the batched SVD is resolved matrix by matrix, so
        the matrix whose SVD fails is named, not the first of the stack. The
        marked matrix has cond = cond_limit / 2, which the certificate leaves
        to the SVD."""
        cond = np.linalg.cond

        def fails_on_marked(x, *args, **kwargs):
            if (np.asarray(x)[..., 0, 0] == 7.0).any():
                raise np.linalg.LinAlgError("SVD did not converge")
            return cond(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", fails_on_marked)
        stack = np.stack([random_hpd(rng, 2) for _ in range(4)])
        stack[2] = np.diag([7.0, 14.0 / DEFAULT_POLICY.cond_limit])
        with pytest.raises(ValueError, match=r"^condition number of matrix 2 is nan"):
            check_cond_stack(stack, ValueError, lambda i: f"matrix {i}")
        with pytest.raises(ValueError, match=r"^condition number of M is nan"):
            check_cond(stack[2], ValueError, "M")

    def test_gate_is_the_policy_rule(self):
        """The stack verdict and the raised line both come from ``passes``."""
        limit = DEFAULT_POLICY.cond_limit
        values = np.array([1.0, limit, np.nextafter(limit, np.inf), np.nan, np.inf])
        assert passes(values, 1.0, limit).tolist() == [True, True, False, False, False]
        assert [failure(v, 1.0, "x", limit) is None for v in values] == [True, True, False, False, False]

    def test_passing_stack_returns_its_inverses(self, rng):
        stack = np.stack([random_hpd(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
        inv = check_cond_stack(stack, ValueError, lambda i: f"matrix {i}")
        assert inv.shape == stack.shape
        assert np.array_equal(inv, np.linalg.inv(stack))

    def test_non_finite_reads_as_numpy_cond(self):
        with pytest.raises(ValueError, match=r"is inf"):
            check_cond(np.array([[np.inf, 0.0], [0.0, 1.0]]), ValueError, "M")
        with pytest.raises(ValueError, match=r"is nan"):
            check_cond(np.array([[np.nan]]), ValueError, "M")


def with_cond(rng, n, cond):
    """U diag(1, ..., 1/cond) V* for random unitary U and V."""
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return (U * np.geomspace(1.0, 1.0 / cond, n)) @ V.conj().T


def exact_gate(M, exc, name):
    """The gate judged by ``cond_stack`` alone, one SVD per matrix."""
    check_stack([(dz.linalg.cond_stack(M), 1.0, exc, lambda i: f"condition number of {name(i)}",
                  DEFAULT_POLICY.cond_limit)])


def outcome(gate, M):
    """What ``gate`` raises on M, as (type, message, index, measured, allowed)
    with the two numbers in hex, so that NaN compares equal; None when it
    passes."""
    try:
        gate(M, ValueError, lambda i: f"matrix {i}")
    except ValueError as err:
        return type(err), str(err), err.index, err.measured.hex(), err.allowed.hex()
    return None


class TestCondThreshold:
    """The inverse certificate of ``check_cond_stack`` against the exact SVD
    gate, with one matrix of each stack at cond = cond_limit (1 +- 10^-k)
    among well-conditioned, non-finite and exactly singular ones."""

    @staticmethod
    def stack(rng, n, cond, mix):
        members = [with_cond(rng, n, 10.0), with_cond(rng, n, cond), with_cond(rng, n, 1e3)]
        if mix in ("non-finite", "singular"):
            members += [np.full((n, n), np.nan), np.diag(np.full(n, np.inf))]
        if mix == "singular":
            members.append(np.ones((n, n)))
        return np.stack(members).astype(complex)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("side", [1, -1])
    @pytest.mark.parametrize("mix", ["clean", "non-finite", "singular"])
    def test_verdict_matches_exact_gate(self, rng, svd_stacks, n, k, side, mix):
        M = self.stack(rng, n, DEFAULT_POLICY.cond_limit * (1 + side * 10.0 ** -k), mix)
        want = outcome(exact_gate, M)
        svd_stacks.clear()
        assert outcome(check_cond_stack, M) == want
        if k <= 2:
            assert (want is None) == (side < 0 and mix == "clean")
        finite = int(np.isfinite(M).all(axis=(1, 2)).sum())
        # only the matrix near the limit is left undecided, unless the
        # singular member fails the batched inverse
        assert svd_stacks == [finite if mix == "singular" else 1]

    def test_certified_stack_returns_exact_inverses(self, rng, svd_stacks):
        conds = (1.0, 1e3, 1e8, DEFAULT_POLICY.cond_limit / 12)
        M = np.stack([with_cond(rng, 3, c) for c in conds])
        assert np.array_equal(check_cond_stack(M, ValueError, str), np.linalg.inv(M))
        assert svd_stacks == []

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_failed_inverse_takes_the_exact_path(self, rng, svd_stacks, monkeypatch, k):
        def fails(a):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "inv", fails)
        for side in (1, -1):
            M = self.stack(rng, 3, DEFAULT_POLICY.cond_limit * (1 + side * 10.0 ** -k), "clean")
            want = outcome(exact_gate, M)
            svd_stacks.clear()
            if want is None:
                # the gate passes, and the inverses it cannot return raise
                with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                    check_cond_stack(M, ValueError, str)
            else:
                assert outcome(check_cond_stack, M) == want
            assert svd_stacks == [len(M)]
