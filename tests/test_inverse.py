import warnings

import numpy as np
import pytest

import diracszego as dz
from diracszego import inverse, pseudoexp
from diracszego.linalg import norm_stack
from diracszego.errors import (
    AnalyticityViolation,
    DiracSzegoError,
    NotPositiveDefinite,
    RankMismatch,
    ResolventSingular,
    SingularLeadingBlock,
    ToeplitzNotPD,
)
from conftest import (cayley_lambda_of_z, disk_taylor, indefinite_s0_params, loop_rational_taylor,
                      max_block_dev, params_to_realization, random_schur)


class TestStructuredA:
    def test_layout(self):
        A = dz.structured_a(3, 1)
        expect = np.array([
            [0.5j, 0, 0],
            [1j, 0.5j, 0],
            [1j, 1j, 0.5j],
        ])
        assert np.array_equal(A, expect)

    def test_block_layout(self):
        A = dz.structured_a(2, 2)
        assert np.array_equal(A[2:, :2], 1j * np.eye(2))
        assert np.array_equal(A[:2, 2:], np.zeros((2, 2)))


class TestBetaFactors:
    def test_identity_system(self, trivial_system):
        beta = dz.beta_from_potentials(trivial_system)
        ctx = trivial_system.ctx
        for b in beta.beta:
            # each factor reassembles its coefficient and is J-normalized
            C = 2 * ctx.K.conj().T @ (b.conj().T @ b) @ ctx.K - ctx.j
            assert np.linalg.norm(C - np.eye(2)) < 1e-12
            assert np.linalg.norm(b @ ctx.J @ b.conj().T - np.eye(1)) < 1e-12

    def test_reassembles_generated_system(self, ex41_system):
        ctx = ex41_system.ctx
        beta = dz.beta_from_potentials(ex41_system)
        for b, C in zip(beta.beta, ex41_system.C):
            back = 2 * ctx.K.conj().T @ (b.conj().T @ b) @ ctx.K - ctx.j
            assert np.linalg.norm(back - C) < 1e-12

    def test_rejects_full_rank_offset(self, trivial_system):
        C = list(trivial_system.C)
        C[1] = np.diag([3.0, 3.0]).astype(complex)  # (C+j)/2 has rank 2
        broken = dz.PotentialSequence(ctx=trivial_system.ctx, C=tuple(C))
        with pytest.raises(RankMismatch):
            dz.beta_from_potentials(broken)


class TestDirectProblem:
    def test_identity_system_coefficients(self, trivial_system):
        alpha = dz.direct_taylor(trivial_system)
        assert np.allclose(alpha.alpha[0], np.eye(1))
        assert all(np.linalg.norm(a) < 1e-12 for a in alpha.alpha[1:])

    def test_leading_coefficient_closed_family(self, ex41_system):
        alpha = dz.direct_taylor(ex41_system)
        assert abs(alpha.alpha[0][0, 0] - (2 + 1j)) < 1e-10

    def test_matches_disk_extraction(self, ex41_system):
        # V_- recursion vs Moebius-transform sampling of the same system
        alpha = dz.direct_taylor(
            dz.PotentialSequence(ctx=ex41_system.ctx, C=ex41_system.C[:7]))
        pair = dz.MoebiusPair(R=np.zeros((1, 1)), Q=np.eye(1))
        coeffs = disk_taylor(ex41_system, pair, 6)
        assert max_block_dev(alpha.alpha[:7], coeffs) < 1e-10


class TestInverseProblem:
    def test_identity_coefficients_give_identity_system(self):
        alpha = dz.TaylorSequence(p=1, alpha=(np.eye(1),) + (np.zeros((1, 1)),) * 5)
        sys_out = dz.inverse_potentials(alpha)
        assert all(np.linalg.norm(C - np.eye(2)) < 1e-12 for C in sys_out.C)

    def test_round_trip_closed_family(self, ex41_params):
        sys_out, _ = dz.generate(ex41_params, 10)
        back = dz.inverse_potentials(dz.direct_taylor(sys_out))
        assert max_block_dev(sys_out.C, back.C) < 1e-8

    def test_round_trip_block_case(self, rng):
        sys_out = dz.szego_to_dirac(dz.random_szego_sequence(rng, 2, 10))
        back = dz.inverse_potentials(dz.direct_taylor(sys_out))
        assert max_block_dev(sys_out.C, back.C) < 1e-8

    def test_rejects_indefinite_toeplitz(self):
        alpha = dz.TaylorSequence(p=1, alpha=(np.eye(1), 5 * np.eye(1)))
        with pytest.raises(ToeplitzNotPD) as info:
            dz.inverse_potentials(alpha)
        assert info.value.failing_index == 1

    def test_positivity_profile(self, ex41_system):
        mins = dz.toeplitz_positivity(dz.direct_taylor(ex41_system))
        assert all(v > 0 for v in mins)

    def test_singular_leading_block(self):
        ctx = dz.SignatureContext(p=1)
        beta = dz.BetaSequence(ctx=ctx, beta=(
            np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]) / np.sqrt(2)))
        with pytest.raises(SingularLeadingBlock):
            dz.taylor_from_beta(beta)


class TestLongSystems:
    def test_random_szego_block_system(self):
        # ||C_k|| grows geometrically with k, so only gates scaled by the
        # norms of their operands accept this valid system
        sz = dz.random_szego_sequence(np.random.default_rng(3), 2, 200)
        system = dz.szego_to_dirac(sz)
        assert dz.validate(system).passed
        alpha = dz.direct_taylor(system)
        assert alpha.N == 200
        assert all(np.isfinite(a).all() for a in alpha.alpha)


class TestNonFiniteInput:
    @pytest.fixture
    def nan_system(self, ex41_params):
        system, _ = dz.generate(ex41_params, 6)
        C = [c.copy() for c in system.C]
        C[3][0, 1] = np.nan
        return dz.PotentialSequence(ctx=system.ctx, C=tuple(C))

    def test_direct_problem(self, nan_system):
        with pytest.raises(DiracSzegoError):
            dz.direct_taylor(nan_system)

    def test_szego_conversion(self, nan_system):
        with pytest.raises(DiracSzegoError):
            dz.dirac_to_szego(nan_system)

    def test_inverse_problem(self, ex41_system):
        alpha = list(dz.direct_taylor(ex41_system).alpha)
        alpha[3] = np.full((1, 1), np.nan)
        with pytest.raises(DiracSzegoError):
            dz.inverse_potentials(dz.TaylorSequence(p=1, alpha=tuple(alpha)))

    def test_herglotz_map(self):
        with pytest.raises(DiracSzegoError):
            dz.herglotz_map(np.nan)


class TestLyapunovStructure:
    def test_residual_random_symbols(self, rng):
        # pure algebraic identity of the construction: holds for any input
        for _ in range(20):
            p = int(rng.integers(1, 3))
            N = int(rng.integers(1, 7))
            alpha = dz.TaylorSequence(p=p, alpha=tuple(
                rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
                for _ in range(N + 1)))
            assert dz.lyapunov_residual(alpha) < 1e-11

    def test_residual_generated(self, ex41_system):
        assert dz.lyapunov_residual(dz.direct_taylor(ex41_system)) < 1e-11


class TestRationalTaylor:
    def test_matches_recursion_closed_family(self, ex41_params, ex41_system):
        alpha_rt = dz.rational_taylor(ex41_params, 6)
        alpha_rec = dz.direct_taylor(
            dz.PotentialSequence(ctx=ex41_system.ctx, C=ex41_system.C[:7]))
        assert max_block_dev(alpha_rt.alpha, alpha_rec.alpha[:7]) < 1e-10
        assert abs(alpha_rt.alpha[0][0, 0] - (2 + 1j)) < 1e-10

    def test_matches_recursion_random(self, rng):
        for _ in range(3):
            params = dz.random_bdt_parameters(rng, 3, 1, normalized=True)
            sys_out, _ = dz.generate(params, 6)
            alpha_rt = dz.rational_taylor(params, 6)
            alpha_rec = dz.direct_taylor(sys_out)
            assert max_block_dev(alpha_rt.alpha, alpha_rec.alpha) < 1e-7

    @pytest.mark.parametrize("N", [50, 200])
    def test_example41_matches_direct_taylor_at_length(self, ex41_params, N):
        """The sampled blocks lost digits like 0.5^-k (2.2e-2 at N = 50); the
        realization formula holds every block to rounding."""
        sys_out, _ = dz.generate(ex41_params, N)
        want = dz.direct_taylor(sys_out).alpha
        got = dz.rational_taylor(ex41_params, N).alpha
        assert (norm_stack(got - want) / norm_stack(want)).max() < 1e-12

    def test_realization_source(self):
        rz = dz.WeylRealization(ctx=dz.SignatureContext(p=1),
                                theta=np.array([[1.0 + 1j]]),
                                PhiT=np.array([[1.0]]),
                                PsiT=np.array([[1.0]]))
        alpha = dz.rational_taylor(rz, 3)
        assert abs(alpha.alpha[0][0, 0] - (2 + 1j)) < 1e-10
        assert np.allclose(alpha.alpha[1:, 0, 0], [-2j, -2, 2j], rtol=0, atol=1e-14)

    def test_longest_sequence(self, ex41_params):
        """No sample count bounds N. For example41 (1, 1, 1) M = 1 + i and
        T = -i, so alpha_0 = 2 + i and alpha_k = 2 (-i)^k."""
        alpha = dz.rational_taylor(ex41_params, 2000).alpha[:, 0, 0]
        assert abs(alpha[0] - (2 + 1j)) < 1e-15
        assert np.abs(alpha[1:] - 2 * (-1j) ** np.arange(1, 2001)).max() < 1e-11
        assert dz.rational_taylor(ex41_params, 0).alpha.shape == (1, 1, 1)

    @pytest.mark.parametrize("n, p, normalized", [(3, 1, True), (3, 2, True), (4, 2, False),
                                                  (5, 3, False)])
    def test_cayley_factor_is_a_contraction(self, n, p, normalized):
        """T = I - 2i M^{-1}, M = A_x + b c + i I in the normal form (S0 = I),
        has 2-norm at most 1, and M^{-1} too, whatever S0 the draw has: the
        stability argument of the docstring."""
        rng = np.random.default_rng(10 * n + p)
        for _ in range(8):
            params = dz.random_bdt_parameters(rng, n, p, normalized=normalized)
            A_x, c, b = pseudoexp._weyl_state_space(params)
            M_inv = np.linalg.inv(A_x + b @ c + 1j * np.eye(n))
            assert np.linalg.norm(np.eye(n) - 2j * M_inv, 2) <= 1 + 1e-12
            assert np.linalg.norm(M_inv, 2) <= 1 + 1e-12

    def test_rejects_other_sources(self):
        with pytest.raises(TypeError):
            dz.rational_taylor(object(), 3)

    @staticmethod
    def _gate_raising(monkeypatch, error):
        def failing(M, exc, what):
            raise error

        monkeypatch.setattr(inverse, "check_cond", failing)

    def test_pole_is_analyticity_violation(self, ex41_params, monkeypatch):
        for error in (ResolventSingular("pole"), np.linalg.LinAlgError("singular")):
            self._gate_raising(monkeypatch, error)
            with pytest.raises(AnalyticityViolation):
                dz.rational_taylor(ex41_params, 3)

    def test_programming_error_propagates(self, ex41_params, monkeypatch):
        self._gate_raising(monkeypatch, KeyError("M"))
        with pytest.raises(KeyError):
            dz.rational_taylor(ex41_params, 3)

    def test_gate_failure_is_chained(self, ex41_params, monkeypatch):
        error = ResolventSingular("pole")
        self._gate_raising(monkeypatch, error)
        with pytest.raises(AnalyticityViolation, match="no Taylor expansion at z = 0: pole$"
                           ) as caught:
            dz.rational_taylor(ex41_params, 3)
        assert caught.value.__cause__ is error

    def test_indefinite_s0_is_chained(self, rng):
        params = indefinite_s0_params(rng)
        with pytest.raises(AnalyticityViolation, match="requires S0 > 0") as caught:
            dz.rational_taylor(params, 3)
        assert isinstance(caught.value.__cause__, NotPositiveDefinite)

    def test_non_finite_block(self, ex41_params, monkeypatch):
        """Blocks past the floating-point range raise, naming the first, with
        no RuntimeWarning. A valid source keeps T a contraction, so the test
        hands the loop an inverse scaled by 1e300: alpha_0 stays finite,
        alpha_1 does not."""
        monkeypatch.setattr(inverse, "check_cond", lambda M, exc, what: 1e300 * np.linalg.inv(M))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnalyticityViolation, match=r"^Taylor block alpha_1 is not finite$"):
                dz.rational_taylor(ex41_params, 3)


class TestRationalTaylorMatchesSampleLoop:
    """The realization formula against the sampling oracle of conftest (512
    points on |z| = 0.5 and an FFT), which loses about 0.5^-k of relative
    accuracy in block k: at N = 12 they agree to rounding times 2^12."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_random_parameters(self, p):
        rng = np.random.default_rng(p)
        for normalized in (True, True, True, False):
            params = dz.random_bdt_parameters(rng, 3, p, normalized=normalized)
            assert max_block_dev(dz.rational_taylor(params, 12).alpha,
                                 loop_rational_taylor(params, 12).alpha) < 1e-9

    def test_example41(self, ex41_params):
        assert max_block_dev(dz.rational_taylor(ex41_params, 12).alpha,
                             loop_rational_taylor(ex41_params, 12).alpha) < 1e-9

    def test_realization(self):
        rng = np.random.default_rng(7)
        params = dz.random_bdt_parameters(rng, 3, 2, normalized=True)
        rz = params_to_realization(params)
        assert max_block_dev(dz.rational_taylor(rz, 12).alpha,
                             loop_rational_taylor(rz, 12).alpha) < 1e-9
        assert max_block_dev(dz.rational_taylor(rz, 12).alpha,
                             dz.rational_taylor(params, 12).alpha) < 1e-12


class TestStackedSolveRightHandSide:
    """NumPy 1.x reads the b of ``numpy.linalg.solve(a, b)`` as a stack of
    vectors when b.ndim == a.ndim - 1, NumPy 2 only when b.ndim == 1. The
    batched Weyl-function path makes no stacked solve: each (M - lambda I)^{-1} B
    is the gate's inverse times B, one (s, n, n) @ (n, q) product that
    broadcasts B alike under both rules, and any solve it makes passes an
    unambiguous b."""

    LAMS = cayley_lambda_of_z(0.5 * np.exp(2j * np.pi * np.arange(512) / 512))

    @pytest.fixture
    def unambiguous_solve(self, monkeypatch):
        solve = np.linalg.solve
        shapes = []

        def checked(a, b):
            shapes.append((np.shape(a), np.shape(b)))
            assert (np.ndim(b) == 1) == (np.ndim(b) == np.ndim(a) - 1), shapes[-1]
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", checked)
        return shapes

    def assert_broadcast_product(self, M, B):
        got = pseudoexp._resolvent_solve(M, self.LAMS, B, "M", "test")
        assert got.shape == (len(self.LAMS),) + B.shape
        inv = np.linalg.inv(M - self.LAMS[:, None, None] * np.eye(len(M)))
        assert np.array_equal(got, inv @ B)
        assert all(np.array_equal(got[i], inv[i] @ B) for i in (0, len(self.LAMS) // 2, -1))

    @pytest.mark.parametrize("n, p", [(1, 1), (3, 1), (3, 2)])
    def test_parameters_source(self, n, p, unambiguous_solve):
        params = dz.random_bdt_parameters(np.random.default_rng(n + p), n, p, normalized=True)
        dz.herglotz_map(dz.explicit_weyl(params, self.LAMS))
        assert not [a for a, _ in unambiguous_solve if a[:1] == (512,)]
        self.assert_broadcast_product(params.A, params.Pi0[:, p:])

    def test_realization_source(self, unambiguous_solve):
        rz = dz.WeylRealization(ctx=dz.SignatureContext(p=1), theta=np.array([[1.0 + 1j]]),
                                PhiT=np.array([[1.0]]), PsiT=np.array([[1.0]]))
        dz.herglotz_map(rz.value(self.LAMS))
        assert not [a for a, _ in unambiguous_solve if a[:1] == (512,)]
        self.assert_broadcast_product(rz.theta, rz.PsiT)


class TestRationalTaylorCallCount:
    """``rational_taylor`` evaluates no Weyl function and runs no FFT, SVD or
    condition number, so that a return to sampling fails without timing
    anything."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = dict.fromkeys(("explicit_weyl", "value", "herglotz_map", "_resolvent_solve",
                               "fft", "min_eig", "cond", "svd"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # at every module-global name through which the library could call them
        for name in ("explicit_weyl", "herglotz_map", "_resolvent_solve"):
            for module in (inverse, pseudoexp, dz.system):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(pseudoexp, "min_eig", counted("min_eig", pseudoexp.min_eig))
        monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
        for name in ("cond", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(dz.WeylRealization, "value",
                            counted("value", dz.WeylRealization.value))
        return calls

    def test_parameters_source(self, rng, counts):
        params = dz.random_bdt_parameters(rng, 3, 2, normalized=True)
        counts.update(dict.fromkeys(counts, 0))     # the draw runs an SVD of its own
        dz.rational_taylor(params, 12)
        assert counts == dict.fromkeys(counts, 0) | {"min_eig": 1}    # S0 > 0

    def test_realization_source(self, counts):
        rz = dz.WeylRealization(ctx=dz.SignatureContext(p=1), theta=np.array([[1.0 + 1j]]),
                                PhiT=np.array([[1.0]]), PsiT=np.array([[1.0]]))
        counts.update(dict.fromkeys(counts, 0))
        dz.rational_taylor(rz, 3)
        assert counts == dict.fromkeys(counts, 0)


class TestBorgMarchenko:
    def test_shared_prefix_detected(self, rng):
        base = dz.szego_to_dirac(dz.schur_to_R(random_schur(rng, 15)))
        alt = dz.szego_to_dirac(dz.schur_to_R(random_schur(rng, 15)))
        mix = dz.PotentialSequence(ctx=base.ctx, C=np.concatenate([base.C[:13], alt.C[13:]]))
        agree, dev, first = dz.borg_marchenko_check(base, mix, 12)
        assert agree and dev < 1e-8 and first is None
        agree, dev, first = dz.borg_marchenko_check(base, mix, 15)
        assert not agree and first == 13

    def test_range_check(self, trivial_system, ex41_system):
        with pytest.raises(ValueError):
            dz.borg_marchenko_check(trivial_system, ex41_system, 50)
