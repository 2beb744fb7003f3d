import numpy as np
import pytest

import diracszego as dz
from diracszego.errors import (
    AnalyticityViolation,
    DiracSzegoError,
    RankMismatch,
    ResolventSingular,
    SingularLeadingBlock,
    ToeplitzNotPD,
)
from conftest import disk_taylor, max_block_dev, random_schur


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
        alpha_fft = dz.rational_taylor(ex41_params, 6)
        alpha_rec = dz.direct_taylor(
            dz.PotentialSequence(ctx=ex41_system.ctx, C=ex41_system.C[:7]))
        assert max_block_dev(alpha_fft.alpha, alpha_rec.alpha[:7]) < 1e-10
        assert abs(alpha_fft.alpha[0][0, 0] - (2 + 1j)) < 1e-10

    def test_matches_recursion_random(self, rng):
        for _ in range(3):
            params = dz.random_bdt_parameters(rng, 3, 1, normalized=True)
            sys_out, _ = dz.generate(params, 6)
            alpha_fft = dz.rational_taylor(params, 6)
            alpha_rec = dz.direct_taylor(sys_out)
            assert max_block_dev(alpha_fft.alpha, alpha_rec.alpha) < 1e-7

    def test_realization_source(self):
        rz = dz.WeylRealization(ctx=dz.SignatureContext(p=1),
                                theta=np.array([[1.0 + 1j]]),
                                PhiT=np.array([[1.0]]),
                                PsiT=np.array([[1.0]]))
        alpha = dz.rational_taylor(rz, 3)
        assert abs(alpha.alpha[0][0, 0] - (2 + 1j)) < 1e-10
        assert hasattr(alpha, "truncation_estimate")
        assert isinstance(alpha.truncation_estimate, float)

    @staticmethod
    def _realization_raising(error):
        class Failing(dz.WeylRealization):
            def value(self, lam):
                raise error

        return Failing(ctx=dz.SignatureContext(p=1), theta=np.array([[1.0 + 1j]]),
                       PhiT=np.array([[1.0]]), PsiT=np.array([[1.0]]))

    def test_pole_is_analyticity_violation(self):
        for error in (ResolventSingular("pole"), np.linalg.LinAlgError("singular")):
            with pytest.raises(AnalyticityViolation):
                dz.rational_taylor(self._realization_raising(error), 3)

    def test_programming_error_propagates(self):
        with pytest.raises(KeyError):
            dz.rational_taylor(self._realization_raising(KeyError("lam")), 3)

    def test_rejects_other_sources(self):
        with pytest.raises(TypeError):
            dz.rational_taylor(object(), 3)


class TestBorgMarchenko:
    def test_shared_prefix_detected(self, rng):
        base = dz.szego_to_dirac(dz.schur_to_R(random_schur(rng, 15)))
        alt = dz.szego_to_dirac(dz.schur_to_R(random_schur(rng, 15)))
        mix = dz.PotentialSequence(ctx=base.ctx, C=base.C[:13] + alt.C[13:])
        agree, dev, first = dz.borg_marchenko_check(base, mix, 12)
        assert agree and dev < 1e-8 and first is None
        agree, dev, first = dz.borg_marchenko_check(base, mix, 15)
        assert not agree and first == 13

    def test_range_check(self, trivial_system, ex41_system):
        with pytest.raises(ValueError):
            dz.borg_marchenko_check(trivial_system, ex41_system, 50)
