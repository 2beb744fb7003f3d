import numpy as np
import pytest

import diracszego as dz
from diracszego import inverse, pseudoexp
from diracszego.errors import (
    AnalyticityViolation,
    DiracSzegoError,
    PoleAtInput,
    RankMismatch,
    ResolventSingular,
    SingularLeadingBlock,
    ToeplitzNotPD,
)
from conftest import disk_taylor, loop_rational_taylor, max_block_dev, random_schur


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

    @pytest.mark.parametrize("N, samples", [(511, 512), (600, 512), (15, 16)])
    def test_rejects_n_beyond_the_samples(self, ex41_params, N, samples):
        with pytest.raises(ValueError, match=rf"^N must be below samples - 1 = {samples - 1}; "
                           rf"got N = {N}$"):
            dz.rational_taylor(ex41_params, N, samples=samples)

    def test_longest_sequence_the_samples_give(self, ex41_params):
        alpha = dz.rational_taylor(ex41_params, 14, samples=16)
        assert alpha.N == 14 and np.isfinite(alpha.truncation_estimate)

    def test_gate_failure_is_chained(self):
        error = ResolventSingular("pole")
        with pytest.raises(AnalyticityViolation) as caught:
            dz.rational_taylor(self._realization_raising(error), 3)
        assert caught.value.__cause__ is error

    def test_sample_on_cayley_pole(self, ex41_params):
        # radius 1 puts the first sample on z = 1, the pole of lambda(z)
        with pytest.raises(PoleAtInput):
            dz.rational_taylor(ex41_params, 3, radius=1.0)


def assert_same_taylor(got, want):
    assert len(got.alpha) == len(want.alpha)
    assert all(np.array_equal(a, b) for a, b in zip(got.alpha, want.alpha))
    assert got.truncation_estimate == want.truncation_estimate


class TestRationalTaylorMatchesSampleLoop:
    """The batched pass is bit for bit the per-sample loop of conftest."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_random_parameters(self, p):
        rng = np.random.default_rng(p)
        for _ in range(4):
            params = dz.random_bdt_parameters(rng, 3, p, normalized=True)
            assert_same_taylor(dz.rational_taylor(params, 12), loop_rational_taylor(params, 12))

    def test_example41(self, ex41_params):
        assert_same_taylor(dz.rational_taylor(ex41_params, 6), loop_rational_taylor(ex41_params, 6))

    def test_realization(self):
        rz = dz.WeylRealization(ctx=dz.SignatureContext(p=1), theta=np.array([[1.0 + 1j]]),
                                PhiT=np.array([[1.0]]), PsiT=np.array([[1.0]]))
        assert_same_taylor(dz.rational_taylor(rz, 3), loop_rational_taylor(rz, 3))

    def test_other_radius_and_sample_count(self, rng):
        params = dz.random_bdt_parameters(rng, 3, 2, normalized=True)
        assert_same_taylor(dz.rational_taylor(params, 5, radius=0.3, samples=300),
                           loop_rational_taylor(params, 5, radius=0.3, samples=300))


class TestStackedSolveRightHandSide:
    """NumPy 1.x reads the b of ``numpy.linalg.solve(a, b)`` as a stack of
    vectors when b.ndim == a.ndim - 1, NumPy 2 only when b.ndim == 1. The
    batched path makes no stacked solve: each (M - lambda I)^{-1} B is the
    gate's inverse times B, one (s, n, n) @ (n, q) product that broadcasts B
    alike under both rules, and any solve it makes passes an unambiguous b."""

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

    @staticmethod
    def assert_broadcast_product(M, B):
        lams = dz.cayley_lambda_of_z(0.5 * np.exp(2j * np.pi * np.arange(512) / 512))
        got = pseudoexp._resolvent_solve(M, lams, B, "M", "test")
        assert got.shape == (len(lams),) + B.shape
        inv = np.linalg.inv(M - lams[:, None, None] * np.eye(len(M)))
        assert np.array_equal(got, inv @ B)
        assert all(np.array_equal(got[i], inv[i] @ B) for i in (0, len(lams) // 2, -1))

    @pytest.mark.parametrize("n, p", [(1, 1), (3, 1), (3, 2)])
    def test_parameters_source(self, n, p, unambiguous_solve):
        params = dz.random_bdt_parameters(np.random.default_rng(n + p), n, p, normalized=True)
        dz.rational_taylor(params, 4)
        assert not [a for a, _ in unambiguous_solve if a[:1] == (512,)]
        self.assert_broadcast_product(params.A, params.Psi)

    def test_realization_source(self, unambiguous_solve):
        rz = dz.WeylRealization(ctx=dz.SignatureContext(p=1), theta=np.array([[1.0 + 1j]]),
                                PhiT=np.array([[1.0]]), PsiT=np.array([[1.0]]))
        dz.rational_taylor(rz, 3)
        assert not [a for a, _ in unambiguous_solve if a[:1] == (512,)]
        self.assert_broadcast_product(rz.theta, rz.PsiT)


class TestRationalTaylorCallCount:
    """Counts calls into the Weyl-function layer, so that a return to
    per-sample evaluation shows without timing anything."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"explicit_weyl": 0, "value": 0, "herglotz_map": 0, "min_eig": 0,
                 "cond": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("explicit_weyl", "herglotz_map"):
            monkeypatch.setattr(inverse, name, counted(name, getattr(inverse, name)))
        monkeypatch.setattr(pseudoexp, "min_eig", counted("min_eig", pseudoexp.min_eig))
        for name in ("cond", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(dz.WeylRealization, "value",
                            counted("value", dz.WeylRealization.value))
        return calls

    def test_parameters_source(self, rng, counts):
        params = dz.random_bdt_parameters(rng, 3, 2, normalized=True)
        counts.update(dict.fromkeys(counts, 0))     # the draw runs an SVD of its own
        dz.rational_taylor(params, 12)
        assert counts["explicit_weyl"] == 1
        assert counts["herglotz_map"] == 1
        assert counts["min_eig"] <= 1
        assert counts["cond"] == counts["svd"] == 0     # every gate certified

    def test_realization_source(self, counts):
        rz = dz.WeylRealization(ctx=dz.SignatureContext(p=1), theta=np.array([[1.0 + 1j]]),
                                PhiT=np.array([[1.0]]), PsiT=np.array([[1.0]]))
        dz.rational_taylor(rz, 3)
        assert counts["value"] == 1
        assert counts["herglotz_map"] == 1
        assert counts["min_eig"] == 0
        assert counts["cond"] == counts["svd"] == 0


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
