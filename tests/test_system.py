import numpy as np
import pytest

import diracszego as dz
from diracszego.errors import LambdaZero, RealLambda, SingularDenominator, SingularShift

LAMBDAS = (1 - 1j, -2j, 3 - 0.5j)


class TestPotentialSequence:
    def test_stored_as_one_read_only_stack(self):
        ctx = dz.SignatureContext(p=1)
        C = np.stack([np.eye(2, dtype=complex)] * 3)
        sys_in = dz.PotentialSequence(ctx=ctx, C=C)
        assert sys_in.C.shape == (3, 2, 2)
        C[0, 0, 1] = 0.5                     # the caller's own array stays writable
        with pytest.raises(ValueError, match="read-only"):
            sys_in.C[1][0, 0] = 2.0
        for bad in (np.ones((3, 2, 3)), np.empty((0, 2, 2)), [np.eye(2), np.eye(3)]):
            with pytest.raises(ValueError, match=r"^C\b"):
                dz.PotentialSequence(ctx=ctx, C=bad)
        assert dz.TaylorSequence(p=1, alpha=[1.0, 0.5]).alpha.shape == (2, 1, 1)


class TestValidate:
    def test_identity_sequence_passes(self, trivial_system):
        report = dz.validate(trivial_system)
        assert report.passed
        assert report.failures() == []

    def test_generated_sequence_passes(self, ex41_system):
        assert dz.validate(ex41_system).passed

    def test_flags_broken_coefficient(self, trivial_system):
        C = list(trivial_system.C)
        C[3] = np.diag([2.0, 1.0]).astype(complex)  # Hermitian PD but not j-unitary
        report = dz.validate(dz.PotentialSequence(ctx=trivial_system.ctx, C=tuple(C)))
        assert not report.passed
        assert any("C_3" in line for line in report.failures())

    def test_nan_entry_is_reported(self, ex41_params):
        sys4, _ = dz.generate(ex41_params, 4)
        C = list(sys4.C)
        C[2] = C[2].copy()
        C[2][0, 1] = np.nan
        report = dz.validate(dz.PotentialSequence(ctx=sys4.ctx, C=tuple(C)))
        assert report.passed is False
        assert any(line.startswith("C_2:") for line in report.failures())

    def test_report_is_diagnostic_not_throwing(self, trivial_system):
        C = list(trivial_system.C)
        C[0] = -np.eye(2, dtype=complex)
        report = dz.validate(dz.PotentialSequence(ctx=trivial_system.ctx, C=tuple(C)))
        assert not report.passed  # no exception raised


class TestPropagate:
    def test_trivial_closed_form(self, trivial_system):
        # constant identity coefficients diagonalize: W_k = diag((1-i/l)^k, (1+i/l)^k)
        lam = 2 - 1.5j
        for k in (0, 1, 5):
            W = dz.propagate(trivial_system, lam, k)
            expect = np.diag([(1 - 1j / lam) ** k, (1 + 1j / lam) ** k])
            assert np.linalg.norm(W - expect) < 1e-13

    def test_frozen_value(self, ex41_system):
        W1 = dz.propagate(ex41_system, 1.0 + 0j, 1)
        expect = np.array([[1 - 1.5j, 0.5 - 1j], [0.5 + 1j, 1 + 1.5j]])
        assert np.linalg.norm(W1 - expect) < 1e-14

    def test_rejects_lambda_zero(self, trivial_system):
        with pytest.raises(LambdaZero):
            dz.propagate(trivial_system, 0.0, 1)

    def test_public_kernel_gives_every_step(self, ex41_system):
        lam = 1 - 1j
        # N = 40 takes the stack past the blocks of 16 that prefix_products forms
        for sys in (ex41_system, dz.generate(dz.example41_params(1.0, 1.0, 1.0), 40)[0]):
            W = dz.fundamental_solutions(sys, lam, sys.N + 1)
            assert W.shape == (sys.N + 2, 2, 2)
            assert all(np.array_equal(W[k], dz.propagate(sys, lam, k)) for k in range(len(W)))

    def test_range_check(self, trivial_system):
        with pytest.raises(ValueError):
            dz.propagate(trivial_system, 1 - 1j, trivial_system.N + 2)


class TestSummation:
    def test_q_weight(self):
        assert dz.q_weight(1j) == pytest.approx(0.5)
        assert dz.q_weight(-2j) == pytest.approx(0.8)
        with pytest.raises(LambdaZero):
            dz.q_weight(0.0)

    def test_residual_small_on_valid_systems(self, ex41_system, trivial_system, rng):
        block = dz.szego_to_dirac(dz.random_szego_sequence(rng, 2, 20, 0.05))
        for sys in (ex41_system, trivial_system, block):
            for lam in LAMBDAS:
                for r in (0, sys.N // 2, sys.N):
                    assert dz.summation_residual(sys, lam, r) < 1e-9

    def test_rejects_real_lambda(self, trivial_system):
        with pytest.raises(RealLambda):
            dz.summation_residual(trivial_system, 2.0, 1)

    def test_rejects_r_outside_the_sequence(self, trivial_system):
        for r in (-2, -1, 8):
            with pytest.raises(ValueError, match=rf"^r={r} is outside 0\.\.N, N=7$"):
                dz.summation_residual(trivial_system, 1 - 1j, r)

    def test_flags_invalid_potential(self, trivial_system):
        C = list(trivial_system.C)
        C[1] = np.diag([2.0, 1.0]).astype(complex)
        broken = dz.PotentialSequence(ctx=trivial_system.ctx, C=tuple(C))
        assert dz.summation_residual(broken, 1 - 1j, 3) > 1e-3


class TestMoebiusPair:
    def test_accepts_valid_pairs(self):
        dz.MoebiusPair(R=np.zeros((2, 2)), Q=np.eye(2))
        dz.MoebiusPair(R=0.5 * np.eye(2), Q=np.eye(2))

    def test_rejects_singular_pair(self):
        with pytest.raises(ValueError):
            dz.MoebiusPair(R=np.zeros((2, 2)), Q=np.zeros((2, 2)))

    def test_rejects_expansive_pair(self):
        with pytest.raises(ValueError):
            dz.MoebiusPair(R=2 * np.eye(2), Q=np.eye(2))


class TestWeylDisk:
    def test_trivial_value(self, trivial_system):
        pair = dz.MoebiusPair(R=np.zeros((1, 1)), Q=np.eye(1))
        phi = dz.weyl_disk_eval(trivial_system, pair, -1j)
        assert np.linalg.norm(phi - (-1j) * np.eye(1)) < 1e-12

    def test_herglotz_property(self, ex41_system, rng):
        pair = dz.MoebiusPair(R=0.3 * np.eye(1), Q=np.eye(1))
        for _ in range(10):
            lam = rng.standard_normal() - 1j * rng.uniform(0.1, 2.0)
            phi = dz.weyl_disk_eval(ex41_system, pair, lam)
            imag_part = (phi - phi.conj().T) / 2j
            assert dz.linalg.min_eig(-imag_part) > -1e-10


    def test_singular_denominator(self, ex41_params):
        """The pair (R, Q) = (W12, -W11) of cal-W = K W_{N+1}(conj(lambda))*
        spans the null space of [W11 W12]: MoebiusPair accepts it (|W11| =
        |W12| here), and the scalar denominator W11 W12 - W12 W11 is exactly
        zero."""
        sys_out, lam = dz.generate(ex41_params, 5)[0], 2.0
        W = sys_out.ctx.K @ dz.propagate(sys_out, lam, sys_out.N + 1).conj().T
        pair = dz.MoebiusPair(R=W[:1, 1:], Q=-W[:1, :1])
        with pytest.raises(SingularDenominator, match=r"^condition number of the Moebius "
                           r"denominator is inf, allowed at most 1\.000e\+12$"):
            dz.weyl_disk_eval(sys_out, pair, lam)


class TestHerglotzMap:
    def test_zero_maps_to_minus_i(self):
        assert np.allclose(dz.herglotz_map(np.zeros((2, 2))), -1j * np.eye(2))

    def test_frozen_scalar_value(self):
        out = dz.herglotz_map(np.array([[-0.4 - 0.2j]]))
        assert abs(out[0, 0] - (1 - 2j)) < 1e-14

    def test_contraction_gives_herglotz(self, rng):
        for _ in range(10):
            M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            M = 0.9 * M / np.linalg.norm(M, 2)
            out = dz.herglotz_map(M)
            imag_part = (out - out.conj().T) / 2j
            assert dz.linalg.min_eig(-imag_part) > -1e-12

    def test_rejects_singular_shift(self):
        with pytest.raises(SingularShift):
            dz.herglotz_map(-np.eye(2))

    def test_stack_matches_scalar_loop(self, rng):
        M = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
        M *= 0.9 / np.linalg.norm(M, 2, axis=(1, 2))[:, None, None]
        assert np.array_equal(dz.herglotz_map(M), np.stack([dz.herglotz_map(x) for x in M]))

    def test_stack_rejects_singular_shift(self, rng):
        M = 0.1 * rng.standard_normal((5, 2, 2)) + 0j
        M[3] = -np.eye(2)
        with pytest.raises(SingularShift, match="stack index 3"):
            dz.herglotz_map(M)


class TestWeylPartialSum:
    def test_r_zero_identity_convention(self, ex41_system):
        out = dz.weyl_partial_sum(ex41_system, lambda lam: np.zeros((1, 1)),
                                  -1j, 0)
        assert abs(out[0, 0] - ex41_system.C[0][1, 1]) < 1e-14

    def test_monotone_and_bounded(self, ex41_params):
        sys41, _ = dz.generate(ex41_params, 30)
        lam = -2j
        bound = (abs(lam) ** 2 + 1) / (2 * abs(lam.imag))
        phi = lambda l: dz.explicit_weyl(ex41_params, l)
        prev = None
        for r in range(31):
            cur = dz.weyl_partial_sum(sys41, phi, lam, r)
            if prev is not None:
                assert dz.linalg.min_eig(cur - prev) > -1e-9
            assert cur[0, 0].real <= bound + 1e-9
            prev = cur

    def test_divergence_witness(self, ex41_params):
        sys41, _ = dz.generate(ex41_params, 30)
        lam = -2j
        bound = (abs(lam) ** 2 + 1) / (2 * abs(lam.imag))
        out = dz.weyl_partial_sum(sys41, lambda l: np.array([[0.9]]), lam, 30)
        assert out[0, 0].real > bound

    def test_conventions_are_consistent(self, ex41_params, rng):
        # identity-convention sum with phi_I equals K-convention sum with phi_K
        for params in (ex41_params, dz.random_bdt_parameters(rng, 3, 2, normalized=True)):
            sys_out, _ = dz.generate(params, 20)
            lam = 0.5 - 1.2j
            phi_i = lambda l: dz.explicit_weyl(params, l)
            phi_k = lambda l: dz.herglotz_map(phi_i(l))
            a = dz.weyl_partial_sum(sys_out, phi_i, lam, 20, convention="identity")
            b = dz.weyl_partial_sum(sys_out, phi_k, lam, 20, convention="K")
            # the two columns differ by the invertible factor (I + phi_I)/sqrt(2)...
            # compare through congruence: b == f* a f with f = sqrt(2)(I+phi_I)^{-1}
            f = np.sqrt(2) * np.linalg.inv(np.eye(params.ctx.p) + phi_i(lam))
            assert np.linalg.norm(b - f.conj().T @ a @ f) < 1e-9 * max(np.linalg.norm(a), 1)

    def test_rejects_upper_half_plane(self, trivial_system):
        with pytest.raises(ValueError):
            dz.weyl_partial_sum(trivial_system, lambda l: 0.0, 1 + 1j, 2)

    def test_rejects_r_past_end(self, trivial_system):
        with pytest.raises(ValueError):
            dz.weyl_partial_sum(trivial_system, lambda l: 0.0, -1j,
                                trivial_system.N + 1)
