import numpy as np
import pytest
import scipy.linalg

import diracszego as dz
from diracszego.errors import (
    BlockSizeNotOne,
    ModulusAtLeastOne,
    NotPositiveDefinite,
    PoleAtInput,
)
from conftest import random_schur, six_product_rotate


class TestSchurCoefficients:
    def test_rejects_modulus_one(self):
        with pytest.raises(ModulusAtLeastOne):
            dz.SchurCoefficients(rho=(0.5, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.1), np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ModulusAtLeastOne):
            dz.SchurCoefficients(rho=(0.2, bad))

    def test_schur_to_factors_shape(self):
        sz = dz.schur_to_R(dz.SchurCoefficients(rho=(0.0, 0.3, -0.2j)))
        assert sz.N == 2
        assert sz.R[0].shape == (2, 2)
        # zero coefficient gives the identity factor
        assert np.allclose(sz.R[0], np.eye(2))

    def test_factors_are_pd_and_junitary(self):
        sz = dz.schur_to_R(dz.SchurCoefficients(rho=(0.4, -0.2 + 0.3j)))
        j = sz.ctx.j
        for R, theta in zip(sz.R, sz.theta):
            assert np.linalg.norm(R - R.conj().T) < 1e-15
            assert dz.linalg.min_eig(R) > 0
            assert np.linalg.norm(R @ j @ R - j) < 1e-14
            assert theta == pytest.approx(np.sqrt(1 - abs(-R[0, 1] / R[0, 0]) ** 2))

    def test_round_trip_exact(self, rng):
        rho = random_schur(rng, 10)
        back = dz.schur_coeffs(dz.schur_to_R(rho))
        assert max(abs(a - b) for a, b in zip(rho.rho, back.rho)) < 1e-12

    def test_block_case_has_no_schur_coefficients(self, rng):
        sz = dz.random_szego_sequence(rng, 2, 3)
        with pytest.raises(BlockSizeNotOne):
            dz.schur_coeffs(sz)


class TestConversionBijection:
    def test_identity_factors_give_identity_potentials(self):
        ctx = dz.SignatureContext(p=1)
        sz = dz.SzegoSequence(ctx=ctx, R=tuple(np.eye(2) for _ in range(4)),
                              theta=(1.0,) * 4)
        sysd = dz.szego_to_dirac(sz)
        assert max(np.linalg.norm(C - np.eye(2)) for C in sysd.C) < 1e-14

    @pytest.mark.parametrize("p,N", [(1, 20), (2, 12)])
    def test_round_trips(self, rng, p, N):
        sz = dz.random_szego_sequence(rng, p, N)
        sysd = dz.szego_to_dirac(sz)
        assert dz.validate(sysd).passed
        sz_back = dz.dirac_to_szego(sysd)
        dev_R = max(np.linalg.norm(a - b) for a, b in zip(sz.R, sz_back.R))
        assert dev_R < 1e-10
        sys_back = dz.szego_to_dirac(dz.dirac_to_szego(sysd))
        dev_C = max(np.linalg.norm(a - b) for a, b in zip(sysd.C, sys_back.C))
        assert dev_C < 1e-10

    def test_schur_system_round_trip(self, rng):
        sysd = dz.szego_to_dirac(dz.schur_to_R(random_schur(rng, 8)))
        back = dz.szego_to_dirac(dz.dirac_to_szego(sysd))
        assert max(np.linalg.norm(a - b) for a, b in zip(sysd.C, back.C)) < 1e-12

    def test_rejects_indefinite_input(self, trivial_system):
        C = list(trivial_system.C)
        C[2] = np.array([[1.5, 2.0], [2.0, 1.5]], dtype=complex)  # Hermitian, not PD
        broken = dz.PotentialSequence(ctx=trivial_system.ctx, C=tuple(C))
        with pytest.raises(NotPositiveDefinite):
            dz.dirac_to_szego(broken)


class TestRotationStep:
    """The rotation step applies j as a sign pattern in three products and
    keeps the bits of the six-product form j V* j V. ``szego_to_dirac``'s C
    and ``dirac_to_szego``'s R are pinned by ``TestBatchedEquivalence``,
    whose per-step references rotate with the six-product form."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_u_rotation_bits(self, p):
        sz = dz.random_szego_sequence(np.random.default_rng(10 + p), p, 128, 0.1)
        U = [np.eye(2 * p, dtype=complex)]
        for R in sz.R:
            U.append(six_product_rotate(U[-1], R, sz.ctx.j))
        stack = dz.szego._rotations(sz.R, sz.ctx.j, 130)
        for k in (0, 1, 17, 129):
            assert np.array_equal(stack[k], U[k])


class TestRandomSequence:
    def test_invariants(self, rng):
        sz = dz.random_szego_sequence(rng, 2, 6)
        j = sz.ctx.j
        for R in sz.R:
            assert np.linalg.norm(R - R.conj().T) < 1e-13
            assert dz.linalg.min_eig(R) > 0
            assert np.linalg.norm(R @ j @ R - j) < 1e-13


    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("scale", [0.05, 0.15, 1.0])
    def test_closed_form_matches_expm(self, p, scale):
        """exp([[0, h], [h*, 0]]) from the SVD of h, against SciPy's expm of
        the same draws of h."""
        sz = dz.random_szego_sequence(np.random.default_rng(11), p, 20, scale)
        rng, zero, j = np.random.default_rng(11), np.zeros((p, p)), sz.ctx.j
        for R in sz.R:
            h = scale * (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
            ref = scipy.linalg.expm(np.block([[zero, h], [h.conj().T, zero]]))
            assert np.linalg.norm(R - ref) <= 1e-14 * np.linalg.norm(ref)
            assert np.linalg.norm(R @ j @ R - j) <= 1e-14 * (np.linalg.norm(R) ** 2 + 1)


class TestSolutionMap:
    def test_maps_recurrence_solution_onto_propagation(self, rng):
        # run the three-term block recurrence directly and check the change of
        # variables reproduces the first-order system's fundamental solution
        sz = dz.schur_to_R(random_schur(rng, 6))
        sysd = dz.szego_to_dirac(sz)
        p = sz.ctx.p
        for lam in (1 - 1j, -0.5 - 2j):
            z = (1 + 1j * lam) / (1 - 1j * lam)
            D = np.diag([z, 1]).astype(complex)
            X = np.diag([1 / z, 1]).astype(complex)  # makes W_0 = I
            for k in range(5):
                W = dz.propagate(sysd, lam, k)
                mapped = dz.szego_solution_map(sz, X, k, lam)
                assert np.linalg.norm(W - mapped) < 1e-10 * max(np.linalg.norm(W), 1)
                X = sz.theta[k] * sz.R[k] @ D @ X

    def test_rotation_stays_j_unitary(self, rng):
        # unprojected accumulation drifts off the j-unitary manifold geometrically
        sz = dz.schur_to_R(random_schur(rng, 60))
        j = sz.ctx.j
        U = dz.szego._rotations(sz.R, j, 61)[60]
        assert np.linalg.norm(j @ U.conj().T @ j @ U - np.eye(2)) < 1e-9

    def test_poles(self):
        """lambda = 0 is a pole of (i - 1/lambda)^k, and lambda = -i one of the
        Szego variable z = (1 + i lambda) / (1 - i lambda)."""
        sz = dz.schur_to_R(dz.SchurCoefficients(rho=(0.3, -0.2j)))
        with pytest.raises(PoleAtInput, match="nonzero"):
            dz.szego_solution_map(sz, np.eye(2), 1, 0)
        with pytest.raises(PoleAtInput, match="lambda = -i"):
            dz.szego_solution_map(sz, np.eye(2), 1, -1j)
