import re
import warnings

import numpy as np
import pytest

import diracszego as dz
from diracszego.errors import (
    IdentityViolated,
    InvariantViolated,
    ModulusMismatch,
    NotPositiveDefinite,
    ResolventSingular,
    SingularS,
)
from diracszego.pseudoexp import _states

TRIPLES = ((1.0, 1.0, 1.0), (2.0, 1.0, 1j), (-0.5, np.exp(1j * np.pi / 5), 1.0))
LAMBDAS = (1 - 1j, -2j, 3 - 0.5j)


class TestParameters:
    def test_identity_enforced(self):
        ctx = dz.SignatureContext(p=1)
        with pytest.raises(IdentityViolated):
            dz.BdtParameters(ctx=ctx, A=np.array([[1.0]]),
                             S0=np.array([[1.0]]),
                             Pi0=np.array([[1.0, 0.5]]))

    def test_rejects_singular_a(self):
        ctx = dz.SignatureContext(p=1)
        with pytest.raises(ValueError):
            dz.BdtParameters(ctx=ctx, A=np.array([[0.0]]),
                             S0=np.array([[1.0]]),
                             Pi0=np.array([[0.0, 0.0]]))

    def test_example41_family_validates(self):
        for a, Phi, Psi in TRIPLES:
            params = dz.example41_params(a, Phi, Psi)
            assert params.s0_positive
            assert params.n == 1

    def test_example41_rejects_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            dz.example41_params(1.0, 1.0, 2.0)
        with pytest.raises(ModulusMismatch):
            dz.example41(1.0, 1.0, 2.0, 0)

    def test_random_parameters_satisfy_identity(self, rng):
        j = dz.SignatureContext(p=2).j
        for _ in range(5):
            params = dz.random_bdt_parameters(rng, 3, 2)
            resid = np.linalg.norm(params.A @ params.S0 - params.S0 @ params.A.conj().T
                                   - 1j * params.Pi0 @ j @ params.Pi0.conj().T)
            assert resid < 1e-9 * np.linalg.norm(params.A) * np.linalg.norm(params.S0)
            assert params.s0_positive

    def test_normalize_preserves_potentials(self, rng):
        params = dz.random_bdt_parameters(rng, 3, 1)
        norm = dz.normalize(params)
        assert np.allclose(norm.S0, np.eye(3))
        sys_a, _ = dz.generate(params, 6)
        sys_b, _ = dz.generate(norm, 6)
        dev = max(np.linalg.norm(a - b) for a, b in zip(sys_a.C, sys_b.C))
        assert dev < 1e-10


class TestGenerate:
    @pytest.mark.parametrize("a,Phi,Psi", TRIPLES)
    def test_matches_closed_forms(self, a, Phi, Psi):
        params = dz.example41_params(a, Phi, Psi)
        sys_out, _ = dz.generate(params, 50)
        for k in range(51):
            C_closed, _ = dz.example41(a, Phi, Psi, k)
            assert np.abs(sys_out.C[k] - C_closed).max() < 1e-10

    def test_output_validates(self, rng):
        params = dz.random_bdt_parameters(rng, 4, 2)
        sys_out, states = dz.generate(params, 8)
        assert dz.validate(sys_out).passed
        assert all(dz.linalg.min_eig(st.S) > 0 for st in states)

    def test_stops_where_s_is_singular_to_working_precision(self):
        # S_k > 0 holds exactly, but min_eig(S_k) / ||S_k|| decays geometrically
        # on this draw and falls below tau_pd in the thirties
        params = dz.random_bdt_parameters(np.random.default_rng(1), 3, 2, normalized=True)
        dz.generate(params, 28)
        with pytest.raises(SingularS) as info:
            dz.generate(params, 120)
        msg = str(info.value)
        k = int(re.search(r"S_(\d+) ", msg).group(1))
        assert 28 < k < 45 and info.value.index == k
        assert "min_eig/||S_k||" in msg and "precision is exhausted" in msg
        assert "lost positive definiteness" not in msg

    @pytest.mark.parametrize("N", [503, 1000])
    def test_runs_while_s_is_finite(self, ex41_params, N):
        """||S_k||_F overflows in a plain sum of squares from k = 504 on, while
        S_k itself stays finite to k = 1013."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys_out, _ = dz.generate(ex41_params, N)
        assert dz.validate(sys_out).passed
        assert max(np.abs(C - dz.example41(1.0, 1.0, 1.0, k)[0]).max()
                   for k, C in enumerate(sys_out.C)) < 1e-10

    def test_stops_where_s_overflows(self, ex41_params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dz.generate(ex41_params, 1012)
            with pytest.raises(SingularS, match=r"^S_1014 overflows") as info:
                dz.generate(ex41_params, 1013)
        assert info.value.index == 1014

    def test_closed_form_family_is_junitary(self):
        j = np.diag([1.0, -1.0])
        for k in range(51):
            C, _ = dz.example41(-0.5, np.exp(1j * np.pi / 5), 1.0, k)
            assert abs(np.linalg.det(C) - 1) < 1e-12
            assert np.linalg.norm(C @ j @ C - j) < 1e-12


class TestTransfer:
    def test_resolvent_identity(self, ex41_params):
        # w* j w differs from j by the rank-structured resolvent term
        states = _states(ex41_params, 6)
        j = ex41_params.ctx.j
        A = ex41_params.A
        n = ex41_params.n
        for st in states:
            for lam in LAMBDAS:
                w = dz.transfer(ex41_params, st, lam)
                lhs = w.conj().T @ j @ w
                res_left = np.linalg.inv(A.conj().T - np.conj(lam) * np.eye(n))
                res_right = np.linalg.inv(A - lam * np.eye(n))
                rhs = j + 1j * (np.conj(lam) - lam) * (
                    st.Pi.conj().T @ res_left @ np.linalg.inv(st.S) @ res_right @ st.Pi)
                assert np.linalg.norm(lhs - rhs) < 1e-11

    def test_conjugate_pairing(self, ex41_params):
        states = _states(ex41_params, 6)
        j = ex41_params.ctx.j
        for st in states:
            for lam in LAMBDAS:
                w = dz.transfer(ex41_params, st, lam)
                wc = dz.transfer(ex41_params, st, np.conj(lam))
                assert np.linalg.norm(wc.conj().T @ j @ w - j) < 1e-11

    def test_intertwining_with_one_step_factor(self, ex41_params):
        sys_out, states = dz.generate(ex41_params, 6)
        j = ex41_params.ctx.j
        m = ex41_params.ctx.m
        for k in range(6):
            for lam in LAMBDAS:
                w_next = dz.transfer(ex41_params, states[k + 1], lam)
                w_k = dz.transfer(ex41_params, states[k], lam)
                left = w_next @ (np.eye(m) - (1j / lam) * j)
                right = (np.eye(m) - (1j / lam) * j @ sys_out.C[k]) @ w_k
                assert np.linalg.norm(left - right) < 1e-10

    def test_rejects_spectrum_point(self, ex41_params):
        states = _states(ex41_params, 1)
        with pytest.raises(ResolventSingular):
            dz.transfer(ex41_params, states[0], 1.0 + 0j)  # A = [[1]]


class TestExplicitFundamental:
    def test_matches_propagation_closed_family(self, ex41_params):
        sys_out, states = dz.generate(ex41_params, 8)
        for lam in LAMBDAS:
            for k in (1, 4, 8):
                W_prop = dz.propagate(sys_out, lam, k)
                W_exp = dz.explicit_fundamental(ex41_params, k, lam)
                rel = np.linalg.norm(W_prop - W_exp) / np.linalg.norm(W_prop)
                assert rel < 1e-9

    def test_matches_propagation_random(self, rng):
        for _ in range(3):
            params = dz.random_bdt_parameters(rng, 3, 2, normalized=True)
            sys_out, states = dz.generate(params, 8)
            for lam in LAMBDAS:
                for k in (1, 5, 8):
                    W_prop = dz.propagate(sys_out, lam, k)
                    W_exp = dz.explicit_fundamental(params, k, lam)
                    rel = np.linalg.norm(W_prop - W_exp) / np.linalg.norm(W_prop)
                    assert rel < 1e-9

    def test_starts_at_one(self, ex41_params):
        with pytest.raises(ValueError):
            dz.explicit_fundamental(ex41_params, 0, 1 - 1j)


class TestExplicitWeyl:
    def test_zero_psi_gives_zero(self):
        ctx = dz.SignatureContext(p=1)
        params = dz.BdtParameters(ctx=ctx, A=np.array([[1.0]]),
                                  S0=np.array([[1.0]]),
                                  Pi0=np.array([[0.0, 0.0]]))
        assert dz.explicit_weyl(params, -1j) == 0

    def test_frozen_value(self, ex41_params):
        val = dz.explicit_weyl(ex41_params, -1j)
        assert abs(val[0, 0] - (-0.4 - 0.2j)) < 1e-14

    @pytest.mark.parametrize("a,Phi,Psi", TRIPLES)
    def test_matches_closed_form(self, a, Phi, Psi, rng):
        params = dz.example41_params(a, Phi, Psi)
        _, phi_closed = dz.example41(a, Phi, Psi, 0)
        for _ in range(10):
            lam = rng.standard_normal() - 1j * rng.uniform(0.05, 3.0)
            assert abs(dz.explicit_weyl(params, lam)[0, 0] - phi_closed(lam)) < 1e-12

    def test_contractive_in_lower_half_plane(self, rng):
        for _ in range(20):
            params = dz.random_bdt_parameters(rng, 3, 2, normalized=True)
            lam = rng.standard_normal() - 1j * rng.uniform(0.05, 2.0)
            phi = dz.explicit_weyl(params, lam)
            assert np.linalg.norm(phi, 2) < 1.0

    def test_requires_positive_s0(self):
        ctx = dz.SignatureContext(p=1)
        params = dz.BdtParameters(ctx=ctx, A=np.array([[-1j]]),
                                  S0=np.array([[-0.5]]),
                                  Pi0=np.array([[1.0, 0.0]]))
        with pytest.raises(NotPositiveDefinite):
            dz.explicit_weyl(params, -1j)

    @pytest.mark.parametrize("p", [1, 2])
    def test_batch_matches_scalar_loop(self, p, rng):
        for _ in range(5):
            params = dz.random_bdt_parameters(rng, 3, p, normalized=bool(rng.integers(2)))
            lam = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            batch = dz.explicit_weyl(params, lam)
            assert batch.shape == (16, p, p)
            assert np.array_equal(batch, np.stack([dz.explicit_weyl(params, x) for x in lam]))

    def test_batch_names_the_pole(self, ex41_params):
        # A_x = 1 + i for example41 with a = Phi = Psi = 1
        lam = np.array([-1j, 2 - 1j, 1 + 1j, 3 + 0j])
        with pytest.raises(ResolventSingular, match=re.escape("lambda=(1+1j),")):
            dz.explicit_weyl(ex41_params, lam)


class TestExplicitPartialSum:
    def test_matches_step_accumulation(self, ex41_params):
        sys_out, states = dz.generate(ex41_params, 16)
        phi = lambda lam: dz.explicit_weyl(ex41_params, lam)
        for lam in (1 - 1j, -2j):
            naive = dz.weyl_partial_sum(sys_out, phi, lam, 15)
            stable = dz.explicit_partial_sum(ex41_params, lam, 15)
            assert np.abs(naive - stable).max() < 1e-11

    def test_bounded_deep_into_sequence(self, ex41_params):
        states = _states(ex41_params, 202)
        lam = 0.3 - 0.7j
        bound = (abs(lam) ** 2 + 1) / (2 * abs(lam.imag))
        for r in (50, 120, 200):
            out = dz.explicit_partial_sum(ex41_params, lam, r)
            assert out[0, 0].real <= bound + 1e-10


class TestRealization:
    def ex41_realization(self):
        return dz.WeylRealization(ctx=dz.SignatureContext(p=1),
                                  theta=np.array([[1.0 + 1j]]),
                                  PhiT=np.array([[1.0]]),
                                  PsiT=np.array([[1.0]]))

    def test_trivial_zero_function(self):
        rz = dz.WeylRealization(ctx=dz.SignatureContext(p=1),
                                theta=np.array([[2.0]]),
                                PhiT=np.array([[0.0]]),
                                PsiT=np.array([[0.0]]))
        assert rz.value(-1j) == 0

    def test_value_matches_explicit_weyl(self):
        rz = self.ex41_realization()
        params = dz.realization_to_params(rz)
        for lam in LAMBDAS:
            assert abs(rz.value(lam) - dz.explicit_weyl(params, lam)) < 1e-13

    def test_value_batch_matches_scalar_loop(self, rng):
        for p in (1, 2):
            params = dz.random_bdt_parameters(rng, 3, p, normalized=True)
            rz = dz.WeylRealization(ctx=params.ctx,
                                    theta=params.A + 1j * params.Psi @ params.Psi.conj().T,
                                    PhiT=params.Phi, PsiT=params.Psi)
            lam = rng.standard_normal(16) - 1j * rng.uniform(0.05, 3.0, 16)
            batch = rz.value(lam)
            assert batch.shape == (16, p, p)
            assert np.array_equal(batch, np.stack([rz.value(x) for x in lam]))

    def test_value_at_eigenvalue_of_theta(self):
        rz = self.ex41_realization()
        with pytest.raises(ResolventSingular, match=re.escape("lambda=(1+1j),")):
            rz.value(1 + 1j)
        with pytest.raises(ResolventSingular, match=re.escape("lambda=(1+1j),")):
            rz.value(np.array([-1j, 1 + 1j, 2 - 1j]))

    def test_value_at_computed_eigenvalue_of_theta(self, rng):
        # theta - lambda I is singular only to working precision here, so
        # only the condition gate stops the solve
        params = dz.random_bdt_parameters(rng, 3, 2, normalized=True)
        rz = dz.WeylRealization(ctx=params.ctx,
                                theta=params.A + 1j * params.Psi @ params.Psi.conj().T,
                                PhiT=params.Phi, PsiT=params.Psi)
        pole = np.linalg.eigvals(rz.theta)[0]
        named = re.escape(f"lambda={pole},")
        with pytest.raises(ResolventSingular, match=named):
            rz.value(pole)
        with pytest.raises(ResolventSingular, match=named):
            rz.value(np.array([-1j, pole, 2 - 1j]))

    def test_round_trip_reproduces_potentials(self, ex41_params):
        rz = self.ex41_realization()  # realization of the closed-form Weyl function
        params_back = dz.realization_to_params(rz)
        sys_a, _ = dz.generate(ex41_params, 10)
        sys_b, _ = dz.generate(params_back, 10)
        assert max(np.abs(a - b).max() for a, b in zip(sys_a.C, sys_b.C)) < 1e-10

    def test_rejects_identity_violation(self):
        with pytest.raises(InvariantViolated):
            dz.WeylRealization(ctx=dz.SignatureContext(p=1),
                               theta=np.array([[1.0 + 0.999j]]),
                               PhiT=np.array([[1.0]]),
                               PsiT=np.array([[1.0]]))
