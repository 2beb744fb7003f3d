import re
import warnings

import numpy as np
import pytest

import diracszego as dz
from diracszego import pseudoexp
from diracszego.errors import (
    AnalyticityViolation,
    FloatOverflow,
    IdentityViolated,
    InvariantViolated,
    ModulusMismatch,
    NotPositiveDefinite,
    ResolventSingular,
)
from diracszego.linalg import norm_stack
from diracszego.policy import DEFAULT_POLICY
from conftest import (indefinite_s0_params, loop_states, near_singular_s0_params,
                      params_to_realization)

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
            assert params._normal.shape == (1, 3)
            assert params.n == 1

    def test_example41_rejects_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            dz.example41_params(1.0, 1.0, 2.0)
        with pytest.raises(ModulusMismatch):
            dz.example41(1.0, 1.0, 2.0, 0)

    def test_example41_past_the_square_of_the_range(self):
        """At a = 1e160, where a ** 2 overflows, the closed form still equals
        the generated C_3, off-diagonals 2e-160 i, for a float and a NumPy float."""
        C, _ = dz.example41(1e160, 1, 1, 3)
        sys_out, _ = dz.generate(dz.example41_params(1e160, 1, 1), 5)
        assert np.allclose(C, sys_out.C[3], rtol=1e-12, atol=0)
        assert np.allclose(C[1, 0], -2e-160j, rtol=1e-12, atol=0)
        assert np.array_equal(dz.example41(np.float64(1e160), 1, 1, 3)[0], C)

    def test_random_parameters_satisfy_identity(self, rng):
        j = dz.SignatureContext(p=2).j
        for _ in range(5):
            params = dz.random_bdt_parameters(rng, 3, 2)
            resid = np.linalg.norm(params.A @ params.S0 - params.S0 @ params.A.conj().T
                                   - 1j * params.Pi0 @ j @ params.Pi0.conj().T)
            assert resid < 1e-9 * np.linalg.norm(params.A) * np.linalg.norm(params.S0)
            assert params._normal.shape == (3, 7)

    def test_s0_min_eig_is_taken_once_on_first_use(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(pseudoexp, "min_eig", lambda M: calls.append(1) or dz.linalg.min_eig(M))
        params = dz.random_bdt_parameters(rng, 3, 2, normalized=True)
        assert calls == []
        assert params._normal is params._normal
        dz.generate(params, 4)
        dz.explicit_weyl(params, -1j)
        assert calls == [1]

    def test_norms_do_not_overflow(self):
        """||A||_F of A = 1e160 overflows in a plain sum of squares, and an inf
        scale would pass any residual. A break of 2e150 against an allowed
        1e150 is caught in a triple and in a realization, and the unbroken
        ones build, and generate, with no RuntimeWarning."""
        ctx, one = dz.SignatureContext(p=1), np.array([[1.0]])
        allowed = r" is 2\.000e\+150, allowed at most 1\.000e\+150$"
        with pytest.raises(IdentityViolated, match=allowed):
            dz.BdtParameters(ctx=ctx, A=np.array([[1e160 + 1e150j]]), S0=one,
                             Pi0=np.array([[1.0, 1.0]]))
        with pytest.raises(InvariantViolated, match=allowed):
            dz.WeylRealization(ctx=ctx, theta=np.array([[1e160 + 1e150j]]), PhiT=one, PsiT=one)
        dz.WeylRealization(ctx=ctx, theta=np.array([[1e160 + 1j]]), PhiT=one, PsiT=one)
        sys_out, _ = dz.generate(dz.example41_params(1e160, 1, 1), 5)
        assert dz.validate(sys_out).passed

    def test_step_identity_is_judged_past_the_square_of_the_range(self):
        """At a = 1e160 the step identity's scale 2 ||A_k|| + ||Phi_k||^2
        reads 2e160, not inf, so A_2 shifted by 1e155 i fails it."""
        params = dz.example41_params(1e160, 1, 1)
        _, (A, Phi) = dz.generate(params, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scale = 2 * norm_stack(A) + norm_stack(Phi) ** 2
        assert np.allclose(scale, 2e160, rtol=1e-15, atol=0)
        pseudoexp._check_step_identity(A, Phi, params.ctx.j)
        shifted = A.copy()
        shifted[2] += 1e155j
        with pytest.raises(IdentityViolated, match=r"^step identity residual at k=2 is "
                           r"2\.000e\+155, allowed at most 2\.000e\+150$"):
            pseudoexp._check_step_identity(shifted, Phi, params.ctx.j)

    def test_normalize_preserves_potentials(self):
        """The triple drawn in normal form, S0 = I, generates the potentials
        of the same draw left unnormalized."""
        params = dz.random_bdt_parameters(np.random.default_rng(3), 3, 1)
        norm = dz.random_bdt_parameters(np.random.default_rng(3), 3, 1, normalized=True)
        assert np.array_equal(norm.S0, np.eye(3))
        assert np.allclose(norm._normal, params._normal, rtol=0, atol=1e-13)
        sys_a, _ = dz.generate(params, 6)
        sys_b, _ = dz.generate(norm, 6)
        dev = max(np.linalg.norm(a - b) for a, b in zip(sys_a.C, sys_b.C))
        assert dev < 1e-10


class TestNormalForm:
    """Every consumer of S0 > 0 reads one cached normal form
    L^{-1} [A L, Pi0], S0 = L L*, behind one gate."""

    def test_one_verdict_per_triple(self):
        params = near_singular_s0_params()
        for run in (lambda: params._normal, lambda: dz.generate(params, 3),
                    lambda: dz.transfer(params, 2, -1j),
                    lambda: dz.explicit_fundamental(params, 2, -1j),
                    lambda: dz.explicit_partial_sum(params, -1j, 3),
                    lambda: dz.explicit_weyl(params, -1j)):
            with pytest.raises(NotPositiveDefinite,
                               match=r"^the generating recursion requires S0 > 0"):
                run()
        with pytest.raises(AnalyticityViolation, match="requires S0 > 0") as caught:
            dz.rational_taylor(params, 3)
        assert isinstance(caught.value.__cause__, NotPositiveDefinite)

    def test_s0_is_factored_once(self, rng, monkeypatch):
        """One Cholesky factor of S0 serves every consumer, and no inverse or
        eigendecomposition of S0 is taken."""
        params = dz.random_bdt_parameters(rng, 3, 2)
        calls = dict.fromkeys(("cholesky", "inv", "eigh"), 0)

        def counted(name, fn):
            def wrapper(M, *args, **kwargs):
                if np.shape(M) == params.S0.shape and np.array_equal(M, params.S0):
                    calls[name] += 1
                return fn(M, *args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        params._normal
        dz.generate(params, 6)
        dz.transfer(params, 3, -1j)
        dz.explicit_weyl(params, -1j)
        dz.rational_taylor(params, 6)
        assert calls == {"cholesky": 1, "inv": 0, "eigh": 0}

    def test_normalize_is_the_cholesky_gauge(self, rng):
        params = dz.random_bdt_parameters(rng, 3, 2)
        L = np.linalg.cholesky(params.S0)
        A, Pi0 = np.split(params._normal, [3], axis=1)
        assert np.allclose(L @ A, params.A @ L, rtol=0, atol=1e-13)
        assert np.allclose(L @ Pi0, params.Pi0, rtol=0, atol=1e-13)


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
        sys_out, (A, _) = dz.generate(params, 8)
        assert dz.validate(sys_out).passed
        # every A_k = L_k^{-1} A L_k is similar to A
        spectrum = np.sort_complex(np.linalg.eigvals(params.A))
        for A_k in A:
            dev = np.abs(np.sort_complex(np.linalg.eigvals(A_k)) - spectrum).max()
            assert dev < 1e-10 * np.linalg.norm(params.A)

    def test_returns_read_only_stacks(self, ex41_params):
        _, (A, Phi) = dz.generate(ex41_params, 5)
        assert A.shape == (7, 1, 1) and Phi.shape == (7, 1, 2)
        for stack in (A, Phi):
            assert not stack.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                stack[0] = 0

    @pytest.mark.parametrize("seed, k", [(1, 34), (16, 151)])
    def test_runs_where_s_is_singular_to_working_precision(self, seed, k):
        """S_k > 0 holds exactly, but min_eig(S_k) / ||S_k|| decays
        geometrically and falls below tau_pd at step k. Normalized, the
        recursion never forms S_k: at N = 1000 the output passes validate and
        its Taylor blocks match the exact ones of ``rational_taylor``."""
        params = dz.random_bdt_parameters(np.random.default_rng(seed), 3, 2, normalized=True)
        S = loop_states(params, k + 1)[1]
        low = np.linalg.eigvalsh(S)[:, 0] / np.linalg.norm(S, axis=(1, 2))
        assert low[k] < DEFAULT_POLICY.tau_pd < low[k - 1]
        sys_out, _ = dz.generate(params, 1000)
        assert dz.validate(sys_out).passed
        got, exact = dz.direct_taylor(sys_out).alpha, dz.rational_taylor(params, 1000).alpha
        assert (norm_stack(got - exact) / np.maximum(norm_stack(exact), 1.0)).max() < 1e-12

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

    def test_runs_where_s_overflows(self, ex41_params):
        """S_k overflows from k = 1014 on; A_k and Phi_k stay bounded, and the
        output matches the closed form at N = 5000 (every tenth C_k checked)
        without a RuntimeWarning."""
        assert not np.isfinite(loop_states(ex41_params, 1015)[1][1014]).all()
        sys_out, (A, Phi) = dz.generate(ex41_params, 5000)
        assert np.abs(A).max() < 10 and np.abs(Phi).max() < 10
        assert max(np.abs(sys_out.C[k] - dz.example41(1.0, 1.0, 1.0, k)[0]).max()
                   for k in range(0, 5001, 10)) < 1e-13

    @pytest.fixture
    def cond_gates(self, monkeypatch):
        calls = []
        gate = pseudoexp.check_cond_stack

        def counted(*args):
            calls.append(args[1])
            return gate(*args)

        monkeypatch.setattr(pseudoexp, "check_cond_stack", counted)
        return calls

    def test_no_cond_gate_when_s0_is_positive(self, rng, cond_gates):
        """With S0 > 0, min_eig(S_k) > tau_pd max(||S_k||_F, 1) in the recursion
        already bounds cond_2(S_k) by 1/tau_pd < cond_limit."""
        dz.generate(dz.random_bdt_parameters(rng, 3, 2), 12)
        dz.generate(dz.example41_params(1.0, 1.0, 1.0), 200)
        assert cond_gates == []

    def test_s0_not_positive_fails_the_s0_gate(self, rng, cond_gates):
        """S0 > 0 is the recursion's precondition: an indefinite S0 fails its
        gate before any step, in ``generate``, ``transfer`` and
        ``explicit_fundamental`` alike."""
        for n, p in ((2, 1), (3, 2), (4, 2)):
            params = indefinite_s0_params(rng, n, p)
            for run in (lambda: params._normal, lambda: dz.generate(params, 6),
                        lambda: dz.transfer(params, 3, -1j),
                        lambda: dz.explicit_fundamental(params, 3, -1j)):
                with pytest.raises(NotPositiveDefinite,
                                   match=r"^the generating recursion requires S0 > 0") as info:
                    run()
                assert info.value.measured > info.value.allowed
        assert cond_gates == []

    def test_singular_s0_fails_the_s0_gate(self):
        """S0 = diag(1, 0) with A = [[1 + i, 1], [0, 2]], Phi = (sqrt 2, 0),
        Psi = 0 satisfies A S0 - S0 A* = i Pi0 j Pi0*; S_0 is singular."""
        params = dz.BdtParameters(ctx=dz.SignatureContext(p=1),
                                  A=np.array([[1 + 1j, 1], [0, 2]]), S0=np.diag([1.0, 0.0]),
                                  Pi0=np.array([[np.sqrt(2), 0], [0, 0]]))
        with pytest.raises(NotPositiveDefinite, match=r"-min_eig\(S0\) is -?0\.000e\+00") as info:
            dz.generate(params, 4)
        assert info.value.measured == 0 and info.value.allowed == -DEFAULT_POLICY.tau_pd
        assert info.value.index is None

    def test_closed_form_family_is_junitary(self):
        j = np.diag([1.0, -1.0])
        for k in range(51):
            C, _ = dz.example41(-0.5, np.exp(1j * np.pi / 5), 1.0, k)
            assert abs(np.linalg.det(C) - 1) < 1e-12
            assert np.linalg.norm(C @ j @ C - j) < 1e-12


class TestTransfer:
    def test_resolvent_identity(self, ex41_params):
        # w* j w differs from j by the rank-structured resolvent term
        Pi, S = loop_states(ex41_params, 6)
        j = ex41_params.ctx.j
        A = ex41_params.A
        n = ex41_params.n
        for k in range(6):
            for lam in LAMBDAS:
                w = dz.transfer(ex41_params, k, lam)
                lhs = w.conj().T @ j @ w
                res_left = np.linalg.inv(A.conj().T - np.conj(lam) * np.eye(n))
                res_right = np.linalg.inv(A - lam * np.eye(n))
                rhs = j + 1j * (np.conj(lam) - lam) * (
                    Pi[k].conj().T @ res_left @ np.linalg.inv(S[k]) @ res_right @ Pi[k])
                assert np.linalg.norm(lhs - rhs) < 1e-11

    def test_conjugate_pairing(self, ex41_params):
        j = ex41_params.ctx.j
        for k in range(6):
            for lam in LAMBDAS:
                w = dz.transfer(ex41_params, k, lam)
                wc = dz.transfer(ex41_params, k, np.conj(lam))
                assert np.linalg.norm(wc.conj().T @ j @ w - j) < 1e-11

    def test_intertwining_with_one_step_factor(self, ex41_params):
        sys_out, _ = dz.generate(ex41_params, 6)
        j = ex41_params.ctx.j
        m = ex41_params.ctx.m
        for k in range(6):
            for lam in LAMBDAS:
                w_next = dz.transfer(ex41_params, k + 1, lam)
                w_k = dz.transfer(ex41_params, k, lam)
                left = w_next @ (np.eye(m) - (1j / lam) * j)
                right = (np.eye(m) - (1j / lam) * j @ sys_out.C[k]) @ w_k
                assert np.linalg.norm(left - right) < 1e-10

    def test_runs_the_recursion_to_k(self):
        """w_A(k, lambda) = I - i j Phi_k* (A_k - lambda I)^{-1} Phi_k reads the
        states of ``generate``'s recursion at k, and stays bounded far past
        the step (34 on this draw) where S_k is singular to working precision."""
        params = dz.random_bdt_parameters(np.random.default_rng(1), 3, 2, normalized=True)
        lam, j, eye = 0.5 - 1.2j, params.ctx.j, np.eye(params.ctx.m)
        _, (A, Phi) = dz.generate(params, 40)
        for k in (0, 1, 34, 41):
            w = dz.transfer(params, k, lam)
            X = np.linalg.solve(A[k] - lam * np.eye(params.n), Phi[k])
            ref = eye - 1j * j @ Phi[k].conj().T @ X
            assert np.linalg.norm(w - ref) < 1e-14 * np.linalg.norm(ref)
        w = dz.transfer(params, 1000, lam)
        assert np.isfinite(w).all() and 1 < np.linalg.norm(w) < 4
        with pytest.raises(ValueError, match="negative"):
            dz.transfer(params, -1, -1j)

    def test_rejects_spectrum_point(self, ex41_params):
        with pytest.raises(ResolventSingular):
            dz.transfer(ex41_params, 0, 1.0 + 0j)  # A = [[1]]


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

    def test_overflowing_power_fails_its_gate(self):
        """(1 + 1000)^120 is past the largest double: a gate failure, not
        Python's bare OverflowError."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatOverflow, match=r"^\(1 -\+ i/lambda\)\^120 overflows") as info:
                dz.explicit_fundamental(dz.example41_params(1, 1, 1), 120, -1e-3j)
        assert info.value.measured == np.inf
        assert info.value.allowed == np.finfo(float).max


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


class TestScalarAndBatchOfOne:
    """A scalar lambda, a batch of one and a member of a longer batch pass
    the same gate and multiply by the same inverse: the same bits."""

    LAMS = np.array([1 - 1j, -2j, 3 - 0.5j, 0.25 - 4j])

    def assert_same_bits(self, fn):
        batch = fn(self.LAMS)
        for i, lam in enumerate(self.LAMS):
            scalar = fn(lam)
            assert np.array_equal(scalar, fn(np.array([lam]))[0])
            assert np.array_equal(scalar, batch[i])

    @pytest.mark.parametrize("n, p", [(1, 1), (3, 2)])
    def test_explicit_weyl(self, rng, n, p):
        params = dz.random_bdt_parameters(rng, n, p, normalized=True)
        self.assert_same_bits(lambda lam: dz.explicit_weyl(params, lam))

    def test_realization_value(self):
        rz = dz.WeylRealization(ctx=dz.SignatureContext(p=1), theta=np.array([[1.0 + 1j]]),
                                PhiT=np.array([[1.0]]), PsiT=np.array([[1.0]]))
        self.assert_same_bits(rz.value)

    @pytest.mark.parametrize("n, p", [(1, 1), (3, 2)])
    def test_herglotz_map(self, rng, n, p):
        phi = dz.explicit_weyl(dz.random_bdt_parameters(rng, n, p, normalized=True), self.LAMS)
        batch = dz.herglotz_map(phi)
        eye = np.eye(p)
        for i, value in enumerate(phi):
            single = dz.herglotz_map(value)
            assert np.array_equal(single, dz.herglotz_map(phi[i:i + 1])[0])
            assert np.array_equal(single, batch[i])
            # the gate's inverse is numpy.linalg.inv's: the bits of the explicit formula
            assert np.array_equal(single, -1j * (eye - value) @ np.linalg.inv(eye + value))


class TestExplicitPartialSum:
    def test_matches_step_accumulation(self, ex41_params):
        sys_out, states = dz.generate(ex41_params, 16)
        phi = lambda lam: dz.explicit_weyl(ex41_params, lam)
        for lam in (1 - 1j, -2j):
            naive = dz.weyl_partial_sum(sys_out, phi, lam, 15)
            stable = dz.explicit_partial_sum(ex41_params, lam, 15)
            assert np.abs(naive - stable).max() < 1e-11

    def test_random_draw_deep_into_sequence(self):
        """On a draw with n = 3, p = 2 the sum matches step accumulation at
        r = 30 and keeps within the half-plane Weyl bound at r = 1000."""
        params = dz.random_bdt_parameters(np.random.default_rng(1), 3, 2, normalized=True)
        lam = 0.5 - 1.2j
        sys_out, _ = dz.generate(params, 31)
        naive = dz.weyl_partial_sum(sys_out, lambda l: dz.explicit_weyl(params, l), lam, 30)
        assert np.abs(naive - dz.explicit_partial_sum(params, lam, 30)).max() < 1e-11
        bound = (abs(lam) ** 2 + 1) / (2 * abs(lam.imag))
        assert np.linalg.eigvalsh(dz.explicit_partial_sum(params, lam, 1000))[-1] <= bound

    def test_bounded_deep_into_sequence(self, ex41_params):
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
        params = dz.example41_params(1, 1, 1)
        for lam in LAMBDAS:
            assert abs(rz.value(lam) - dz.explicit_weyl(params, lam)) < 1e-13

    def test_value_batch_matches_scalar_loop(self, rng):
        for p in (1, 2):
            params = dz.random_bdt_parameters(rng, 3, p, normalized=True)
            rz = params_to_realization(params)
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
        rz = params_to_realization(params)
        pole = np.linalg.eigvals(rz.theta)[0]
        named = re.escape(f"lambda={pole},")
        with pytest.raises(ResolventSingular, match=named):
            rz.value(pole)
        with pytest.raises(ResolventSingular, match=named):
            rz.value(np.array([-1j, pole, 2 - 1j]))

    def test_rejects_identity_violation(self):
        with pytest.raises(InvariantViolated):
            dz.WeylRealization(ctx=dz.SignatureContext(p=1),
                               theta=np.array([[1.0 + 0.999j]]),
                               PhiT=np.array([[1.0]]),
                               PsiT=np.array([[1.0]]))
