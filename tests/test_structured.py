"""The structured O(N^2 p^3) spectral solvers against the dense references in
conftest, and a guard on how much dense work they do."""

import numpy as np
import pytest

import diracszego as dz
from diracszego import inverse, linalg
from diracszego.errors import InvariantViolated, ToeplitzNotPD
from conftest import (
    dense_block_toeplitz,
    dense_first_not_pd,
    dense_inverse_potentials,
    dense_taylor_from_beta,
)


def random_taylor(rng, p, N, scale=0.1):
    return dz.direct_taylor(dz.szego_to_dirac(dz.random_szego_sequence(rng, p, N, scale)))


def max_rel_dev(got, ref):
    return max(float(np.linalg.norm(a - b) / np.linalg.norm(b)) for a, b in zip(got, ref))


class TestBlockToeplitz:
    @pytest.mark.parametrize("p, n", [(1, 1), (1, 6), (2, 1), (2, 5), (3, 4)])
    def test_bit_identical_to_blockwise_assembly(self, rng, p, n):
        alpha = [rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
                 for _ in range(n)]
        assert np.array_equal(dz.block_toeplitz(alpha), dense_block_toeplitz(alpha))


class TestLayerPeeling:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_peel_recovers_drawn_szego_factors(self, p, seed):
        """The peel of the Taylor blocks of a drawn Szego sequence yields its R_k."""
        sz = dz.random_szego_sequence(np.random.default_rng(seed), p, 50, 0.1)
        R, cond = inverse._peel(dz.direct_taylor(dz.szego_to_dirac(sz)).alpha)
        assert len(cond) == len(R) == len(sz.R) and np.isfinite(cond).all()
        assert max_rel_dev(R, sz.R) < 1e-12

    @pytest.mark.parametrize("seed", [1, 3])
    def test_rational_weyl_matches_generate(self, seed):
        """The exact oracle at N = 1000: the inverse of a rational Weyl
        function's Taylor blocks against the generated potentials."""
        params = dz.random_bdt_parameters(np.random.default_rng(seed), 3, 2, normalized=True)
        got = dz.inverse_potentials(dz.rational_taylor(params, 1000)).C
        ref = dz.generate(params, 1000)[0].C
        size = np.maximum(np.linalg.norm(ref, axis=(1, 2)), 1.0)
        assert (np.linalg.norm(got - ref, axis=(1, 2)) / size).max() < 1e-13


class TestEquivalence:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("N", [0, 1, 2, 40])
    def test_inverse_matches_dense_cholesky(self, rng, p, N):
        alpha = random_taylor(rng, p, N)
        got = dz.inverse_potentials(alpha)
        assert max_rel_dev(got.C, dense_inverse_potentials(alpha)) < 1e-10

    def test_direct_matches_dense_v_minus(self, rng):
        sys_in = dz.szego_to_dirac(dz.random_szego_sequence(rng, 2, 30))
        got = dz.direct_taylor(sys_in)
        ref = dense_taylor_from_beta(dz.beta_from_potentials(sys_in))
        assert max_rel_dev(got.alpha, ref) < 1e-10

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("k, factor", [(0, -25), (2, 25), (7, 25), (13, 25), (18, 25)])
    def test_failing_index_matches_dense_scan(self, rng, p, k, factor):
        alpha = list(random_taylor(rng, p, 20).alpha)
        alpha[k] = factor * alpha[k]
        broken = dz.TaylorSequence(p=p, alpha=tuple(alpha))
        first = dense_first_not_pd(broken)
        assert first is not None
        with pytest.raises(ToeplitzNotPD) as info:
            dz.inverse_potentials(broken)
        assert info.value.failing_index == first

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("k, factor", [(0, -25), (2, 25), (7, 25), (13, 25), (18, 25)])
    def test_peel_stops_where_the_gate_fails(self, rng, monkeypatch, p, k, factor):
        """With the positivity gate bypassed, the peel's own gate names the
        same first index, without a RuntimeWarning on the way (the suite's
        filterwarnings setting makes one an error)."""
        alpha = list(random_taylor(rng, p, 20).alpha)
        alpha[k] = factor * alpha[k]
        broken = dz.TaylorSequence(p=p, alpha=tuple(alpha))
        monkeypatch.setattr(inverse, "_first_not_pd", lambda S, p: None)
        with pytest.raises(InvariantViolated) as info:
            dz.inverse_potentials(broken)
        assert info.value.index == dense_first_not_pd(broken)

    @pytest.mark.parametrize("p", [1, 2])
    def test_peel_stops_at_a_non_finite_reflection(self, rng, monkeypatch, p):
        """With the positivity gate bypassed, a NaN entry of alpha_5 makes
        rho_5 NaN; the peel stops there instead of handing it to eigh."""
        blocks = list(random_taylor(rng, p, 12).alpha)
        blocks[5] = blocks[5].copy()
        blocks[5][-1, 0] = np.nan
        monkeypatch.setattr(inverse, "_first_not_pd", lambda S, p: None)
        with pytest.raises(InvariantViolated) as info:
            dz.inverse_potentials(dz.TaylorSequence(p=p, alpha=tuple(blocks)))
        assert info.value.index == 5

    def test_positivity_profile_unchanged(self, rng):
        alpha = random_taylor(rng, 2, 12)
        ref = [linalg.min_eig(dense_block_toeplitz(alpha.alpha[: r + 1]))
               for r in range(alpha.N + 1)]
        assert dz.toeplitz_positivity(alpha) == ref


class TestComplexityGuard:
    """Counts calls into the dense primitives, so that a return to per-step
    dense work shows without timing anything."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"block_toeplitz": 0, "min_eig": 0, "pd_solve": 0, "structured_a": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("block_toeplitz", "min_eig"):
            monkeypatch.setattr(inverse, name, counted(name, getattr(inverse, name)))
        pd_solve = counted("pd_solve", linalg.pd_solve)
        monkeypatch.setattr(linalg, "pd_solve", pd_solve)
        monkeypatch.setattr(inverse, "pd_solve", pd_solve, raising=False)
        monkeypatch.setattr(inverse, "structured_a",
                            counted("structured_a", inverse.structured_a))
        return calls

    def test_inverse_assembles_once_and_solves_without_cholesky(self, rng, counts):
        alpha = random_taylor(rng, 2, 40)
        counts.update(dict.fromkeys(counts, 0))
        dz.inverse_potentials(alpha)
        assert counts["block_toeplitz"] <= 1
        assert counts["pd_solve"] == 0
        assert counts["min_eig"] == 0

    @pytest.mark.parametrize("N, k", [(40, 0), (40, 17), (40, 40), (64, 33)])
    def test_failing_input_bisects(self, rng, counts, N, k):
        """The exact test runs one eigenvalue problem on S(N), then bisects."""
        alpha = list(random_taylor(rng, 2, N).alpha)
        alpha[k] = 25 * alpha[k] if k else -25 * alpha[k]
        broken = dz.TaylorSequence(p=2, alpha=tuple(alpha))
        counts.update(dict.fromkeys(counts, 0))
        with pytest.raises(ToeplitzNotPD) as info:
            dz.inverse_potentials(broken)
        assert info.value.index == dense_first_not_pd(broken)
        assert 1 <= counts["min_eig"] <= int(np.ceil(np.log2(N + 1))) + 2

    def test_direct_does_not_build_structured_a(self, rng, counts):
        sys_in = dz.szego_to_dirac(dz.random_szego_sequence(rng, 2, 40, 0.1))
        dz.direct_taylor(sys_in)
        assert counts["structured_a"] == 0


def at_threshold(alpha, factor):
    """alpha with alpha_0 -> alpha_0 - (c/2) I, which shifts S(N) by -c I,
    and c chosen so that min_eig(S(N)) = factor * tau_pd * max(||S(N)||_F, 1)."""
    S = dense_block_toeplitz(alpha.alpha)
    low, eye = np.linalg.eigvalsh(S)[0], np.eye(len(S))
    c = 0.0
    for _ in range(20):  # a contraction: the norm moves by c * sqrt(n) per unit of c
        c = low - factor * dz.DEFAULT_POLICY.tau_pd * max(np.linalg.norm(S - c * eye), 1.0)
    blocks = list(alpha.alpha)
    blocks[0] = blocks[0] - (c / 2) * np.eye(alpha.p)
    return dz.TaylorSequence(p=alpha.p, alpha=tuple(blocks))


class TestPositivityThreshold:
    """The Cholesky certificate of the positivity gate against the dense scan
    with min_eig(S(N)) placed just above and just below the threshold."""

    @pytest.fixture
    def min_eig_calls(self, monkeypatch):
        calls = []

        def counted(M):
            calls.append(M.shape[0])
            return linalg.min_eig(M)
        monkeypatch.setattr(inverse, "min_eig", counted)
        return calls

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("side", [1, -1])
    def test_verdict_matches_dense_scan(self, rng, min_eig_calls, p, k, side):
        alpha = at_threshold(random_taylor(rng, p, 20), 1 + side * 10.0 ** -k)
        first = dense_first_not_pd(alpha)
        assert (first is None) == (side > 0)
        if first is None:
            dz.inverse_potentials(alpha)
        else:
            with pytest.raises(ToeplitzNotPD) as info:
                dz.inverse_potentials(alpha)
            assert info.value.index == info.value.failing_index == first
        if side > 0 and k <= 2:
            assert min_eig_calls == []    # certified by the factorization alone
        if k >= 4:
            assert min_eig_calls          # within the rounding margin: the exact test decides

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_takes_the_exact_path(self, rng, min_eig_calls, bad):
        blocks = list(random_taylor(rng, 2, 12).alpha)
        blocks[5] = blocks[5].copy()
        blocks[5][1, 0] = bad
        with pytest.raises(ToeplitzNotPD) as info:
            dz.inverse_potentials(dz.TaylorSequence(p=2, alpha=tuple(blocks)))
        assert info.value.index == 5
        assert min_eig_calls[0] == 26     # S(N) first, as the exact test does
