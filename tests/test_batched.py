"""The stages that run on stacks (one NumPy call per recursion step or per
stage) against their per-step forms in conftest: the same bits where the
arithmetic is unchanged, the same error where a gate fails, and a bounded
number of LAPACK calls."""

import warnings

import numpy as np
import pytest

import diracszego as dz
from diracszego import io, linalg
from diracszego.errors import (
    InvariantViolated,
    NotPositiveDefinite,
    RankMismatch,
    SingularLeadingBlock,
    SingularVMinus,
)
from diracszego.policy import DEFAULT_POLICY
from conftest import (
    dense_taylor_from_beta,
    loop_beta_from_potentials,
    loop_block_levinson,
    loop_dirac_to_szego,
    loop_failures,
    loop_generate,
    loop_inverse_potentials,
    loop_normalized_states,
    loop_states,
    loop_szego_to_dirac,
    loop_validate,
)


def random_system(rng, p, N, scale=0.1):
    return dz.szego_to_dirac(dz.random_szego_sequence(rng, p, N, scale))


def benchmark_draws(seed, count=4):
    """The spectral-roundtrip workload's Szego inputs: p = 2, N = 128, scale 0.05."""
    rng = np.random.default_rng(seed)
    return [dz.random_szego_sequence(rng, 2, 128, 0.05) for _ in range(count)]


def identical(seq_a, seq_b):
    return len(seq_a) == len(seq_b) and all(np.array_equal(a, b) for a, b in zip(seq_a, seq_b))


def same_error(call, reference):
    """Run both; they must raise the same type with the same message."""
    with pytest.raises(Exception) as expected:
        reference()
    with pytest.raises(type(expected.value)) as got:
        call()
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    return got.value


RANDOM_CASES = [(p, N, seed) for p in (1, 2, 3) for N, seed in ((0, 1), (1, 2), (9, 3), (37, 4))]


@pytest.fixture(scope="module")
def bench_szego():
    return benchmark_draws(7)


@pytest.fixture(scope="module")
def bench_systems(bench_szego):
    return [dz.szego_to_dirac(sz) for sz in bench_szego]


class TestBatchedEquivalence:
    @pytest.mark.parametrize("p, N, seed", RANDOM_CASES)
    def test_random_inputs(self, p, N, seed):
        sz = dz.random_szego_sequence(np.random.default_rng(seed), p, N, 0.1)
        sys_in = dz.szego_to_dirac(sz)
        assert identical(sys_in.C, loop_szego_to_dirac(sz).C)
        self.assert_equivalent(sys_in)

    def test_benchmark_draws(self, bench_szego, bench_systems):
        for sz, sys_in in zip(bench_szego, bench_systems):
            assert identical(sys_in.C, loop_szego_to_dirac(sz).C)
            self.assert_equivalent(sys_in)

    def test_scalar_draws_of_benchmark_length(self):
        """p = 1 at N = 128: long enough that a one-ulp change in how theta
        is rounded shows on some step."""
        rng = np.random.default_rng(11)
        for _ in range(4):
            sz = dz.random_szego_sequence(rng, 1, 128, 0.1)
            sys_in = dz.szego_to_dirac(sz)
            assert identical(sys_in.C, loop_szego_to_dirac(sz).C)
            self.assert_equivalent(sys_in)

    @staticmethod
    def assert_equivalent(sys_in):
        assert identical(dz.beta_from_potentials(sys_in).beta,
                         loop_beta_from_potentials(sys_in).beta)
        alpha = dz.direct_taylor(sys_in)
        got, ref = list(linalg.block_levinson(alpha.alpha)), list(loop_block_levinson(alpha.alpha))
        assert len(got) == len(ref) == alpha.N + 1
        assert identical([B for B, _ in got], [B for B, _ in ref])
        assert identical([P for _, P in got], [P for _, P in ref])
        assert identical(dz.inverse_potentials(alpha).C, loop_inverse_potentials(alpha).C)
        got, ref = dz.dirac_to_szego(sys_in), loop_dirac_to_szego(sys_in)
        assert identical(got.R, ref.R) and np.array_equal(got.theta, ref.theta)
        assert_validate_matches(sys_in)

    def test_direct_taylor_matches_dense_reference(self, bench_systems):
        """The V_- recursion sums in a new order; its blocks stay within
        rounding of the dense formulation."""
        sys_in = bench_systems[0]
        got = dz.direct_taylor(sys_in).alpha
        ref = dense_taylor_from_beta(dz.beta_from_potentials(sys_in))
        assert max(float(np.linalg.norm(a - b) / np.linalg.norm(b))
                   for a, b in zip(got, ref)) < 1e-12


FIELDS = ("herm_residual", "junitary_residual", "min_eig", "min_eig_plus_j", "min_eig_minus_j")


def assert_validate_matches(sys_in):
    """Every field within 4.5e-16 relative (NaN where the reference is NaN),
    and the same failure lines."""
    report = dz.validate(sys_in)
    rows = loop_validate(sys_in)
    got = report.residuals
    ref = np.array(rows)
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    both = ~np.isnan(ref)
    assert np.all(np.abs(got - ref)[both] <= 4.5e-16 * np.abs(ref)[both])
    assert report.failures() == loop_failures(rows)
    return report


def edited_ex41_system(edit):
    """The example41 (1, 1, 1) system at N = 12 with ``edit`` applied to a
    writable copy of its C stack."""
    system, _ = dz.generate(dz.example41_params(1.0, 1.0, 1.0), 12)
    C = np.array(system.C)
    edit(C)
    return dz.PotentialSequence(ctx=system.ctx, C=C)


def nan_entry(C):
    C[2][0, 1] = np.nan


def broken_steps(C):
    C[3] *= 1.5            # C_3 is no longer j-unitary
    C[5][0, 1] += 0.2      # nor C_5 Hermitian
    C[7][0, 0] += 0.3


class TestValidationReport:
    """``validate`` returns one read-only residual array, columns named by
    ``CHECKS``; its document keeps one entry per step with the five fields."""

    def test_columns_and_read_only(self, ex41_system):
        residuals = dz.validate(ex41_system).residuals
        assert dz.CHECKS == FIELDS
        assert residuals.shape == (ex41_system.N + 1, len(FIELDS))
        assert residuals.dtype == float and not residuals.flags.writeable

    @pytest.mark.parametrize("edit, passed", [(lambda C: None, True), (nan_entry, False),
                                              (broken_steps, False)],
                             ids=["passing", "nan-entry", "failing-steps"])
    def test_report_payload_matches_per_step_rows(self, edit, passed):
        sys_in = edited_ex41_system(edit)
        report = assert_validate_matches(sys_in)     # residuals against the per-step rows
        failures = loop_failures(loop_validate(sys_in))
        got = io.report_payload(report)
        assert list(got) == ["passed", "steps", "failures"]
        assert got["passed"] == (not failures) == passed and got["failures"] == failures
        assert [list(step) for step in got["steps"]] == [["k", *FIELDS]] * (sys_in.N + 1)
        assert [step["k"] for step in got["steps"]] == list(range(sys_in.N + 1))
        assert np.array_equal(np.array([[step[f] for f in FIELDS] for step in got["steps"]]),
                              report.residuals, equal_nan=True)


class TestBatchedGateErrors:
    """A failing gate on a stack raises the type, message and first index
    the per-step form raises."""

    @pytest.fixture
    def system8(self):
        return random_system(np.random.default_rng(5), 2, 7)

    def replaced(self, sys_in, **blocks):
        C = list(sys_in.C)
        for key, value in blocks.items():
            C[int(key[1:])] = value
        return dz.PotentialSequence(ctx=sys_in.ctx, C=tuple(C))

    def test_rank_break(self, system8):
        broken = self.replaced(system8, C3=3 * np.eye(4, dtype=complex), C6=np.eye(4) * 5)
        err = same_error(lambda: dz.beta_from_potentials(broken),
                         lambda: loop_beta_from_potentials(broken))
        assert isinstance(err, RankMismatch)
        assert str(err).startswith("C_3 is not a valid potential")

    def test_first_coefficient_through_all_its_gates(self, system8):
        """C_1 passes the rank gates but is not j-unitary; C_5 fails a rank
        gate. C_1 is named, as in a loop that judges each C_k fully first."""
        broken = self.replaced(system8, C1=np.diag([2.0, 2.0, 1.0, 1.0]).astype(complex),
                               C5=np.eye(4, dtype=complex) * 3)
        err = same_error(lambda: dz.beta_from_potentials(broken),
                         lambda: loop_beta_from_potentials(broken))
        assert isinstance(err, InvariantViolated)
        assert str(err).startswith("C_1 is not a valid potential: beta(1) J-normalization")

    def test_indefinite_coefficient_in_szego_conversion(self, system8):
        broken = self.replaced(system8, C4=-system8.C[4], C6=-system8.C[6])
        err = same_error(lambda: dz.dirac_to_szego(broken), lambda: loop_dirac_to_szego(broken))
        assert isinstance(err, NotPositiveDefinite)
        assert str(err).startswith("-min_eig(C_4)")

    def test_szego_gates_judged_after_the_recursion(self, system8):
        """The steps after a failing one run on NaN without a warning."""
        broken = self.replaced(system8, C3=-system8.C[3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match=r"^-min_eig\(C_3\)") as info:
                dz.dirac_to_szego(broken)
        assert info.value.index == 3

    def test_overflowing_steps_after_a_failing_one(self, system8):
        """C_3 = 1e150 I fails R j R = j; the rotation after it grows to about
        1e225, so U_k* C_k U_k overflows from k = 4 on. The step and gate
        named are the per-step loop's, with the six-product rotation."""
        broken = self.replaced(system8, C3=1e150 * np.eye(4, dtype=complex))
        err = same_error(lambda: dz.dirac_to_szego(broken), lambda: loop_dirac_to_szego(broken))
        assert isinstance(err, InvariantViolated) and err.index == 3
        assert str(err).startswith("R_3 j R_3 - j residual")

    @pytest.mark.parametrize("fail_at, C1", [(4, None), (4, "indefinite"), (0, None)])
    def test_eigensolver_error_after_the_gates_before_it(self, system8, monkeypatch,
                                                         fail_at, C1):
        """A LinAlgError of eigh at step k is raised where a per-step loop
        raises it: after the gates of the steps before k, and of step k
        before the eigensolver, pass."""
        sys_in = system8 if C1 is None else self.replaced(system8, C1=-system8.C[1])
        eigh = np.linalg.eigh

        def failing_eigh(calls):
            def wrapper(a, *args, **kwargs):
                calls.append(1)
                if len(calls) == fail_at + 1:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return eigh(a, *args, **kwargs)
            return wrapper

        def run(convert):
            monkeypatch.setattr(np.linalg, "eigh", failing_eigh([]))
            return convert(sys_in)

        err = same_error(lambda: run(dz.dirac_to_szego), lambda: run(loop_dirac_to_szego))
        assert isinstance(err, NotPositiveDefinite if C1 else np.linalg.LinAlgError)

    def test_nan_entry_in_validate(self, ex41_params):
        sys4, _ = dz.generate(ex41_params, 4)
        C = [c.copy() for c in sys4.C]
        C[2][0, 1] = np.nan
        report = assert_validate_matches(dz.PotentialSequence(ctx=sys4.ctx, C=tuple(C)))
        assert not report.passed
        assert np.isnan(report.residuals[2]).all()

    @staticmethod
    def v_minus_singular_at_2(small):
        """p = 2 factors with v_-(0) = I, v_-(1) = I and v_-(2) = diag(1, small) / 2."""
        eye, zero = np.eye(2), np.zeros((2, 2))
        good = np.hstack([eye, eye / 2])
        bad = np.hstack([np.diag([1.0, small]), zero])
        return dz.BetaSequence(ctx=dz.SignatureContext(p=2), beta=(good, good, bad, good, good))

    @pytest.mark.parametrize("small, cond", [(0.0, np.inf), (1e-13, 1e13)])
    def test_singular_v_minus(self, small, cond):
        beta = self.v_minus_singular_at_2(small)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularVMinus) as info:
                dz.taylor_from_beta(beta)
        limit = DEFAULT_POLICY.cond_limit
        assert str(info.value) == (f"condition number of v_-(2) is {cond:.3e}, "
                                   f"allowed at most {limit:.3e}")

    def test_singular_v_minus_carries_its_step_as_index(self):
        with pytest.raises(SingularVMinus) as info:
            dz.taylor_from_beta(self.v_minus_singular_at_2(1e-13))
        assert info.value.index == 2 and info.value.measured > info.value.allowed

    def test_leading_block_is_judged_before_v_minus(self):
        beta = self.v_minus_singular_at_2(0.0)
        first = np.hstack([np.diag([1.0, 0.0]), np.eye(2) / 2])
        beta = dz.BetaSequence(ctx=beta.ctx, beta=(first, *beta.beta[1:]))
        with pytest.raises(SingularLeadingBlock, match=r"^condition number of the first block"):
            dz.taylor_from_beta(beta)


class TestStackedGeneration:
    """``generate`` runs the normalized recursion into two stacks, judges
    every state's identity in one pass and forms every C_k as one stacked
    difference: the states keep the per-step loop's bits, and C_k agrees with
    the recursion run in its own coordinates up to that recursion's rounding."""

    @staticmethod
    def draws():
        yield dz.example41_params(1.0, 1.0, 1.0), 1012
        yield dz.example41_params(-0.5, np.exp(1j * np.pi / 5), 1.0), 40
        rng = np.random.default_rng(3)
        for n, p in ((3, 2), (4, 1), (3, 1)):
            for _ in range(2):
                yield dz.random_bdt_parameters(rng, n, p), 12
        yield dz.random_bdt_parameters(np.random.default_rng(1), 3, 2, normalized=True), 28

    def test_states_bit_identical_and_potentials_to_rounding(self):
        for params, N in self.draws():
            sys_out, (A, Phi) = dz.generate(params, N)
            ref_A, ref_Phi = loop_normalized_states(params, N + 2)
            assert len(A) == len(Phi) == N + 2
            assert identical(A, ref_A)
            assert identical(Phi, ref_Phi)
            # in its own coordinates C_k = I + T_k - T_{k+1} cancels: each
            # solve's rounding is about eps cond(S_k) ||T_k||, T_k = Pi_k* S_k^{-1} Pi_k
            ref_out, (Pi, S) = loop_generate(params, N)
            T = Pi.conj().transpose(0, 2, 1) @ np.linalg.solve(S, Pi)
            w = np.maximum(np.linalg.cond(S) * np.linalg.norm(T, axis=(1, 2)), 1.0)
            dev = np.linalg.norm(np.asarray(sys_out.C) - np.asarray(ref_out.C), axis=(1, 2))
            assert np.all(dev <= 1e-12 * np.maximum(w[:-1], w[1:]))

    @pytest.mark.parametrize("params, N, k", [
        (dz.random_bdt_parameters(np.random.default_rng(1), 3, 2, normalized=True), 120, 34),
        (dz.example41_params(1.0, 1.0, 1.0), 1013, 1014),
    ], ids=["singular-to-working-precision", "overflow"])
    def test_failure_matches_per_step_loop(self, params, N, k):
        """At step k the recursion in its own coordinates fails: S_k is
        singular to working precision, or overflows. The normalized recursion
        runs past it, and the stacked run keeps the per-step loop's bits
        there, without a warning."""
        S = loop_states(params, k + 1)[1]
        if np.isfinite(S[k]).all():
            low = np.linalg.eigvalsh(S)[:, 0] / np.linalg.norm(S, axis=(1, 2))
            assert low[k] < DEFAULT_POLICY.tau_pd < low[k - 1]
        else:
            assert np.isfinite(S[k - 1]).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys_out, (A, Phi) = dz.generate(params, N)
        ref_A, ref_Phi = loop_normalized_states(params, N + 2)
        assert len(A) == len(Phi) == N + 2 > k
        assert identical(A, ref_A)
        assert identical(Phi, ref_Phi)
        assert dz.validate(sys_out).passed


class TestBatchedCallCount:
    """Counts LAPACK eigenvalue and SVD calls, so that a return to
    per-coefficient or per-step calls, or to an SVD per gate, shows without
    timing anything."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"eigvalsh": 0, "eigh": 0, "cond": 0, "svd": 0}

        def counted(name):
            fn = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        return calls

    def per_stage(self, counts, N):
        sys_in = random_system(np.random.default_rng(N), 2, N)
        beta = dz.beta_from_potentials(sys_in)
        out = {}
        for stage, run in (("validate", lambda: dz.validate(sys_in)),
                           ("beta", lambda: dz.beta_from_potentials(sys_in)),
                           ("taylor", lambda: dz.taylor_from_beta(beta))):
            counts.update(dict.fromkeys(counts, 0))
            run()
            out[stage] = dict(counts)
        return out

    def test_independent_of_length(self, counts):
        short, long = self.per_stage(counts, 8), self.per_stage(counts, 64)
        for stage in ("validate", "beta"):
            assert short[stage] == long[stage]
            assert short[stage]["eigvalsh"] + short[stage]["eigh"] == 1
        assert short["taylor"]["cond"] == long["taylor"]["cond"] == 0

    @pytest.mark.parametrize("N", [8, 64])
    def test_passing_paths_make_no_svd(self, counts, N):
        """Every cond_limit gate on a passing input is decided by its
        inverse certificate, without an SVD."""
        sys_in = random_system(np.random.default_rng(N), 2, N)
        params = dz.random_bdt_parameters(np.random.default_rng(N), 3, 2, normalized=True)
        for run in (lambda: dz.generate(params, N), lambda: dz.direct_taylor(sys_in),
                    lambda: dz.rational_taylor(params, 12)):
            counts.update(dict.fromkeys(counts, 0))
            run()
            assert counts["cond"] == counts["svd"] == 0

    def test_inverse_potentials_calls(self, monkeypatch):
        """inverse_potentials makes no einsum call and no inverse per step."""
        calls = {"einsum": 0, "inv": 0}
        einsum, inv = np.einsum, np.linalg.inv

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(np, "einsum", counted("einsum", einsum))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", inv))
        per_length = []
        for N in (8, 64):
            alpha = dz.direct_taylor(random_system(np.random.default_rng(N), 2, N))
            calls.update(dict.fromkeys(calls, 0))
            dz.inverse_potentials(alpha)
            per_length.append(dict(calls))
        assert per_length[0]["einsum"] == per_length[1]["einsum"] == 0
        assert per_length[0]["inv"] == per_length[1]["inv"]

    def test_szego_norm_calls_independent_of_length(self, monkeypatch):
        """dirac_to_szego takes its gate norms as stacks, not per step."""
        calls = []
        norm = np.linalg.norm

        def counted(*args, **kwargs):
            calls.append(1)
            return norm(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "norm", counted)
        per_length = []
        for N in (8, 64):
            sys_in = random_system(np.random.default_rng(N), 2, N)
            calls.clear()
            dz.dirac_to_szego(sys_in)
            per_length.append(len(calls))
        assert per_length[0] == per_length[1]

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_failing_stack_is_judged_in_one_pass(self, counts, k):
        """A coefficient that fails its rank gate is named after one batched
        eigh, with no replay one coefficient at a time."""
        sys_in = random_system(np.random.default_rng(5), 2, 7)
        C = list(sys_in.C)
        C[k] = 3 * np.eye(4, dtype=complex)
        broken = dz.PotentialSequence(ctx=sys_in.ctx, C=tuple(C))
        with pytest.raises(RankMismatch, match=rf"^C_{k} is not a valid potential"):
            dz.beta_from_potentials(broken)
        assert counts["eigh"] == 1
