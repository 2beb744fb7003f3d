"""End-to-end acceptance checks.

Each test prints a single pass/fail line (written to the real stdout so the
lines survive pytest's capture) and then asserts, so a failure is visible both
in the printed summary and in the pytest report.
"""

import sys

import numpy as np
import pytest

import diracszego as dz
from diracszego.pseudoexp import _states
from conftest import disk_taylor, max_block_dev, random_schur

TRIPLES = ((1.0, 1.0, 1.0), (2.0, 1.0, 1j), (-0.5, np.exp(1j * np.pi / 5), 1.0))
LAMBDA_GRID = (1 - 1j, -2j, 3 - 0.5j)


def report(ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}", file=sys.__stdout__, flush=True)
    assert ok, label


@pytest.fixture(scope="module")
def zoo(rng_module):
    """Generated and converted systems exercised by the invariant suite."""
    systems = []
    for a, Phi, Psi in TRIPLES:
        sys_out, _ = dz.generate(dz.example41_params(a, Phi, Psi), 12)
        systems.append(("closed-form", sys_out))
    for _ in range(2):
        params = dz.random_bdt_parameters(rng_module, 3, 1, normalized=True)
        systems.append(("random-params", dz.generate(params, 8)[0]))
    for _ in range(2):
        sysd = dz.szego_to_dirac(dz.schur_to_R(random_schur(rng_module, 16)))
        systems.append(("schur", sysd))
    systems.append(("block", dz.szego_to_dirac(
        dz.random_szego_sequence(rng_module, 2, 12))))
    return systems


@pytest.fixture(scope="module")
def rng_module():
    return np.random.default_rng(717)


def test_criterion_01_closed_form_oracle(rng_module):
    worst_c, worst_phi = 0.0, 0.0
    for a, Phi, Psi in TRIPLES:
        params = dz.example41_params(a, Phi, Psi)
        sys_out, _ = dz.generate(params, 50)
        _, phi_closed = dz.example41(a, Phi, Psi, 0)
        for k in range(51):
            C_closed, _ = dz.example41(a, Phi, Psi, k)
            worst_c = max(worst_c, float(np.abs(sys_out.C[k] - C_closed).max()))
        for _ in range(10):
            lam = rng_module.standard_normal() - 1j * rng_module.uniform(0.05, 3.0)
            worst_phi = max(worst_phi,
                            abs(dz.explicit_weyl(params, lam)[0, 0] - phi_closed(lam)))
    report(worst_c < 1e-10 and worst_phi < 1e-12,
           f"criterion 1: closed-form oracle (C dev {worst_c:.2e}, "
           f"Weyl dev {worst_phi:.2e})")


def test_criterion_02_fundamental_equivalence(rng_module):
    cases = [dz.example41_params(1.0, 1.0, 1.0)]
    for n, p in ((2, 1), (3, 1), (4, 1), (3, 2), (4, 2)):
        cases.append(dz.random_bdt_parameters(rng_module, n, p, normalized=True))
    worst = 0.0
    for params in cases:
        sys_out, states = dz.generate(params, 8)
        for lam in LAMBDA_GRID:
            for k in (1, 4, 8):
                W_prop = dz.propagate(sys_out, lam, k)
                W_exp = dz.explicit_fundamental(params, k, lam)
                worst = max(worst, float(np.linalg.norm(W_prop - W_exp)
                                         / np.linalg.norm(W_prop)))
    report(worst < 1e-9, f"criterion 2: explicit vs propagated solution "
                         f"(relative dev {worst:.2e})")


def test_criterion_03_invariant_suite(zoo):
    worst = {"junitary": 0.0, "eig": np.inf, "eig_pm": np.inf,
             "summation": 0.0, "intertwine": 0.0, "determinant": 0.0}
    for _, sysd in zoo:
        j = sysd.ctx.j
        for C in sysd.C:
            worst["junitary"] = max(worst["junitary"],
                                    float(np.linalg.norm(C @ j @ C - j)))
            worst["eig"] = min(worst["eig"], dz.linalg.min_eig(C))
            worst["eig_pm"] = min(worst["eig_pm"], dz.linalg.min_eig(C + j),
                                  dz.linalg.min_eig(C - j))
        for lam in LAMBDA_GRID:
            W = dz.propagate(sysd, lam, sysd.N + 1)
            Wc = dz.propagate(sysd, np.conj(lam), sysd.N + 1)
            # residuals are relative to the size of the quantities compared;
            # fundamental solutions grow exponentially on long sequences
            sum_scale = max(dz.q_weight(lam) ** sysd.N
                            * np.linalg.norm(W) ** 2 * np.linalg.norm(sysd.C[-1]), 1.0)
            worst["summation"] = max(
                worst["summation"],
                dz.summation_residual(sysd, lam, sysd.N) / sum_scale)
            factor = ((lam + 1j) * (lam - 1j) / lam**2) ** (sysd.N + 1)
            resid = np.linalg.norm(W @ j @ Wc.conj().T - factor * j)
            det_scale = max(float(np.linalg.norm(W) * np.linalg.norm(Wc)), abs(factor))
            worst["determinant"] = max(worst["determinant"], float(resid / det_scale))
    # transfer-matrix intertwining with the one-step factor, on a generated run
    params = dz.example41_params(2.0, 1.0, 1j)
    sys_out, states = dz.generate(params, 8)
    m, j = params.ctx.m, params.ctx.j
    for k in range(8):
        for lam in LAMBDA_GRID:
            left = dz.transfer(params, states[k + 1], lam) @ (np.eye(m) - (1j / lam) * j)
            right = (np.eye(m) - (1j / lam) * j @ sys_out.C[k]) \
                @ dz.transfer(params, states[k], lam)
            worst["intertwine"] = max(worst["intertwine"],
                                      float(np.linalg.norm(left - right)))
    ok = (worst["junitary"] < 1e-10 and worst["eig"] > 0
          and worst["eig_pm"] > -1e-10 and worst["summation"] < 1e-9
          and worst["intertwine"] < 1e-10 and worst["determinant"] < 1e-9)
    report(ok, "criterion 3: invariant suite "
               f"(j-unitary {worst['junitary']:.2e}, summation "
               f"{worst['summation']:.2e}, intertwine {worst['intertwine']:.2e}, "
               f"determinant {worst['determinant']:.2e})")


def test_criterion_04_round_trip(rng_module):
    worst = 0.0
    sys_out, _ = dz.generate(dz.example41_params(1.0, 1.0, 1.0), 10)
    cases = [sys_out]
    for _ in range(10):
        cases.append(dz.szego_to_dirac(dz.schur_to_R(random_schur(rng_module, 20))))
    for _ in range(5):
        cases.append(dz.szego_to_dirac(dz.random_szego_sequence(rng_module, 2, 12)))
    for sysd in cases:
        back = dz.inverse_potentials(dz.direct_taylor(sysd))
        worst = max(worst, max_block_dev(sysd.C, back.C))
    report(worst < 1e-8, f"criterion 4: inverse-direct round trip (dev {worst:.2e})")


def test_criterion_05_cross_pipeline(rng_module):
    params41 = dz.example41_params(1.0, 1.0, 1.0)
    cases = [params41]
    for _ in range(3):
        cases.append(dz.random_bdt_parameters(rng_module, 3, 1, normalized=True))
    worst = 0.0
    for params in cases:
        sys_out, _ = dz.generate(params, 6)
        alpha_fft = dz.rational_taylor(params, 6)
        alpha_rec = dz.direct_taylor(sys_out)
        worst = max(worst, max_block_dev(alpha_fft.alpha, alpha_rec.alpha))
    lead = abs(dz.rational_taylor(params41, 0).alpha[0][0, 0] - (2 + 1j))
    report(worst < 1e-7 and lead < 1e-10,
           f"criterion 5: FFT vs recursion coefficients (dev {worst:.2e}, "
           f"leading dev {lead:.2e})")


def test_criterion_06_toeplitz_structure(rng_module, zoo):
    worst_lyap = 0.0
    for _ in range(20):
        p = int(rng_module.integers(1, 3))
        N = int(rng_module.integers(1, 8))
        alpha = dz.TaylorSequence(p=p, alpha=tuple(
            rng_module.standard_normal((p, p)) + 1j * rng_module.standard_normal((p, p))
            for _ in range(N + 1)))
        worst_lyap = max(worst_lyap, dz.lyapunov_residual(alpha))
    min_eig = np.inf
    worst_jnorm = 0.0
    for _, sysd in zoo:
        alpha = dz.direct_taylor(sysd)
        min_eig = min(min_eig, min(dz.toeplitz_positivity(alpha)))
        back = dz.inverse_potentials(alpha)
        for b in dz.beta_from_potentials(back).beta:
            worst_jnorm = max(worst_jnorm, float(np.linalg.norm(
                b @ back.ctx.J @ b.conj().T - np.eye(back.p))))
    report(worst_lyap < 1e-11 and min_eig > 0 and worst_jnorm < 1e-10,
           f"criterion 6: Toeplitz structure (Lyapunov {worst_lyap:.2e}, "
           f"min eig {min_eig:.2e}, J-normalization {worst_jnorm:.2e})")


def test_criterion_07_uniqueness(rng_module):
    ok = True
    worst = 0.0
    for _ in range(5):
        base = dz.szego_to_dirac(dz.schur_to_R(random_schur(rng_module, 15)))
        alt = dz.szego_to_dirac(dz.schur_to_R(random_schur(rng_module, 15)))
        mix = dz.PotentialSequence(ctx=base.ctx, C=np.concatenate([base.C[:13], alt.C[13:]]))
        agree, dev, _ = dz.borg_marchenko_check(base, mix, 12)
        ok = ok and agree and dev < 1e-8
        worst = max(worst, dev if dev is not None else np.inf)
        agree, _, first = dz.borg_marchenko_check(base, mix, 15)
        ok = ok and (not agree) and first == 13
    report(ok, f"criterion 7: shared prefix forces shared potentials "
               f"(dev {worst:.2e}, divergence at 13)")


def test_criterion_08_conversion_bijection(rng_module):
    worst_r, worst_c = 0.0, 0.0
    for p, N in ((1, 20), (2, 12), (1, 8), (2, 6)):
        sz = dz.random_szego_sequence(rng_module, p, N)
        sysd = dz.szego_to_dirac(sz)
        sz_back = dz.dirac_to_szego(sysd)
        worst_r = max(worst_r, max(np.linalg.norm(a - b)
                                   for a, b in zip(sz.R, sz_back.R)))
        sys_back = dz.szego_to_dirac(sz_back)
        worst_c = max(worst_c, max_block_dev(sysd.C, sys_back.C))
    rho = random_schur(rng_module, 20)
    rho_back = dz.schur_coeffs(dz.schur_to_R(rho))
    worst_s = max(abs(a - b) for a, b in zip(rho.rho, rho_back.rho))
    report(worst_r < 1e-10 and worst_c < 1e-10 and worst_s < 1e-12,
           f"criterion 8: form-conversion round trips (factors {worst_r:.2e}, "
           f"coefficients {worst_c:.2e}, scalar {worst_s:.2e})")


def test_criterion_09_disk_gauge_independence():
    sys_out, _ = dz.generate(dz.example41_params(1.0, 1.0, 1.0), 6)
    pair_a = dz.MoebiusPair(R=np.zeros((1, 1)), Q=np.eye(1))
    pair_b = dz.MoebiusPair(R=0.5 * np.eye(1), Q=np.eye(1))
    coeffs_a = disk_taylor(sys_out, pair_a, 6)
    coeffs_b = disk_taylor(sys_out, pair_b, 6)
    dev = max_block_dev(coeffs_a, coeffs_b)
    report(dev < 1e-6, f"criterion 9: disk gauge independence (dev {dev:.2e})")


def test_criterion_10_weyl_bound():
    params = dz.example41_params(1.0, 1.0, 1.0)
    states = _states(params, 202)
    lambdas = (1 - 1j, -2j, 0.3 - 0.7j, -0.5 - 1.5j, 2 - 0.1j)
    worst = -np.inf
    for lam in lambdas:
        bound = (abs(lam) ** 2 + 1) / (2 * abs(lam.imag))
        for r in range(0, 201, 10):
            excess = np.linalg.eigvalsh(
                dz.explicit_partial_sum(params, lam, r)
                - bound * np.eye(1))[-1]
            worst = max(worst, float(excess))
    bounded = worst <= 1e-10
    # deliberately wrong candidate must break the bound before r = 200
    sys_out, _ = dz.generate(params, 200)
    lam = -2j
    bound = (abs(lam) ** 2 + 1) / (2 * abs(lam.imag))
    exceeded_at = None
    for r in range(0, 201, 10):
        out = dz.weyl_partial_sum(sys_out, lambda l: np.array([[0.9]]), lam, r)
        if out[0, 0].real > bound:
            exceeded_at = r
            break
    report(bounded and exceeded_at is not None,
           f"criterion 10: half-plane Weyl bound to r=200 (max excess "
           f"{worst:.2e}; wrong candidate exceeds at r={exceeded_at})")
