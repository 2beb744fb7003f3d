"""Causality in floating point: each map's output on the first K + 1 blocks of
its input is the first K + 1 blocks of its output on the whole input, bit for
bit. The prefixes sit on both sides of the 16-factor blocks of
``linalg.prefix_products``, so a block length or a carry that depends on the
input's length fails here."""

from functools import cache

import numpy as np
import pytest

import diracszego as dz

N = 200
LAMBDA = 0.7 - 0.4j


@cache
def szego_chain():
    """Random Szego (200, 0.05, seed 0) through the maps that read it: the
    factors, the potentials, their Taylor blocks and the inverse's potentials."""
    sz = dz.random_szego_sequence(np.random.default_rng(0), 2, N, 0.05)
    system = dz.szego_to_dirac(sz)
    alpha = dz.direct_taylor(system)
    return sz, system, alpha


def first(sz, system, alpha, K):
    """The first K + 1 blocks of each input."""
    return (dz.SzegoSequence(ctx=sz.ctx, R=sz.R[:K + 1], theta=sz.theta[:K + 1]),
            dz.PotentialSequence(ctx=system.ctx, C=system.C[:K + 1]),
            dz.TaylorSequence(p=alpha.p, alpha=alpha.alpha[:K + 1]))


SZEGO_MAPS = {
    "szego_to_dirac": lambda sz, system, alpha: dz.szego_to_dirac(sz).C,
    "dirac_to_szego": lambda sz, system, alpha: dz.dirac_to_szego(system).R,
    "direct_taylor": lambda sz, system, alpha: np.asarray(dz.direct_taylor(system).alpha),
    "inverse_potentials": lambda sz, system, alpha: dz.inverse_potentials(alpha).C,
    # W_0..W_{K+1}: W_{K+1} is the last that C_0..C_K determine
    "fundamental_solutions": lambda sz, system, alpha: dz.fundamental_solutions(
        system, LAMBDA, system.N + 1),
}


@cache
def whole(name):
    return SZEGO_MAPS[name](*szego_chain())


@pytest.mark.parametrize("K", [1, 15, 16, 17, 40, 123])
@pytest.mark.parametrize("name", sorted(SZEGO_MAPS))
def test_szego_draw(name, K):
    part = SZEGO_MAPS[name](*first(*szego_chain(), K))
    assert len(part) == K + 1 + (name == "fundamental_solutions")
    assert part.tobytes() == whole(name)[:len(part)].tobytes()


@cache
def rational_draw():
    params = dz.random_bdt_parameters(np.random.default_rng(1), 3, 2, normalized=True)
    return params, dz.generate(params, N)[0].C, np.asarray(dz.rational_taylor(params, N).alpha)


@pytest.mark.parametrize("K", [1, 16, 17, 100])
def test_rational_draw(K):
    params, C, alpha = rational_draw()
    assert dz.generate(params, K)[0].C.tobytes() == C[:K + 1].tobytes()
    assert np.asarray(dz.rational_taylor(params, K).alpha).tobytes() == alpha[:K + 1].tobytes()
