"""The window generator's invariant blocks, and the vacuum closed form
against a 40-digit `mpmath.expm` of each block."""

import itertools

import mpmath
import numpy as np
import pytest

from twocav import dynamics
from twocav.states import FockWindow

# Invariant blocks of vec(rho) (row-major, index 4 i + j): the populations,
# two coherence pairs and their transposes, and four singletons.
BLOCKS = {
    "populations": [0, 5, 10, 15],
    "rho12, rho34": [1, 11],
    "rho21, rho43": [4, 14],
    "rho13, rho24": [2, 7],
    "rho31, rho42": [8, 13],
    "rho14": [3],
    "rho41": [12],
    "rho23": [6],
    "rho32": [9],
}

SMALL_WINDOWS = [FockWindow(n1, m1) for n1 in range(4) for m1 in range(4)]


@pytest.mark.parametrize("closure", [dynamics.LEAKY, dynamics.PAPER_CLOSURE])
@pytest.mark.parametrize("nbar", [0.0, 0.3, 2.5])
def test_generator_has_no_entry_outside_its_nine_blocks(nbar, closure):
    inside = np.zeros((16, 16), dtype=bool)
    for idx in BLOCKS.values():
        inside[np.ix_(idx, idx)] = True
    assert sorted(itertools.chain(*BLOCKS.values())) == list(range(16))
    for window in SMALL_WINDOWS:
        gen = dynamics.generator_matrix(
            dynamics.EvolutionParams(window=window, nbar=nbar, closure_mode=closure))
        assert not np.any(gen[~inside])


@pytest.mark.parametrize("closure", [dynamics.LEAKY, dynamics.PAPER_CLOSURE])
@pytest.mark.parametrize("nbar", [0.0, 0.3, 2.5])
def test_generator_is_transpose_symmetric_bit_for_bit(nbar, closure):
    # d rho_ji / d rho_lk = d rho_ij / d rho_kl: the coefficients are real.
    # Compared as bytes, so a signed zero on one side only fails.
    for window in SMALL_WINDOWS:
        a4 = dynamics.generator_matrix(dynamics.EvolutionParams(
            window=window, nbar=nbar, closure_mode=closure)).reshape(4, 4, 4, 4)
        assert a4.transpose(1, 0, 3, 2).tobytes() == a4.tobytes()


def _error(value, reference):
    return float(abs(mpmath.mpc(value.real, value.imag) - reference))


def test_vacuum_closed_form_is_no_less_accurate_than_expm():
    # A random full state touches every block.  Each block's reference is
    # mpmath.expm of that block of the generator at 40 digits; a block and
    # its transpose share their generator block.
    rng = np.random.default_rng(16)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = g @ g.conj().T
    rho0 /= np.trace(rho0).real
    thetas = np.array([0.003, 0.2, 1.0, 4.0, 12.0])
    worst_closed = worst_expm = 0.0
    with mpmath.workdps(40):
        v0 = [mpmath.mpc(z.real, z.imag) for z in rho0.ravel()]
        for window in (FockWindow(0, 0), FockWindow(1, 0), FockWindow(0, 2),
                       FockWindow(2, 1), FockWindow(3, 3)):
            params = dynamics.EvolutionParams(window=window)
            gen = dynamics.generator_matrix(params)
            assert not np.any(gen.imag)
            closed = dynamics.evolve_analytic_vacuum(rho0, thetas, window).reshape(-1, 16)
            expm = dynamics._expm_states(rho0, params, thetas, thetas).reshape(-1, 16)
            for k, theta in enumerate(thetas):
                props = {}
                for idx in BLOCKS.values():
                    block = gen.real[np.ix_(idx, idx)]
                    if block.tobytes() not in props:
                        props[block.tobytes()] = mpmath.expm(
                            mpmath.matrix(block.tolist()) * theta)
                    prop = props[block.tobytes()]
                    for i, row in enumerate(idx):
                        ref = mpmath.fsum(prop[i, j] * v0[col] for j, col in enumerate(idx))
                        worst_closed = max(worst_closed, _error(closed[k, row], ref))
                        worst_expm = max(worst_expm, _error(expm[k, row], ref))
    assert worst_closed <= worst_expm
