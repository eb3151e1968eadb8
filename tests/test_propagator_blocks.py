"""The window generator's invariant blocks, and the vacuum closed form
against a 40-digit `mpmath.expm` of each block."""

import itertools

import mpmath
import numpy as np
import pytest

from twocav import dynamics, states, teleport as tp
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


# Swapping the two modes maps window (n1, m1) to (m1, n1) and exchanges
# basis states 2 and 3; on vec(rho) that is Q = P (x) P.
_SWAP = np.eye(4)[[0, 2, 1, 3]]
_MODE_EXCHANGE = np.kron(_SWAP, _SWAP)
# (row, column) entries of vec(rho) where exchange fails at every nbar:
# the rho12 <- rho34 and rho13 <- rho24 feeds both take n1 + 1, where
# exchange asks for m1 + 1 in one of them, and their transposes.
_FEEDS = [(1, 11), (2, 7), (4, 14), (8, 13)]
# ...and at nbar > 0 only: the rho12 and rho13 thermal decays, which share
# 1/2 nbar (2 n1 + m1 + 3), and their transposes.
_THERMAL_DECAYS = [(1, 1), (2, 2), (4, 4), (8, 8)]


@pytest.mark.parametrize("closure", [dynamics.LEAKY, dynamics.PAPER_CLOSURE])
@pytest.mark.parametrize("nbar", [0.0, 0.3, 2.5])
def test_mode_exchange_maps_the_generator_to_its_mirror_window(nbar, closure):
    known = np.zeros((16, 16), dtype=bool)
    for i, j in _FEEDS + (_THERMAL_DECAYS if nbar > 0 else []):
        known[i, j] = True
    for n1, m1 in ((0, 1), (0, 2), (2, 1), (1, 3), (3, 0)):
        a, mirror = (dynamics.generator_matrix(dynamics.EvolutionParams(
            window=FockWindow(*w), nbar=nbar, closure_mode=closure))
            for w in ((n1, m1), (m1, n1)))
        gap = np.abs(_MODE_EXCHANGE @ a @ _MODE_EXCHANGE.T - mirror)
        assert np.all(gap[~known] <= 1e-12), (n1, m1)
        # The named entries do differ, so a fix of either shows here.
        assert np.all(gap[known] > 1e-12), (n1, m1)


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
            expm = dynamics._expm_vectors(rho0, params, thetas)
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


def test_x_structure_survives_every_propagator():
    # The blocks keep each zero of an X state's rho0 exact, so the X
    # structure decided on any evolved state is that of rho0: on the closed
    # form, on both `expm` generators (nbar > 0 and the paper closure) and
    # on RK4.  Teleporting an X channel gives an X output.
    times = np.linspace(0.0, 1.5, 7)
    off_diagonal = ~np.eye(4, dtype=bool)
    model = dynamics.Markovian(1.0)
    inputs = [tp.input_state(0.3, 0.7, order) for order in (tp.PRINTED, tp.SYMMETRIC)]
    for window in (FockWindow(0, 0), FockWindow(1, 2), FockWindow(2, 1)):
        coherent = states.pure_state(states.coherent_amplitudes_paper(1.3, window))
        for rho0 in (states.build_epr(0.6, 0.8), states.build_noon(0.8, 0.6),
                     np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex), coherent):
            zeros = (rho0 == 0) & off_diagonal
            runs = [dynamics.evolve_analytic_vacuum(rho0, times, window)]
            for nbar, closure in ((0.0, dynamics.LEAKY), (0.3, dynamics.LEAKY),
                                  (0.0, dynamics.PAPER_CLOSURE)):
                params = dynamics.EvolutionParams(window=window, nbar=nbar,
                                                  closure_mode=closure)
                if nbar or closure != dynamics.LEAKY:  # the expm path
                    runs.append(dynamics.evolve(rho0, params, model, times).states)
                runs.append(dynamics.evolve_ode(rho0, params, model, times, 20).states)
            outside0, corners0 = states.x_corners(rho0)
            for stack in runs:
                assert not np.any(stack[:, zeros])
                outside, corners = states.x_corners(stack)
                assert np.all(outside == outside0) and np.all(corners == corners0)
                if not outside0:
                    for inp in inputs:
                        out = tp.teleport_general(stack, inp).rho_out
                        assert not np.any(states.x_corners(out)[0])
