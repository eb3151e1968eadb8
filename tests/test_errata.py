"""Machine-checked demonstrations that the printed closed forms kept in the
errata module disagree with their oracles, while the corrected forms agree."""

import math

import numpy as np
import pytest

from twocav import dynamics, states, wigner as wg

import errata
import oracles

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def dense_initial_state():
    vec = np.array([0.4, 0.5, 0.3, math.sqrt(1.0 - 0.5)], dtype=complex)
    vec /= np.linalg.norm(vec)
    return states.pure_state(vec)


def ode_populations(rho0, theta, m1):
    params = dynamics.EvolutionParams(window=states.FockWindow(m1, m1))
    times = np.linspace(0.0, theta, 50)
    traj = dynamics.evolve_ode(rho0, params, dynamics.Markovian(1.0), times)
    final = traj.states[-1]
    return tuple(final[i, i].real for i in range(4))


def test_printed_populations_fail_the_ode_oracle():
    rho0 = dense_initial_state()
    theta, m1 = 0.8, 1
    oracle = ode_populations(rho0, theta, m1)
    printed = errata.printed_populations(rho0, theta, m1)
    # rho22 printed: duplicate exponent, so the rho44 feed-in cancels and
    # the value is plain exponential decay of rho22(0) -- wrong.
    assert abs(printed[1] - oracle[1]) > 1e-3
    # rho33 printed: wrong feed-in weight and missing second exponential.
    assert abs(printed[2] - oracle[2]) > 1e-3
    # rho11 printed: missing third exponential.
    assert abs(printed[0] - oracle[0]) > 1e-3


def _vacuum_populations(rho0, theta, m1):
    """The diagonal of the vacuum closed form on window (m1, m1)."""
    rho = dynamics.evolve_analytic_vacuum(rho0, theta, states.FockWindow(m1, m1))
    return np.real(np.diagonal(rho))


def test_vacuum_closed_form_populations_pass_the_ode_oracle():
    rho0 = dense_initial_state()
    for theta in (0.2, 0.8):
        for m1 in (0, 1):
            oracle = ode_populations(rho0, theta, m1)
            fixed = _vacuum_populations(rho0, theta, m1)
            # First three populations are closed-form; the printed rho44
            # row closes the trace instead, so compare the leaky value.
            assert fixed[0] == pytest.approx(oracle[0], abs=1e-9)
            assert fixed[1] == pytest.approx(oracle[1], abs=1e-9)
            assert fixed[2] == pytest.approx(oracle[2], abs=1e-9)
            assert fixed[3] == pytest.approx(oracle[3], abs=1e-9)


def test_printed_rho22_exponent_pair_is_degenerate():
    # Both printed rho22 terms carry the same exponent, so the initial
    # rho44 weight drops out identically -- the signature of the typo.
    rho0 = dense_initial_state()
    no44 = rho0.copy()
    no44[3, 3] = 0.0
    a = errata.printed_populations(rho0, 0.5, 0)[1]
    b = errata.printed_populations(no44, 0.5, 0)[1]
    assert a == pytest.approx(b, abs=1e-15)
    # The corrected form does depend on rho44(0).
    a2 = _vacuum_populations(rho0, 0.5, 0)[1]
    b2 = _vacuum_populations(no44, 0.5, 0)[1]
    assert abs(a2 - b2) > 1e-3


def test_printed_parity_element_fails_the_oracle():
    for alpha in (0.5, 1.0, 0.3 + 0.4j):
        printed = errata.displaced_parity_printed(0, 0, alpha)
        oracle = oracles.displaced_parity_oracle(0, 0, alpha)
        assert abs(printed - oracle) > 1e-3


def test_corrected_parity_element_passes_the_oracle():
    for alpha in (0.0, 0.5, 1.0, 0.3 + 0.4j, -0.8 + 0.1j):
        for m, mp in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2)):
            lo = min(m, mp)
            fixed = wg._k_tables(*wg._polar(alpha), lo)[m - lo, mp - lo]
            oracle = oracles.displaced_parity_oracle(m, mp, alpha, check=False)
            assert fixed == pytest.approx(oracle, abs=1e-10)


def test_printed_parity_element_is_not_hermitian_off_origin():
    alpha = 0.6 + 0.3j
    k01 = errata.displaced_parity_printed(0, 1, alpha)
    k10 = errata.displaced_parity_printed(1, 0, alpha)
    oracle01 = oracles.displaced_parity_oracle(0, 1, alpha)
    # conjugate symmetry is imposed by construction, but the common value
    # is wrong:
    assert k01 == pytest.approx(np.conj(k10), abs=1e-12)
    assert abs(k01 - oracle01) > 1e-3


def test_printed_rho13_breaks_mode_exchange_symmetry():
    # On an n1 = m1 window the equations are symmetric under swapping the
    # two modes, so a state with rho12 = rho13 keeps it under evolution.
    vec = np.array([0.4, 0.5, 0.5, 0.3 + 0.2j])
    rho0 = states.pure_state(vec / np.linalg.norm(vec))
    times = np.linspace(0.0, 2.0, 9)
    model = dynamics.Markovian(1.0)
    for m in (0, 1, 2):
        for nbar in (0.0, 0.3):
            params = dynamics.EvolutionParams(window=states.FockWindow(m, m),
                                              nbar=nbar)
            traj = dynamics.evolve(rho0, params, model, times)
            assert np.max(np.abs(traj.states[:, 0, 1] - traj.states[:, 0, 2])) < 1e-15
            assert np.max(np.abs(traj.states[:, 1, 0] - traj.states[:, 2, 0])) < 1e-15
        # The printed rho13 decays faster than its rho12 mirror.  Theta = t
        # for the unit Markovian rate.
        vacuum = dynamics.evolve(rho0, dynamics.EvolutionParams(
            window=states.FockWindow(m, m)), model, times)
        gap = max(abs(errata.rho13_strict_printed(rho0, t, m) - rho[0, 1])
                  for t, rho in zip(times, vacuum.states))
        assert gap > 1e-2


def test_printed_discord_branch_is_negative():
    rho = states.build_epr(INV_SQRT2, INV_SQRT2)
    assert errata.discord_second_branch_printed(rho) < 0.0
