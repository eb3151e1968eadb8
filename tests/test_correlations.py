import math

import numpy as np
import pytest

from twocav import correlations as co, dynamics, errata, states
from twocav.errors import DomainError

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_x_state(rng):
    d = rng.random(4)
    d /= d.sum()
    a14 = (2.0 * rng.random() - 1.0) * math.sqrt(d[0] * d[3])
    a23 = (2.0 * rng.random() - 1.0) * math.sqrt(d[1] * d[2])
    rho = np.diag(d).astype(complex)
    rho[0, 3] = rho[3, 0] = a14
    rho[1, 2] = rho[2, 1] = a23
    return rho


def test_partial_transpose_swaps_second_index():
    rng = np.random.default_rng(0)
    rho = random_state(rng)
    pt = co.partial_transpose_b(rho)
    assert pt[0, 1] == rho[1, 0]
    assert pt[0, 3] == rho[1, 2]
    assert np.allclose(co.partial_transpose_b(pt), rho)


def test_bell_state_measures_are_unity():
    for rho in (
        states.build_epr(INV_SQRT2, INV_SQRT2),
        states.build_noon(INV_SQRT2, INV_SQRT2),
    ):
        assert co.negativity(rho) == pytest.approx(0.5, abs=1e-12)
        assert co.log_negativity(rho) == pytest.approx(1.0, abs=1e-12)
        assert co.concurrence(rho) == pytest.approx(1.0, abs=1e-12)
        assert co.discord_x(rho) == pytest.approx(1.0, abs=1e-10)


def test_separable_states_have_zero_measures():
    rho = np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex)
    assert co.negativity(rho) == pytest.approx(0.0, abs=1e-12)
    assert co.concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_log_negativity_identity_random_states():
    rng = np.random.default_rng(5)
    for i in range(100):
        rho = random_state(rng)
        n = co.negativity(rho)
        assert co.log_negativity(rho) == pytest.approx(
            math.log2(1.0 + 2.0 * n), abs=1e-10
        )
        # The report's discord falls back to brute force on these non-X
        # states, so check every tenth one to keep the suite fast.
        if i % 10 == 0:
            rep = co.correlation_report(rho)
            assert rep.log_negativity == co.log_negativity(rho)
            assert rep.negativity == n


def test_x_state_concurrence_closed_forms():
    rng = np.random.default_rng(6)
    for _ in range(100):
        rho = random_x_state(rng)
        closed = max(co.concurrence_x_epr(rho), co.concurrence_x_noon(rho))
        assert closed == pytest.approx(co.concurrence(rho), abs=1e-12)


def test_x_state_log_negativity_closed_forms():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = random_x_state(rng)
        rho_epr = rho.copy()
        rho_epr[1, 2] = rho_epr[2, 1] = 0.0
        assert co.log_negativity_x_epr(rho_epr) == pytest.approx(
            co.log_negativity(rho_epr), abs=1e-10
        )
        rho_noon = rho.copy()
        rho_noon[0, 3] = rho_noon[3, 0] = 0.0
        assert co.log_negativity_x_noon(rho_noon) == pytest.approx(
            co.log_negativity(rho_noon), abs=1e-10
        )


def test_discord_x_matches_bruteforce():
    rng = np.random.default_rng(8)
    for _ in range(25):
        rho = random_x_state(rng)
        assert co.discord_x(rho) == pytest.approx(
            co.discord_bruteforce(rho), abs=1e-4
        )


def test_refinement_objective_reproduces_the_scan_bit_for_bit():
    # The Nelder-Mead objective evaluates one (theta, phi) of the scan's
    # function; at a scan point it gives the scan's bits.
    rng = np.random.default_rng(11)
    n = co.BRUTEFORCE_GRID
    thetas = np.linspace(0.0, math.pi, n)
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pure = states.build_epr(0.6, 0.8)
    product = np.kron(np.diag([0.7, 0.3]), np.diag([0.4, 0.6])).astype(complex)
    for rho in (random_state(rng), random_state(rng), pure, product):
        scan = co._conditional_entropy_grid(rho, thetas, phis).reshape(n, n)
        for i, j in ((0, 0), (n - 1, n - 1), (17, 40), (40, 17), (n // 2, 0)):
            point = co._conditional_entropy_grid(rho, thetas[[i]], phis[[j]])
            assert point.tobytes() == scan[i, j:j + 1].tobytes()


def test_discord_x_rejects_non_x_states():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = rho[1, 0] = 0.1
    with pytest.raises(DomainError):
        co.discord_x(rho)


def test_discord_printed_variant_goes_negative():
    # The printed second candidate misses the entropy weights on the
    # population sum; on the Bell state it under-shoots badly.
    rho = states.build_epr(INV_SQRT2, INV_SQRT2)
    printed = errata.discord_second_branch_printed(rho)
    corrected = co.discord_x(rho)
    assert printed < corrected
    assert corrected == pytest.approx(1.0, abs=1e-10)


def test_discord_zero_for_product_state():
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert co.discord_x(rho) == pytest.approx(0.0, abs=1e-10)
    assert co.discord_bruteforce(rho) == pytest.approx(0.0, abs=1e-8)


def test_correlation_report_falls_back_to_bruteforce():
    rng = np.random.default_rng(9)
    rho = random_state(rng)
    rep = co.correlation_report(rho)
    assert rep.discord == pytest.approx(co.discord_bruteforce(rho), abs=1e-9)


def test_measures_decay_along_trajectory():
    rho0 = states.build_epr(INV_SQRT2, INV_SQRT2)
    thetas = np.linspace(0.0, 1.5, 16)
    ln = [
        co.log_negativity(dynamics.evolve_analytic_vacuum(rho0, th, states.FockWindow()))
        for th in thetas
    ]
    assert all(x >= y - 1e-12 for x, y in zip(ln, ln[1:]))
    assert ln[0] == pytest.approx(1.0, abs=1e-10)
