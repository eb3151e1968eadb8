import math
import tracemalloc

import numpy as np
import pytest

from twocav import cli, dynamics, scenario, states, wigner as wg
from twocav.errors import ConsistencyError, DomainError, QuadratureConvergenceError
from twocav.states import FockWindow

import errata
import oracles

W0 = FockWindow(0, 0)
VACUUM = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
FOCK_01 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)


def test_grid_validation():
    for points in (6, 9):
        for call in (wg.volume_pair, wg.wigner_field):
            with pytest.raises(DomainError):
                call(VACUUM, points)


def test_laguerre_values():
    assert wg.laguerre_assoc(0, 3, 1.7) == 1.0
    assert wg.laguerre_assoc(1, 0, 0.25) == pytest.approx(0.75)
    # L_2^1(2) = x^2/2 - 3x + 3 at x = 2.
    assert wg.laguerre_assoc(2, 1, 2.0) == pytest.approx(-1.0)
    with pytest.raises(DomainError):
        wg.laguerre_assoc(-1, 0, 0.0)


def test_displaced_parity_paper_origin_values():
    assert errata.displaced_parity_printed(0, 0, 0.0) == pytest.approx(1.0)
    assert errata.displaced_parity_printed(1, 1, 0.0) == pytest.approx(-1.0)
    assert errata.displaced_parity_printed(0, 1, 0.0) == 0.0


def test_displaced_parity_oracle_origin_and_convergence():
    assert oracles.displaced_parity_oracle(0, 0, 0.0) == pytest.approx(1.0, abs=1e-12)
    val = oracles.displaced_parity_oracle(0, 0, 1.0)
    assert val.real == pytest.approx(math.exp(-2.0), abs=1e-12)
    # convergence under cutoff + 10
    a = oracles.displaced_parity_oracle(1, 2, 0.7 - 0.2j, cutoff=60, check=False)
    b = oracles.displaced_parity_oracle(1, 2, 0.7 - 0.2j, cutoff=70, check=False)
    assert abs(a - b) < 1e-10


def test_displaced_parity_oracle_hermiticity():
    alpha = 0.3 + 0.4j
    k01 = oracles.displaced_parity_oracle(0, 1, alpha)
    k10 = oracles.displaced_parity_oracle(1, 0, alpha)
    assert k01 == pytest.approx(np.conj(k10), abs=1e-12)


def test_displaced_parity_oracle_cutoff_guard():
    with pytest.raises(DomainError):
        oracles.displaced_parity_oracle(3, 3, 0.1, cutoff=10)


def test_negative_fock_indices_raise():
    for element in (wg.displaced_parity, oracles.displaced_parity_oracle):
        for m, mp in ((-1, 0), (0, -1)):
            with pytest.raises(DomainError):
                element(m, mp, 0.2)


def test_displaced_parity_oracle_raises_when_not_converged():
    # At |alpha| = 6 the cutoff 21 truncates D(alpha) far from convergence.
    with pytest.raises(QuadratureConvergenceError):
        oracles.displaced_parity_oracle(0, 1, 6.0, cutoff=21)


def test_paper_elements_flagged_off_origin():
    # The printed closed form disagrees with the oracle away from alpha=0.
    alpha = 1.0
    paper = errata.displaced_parity_printed(0, 0, alpha)
    oracle = oracles.displaced_parity_oracle(0, 0, alpha)
    assert abs(paper - oracle) > 0.1


def test_parity_table_matches_oracle_elements():
    alphas = [0.0, 0.5, -0.3 + 0.8j]
    cut = oracles.suggested_cutoff(2, 1.0)
    table = wg.parity_table(alphas, 1, cut)
    for g, alpha in enumerate(alphas):
        for i, m in enumerate((1, 2)):
            for j, mp in enumerate((1, 2)):
                direct = oracles.displaced_parity_oracle(m, mp, alpha, check=False)
                assert table[g, i, j] == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("window", [FockWindow(0, 0), FockWindow(2, 2),
                                    FockWindow(3, 0)],
                         ids=lambda w: "n1=%d,m1=%d" % (w.n1, w.m1))
def test_closed_form_tables_match_parity_table(window):
    # Full default-extent 64-point grid, corners at |alpha| up to ~10.2.
    extent = wg.default_extent(window)
    ax = np.linspace(-extent, extent, 64)
    re, im = np.meshgrid(ax, ax, indexing="ij")
    pts = (re + 1j * im).ravel()
    amax = float(np.max(np.abs(pts)))
    for index in sorted({window.n1, window.m1}):
        table = wg._k_tables(pts, index)
        oracle = wg.parity_table(pts, index, oracles.suggested_cutoff(index + 1, amax))
        assert np.max(np.abs(table - oracle)) <= 1e-10
        # The table is displaced_parity element by element, bit for bit.
        rows = (index, index + 1)
        each = [wg.displaced_parity(p, q, pts) for p in rows for q in rows]
        assert table.tobytes() == np.stack(each, axis=-1).reshape(-1, 2, 2).tobytes()


def test_wigner_joint_matches_field_at_grid_points():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    window = FockWindow(1, 2)
    field = wg.wigner_field(rho, 8, window)
    ax = np.linspace(-field.extent, field.extent, 8)
    for i, j, k, l in ((0, 0, 0, 0), (1, 6, 3, 2), (4, 3, 7, 5), (7, 7, 0, 4)):
        joint = wg.wigner_joint(rho, ax[i] + 1j * ax[j], ax[k] + 1j * ax[l],
                                window)
        assert joint == pytest.approx(field.values[i, j, k, l], abs=1e-14)


def test_wigner_origin_parities():
    assert wg.wigner_joint(VACUUM, 0.0, 0.0, W0) == pytest.approx(
        4.0 / math.pi**2, abs=1e-10
    )
    assert wg.wigner_joint(FOCK_01, 0.0, 0.0, W0) == pytest.approx(
        -4.0 / math.pi**2, abs=1e-10
    )


def test_wigner_origin_on_shifted_window():
    # |1,1><1,1| has even total parity at the origin.
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert wg.wigner_joint(rho, 0.0, 0.0, FockWindow(1, 1)) == pytest.approx(
        4.0 / math.pi**2, abs=1e-10
    )


def test_vacuum_wigner_is_gaussian():
    for alpha in (0.3, 0.7 + 0.2j):
        val = wg.wigner_joint(VACUUM, alpha, 0.2, W0)
        expect = (4.0 / math.pi**2) * math.exp(
            -2.0 * abs(alpha) ** 2 - 2.0 * 0.04
        )
        assert val == pytest.approx(expect, abs=1e-10)


def test_field_normalization_vacuum():
    field = wg.wigner_field(VACUUM, 48, W0)
    assert wg.integrate_field(field) == pytest.approx(1.0, abs=1e-3)


def test_field_normalization_entangled_state():
    rho = states.build_epr(2**-0.5, 2**-0.5)
    field = wg.wigner_field(rho, 48, W0)
    assert wg.integrate_field(field) == pytest.approx(1.0, abs=1e-3)


def test_volume_vacuum_zero():
    fine, coarse = wg.volume_pair(VACUUM, 32, W0)
    assert abs(fine) < 1e-3
    assert abs(fine - coarse) <= 1e-2


def test_volume_fock_state_positive():
    fine, coarse = wg.volume_pair(FOCK_01, 48, W0)
    assert fine > 0.01
    assert abs(fine - coarse) <= 5e-2


def test_imaginary_residue_raises():
    # A non-Hermitian rho (rho_12 = 0.3, rho_21 = 0) gives W an imaginary
    # part: about 0.053 at this point and 0.0046 on the volume grid.
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.3
    with pytest.raises(ConsistencyError):
        wg.wigner_joint(rho, 0.3 + 0.1j, -0.2 + 0.4j)
    with pytest.raises(ConsistencyError):
        wg.volume_pair(rho, 10)


def test_volume_convergence_error_carries_both_values(tmp_path):
    # The CLI volume table gates the fine/coarse gap; 16 and 8 nodes of the
    # polar rule on a coherent state on window (3, 3) trip it (1.51 against
    # 2.17 here).
    scn = scenario.parse_scenario(
        "schema = 1\nstate = coherent\nnbar_prime = 2.0\nmodel = markovian\n"
        "n1 = 3\nm1 = 3\nt_max = 0\nsteps = 2\npoints = 16\n")
    assert states.x_corners(scn.rho0)[0]
    with pytest.raises(QuadratureConvergenceError) as err:
        cli.run_scenario(scn, [("volume", "volume")], str(tmp_path))
    fine, coarse = err.value.fine, err.value.coarse
    assert fine is not None and coarse is not None
    assert abs(fine - coarse) > cli.VOLUME_GATE
    assert not (tmp_path / "volume.csv").exists()


def test_field_is_real_everywhere():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    field = wg.wigner_field(rho, 8, W0)
    assert np.all(np.isfinite(field.values))


def _random_state(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _blocked_volume(monkeypatch, rho, points, window, budget):
    # The polar rule's inner sums in row blocks of about `budget` nodes.
    with monkeypatch.context() as m:
        m.setattr(wg, "_ELEMENTS", budget)
        return wg.volume_pair(rho, points, window)


@pytest.mark.parametrize("points", [8, 10, 14, 16, 22, 32, 64])
@pytest.mark.parametrize("window", [FockWindow(0, 0), FockWindow(0, 2),
                                    FockWindow(1, 1), FockWindow(2, 1)],
                         ids=lambda w: "n1=%d,m1=%d" % (w.n1, w.m1))
def test_streamed_volume_equals_unstreamed_exactly(window, points, monkeypatch):
    # Streaming the polar rule's inner sums in row blocks must keep every
    # bit: the default blocks, one block of every row and one row per block.
    for seed in range(3 if points < 64 else 1):
        rho = _random_state(1000 * points + 10 * window.n1 + window.m1 + seed)
        streamed = wg.volume_pair(rho, points, window)
        for budget in (2**40, 1):
            assert streamed == _blocked_volume(monkeypatch, rho, points, window, budget)


def test_polar_volume_peak_allocation():
    # The 64-point field of `wigner_field` alone is 268 MB.
    window = FockWindow(0, 2)
    rho = _random_state(7)
    tracemalloc.start()
    try:
        wg.volume_pair(rho, 64, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6


def test_polar_volume_peak_does_not_grow_with_the_stack():
    # Each state's mode-A factor is formed in turn: 64 evolved coherent
    # states (the polar rule) peak as one does.
    scn = scenario.parse_scenario(
        "schema = 1\nstate = coherent\nnbar_prime = 1.0\nmodel = markovian\n"
        "m1 = 1\nt_max = 1\nsteps = 64\n")
    stack = dynamics.evolve(scn.rho0, scn.evolution, scn.model, scn.times).states
    assert states.x_corners(stack)[0].all()
    peaks = []
    for states_in in (stack[:1], stack):
        tracemalloc.start()
        try:
            wg.volume_pair(states_in, 32, scn.window)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]
