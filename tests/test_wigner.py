import math
import tracemalloc

import numpy as np
import pytest

from twocav import cli, errata, scenario, states, wigner as wg
from twocav.errors import ConsistencyError, DomainError, QuadratureConvergenceError
from twocav.states import FockWindow

W0 = FockWindow(0, 0)
VACUUM = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
FOCK_01 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)


def test_grid_validation():
    with pytest.raises(DomainError):
        wg.PhaseSpaceGrid(extent=-1.0)
    with pytest.raises(DomainError):
        wg.PhaseSpaceGrid(points_per_axis=6)
    with pytest.raises(DomainError):
        wg.PhaseSpaceGrid(points_per_axis=9)
    with pytest.raises(DomainError):
        wg.PhaseSpaceGrid(extent=float("nan"))


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
    assert wg.displaced_parity_oracle(0, 0, 0.0) == pytest.approx(1.0, abs=1e-12)
    val = wg.displaced_parity_oracle(0, 0, 1.0)
    assert val.real == pytest.approx(math.exp(-2.0), abs=1e-12)
    # convergence under cutoff + 10
    a = wg.displaced_parity_oracle(1, 2, 0.7 - 0.2j, cutoff=60, check=False)
    b = wg.displaced_parity_oracle(1, 2, 0.7 - 0.2j, cutoff=70, check=False)
    assert abs(a - b) < 1e-10


def test_displaced_parity_oracle_hermiticity():
    alpha = 0.3 + 0.4j
    k01 = wg.displaced_parity_oracle(0, 1, alpha)
    k10 = wg.displaced_parity_oracle(1, 0, alpha)
    assert k01 == pytest.approx(np.conj(k10), abs=1e-12)


def test_displaced_parity_oracle_cutoff_guard():
    with pytest.raises(DomainError):
        wg.displaced_parity_oracle(3, 3, 0.1, cutoff=10)


def test_paper_elements_flagged_off_origin():
    # The printed closed form disagrees with the oracle away from alpha=0.
    alpha = 1.0
    paper = errata.displaced_parity_printed(0, 0, alpha)
    oracle = wg.displaced_parity_oracle(0, 0, alpha)
    assert abs(paper - oracle) > 0.1


def test_parity_table_matches_oracle_elements():
    alphas = [0.0, 0.5, -0.3 + 0.8j]
    cut = wg.suggested_cutoff(2, 1.0)
    table = wg.parity_table(alphas, 1, cut)
    for g, alpha in enumerate(alphas):
        for i, m in enumerate((1, 2)):
            for j, mp in enumerate((1, 2)):
                direct = wg.displaced_parity_oracle(m, mp, alpha, check=False)
                assert table[g, i, j] == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("window", [FockWindow(0, 0), FockWindow(2, 2),
                                    FockWindow(3, 0)],
                         ids=lambda w: "n1=%d,m1=%d" % (w.n1, w.m1))
def test_closed_form_tables_match_parity_table(window):
    # Full default-extent 64-point grid, corners at |alpha| up to ~10.2.
    ax = wg.PhaseSpaceGrid(wg.default_extent(window), 64).axis()
    re, im = np.meshgrid(ax, ax, indexing="ij")
    pts = (re + 1j * im).ravel()
    amax = float(np.max(np.abs(pts)))
    for index in sorted({window.n1, window.m1}):
        table = wg._k_tables(pts, index)
        oracle = wg.parity_table(pts, index, wg.suggested_cutoff(index + 1, amax))
        assert np.max(np.abs(table - oracle)) <= 1e-10


def test_wigner_joint_matches_field_at_grid_points():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    window = FockWindow(1, 2)
    grid = wg.PhaseSpaceGrid(extent=3.0, points_per_axis=8)
    field = wg.wigner_field(rho, grid, window)
    ax = grid.axis()
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
    grid = wg.PhaseSpaceGrid(extent=5.0, points_per_axis=48)
    field = wg.wigner_field(VACUUM, grid, W0)
    assert wg.integrate_field(field) == pytest.approx(1.0, abs=1e-3)


def test_field_normalization_entangled_state():
    rho = states.build_epr(2**-0.5, 2**-0.5)
    grid = wg.PhaseSpaceGrid(extent=5.0, points_per_axis=48)
    field = wg.wigner_field(rho, grid, W0)
    assert wg.integrate_field(field) == pytest.approx(1.0, abs=1e-3)


def test_volume_vacuum_zero():
    fine, coarse = wg.volume_pair(VACUUM, wg.PhaseSpaceGrid(6.0, 32), W0)
    assert abs(fine) < 1e-3
    assert abs(fine - coarse) <= 1e-2


def test_volume_fock_state_positive():
    fine, coarse = wg.volume_pair(FOCK_01, wg.PhaseSpaceGrid(5.0, 48), W0)
    assert fine > 0.01
    assert abs(fine - coarse) <= 5e-2


def test_imaginary_residue_raises():
    # A non-Hermitian rho (rho_12 = 0.3, rho_21 = 0) gives W an imaginary
    # part: about 0.053 at this point and 0.022 on the volume grid.
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.3
    with pytest.raises(ConsistencyError):
        wg.wigner_joint(rho, 0.3 + 0.1j, -0.2 + 0.4j)
    with pytest.raises(ConsistencyError):
        wg.volume_pair(rho, wg.PhaseSpaceGrid(4.0, 10))


def test_volume_convergence_error_carries_both_values(tmp_path):
    # The CLI volume table gates the fine/coarse gap; a coarse grid on a
    # strongly negative state trips it.
    scn = scenario.parse_scenario(
        "schema = 1\nstate = noon\nmodel = markovian\nt_max = 0\nsteps = 2\n"
        "points = 16\n")
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
    grid = wg.PhaseSpaceGrid(extent=4.0, points_per_axis=8)
    field = wg.wigner_field(rho, grid, W0)
    assert np.all(np.isfinite(field.values))


def _random_state(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _unstreamed_volume(rho, n_pts, extent, window):
    # Whole field, then |W|, then the 4-axis quadrature.
    grid = wg.PhaseSpaceGrid(extent=extent, points_per_axis=n_pts)
    field = wg.wigner_field(rho, grid, window)
    abs_field = wg.WignerField(grid=grid, values=np.abs(field.values))
    return 0.5 * (wg.integrate_field(abs_field) - 1.0)


@pytest.mark.parametrize("points", [8, 10, 14, 16, 22, 32, 64])
@pytest.mark.parametrize("window", [FockWindow(0, 0), FockWindow(0, 2),
                                    FockWindow(1, 1), FockWindow(2, 1)],
                         ids=lambda w: "n1=%d,m1=%d" % (w.n1, w.m1))
def test_streamed_volume_equals_unstreamed_exactly(window, points):
    # Streaming over Im beta blocks must keep the summation order bit for
    # bit; ragged last blocks (10, 14, 22 points) included.
    extent = wg.default_extent(window)
    grid = wg.PhaseSpaceGrid(extent=extent, points_per_axis=points)
    half = points // 2 + (points // 2) % 2
    for seed in range(3 if points < 64 else 1):
        rho = _random_state(1000 * points + 10 * window.n1 + window.m1 + seed)
        fine, coarse = wg.volume_pair(rho, grid, window)
        assert fine == _unstreamed_volume(rho, points, extent, window)
        assert coarse == _unstreamed_volume(rho, max(8, half), extent, window)


def test_streamed_volume_peak_allocation():
    # The unstreamed 64-point field alone is 268 MB; that path peaks near 400 MB.
    window = FockWindow(0, 2)
    grid = wg.PhaseSpaceGrid(wg.default_extent(window), 64)
    rho = _random_state(7)
    tracemalloc.start()
    try:
        wg.volume_pair(rho, grid, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6
