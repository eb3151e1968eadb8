import math

import numpy as np
import pytest

from twocav import states, wigner as wg
from twocav.errors import DomainError, QuadratureConvergenceError
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


def test_laguerre_values():
    assert wg.laguerre_assoc(0, 3, 1.7) == 1.0
    assert wg.laguerre_assoc(1, 0, 0.25) == pytest.approx(0.75)
    # L_2^1(2) = x^2/2 - 3x + 3 at x = 2.
    assert wg.laguerre_assoc(2, 1, 2.0) == pytest.approx(-1.0)
    with pytest.raises(DomainError):
        wg.laguerre_assoc(-1, 0, 0.0)


def test_displaced_parity_paper_origin_values():
    assert wg.displaced_parity_paper(0, 0, 0.0) == pytest.approx(1.0)
    assert wg.displaced_parity_paper(1, 1, 0.0) == pytest.approx(-1.0)
    assert wg.displaced_parity_paper(0, 1, 0.0) == 0.0


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
    paper = wg.displaced_parity_paper(0, 0, alpha)
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
        table = wg._k_tables(pts, index, wg.ORACLE)
        oracle = wg.parity_table(pts, index, wg.suggested_cutoff(index + 1, amax))
        assert np.max(np.abs(table - oracle)) <= 1e-10


@pytest.mark.parametrize("source", [wg.ORACLE, wg.PAPER])
def test_wigner_joint_matches_field_at_grid_points(source):
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    window = FockWindow(1, 2)
    grid = wg.PhaseSpaceGrid(extent=3.0, points_per_axis=8)
    field = wg.wigner_field(rho, grid, window, source)
    ax = grid.axis()
    for i, j, k, l in ((0, 0, 0, 0), (1, 6, 3, 2), (4, 3, 7, 5), (7, 7, 0, 4)):
        joint = wg.wigner_joint(rho, ax[i] + 1j * ax[j], ax[k] + 1j * ax[l],
                                window, source)
        assert joint == pytest.approx(field.values[i, j, k, l], abs=1e-14)


def test_unknown_element_source_is_rejected():
    with pytest.raises(DomainError):
        wg.wigner_joint(VACUUM, 0.0, 0.0, W0, element_source="eigh")
    with pytest.raises(DomainError):
        wg.wigner_field(VACUUM, wg.PhaseSpaceGrid(4.0, 8), W0, element_source="eigh")


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
    v = wg.negativity_volume(VACUUM, wg.PhaseSpaceGrid(6.0, 32), W0)
    assert v < 1e-3


def test_volume_fock_state_positive():
    v = wg.negativity_volume(
        FOCK_01, wg.PhaseSpaceGrid(5.0, 48), W0, tol=5e-3
    )
    assert v > 0.01


def test_volume_convergence_error_carries_both_values():
    with pytest.raises(QuadratureConvergenceError) as err:
        wg.negativity_volume(FOCK_01, wg.PhaseSpaceGrid(6.0, 32), W0, tol=1e-4)
    assert err.value.fine is not None and err.value.coarse is not None


def test_field_is_real_everywhere():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    grid = wg.PhaseSpaceGrid(extent=4.0, points_per_axis=8)
    field = wg.wigner_field(rho, grid, W0)
    assert np.all(np.isfinite(field.values))
