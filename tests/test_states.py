import math

import numpy as np
import pytest

from twocav import states
from twocav.errors import DegenerateStateError, DomainError
from twocav.states import FockWindow

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_window_rejects_negative_indices():
    with pytest.raises(DomainError):
        FockWindow(-1, 0)
    with pytest.raises(DomainError):
        FockWindow(0, -2)


def test_window_basis_labels():
    assert FockWindow(2, 5).basis_labels() == [(2, 5), (2, 6), (3, 5), (3, 6)]


def test_coherent_amplitudes_vacuum_raw_values():
    amp = states.coherent_amplitudes_paper(0.0, FockWindow(0, 0))
    # 0**0 := 1 puts weight on the two zero-exponent slots of the printed
    # form; the b and d slots vanish.
    assert amp[0] == pytest.approx(INV_SQRT2, abs=1e-15)
    assert amp[1] == 0.0
    assert amp[3] == 0.0


def test_coherent_amplitudes_normalized():
    for nb in (0.3, 1.0, 2.7):
        amp = states.coherent_amplitudes_paper(nb, FockWindow(1, 2))
        assert np.sum(np.abs(amp) ** 2) == pytest.approx(1.0, abs=1e-12)
    # A shifted window at zero occupation has no support at all.
    with pytest.raises(DegenerateStateError):
        states.coherent_amplitudes_paper(0.0, FockWindow(1, 2))


def test_coherent_amplitudes_agree_with_projection_at_unit_occupation():
    assert states.amplitude_disagreement(1.0, FockWindow(0, 0)) < 1e-12


def test_projection_amplitudes_unit_occupation():
    amp = states.projection_amplitudes(1.0, FockWindow(0, 0))
    assert np.allclose(amp, 0.5, atol=1e-12)


def test_projection_amplitudes_vacuum():
    amp = states.projection_amplitudes(0.0, FockWindow(0, 0))
    assert np.allclose(amp, [1, 0, 0, 0], atol=1e-15)


def test_projection_amplitudes_symmetric_cross_terms():
    for nb in (0.2, 1.0, 3.0):
        amp = states.projection_amplitudes(nb, FockWindow(0, 0))
        assert amp[1] == pytest.approx(amp[2], abs=1e-15)


def test_degenerate_amplitudes_raise():
    # On a shifted window the printed exponents keep weight everywhere, so
    # degeneracy only happens through the projection route at n' = 0 with
    # excited window indices.
    with pytest.raises(DegenerateStateError):
        states.projection_amplitudes(0.0, FockWindow(1, 1))


def test_build_epr_pattern():
    rho = states.build_epr(INV_SQRT2, INV_SQRT2)
    assert rho[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert rho[3, 3] == pytest.approx(0.5, abs=1e-12)
    assert rho[0, 3] == pytest.approx(0.5, abs=1e-12)
    assert abs(rho[1, 1]) == 0.0 and abs(rho[1, 2]) == 0.0


def test_build_epr_product_limit():
    assert np.allclose(states.build_epr(1.0, 0.0), np.diag([1, 0, 0, 0]))


def test_build_noon_pattern():
    rho = states.build_noon(INV_SQRT2, INV_SQRT2)
    assert rho[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert rho[2, 2] == pytest.approx(0.5, abs=1e-12)
    assert rho[1, 2] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(states.build_noon(0.0, 1.0), np.diag([0, 0, 1, 0]))


def test_builders_reject_unnormalized_inputs():
    with pytest.raises(DomainError):
        states.build_epr(1.0, 0.5)
    with pytest.raises(DomainError):
        states.build_noon(0.9, 0.9)
    for bad in (math.nan, math.inf, -math.inf, complex(1.0, math.nan)):
        with pytest.raises(DomainError):
            states.build_epr(bad, 0.0)
        with pytest.raises(DomainError):
            states.build_epr(1.0, bad)
        with pytest.raises(DomainError):
            states.build_noon(bad, 1.0)
        with pytest.raises(DomainError):
            states.build_noon(0.0, bad)


def test_builder_outputs_are_valid_pure_states():
    for rho in (states.build_epr(0.6, 0.8), states.build_noon(0.28, 0.96)):
        rep = states.validate(rho, tol=1e-10)
        assert rep.is_physical
        eigs = np.linalg.eigvalsh(rho)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)  # rank 1


def test_validate_reports():
    rep = states.validate(np.eye(4) / 4.0)
    assert rep.is_physical and rep.min_eigenvalue == pytest.approx(0.25)
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.3
    assert states.validate(bad).hermiticity_defect > 0.0
    with pytest.raises(DomainError):
        states.validate(np.eye(4) / 4.0, tol=0.0)
