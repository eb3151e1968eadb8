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
    u = states.coherent_amplitudes_paper(1.0, FockWindow(0, 0))
    v = states.projection_amplitudes(1.0, FockWindow(0, 0))
    phase = np.vdot(v, u)  # fix the global phase before comparing
    if phase != 0:
        u = u * (abs(phase) / phase)
    assert np.max(np.abs(u - v)) < 1e-12


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


def test_projection_amplitudes_reject_negative_occupation():
    with pytest.raises(DomainError):
        states.projection_amplitudes(-0.5, FockWindow(0, 0))


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
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10  # Hermitian
        assert abs(np.real(np.trace(rho)) - 1.0) <= 1e-10  # unit trace
        eigs = np.linalg.eigvalsh(rho)
        assert eigs[0] >= -1e-10  # positive
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)  # rank 1


# --- X structure from exact zeros -----------------------------------------

def _with(rho, **entries):
    """A copy of rho with entries set, keyed like r01 for rho[0, 1]."""
    out = np.array(rho, dtype=complex)
    for key, value in entries.items():
        out[int(key[1]), int(key[2])] = value
    return out


_EPR = states.build_epr(0.6, 0.8)
_NOON = states.build_noon(0.8, 0.6)
_DIAG = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
_NEG_ZERO = complex(-0.0, -0.0)
# (state, any entry outside the X pattern nonzero, [rho14/41, rho23/32 nonzero])
X_CASES = {
    "epr": (_EPR, False, [True, False]),
    "noon": (_NOON, False, [False, True]),
    "diagonal": (_DIAG, False, [False, False]),
    "both corners": (_with(_EPR, r12=1e-300, r21=1e-300), False, [True, True]),
    "tiny entry outside": (_with(_EPR, r01=1e-300, r10=1e-300), True, [True, False]),
    "subnormal outside": (_with(_NOON, r13=5e-324), True, [False, True]),
    "-0.0 outside": (_with(_EPR, r01=_NEG_ZERO, r10=-0.0, r32=_NEG_ZERO), False,
                     [True, False]),
    "-0.0 corner": (_with(_DIAG, r03=_NEG_ZERO, r30=-0.0), False, [False, False]),
    "nan outside": (_with(_EPR, r01=math.nan), True, [True, False]),
    "nan imaginary part outside": (_with(_DIAG, r20=complex(0.0, math.nan)), True,
                                   [False, False]),
    "inf outside": (_with(_NOON, r23=math.inf), True, [False, True]),
    "nan corner": (_with(_DIAG, r12=math.nan), False, [False, True]),
    "nan diagonal": (_with(_EPR, r00=math.nan), False, [True, False]),
    "rho41 only": (_with(_DIAG, r30=0.2), False, [True, False]),
    "rho32 only": (_with(_DIAG, r21=0.2j), False, [False, True]),
    "rho14 and rho32 only": (_with(_DIAG, r03=0.1, r21=0.1), False, [True, True]),
}


@pytest.mark.parametrize("name", list(X_CASES))
def test_x_corners_of_one_state(name):
    rho, outside, corners = X_CASES[name]
    got_outside, got_corners = states.x_corners(rho)
    assert got_outside.shape == () and got_corners.shape == (2,)
    assert bool(got_outside) is outside
    assert got_corners.tolist() == corners


def test_x_corners_of_stacks_match_each_state():
    # Every case in one stack, in a shuffled order and reshaped to (2, T/2),
    # and as real arrays where the states are real.
    rng = np.random.default_rng(23)
    names = list(X_CASES)
    order = rng.permutation(len(names))
    stack = np.array([X_CASES[names[k]][0] for k in order])
    outside, corners = states.x_corners(stack)
    assert outside.tolist() == [X_CASES[names[k]][1] for k in order]
    assert corners.tolist() == [X_CASES[names[k]][2] for k in order]
    outside2, corners2 = states.x_corners(stack.reshape(2, -1, 4, 4))
    assert outside2.ravel().tolist() == outside.tolist()
    assert corners2.reshape(-1, 2).tolist() == corners.tolist()
    real = np.array([_EPR.real, _with(_DIAG, r01=-0.0).real, _with(_DIAG, r01=0.5).real])
    outside, corners = states.x_corners(real)
    assert outside.tolist() == [False, False, True]
    assert corners.tolist() == [[True, False], [False, False], [False, False]]


def test_hermitian_part_of_a_stack_matches_each_state():
    rng = np.random.default_rng(30)
    stack = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    herm = states.hermitian_part(stack)
    assert np.array_equal(herm, herm.conj().swapaxes(-1, -2))
    assert np.array_equal(herm, [0.5 * (r + r.conj().T) for r in stack])
    assert np.array_equal(states.hermitian_part(stack[2]), herm[2])
