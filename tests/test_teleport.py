import dataclasses
import math

import numpy as np
import pytest

from twocav import cli, correlations as co, dynamics, states, teleport as tp
from twocav.correlations import _PAULI as PAULI
from twocav.errors import DomainError, PatternError

import oracles

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_input_state_construction():
    inp = tp.input_state(0.0, 1.0)
    assert np.trace(inp.matrix).real == pytest.approx(1.0, abs=1e-15)
    assert not inp.non_physical
    # Bell projector onto (|00> + |11>)/sqrt(2)
    expect = tp._bell([1.0, 0.0, 0.0, 1.0])
    assert np.allclose(inp.matrix, expect, atol=1e-15)


def test_input_state_flags_non_physical_parameters():
    assert tp.input_state(0.99, 0.97).non_physical
    assert not tp.input_state(0.1, 0.5).non_physical
    # The closed-form flag against the smallest eigenvalue, on both sides of
    # the boundary p^2 + q^2/4 = 1/4 and on it (p = 0.3, q = 0.8).
    for theta in np.linspace(0.0, 0.5 * math.pi, 201):
        for radius in (0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.7):
            p, q = radius * math.cos(theta), 2.0 * radius * math.sin(theta)
            if p <= 1.0 and q > 0.0:
                inp = tp.input_state(p, q)
                assert inp.non_physical == (np.linalg.eigvalsh(inp.matrix)[0] < -1e-12)
    assert not tp.input_state(0.3, 0.8).non_physical


def test_input_state_domain_errors():
    with pytest.raises(DomainError):
        tp.input_state(-0.1, 1.0)
    with pytest.raises(DomainError):
        tp.input_state(0.5, 0.0)
    with pytest.raises(DomainError):
        tp.input_state(0.5, float("nan"))
    with pytest.raises(DomainError):
        tp.input_state(float("nan"), 1.0)


def test_input_state_is_frozen():
    # The matrix and corrections are derived once, so p and q cannot change.
    inp = tp.input_state(0.1, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        inp.q = 0.9
    with pytest.raises(dataclasses.FrozenInstanceError):
        inp.p = float("nan")
    assert inp.matrix[0, 3] == 0.25


def test_bell_projectors_are_complete_and_orthogonal():
    total = sum(tp.BELL_PROJECTORS)
    assert np.allclose(total, np.eye(4), atol=1e-15)
    for i, e1 in enumerate(tp.BELL_PROJECTORS):
        for j, e2 in enumerate(tp.BELL_PROJECTORS):
            prod = np.trace(e1 @ e2).real
            assert prod == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)


def test_perfect_channel_bell_input():
    channel = tp._bell([1.0, 0.0, 0.0, 1.0])
    for order in (tp.PRINTED, tp.SYMMETRIC):
        inp = tp.input_state(0.0, 1.0, order)
        res = tp.teleport_general(channel, inp)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(res.rho_out, inp.matrix, atol=1e-12)


def test_singlet_channel_is_identity_map():
    channel = tp._bell([0.0, 1.0, -1.0, 0.0])
    for p, q in ((0.0, 1.0), (0.2, 0.6), (0.99, 0.97)):
        inp = tp.input_state(p, q)
        res = tp.teleport_general(channel, inp)
        assert np.allclose(res.rho_out, inp.matrix, atol=1e-12)


def test_depolarized_channel():
    inp = tp.input_state(0.0, 1.0)
    res = tp.teleport_general(np.eye(4) / 4.0, inp)
    assert res.fidelity == pytest.approx(0.25, abs=1e-12)
    # In the printed operator order the output is the middle-swap of I/4;
    # the symmetric order reproduces I/4 itself.
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(res.rho_out, swap / 4.0, atol=1e-12)
    inp = tp.input_state(0.0, 1.0, "symmetric")
    res = tp.teleport_general(np.eye(4) / 4.0, inp)
    assert np.allclose(res.rho_out, np.eye(4) / 4.0, atol=1e-12)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        res = tp.teleport_general(rho, tp.input_state(0.3, 0.4))
        assert res.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.probabilities >= -1e-15)


def test_closed_form_epr_reference_point():
    rho = states.build_epr(INV_SQRT2, INV_SQRT2)
    k1, k2, k3 = tp.closed_form_epr(rho, 0.0, 1.0)
    assert k1 == pytest.approx(0.5, abs=1e-12)
    assert k2 == pytest.approx(0.5, abs=1e-12)
    assert k3 == pytest.approx(0.0, abs=1e-12)
    assert tp.closed_form_fidelity(k1, k2, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_closed_form_noon_reference_point():
    rho = states.build_noon(INV_SQRT2, INV_SQRT2)
    a1, a2, a3 = tp.closed_form_noon(rho, 0.0, 0.8)
    assert a1 == pytest.approx(0.5, abs=1e-12)
    assert a2 == pytest.approx(0.8 * 0.5, abs=1e-12)
    assert a3 == pytest.approx(0.0, abs=1e-12)


def test_closed_forms_reject_wrong_sparsity():
    noon = states.build_noon(INV_SQRT2, INV_SQRT2)
    with pytest.raises(PatternError):
        tp.closed_form_epr(noon, 0.0, 1.0)
    epr = states.build_epr(INV_SQRT2, INV_SQRT2)
    with pytest.raises(PatternError):
        tp.closed_form_noon(epr, 0.0, 1.0)


def test_closed_forms_reject_nan_outside_their_pattern():
    # A tolerance test (abs(entry) > 1e-10) is False on NaN, so it let
    # this channel through: closed_form_epr read (0.5, 0.4608, 0.0).
    rho = states.build_epr(0.6, 0.8)
    rho[0, 1] = math.nan
    with pytest.raises(PatternError, match=r"\(1, 2\)"):
        tp.closed_form_epr(rho, 0.0, 1.0)
    noon = states.build_noon(0.8, 0.6)
    noon[3, 0] = complex(0.0, math.nan)
    with pytest.raises(PatternError, match=r"\(4, 1\)"):
        tp.closed_form_noon(noon, 0.0, 1.0)


def test_closed_forms_decide_each_channel_from_exact_zeros():
    # -0.0 is zero; 1e-300 is not; the error names the first nonzero entry
    # (row-major) of the first channel of a stack that has one.
    epr = states.build_epr(0.6, 0.8)
    signed = epr.copy()
    signed[0, 1] = signed[2, 1] = complex(-0.0, -0.0)
    tiny = epr.copy()
    tiny[2, 1] = tiny[1, 0] = 1e-300
    assert tp.closed_form_epr(signed, 0.0, 1.0) == tp.closed_form_epr(epr, 0.0, 1.0)
    stack = np.array([epr, signed, epr])
    c1, c2, c3 = tp.closed_form_epr(stack, 0.1, 0.5)
    assert c2.tolist() == [tp.closed_form_epr(r, 0.1, 0.5)[1] for r in stack]
    with pytest.raises(PatternError, match=r"\(2, 1\)"):
        tp.closed_form_epr(np.array([epr, tiny, states.build_noon(0.8, 0.6)]), 0.0, 1.0)
    with pytest.raises(PatternError, match=r"\(1, 4\)"):
        tp.closed_form_noon(np.array([states.build_noon(0.8, 0.6), epr]), 0.0, 1.0)


def test_closed_form_equals_general_on_balanced_inputs():
    # Full matrix equality holds when the input populations are balanced.
    rho0 = states.build_epr(INV_SQRT2, INV_SQRT2)
    for theta in np.linspace(0.0, 2.0, 9):
        channel = dynamics.evolve_analytic_vacuum(rho0, theta, states.FockWindow())
        for q in (0.25, 0.7, 1.0):
            res = tp.teleport_general(channel, tp.input_state(0.0, q))
            k = oracles.closed_form_matrix(*tp.closed_form_epr(channel, 0.0, q))
            assert np.max(np.abs(res.rho_out - k)) < 1e-12


def test_closed_form_coefficients_match_general_entries():
    # For arbitrary p the corner and cross entries still agree entrywise.
    rho0 = states.build_epr(INV_SQRT2, INV_SQRT2)
    for theta in (0.0, 0.4, 1.1):
        channel = dynamics.evolve_analytic_vacuum(rho0, theta, states.FockWindow())
        for p, q in ((0.2, 0.5), (0.99, 0.97)):
            res = tp.teleport_general(channel, tp.input_state(p, q))
            k1, k2, k3 = tp.closed_form_epr(channel, p, q)
            assert res.rho_out[0, 0].real == pytest.approx(k1, abs=1e-12)
            assert res.rho_out[0, 3].real == pytest.approx(k2, abs=1e-12)
            assert res.rho_out[1, 2].real == pytest.approx(k3, abs=1e-12)


def test_noon_closed_form_equals_general():
    rho0 = states.build_noon(INV_SQRT2, INV_SQRT2)
    for theta in np.linspace(0.0, 2.0, 7):
        channel = dynamics.evolve_analytic_vacuum(rho0, theta, states.FockWindow())
        res = tp.teleport_general(channel, tp.input_state(0.0, 0.9))
        a = oracles.closed_form_matrix(*tp.closed_form_noon(channel, 0.0, 0.9))
        assert np.max(np.abs(res.rho_out - a)) < 1e-12


def test_teleported_measures_on_perfect_channel():
    channel = tp._bell([1.0, 0.0, 0.0, 1.0])
    res = tp.teleport_general(channel, tp.input_state(0.0, 1.0))
    rep = tp.teleported_measures(res)
    assert rep.concurrence == pytest.approx(1.0, abs=1e-10)
    assert rep.log_negativity == pytest.approx(1.0, abs=1e-10)
    assert rep.discord == pytest.approx(1.0, abs=1e-8)


def test_teleported_measures_on_depolarized_channel():
    res = tp.teleport_general(np.eye(4) / 4.0, tp.input_state(0.0, 1.0))
    rep = tp.teleported_measures(res)
    assert rep.concurrence == pytest.approx(0.0, abs=1e-10)
    assert rep.log_negativity == pytest.approx(0.0, abs=1e-10)


def test_teleported_measures_reject_degenerate_outputs():
    inp = tp.input_state(0.0, 1.0)
    for channel in (np.zeros((4, 4)), np.full((4, 4), np.nan)):
        res = tp.teleport_general(channel, inp)
        with pytest.raises(DomainError):
            tp.teleported_measures(res)


def test_index_order_validation():
    with pytest.raises(DomainError):
        tp.input_state(0.0, 1.0, "sideways")


def _teleport_reference(channel, inp, index_order):
    """Per-call Kronecker-product loop: the map before its input-only
    terms were precomputed, in the same (a, b) summation order, then the
    Hermitian part of the sum."""
    w = tp.bell_weights(channel)
    probs = np.outer(w, w)
    out = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            left = np.kron(PAULI[a], PAULI[b])
            right = (np.kron(PAULI[b], PAULI[a])
                     if index_order == tp.PRINTED else left)
            out += probs[a, b] * (left @ inp.matrix @ right)
    out = 0.5 * (out + out.conj().T)
    return out, float(np.real(np.trace(inp.matrix @ out)))


def test_precomputed_terms_match_kron_reference_exactly():
    rng = np.random.default_rng(17)
    channels = []
    for _ in range(10):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        channels.append(rho / np.trace(rho).real)
    channels.append(states.build_epr(0.6, 0.8))
    channels.append(np.eye(4) / 4.0)
    for p, q in ((0.0, 1.0), (0.3, 0.4), (0.99, 0.97), (0.99, 0.99)):
        for order in (tp.PRINTED, tp.SYMMETRIC):
            inp = tp.input_state(p, q, order)
            for channel in channels:
                res = tp.teleport_general(channel, inp)
                out, fid = _teleport_reference(channel, inp, order)
                assert np.array_equal(res.rho_out, out)
                assert res.fidelity == fid


def _figure_channels():
    """(trajectory stack, p, q) of every teleport panel of fig6-fig9."""
    out = []
    for panels in cli.FIGURES.values():
        for keys, outputs in panels:
            if any(cmd == "teleport" for cmd, _ in outputs):
                scn = cli._scn(**keys)
                traj = dynamics.evolve(scn.rho0, scn.evolution, scn.model, scn.times)
                out.append((traj.states, scn.p, scn.q))
    return out


def _random_x_channels(rng, count):
    """Positive X states with both corner pairs set, at random phases."""
    out = np.zeros((count, 4, 4), dtype=complex)
    for rho in out:
        d = rng.random(4)
        d /= d.sum()
        rho[np.diag_indices(4)] = d
        for i, j in states.X_CORNERS:
            c = rng.random() * math.sqrt(d[i] * d[j]) * np.exp(2j * math.pi * rng.random())
            rho[i, j], rho[j, i] = c, np.conj(c)
    return out


def _adjoint(rho):
    return rho.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("order", [tp.PRINTED, tp.SYMMETRIC])
def test_teleported_outputs_are_hermitian_bit_for_bit(order):
    # The 16-term sum alone leaves 827 of the 1800 figure outputs unequal to
    # their conjugate transposes, by up to 5.6e-17, so a measure read off
    # one triangle differed from the same measure read off the other.
    rng = np.random.default_rng(30)
    cases = _figure_channels() + [(_random_x_channels(rng, 40), p, q)
                                  for p, q in ((0.0, 1.0), (0.3, 0.4), (0.99, 0.97))]
    assert sum(len(channels) for channels, _, _ in cases[:-3]) == 1800
    for channels, p, q in cases:
        inp = tp.input_state(p, q, order)
        stacked = tp.teleport_general(channels, inp).rho_out
        single = np.array([tp.teleport_general(rho, inp).rho_out for rho in channels])
        assert np.array_equal(single, stacked)
        assert np.array_equal(stacked, _adjoint(stacked))
        rep, rep_adjoint = (co.correlation_report(r) for r in (stacked, _adjoint(stacked)))
        for name in ("negativity", "log_negativity", "concurrence", "discord"):
            assert np.array_equal(getattr(rep, name), getattr(rep_adjoint, name)), name
