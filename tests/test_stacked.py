"""The stacked (T, 4, 4) paths against a per-state reference, bit for bit.

The reference below evaluates one 4x4 state at a time: one `expm` per grid
time, one `eigvalsh` and one `eigvals` per state, and the Bell weights as
four separate traces.  Every stacked value must carry the same raw bits.
"""

import math

import numpy as np
import pytest
from scipy import linalg

from twocav import cli, correlations as co, dynamics, states, teleport as tp
from twocav.errors import DomainError
from twocav.states import FockWindow

INV_SQRT2 = 1.0 / math.sqrt(2.0)
CHUNK = dynamics._EXPM_CHUNK


def bits(x):
    x = np.asarray(x)
    dtype = complex if np.iscomplexobj(x) else float
    return np.ascontiguousarray(x, dtype=dtype).view(np.uint64)


def assert_same_bits(stacked, reference):
    assert np.array_equal(bits(stacked), bits(reference))


# --- per-state reference -------------------------------------------------

def ref_evolve(rho0, params, model, times):
    gen = dynamics.generator_matrix(params)
    rho = np.array(rho0, dtype=complex).ravel()
    out = []
    for t in times:
        mat = (linalg.expm(dynamics.accumulated_theta(model, t) * gen) @ rho).reshape(4, 4)
        out.append(0.5 * (mat + mat.conj().T))
    return np.array(out)


def ref_report(rho):
    pt = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    vals = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
    neg = float(0.5 * (np.sum(np.abs(vals)) - np.sum(vals)))
    ev = np.linalg.eigvals(rho @ (co._SPIN_FLIP @ rho.conj() @ co._SPIN_FLIP))
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    lam.sort()
    conc = float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))
    try:
        disc = co.discord_x(rho)
    except DomainError:
        disc = co.discord_bruteforce(rho)
    return neg, math.log2(1.0 + 2.0 * neg), conc, disc


def ref_teleport(channel, inp):
    w = np.array([float(np.real(np.trace(e @ channel))) for e in tp.BELL_PROJECTORS])
    probs = np.outer(w, w)
    out = np.zeros((4, 4), dtype=complex)
    for weight, term in zip(probs.flat, inp.corrections):
        out += weight * term
    fid = float(np.real(np.trace(inp.matrix @ out)))
    return out, fid, ref_report(out / float(np.real(np.trace(out))))


def ref_closed(channel, p, q, family):
    # Python floats, so ** 2 is libm pow as in the scalar closed forms.
    rho = np.asarray(channel)
    s = float(np.real(rho[1, 1] + rho[2, 2]))
    if family == "epr":
        v = float(np.real(rho[0, 0] + rho[3, 3]))
        c2 = 2.0 * q * float(np.real(rho[0, 3])) ** 2
    else:
        v = float(np.real(rho[0, 0]))
        c2 = 2.0 * q * float(np.real(rho[1, 2])) ** 2
    return 0.5 * (1.0 - 2.0 * p) * s**2 + 0.5 * (1.0 + 2.0 * p) * v**2, c2, v * s


def assert_report_matches(rep, stack):
    ref = np.array([ref_report(rho) for rho in stack])
    for k, name in enumerate(("negativity", "log_negativity", "concurrence", "discord")):
        assert_same_bits(getattr(rep, name), ref[:, k])


# --- inputs --------------------------------------------------------------

def _normalised(m):
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def adversarial_states(rng):
    """General, near-pure, rank-deficient and X states; the general ones
    are not X-structured and go through brute-force discord."""
    out = []
    for rank in (4, 2, 1):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        out.append(_normalised(g))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    out.append(0.999999999 * states.pure_state(v / np.linalg.norm(v))
               + 1e-9 * np.eye(4) / 4.0)
    for _ in range(6):
        d = rng.random(4)
        d /= d.sum()
        rho = np.diag(d).astype(complex)
        rho[0, 3] = np.sqrt(d[0] * d[3]) * np.exp(1j * rng.random())
        rho[1, 2] = rng.random() * np.sqrt(d[1] * d[2])
        out.append(0.5 * (rho + rho.conj().T))
    out.append(states.build_epr(INV_SQRT2, INV_SQRT2))
    out.append(states.build_noon(0.6, 0.8))
    out.append(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    return np.array(out)


CONFIGS = (
    (states.build_epr(0.6, 0.8), dynamics.EvolutionParams(), dynamics.Markovian(1.0)),
    (states.build_noon(0.8, 0.6),
     dynamics.EvolutionParams(window=FockWindow(1, 2), nbar=0.3),
     dynamics.NonMarkovianOhmic(r=1.0)),
    (states.build_epr(INV_SQRT2, INV_SQRT2),
     dynamics.EvolutionParams(window=FockWindow(0, 1), closure_mode=dynamics.PAPER_CLOSURE),
     dynamics.KernelIntegral(1.3)),
)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_evolve_matches_one_expm_per_time(n):
    for rho0, params, model in CONFIGS:
        times = np.linspace(0.0, 1.0, n)
        traj = dynamics.evolve(rho0, params, model, times)
        assert_same_bits(traj.states, ref_evolve(rho0, params, model, times))


def test_trajectory_rows_match_per_state_eigvalsh():
    rho0, params, model = CONFIGS[1]
    traj = dynamics.evolve(rho0, params, model, np.linspace(0.0, 1.0, CHUNK + 3))
    rows = np.array(cli.TABLES["evolve"][0](None, traj)[1])
    for row, rho in zip(rows, traj.states):
        herm = 0.5 * (rho + rho.conj().T)
        assert_same_bits(row[-2:], [np.real(np.trace(rho)), np.linalg.eigvalsh(herm)[0]])


def test_correlation_report_matches_per_state_reference():
    stack = adversarial_states(np.random.default_rng(11))
    assert_report_matches(co.correlation_report(stack), stack)
    # A single state stays the unbatched case, with floats back.
    rep = co.correlation_report(stack[4])
    assert isinstance(rep.discord, float) and isinstance(rep.negativity, float)
    assert_same_bits([rep.negativity, rep.log_negativity, rep.concurrence,
                      rep.discord], ref_report(stack[4]))


@pytest.mark.parametrize("n", [1, CHUNK + 1])
def test_trajectory_measures_match_per_state_reference(n):
    for rho0, params, model in CONFIGS:
        traj = dynamics.evolve(rho0, params, model, np.linspace(0.0, 2.0, n))
        assert_report_matches(co.correlation_report(traj.states), traj.states)


@pytest.mark.parametrize("order", [tp.PRINTED, tp.SYMMETRIC])
def test_teleport_matches_per_state_reference(order):
    x_states = adversarial_states(np.random.default_rng(12))[4:]
    for p, q in ((0.99, 0.97), (0.99, 0.99), (0.2, 0.5)):
        inp = tp.input_state(p, q, order)
        res = tp.teleport_general(x_states, inp)
        rep = tp.teleported_measures(res)
        for k, channel in enumerate(x_states):
            out, fid, measures = ref_teleport(channel, inp)
            assert_same_bits(res.rho_out[k], out)
            assert_same_bits(res.fidelity[k], fid)
            assert_same_bits([rep.negativity[k], rep.log_negativity[k],
                              rep.concurrence[k], rep.discord[k]], measures)


def _pow_not_square(rng, count):
    """Values whose libm x ** 2 differs from the rounded x * x."""
    x = rng.random(50_000).tolist()
    hard = [v for v in x if v**2 != v * v][:count]
    assert len(hard) == count
    return hard


def test_closed_forms_match_per_state_reference():
    hard = _pow_not_square(np.random.default_rng(5), 3 * 8)
    for family, rho0 in (("epr", states.build_epr(0.6, 0.8)),
                         ("noon", states.build_noon(0.8, 0.6))):
        closed = tp.closed_form_epr if family == "epr" else tp.closed_form_noon
        i, j = (0, 3) if family == "epr" else (1, 2)
        traj = dynamics.evolve(rho0, dynamics.EvolutionParams(nbar=0.2),
                               dynamics.Markovian(1.0), np.linspace(0.0, 3.0, 41))
        # Channels of the family's pattern whose squared sums and
        # coherence are such values.
        built = np.zeros((8, 4, 4), dtype=complex)
        for k in range(8):
            built[k, 1, 1], built[k, 0, 0], built[k, i, j] = hard[3 * k:3 * k + 3]
            built[k, j, i] = built[k, i, j]
        for channels in (traj.states, built):
            stacked = np.array(closed(channels, 0.99, 0.97))
            for k, rho in enumerate(channels):
                assert_same_bits(stacked[:, k], ref_closed(rho, 0.99, 0.97, family))
