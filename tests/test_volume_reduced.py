"""The reduced negativity volume of X states (coherence only in rho14 or
rho23): the angular closed form, the radial quadrature, the routing
between the two paths, and the published fig5 states."""

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import twocav
from twocav import cli, dynamics, scenario, states, wigner as wg
from twocav.errors import ConsistencyError
from twocav.states import FockWindow

C4 = 4.0 / math.pi**2


def _x_state(rng, kind):
    d = rng.dirichlet(np.ones(4))
    rho = np.diag(d).astype(complex)
    i, j = states.X_CORNERS[0 if kind == "epr" else 1]
    rho[i, j] = rng.random() * math.sqrt(d[i] * d[j]) * np.exp(2j * math.pi * rng.random())
    rho[j, i] = np.conj(rho[i, j])
    return rho


# --- the angular closed form ---------------------------------------------

def _angular_reference(f, g):
    """Integral of |f + g cos psi| over [0, 2 pi), by mpmath quadrature split
    at the zeros of the integrand."""
    f, g = mpmath.mpf(f), abs(mpmath.mpf(g))
    points = [0, 2 * mpmath.pi]
    if g > abs(f):
        psi0 = mpmath.acos(-f / g)
        points = [0, psi0, 2 * mpmath.pi - psi0, 2 * mpmath.pi]
    return mpmath.quad(lambda psi: abs(f + g * mpmath.cos(psi)), points)


ADVERSARIAL = [
    (0.7, 0.0), (-0.7, 0.0), (0.0, 0.0), (0.0, 0.4), (0.0, -0.4),
    (0.5, 0.5), (-0.5, 0.5), (0.5, -0.5),
    (0.5, 0.5 * (1 + 1e-12)), (0.5, 0.5 * (1 - 1e-12)),
    (-0.5, 0.5 * (1 + 1e-12)), (-0.5, 0.5 * (1 - 1e-12)),
    (0.3, 0.9), (-0.3, 0.9), (1e-300, 1e-300 * (1 + 1e-12)), (2e-17, 3.1),
    (-3.1, 2e-17), (1e3, 2.5e3),
]


def test_angular_closed_form_matches_quadrature_on_adversarial_pairs():
    mpmath.mp.dps = 40
    f, g = np.array(ADVERSARIAL).T
    got = wg._angular_abs(f, g)
    for k, (fk, gk) in enumerate(ADVERSARIAL):
        want = _angular_reference(fk, gk)
        scale = abs(fk) + abs(gk)
        assert abs(got[k] - float(want)) <= 1e-12 * scale, (fk, gk)


def test_angular_closed_form_is_continuous_at_the_kink():
    # Across g = |f| the two branches meet to rounding.
    f = np.full(5, 0.37)
    g = f * (1.0 + np.array([-2e-16, 0.0, 2e-16, 1e-14, 1e-10]))
    assert np.max(np.abs(wg._angular_abs(f, g) - 2.0 * math.pi * 0.37)) <= 1e-14


# --- the reduction itself ---------------------------------------------------

@pytest.mark.parametrize("kind", ["epr", "noon"])
@pytest.mark.parametrize("window", [FockWindow(0, 0), FockWindow(1, 2), FockWindow(2, 0)],
                         ids=lambda w: "n1=%d,m1=%d" % (w.n1, w.m1))
def test_wigner_depends_only_on_the_combined_angle(kind, window):
    # EPR type: W(phi_a + s, phi_b - s) = W(phi_a, phi_b); NOON type: shift
    # both angles by the same s.
    rng = np.random.default_rng(21)
    sign = -1.0 if kind == "epr" else 1.0
    for _ in range(12):
        rho = _x_state(rng, kind)
        ra, rb = rng.uniform(0.0, 2.5, 2)
        pa, pb, shift = rng.uniform(0.0, 2.0 * math.pi, 3)
        w0 = wg.wigner_joint(rho, ra * np.exp(1j * pa), rb * np.exp(1j * pb), window)
        w1 = wg.wigner_joint(rho, ra * np.exp(1j * (pa + shift)),
                             rb * np.exp(1j * (pb + sign * shift)), window)
        assert abs(w1 - w0) <= 1e-15


@pytest.mark.parametrize("kind", ["epr", "noon"])
def test_radial_form_reproduces_the_wigner_function(kind):
    # W(ra, rb e^{i theta}) = f + g cos(+-theta - chi): its mean over
    # theta = 0, pi is f, and its four quarter-turn values give |g|.
    rng = np.random.default_rng(22)
    window = FockWindow(1, 2)
    rho = _x_state(rng, kind)
    x = wg._XState(rho, 5.0, window)
    for ra, rb in rng.uniform(0.05, 2.0, (4, 2)):
        a, b = C4 * x.a.values(np.array(ra)), x.b.values(np.array(rb))
        f = (x.pop.T @ a[:2]) @ b[:2]
        g = x.amp * a[2] * b[2]
        w0, w1, w2, w3 = (wg.wigner_joint(rho, ra, rb * 1j**k, window) for k in range(4))
        assert abs(0.5 * (w0 + w2) - f) <= 1e-15
        assert abs(math.hypot(0.5 * (w0 - w2), 0.5 * (w1 - w3)) - abs(g)) <= 1e-15


@pytest.mark.parametrize("m", range(0, wg._REDUCED_MAX_INDEX))
def test_radial_elements_match_displaced_parity(m):
    r = np.linspace(0.0, 7.0, 57)
    got = wg._Mode(m).values(r)
    for k, (p, q) in enumerate(((m, m), (m + 1, m + 1), (m, m + 1))):
        exact = wg.displaced_parity(p, q, r)
        assert np.max(np.abs(exact.imag)) <= 1e-15
        assert np.max(np.abs(got[k] - exact.real)) <= 1e-15


@pytest.mark.parametrize("n", range(0, wg._REDUCED_MAX_INDEX + 1))
def test_radial_elements_equal_separate_recurrences_bit_for_bit(n):
    # K[n, n] and K[n+1, n+1] share one Laguerre recurrence; the values must
    # be those of three separate evaluations, byte for byte.
    r = np.concatenate([np.linspace(0.0, 7.0, 57), np.random.default_rng(n).uniform(0, 7, 64)])
    x, e = 4.0 * r * r, np.exp(-2.0 * r * r)
    want = np.stack([
        (-1.0) ** n * wg.laguerre_assoc(n, 0, x) * e,
        (-1.0) ** (n + 1) * wg.laguerre_assoc(n + 1, 0, x) * e,
        (-1.0) ** (n + 1) / math.sqrt(n + 1) * (-2.0 * r) * wg.laguerre_assoc(n, 1, x) * e])
    assert wg._Mode(n).values(r).tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [0, 1, 2, 5, 10, 15, 16])
def test_radial_polynomial_roots_match_mpmath(m):
    # The kink edges come from companion-matrix roots of these polynomials
    # in x = r^2 (L_m(4x) and L_m^1(4x) up to a factor).
    mpmath.mp.dps = 50
    for d in (0, 1):
        got = np.sort(np.real(wg._roots(wg._radial_coeffs(m, d)[None])[0]))
        want = sorted(float(x) / 4 for x in mpmath.polyroots(
            [mpmath.binomial(m + d, m - i) * (-1) ** i / mpmath.factorial(i)
             for i in range(m, -1, -1)], maxsteps=500, extraprec=500)) if m else []
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-9 * max(want, default=1.0)


def test_gauss_legendre_rule():
    from numpy.polynomial.legendre import leggauss

    for q in (8, 16, 33, 64, 128):
        x, w = wg._gauss_legendre(q)
        xr, wr = leggauss(q)
        assert np.max(np.abs(x - xr)) <= 1e-15
        assert np.max(np.abs(w - wr) / wr) <= 1e-10  # leggauss's own weights err by ~1e-11
        # Exact for x^(2k), k < q.
        for k in (0, 1, q // 2, q - 1):
            assert abs(np.dot(w, x ** (2 * k)) - 2.0 / (2 * k + 1)) <= 1e-14


def test_roots_of_degenerate_rows():
    # A vanishing leading coefficient gives an infinite (real) root; an
    # all-zero row gives no finite one.
    polys = np.array([[1.0, -3.0, 2.0], [0.0, 1.0, -0.5], [0.0, 0.0, 0.0]])
    z = wg._roots(polys)
    assert sorted(z[0].real) == pytest.approx([1.0, 2.0])
    assert np.isinf(z[1, 0]) and z[1, 1] == pytest.approx(0.5)
    assert np.all(np.isinf(z[2]))
    assert np.all(wg._is_real(z))


# --- routing --------------------------------------------------------------

def test_routing_decides_from_exact_zeros():
    # The X structure is states.x_corners' (its cases are in test_states.py):
    # one corner pair at most.  The reduced path adds its own guards.
    w = FockWindow(0, 0)
    epr, noon = states.build_epr(0.6, 0.8), states.build_noon(0.8, 0.6)
    both = epr.copy()
    both[1, 2] = both[2, 1] = 1e-300
    off = epr.copy()
    off[0, 1] = off[1, 0] = 1e-300
    diag = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert wg._reduced(np.array([epr, noon, diag, both, off]), w).tolist() == [
        True, True, True, False, False]
    skew = epr.copy()
    skew[3, 0] = np.nextafter(skew[3, 0].real, 1.0)
    bad = epr.copy()
    bad[0, 0] = np.inf
    assert wg._reduced(np.array([epr, skew, bad]), w).tolist() == [True, False, False]
    assert not wg._reduced(epr[None], FockWindow(0, wg._REDUCED_MAX_INDEX))[0]
    assert wg._reduced(epr[None], FockWindow(wg._REDUCED_MAX_INDEX - 1, 0))[0]


def test_non_x_states_keep_the_polar_rule_bit_for_bit():
    rng = np.random.default_rng(23)
    window = FockWindow(1, 0)
    extent = wg.default_extent(window)
    both = _x_state(rng, "epr")
    both[1, 2], both[2, 1] = 0.05, 0.05
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for rho in (both, g @ g.conj().T / np.trace(g @ g.conj().T).real):
        fine, coarse = wg.volume_pair(rho, 12, window)
        assert fine == wg._polar_volumes(rho[None], extent, window, 12)[0]
        assert coarse == wg._polar_volumes(rho[None], extent, window, 8)[0]


def test_non_finite_states_read_nan_volumes():
    # Off the X path W is NaN somewhere on the nodes, and so is the volume,
    # whichever entry is not finite; the gate then fails it.
    epr = states.build_epr(0.6, 0.8)
    for i, j in ((0, 1), (1, 2), (0, 0)):
        rho = epr.copy()
        rho[i, j] = rho[j, i] = np.nan if i != j else np.inf
        with np.errstate(invalid="ignore"):
            assert np.isnan(wg.volume_pair(rho, 10)).all()


def test_non_hermitian_x_state_raises_on_the_polar_rule():
    rho = states.build_epr(0.6, 0.8)
    rho[3, 0] = 0.2  # rho41 != conj(rho14): W has an imaginary part
    assert not wg._reduced(rho[None], FockWindow())[0]
    with pytest.raises(ConsistencyError):
        wg.volume_pair(rho, 10)


# --- accuracy ------------------------------------------------------------

def _trapezoid_volume(rho, points, window):
    """The trapezoid rule on the box [-L, L]^4: |W| on the `wigner_field`
    grid, integrated by `integrate_field`."""
    field = wg.wigner_field(rho, points, window)
    return 0.5 * (wg.integrate_field(wg.WignerField(field.extent, np.abs(field.values)))
                  - 1.0)


@pytest.mark.parametrize("kind", ["epr", "noon", "diag"])
@pytest.mark.parametrize("window", [FockWindow(0, 0), FockWindow(1, 2), FockWindow(2, 1)],
                         ids=lambda w: "n1=%d,m1=%d" % (w.n1, w.m1))
def test_reduced_volume_agrees_with_the_trapezoid_rule(kind, window):
    # The 48-point trapezoid rule on the box is off by about its gap to the
    # 24-point rule; the reduced value must sit within that gap of it.
    rng = np.random.default_rng(24)
    rho = (np.diag(rng.dirichlet(np.ones(4))).astype(complex) if kind == "diag"
           else _x_state(rng, kind))
    reduced, _ = wg.volume_pair(rho, 32, window)
    fine, coarse = (_trapezoid_volume(rho, n, window) for n in (48, 24))
    assert abs(reduced - fine) <= abs(fine - coarse)


@hst.composite
def _single_corner_x_states(draw):
    """A window up to (3, 3) and a state on it whose only coherence is one
    corner pair, rho14 or rho23, of any size and phase."""
    window = FockWindow(draw(hst.integers(0, 3)), draw(hst.integers(0, 3)))
    d = np.array([draw(hst.floats(0.01, 1.0)) for _ in range(4)])
    rho = np.diag(d / d.sum()).astype(complex)
    i, j = states.X_CORNERS[draw(hst.integers(0, 1))]
    rho[i, j] = (draw(hst.floats(0.0, 1.0)) * math.sqrt(rho[i, i].real * rho[j, j].real)
                 * np.exp(1j * draw(hst.floats(0.0, 2.0 * math.pi))))
    rho[j, i] = np.conj(rho[i, j])
    return rho, window


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_single_corner_x_states())
def test_polar_rule_agrees_with_the_reduced_rule(case):
    # Two radial quadratures that share only `_angular_abs`: plain panels
    # with phi_a on nodes, and kink-aligned panels with both angles in
    # closed form.  The plain panels do not end on the kinks of |W|, so at
    # 64 nodes they read up to 4.6e-3 from the reduced value over 600
    # examples of this strategy on window (3, 3) (1e-2 is about twice that).
    rho, window = case
    extent = wg.default_extent(window)
    polar = wg._polar_volumes(rho[None], extent, window, 64)[0]
    assert abs(polar - wg._XState(rho, extent, window).volume(64)) <= 1e-2


def _fig5_panels():
    for keys, outputs in cli.FIGURES["fig5"]:
        scn = cli._scn(**keys)
        traj = dynamics.evolve(scn.rho0, scn.evolution, scn.model, scn.times)
        yield outputs[1][1], scn, traj.states


def test_fig5_volumes_converge_in_the_radial_nodes():
    # At the published points (32 and 64) the volumes agree with twice the
    # nodes to 1e-9; the fig5b value at t = 0.68 reads 0.24112777 (a
    # 3200-node uniform radial rule gives 0.241127774).
    for name, scn, stack in _fig5_panels():
        fine, _ = wg.volume_pair(stack, scn.points, scn.window)
        twice, _ = wg.volume_pair(stack, 2 * scn.points, scn.window)
        assert np.max(np.abs(fine - twice)) <= 1e-9, name
        if name == "fig5b_volume":
            assert 0.24112777 <= fine[-1] < 0.24112778


# --- the kink roots -------------------------------------------------------

def _two_solve_kinks(x, ra):
    """`_XState._kinks` with one companion solve per curve, f + g and f - g,
    and the number of infinite roots among them."""
    a = x.a.polys(ra)
    f = (x.pop.T @ a[:2]).T @ x.b.rpoly[:2]
    g = np.outer(x.amp * a[2], x.b.rpoly[2])
    z = wg._roots(np.concatenate([f + g, f - g]) if x.amp else f)
    real = wg._is_real(z)
    rb = np.where(real & (z.real > 0.0) & (z.real < x.extent), z.real, x.extent)
    parts = len(z) // len(ra)
    return (rb.reshape(parts, len(ra), -1).swapaxes(0, 1).reshape(len(ra), -1),
            real.reshape(parts, len(ra), -1).sum(axis=(0, 2)), int(np.isinf(z).sum()))


def _kink_cases():
    """(state, window, node counts): the fig5 states at their fine and
    coarse rules, the escape-radius state of window (1, 3) alone and with
    an EPR coherence, and seeded EPR and NOON states on windows up to (4, 4)."""
    for _, scn, stack in _fig5_panels():
        for rho in stack:
            yield rho, scn.window, (scn.points, max(8, 2 * math.ceil(scn.points / 4)))
    escape = np.diag([0.1824054125781749, 0.254710915234715, 0.2819291847511629,
                      0.28095448743594725]).astype(complex)
    epr = escape.copy()
    epr[0, 3] = epr[3, 0] = 0.2
    for rho in (escape, epr):
        yield rho, FockWindow(1, 3), (32, 16)
    rng = np.random.default_rng(32)
    for n1 in range(5):
        for m1 in range(5):
            for kind in ("epr", "noon"):
                yield _x_state(rng, kind), FockWindow(n1, m1), (16, 8)


def test_one_solve_kinks_match_two_solves():
    # f - g is f + g with the odd powers of rb negated, so `_kinks` takes
    # its roots as those of f + g negated.  Rows: the outer nodes of each
    # rule as `volume` lays them out, and the outer edges, where a root of
    # f + g escapes to +inf (and one of f - g to -inf).
    escapes = 0
    for rho, window, orders in _kink_cases():
        x = wg._XState(rho, wg.default_extent(window), window)
        for q in orders:
            x.volume(q)
            ra = np.concatenate([x._outer_nodes(q)[0], x.outer])
            kinks, count = x._kinks(ra)
            want, want_count, infinite = _two_solve_kinks(x, ra)
            escapes += infinite * (x.amp > 0)
            assert np.array_equal(count, want_count)
            got, want = np.sort(kinks, axis=1), np.sort(want, axis=1)
            assert np.all(np.abs(got - want) <= 1e-14 * want)
    assert escapes > 0


# --- the working set of the radial quadrature -----------------------------

_PANEL_NODES = wg._panel_nodes


def _blocked_volume(monkeypatch, rho, extent, window, q, budget):
    """A fresh _XState's volume at q nodes with the block budget set to
    `budget` nodes, and the (rows, nodes per row) of every inner block."""
    monkeypatch.setattr(wg, "_ELEMENTS", budget)
    blocks = []

    def spy(edges, kinks, q):
        nodes, weights = _PANEL_NODES(edges, kinks, q)
        if edges.ndim == 2:  # the inner nodes; the outer edges are one row
            blocks.append(nodes.shape)
        return nodes, weights

    monkeypatch.setattr(wg, "_panel_nodes", spy)
    return wg._XState(rho, extent, window).volume(q), blocks


def _random_x_states():
    rng = np.random.default_rng(26)
    for window in (FockWindow(2, 1), FockWindow(3, 3), FockWindow(1, 4)):
        for kind in ("epr", "noon", "diag"):
            rho = (np.diag(rng.dirichlet(np.ones(4))).astype(complex) if kind == "diag"
                   else _x_state(rng, kind))
            yield rho, wg.default_extent(window), window, 16


def test_reduced_volume_bits_do_not_depend_on_the_block_rows(monkeypatch):
    # Budgets of more than a chunk (one block per chunk), of one row and of
    # three rows of the widest chunk (3 does not divide _CHUNK); windows
    # with more than one chunk of outer nodes cover the chunk boundaries.
    cases = [(rho, wg.default_extent(scn.window), scn.window, scn.points)
             for _, scn, stack in _fig5_panels() for rho in stack]
    cases += list(_random_x_states())
    several = 0
    for rho, extent, window, q in cases:
        whole, chunks = _blocked_volume(monkeypatch, rho, extent, window, q, 2**40)
        assert all(rows == wg._CHUNK for rows, _ in chunks[:-1])
        several += len(chunks) > 1
        widest = max(width for _, width in chunks)
        one, blocks = _blocked_volume(monkeypatch, rho, extent, window, q, 1)
        assert one == whole and {rows for rows, _ in blocks} == {1}
        three, blocks = _blocked_volume(monkeypatch, rho, extent, window, q, 3 * widest)
        assert three == whole and (3, widest) in blocks
    assert several >= 10


def test_reduced_volume_peak_allocation():
    # The fig5b configuration: an EPR state on window (0, 2) at 64 points.
    # The inner blocks hold about _ELEMENTS nodes (some ten arrays of them
    # at 8 bytes each); a whole 128-row chunk at once peaked at 7.4 MB.
    scn = cli._scn(**cli.FIGURES["fig5"][1][0])
    assert (scn.window, scn.points) == (FockWindow(0, 2), 64)
    wg.volume_pair(scn.rho0, scn.points, scn.window)  # fills the rule cache
    tracemalloc.start()
    try:
        wg.volume_pair(scn.rho0, scn.points, scn.window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "next to an escape radius, where a kink root comes in from infinity, "
    "the outer integrand varies on a scale finer than the outer panels: "
    "32 nodes read 0.443706897 here, 9.0e-6 below 128 nodes"))
def test_reduced_volume_converges_next_to_an_escape_radius():
    # A diagonal state on window (1, 3), where 128 and 256 nodes agree to
    # 2.5e-12.  The reference gets its own _XState, because the outer edges
    # that one volume call finds stay for the next.
    window = FockWindow(1, 3)
    rho = np.diag([0.1824054125781749, 0.254710915234715, 0.2819291847511629,
                   0.28095448743594725]).astype(complex)
    fine, _ = wg.volume_pair(rho, 32, window)
    reference = wg._XState(rho, wg.default_extent(window), window).volume(128)
    assert abs(fine - reference) <= 1e-9


def test_reduced_path_resolves_the_noon_gate_case(tmp_path):
    # NOON at 16 points: the trapezoid rule's gap exceeds the gate, the
    # reduced rule's 16 and 8 nodes per panel agree and match 64 nodes.
    scn = scenario.parse_scenario(
        "schema = 1\nstate = noon\nmodel = markovian\nt_max = 0\nsteps = 2\n"
        "points = 16\n")
    fine, coarse = wg.volume_pair(scn.rho0, scn.points, scn.window)
    assert abs(fine - coarse) <= cli.VOLUME_GATE
    ref, _ = wg.volume_pair(scn.rho0, 64, scn.window)
    assert abs(fine - ref) <= 1e-6
    box = [_trapezoid_volume(scn.rho0, n, scn.window) for n in (16, 8)]
    assert abs(box[0] - box[1]) > cli.VOLUME_GATE
    paths = cli.run_scenario(scn, [("volume", "volume")], str(tmp_path))
    assert os.path.exists(paths[0])


def test_cli_import_loads_no_numpy_polynomial():
    # The Gauss-Legendre nodes come from numpy.linalg, which numpy loads
    # anyway; a reduced volume must not pull in numpy.polynomial.
    src = os.path.dirname(os.path.dirname(os.path.abspath(twocav.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, twocav.cli as c\n"
            "from twocav import states, wigner\n"
            "wigner.volume_pair(states.build_epr(0.6, 0.8), 10)\n"
            "print(any(m.startswith('numpy.polynomial') for m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]
