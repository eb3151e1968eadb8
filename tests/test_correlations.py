import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy import optimize

from twocav import cli, correlations as co, dynamics, states, teleport
from twocav.errors import DomainError

import errata
import oracles

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
        assert oracles.log_negativity(rho) == pytest.approx(1.0, abs=1e-12)
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
        assert oracles.log_negativity(rho) == pytest.approx(
            math.log2(1.0 + 2.0 * n), abs=1e-10
        )
        # The report's discord falls back to brute force on these non-X
        # states, so check every tenth one to keep the suite fast.
        if i % 10 == 0:
            rep = co.correlation_report(rho)
            assert rep.log_negativity == oracles.log_negativity(rho)
            assert rep.negativity == n


def test_x_state_concurrence_closed_forms():
    rng = np.random.default_rng(6)
    for _ in range(100):
        rho = random_x_state(rng)
        closed = max(co.concurrence_x_epr(rho), co.concurrence_x_noon(rho))
        assert closed == pytest.approx(co.concurrence(rho), abs=1e-12)


def test_x_state_log_negativity_closed_forms():
    # The report's X path against the general partial-transpose eigvalsh, on
    # states with one corner (EPR- or NOON-type) and with both.
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = random_x_state(rng)
        rho_epr = rho.copy()
        rho_epr[1, 2] = rho_epr[2, 1] = 0.0
        rho_noon = rho.copy()
        rho_noon[0, 3] = rho_noon[3, 0] = 0.0
        for r in (rho_epr, rho_noon, rho):
            assert co.correlation_report(r).log_negativity == pytest.approx(
                oracles.log_negativity(r), abs=1e-10)


def test_discord_x_matches_bruteforce():
    rng = np.random.default_rng(8)
    for _ in range(25):
        rho = random_x_state(rng)
        assert co.discord_x(rho) == pytest.approx(
            co.discord_bruteforce(rho), abs=1e-4
        )


def _objective_grid(rho, thetas, phis):
    """`co._conditional_entropy` of rho on the (thetas x phis) grid, raveled
    with theta the slow index."""
    return co._conditional_entropy(co._bloch_coefficients(rho),
                                   np.asarray(thetas)[:, None], np.asarray(phis)[None, :])


def _einsum_conditional_entropy(rho, thetas, phis):
    """Oracle for `co._conditional_entropy`: project B onto the complex
    measurement vectors, take each 2x2 block of A from an einsum, and sum
    -lam log2(lam / p) over the closed-form eigenvalues of the blocks."""
    r4 = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    tg, pg = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    c, s = np.cos(tg / 2.0), np.sin(tg / 2.0)
    v0 = np.stack([c, np.exp(1j * pg) * s], axis=1)
    v1 = np.stack([-np.exp(-1j * pg) * s, c], axis=1)
    total = np.zeros(len(tg))
    with np.errstate(divide="ignore", invalid="ignore"):
        for v in (v0, v1):
            block = np.einsum("gi,aibj,gj->gab", v.conj(), r4, v)
            tr = np.real(block[:, 0, 0] + block[:, 1, 1])
            det = np.real(block[:, 0, 0] * block[:, 1, 1] - block[:, 0, 1] * block[:, 1, 0])
            disc = np.sqrt(np.clip(tr**2 - 4.0 * det, 0.0, None))
            lp = np.where(tr > 1e-15, np.log2(tr), 0.0)
            for lam in (0.5 * (tr + disc), 0.5 * (tr - disc)):
                total += np.where(lam > 1e-15, -lam * np.log2(lam) + lam * lp, 0.0)
    return total


_unit = hst.floats(0.0, 1.0)


@hst.composite
def _unitaries(draw):
    g = np.array(draw(hst.lists(hst.floats(-1.0, 1.0), min_size=32, max_size=32)))
    q, _ = np.linalg.qr((g[:16] + 1j * g[16:]).reshape(4, 4))
    return q


@hst.composite
def _spectra(draw):
    """Eigenvalues of the adversarial families, with trace 1 (at most 1 for
    near-pure): near-pure, rank 1, rank 2, and one small negative eigenvalue
    over three positive ones of at least 1/60 each."""
    kind = draw(hst.sampled_from(["near_pure", "rank1", "rank2", "negative"]))
    if kind == "near_pure":
        eps = draw(hst.floats(0.0, 1e-6))
        tail = np.array([draw(_unit) for _ in range(3)])
        return np.concatenate([[1.0 - eps], eps * tail / max(tail.sum(), 1.0)])
    if kind == "rank1":
        return np.array([1.0, 0.0, 0.0, 0.0])
    if kind == "rank2":
        x = draw(_unit)
        return np.array([x, 1.0 - x, 0.0, 0.0])
    w = np.array([draw(hst.floats(0.05, 1.0)) for _ in range(3)])
    neg = -draw(hst.floats(1e-15, 1e-3))
    return np.concatenate([[neg], w]) / (w.sum() + neg)


@hst.composite
def _adversarial_states(draw):
    """A state of `_spectra` in a random eigenbasis, or (populations near 0
    and 1) |00><00| mixed with a state of weight at most 1e-6 in the
    computational basis; then scaled to a trace in [0.01, 1], as in leaky
    windows."""
    u = draw(_unitaries())
    rho = (u * draw(_spectra())) @ u.conj().T
    if draw(hst.booleans()):
        w = draw(hst.floats(0.0, 1e-6))
        rho = w * rho
        rho[0, 0] += 1.0 - w
    return draw(hst.floats(0.01, 1.0)) * rho


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_adversarial_states(), hst.floats(0.0, math.pi), hst.floats(0.0, 2.0 * math.pi))
def test_bloch_objective_matches_the_einsum_oracle(rho, theta, phi):
    # Both evaluate the same four block eigenvalues in different rounding.
    # An eigenvalue off by d ~ 1e-15 moves -lam log2 lam by at most
    # d (log2(1/1e-15) + 1/ln 2) ~ 5e-14 at the 1e-15 cut-off, which is also
    # the most a term that one side keeps and the other drops can carry;
    # over four eigenvalues that is below 4e-13, so 1e-12 (see CHANGES.md).
    thetas = np.array([0.0, theta, math.pi])
    phis = np.array([phi])
    got = _objective_grid(rho, thetas, phis)
    want = _einsum_conditional_entropy(rho, thetas, phis)
    assert np.max(np.abs(got - want)) <= 1e-12


def _eigen_entropy(rho):
    """Oracle von Neumann entropy in bits: -sum v log2 v over the eigenvalues
    of the Hermitian part above 1e-15."""
    vals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log2(vals)))


def _interior_optimum_state():
    """The X state on which the two-candidate `discord_x` misses the
    interior minimum over theta."""
    p = np.array([0.0861, 0.8677, 0.0445, 0.0017])
    rho = np.diag(p / p.sum()).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.0067
    rho[1, 2] = rho[2, 1] = 0.1503
    return rho


def _discord_by_theta_search(rho):
    """Discord of a real X state from a 1-D search over theta.

    Its conditional entropy depends on phi only through the length of the
    in-plane part of T n, which is largest at phi = 0 or pi / 2, so those
    two meridians hold the minimum.  A 4001-point scan of the oracle seeds
    a bounded scalar minimization on each."""
    rho_b = np.einsum("aiaj->ij", rho.reshape(2, 2, 2, 2))
    best = math.inf
    thetas = np.linspace(0.0, math.pi, 4001)
    for phi in (0.0, math.pi / 2.0):
        def s_cond(theta):
            return _einsum_conditional_entropy(rho, [theta], [phi])[0]
        k = int(np.argmin(_einsum_conditional_entropy(rho, thetas, [phi])))
        res = optimize.minimize_scalar(
            s_cond, bounds=(thetas[max(k - 1, 0)], thetas[min(k + 1, 4000)]),
            method="bounded", options={"xatol": 1e-12})
        best = min(best, res.fun, s_cond(0.0), s_cond(math.pi))
    return _eigen_entropy(rho_b) - _eigen_entropy(rho) + best


def test_bruteforce_finds_the_interior_optimum():
    rho = _interior_optimum_state()
    d = co.discord_bruteforce(rho)
    assert d == pytest.approx(_discord_by_theta_search(rho), abs=1e-9)
    assert d == pytest.approx(0.1313069, abs=5e-8)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the two-candidate discord_x checks only the endpoints theta = 0 and "
    "pi / 2 and reads 0.1324642 here, against the interior optimum 0.1313069"))
def test_discord_x_finds_the_interior_optimum():
    rho = _interior_optimum_state()
    assert co.discord_x(rho) == pytest.approx(_discord_by_theta_search(rho), abs=1e-9)


def test_refinement_objective_reproduces_the_scan_bit_for_bit():
    # The stencil refinement evaluates the scan's function at points off the
    # scan grid; at a scan point it gives the scan's bits.
    rng = np.random.default_rng(11)
    n = co.BRUTEFORCE_GRID
    thetas = np.linspace(0.0, math.pi, n)
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pure = states.build_epr(0.6, 0.8)
    product = np.kron(np.diag([0.7, 0.3]), np.diag([0.4, 0.6])).astype(complex)
    for rho in (random_state(rng), random_state(rng), pure, product):
        scan = _objective_grid(rho, thetas, phis).reshape(n, n)
        for i, j in ((0, 0), (n - 1, n - 1), (17, 40), (40, 17), (n // 2, 0)):
            point = _objective_grid(rho, thetas[[i]], phis[[j]])
            assert point.tobytes() == scan[i, j:j + 1].tobytes()


_SIGNS = np.array([1.0, -1.0])


def _stacked_conditional_entropy(c, theta, phi):
    """Oracle for `co._conditional_entropy`: the same operations in the same
    order, on stacked (outcome, row, point) arrays with the outcome signs
    as a multiplier."""
    c = np.reshape(c, (4, 4, 1))
    st = np.sin(theta)
    n = np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi),
                                     np.cos(theta))).reshape(3, -1)
    m = c[:, 1:] * n
    v = c[:, 0] + _SIGNS[:, None, None] * (m[:, 0] + m[:, 1] + m[:, 2])
    tr = 0.5 * v[:, 0]
    u2 = v[:, 1:] * v[:, 1:]
    disc = 0.5 * np.sqrt(u2[:, 0] + u2[:, 1] + u2[:, 2])
    lam = 0.5 * (tr[:, None] + _SIGNS[:, None] * disc[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.where(tr > 1e-15, np.log2(tr), 0.0)[:, None]
        e = np.where(lam > 1e-15, -lam * np.log2(lam) + lam * lp, 0.0)
    return e[0, 0] + e[0, 1] + e[1, 0] + e[1, 1]


def _grid_minimum(c, thetas, phis):
    vals = _stacked_conditional_entropy(c, thetas[:, None], phis[None, :])
    k = int(np.argmin(vals))
    return vals[k], thetas[k // len(phis)], phis[k % len(phis)]


def _sequential_discord(rho):
    """Oracle for `co.discord_bruteforce`: the same scan and stencil search,
    one step per stencil evaluation, on the stacked objective."""
    rho = np.asarray(rho, dtype=complex)
    rho_b = np.einsum("aiaj->ij", rho.reshape(2, 2, 2, 2))
    s_b = _eigen_entropy(rho_b)
    s_ab = _eigen_entropy(rho)
    c = co._bloch_coefficients(rho)
    thetas = np.linspace(0.0, math.pi, co.BRUTEFORCE_GRID)
    phis = np.linspace(0.0, 2.0 * math.pi, co.BRUTEFORCE_GRID, endpoint=False)
    best, theta, phi = _grid_minimum(c, thetas, phis)
    d_theta, d_phi = thetas[1], phis[1]
    for _ in range(co._REFINE_STEPS):
        if d_theta < 1e-11:
            break
        val, t, p = _grid_minimum(c, theta + d_theta * co._STENCIL,
                                  phi + d_phi * co._STENCIL)
        if val < best:
            best, theta, phi = val, t, p
        else:
            d_theta, d_phi = 0.5 * d_theta, 0.5 * d_phi
    return s_b - s_ab + float(best)


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_adversarial_states())
def test_bruteforce_matches_the_sequential_search_bit_for_bit(rho):
    n = co.BRUTEFORCE_GRID
    thetas = np.linspace(0.0, math.pi, n)
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    scan = _objective_grid(rho, thetas, phis)
    c = co._bloch_coefficients(rho)
    oracle = _stacked_conditional_entropy(c, thetas[:, None], phis[None, :])
    assert scan.tobytes() == oracle.tobytes()
    assert _bits(co.discord_bruteforce(rho)) == _bits(_sequential_discord(rho))


def _coherent_window_states():
    """Coherent window states on six windows, at t = 0 and evolved with a
    seeded nbar and gamma_m, and the non-positive state of the
    coherent-positivity defect (minimum eigenvalue -0.0166 at t = 0.86)."""
    rng = np.random.default_rng(20)
    out = []
    for n1, m1 in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 0)):
        window = states.FockWindow(n1, m1)
        rho0 = states.pure_state(states.coherent_amplitudes_paper(
            float(rng.uniform(0.3, 1.5)), window))
        params = dynamics.EvolutionParams(window=window, nbar=float(rng.uniform(0.0, 0.3)))
        traj = dynamics.evolve(rho0, params, dynamics.Markovian(float(rng.uniform(0.5, 1.5))),
                               [0.0, float(rng.uniform(0.5, 3.0))])
        out += list(traj.states)
    window = states.FockWindow(0, 0)
    rho0 = states.pure_state(states.coherent_amplitudes_paper(1.440556, window))
    traj = dynamics.evolve(rho0, dynamics.EvolutionParams(window=window),
                           dynamics.Markovian(1.011822), [0.0, 0.86])
    return out + [traj.states[-1]]


def test_bruteforce_matches_the_sequential_search_on_coherent_windows():
    rhos = _coherent_window_states()
    assert np.linalg.eigvalsh(rhos[-1])[0] < -0.016
    for rho in rhos:
        assert _bits(co.discord_bruteforce(rho)) == _bits(_sequential_discord(rho))


@pytest.mark.parametrize("cap", [1, 5, 33, 34, 40])
def test_bruteforce_stops_at_the_step_cap_as_the_sequential_search_does(cap, monkeypatch):
    # A batch of halvings must not run past the cap.  No state seen needs
    # the production cap of 200, so only a lowered one reaches this branch.
    rng = np.random.default_rng(21)
    rhos = [random_state(rng) for _ in range(4)] + _coherent_window_states()[-3:]
    uncapped = [co.discord_bruteforce(rho) for rho in rhos]
    monkeypatch.setattr(co, "_REFINE_STEPS", cap)
    capped = [co.discord_bruteforce(rho) for rho in rhos]
    assert list(map(_bits, capped)) == list(map(_bits, map(_sequential_discord, rhos)))
    if cap < 33:  # the theta step cannot reach 1e-11 in fewer steps
        assert capped != uncapped


def test_discord_x_rejects_non_x_states():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = rho[1, 0] = 0.1
    with pytest.raises(DomainError):
        co.discord_x(rho)


def test_discord_x_decides_from_exact_zeros():
    # NaN outside the X pattern is not X: a tolerance test (|entry| > 1e-9)
    # is False on NaN, and discord_x read 0.9427 on this state.
    rho = states.build_epr(0.6, 0.8)
    rho[0, 1] = math.nan
    with pytest.raises(DomainError):
        co.discord_x(rho)
    # Any nonzero entry outside the pattern, however small, is not X; -0.0 is
    # zero.
    tiny = states.build_epr(0.6, 0.8)
    tiny[1, 3] = 1e-300
    with pytest.raises(DomainError):
        co.discord_x(tiny)
    signed = states.build_epr(0.6, 0.8)
    signed[1, 3] = signed[3, 1] = complex(-0.0, -0.0)
    assert co.discord_x(signed) == co.discord_x(states.build_epr(0.6, 0.8))


def test_correlation_report_routes_each_state_by_exact_zeros():
    # A state 1e-12 off the X pattern takes brute force, within a stack
    # too; an X state takes the closed form.
    x = states.build_epr(0.6, 0.8)
    near = x.copy()
    near[0, 1] = near[1, 0] = 1e-12
    rep = co.correlation_report(np.array([x, near]))
    assert rep.discord[0] == co.discord_x(x)
    assert rep.discord[1] == co.discord_bruteforce(near)


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
        oracles.log_negativity(dynamics.evolve_analytic_vacuum(rho0, th, states.FockWindow()))
        for th in thetas
    ]
    assert all(x >= y - 1e-12 for x, y in zip(ln, ln[1:]))
    assert ln[0] == pytest.approx(1.0, abs=1e-10)


# --- closed-form X measures against the general definitions ---------------

def _h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _shannon(values):
    s = 0.0
    for v in values:
        if v > 1e-15:
            s -= v * math.log2(v)
    return s


def _scalar_discord_x(rho):
    """Oracle for the discord of `co._x_measures`: the two-candidate formula
    one state at a time, in Python floats with libm's log2, hypot and sqrt."""
    p = np.real(np.diag(rho)).tolist()
    a14, a23 = abs(complex(rho[0, 3])), abs(complex(rho[1, 2]))
    s_b = _h2(p[0] + p[2])
    lam = []
    for x, y, c in ((p[0], p[3], a14), (p[1], p[2], a23)):
        r = math.hypot(x - y, 2.0 * c)
        lam += (0.5 * ((x + y) + r), 0.5 * ((x + y) - r))
    s = 0.5 * (1.0 + math.sqrt((1.0 - 2.0 * (p[2] + p[3])) ** 2
                               + 4.0 * (a14 + a23) ** 2))
    return s_b - _shannon(lam) + min(_h2(s), _shannon(p) - s_b)


def _mp_matrix(rho):
    return mpmath.matrix(np.asarray(rho, dtype=complex).tolist())


def _mp_negativity(rho):
    """The definition of `co.negativity` in mpmath: the eigenvalues of the
    Hermitian part of the partial transpose, from `eighe`."""
    pt = _mp_matrix(co.partial_transpose_b(rho))
    e = mpmath.eighe((pt + pt.H) / 2, eigvals_only=True)
    return mpmath.fsum((abs(x) - x) / 2 for x in e)


def _mp_concurrence(rho):
    """The definition of `co.concurrence` in mpmath, for an X state: square
    roots of the clipped real parts of the eigenvalues of rho rho~, which
    has the X pattern too, so they are those of its 2x2 blocks on rows
    (0, 3) and (1, 2), from the quadratic formula (no iteration, so exact
    and defective blocks cost nothing in accuracy)."""
    assert not states.x_corners(rho)[0]
    m = _mp_matrix(rho)
    flip = _mp_matrix(co._SPIN_FLIP)
    r = m * (flip * m.conjugate() * flip)
    lam = []
    for i, j in states.X_CORNERS:
        half = (r[i, i] + r[j, j]) / 2
        root = mpmath.sqrt(half**2 - (r[i, i] * r[j, j] - r[i, j] * r[j, i]))
        lam += [mpmath.sqrt(max(mpmath.mpf(0), mpmath.re(half + s))) for s in (root, -root)]
    lam.sort()
    return max(mpmath.mpf(0), lam[3] - lam[2] - lam[1] - lam[0])


def _mp_discord(rho):
    """`_scalar_discord_x` in mpmath, on the same double entries."""
    def h2(x):
        return 0 if x <= 0 or x >= 1 else -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)

    def shannon(values):
        return -mpmath.fsum(v * mpmath.log(v, 2) for v in values if v > mpmath.mpf(1e-15))

    p = [mpmath.mpf(x) for x in np.real(np.diag(rho)).tolist()]
    a14, a23 = abs(mpmath.mpc(complex(rho[0, 3]))), abs(mpmath.mpc(complex(rho[1, 2])))
    lam = []
    for x, y, c in ((p[0], p[3], a14), (p[1], p[2], a23)):
        r = mpmath.sqrt((x - y) ** 2 + 4 * c**2)
        lam += ((x + y + r) / 2, (x + y - r) / 2)
    s = (1 + mpmath.sqrt((1 - 2 * (p[2] + p[3])) ** 2 + 4 * (a14 + a23) ** 2)) / 2
    s_b = h2(p[0] + p[2])
    return s_b - shannon(lam) + min(h2(s), shannon(p) - s_b)


@hst.composite
def _x_states(draw):
    """Hermitian X states: positive with unit trace, positive with a trace
    in [0.01, 1] as on a drained window, or non-positive, with populations
    in [-0.5, 1] and corner moduli in [0, 1] whatever the populations; each
    with no corner, either one or both set, at any phase.  A positive
    state's corner modulus is at most sqrt(p_i p_j)."""
    kind = draw(hst.sampled_from(["positive", "trace_losing", "non_positive"]))
    if kind == "non_positive":
        p = np.array([draw(hst.floats(-0.5, 1.0)) for _ in range(4)])
    else:
        w = np.array([draw(_unit) for _ in range(4)])
        p = w / w.sum() if w.sum() > 0.0 else np.full(4, 0.25)
        if kind == "trace_losing":
            p *= draw(hst.floats(0.01, 1.0))
    rho = np.diag(p).astype(complex)
    on = draw(hst.sampled_from([(False, False), (True, False), (False, True), (True, True)]))
    for (i, j), set_corner in zip(states.X_CORNERS, on):
        if set_corner:
            scale = 1.0 if kind == "non_positive" else math.sqrt(p[i] * p[j])
            c = cmath.rect(draw(_unit) * scale, draw(hst.floats(0.0, 2.0 * math.pi)))
            rho[i, j], rho[j, i] = c, c.conjugate()
    return rho


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_x_states())
def test_x_measures_match_the_general_definitions(rho):
    # Bounds measured over 40000 examples of this strategy (see CHANGES.md):
    # negativity against eigvalsh and discord against the scalar formula
    # differ by rounding only.  `concurrence` takes square roots of rounded
    # eigenvalues of rho rho~ and is off by up to ~1e-8 where a lambda is
    # near 0, so the closed form is held to its definition at 40 digits.
    neg, conc, disc = (float(v[0]) for v in co._x_measures(rho[None]))
    assert abs(neg - co.negativity(rho)) <= 2e-15
    assert abs(disc - _scalar_discord_x(rho)) <= 3e-15
    with mpmath.workdps(40):
        assert abs(conc - _mp_concurrence(rho)) <= 1e-15
    assert abs(conc - co.concurrence(rho)) <= 1e-7


@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2)])
def test_x_discord_with_a_nan_entry_is_the_scalar_one(entry):
    # A NaN population or corner takes the branch that scalar comparisons
    # take: a NaN eigenvalue or population drops out of an entropy sum, and
    # a NaN argument of the binary entropy stays NaN.
    rng = np.random.default_rng(17)
    i, j = entry
    for rho in (random_x_state(rng), states.build_epr(0.6, 0.8), states.build_noon(0.8, 0.6)):
        rho[i, j] = rho[j, i] = math.nan
        got, want = co._x_measures(rho[None])[2][0], _scalar_discord_x(rho)
        assert math.isnan(got) == math.isnan(want)
        if not math.isnan(want):
            assert abs(got - want) <= 3e-15


def _figure_rows(name, rows):
    """(states, report) of the given rows of a figure CSV: the trajectory
    states of a correlations panel, or the normalised outputs of a teleport
    panel, with the production measures of those rows."""
    (keys, command), = [(keys, cmd) for panels in cli.FIGURES.values()
                        for keys, outputs in panels for cmd, csv in outputs if csv == name]
    scn = cli._scn(**keys)
    traj = dynamics.evolve(scn.rho0, scn.evolution, scn.model, scn.times)
    if command == "teleport":
        res = teleport.teleport_general(traj.states, scn.teleport_input)
        report = teleport.teleported_measures(res)
        rho = res.rho_out / np.real(np.trace(res.rho_out, axis1=-2, axis2=-1))[:, None, None]
    else:
        report = co.correlation_report(traj.states)
        rho = traj.states
    return rho[rows], {m: getattr(report, m)[rows] for m in
                       ("negativity", "log_negativity", "concurrence", "discord")}


# fig2a, sampled; fig3b, where `eigvals` put the concurrence of row 3 off by
# 2.4e-13; fig4b, the drained window (trace 0.0101 at its last row); a
# non-positive teleported output of fig8b.
_REFERENCE_ROWS = (
    ("fig2a_measures", list(range(0, 200, 20))),
    ("fig3b_measures", [3] + list(range(0, 200, 10))),
    ("fig4b_measures", list(range(0, 200, 20)) + [199]),
    ("fig8b_teleport", [120]),
)


@pytest.mark.parametrize("name,rows", _REFERENCE_ROWS, ids=[n for n, _ in _REFERENCE_ROWS])
def test_figure_measures_against_40_digit_references(name, rows):
    # Largest errors on these rows: negativity 6.9e-17, log negativity
    # 1.4e-16, concurrence 2.1e-16 and discord 6.0e-16.  The concurrence
    # bound fails on the eigvals path, which is 2.4e-13 off on fig3b row 3.
    rhos, report = _figure_rows(name, rows)
    with mpmath.workdps(40):
        for k, rho in enumerate(rhos):
            neg = _mp_negativity(rho)
            assert abs(report["negativity"][k] - neg) <= 2e-16
            assert abs(report["log_negativity"][k] - mpmath.log(1 + 2 * neg, 2)) <= 5e-16
            assert abs(report["concurrence"][k] - _mp_concurrence(rho)) <= 1e-15
            assert abs(report["discord"][k] - _mp_discord(rho)) <= 2e-15
