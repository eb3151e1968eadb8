"""Top-level acceptance gate.

Each test covers one numbered release criterion, pins its tolerances
inline, and prints a single ``criterion-N: PASS`` line when it holds.
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from twocav import cli, correlations, dynamics, states, teleport, wigner

import errata
import oracles

INV_SQRT2 = 2 ** -0.5


def _report(number, ok):
    line = "criterion-%d: %s" % (number, "PASS" if ok else "FAIL")
    print(line, file=sys.stderr)
    assert ok, line


def _builders():
    return (("epr", states.build_epr), ("noon", states.build_noon))


def _models():
    return (
        (dynamics.Markovian(1.0), 5.0),
        (dynamics.NonMarkovianOhmic(r=1.0), 1.5),
        (dynamics.NonMarkovianOhmic(r=0.1), 3.0),
    )


def _random_density(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_x_state(rng):
    d = rng.dirichlet(np.ones(4))
    rho = np.diag(d).astype(complex)
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
    r14 = rng.random() * math.sqrt(d[0] * d[3])
    r23 = rng.random() * math.sqrt(d[1] * d[2])
    rho[0, 3] = r14 * phase
    rho[3, 0] = np.conj(rho[0, 3])
    rho[1, 2] = r23 * np.conj(phase)
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def test_criterion_1_engine_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for _, builder in _builders():
        rho0 = builder(INV_SQRT2, INV_SQRT2)
        for m in (0, 1):
            window = states.FockWindow(m, m)
            params = dynamics.EvolutionParams(window=window, nbar=0.0)
            for model, t_max in _models():
                times = np.linspace(0.0, t_max, 200)
                ode = dynamics.evolve_ode(rho0, params, model, times,
                                          substeps=20)
                ana = dynamics.evolve(rho0, params, model, times)
                worst = max(worst, float(np.max(np.abs(ana.states - ode.states))))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-8 and elapsed < 5.0)


def test_criterion_2_trace_law():
    ok = True
    model = dynamics.Markovian(1.0)
    times = np.linspace(0.0, 5.0, 120)
    for _, builder in _builders():
        rho0 = builder(INV_SQRT2, INV_SQRT2)
        params = dynamics.EvolutionParams(window=states.FockWindow(0, 0),
                                          nbar=0.0)
        traj = dynamics.evolve_ode(rho0, params, model, times)
        traces = np.einsum("kii->k", traj.states).real
        ok &= bool(np.max(np.abs(traces - 1.0)) <= 1e-9)

        params = dynamics.EvolutionParams(window=states.FockWindow(1, 1),
                                          nbar=0.0, closure_mode="leaky")
        traj = dynamics.evolve_ode(rho0, params, model, times)
        traces = np.einsum("kii->k", traj.states).real
        ok &= bool(np.all(np.diff(traces) < 0.0))
    _report(2, ok)


def test_criterion_3_initial_maxima():
    ok = True
    for _, builder in _builders():
        rho0 = builder(INV_SQRT2, INV_SQRT2)
        rep = correlations.correlation_report(rho0)
        for value in (rep.concurrence, rep.log_negativity, rep.discord):
            ok &= abs(value - 1.0) <= 1e-6
    _report(3, ok)


def test_criterion_4_sudden_death_at_ln2():
    model = dynamics.Markovian(1.0)
    rho0 = states.build_epr(INV_SQRT2, INV_SQRT2)

    def signed(t):
        theta = dynamics.accumulated_theta(model, t)
        rho = dynamics.evolve_analytic_vacuum(rho0, theta, states.FockWindow())
        return abs(rho[0, 3]) - math.sqrt(rho[1, 1].real * rho[2, 2].real)

    root = brentq(signed, 0.1, 3.0, xtol=1e-12)
    rho_after = dynamics.evolve_analytic_vacuum(
        rho0, dynamics.accumulated_theta(model, root + 0.05), states.FockWindow())
    _report(4, abs(root - math.log(2.0)) <= 1e-6
            and correlations.concurrence(rho_after) == 0.0)


def test_criterion_5_measure_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    ok = True
    for _ in range(1000):
        rho = _random_density(rng)
        n = correlations.negativity(rho)
        ln = oracles.log_negativity(rho)
        ok &= abs(ln - math.log2(1.0 + 2.0 * n)) <= 1e-10
    for _ in range(1000):
        rho = _random_x_state(rng)
        closed = max(correlations.concurrence_x_epr(rho),
                     correlations.concurrence_x_noon(rho))
        ok &= abs(closed - correlations.concurrence(rho)) <= 1e-12
    for _ in range(200):
        rho = _random_x_state(rng)
        ok &= abs(correlations.discord_x(rho)
                  - correlations.discord_bruteforce(rho)) <= 1e-4
    elapsed = time.perf_counter() - start
    _report(5, ok and elapsed < 60.0)


def test_criterion_6_wigner_checks():
    ok = True
    window = states.FockWindow(0, 0)
    vacuum = np.zeros((4, 4), dtype=complex)
    vacuum[0, 0] = 1.0
    w0 = wigner.wigner_joint(vacuum, 0.0, 0.0, window)
    ok &= abs(w0 - 4.0 / math.pi**2) <= 1e-10

    field = wigner.wigner_field(vacuum, 48, window)
    ok &= abs(wigner.integrate_field(field) - 1.0) <= 1e-3

    for m, mp, alpha in ((0, 0, 0.7 + 0.3j), (1, 2, -0.4 + 0.9j),
                         (2, 2, 1.1 - 0.2j)):
        cutoff = oracles.suggested_cutoff(max(m, mp), abs(alpha))
        a = oracles.displaced_parity_oracle(m, mp, alpha, cutoff=cutoff,
                                           check=False)
        b = oracles.displaced_parity_oracle(m, mp, alpha, cutoff=cutoff + 10,
                                           check=False)
        ok &= abs(a - b) <= 1e-10

    fock01 = np.zeros((4, 4), dtype=complex)
    fock01[1, 1] = 1.0
    v_fock, _ = wigner.volume_pair(fock01, 48, window)
    v_vac, _ = wigner.volume_pair(vacuum, 48, window)
    ok &= v_fock > 0.01 and v_vac < 1e-3
    _report(6, ok)


def test_criterion_7_teleportation_exactness():
    ok = True
    bell = states.build_epr(INV_SQRT2, INV_SQRT2)
    perfect = teleport.input_state(0.0, 1.0)
    res = teleport.teleport_general(bell, perfect)
    ok &= abs(res.fidelity - 1.0) <= 1e-12

    depolarized = np.eye(4, dtype=complex) / 4.0
    res = teleport.teleport_general(depolarized, perfect)
    ok &= abs(res.fidelity - 0.25) <= 1e-12

    rng = np.random.default_rng(11)
    for _ in range(50):
        channel = _random_density(rng)
        inp = teleport.input_state(rng.uniform(0.0, 0.5), rng.uniform(0.1, 1.0))
        res = teleport.teleport_general(channel, inp)
        ok &= abs(float(np.sum(res.probabilities)) - 1.0) <= 1e-12

    model = dynamics.Markovian(1.0)
    times = np.linspace(0.0, 4.0, 25)
    for name, builder in _builders():
        rho0 = builder(INV_SQRT2, INV_SQRT2)
        params = dynamics.EvolutionParams(window=states.FockWindow(0, 0),
                                          nbar=0.0)
        traj = dynamics.evolve_ode(rho0, params, model, times)
        closed = (teleport.closed_form_epr if name == "epr"
                  else teleport.closed_form_noon)
        q = 0.9
        inp = teleport.input_state(0.0, q)
        for rho in traj.states:
            res = teleport.teleport_general(rho, inp)
            c1, c2, c3 = closed(rho, 0.0, q)
            ok &= np.max(np.abs(res.rho_out
                                - oracles.closed_form_matrix(c1, c2, c3))) <= 1e-10
            ok &= abs(res.fidelity
                      - teleport.closed_form_fidelity(c1, c2, q)) <= 1e-10
    _report(7, ok)


def _monotone_after_start(series, slack=1e-9):
    return bool(np.all(np.diff(np.asarray(series)) <= slack))


def _read_csv(path):
    lines = open(path).read().splitlines()
    header = lines[1].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    return header, rows


def test_criterion_8_figure_shapes(tmp_path):
    ok = True
    budget_ok = True

    start = time.perf_counter()
    paths2 = cli.run_figures("fig2", str(tmp_path / "f2"))
    budget_ok &= time.perf_counter() - start < 10.0
    start = time.perf_counter()
    paths4 = cli.run_figures("fig4", str(tmp_path / "f4"))
    budget_ok &= time.perf_counter() - start < 10.0
    for path in [paths2[0]] + paths4:
        header, rows = _read_csv(path)
        for column in ("concurrence", "log_negativity", "discord"):
            ok &= _monotone_after_start(rows[:, header.index(column)])

    start = time.perf_counter()
    paths5 = cli.run_figures("fig5", str(tmp_path / "f5"))
    budget_ok &= time.perf_counter() - start < 300.0
    series = {}
    for path in paths5:
        header, rows = _read_csv(path)
        if "w_origin" in header:
            ok &= _monotone_after_start(rows[:, header.index("w_origin")])
        else:
            series["b" if "fig5b" in path else "a"] = rows[:, 1]
    # The volume grows with the window index m1: the m1 = 2 panel sits
    # strictly above the m1 = 0 panel at every sampled time.
    ok &= bool(np.all(series["b"] > series["a"]))

    start = time.perf_counter()
    paths6 = cli.run_figures("fig6", str(tmp_path / "f6"))
    budget_ok &= time.perf_counter() - start < 10.0
    header, rows = _read_csv(paths6[0])
    fid = rows[:, header.index("fidelity_closed")]
    ok &= bool(np.all(fid > 0.0)) and fid.max() > 2.0 / 3.0
    _report(8, ok and budget_ok)


def test_criterion_9_errata_enforced():
    ok = True
    model = dynamics.Markovian(1.0)
    rho0 = states.build_epr(INV_SQRT2, INV_SQRT2)
    params = dynamics.EvolutionParams(window=states.FockWindow(1, 1), nbar=0.0)
    times = np.linspace(0.0, 2.0, 40)
    traj = dynamics.evolve_ode(rho0, params, model, times)
    worst_printed = 0.0
    worst_fixed = 0.0
    for t, rho in zip(times, traj.states):
        theta = dynamics.accumulated_theta(model, t)
        printed = errata.printed_populations(rho0, theta, 1)
        fixed = np.real(np.diagonal(dynamics.evolve_analytic_vacuum(
            rho0, theta, states.FockWindow(1, 1))))
        diag = np.real(np.diagonal(rho))
        worst_printed = max(worst_printed,
                            float(np.max(np.abs(printed - diag))))
        worst_fixed = max(worst_fixed, float(np.max(np.abs(fixed - diag))))
    ok &= worst_printed > 1e-3 and worst_fixed <= 1e-9

    alpha = 0.8 + 0.5j
    worst_printed = 0.0
    worst_fixed = 0.0
    for m, mp in ((0, 0), (0, 1), (1, 2), (2, 2)):
        oracle = oracles.displaced_parity_oracle(m, mp, alpha)
        printed = errata.displaced_parity_printed(m, mp, alpha)
        lo = min(m, mp)
        fixed = wigner._k_tables(*wigner._polar(alpha), lo)[m - lo, mp - lo]
        worst_printed = max(worst_printed, abs(printed - oracle))
        worst_fixed = max(worst_fixed, abs(fixed - oracle))
    ok &= worst_printed > 1e-3 and worst_fixed <= 1e-10
    _report(9, ok)
