import math

import numpy as np
import pytest
from scipy import linalg

from twocav import cli, correlations, dynamics, states
from twocav.errors import DomainError, IntegrationError, OverflowGuardError
from twocav.states import FockWindow

import oracles

INV_SQRT2 = 1.0 / math.sqrt(2.0)


ENGINES = (dynamics.evolve, dynamics.evolve_ode)


def bell_epr():
    return states.build_epr(INV_SQRT2, INV_SQRT2)


def test_model_validation():
    with pytest.raises(DomainError):
        dynamics.Markovian(0.0)
    with pytest.raises(DomainError):
        dynamics.NonMarkovianOhmic(r=-1.0)
    with pytest.raises(DomainError):
        dynamics.KernelIntegral(0.0)
    with pytest.raises(DomainError):
        dynamics.EvolutionParams(nbar=-0.1)
    with pytest.raises(DomainError):
        dynamics.EvolutionParams(closure_mode="bogus")
    nan = float("nan")
    for build in (
        lambda: dynamics.Markovian(nan),
        lambda: dynamics.NonMarkovianOhmic(r=nan),
        lambda: dynamics.KernelIntegral(nan),
        lambda: dynamics.EvolutionParams(nbar=nan),
        lambda: dynamics.accumulated_theta(dynamics.NonMarkovianOhmic(r=1.0), nan),
        lambda: dynamics.NonMarkovianOhmic(r=nan).rate(0.5),
        lambda: dynamics.KernelIntegral(nan).rate(0.5),
        lambda: dynamics.accumulated_theta(dynamics.KernelIntegral(), nan),
        lambda: dynamics.accumulated_theta(dynamics.Markovian(), nan),
    ):
        with pytest.raises(DomainError):
            build()


def test_ohmic_rate_matches_numerical_derivative():
    for r in (0.1, 1.0, 5.0):
        model = dynamics.NonMarkovianOhmic(r=r)
        for t in (0.1, 0.7, 2.0):
            h = 1e-6
            num = (model.theta(t + h) - model.theta(t - h)) / (2.0 * h)
            assert model.rate(t) == pytest.approx(
                num, rel=1e-7, abs=1e-7
            )


def test_ohmic_initial_rate_value():
    # d(Gamma)/dt at t = 0 from the term-by-term derivative:
    # (8 r^2/(1+r^2)) * (1 + (r-1)/(1+r^2) + 2r^2/(1+r^2)).
    for r in (0.1, 1.0, 5.0):
        expect = (8.0 * r**2 / (1 + r**2)) * (
            1.0 + (r - 1.0) / (1 + r**2) + 2.0 * r**2 / (1 + r**2)
        )
        assert dynamics.NonMarkovianOhmic(r=r).rate(0.0) == pytest.approx(expect)
    assert dynamics.NonMarkovianOhmic(r=1.0).rate(0.0) == pytest.approx(8.0)


def test_ohmic_overflow_guard():
    with pytest.raises(OverflowGuardError):
        dynamics.NonMarkovianOhmic(r=5.0).theta(200.0)
    with pytest.raises(OverflowGuardError):
        dynamics.NonMarkovianOhmic(r=1.0).rate(800.0)


def test_kernel_rate_against_quadrature_oracle():
    for t in (0.1, 0.5, 2.0):
        for wc in (0.5, 2.0):
            direct = dynamics.KernelIntegral(wc).rate(t)
            oracle = oracles.gamma_kernel_quadrature(t, wc)
            assert direct == pytest.approx(oracle, abs=1e-8)


def test_accumulated_theta_is_antiderivative_of_rate():
    for model in (
        dynamics.Markovian(1.3),
        dynamics.NonMarkovianOhmic(r=0.7),
        dynamics.KernelIntegral(1.1),
    ):
        for t in (0.3, 1.0, 2.0):
            h = 1e-6
            num = (
                dynamics.accumulated_theta(model, t + h)
                - dynamics.accumulated_theta(model, t - h)
            ) / (2.0 * h)
            assert model.rate(t) == pytest.approx(
                num, rel=1e-6, abs=1e-8
            )
        assert dynamics.accumulated_theta(model, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_markovian_coherence_decay_closed_form():
    # rho14(t) = rho14(0) exp(-2 gamma t) on the base window.
    times = np.linspace(0.0, 3.0, 61)
    traj = dynamics.evolve_ode(
        bell_epr(), dynamics.EvolutionParams(), dynamics.Markovian(1.0), times
    )
    for t, rho in zip(times, traj.states):
        assert rho[0, 3].real == pytest.approx(0.5 * math.exp(-2.0 * t), abs=1e-10)


def test_analytic_matches_ode_markovian_base_window():
    # nbar = 0 with the leaky closure: evolve takes the vacuum closed form.
    times = np.linspace(0.0, 5.0, 120)
    model = dynamics.Markovian(1.0)
    traj = dynamics.evolve_ode(bell_epr(), dynamics.EvolutionParams(), model, times)
    ana = dynamics.evolve(bell_epr(), dynamics.EvolutionParams(), model, times)
    assert np.max(np.abs(traj.states - ana.states)) < 1e-10


def test_analytic_matches_ode_shifted_window_with_full_coherences():
    # A dense pure state exercises every cascade branch; unequal n1 and m1
    # tell the a = n1 + 1 and b = m1 + 1 weights apart.
    vec = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    rho0 = states.pure_state(vec)
    window = FockWindow(2, 1)
    times = np.linspace(0.0, 2.0, 80)
    model = dynamics.Markovian(0.8)
    params = dynamics.EvolutionParams(window=window)
    traj = dynamics.evolve_ode(rho0, params, model, times)
    thetas = np.array([model.theta(t) for t in times])
    ana = dynamics.evolve_analytic_vacuum(rho0, thetas, window)
    assert np.max(np.abs(traj.states - ana)) < 1e-10


def test_vacuum_populations_closed_form_base_window():
    # EPR start: rho22 = (e^-T - e^-2T)/2 and rho11 = 1 - e^-T + e^-2T/2.
    for theta in (0.0, 0.2, 0.7, 2.0):
        rho = dynamics.evolve_analytic_vacuum(bell_epr(), theta, FockWindow())
        e1, e2 = math.exp(-theta), math.exp(-2.0 * theta)
        assert rho[1, 1].real == pytest.approx(0.5 * (e1 - e2), abs=1e-12)
        assert rho[2, 2].real == pytest.approx(0.5 * (e1 - e2), abs=1e-12)
        assert rho[0, 0].real == pytest.approx(1.0 - e1 + 0.5 * e2, abs=1e-12)
        assert rho[3, 3].real == pytest.approx(0.5 * e2, abs=1e-12)


def test_trace_conserved_on_base_window():
    times = np.linspace(0.0, 5.0, 100)
    traj = dynamics.evolve_ode(
        bell_epr(), dynamics.EvolutionParams(), dynamics.Markovian(1.0), times
    )
    traces = np.array([np.trace(s).real for s in traj.states])
    assert np.max(np.abs(traces - 1.0)) < 1e-9


def test_trace_decreases_on_leaky_shifted_window():
    times = np.linspace(0.0, 3.0, 80)
    traj = dynamics.evolve_ode(
        bell_epr(),
        dynamics.EvolutionParams(window=FockWindow(1, 1)),
        dynamics.Markovian(1.0),
        times,
    )
    traces = np.array([np.trace(s).real for s in traj.states])
    assert np.all(np.diff(traces) < 0.0)


def test_paper_closure_pins_trace():
    times = np.linspace(0.0, 3.0, 60)
    traj = dynamics.evolve_ode(
        bell_epr(),
        dynamics.EvolutionParams(
            window=FockWindow(2, 2), closure_mode=dynamics.PAPER_CLOSURE
        ),
        dynamics.Markovian(1.0),
        times,
    )
    traces = np.array([np.trace(s).real for s in traj.states])
    assert np.max(np.abs(traces - 1.0)) < 1e-9


def test_thermal_occupation_drives_base_window_upward():
    # With nbar > 0 the base population is pumped out of the window corner.
    times = np.linspace(0.0, 1.0, 30)
    vac = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    traj = dynamics.evolve_ode(
        vac,
        dynamics.EvolutionParams(nbar=0.5),
        dynamics.Markovian(1.0),
        times,
    )
    assert traj.states[-1][0, 0].real < 1.0
    assert traj.states[-1][1, 1].real > 0.0


def test_evolve_grid_validation():
    rho = bell_epr()
    params = dynamics.EvolutionParams()
    model = dynamics.Markovian(1.0)
    for engine in ENGINES:
        with pytest.raises(DomainError, match="start at 0"):
            engine(rho, params, model, [1.0, 2.0])
        with pytest.raises(DomainError, match="strictly increasing"):
            engine(rho, params, model, [0.0, 1.0, 0.5])
        with pytest.raises(DomainError, match="finite"):
            engine(rho, params, model, [0.0, 1.0, np.inf])
        with pytest.raises(DomainError, match="finite"):
            engine(rho, params, model, [0.0, np.nan])
        with pytest.raises(DomainError, match="non-empty 1-D"):
            engine(rho, params, model, [])
        with pytest.raises(DomainError, match="non-empty 1-D"):
            engine(rho, params, model, [[0.0, 1.0]])
    with pytest.raises(DomainError):
        dynamics.evolve_ode(rho, params, model, [0.0, 1.0], substeps=0)


def test_single_point_grid_returns_initial_state():
    for engine in ENGINES:
        traj = engine(
            bell_epr(), dynamics.EvolutionParams(), dynamics.Markovian(1.0), [0.0]
        )
        assert traj.states.shape == (1, 4, 4)
        assert np.allclose(traj.states[0], bell_epr())


def test_overflow_surfaces_during_integration():
    model = dynamics.NonMarkovianOhmic(r=5.0)
    for engine in ENGINES:
        with pytest.raises((OverflowGuardError, IntegrationError)):
            engine(
                bell_epr(),
                dynamics.EvolutionParams(),
                model,
                np.linspace(0.0, 200.0, 40),
            )


# A thermal reservoir keeps evolve on its `expm` path.
THERMAL = dynamics.EvolutionParams(nbar=0.3)


def test_non_finite_state_raises_integration_error_at_its_time():
    # Theta(1) = 1e308 overflows the generator's entries; the first grid
    # time with a non-finite state is reported, whatever the propagator.
    with pytest.raises(IntegrationError) as info:
        dynamics.evolve(bell_epr(), THERMAL,
                        dynamics.Markovian(gamma_m=1e308), [0.0, 1.0, 2.0])
    assert info.value.time == 1.0


@pytest.mark.parametrize("times, error, time", [
    # Both failures in one expm chunk: the non-finite state at t = 0.35
    # comes before the Ohmic guard (r t > 700) at t = 0.71.
    ([0.0, 0.001, 0.35, 0.71], IntegrationError, 0.35),
    ([0.0, 0.001, 0.71, 0.72], OverflowGuardError, None),
    # The same pair across a chunk boundary.
    (list(np.linspace(0.0, 0.0035, dynamics._EXPM_CHUNK)) + [0.35, 0.71],
     IntegrationError, 0.35),
])
def test_first_failing_time_decides_the_error(times, error, time):
    with pytest.raises(error) as info:
        dynamics.evolve(bell_epr(), THERMAL,
                        dynamics.NonMarkovianOhmic(r=1000.0), times)
    if time is not None:
        assert info.value.time == time


WINDOWS = [FockWindow(n1, m1) for n1 in range(3) for m1 in range(3)]


@pytest.mark.parametrize("window", WINDOWS)
def test_vacuum_closed_form_reaches_its_limit_at_huge_theta(window):
    # Theta(1) = 1e308 overflows expm, but the closed form has a finite
    # limit: everything decays, except that the base window keeps the
    # whole trace in rho11.
    traj = dynamics.evolve(bell_epr(), dynamics.EvolutionParams(window=window),
                           dynamics.Markovian(gamma_m=1e308), [0.0, 1.0])
    limit = np.zeros((4, 4), dtype=complex)
    if window == FockWindow():
        limit[0, 0] = np.trace(bell_epr())
    assert np.max(np.abs(traj.states[1] - limit)) <= 1e-15


class ThetaTable:
    """A damping model that reads Theta(t) off a table; None raises the
    Ohmic overflow guard."""

    def __init__(self, table):
        self.table = table

    def theta(self, t):
        if self.table[t] is None:
            raise OverflowGuardError("guard at t = %g" % t)
        return self.table[t]


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_vacuum_non_finite_theta_raises_at_its_time(window, bad):
    # -0 * inf is NaN only on the base window (N = 0); elsewhere the closed
    # form at Theta = inf is finite, so Theta itself is checked.  The
    # failure comes before a later overflow guard.
    model = ThetaTable({0.0: 0.0, 1.0: 0.5, 2.0: bad, 3.0: 1.0, 4.0: None})
    with pytest.raises(IntegrationError) as info:
        dynamics.evolve(bell_epr(), dynamics.EvolutionParams(window=window),
                        model, [0.0, 1.0, 2.0, 3.0, 4.0])
    assert info.value.time == 2.0


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_expm_non_finite_theta_raises_at_its_time(bad):
    # The same rule on the expm path, across a chunk boundary.
    n = dynamics._EXPM_CHUNK + 2
    table = {float(t): 0.1 * t for t in range(n)}
    table[float(n - 2)], table[float(n - 1)] = bad, None
    with pytest.raises(IntegrationError) as info:
        dynamics.evolve(bell_epr(), THERMAL, ThetaTable(table), sorted(table))
    assert info.value.time == n - 2


@pytest.mark.parametrize("times", [[0.0, 0.001, 0.71, 0.72], [0.0, 0.001, 0.35, 0.71]])
def test_vacuum_branch_keeps_the_ohmic_guard(times):
    # At t = 0.35 Theta is about 1.8e150: expm overflows there, the closed
    # form does not, so the guard at t = 0.71 is the first failure.
    with pytest.raises(OverflowGuardError):
        dynamics.evolve(bell_epr(), dynamics.EvolutionParams(),
                        dynamics.NonMarkovianOhmic(r=1000.0), times)


# Each rate model with a horizon short of the Ohmic re-amplification.
ORACLE_MODELS = (
    (dynamics.Markovian(1.0), 3.0),
    (dynamics.NonMarkovianOhmic(r=1.0), 1.0),
    (dynamics.KernelIntegral(1.0), 3.0),
)


def test_exact_propagator_matches_rk4_oracle():
    rho0 = states.pure_state(np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex))
    configs = (
        dynamics.EvolutionParams(),
        dynamics.EvolutionParams(window=FockWindow(1, 2), nbar=0.3),
        dynamics.EvolutionParams(
            window=FockWindow(2, 2), closure_mode=dynamics.PAPER_CLOSURE
        ),
    )
    for model, t_max in ORACLE_MODELS:
        times = np.linspace(0.0, t_max, 40)
        for params in configs:
            exact = dynamics.evolve(rho0, params, model, times)
            rk4 = dynamics.evolve_ode(rho0, params, model, times)
            assert np.array_equal(exact.times, times)
            assert np.max(np.abs(exact.states - rk4.states)) < 1e-8


def test_exact_propagator_matches_vacuum_closed_form():
    # evolve's vacuum closed form against one expm of the generator per
    # grid time.
    rho0 = states.pure_state(np.array([0.4, 0.5, 0.3j, -0.6], dtype=complex))
    for model, t_max in ORACLE_MODELS:
        times = np.linspace(0.0, t_max, 40)
        for window in (FockWindow(0, 0), FockWindow(1, 1), FockWindow(2, 2),
                       FockWindow(0, 3), FockWindow(2, 1)):
            params = dynamics.EvolutionParams(window=window)
            gen = dynamics.generator_matrix(params)
            exact = dynamics.evolve(rho0, params, model, times)
            ref = np.array([linalg.expm(model.theta(t) * gen) @ rho0.ravel()
                            for t in times]).reshape(-1, 4, 4)
            assert np.max(np.abs(exact.states - ref)) < 1e-12


def test_trajectory_rows_shape():
    times = np.linspace(0.0, 1.0, 5)
    traj = dynamics.evolve_ode(
        bell_epr(), dynamics.EvolutionParams(), dynamics.Markovian(1.0), times
    )
    header, rows = cli.TABLES["evolve"][0](None, traj)
    assert len(rows) == 5
    assert len(rows[0]) == len(header) == 35


# Known defect, kept visible until the generator is fixed: from a pure
# coherent window state at n' = 1.440556, gamma_m = 1.011822, the evolved
# state has minimum eigenvalue -0.0056 at t = 0.05 and -0.0166 at t = 0.86.
# The projection amplitudes go negative too, so the generator is at fault,
# not the printed amplitude recipe.
COHERENT_DEFECT = "the window generator does not keep coherent inputs positive"


def _coherent_trajectory(amplitudes):
    window = FockWindow(0, 0)
    rho0 = states.pure_state(amplitudes(1.440556, window))
    return dynamics.evolve(rho0, dynamics.EvolutionParams(window=window),
                           dynamics.Markovian(1.011822), [0.0, 0.05, 0.86])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=COHERENT_DEFECT)
@pytest.mark.parametrize("amplitudes", [states.coherent_amplitudes_paper,
                                        states.projection_amplitudes],
                         ids=["paper", "projection"])
def test_coherent_input_stays_positive(amplitudes):
    traj = _coherent_trajectory(amplitudes)
    assert np.linalg.eigvalsh(traj.states[1:])[:, 0].min() >= -1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=COHERENT_DEFECT)
def test_coherent_input_discord_is_non_negative():
    # discord_bruteforce reads -0.0922 on the t = 0.86 state.
    traj = _coherent_trajectory(states.coherent_amplitudes_paper)
    assert correlations.discord_bruteforce(traj.states[-1]) >= 0.0
