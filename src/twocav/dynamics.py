"""Damping-rate models and time evolution of window density matrices.

Every term of the 16-equation window system scales with the damping rate,
so a damping model is fully described by its accumulated decoherence
Theta(t); each model class owns `theta(t)` and its derivative `rate(t)`.
`evolve` applies the exact propagator rho(t) = expm(Theta(t) A) rho(0),
with A the constant generator; the command line uses it for every model.
It exponentiates the Theta(t) A blocks of a few grid times per `expm` call
and returns the whole trajectory as one (T, 4, 4) stack, bit-identical to
one call per grid time.  Two engines stay as test oracles: a fixed-step
RK4 integration (`evolve_ode`), and a closed-form propagator for the
vacuum-reservoir case (nbar = 0, n1 = m1) re-derived from the cascade.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .errors import DomainError, IntegrationError, OverflowGuardError
from .states import FockWindow

OVERFLOW_EXPONENT = 700.0

LEAKY = "leaky"
PAPER_CLOSURE = "paper"


@dataclass(frozen=True)
class Markovian:
    """Constant damping rate gamma_m; time axis is gamma_m * t."""

    gamma_m: float = 1.0

    def __post_init__(self):
        if not self.gamma_m > 0:
            raise DomainError("gamma_m must be positive")

    def theta(self, t):
        return self.gamma_m * t

    def rate(self, t):
        return self.gamma_m


@dataclass(frozen=True)
class NonMarkovianOhmic:
    """Ohmic-reservoir accumulated decoherence; time axis is omega0 * t.

    r is the cutoff ratio omega_c / omega0; omega0 only sets the time unit.
    Theta is evaluated exactly as printed, growing exponentials included,
    and the rate is its term-by-term derivative; both raise instead of
    overflowing when r*t > 700.
    """

    r: float = 1.0

    def __post_init__(self):
        if not self.r > 0:
            raise DomainError("r must be positive")

    def _growth(self, t):
        """exp(r t), guarded against overflow."""
        if self.r * t > OVERFLOW_EXPONENT:
            raise OverflowGuardError(
                "exp(%g) in the Ohmic model would overflow" % (self.r * t)
            )
        return math.exp(self.r * t)

    def theta(self, t):
        r = self.r
        pre = 8.0 * r**2 / (1.0 + r**2)
        e = self._growth(t)
        bracket = (
            t
            + (r - 1.0) / (1.0 + r**2) * e * math.sin(t)
            + 2.0 * r / (1.0 + r**2) * (e * math.cos(t) - 1.0)
        )
        return pre * bracket

    def rate(self, t):
        r = self.r
        pre = 8.0 * r**2 / (1.0 + r**2)
        e = self._growth(t)
        s, c = math.sin(t), math.cos(t)
        bracket = (
            1.0
            + (r - 1.0) / (1.0 + r**2) * e * (r * s + c)
            + 2.0 * r / (1.0 + r**2) * e * (r * c - s)
        )
        return pre * bracket


@dataclass(frozen=True)
class KernelIntegral:
    """Rate from the Ohmic dissipation kernel, gamma(t) = 2 wc (1 - e^{-wc t})."""

    omega_c: float = 1.0

    def __post_init__(self):
        if not self.omega_c > 0:
            raise DomainError("omega_c must be positive")

    def theta(self, t):
        wc = self.omega_c
        return 2.0 * wc * t + 2.0 * math.expm1(-wc * t)

    def rate(self, t):
        return 2.0 * self.omega_c * (-math.expm1(-self.omega_c * t))


@dataclass(frozen=True)
class EvolutionParams:
    window: FockWindow = field(default_factory=FockWindow)
    nbar: float = 0.0
    closure_mode: str = LEAKY

    def __post_init__(self):
        if not self.nbar >= 0:
            raise DomainError("nbar must be non-negative")
        if self.closure_mode not in (LEAKY, PAPER_CLOSURE):
            raise DomainError("closure_mode must be 'leaky' or 'paper'")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), 4, 4)


def gamma_kernel_quadrature(t, omega_c):
    """Numeric double quadrature of the dissipation kernel, the oracle
    for `KernelIntegral.rate`.

    Integrates the Ohmic spectral density against sin(w s) over w (Fourier
    quadrature on the infinite interval), then over s on [0, t].
    """
    from scipy import integrate  # deferred: only this oracle needs it

    def inner(s):
        val, _ = integrate.quad(
            lambda w: (2.0 * w / math.pi) * omega_c**2 / (omega_c**2 + w**2),
            0.0,
            np.inf,
            weight="sin",
            wvar=s,
            limit=200,
        )
        return 2.0 * val

    val, _ = integrate.quad(inner, 0.0, t, limit=200)
    return val


def accumulated_theta(model, t):
    """Accumulated decoherence Theta(t) of model at a checked time t >= 0;
    d(Theta)/dt = model.rate(t)."""
    if not t >= 0:
        raise DomainError("time must be non-negative")
    return model.theta(t)


_LOWER = np.tril_indices(4, -1)


def _upper(rho, params):
    """Diagonal and upper triangle of the window system at unit rate.

    Follows the printed cascade except that rho14 decays at rate
    theta*(n1+m1+2) (the printed index product is inconsistent with the
    vacuum closed forms), and the extra theta/2 term of rho13 takes the same
    nbar factor as its rho12 mirror (the printed form without it is
    `errata.rho13_strict_printed`).  Paper closure replaces the rho44 row by
    the trace-closure constraint.  The lower triangle is left unset.
    """
    n1, m1 = params.window.n1, params.window.m1
    nb = params.nbar
    r = rho
    d = np.empty((4, 4), dtype=complex)

    d[0, 0] = (
        -(2.0 * nb * (n1 + m1 + 1) + (n1 + m1)) * r[0, 0]
        + (nb + 1.0) * ((n1 + 1) * r[2, 2] + (m1 + 1) * r[1, 1])
    )
    d[0, 1] = (
        -0.5 * (nb + 1.0) * ((2 * n1 + 2 * m1 + 1) * r[0, 1] - 2 * (n1 + 1) * r[2, 3])
        - 0.5 * nb * (2 * n1 + m1 + 3) * r[0, 1]
    )
    d[0, 2] = (
        -0.5 * (nb + 1.0) * ((2 * n1 + 2 * m1 + 1) * r[0, 2] - 2 * (n1 + 1) * r[1, 3])
        - 0.5 * nb * (2 * n1 + m1 + 3) * r[0, 2]
    )
    d[0, 3] = (
        -(n1 + m1 + 2) * r[0, 3]
        - 0.5 * nb * (n1 + m1 + 2) * r[0, 3]
    )
    d[1, 1] = (
        -(nb + 1.0) * ((n1 + m1 + 1) * r[1, 1] - (n1 + 1) * r[3, 3])
        - nb * ((n1 + 1) * r[1, 1] - (m1 + 1) * r[0, 0])
    )
    d[1, 2] = (
        -(nb + 1.0) * (n1 + m1 + 1) * r[1, 2]
        - 0.5 * nb * (n1 + m1 + 2) * r[1, 2]
    )
    d[1, 3] = (
        -0.5 * (nb + 1.0) * (2 * n1 + 2 * m1 + 3) * r[1, 3]
        - 0.5 * nb * ((n1 + 1) * r[1, 3] - 2 * (m1 + 1) * r[0, 2])
    )
    d[2, 2] = (
        -(nb + 1.0) * ((n1 + m1 + 1) * r[2, 2] - (m1 + 1) * r[3, 3])
        - nb * ((m1 + 1) * r[2, 2] - (n1 + 1) * r[0, 0])
    )
    d[2, 3] = (
        -0.5 * (nb + 1.0) * (2 * n1 + 2 * m1 + 3) * r[2, 3]
        - 0.5 * nb * ((m1 + 1) * r[2, 3] - 2 * (n1 + 1) * r[0, 1])
    )
    if params.closure_mode == PAPER_CLOSURE:
        d[3, 3] = -(d[0, 0] + d[1, 1] + d[2, 2])
    else:
        d[3, 3] = (
            -(nb + 1.0) * (n1 + m1 + 2) * r[3, 3]
            + nb * ((n1 + 1) * r[1, 1] + (m1 + 1) * r[2, 2])
        )
    return d


def _rhs(rho, params):
    """Right-hand side of the 16-equation window system at unit rate."""
    d = _upper(rho, params)
    # The coefficients are real, so d[j, i](rho) = d[i, j](rho^T).  Assigned,
    # not added, so that signed zeros survive.
    d[_LOWER] = _upper(rho.T, params).T[_LOWER]
    return d


def generator_matrix(params):
    """16 x 16 matrix A with vec(d rho/dt) = theta(t) * A vec(rho).

    The system is linear and every term scales with the instantaneous
    rate, so the generator is probed once from the element-wise equations
    at unit rate.
    """
    a = np.empty((16, 16), dtype=complex)
    for k in range(16):
        basis = np.zeros(16, dtype=complex)
        basis[k] = 1.0
        a[:, k] = _rhs(basis.reshape(4, 4), params).ravel()
    return a


def _time_grid(times):
    """Validated output grid: a non-empty 1-D array, finite, starting at 0,
    strictly increasing."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("time grid must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(times)):
        raise DomainError("time grid must be finite")
    if times[0] != 0.0:
        raise DomainError("time grid must start at 0")
    if np.any(np.diff(times) <= 0):
        raise DomainError("time grid must be strictly increasing")
    return times


def _output_states(vecs, times):
    """Re-symmetrized states rho -> (rho + rho^dagger)/2 of the (n, 16)
    vectors at times; raises at the first time whose state is non-finite."""
    finite = np.isfinite(vecs).all(axis=1)
    if not finite.all():
        t = times[int(np.argmin(finite))]
        raise IntegrationError("state became non-finite at t = %g" % t, time=float(t))
    mats = vecs.reshape(-1, 4, 4)
    return 0.5 * (mats + mats.conj().swapaxes(-1, -2))


# Grid times per `expm` call.  Batching saves the per-call overhead, and a
# short chunk keeps only a few (16, 16) blocks and their Pade work arrays
# alive at once, so peak memory does not grow with the trajectory.
_EXPM_CHUNK = 8


def evolve(rho0, params, model, times):
    """Exact propagator expm(Theta(t) A) applied to rho0 at each grid time.

    Failures surface in grid order: a time whose Theta overflows
    (OverflowGuardError) or whose state is non-finite (IntegrationError)
    is reported only if no earlier time failed.
    """
    times = _time_grid(times)
    gen = generator_matrix(params)
    rho = np.array(rho0, dtype=complex).ravel()
    out = np.empty((len(times), 4, 4), dtype=complex)
    thetas, overflow = [], None
    # Non-finite blow-ups are caught by _output_states; keep numpy quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for t in times:
                thetas.append(model.theta(t))
        except OverflowGuardError as exc:
            overflow = exc
        for start in range(0, len(thetas), _EXPM_CHUNK):
            chunk = thetas[start:start + _EXPM_CHUNK]
            vecs = linalg.expm(np.multiply.outer(chunk, gen)) @ rho
            out[start:start + len(chunk)] = _output_states(vecs, times[start:])
    if overflow is not None:
        raise overflow
    return Trajectory(times=times.copy(), states=out)


def evolve_ode(rho0, params, model, times, substeps=100):
    """Fixed-step RK4 integration, the test oracle for `evolve`.

    Each output interval is split into `substeps` RK4 steps; the state is
    re-symmetrized (rho -> (rho + rho^dagger)/2) at every output point.
    """
    times = _time_grid(times)
    if substeps < 1:
        raise DomainError("substeps must be >= 1")

    gen = generator_matrix(params)
    rho = np.array(rho0, dtype=complex).ravel()
    out = np.empty((len(times), 4, 4), dtype=complex)
    out[0] = rho.reshape(4, 4)
    for k in range(len(times) - 1):
        t0, t1 = times[k], times[k + 1]
        h = (t1 - t0) / substeps
        t = t0
        # Non-finite blow-ups are caught by _output_states; keep numpy quiet.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(substeps):
                th0 = model.rate(t)
                th1 = model.rate(t + 0.5 * h)
                th2 = model.rate(t + h)
                k1 = th0 * (gen @ rho)
                k2 = th1 * (gen @ (rho + 0.5 * h * k1))
                k3 = th1 * (gen @ (rho + 0.5 * h * k2))
                k4 = th2 * (gen @ (rho + h * k3))
                rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t += h
        out[k + 1] = _output_states(rho[None], [t1])[0]
        rho = out[k + 1].ravel()
    return Trajectory(times=times.copy(), states=out)


def evolve_analytic_vacuum(rho0, theta, m1):
    """Closed-form vacuum-reservoir propagator for n1 = m1 windows.

    `theta` is the accumulated decoherence Theta(t).  The exponents come
    from integrating the cascade directly; they agree with `evolve` to
    rounding, which is the contract (the printed solutions contain
    exponent typos, kept in the errata module).
    """
    if m1 < 0:
        raise DomainError("m1 must be non-negative")
    m = m1
    r0 = np.asarray(rho0, dtype=complex)

    def E(k):
        return math.exp(-k * theta)

    mp1 = m + 1.0
    s0 = r0[1, 1] + r0[2, 2]
    out = np.empty((4, 4), dtype=complex)

    out[3, 3] = r0[3, 3] * E(2 * m + 2)
    out[1, 1] = (r0[1, 1] + mp1 * r0[3, 3]) * E(2 * m + 1) - mp1 * r0[3, 3] * E(2 * m + 2)
    out[2, 2] = (r0[2, 2] + mp1 * r0[3, 3]) * E(2 * m + 1) - mp1 * r0[3, 3] * E(2 * m + 2)
    out[0, 0] = (
        (r0[0, 0] + mp1 * s0 + mp1**2 * r0[3, 3]) * E(2 * m)
        - mp1 * (s0 + 2.0 * mp1 * r0[3, 3]) * E(2 * m + 1)
        + mp1**2 * r0[3, 3] * E(2 * m + 2)
    )

    out[0, 3] = r0[0, 3] * E(2 * m + 2)
    out[3, 0] = r0[3, 0] * E(2 * m + 2)
    out[1, 2] = r0[1, 2] * E(2 * m + 1)
    out[2, 1] = r0[2, 1] * E(2 * m + 1)

    e_slow = E((4 * m + 1) / 2.0)
    e_fast = E((4 * m + 3) / 2.0)
    out[1, 3] = r0[1, 3] * e_fast
    out[3, 1] = r0[3, 1] * e_fast
    out[2, 3] = r0[2, 3] * e_fast
    out[3, 2] = r0[3, 2] * e_fast
    out[0, 1] = (r0[0, 1] + mp1 * r0[2, 3]) * e_slow - mp1 * r0[2, 3] * e_fast
    out[1, 0] = (r0[1, 0] + mp1 * r0[3, 2]) * e_slow - mp1 * r0[3, 2] * e_fast

    out[0, 2] = (r0[0, 2] + mp1 * r0[1, 3]) * e_slow - mp1 * r0[1, 3] * e_fast
    out[2, 0] = (r0[2, 0] + mp1 * r0[3, 1]) * e_slow - mp1 * r0[3, 1] * e_fast

    return out


def evolve_analytic_trajectory(rho0, model, times, m1):
    """Analytic propagator applied at Theta(t) for each grid time."""
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), 4, 4), dtype=complex)
    for k, t in enumerate(times):
        out[k] = evolve_analytic_vacuum(rho0, accumulated_theta(model, t), m1)
    return Trajectory(times=times.copy(), states=out)

