"""Damping-rate models and time evolution of window density matrices.

Every term of the 16-equation window system scales with the damping rate,
so a damping model is fully described by its accumulated decoherence
Theta(t); each model class owns `theta(t)` and its derivative `rate(t)`.
`evolve` applies the exact propagator rho(t) = expm(Theta(t) A) rho(0),
with A the constant generator; the command line uses it for every model.
For the vacuum reservoir with the leaky closure (nbar = 0) A is upper
triangular, and `evolve_analytic_vacuum` evaluates the propagator in
closed form on any window, vectorised over the grid.  Every other
generator is exponentiated a few grid times per `expm` call, bit-identical
to one call per grid time.  Either way `evolve` checks the (T, 16) vectors
once and returns their Hermitian parts as one (T, 4, 4) stack; a fixed-step
RK4 integration (`evolve_ode`) stays as the test oracle of both.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationError, OverflowGuardError
from .states import FockWindow, hermitian_part

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


def accumulated_theta(model, t):
    """Accumulated decoherence Theta(t) of model at a checked time t >= 0;
    d(Theta)/dt = model.rate(t)."""
    if not t >= 0:
        raise DomainError("time must be non-negative")
    return model.theta(t)


def _upper(rho, params):
    """Diagonal and upper triangle of the window system at unit rate.

    Follows the printed cascade except that rho14 decays at rate
    theta*(n1+m1+2) (the printed index product is inconsistent with the
    vacuum closed forms), and the extra theta/2 term of rho13 takes the same
    nbar factor as its rho12 mirror (the printed form without it is
    `rho13_strict_printed` in tests/errata.py).  Paper closure replaces the
    rho44 row by the trace-closure constraint.  The lower triangle is left
    unset.
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


def generator_matrix(params):
    """16 x 16 matrix A with vec(d rho/dt) = theta(t) * A vec(rho).

    Every term scales with the rate, so `_upper` probes A once per basis
    matrix at unit rate.  The coefficients are real, so each lower row is
    copied from its transposed upper row, a4[j, i, l, k] = a4[i, j, k, l],
    not re-evaluated; signed zeros survive.
    """
    a4 = np.empty((4, 4, 4, 4), dtype=complex)  # a4[i, j, k, l] = A[4i+j, 4k+l]
    basis = np.eye(16, dtype=complex).reshape(4, 4, 4, 4)  # basis[k, l] = E_kl
    for k, l in np.ndindex(4, 4):
        a4[:, :, k, l] = _upper(basis[k, l], params)
    i, j = np.tril_indices(4, -1)  # rows of the lower triangle
    a4[i, j] = a4[j, i].swapaxes(-1, -2)
    return a4.reshape(16, 16)


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
    """Hermitian parts of the (n, 16) vectors at times as (n, 4, 4) states;
    raises at the first time whose state is non-finite."""
    finite = np.isfinite(vecs).all(axis=1)
    if not finite.all():
        t = times[int(np.argmin(finite))]
        raise IntegrationError("state became non-finite at t = %g" % t, time=float(t))
    return hermitian_part(vecs.reshape(-1, 4, 4))


# Grid times per `expm` call.  Batching saves the per-call overhead.  scipy's
# `expm` keeps one (5, 16, 16) Pade work array per call and loops over the
# slices, so the chunk bounds the (chunk, 16, 16) input and output stacks.
_EXPM_CHUNK = 8


def _expm_vectors(rho, params, thetas):
    """(len(thetas), 16) vectors expm(Theta A) vec(rho), a chunk of grid
    times per `expm` call; bit-identical to one call per time."""
    from scipy import linalg  # deferred: the vacuum reservoir needs no expm

    gen = generator_matrix(params)
    vec = rho.ravel()
    out = np.empty((len(thetas), 16), dtype=complex)
    for start in range(0, len(thetas), _EXPM_CHUNK):
        chunk = thetas[start:start + _EXPM_CHUNK]
        out[start:start + len(chunk)] = linalg.expm(np.multiply.outer(chunk, gen)) @ vec
    return out


def evolve(rho0, params, model, times):
    """Exact propagator expm(Theta(t) A) applied to rho0 at each grid time.

    The vacuum reservoir with the leaky closure takes the closed form
    `evolve_analytic_vacuum`; every other generator goes through `expm`.
    Failures surface in grid order: a time whose Theta overflows
    (OverflowGuardError) or whose Theta or state is non-finite
    (IntegrationError) is reported only if no earlier time failed.
    """
    times = _time_grid(times)
    rho = np.array(rho0, dtype=complex)
    thetas, overflow = [], None
    # Non-finite blow-ups are caught by _output_states; keep numpy quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # Python floats: the models' scalar arithmetic runs faster on them,
            # with the same bits.
            for t in times.tolist():
                thetas.append(model.theta(t))
        except OverflowGuardError as exc:
            overflow = exc
        thetas = np.array(thetas, dtype=float)
        if params.nbar == 0 and params.closure_mode == LEAKY:
            vecs = evolve_analytic_vacuum(rho, thetas, params.window).reshape(-1, 16)
        else:
            vecs = _expm_vectors(rho, params, thetas)
        # A non-finite Theta fails at its time on both paths, though the
        # closed form has a finite limit at Theta = inf whenever n1 + m1 > 0.
        vecs[~np.isfinite(thetas)] = np.nan
        out = _output_states(vecs, times)
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


def evolve_analytic_vacuum(rho0, theta, window):
    """Closed-form propagator of the vacuum reservoir (nbar = 0, leaky
    closure) on any window, at accumulated decoherence theta.

    theta is a scalar or an array, and the result has shape
    theta.shape + (4, 4).  At nbar = 0 the generator is upper triangular
    and the cascade integrates from the top level down.  With N = n1 + m1,
    a = n1 + 1, b = m1 + 1, E_k = exp(-k Theta) and D = 1 - exp(-Theta)
    (1-based indices):

        rho44 -> E_{N+2} rho44
        rho22 -> E_{N+1} (rho22 + a D rho44)
        rho33 -> E_{N+1} (rho33 + b D rho44)
        rho11 -> E_N (rho11 + D (b rho22 + a rho33) + a b D^2 rho44)
        rho14 -> E_{N+2} rho14          rho23 -> E_{N+1} rho23
        rho24 -> E_{N+3/2} rho24        rho34 -> E_{N+3/2} rho34
        rho12 -> E_{N+1/2} (rho12 + a D rho34)
        rho13 -> E_{N+1/2} (rho13 + a D rho24)

    and the lower triangle applies the same coefficients to the transposed
    entries.  Every coefficient is a product of non-negative factors, so
    nothing cancels, and for Theta >= 0 none exceeds a b.  The printed
    n1 = m1 solutions contain exponent typos; tests/errata.py keeps them.
    """
    n = window.n1 + window.m1
    a, b = window.n1 + 1.0, window.m1 + 1.0
    theta = np.asarray(theta, dtype=float)
    r0 = np.asarray(rho0, dtype=complex)
    d = -np.expm1(-theta)
    e = {k: np.exp(-(n + k) * theta) for k in (0.0, 0.5, 1.0, 1.5, 2.0)}

    out = np.empty(theta.shape + (4, 4), dtype=complex)
    out[..., 0, 0] = e[0.0] * (r0[0, 0] + d * (b * r0[1, 1] + a * r0[2, 2])
                               + a * b * d**2 * r0[3, 3])
    out[..., 1, 1] = e[1.0] * (r0[1, 1] + a * d * r0[3, 3])
    out[..., 2, 2] = e[1.0] * (r0[2, 2] + b * d * r0[3, 3])
    out[..., 3, 3] = e[2.0] * r0[3, 3]
    # Upper triangle from rho0, lower triangle from its transpose.
    for r, o in ((r0, out), (r0.T, out.swapaxes(-1, -2))):
        o[..., 0, 1] = e[0.5] * (r[0, 1] + a * d * r[2, 3])
        o[..., 0, 2] = e[0.5] * (r[0, 2] + a * d * r[1, 3])
        o[..., 0, 3] = e[2.0] * r[0, 3]
        o[..., 1, 2] = e[1.0] * r[1, 2]
        o[..., 1, 3] = e[1.5] * r[1, 3]
        o[..., 2, 3] = e[1.5] * r[2, 3]
    return out
