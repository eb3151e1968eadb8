"""Verbatim printed formulas kept for machine-checked errata demonstrations.

Each function here reproduces a source formula exactly as printed so that
tests can show where it disagrees with an independent oracle (the ODE
integrator, the exponentiated displacement operator, a symmetry of the
exact propagator, or the corrected discord branch).  The corrected forms
are the production ones, and this module does not wrap them: the
populations are the diagonal of `dynamics.evolve_analytic_vacuum`, the
rho13 coherence comes from the generator behind `dynamics.evolve`, the
displaced-parity elements are those of `wigner._k_tables`, and the discord
is `correlations.discord_x`.  The package does not import this module: it
sits beside the tests, which import it as `errata`, and its name does not
match test_*.py, so pytest does not collect it.
"""

import math

import numpy as np

from twocav.errors import DomainError
from twocav.wigner import laguerre_assoc


def printed_populations(rho0, theta_t, m1):
    """Vacuum-reservoir populations exactly as printed.

    theta_t is the accumulated decoherence (rate times time in the
    constant-rate case).  Known defects demonstrated by tests: rho22
    carries the same exponent on both of its terms (so the rho44 feed-in
    cancels identically), rho33 weights the feed-in by m1 instead of
    m1 + 1 and misses the second exponential, and rho11 misses its third
    exponential.  rho44 closes the trace as printed.
    """
    if m1 < 0:
        raise DomainError("m1 must be non-negative")
    r0 = np.asarray(rho0, dtype=complex)
    m = float(m1)
    s0 = (r0[1, 1] + r0[2, 2]).real
    e_slow = math.exp(-2.0 * theta_t * m)
    e_mid = math.exp(-theta_t * (1.0 + 2.0 * m))

    r11 = (
        (r0[0, 0].real + (1.0 + m) * s0 + (1.0 + m) ** 2 * r0[3, 3].real) * e_slow
        + (
            (1.0 + m) ** 2 * r0[3, 3].real
            - (1.0 + m) * (s0 + 2.0 * (1.0 + m) * r0[3, 3].real)
        )
        * e_mid
    )
    r22 = (
        -(1.0 + m) * r0[3, 3].real * e_mid
        + (r0[1, 1].real + (1.0 + m) * r0[3, 3].real) * e_mid
    )
    r33 = (m * r0[3, 3].real + r0[2, 2].real) * e_mid
    r44 = 1.0 - r11 - r22 - r33
    return r11, r22, r33, r44


def discord_second_branch_printed(rho):
    """Second conditional-entropy candidate exactly as printed.

    The printed expression sums the populations without entropy weights,
    which makes the candidate equal -trace - H and drives the discord
    negative; tests contrast it with the corrected branch.
    """
    p = np.real(np.diag(np.asarray(rho, dtype=complex)))
    h = 0.0
    x = p[0] + p[2]
    if 0.0 < x < 1.0:
        h = -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
    return -float(np.sum(p)) - h


def rho13_strict_printed(rho0, theta, m1):
    """Vacuum-reservoir rho13 with the printed extra decay term.

    The printed rho13/rho31 equations carry an extra theta/2 (2 n1 + m1 + 3)
    decay term without the nbar factor of their rho12/rho21 mirrors, so it
    acts even at nbar = 0.  This is the closed form of that equation for an
    n1 = m1 window at accumulated decoherence theta (rho31 is its
    conjugate).  It breaks the mode-exchange symmetry rho12 = rho13 that
    `dynamics.evolve` keeps.
    """
    if m1 < 0:
        raise DomainError("m1 must be non-negative")
    r0 = np.asarray(rho0, dtype=complex)
    c = 2.0 * (m1 + 1.0) * r0[1, 3] / (3 * m1 + 1.0)
    return ((r0[0, 2] - c) * math.exp(-theta * (7 * m1 + 4) / 2.0)
            + c * math.exp(-theta * (4 * m1 + 3) / 2.0))


def displaced_parity_printed(m, mp, alpha):
    """Displaced-parity element from the printed closed form.

    Evaluated verbatim (with the factorial ratio read as m!/m'!), elementwise
    over an array of alpha: for m' >= m this is e^{-|a|^2} (-1)^m
    (2|a|)^{m'-m} sqrt(m!/m'!) L_m^{m'-m}(|a|); m > m' follows from
    conjugate symmetry.  Correct at alpha = 0 but disagrees with the
    `wigner._k_tables` entries off the origin.
    """
    if m < 0 or mp < 0:
        raise DomainError("Fock indices must be non-negative")
    if m > mp:
        return np.conj(displaced_parity_printed(mp, m, alpha))
    a = np.abs(alpha)
    return (
        np.exp(-a * a)
        * (-1.0) ** m
        * (2.0 * a) ** (mp - m)
        * math.sqrt(math.factorial(m) / math.factorial(mp))
        * laguerre_assoc(m, mp - m, a)
    )
