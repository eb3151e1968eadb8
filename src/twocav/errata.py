"""Verbatim printed formulas kept for machine-checked errata demonstrations.

Each function here reproduces a source formula exactly as printed so that
tests can show where it disagrees with an independent oracle (the ODE
integrator, the exponentiated displacement operator, or the brute-force
discord).  Where a corrected form exists it is the production one: the
populations come from `dynamics.evolve_analytic_vacuum`, and the corrected
displaced-parity element is `wigner.displaced_parity`.  Nothing in this
module is used by the production paths.
"""

import math

import numpy as np

from . import dynamics
from .errors import DomainError


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


def corrected_populations(rho0, theta_t, m1):
    """Repaired populations: the diagonal of the re-derived vacuum propagator."""
    rho = dynamics.evolve_analytic_vacuum(rho0, theta_t, m1)
    return tuple(np.real(np.diagonal(rho)))


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
