"""Independent test oracles for quantities the package computes another way.

Each function here is a slower or more literal route to a value that the
package's production code forms in closed form, kept only so that tests can
check the two against each other.  The package does not import this module:
it sits beside the tests, which import it as `oracles`, and its name does
not match test_*.py, so pytest does not collect it.
"""

import math

import numpy as np
from scipy import integrate, linalg

from twocav.correlations import _log_negativity_of, negativity
from twocav.errors import DomainError, QuadratureConvergenceError
from twocav.wigner import laguerre_assoc


def gamma_kernel_quadrature(t, omega_c):
    """Numeric double quadrature of the dissipation kernel, the oracle
    for `dynamics.KernelIntegral.rate`.

    Integrates the Ohmic spectral density against sin(w s) over w (Fourier
    quadrature on the infinite interval), then over s on [0, t].
    """

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


def _parity_from_displacement(d_rows, m_list):
    """K[p, q] = sum_k <p|D|k> (-1)^k <q|D|k>^* from rows of D(alpha)."""
    signs = (-1.0) ** np.arange(d_rows.shape[-1])
    out = np.empty((len(m_list), len(m_list)), dtype=complex)
    for i in range(len(m_list)):
        for j in range(len(m_list)):
            out[i, j] = np.sum(d_rows[i] * signs * np.conj(d_rows[j]))
    return out


def displaced_parity(m, mp, alpha):
    """Displaced-parity element K[m, m'] = (-1)^{m'} <m| D(2 alpha) |m'>.

    Laguerre closed form of the displacement matrix element (Cahill and
    Glauber, Phys. Rev. 177, 1857 (1969)), evaluated elementwise over an
    array of alpha; for m' >= m it reads (-1)^{m'} sqrt(m!/m'!)
    (-2 alpha^*)^{m'-m} e^{-2|alpha|^2} L_m^{m'-m}(4|alpha|^2), and m > m'
    follows from Hermiticity.  numpy's 0**0 = 1 covers alpha = 0.  The
    reference for `wigner._k_tables`, which evaluates the same closed form
    at |alpha| and applies the phase of alpha.
    """
    if m < 0 or mp < 0:
        raise DomainError("Fock indices must be non-negative")
    if m > mp:
        return np.conj(displaced_parity(mp, m, alpha))
    beta = 2.0 * np.asarray(alpha, dtype=complex)
    b2 = np.abs(beta) ** 2
    return (
        (-1.0) ** mp
        * math.sqrt(math.factorial(m) / math.factorial(mp))
        * (-np.conj(beta)) ** (mp - m)
        * np.exp(-0.5 * b2)
        * laguerre_assoc(m, mp - m, b2)
    )


def displaced_parity_oracle(m, mp, alpha, cutoff=None, check=True):
    """Displaced-parity element from the truncated generator, the oracle
    for `displaced_parity` and the `wigner._k_tables` entries.

    Builds D(alpha) = expm(alpha a^dag - alpha^* a) at the given Fock
    cutoff.  With check=True the value is compared against cutoff + 10 and
    a convergence error is raised if they differ by more than 1e-10.
    """
    if m < 0 or mp < 0:
        raise DomainError("Fock indices must be non-negative")
    if cutoff is None:
        cutoff = suggested_cutoff(max(m, mp), abs(alpha))
    if cutoff < max(m, mp) + 20:
        raise DomainError("cutoff must be at least max(m, mp) + 20")

    def element(nc):
        k = np.arange(1, nc)
        adag = np.zeros((nc, nc))
        adag[k, k - 1] = np.sqrt(k)
        d = linalg.expm(alpha * adag - np.conj(alpha) * adag.T)
        return _parity_from_displacement(d[[m, mp], :], [m, mp])[0, 1]

    val = element(cutoff)
    if check:
        refined = element(cutoff + 10)
        if abs(refined - val) > 1e-10:
            raise QuadratureConvergenceError(
                "displaced-parity element not converged at cutoff %d" % cutoff,
                fine=refined,
                coarse=val,
            )
    return val


def suggested_cutoff(m_max, amax):
    """Fock cutoff large enough for displaced states up to |alpha| = amax."""
    return int(m_max + amax**2 + 12.0 * math.sqrt(amax**2 + 1.0) + 25)


def closed_form_matrix(c1, c2, c3):
    """Assemble the closed-form teleport output block (c1 diag corners,
    c2/c3 cross) from the coefficients of `teleport.closed_form_epr` or
    `teleport.closed_form_noon`."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = c1
    m[0, 3] = m[3, 0] = c2
    m[1, 2] = m[2, 1] = c3
    return m


def log_negativity(rho):
    """log2(1 + 2 N) of the general `correlations.negativity`."""
    return _log_negativity_of(negativity(rho))
