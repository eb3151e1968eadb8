"""States on the two-mode Fock window.

Everything in this package lives on the 4-dimensional window spanned by
{|n1,m1>, |n1,m1+1>, |n1+1,m1>, |n1+1,m1+1>} for two cavity modes A and B.
Density matrices are plain 4x4 complex numpy arrays over that basis, in
that order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, DomainError

NORM_TOL = 1e-12


@dataclass(frozen=True)
class FockWindow:
    """Base Fock indices (n1 for mode A, m1 for mode B) of the window."""

    n1: int = 0
    m1: int = 0

    def __post_init__(self):
        if self.n1 < 0 or self.m1 < 0:
            raise DomainError("window indices must be non-negative")

    def basis_labels(self):
        n1, m1 = self.n1, self.m1
        return [(n1, m1), (n1, m1 + 1), (n1 + 1, m1), (n1 + 1, m1 + 1)]


@dataclass(frozen=True)
class StateValidationReport:
    hermiticity_defect: float
    min_eigenvalue: float
    trace: float
    is_physical: bool


def _normalize(raw):
    """The (4,) complex vector raw / |raw|."""
    norm = math.sqrt(sum(abs(z) ** 2 for z in raw))
    if norm == 0.0:
        raise DegenerateStateError("all window amplitudes are zero")
    return np.array([z / norm for z in raw], dtype=complex)


def coherent_amplitudes_paper(nbar_prime, window=FockWindow()):
    """Window amplitudes of the coherent product state, printed-form variant.

    Evaluates the printed closed form verbatim: each amplitude is
    (1/sqrt(2)) * exp(-n') * sqrt(n'**e / e!) where the exponent e is the
    printed index product (0**0 := 1), renormalized to a (4,) complex
    vector.  This variant disagrees with projection_amplitudes away from
    n' = 1 -- compare with amplitude_disagreement before trusting it on
    shifted windows.  Raises DomainError where an amplitude overflows double
    precision.
    """
    if nbar_prime < 0:
        raise DomainError("mean photon number must be non-negative")
    n1, m1 = window.n1, window.m1
    pre = math.exp(-nbar_prime) / math.sqrt(2.0)
    exponents = (
        n1 + m1,
        n1 + m1 + 1,
        m1 * (n1 + 1),
        (m1 + 1) * (n1 + 1),
    )
    try:
        # 171! exceeds the float range, so larger windows overflow whatever
        # n' is; checked before the factorials get expensive to compute.
        if (m1 + 1) * (n1 + 1) > 170:
            raise OverflowError
        factorials = (
            math.factorial(n1 * m1),
            math.factorial(n1 * (m1 + 1)),
            math.factorial(m1 * (n1 + 1)),
            math.factorial((m1 + 1) * (n1 + 1)),
        )
        raw = tuple(
            pre * math.sqrt(nbar_prime**e / f) for e, f in zip(exponents, factorials)
        )
    except OverflowError:
        raise DomainError("coherent amplitudes overflow at n' = %g on window "
                          "(%d, %d)" % (nbar_prime, n1, m1)) from None
    return _normalize(raw)


def projection_amplitudes(nbar_prime, window=FockWindow()):
    """Window amplitudes from the standard coherent expansion.

    Projects |alpha> x |beta> (equal mean photon number n') onto the four
    window states using c_n = exp(-n'/2) sqrt(n'**n / n!), renormalized to a
    (4,) complex vector.
    """
    if nbar_prime < 0:
        raise DomainError("mean photon number must be non-negative")

    def coeff(n):
        return math.exp(-nbar_prime / 2.0) * math.sqrt(
            nbar_prime**n / math.factorial(n)
        )

    n1, m1 = window.n1, window.m1
    ca = (coeff(n1), coeff(n1 + 1))
    cb = (coeff(m1), coeff(m1 + 1))
    raw = (ca[0] * cb[0], ca[0] * cb[1], ca[1] * cb[0], ca[1] * cb[1])
    return _normalize(raw)


def amplitude_disagreement(nbar_prime, window=FockWindow()):
    """Max |difference| between the two amplitude variants after phase fix."""
    u = coherent_amplitudes_paper(nbar_prime, window)
    v = projection_amplitudes(nbar_prime, window)
    phase = np.vdot(v, u)
    if phase != 0:
        u = u * (abs(phase) / phase)
    return float(np.max(np.abs(u - v)))


def pure_state(amplitudes):
    """Rank-1 density matrix of a window superposition."""
    psi = np.asarray(amplitudes, dtype=complex)
    return np.outer(psi, psi.conj())


def _require_unit_norm(x, y, message):
    # Written as "not <=" so that NaN and infinite amplitudes fail too.
    if not abs(abs(x) ** 2 + abs(y) ** 2 - 1.0) <= NORM_TOL:
        raise DomainError(message)


def build_epr(a, d):
    """Pure state a|n1,m1> + d|n1+1,m1+1> as a density matrix."""
    _require_unit_norm(a, d, "|a|^2 + |d|^2 must equal 1")
    return pure_state(np.array([a, 0.0, 0.0, d], dtype=complex))


def build_noon(b, c):
    """Pure state b|n1,m1+1> + c|n1+1,m1> as a density matrix."""
    _require_unit_norm(b, c, "|b|^2 + |c|^2 must equal 1")
    return pure_state(np.array([0.0, b, c, 0.0], dtype=complex))


def validate(rho, tol=1e-10):
    """Diagnostic report on Hermiticity, positivity and trace of a state."""
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    rho = np.asarray(rho, dtype=complex)
    defect = float(np.max(np.abs(rho - rho.conj().T)))
    herm = 0.5 * (rho + rho.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    min_eig = float(eigs[0])
    trace = float(np.real(np.trace(rho)))
    physical = defect <= tol and min_eig >= -tol and abs(trace - 1.0) <= tol
    return StateValidationReport(defect, min_eig, trace, physical)

