"""States on the two-mode Fock window.

Everything in this package lives on the 4-dimensional window spanned by
{|n1,m1>, |n1,m1+1>, |n1+1,m1>, |n1+1,m1+1>} for two cavity modes A and B.
Density matrices are plain 4x4 complex numpy arrays over that basis, in
that order.  `hermitian_part` is the package's one rule for
(rho + rho^dagger)/2, and `_value` gives a single state's result as a float.

`x_corners` is the package's one test of X structure, with exact zeros
and no tolerance: the printed window generator's nine invariant blocks
keep every zero of an X state's rho0 exactly zero at every time, so
deciding each state on its own is deciding once on rho0.
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


def _value(x):
    """A float for the single-state case, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def hermitian_part(rho):
    """(rho + rho^dagger)/2 of one state or of each state of a stack, which
    equals its own conjugate transpose exactly."""
    return 0.5 * (rho + np.conj(rho).swapaxes(-1, -2))


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
    n' = 1, so check it against that one before trusting it on shifted
    windows.  Raises DomainError where an amplitude overflows double
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


# The upper entries of the two anti-diagonal corner pairs, rho14 (EPR) and
# rho23 (NOON), and of the four pairs outside the X pattern, rho12, rho13,
# rho24 and rho34, as (rows, columns).
X_CORNERS = ((0, 3), (1, 2))
_OUTSIDE_X = ((0, 0, 1, 2), (1, 2, 3, 3))


def x_corners(rho):
    """X structure of a state, or of each state of a stack, from exact zeros:
    `outside`, True where an entry outside the X pattern is nonzero, and
    `corners`, of shape outside.shape + (2,), True where the rho14/rho41 or
    the rho23/rho32 pair has a nonzero entry.  The test is `!= 0`, so -0.0
    counts as zero and NaN as nonzero."""
    nonzero = np.asarray(rho) != 0
    nonzero = nonzero | nonzero.swapaxes(-1, -2)  # an entry or its transpose
    return (nonzero[..., _OUTSIDE_X[0], _OUTSIDE_X[1]].any(axis=-1),
            np.stack([nonzero[..., i, j] for i, j in X_CORNERS], axis=-1))
