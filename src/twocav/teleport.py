"""Two-qubit teleportation through a window-state channel.

The channel map weights Pauli corrections by products of Bell-projector
overlaps with the channel state.  Two index orderings of the right-hand
Pauli factor are implemented; 'printed' is the default, chosen because it
reproduces the closed-form output blocks exactly.  An input state carries
its index order: it builds the 16 correction terms of that order once, so
only the Bell weights change from one channel state to the next.
Closed-form fast paths cover the two X-structured channel families.  A
channel is in a family when `states.x_corners` finds every entry off the
diagonal and off the family's corner pair exactly zero, as the window
generator keeps them on an EPR or NOON trajectory; else PatternError.
The channel may be one (4, 4) state or a (T, 4, 4) trajectory stack; a
stack is teleported in one pass and gets arrays back, each value
bit-identical to that of its state on its own.  The map preserves
Hermiticity and rounding does not, so each output is made Hermitian.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import correlations
from .correlations import _PAULI_PAIRS
from .errors import DomainError, PatternError
from .states import X_CORNERS, _value, hermitian_part, x_corners

PRINTED = "printed"
SYMMETRIC = "symmetric"


def _read_only(a):
    a.flags.writeable = False
    return a


def _bell(v):
    v = np.asarray(v, dtype=complex) / math.sqrt(2.0)
    return _read_only(np.outer(v, v.conj()))

# Projector order matches the Pauli order (identity, x, y, z).
BELL_PROJECTORS = (
    _bell([0.0, 1.0, -1.0, 0.0]),   # E^0 = |psi->
    _bell([1.0, 0.0, 0.0, -1.0]),   # E^x = |phi->
    _bell([1.0, 0.0, 0.0, 1.0]),    # E^y = |phi+>
    _bell([0.0, 1.0, 1.0, 0.0]),    # E^z = |psi+>
)

# sigma_a x sigma_b at index 4a + b (the `correlations` array, shared), and
# sigma_b x sigma_a at the same index.
_KRON = _read_only(_PAULI_PAIRS)
_KRON_SWAPPED = _read_only(_KRON[[4 * b + a for a in range(4) for b in range(4)]])


@dataclass(frozen=True)
class InputState:
    p: float
    q: float
    index_order: str = PRINTED
    matrix: np.ndarray = field(init=False)
    non_physical: bool = field(init=False)
    # The 16 terms (sigma_a x sigma_b) @ matrix @ R_ab, (a, b) row-major, with
    # R_ab = sigma_b x sigma_a ('printed') or sigma_a x sigma_b ('symmetric').
    corrections: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise DomainError("p must lie in [0, 1]")
        if not self.q > 0.0:
            raise DomainError("q must be positive")
        if self.index_order not in (PRINTED, SYMMETRIC):
            raise DomainError("index_order must be 'printed' or 'symmetric'")
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = (1.0 - 2.0 * self.p) / 2.0
        m[3, 3] = (1.0 + 2.0 * self.p) / 2.0
        m[0, 3] = m[3, 0] = self.q / 2.0
        # Frozen and read-only, so the derived fields cannot go stale.
        object.__setattr__(self, "matrix", _read_only(m))
        # The eigenvalues of m are 0, 0 and 1/2 +- hypot(p, q/2).  The closed
        # form keeps LAPACK out of scenario parsing, which builds every input.
        object.__setattr__(self, "non_physical",
                           math.hypot(self.p, 0.5 * self.q) - 0.5 > 1e-12)
        # Each Pauli product has one nonzero entry (+-1 or +-i) per row, so
        # every entry of a term is exact and the stacked product matches the
        # 16 separate ones bit for bit.
        right = _KRON_SWAPPED if self.index_order == PRINTED else _KRON
        object.__setattr__(self, "corrections", tuple(_read_only(_KRON @ m @ right)))


def input_state(p, q, index_order=PRINTED):
    return InputState(p=p, q=q, index_order=index_order)


def _trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


@dataclass
class TeleportResult:
    rho_out: np.ndarray  # (4, 4), or (T, 4, 4) for a channel stack
    fidelity: float  # or shape (T,)
    probabilities: np.ndarray  # P_{alpha beta}, shape (4, 4) or (T, 4, 4)


def bell_weights(channel):
    """Overlaps Tr[E^alpha rho_ch] in Pauli order (0, x, y, z); a stack of
    channels gets one row per channel."""
    rho = np.asarray(channel, dtype=complex)
    return np.stack([np.real(_trace(e @ rho)) for e in BELL_PROJECTORS], axis=-1)


def teleport_general(channel, inp):
    """Teleport an input state through a channel state or a stack of them.

    rho_out = sum_{ab} P_ab (sigma_a x sigma_b) rho_in (R_ab) with
    R_ab = sigma_b x sigma_a ('printed') or sigma_a x sigma_b
    ('symmetric', as inp.index_order says); P_ab is the product of Bell
    overlaps.  The 16 terms are added in (a, b) row-major order, and rho_out
    is the Hermitian part of their sum.
    """
    w = bell_weights(channel)
    probs = w[..., :, None] * w[..., None, :]
    out = np.zeros(probs.shape, dtype=complex)
    for k, term in enumerate(inp.corrections):
        out += probs[..., k // 4, k % 4, None, None] * term
    out = hermitian_part(out)
    fid = np.real(_trace(inp.matrix @ out))
    return TeleportResult(rho_out=out, fidelity=_value(fid), probabilities=probs)


def _require_x(channel, corner):
    """The channel (each channel of a stack) as an array if its only
    coherence is the corner pair X_CORNERS[corner]; else raises, naming the
    first nonzero entry off the diagonal and that pair in the first channel
    that has one."""
    rho = np.asarray(channel, dtype=complex)
    outside, corners = x_corners(rho)
    bad = (outside | corners[..., 1 - corner]).ravel()
    if bad.any():
        nonzero = rho.reshape(-1, 4, 4)[np.argmax(bad)] != 0
        i, j = X_CORNERS[corner]
        nonzero[np.diag_indices(4)] = nonzero[i, j] = nonzero[j, i] = False
        i, j = np.argwhere(nonzero)[0]
        raise PatternError("channel entry (%d, %d) must vanish" % (i + 1, j + 1))
    return rho


def _square(x):
    """x ** 2 as Python's float power computes it: libm pow, which is not
    always the correctly rounded x * x that numpy's `x ** 2` gives."""
    return np.float_power(x, 2.0)


def _closed_form(rho, u, corner, p, q):
    """(c1, c2, c3) from the populations u, s = rho22 + rho33 and the corner."""
    s = np.real(rho[..., 1, 1] + rho[..., 2, 2])
    c1 = 0.5 * (1.0 - 2.0 * p) * _square(s) + 0.5 * (1.0 + 2.0 * p) * _square(u)
    c2 = 2.0 * q * _square(np.real(corner))
    return _value(c1), _value(c2), _value(u * s)


def closed_form_epr(channel, p, q):
    """Output-state coefficients (k1, k2, k3) for an anti-diagonal X channel."""
    rho = _require_x(channel, 0)
    return _closed_form(rho, np.real(rho[..., 0, 0] + rho[..., 3, 3]),
                        rho[..., 0, 3], p, q)


def closed_form_noon(channel, p, q):
    """Output-state coefficients (a1, a2, a3) for an inner-block X channel."""
    rho = _require_x(channel, 1)
    return _closed_form(rho, np.real(rho[..., 0, 0]), rho[..., 1, 2], p, q)


def closed_form_fidelity(c1, c2, q):
    return c1 + q * c2


def teleported_measures(result):
    """Correlation measures of the (renormalized) teleported state, or of
    each state of a teleported stack."""
    rho = np.asarray(result.rho_out, dtype=complex)
    tr = np.real(_trace(rho))
    if not np.all(tr > 0.0):
        raise DomainError("teleported state has non-positive trace")
    return correlations.correlation_report(rho / tr[..., None, None])
