"""Entanglement and quantum-discord measures on the two-qubit window.

The 4x4 window density matrix is treated as a pair of effective qubits with
ordering |00>, |01>, |10>, |11>.  X-structured states get closed-form
concurrence and discord; a brute-force discord minimization over projective
measurements on the second subsystem serves as the oracle and as the
fallback of `correlation_report` for states that are not X-structured.
Each measure has one production implementation; the printed discord
candidate lives in `errata`.

`partial_transpose_b`, `negativity`, `concurrence` and `correlation_report`
take one (4, 4) state or a (T, 4, 4) trajectory stack; a stack gets one
stacked LAPACK call per measure and arrays back, a single state floats.
Each stacked value is bit-identical to the value of its state on its own.
The discord stays a per-state scalar evaluation: its `math.log2` and
`math.hypot` are libm's, which numpy's vectorised transcendentals do not
reproduce bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SY, _SY)


def _value(x):
    """A float for the single-state case, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def partial_transpose_b(rho):
    """Partial transpose over the second qubit (of each state of a stack)."""
    r = np.asarray(rho, dtype=complex)
    lead = r.shape[:-2]
    return r.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(lead + (4, 4))


def negativity(rho):
    """Sum of the magnitudes of the negative partial-transpose eigenvalues."""
    pt = partial_transpose_b(rho)
    # (pt + pt^dagger) / 2 in place (pt is a fresh copy): fewer stack copies.
    pt += pt.conj().swapaxes(-1, -2)
    pt *= 0.5
    vals = np.linalg.eigvalsh(pt)
    return _value(0.5 * (np.sum(np.abs(vals), axis=-1) - np.sum(vals, axis=-1)))


def _log_negativity_of(neg):
    if np.ndim(neg) == 0:
        return math.log2(1.0 + 2.0 * neg)
    return np.array([math.log2(x) for x in (1.0 + 2.0 * neg).tolist()])


def log_negativity(rho):
    return _log_negativity_of(negativity(rho))


def concurrence(rho):
    """Wootters concurrence of an arbitrary two-qubit state."""
    rho = np.asarray(rho, dtype=complex)
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    vals = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sort(np.sqrt(np.clip(vals.real, 0.0, None)), axis=-1)
    c = lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0]
    # max(0, c): a NaN or signed zero gives 0.0, as Python's max does.
    return _value(np.where(c > 0.0, c, 0.0))


def concurrence_x_epr(rho):
    """Closed-form concurrence of an X state with anti-diagonal coherence."""
    return 2.0 * max(
        0.0, abs(rho[0, 3]) - math.sqrt(max(0.0, (rho[1, 1] * rho[2, 2]).real))
    )


def concurrence_x_noon(rho):
    """Closed-form concurrence of an X state with inner-block coherence."""
    return 2.0 * max(
        0.0, abs(rho[1, 2]) - math.sqrt(max(0.0, (rho[0, 0] * rho[3, 3]).real))
    )


def log_negativity_x_epr(rho):
    """Closed-form logarithmic negativity for the anti-diagonal X state."""
    p22, p33 = rho[1, 1].real, rho[2, 2].real
    term = math.sqrt((p22 - p33) ** 2 + 4.0 * abs(rho[0, 3]) ** 2) - p22 - p33
    return math.log2(1.0 + max(0.0, term))


def log_negativity_x_noon(rho):
    """Closed-form logarithmic negativity for the inner-block X state."""
    p11, p44 = rho[0, 0].real, rho[3, 3].real
    term = math.sqrt((p11 - p44) ** 2 + 4.0 * abs(rho[1, 2]) ** 2) - p11 - p44
    return math.log2(1.0 + max(0.0, term))


def _h2(x):
    """Binary Shannon entropy in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def von_neumann_entropy(rho):
    vals = np.linalg.eigvalsh(0.5 * (rho + np.conj(rho).T))
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log2(vals)))


# The eight entries outside the diagonal and the two anti-diagonal pairs.
_OFF_X = tuple(zip(*[(i, j) for i in range(4) for j in range(4)
                     if i != j and i + j != 3]))
_X_TOL = 1e-9


def _off_x(rho):
    """Largest |entry| outside the X pattern, per state."""
    return np.max(np.abs(np.asarray(rho)[..., _OFF_X[0], _OFF_X[1]]), axis=-1)


def discord_x(rho):
    """Closed-form quantum discord of a two-qubit X state.

    The conditional entropy branch uses the larger of two candidate
    classical-correlation values.  The second candidate as printed misses
    its entropy weights; `errata.discord_second_branch_printed` exhibits
    that typo.
    """
    if _off_x(rho) > _X_TOL:
        raise DomainError("state is not X-structured")
    (p, c14, c23), = _x_entries(np.asarray(rho)[None])
    return _discord_x_value(p, c14, c23)


def _x_entries(stack):
    """Per state of a stack: the real diagonal and rho14, rho23, as Python
    numbers (their arithmetic is numpy's scalar arithmetic, bit for bit)."""
    diag = np.real(np.diagonal(stack, axis1=-2, axis2=-1)).tolist()
    return zip(diag, stack[:, 0, 3].tolist(), stack[:, 1, 2].tolist())


def _discord_x_value(p, c14, c23):
    """`discord_x` of an X state with diagonal p and corners c14, c23."""
    a14, a23 = abs(c14), abs(c23)

    s_b = _h2(p[0] + p[2])  # marginal entropy of the measured qubit

    # Eigenvalues of the X state.
    lam = (
        0.5 * ((p[0] + p[3]) + math.hypot(p[0] - p[3], 2.0 * a14)),
        0.5 * ((p[0] + p[3]) - math.hypot(p[0] - p[3], 2.0 * a14)),
        0.5 * ((p[1] + p[2]) + math.hypot(p[1] - p[2], 2.0 * a23)),
        0.5 * ((p[1] + p[2]) - math.hypot(p[1] - p[2], 2.0 * a23)),
    )
    s_ab = 0.0
    for v in lam:
        if v > 1e-15:
            s_ab -= v * math.log2(v)

    # Candidate conditional entropies after a projective measurement on B.
    s = 0.5 * (
        1.0
        + math.sqrt(
            (1.0 - 2.0 * (p[2] + p[3])) ** 2 + 4.0 * (a14 + a23) ** 2
        )
    )
    d1 = _h2(s)
    d2 = 0.0
    for v in p:
        if v > 1e-15:
            d2 -= v * math.log2(v)
    d2 -= _h2(p[0] + p[2])
    d_min = min(d1, d2)

    return s_b - s_ab + d_min


def _conditional_entropy_grid(rho, thetas, phis):
    """S(A|{B measurement}) on a grid of projector angles, vectorized."""
    r4 = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    tg, pg = tg.ravel(), pg.ravel()
    # Measurement basis vectors on B for each grid point.
    v0 = np.stack([np.cos(tg / 2.0), np.exp(1j * pg) * np.sin(tg / 2.0)], axis=1)
    v1 = np.stack([-np.exp(-1j * pg) * np.sin(tg / 2.0), np.cos(tg / 2.0)], axis=1)
    total = np.zeros(len(tg))
    for v in (v0, v1):
        block = np.einsum("gi,aibj,gj->gab", v.conj(), r4, v)
        prob = np.real(np.trace(block, axis1=1, axis2=2))
        # 2x2 Hermitian eigenvalues in closed form.
        tr = np.real(block[:, 0, 0] + block[:, 1, 1])
        det = np.real(
            block[:, 0, 0] * block[:, 1, 1] - block[:, 0, 1] * block[:, 1, 0]
        )
        disc = np.sqrt(np.clip(tr**2 - 4.0 * det, 0.0, None))
        for lam in (0.5 * (tr + disc), 0.5 * (tr - disc)):
            mask = lam > 1e-15
            contrib = np.zeros_like(lam)
            # p(b) * eigenvalue-of-normalized-state, folded together:
            # sum -lam log2(lam/p) = -lam log2 lam + lam log2 p.
            lp = np.where(prob > 1e-15, np.log2(np.where(prob > 0, prob, 1.0)), 0.0)
            contrib[mask] = -lam[mask] * np.log2(lam[mask]) + lam[mask] * lp[mask]
            total += contrib
    return total


BRUTEFORCE_GRID = 64  # points per Bloch angle in the seeding scan


def discord_bruteforce(rho):
    """Quantum discord via direct minimization over projective B measurements.

    A (BRUTEFORCE_GRID x BRUTEFORCE_GRID) scan over the Bloch angles seeds a
    Nelder-Mead refinement of the conditional entropy.
    """
    rho = np.asarray(rho, dtype=complex)
    rho_b = np.einsum("aiaj->ij", rho.reshape(2, 2, 2, 2))
    s_b = von_neumann_entropy(rho_b)
    s_ab = von_neumann_entropy(rho)

    thetas = np.linspace(0.0, math.pi, BRUTEFORCE_GRID)
    phis = np.linspace(0.0, 2.0 * math.pi, BRUTEFORCE_GRID, endpoint=False)
    vals = _conditional_entropy_grid(rho, thetas, phis)
    k = int(np.argmin(vals))
    t0, p0 = thetas[k // BRUTEFORCE_GRID], phis[k % BRUTEFORCE_GRID]

    def objective(x):
        return _conditional_entropy_grid(rho, np.array([x[0]]), np.array([x[1]]))[0]

    from scipy import optimize  # deferred: only brute-force discord needs it

    res = optimize.minimize(
        objective, [t0, p0], method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12}
    )
    s_cond = min(float(vals[k]), float(res.fun))
    return s_b - s_ab + s_cond


@dataclass
class CorrelationReport:
    """Floats for one state; arrays of length T for a (T, 4, 4) stack."""

    negativity: float
    log_negativity: float
    concurrence: float
    discord: float


def correlation_report(rho):
    """All measures of a window state or of a (T, 4, 4) stack of them.

    Discord falls back to brute force for each state that is not
    X-structured; a stack gets arrays of length T.
    """
    rho = np.asarray(rho, dtype=complex)
    stack = rho.reshape(-1, 4, 4)
    not_x = (_off_x(stack) > _X_TOL).tolist()
    d = np.array([discord_bruteforce(r) if bad else _discord_x_value(*x)
                  for r, bad, x in zip(stack, not_x, _x_entries(stack))])
    neg = negativity(rho)
    return CorrelationReport(
        negativity=neg,
        log_negativity=_log_negativity_of(neg),
        concurrence=concurrence(rho),
        discord=_value(d.reshape(rho.shape[:-2])),
    )
