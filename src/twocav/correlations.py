"""Entanglement and quantum-discord measures on the two-qubit window.

The 4x4 window density matrix is treated as a pair of effective qubits with
ordering |00>, |01>, |10>, |11>.  X-structured states get closed-form
concurrence and discord; a brute-force discord minimization over projective
measurements on the second subsystem serves as the oracle and as the
fallback of `correlation_report` for states that are not X-structured.
Each measure has one production implementation; the printed discord
candidate lives in `errata`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SY, _SY)


def partial_transpose_b(rho):
    """Partial transpose over the second qubit."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return r.transpose(0, 3, 2, 1).reshape(4, 4)


def negativity(rho):
    """Sum of the magnitudes of the negative partial-transpose eigenvalues."""
    pt = partial_transpose_b(rho)
    pt = 0.5 * (pt + pt.conj().T)
    vals = np.linalg.eigvalsh(pt)
    return float(0.5 * (np.sum(np.abs(vals)) - np.sum(vals)))


def _log_negativity_of(neg):
    return math.log2(1.0 + 2.0 * neg)


def log_negativity(rho):
    return _log_negativity_of(negativity(rho))


def concurrence(rho):
    """Wootters concurrence of an arbitrary two-qubit state."""
    rho = np.asarray(rho, dtype=complex)
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    vals = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sqrt(np.clip(vals.real, 0.0, None))
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


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


def _check_x_state(rho, tol=1e-9):
    off = np.array(rho, dtype=complex)
    off[[0, 1, 2, 3], [0, 1, 2, 3]] = 0.0
    off[0, 3] = off[3, 0] = 0.0
    off[1, 2] = off[2, 1] = 0.0
    if np.max(np.abs(off)) > tol:
        raise DomainError("state is not X-structured")


def discord_x(rho):
    """Closed-form quantum discord of a two-qubit X state.

    The conditional entropy branch uses the larger of two candidate
    classical-correlation values.  The second candidate as printed misses
    its entropy weights; `errata.discord_second_branch_printed` exhibits
    that typo.
    """
    _check_x_state(rho)
    p = np.real(np.diag(rho))
    a14, a23 = abs(rho[0, 3]), abs(rho[1, 2])

    s_b = _h2(p[0] + p[2])  # marginal entropy of the measured qubit

    # Eigenvalues of the X state.
    lam = np.array(
        [
            0.5 * ((p[0] + p[3]) + math.hypot(p[0] - p[3], 2.0 * a14)),
            0.5 * ((p[0] + p[3]) - math.hypot(p[0] - p[3], 2.0 * a14)),
            0.5 * ((p[1] + p[2]) + math.hypot(p[1] - p[2], 2.0 * a23)),
            0.5 * ((p[1] + p[2]) - math.hypot(p[1] - p[2], 2.0 * a23)),
        ]
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


def discord_bruteforce(rho, grid=64):
    """Quantum discord via direct minimization over projective B measurements.

    A (grid x grid) scan over the Bloch angles seeds a Nelder-Mead
    refinement of the conditional entropy.
    """
    rho = np.asarray(rho, dtype=complex)
    rho_b = np.einsum("aiaj->ij", rho.reshape(2, 2, 2, 2))
    s_b = von_neumann_entropy(rho_b)
    s_ab = von_neumann_entropy(rho)

    thetas = np.linspace(0.0, math.pi, grid)
    phis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = _conditional_entropy_grid(rho, thetas, phis)
    k = int(np.argmin(vals))
    t0, p0 = thetas[k // grid], phis[k % grid]

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
    negativity: float
    log_negativity: float
    concurrence: float
    discord: float


def correlation_report(rho):
    """All measures of a window state; discord falls back to brute force
    when the state is not X-structured."""
    try:
        d = discord_x(rho)
    except DomainError:
        d = discord_bruteforce(rho)
    neg = negativity(rho)
    return CorrelationReport(
        negativity=neg,
        log_negativity=_log_negativity_of(neg),
        concurrence=concurrence(rho),
        discord=d,
    )
