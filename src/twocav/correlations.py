"""Entanglement and quantum-discord measures on the two-qubit window.

The 4x4 window density matrix is treated as a pair of effective qubits with
ordering |00>, |01>, |10>, |11>.  X-structured states get every measure in
closed form (`_x_measures`); a brute-force discord minimization over
projective measurements on the second subsystem serves as the oracle and,
with the general `negativity` and `concurrence`, as the path of
`correlation_report` for states that are not X-structured.
X structure is `states.x_corners`' exact-zero test, so a state with any
nonzero entry outside the X pattern, however small, takes the general path.
Brute force works on the state's real Bloch coefficients (t = Tr rho, a, b,
T): a 64 x 64 scan over the measurement direction seeds a 5 x 5 stencil
search, both vectorised over points, with no scipy.  Each stencil call
evaluates the current step and every halving still allowed as one batch of
levels, and returns the bits of the one-step-at-a-time search.
Each measure has one production implementation; the printed discord
candidate lives in tests/errata.py.

`partial_transpose_b`, `negativity`, `concurrence` and `correlation_report`
take one (4, 4) state or a (T, 4, 4) trajectory stack; a stack gets one
stacked LAPACK call per measure and arrays back, a single state floats.
The X closed forms are elementwise numpy over the stack.  Each stacked
value is bit-identical to the value of its state on its own.
Every entropy, X closed form or brute force, is `_entropy` of eigenvalues.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .states import _value, hermitian_part, x_corners

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SY, _SY)


def partial_transpose_b(rho):
    """Partial transpose over the second qubit (of each state of a stack)."""
    r = np.asarray(rho, dtype=complex)
    lead = r.shape[:-2]
    return r.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(lead + (4, 4))


def negativity(rho):
    """Sum of the magnitudes of the negative partial-transpose eigenvalues."""
    vals = np.linalg.eigvalsh(hermitian_part(partial_transpose_b(rho)))
    return _value(0.5 * (np.sum(np.abs(vals), axis=-1) - np.sum(vals, axis=-1)))


def _log_negativity_of(neg):
    """log2(1 + 2 N) of a negativity or of each of an array, by libm's log2."""
    x = 1.0 + 2.0 * np.asarray(neg, dtype=float)
    return _value(np.reshape([math.log2(v) for v in x.ravel().tolist()], x.shape))


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


def _x_measures(stack):
    """Negativity, concurrence and discord of each X state of a (T, 4, 4)
    stack, elementwise in the populations p and the corner moduli |rho14|
    and |rho23|.  Each is the general measure's definition on a Hermitian
    X state, positive or not:

    - negativity sums (|e| - e) / 2 over the four partial-transpose
      eigenvalues, two per 2x2 block (the transpose swaps the corners);
    - concurrence takes Wootters' lambdas from the two 2x2 blocks of
      rho rho~, whose eigenvalues are (p_i p_j + |c|^2) +/- 2 |c| sqrt(p_i p_j):
      |sqrt(p_i p_j) +/- |c|| if p_i p_j >= 0, and else, for the complex
      pair whose real part `concurrence` keeps, sqrt(max(0, p_i p_j + |c|^2))
      twice (Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007));
    - discord is the larger of two candidate classical correlations, from
      measuring B along z or in the x-y plane (Ali, Rau and Alber, PRA 81,
      042105 (2010)); it misses an interior optimum where one exists.

    A NaN entry gives the discord that scalar evaluation gives: each
    condition is written so that NaN takes the branch it takes there.
    """
    p = np.real(np.diagonal(stack, axis1=-2, axis2=-1)).T
    a14, a23 = np.abs(stack[:, 0, 3]), np.abs(stack[:, 1, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        pt = _block_eigenvalues(((p[0], p[3], a23), (p[1], p[2], a14)))
        neg = 0.5 * np.sum(np.abs(pt) - pt, axis=0)

        lam = []
        for x, y, c in ((p[0], p[3], a14), (p[1], p[2], a23)):
            xy = x * y
            real = xy >= 0.0
            root = np.sqrt(np.where(real, xy, 0.0))
            pair = np.sqrt(np.maximum(xy + c * c, 0.0))
            lam += (np.where(real, root + c, pair), np.where(real, np.abs(root - c), pair))
        lam = np.sort(lam, axis=0)
        conc = lam[3] - lam[2] - lam[1] - lam[0]
        conc = np.where(conc > 0.0, conc, 0.0)

        s_b = _binary_entropy(p[0] + p[2])  # marginal entropy of the measured qubit
        s_ab = _entropy(_block_eigenvalues(((p[0], p[3], a14), (p[1], p[2], a23))))
        # Candidate conditional entropies after a projective measurement on B.
        s = 0.5 * (1.0 + np.sqrt((1.0 - 2.0 * (p[2] + p[3])) ** 2
                                 + 4.0 * (a14 + a23) ** 2))
        planar, axial = _binary_entropy(s), _entropy(p) - s_b
        disc = s_b - s_ab + np.where(axial < planar, axial, planar)
    return neg, conc, disc


def _block_eigenvalues(blocks):
    """(4, T) eigenvalues of the 2x2 blocks [[x, c], [c*, y]], two per block."""
    out = []
    for x, y, c in blocks:
        r = np.hypot(x - y, 2.0 * c)
        out += (0.5 * ((x + y) + r), 0.5 * ((x + y) - r))
    return np.array(out)


def _entropy(values):
    """-sum v log2 v in bits over axis 0, counting only entries above 1e-15
    (a NaN entry counts 0); log2 warns only on entries it drops."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sum(np.where(values > 1e-15, -values * np.log2(values), 0.0), axis=0)


def _binary_entropy(x):
    """Binary Shannon entropy in bits: 0 at or outside [0, 1], NaN at NaN."""
    return np.where((x <= 0.0) | (x >= 1.0), 0.0,
                    -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def discord_x(rho):
    """Closed-form quantum discord of one two-qubit X state (`_x_measures`).

    The conditional entropy branch uses the larger of two candidate
    classical-correlation values.  The second candidate as printed misses
    its entropy weights; `discord_second_branch_printed` in
    tests/errata.py exhibits that typo.
    """
    rho = np.asarray(rho, dtype=complex)
    if x_corners(rho)[0]:
        raise DomainError("state is not X-structured")
    return float(_x_measures(rho[None])[2][0])


_PAULI = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), _SY,
          np.diag([1.0, -1.0]))
_PAULI_PAIRS = np.array([np.kron(u, v) for u in _PAULI for v in _PAULI])


def _bloch_coefficients(rho):
    """c[i][j] = Tr(rho sigma_i (x) sigma_j), sigma_0 = I, as rows of Python
    floats: c[0][0] = t = Tr rho, c[1:][0] = a, c[0][1:] = b, c[1:][1:] = T,
    and rho = (1/4) sum_ij c[i][j] sigma_i (x) sigma_j.  t stays Tr rho, so
    a trace-losing window keeps its unnormalised meaning."""
    rho = np.asarray(rho, dtype=complex)
    return np.real(np.einsum("kij,ji->k", _PAULI_PAIRS, rho)).reshape(4, 4).tolist()


def _conditional_entropy(c, theta, phi):
    """S(A|{B measured along n}) for the Bloch coefficients c at the points
    (theta, phi), broadcast against each other and raveled;
    n = (sin th cos ph, sin th sin ph, cos th).

    Outcome +/- leaves A in the block (1/4)[(t +/- b.n) I + (a +/- T n).sigma]
    of trace p = (t +/- b.n)/2 and eigenvalues (1/4)[(t +/- b.n) +/- |a +/- T n|]
    (Luo, PRA 77, 042303 (2008)).  Every product and sum is elementwise and
    written out term by term, so a point's bits do not depend on how many
    points share the call."""
    st = np.sin(theta)
    n0, n1, n2 = st * np.cos(phi), st * np.sin(phi), np.cos(theta)
    s = [c1 * n0 + c2 * n1 + c3 * n2 for _, c1, c2, c3 in c]  # b.n, then T n
    e = []  # per outcome and eigenvalue sign: ++, +-, -+, --
    # log2 of an entry at or below 1e-15 may warn; np.where drops it.
    with np.errstate(divide="ignore", invalid="ignore"):
        # Outcome +/-: (t, a) + (b.n, T n), then (t, a) - (b.n, T n).
        for v in ([r[0] + x for r, x in zip(c, s)], [r[0] - x for r, x in zip(c, s)]):
            tr = 0.5 * v[0]  # p(outcome)
            disc = 0.5 * np.sqrt(v[1] * v[1] + v[2] * v[2] + v[3] * v[3])
            lp = np.where(tr > 1e-15, np.log2(tr), 0.0)
            for lam in (0.5 * (tr + disc), 0.5 * (tr - disc)):
                # p(b) * eigenvalue-of-normalized-state, folded together:
                # -lam log2(lam/p) = -lam log2 lam + lam log2 p.
                e.append(np.where(lam > 1e-15, -lam * np.log2(lam) + lam * lp, 0.0))
    return (e[0] + e[1] + e[2] + e[3]).ravel()


BRUTEFORCE_GRID = 64  # points per Bloch angle in the seeding scan
_STENCIL = np.arange(-2.0, 3.0)  # offsets of the 5 x 5 refinement stencil
# Cap on refinement steps.  A search takes 33 halvings plus its moves: 33-94
# steps seen, in 1-62 stencil calls (6.7 per state on the scenario sweep,
# where one step per call took 38.7).
_REFINE_STEPS = 200
# 2**-j: scaling a step by it is exact, so the step of level j is bit for
# bit the step after j halvings.  The scan's step, pi / 63, falls below
# 1e-11 within 33 halvings, so 64 levels are more than any search uses.
_HALVINGS = np.ldexp(1.0, -np.arange(64))


def discord_bruteforce(rho):
    """Quantum discord via direct minimization over projective B measurements.

    A (BRUTEFORCE_GRID x BRUTEFORCE_GRID) scan over the Bloch angles seeds a
    pattern search: each step evaluates a 5 x 5 stencil around the current
    point, moves to its best point if that is strictly lower and halves the
    step otherwise, until the theta step is below 1e-11 or after
    _REFINE_STEPS steps.  A halving keeps the point, so one call evaluates
    the stencils of the current step and of every halving still allowed
    (levels 0, 1, ...), and the search moves at the first level with a
    lower point: the point and step that one step at a time would reach.
    """
    rho = np.asarray(rho, dtype=complex)
    rho_b = np.einsum("aiaj->ij", rho.reshape(2, 2, 2, 2))
    s_b, s_ab = (_entropy(np.linalg.eigvalsh(hermitian_part(r))) for r in (rho_b, rho))

    c = _bloch_coefficients(rho)
    thetas = np.linspace(0.0, math.pi, BRUTEFORCE_GRID)
    phis = np.linspace(0.0, 2.0 * math.pi, BRUTEFORCE_GRID, endpoint=False)
    vals = _conditional_entropy(c, thetas[:, None], phis[None, :])
    i = int(np.argmin(vals))
    best, theta, phi = vals[i], thetas[i // BRUTEFORCE_GRID], phis[i % BRUTEFORCE_GRID]
    d_theta, d_phi = thetas[1], phis[1]
    steps = 0
    while steps < _REFINE_STEPS:
        # Level j runs while its theta step stays >= 1e-11 and its step
        # number, steps + j, stays within the cap.
        k = int(np.count_nonzero(d_theta * _HALVINGS[:_REFINE_STEPS - steps] >= 1e-11))
        scale = _HALVINGS[:k, None]
        ths = theta + (d_theta * scale) * _STENCIL  # (level, stencil point)
        phs = phi + (d_phi * scale) * _STENCIL
        vals = _conditional_entropy(c, ths[:, :, None], phs[:, None, :]).reshape(k, -1)
        at = np.argmin(vals, axis=1)
        lower = (vals[np.arange(k), at] < best).tolist()
        if True not in lower:
            break  # every halving left taken: the step or the cap ran out
        # Move at the first lower level, keeping its step (>= 1e-11).
        j = lower.index(True)
        steps += j + 1
        d_theta, d_phi = d_theta * _HALVINGS[j], d_phi * _HALVINGS[j]
        a, b = divmod(int(at[j]), len(_STENCIL))
        best, theta, phi = vals[j, at[j]], ths[j, a], phs[j, b]
    return float(s_b - s_ab + best)


@dataclass
class CorrelationReport:
    """Floats for one state; arrays of length T for a (T, 4, 4) stack."""

    negativity: float
    log_negativity: float
    concurrence: float
    discord: float


def correlation_report(rho):
    """All measures of a window state or of a (T, 4, 4) stack of them.

    Each X state (`states.x_corners`) takes the closed forms of
    `_x_measures`; every other state takes `negativity`, `concurrence` and
    brute-force discord.  A stack gets arrays of length T.
    """
    rho = np.asarray(rho, dtype=complex)
    stack = rho.reshape(-1, 4, 4)
    general = x_corners(stack)[0]
    neg, conc, disc = np.empty((3, len(stack)))
    if not general.all():
        neg[~general], conc[~general], disc[~general] = _x_measures(stack[~general])
    if general.any():
        others = stack[general]
        neg[general], conc[general] = negativity(others), concurrence(others)
        disc[general] = [discord_bruteforce(r) for r in others]
    shape = rho.shape[:-2]
    neg = _value(neg.reshape(shape))
    return CorrelationReport(
        negativity=neg,
        log_negativity=_log_negativity_of(neg),
        concurrence=_value(conc.reshape(shape)),
        discord=_value(disc.reshape(shape)),
    )
