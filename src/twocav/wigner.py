"""Joint two-mode Wigner function and negativity volume.

The Wigner function is assembled from displaced-parity matrix elements
K[m, m'] = <m| D(alpha) P D(alpha)^dagger |m'> in the window's absolute
Fock indices.  For each mode the elements of the two window rows form a
(G, 2, 2) table over G phase-space points, and one contraction turns the
two tables and the window state into W; a single point is the G = 1 case.

Two element sources fill the tables: 'oracle' (default) is the Laguerre
closed form `displaced_parity`, while 'paper' evaluates a printed closed
form kept for the errata report (it is real-valued and wrong off the
origin).  `displaced_parity_oracle` (expm of the truncated generator) and
`parity_table` (batched eigendecomposition) are independent test oracles
for the closed form and are not used to build the Wigner function.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import ConsistencyError, DomainError, QuadratureConvergenceError
from .states import FockWindow

PAPER = "paper"
ORACLE = "oracle"

IMAG_TOL = 1e-10


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform grid on [-L, L] per quadrature axis (Re/Im alpha, Re/Im beta)."""

    extent: float = 6.0
    points_per_axis: int = 32

    def __post_init__(self):
        if self.extent <= 0:
            raise DomainError("grid extent must be positive")
        if self.points_per_axis < 8 or self.points_per_axis % 2:
            raise DomainError("points_per_axis must be even and >= 8")

    def axis(self):
        return np.linspace(-self.extent, self.extent, self.points_per_axis)


@dataclass
class WignerField:
    grid: PhaseSpaceGrid
    values: np.ndarray  # shape (n, n, n, n), axes (Re a, Im a, Re b, Im b)


def default_extent(window):
    return 5.0 + math.sqrt(window.n1 + window.m1 + 1.0)


def laguerre_assoc(n, k, x):
    """Generalized Laguerre polynomial L_n^k(x) by three-term recurrence.

    x may be a numpy array; the recurrence is evaluated elementwise.
    """
    if n < 0 or k < 0:
        raise DomainError("Laguerre indices must be non-negative")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + k - x
    for j in range(1, n):
        prev, cur = cur, ((2 * j + 1 + k - x) * cur - (j + k) * prev) / (j + 1)
    return cur


def displaced_parity(m, mp, alpha):
    """Displaced-parity element K[m, m'] = (-1)^{m'} <m| D(2 alpha) |m'>.

    Laguerre closed form of the displacement matrix element (Cahill and
    Glauber, Phys. Rev. 177, 1857 (1969)), evaluated elementwise over an
    array of alpha; for m' >= m it reads (-1)^{m'} sqrt(m!/m'!)
    (-2 alpha^*)^{m'-m} e^{-2|alpha|^2} L_m^{m'-m}(4|alpha|^2), and m > m'
    follows from Hermiticity.  numpy's 0**0 = 1 covers alpha = 0.
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


def displaced_parity_paper(m, mp, alpha):
    """Displaced-parity element from the printed closed form.

    Evaluated verbatim (with the factorial ratio read as m!/m'!), elementwise
    over an array of alpha: for m' >= m this is e^{-|a|^2} (-1)^m
    (2|a|)^{m'-m} sqrt(m!/m'!) L_m^{m'-m}(|a|); m > m' follows from
    conjugate symmetry.  Correct at alpha = 0 but disagrees with
    displaced_parity off the origin.
    """
    if m < 0 or mp < 0:
        raise DomainError("Fock indices must be non-negative")
    if m > mp:
        return np.conj(displaced_parity_paper(mp, m, alpha))
    a = np.abs(alpha)
    return (
        np.exp(-a * a)
        * (-1.0) ** m
        * (2.0 * a) ** (mp - m)
        * math.sqrt(math.factorial(m) / math.factorial(mp))
        * laguerre_assoc(m, mp - m, a)
    )


def _parity_from_displacement(d_rows, m_list):
    """K[p, q] = sum_k <p|D|k> (-1)^k <q|D|k>^* from rows of D(alpha)."""
    signs = (-1.0) ** np.arange(d_rows.shape[-1])
    out = np.empty((len(m_list), len(m_list)), dtype=complex)
    for i in range(len(m_list)):
        for j in range(len(m_list)):
            out[i, j] = np.sum(d_rows[i] * signs * np.conj(d_rows[j]))
    return out


def displaced_parity_oracle(m, mp, alpha, cutoff=None, check=True):
    """Test oracle: displaced-parity element from the truncated generator.

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


def parity_table(alphas, window_index, cutoff):
    """Test oracle: batched K tables for many phase-space points.

    Returns an array of shape (len(alphas), 2, 2) holding K[m_p, m_q] for
    m in {window_index, window_index + 1}.  Uses D(alpha) =
    R(phi) expm(|alpha| (a^dag - a)) R(phi)^dag with a single
    eigendecomposition of the Hermitian generator i(a^dag - a).
    """
    alphas = np.asarray(alphas, dtype=complex)
    nc = cutoff
    k = np.arange(1, nc)
    s = np.zeros((nc, nc))
    s[k, k - 1] = np.sqrt(k)
    s = s - s.T  # a^dag - a, real antisymmetric
    w, vec = np.linalg.eigh(1j * s)

    rows = np.array([window_index, window_index + 1])
    mags = np.abs(alphas)
    phases = np.angle(alphas)
    # <p|expm(|a| s)|k> for the two window rows, all grid points at once.
    phase_fac = np.exp(-1j * np.outer(mags, w))  # (G, nc)
    vrow = vec[rows, :]  # (2, nc)
    e_rows = np.einsum("pj,gj,kj->gpk", vrow, phase_fac, np.conj(vec))
    signs = (-1.0) ** np.arange(nc)
    core = np.einsum("gpk,k,gqk->gpq", e_rows, signs, np.conj(e_rows))
    # Restore the optical phase: <p|D|q> = e^{i phi (p - q)} <p|expm(|a|s)|q>.
    dm = rows[:, None] - rows[None, :]
    return core * np.exp(1j * phases[:, None, None] * dm[None, :, :])


_ELEMENTS = {ORACLE: displaced_parity, PAPER: displaced_parity_paper}


def _k_tables(points, index, element_source):
    """Tables K[g, p, q] of shape (G, 2, 2) for rows {index, index + 1}."""
    element = _ELEMENTS.get(element_source)
    if element is None:
        raise DomainError("element_source must be 'paper' or 'oracle'")
    pts = np.asarray(points, dtype=complex)
    rows = (index, index + 1)
    return np.stack(
        [np.stack([element(p, q, pts) for q in rows], axis=-1) for p in rows],
        axis=-2,
    )


def _contract(rho, ka, kb):
    """W[a, b] = (4/pi^2) sum rho[i,j,k,l] ka[a,k,i] kb[b,l,j], real part.

    A 16-term contraction of rho with the mode-A tables followed by one
    (Ga x 4)(4 x Gb) product with the mode-B tables.
    """
    rho4 = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    left = (4.0 / math.pi**2) * np.einsum("ijkl,aki->alj", rho4, ka)
    w = left.reshape(len(ka), 4) @ kb.reshape(len(kb), 4).T
    residue = float(np.max(np.abs(w.imag)))
    if residue > IMAG_TOL:
        raise ConsistencyError("Wigner function has imaginary residue %g" % residue)
    return w.real


def wigner_joint(rho, alpha, beta, window=FockWindow(), element_source=ORACLE):
    """Joint Wigner function W(alpha, beta) of a window state."""
    ka = _k_tables([alpha], window.n1, element_source)
    kb = _k_tables([beta], window.m1, element_source)
    return float(_contract(rho, ka, kb)[0, 0])


def wigner_field(rho, grid, window=FockWindow(), element_source=ORACLE):
    """Wigner function evaluated on the full 4-dimensional grid."""
    ax = grid.axis()
    re, im = np.meshgrid(ax, ax, indexing="ij")
    pts = (re + 1j * im).ravel()
    ka = _k_tables(pts, window.n1, element_source)
    kb = _k_tables(pts, window.m1, element_source)
    n = grid.points_per_axis
    return WignerField(grid=grid, values=_contract(rho, ka, kb).reshape(n, n, n, n))


def _trapezoid_weights(grid):
    n, L = grid.points_per_axis, grid.extent
    h = 2.0 * L / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def integrate_field(field):
    """Tensor-product trapezoidal integral of the field over the grid."""
    w = _trapezoid_weights(field.grid)
    out = field.values
    for axis in range(4):
        out = np.tensordot(out, w, axes=([0], [0]))
    return float(out)


def volume_pair(rho, grid, window=FockWindow(), element_source=ORACLE):
    """Raw volume quadrature at the grid resolution and at half of it."""

    def volume_at(n_pts):
        g = PhaseSpaceGrid(extent=grid.extent, points_per_axis=n_pts)
        field = wigner_field(rho, g, window, element_source)
        abs_field = WignerField(grid=g, values=np.abs(field.values))
        return 0.5 * (integrate_field(abs_field) - 1.0)

    half = grid.points_per_axis // 2
    if half % 2:
        half += 1
    return volume_at(grid.points_per_axis), volume_at(max(8, half))


def negativity_volume(rho, grid, window=FockWindow(), element_source=ORACLE,
                      tol=1e-3):
    """Negativity volume V = (1/2)(integral of |W| - 1).

    The quadrature is repeated at half the grid resolution; a convergence
    error carrying both values is raised when they differ by more than
    10 * tol.  Small negative results within tol are clamped to zero.
    """
    fine, coarse = volume_pair(rho, grid, window, element_source)
    if abs(fine - coarse) > 10.0 * tol:
        raise QuadratureConvergenceError(
            "negativity volume not converged: %g vs %g at half resolution"
            % (fine, coarse),
            fine=fine,
            coarse=coarse,
        )
    if fine < -tol:
        raise ConsistencyError("negativity volume is negative beyond tolerance")
    return max(0.0, fine)
