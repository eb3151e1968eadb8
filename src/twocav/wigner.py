"""Joint two-mode Wigner function and negativity volume.

The Wigner function is assembled from displaced-parity matrix elements
K[m, m'] = <m| D(alpha) P D(alpha)^dagger |m'> in the window's absolute
Fock indices.  For each mode the elements of the two window rows form a
(G, 2, 2) table over G phase-space points.  `_left` contracts the state
with the mode-A table, and `_contract`, the one product with the mode-B
table, gives W; a single point is the G = 1 case.

`wigner_joint` and `volume_pair` take one (4, 4) state or a (T, 4, 4)
stack and build their tables and weights once per call; a stack gets
arrays back, each value bit-identical to that of its state on its own.
The negativity volume never holds the full field: it takes |W| of one
state one block of Im beta columns at a time and contracts each block
over the other three axes with the same trapezoid sums as
`integrate_field`, so it matches the unstreamed quadrature of
`wigner_field` bit for bit.

The Laguerre closed form `displaced_parity` fills every table; the printed
closed form it replaces is `errata.displaced_parity_printed`.
`displaced_parity_oracle` (expm of the truncated generator) and
`parity_table` (batched eigendecomposition) are independent test oracles
for the closed form and are not used to build the Wigner function.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlations import _value
from .errors import ConsistencyError, DomainError, QuadratureConvergenceError
from .states import FockWindow

IMAG_TOL = 1e-10


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform grid on [-L, L] per quadrature axis (Re/Im alpha, Re/Im beta)."""

    extent: float = 6.0
    points_per_axis: int = 32

    def __post_init__(self):
        if not self.extent > 0:
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
    from scipy import linalg  # deferred: only this oracle needs it

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


def _k_tables(points, index):
    """Tables K[g, p, q] of shape (G, 2, 2) for rows {index, index + 1}."""
    pts = np.asarray(points, dtype=complex)
    rows = (index, index + 1)
    return np.stack([displaced_parity(p, q, pts) for p in rows for q in rows],
                    axis=-1).reshape(-1, 2, 2)


def _left(rho, ka):
    """(..., Ga, 4) factor (4/pi^2) sum_ik rho[..., i,j,k,l] ka[a,k,i],
    columns (l, j), of one state or a stack."""
    rho = np.asarray(rho, dtype=complex)
    rho4 = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    left = (4.0 / math.pi**2) * np.einsum("...ijkl,aki->...alj", rho4, ka)
    return left.reshape(left.shape[:-2] + (4,))


def _contract(left, kb):
    """W[..., a, b] = sum_c left[..., a, c] kb[b, c], real part, for a `_left`
    factor and mode-B tables whose trailing (2, 2) axes flatten to
    c = (l, j); raises if the imaginary residue exceeds IMAG_TOL."""
    w = left @ kb.reshape(-1, 4).T
    residue = float(np.max(np.abs(w.imag)))
    if residue > IMAG_TOL:
        raise ConsistencyError("Wigner function has imaginary residue %g" % residue)
    return w.real


def wigner_joint(rho, alpha, beta, window=FockWindow()):
    """Joint Wigner function W(alpha, beta) of a window state, or an array
    of them for a stack of states."""
    w = _contract(_left(rho, _k_tables([alpha], window.n1)),
                  _k_tables([beta], window.m1))
    return _value(w[..., 0, 0])


def _grid_points(grid):
    """Complex points of one mode's (Re, Im) grid, Re major."""
    ax = grid.axis()
    return (ax[:, None] + 1j * ax[None, :]).ravel()


def wigner_field(rho, grid, window=FockWindow()):
    """Wigner function evaluated on the full 4-dimensional grid.

    Holds the whole complex field, G^2 values for G points per mode; no
    production path calls it.  It is the unstreamed reference for the
    streamed quadrature in `volume_pair`.
    """
    pts = _grid_points(grid)
    w = _contract(_left(rho, _k_tables(pts, window.n1)), _k_tables(pts, window.m1))
    return WignerField(grid=grid, values=w.reshape((grid.points_per_axis,) * 4))


def _trapezoid_weights(grid):
    n, L = grid.points_per_axis, grid.extent
    h = 2.0 * L / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _trapezoid(values, w, axes):
    """Contract the leading `axes` axes of values with the weights w."""
    for _ in range(axes):
        values = np.tensordot(values, w, axes=([0], [0]))
    return values


def integrate_field(field):
    """Tensor-product trapezoidal integral of the field over the grid."""
    return float(_trapezoid(field.values, _trapezoid_weights(field.grid), 4))


# Im beta columns per streamed block.  Only some widths keep the BLAS
# summation order of the unstreamed quadrature (4 and 8 match it bit for
# bit; 1, 2, 3, 5 and 6 do not), and 4 holds the least memory: do not tune.
_BLOCK = 4


def _abs_integral(left, kb, w):
    """Trapezoidal integral of |W| for one state's (G, 4) `_left` factor,
    streamed over blocks of Im beta columns of the (n, n, 4) mode-B tables.

    The block is formed and reduced in one expression, so it is freed before
    the next one is formed.  The result equals `integrate_field` of
    |`wigner_field`| exactly.
    """
    n = len(w)
    partial = np.empty(n)
    for s in range(0, n, _BLOCK):
        cols = slice(s, s + _BLOCK)
        partial[cols] = _trapezoid(
            np.abs(_contract(left, kb[:, cols])).reshape(n, n, n, -1), w, 3)
    return float(_trapezoid(partial, w, 1))


def volume_pair(rho, grid, window=FockWindow()):
    """Negativity volume V = (1/2)(integral of |W| - 1), unclamped, at the
    grid resolution and at half of it (rounded up to even, at least 8
    points, so only grids of 10 or more points get a coarser twin); the CLI
    gates their gap (`cli.VOLUME_GATE`).  A stack of states gets two arrays;
    the tables and weights of each resolution are built once per call."""

    def volume_at(n_pts):
        g = PhaseSpaceGrid(extent=grid.extent, points_per_axis=n_pts)
        pts = _grid_points(g)
        left = _left(rho, _k_tables(pts, window.n1))
        kb = _k_tables(pts, window.m1).reshape(n_pts, n_pts, 4)
        w = _trapezoid_weights(g)
        v = [_abs_integral(one, kb, w) for one in left.reshape(-1, n_pts**2, 4)]
        return _value(0.5 * (np.reshape(v, left.shape[:-2]) - 1.0))

    half = 2 * math.ceil(grid.points_per_axis / 4)  # half, rounded up to even
    return volume_at(grid.points_per_axis), volume_at(max(8, half))
