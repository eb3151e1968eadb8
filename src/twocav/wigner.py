"""Joint two-mode Wigner function and negativity volume.

The Wigner function is assembled from displaced-parity matrix elements
K[m, m'] = <m| D(alpha) P D(alpha)^dagger |m'> in the window's absolute
Fock indices.  For each mode the elements of the two window rows form a
(G, 2, 2) table over G phase-space points.  `_left` contracts the state
with the mode-A table, and `_contract`, the one product with the mode-B
table, gives W; a single point is the G = 1 case.  The volume forms only
the parts of W that its angular closed forms need.

`wigner_joint` and `volume_pair` take one (4, 4) state or a (T, 4, 4)
stack; a stack gets arrays back, each value bit-identical to that of its
state on its own.

`volume_pair` and `wigner_field` take an even number of points, at least
8, and reach L = default_extent(window) along each quadrature axis, the
one extent of the package.  `volume_pair` integrates |W| over the disk of
radius L per mode in polar coordinates alpha = ra e^{i phi_a}, beta =
rb e^{i phi_b}, with `points` Gauss-Legendre nodes on every radial panel.
At fixed alpha, W = f + |c| cos(phi_b - chi) for every window state, so
phi_b integrates in closed form; phi_a takes the periodic trapezoid rule
with `points` nodes.  An exactly Hermitian state whose only coherence is
rho14 (EPR type) or rho23 (NOON type), decided from exact zeros
(`states.x_corners`, the one X-structure test of the package), has
W = f + g cos(phi_a +- phi_b - chi), so both phase angles integrate in
closed form and the radial panels end on the kinks of |W| (see the
X-state section below).  The coarse twin is the same rule at half the
points.  `wigner_field` and `integrate_field`, the trapezoid rule on the
box [-L, L]^4, stay as a test reference.

The Laguerre closed form `displaced_parity` fills every table.
`parity_table` (batched eigendecomposition) is an independent test oracle
for it and is not used to build the Wigner function.  The other oracle,
expm of the truncated generator, is in tests/oracles.py, and the printed
closed form that `displaced_parity` replaces is in tests/errata.py.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .states import FockWindow, _value, x_corners

IMAG_TOL = 1e-10


@dataclass
class WignerField:
    extent: float  # the box [-extent, extent] per quadrature axis
    values: np.ndarray  # shape (n, n, n, n), axes (Re a, Im a, Re b, Im b)


def default_extent(window):
    return 5.0 + math.sqrt(window.n1 + window.m1 + 1.0)


def _check_points(points):
    if points < 8 or points % 2:
        raise DomainError("points must be even and >= 8")


def _laguerre_last_two(n, k, x):
    """L_{n-1}^k(x) and L_n^k(x), n >= 1, by the three-term recurrence
    (L_0^k is the scalar 1.0)."""
    prev, cur = 1.0, 1.0 + k - x
    for j in range(1, n):
        prev, cur = cur, ((2 * j + 1 + k - x) * cur - (j + k) * prev) / (j + 1)
    return prev, cur


def laguerre_assoc(n, k, x):
    """Generalized Laguerre polynomial L_n^k(x) by three-term recurrence.

    x may be a numpy array; the recurrence is evaluated elementwise.
    """
    if n < 0 or k < 0:
        raise DomainError("Laguerre indices must be non-negative")
    if n == 0:
        return 1.0
    return _laguerre_last_two(n, k, x)[1]


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
    """Tables K[g, p, q] of shape (G, 2, 2) for rows {index, index + 1}.
    K[index + 1, index] is the conjugate of K[index, index + 1], as
    `displaced_parity` returns it, so three Laguerre elements are built."""
    pts = np.asarray(points, dtype=complex)
    upper = displaced_parity(index, index + 1, pts)
    return np.stack([displaced_parity(index, index, pts), upper, np.conj(upper),
                     displaced_parity(index + 1, index + 1, pts)],
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


def wigner_field(rho, points, window=FockWindow()):
    """Wigner function on the full 4-dimensional grid of `points` points per
    axis over [-L, L], L = default_extent(window).

    Holds the whole complex field, G^2 values for G points per mode; no
    production path calls it.  With `integrate_field` it is the box
    trapezoid rule that tests hold the volume quadrature against.
    """
    _check_points(points)
    extent = default_extent(window)
    ax = np.linspace(-extent, extent, points)
    pts = (ax[:, None] + 1j * ax[None, :]).ravel()  # (Re, Im) grid, Re major
    w = _contract(_left(rho, _k_tables(pts, window.n1)), _k_tables(pts, window.m1))
    return WignerField(extent=extent, values=w.reshape((points,) * 4))


def integrate_field(field):
    """Tensor-product trapezoidal integral of the field over its grid."""
    n = len(field.values)
    h = 2.0 * field.extent / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    values = field.values
    for _ in range(4):
        values = np.tensordot(values, w, axes=([0], [0]))
    return float(values)


# --- X states: the angular integral in closed form --------------------------
#
# If the only coherence of a window state is rho14 (EPR type) or rho23 (NOON
# type), W = f(ra, rb) + g(ra, rb) cos(phi_a +- phi_b - chi) in polar
# coordinates alpha = ra e^{i phi_a}, beta = rb e^{i phi_b}.  f sums the
# populations times the diagonal K elements of both modes, g is
# 2 |rho14| (or 2 |rho23|) times the K elements next to the diagonal, and
# every K element is e^{-2 r^2} times a polynomial (`_radial_coeffs`).  The
# two phase angles integrate to 2 pi A(f, g) (`_angular_abs`), which leaves
# a radial integral over [0, L]^2.  A(f, g) is analytic except on the
# curves |g| = |f|, where it goes as (|g| - |f|)^{3/2} on one side; the
# Gaussians cancel there, so at a fixed ra the curves cross rb at roots of
# polynomials; f is even in rb and g odd, so the roots of f - g are those of
# f + g negated, and one companion solve per outer node finds both curves
# (`_XState._kinks`).  Gauss-Legendre panels end on those roots and map their
# nodes quadratically towards them, which makes the half-integer powers
# analytic.  The inner integral, as a function of ra, is singular only
# where roots of one polynomial meet (the real-root count changes there,
# which the outer nodes show) and where f = 0 meets g = 0; the outer
# panels end there too.

# Highest Fock index the reduced path takes.  The companion-matrix roots
# of L_n(4 r^2) and r L_n^1(4 r^2) are good to 1e-10 up to n = 16 and to
# only 1e-8 at n = 20; higher windows take `_polar_volumes`.
_REDUCED_MAX_INDEX = 16

# A change in the real-root count between two outer nodes is placed by
# _ROUNDS rounds that each cut its bracket into _SPLIT parts, to about
# 5e-7 of the node spacing.
_SPLIT, _ROUNDS = 8, 7


def _reduced(stack, window):
    """Per state of a (T, 4, 4) stack, whether the reduced path takes it:
    an X state with at most one corner pair set (`states.x_corners`) that
    meets the reduced quadrature's own conditions, a window up to
    _REDUCED_MAX_INDEX, finite entries and exact Hermiticity."""
    outside, corners = x_corners(stack)
    return (~outside & ~corners.all(axis=-1) & np.isfinite(stack).all(axis=(-2, -1))
            & (stack == stack.conj().swapaxes(-1, -2)).all(axis=(-2, -1))
            & (max(window.n1, window.m1) + 1 <= _REDUCED_MAX_INDEX))


def _radial_coeffs(m, d):
    """Coefficients c, highest power first, with displaced_parity(m, m + d, r)
    = r^d e^{-2 r^2} sum_i c_i r^{2i} at real r >= 0: the Laguerre closed
    form (-1)^{m+d} sqrt(m!/(m+d)!) (-2r)^d L_m^d(4 r^2)."""
    pre = ((-1.0) ** (m + d) * math.sqrt(math.factorial(m) / math.factorial(m + d))
           * (-2.0) ** d)
    return np.array([pre * (-1.0) ** i * math.comb(m + d, m - i) * 4.0**i / math.factorial(i)
                     for i in range(m, -1, -1)])


class _Mode:
    """K[n, n], K[n+1, n+1] and K[n, n+1] of one mode at real radii, for
    window index n."""

    def __init__(self, index):
        self.index = index
        coeffs = (_radial_coeffs(index, 0), _radial_coeffs(index + 1, 0),
                  _radial_coeffs(index, 1))
        # Their polynomials in x = r^2 (the last one divided by r), padded to
        # one length, and in r, for roots.
        self.xpoly = np.zeros((3, index + 2))
        self.rpoly = np.zeros((3, 2 * index + 3))
        for xrow, rrow, c, d in zip(self.xpoly, self.rpoly, coeffs, (0, 0, 1)):
            xrow[len(xrow) - len(c):] = c
            rrow[len(rrow) - 1 - d - 2 * np.arange(len(c) - 1, -1, -1)] = c

    def _terms(self, r):
        """The three elements at r without their e^{-2 r^2}, from the
        Laguerre recurrence as in `displaced_parity` (the first is a scalar
        at index 0).  L_n^0 is the step before L_{n+1}^0 in one recurrence."""
        n, x = self.index, 4.0 * r * r
        ln, ln1 = _laguerre_last_two(n + 1, 0, x)
        return ((-1.0) ** n * ln,
                (-1.0) ** (n + 1) * ln1,
                (-1.0) ** (n + 1) / math.sqrt(n + 1) * (-2.0 * r) * laguerre_assoc(n, 1, x))

    def polys(self, r):
        """`_terms` stacked: (3,) + r.shape."""
        return np.stack(np.broadcast_arrays(*self._terms(r)))

    def elements(self, r):
        """The three elements at r, each of r's shape, in a tuple."""
        e = np.exp(-2.0 * r * r)
        return tuple(t * e for t in self._terms(r))

    def values(self, r):
        """`elements` stacked: (3,) + r.shape."""
        return np.stack(self.elements(r))


# A root pair that is double to within rounding comes out of the companion
# matrix as real or complex by chance; counting |Im| up to this as real
# makes the count, and so the placing of outer edges, stable.
_IMAG_ROOT = 1e-7


def _roots(polys):
    """Complex roots, (N, degree), of each row of polys (highest power
    first).  A leading coefficient below 1e-14 of its row's largest drops
    out and its root is returned as +inf, a real root far away."""
    n, deg = polys.shape[0], polys.shape[1] - 1
    out = np.full((n, max(deg, 0)), np.inf, dtype=complex)
    if deg < 1:
        return out
    scale = np.max(np.abs(polys), axis=1)
    lead = np.abs(polys[:, 0]) > 1e-14 * scale
    if lead.any():
        c = polys[lead]
        comp = np.zeros((len(c), deg, deg))
        comp[:, 0, :] = -c[:, 1:] / c[:, :1]
        comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        out[lead] = np.linalg.eigvals(comp)
    rest = ~lead & (scale > 0)
    if rest.any():
        out[rest, 1:] = _roots(polys[rest, 1:])
    return out


def _is_real(z):
    return np.abs(z.imag) <= _IMAG_ROOT * np.maximum(1.0, np.abs(z))


def _radii(z, extent):
    """sqrt of the real roots z = r^2 with 0 < r < extent, extent elsewhere."""
    inside = _is_real(z) & (z.real > 0.0) & (z.real < extent**2)
    return np.sqrt(np.where(inside, z.real, extent**2))


def _angular_abs(f, g):
    """A(f, g), the integral of |f + g cos psi| over psi in [0, 2 pi):
    2 pi |f| where |g| <= |f|, else 4 f psi0 + 4 |g| sin psi0 - 2 pi f with
    psi0 = arccos(-f / |g|)."""
    f, g = np.asarray(f, dtype=float), np.abs(g)
    out = 2.0 * math.pi * np.abs(f)
    inside = g > np.abs(f)
    fi, gi = f[inside], g[inside]
    psi0 = np.arccos(-fi / gi)
    out[inside] = 4.0 * fi * psi0 + 4.0 * gi * np.sin(psi0) - 2.0 * math.pi * fi
    return out


def _gauss_legendre(q):
    """q-point Gauss-Legendre nodes and weights on [-1, 1]: Golub-Welsch
    nodes, polished by Newton steps on the Legendre recurrence."""
    k = np.arange(1.0, q)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for _ in range(3):
        p0, p1 = np.ones(q), x
        for n in range(2, q + 1):
            p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
        dp = q * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


@functools.cache
def _panel_rules(q):
    """(4, 2, q) nodes and weights on [0, 1] of the q-point rule mapped
    towards neither end, the left, the right or both (index left + 2 right):
    u, u^2, 1 - (1 - u)^2 and 3u^2 - 2u^3, each quadratic at a mapped end.
    Read-only, as every caller shares it."""
    x, w = _gauss_legendre(q)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    rules = np.array([
        (u, wu),
        (u * u, 2.0 * u * wu),
        (1.0 - (1.0 - u) ** 2, 2.0 * (1.0 - u) * wu),
        (u * u * (3.0 - 2.0 * u), 6.0 * u * (1.0 - u) * wu),
    ])
    rules.flags.writeable = False
    return rules


def _panel_nodes(edges, kinks, q):
    """Nodes and weights, (..., panels * q), of q points on each panel
    between consecutive edges (..., P + 1), mapped towards kink edges."""
    rules = _panel_rules(q)
    kind = kinks[..., :-1] + 2 * kinks[..., 1:]
    lo, width = edges[..., :-1, None], np.diff(edges, axis=-1)[..., None]
    nodes = lo + width * rules[kind, 0]
    weights = width * rules[kind, 1]
    shape = edges.shape[:-1] + (-1,)
    return nodes.reshape(shape), weights.reshape(shape)


def _merge_edges(fixed, kinks, hi):
    """Rows of sorted edges: the fixed edges plus each row's kink roots
    (padding hi), with a kink flag per edge; trailing columns that hold
    padding in every row are dropped."""
    fixed = np.broadcast_to(fixed, (len(kinks), len(fixed)))
    edges = np.concatenate([fixed, kinks], axis=1)
    flags = np.concatenate([np.zeros(fixed.shape, bool), kinks < hi], axis=1)
    order = np.argsort(edges, axis=1, kind="stable")
    edges = np.take_along_axis(edges, order, axis=1)
    flags = np.take_along_axis(flags, order, axis=1)
    used = fixed.shape[1] + int(np.max(np.sum(kinks < hi, axis=1), initial=0))
    return edges[:, :used], flags[:, :used]


# Outer panels wider than this are cut (a kink end maps its panel's nodes
# towards it, which thins them elsewhere), and so are the radial panels of
# `_polar_volumes`; at most _MAX_CRITICAL outer edges come from the roots;
# _CHUNK outer nodes share one set of inner edges, and their inner nodes
# are evaluated in blocks of rows of about _ELEMENTS nodes (at least one
# row), which bounds the working set.  A block's rows are summed one by one
# with `np.sum`, so the block size moves no bit (and `_polar_volumes` calls
# no BLAS routine that a thread count could reorder).
_OUTER_WIDTH = 3.0
_MAX_CRITICAL = 1024
_CHUNK = 128
_ELEMENTS = 8192


def _split_wide(edges, flags, width):
    """Cut each panel wider than `width` into equal parts (new edges are no kinks)."""
    parts = np.maximum(1, np.ceil(np.diff(edges) / width)).astype(int)
    if np.all(parts == 1):
        return edges, flags
    new_edges, new_flags = [edges[:1]], [flags[:1]]
    for lo, hi, n, flag in zip(edges[:-1], edges[1:], parts, flags[1:]):
        new_edges.append(lo + (hi - lo) * np.arange(1, n + 1) / n)
        new_flags.append(np.append(np.zeros(n - 1, bool), flag))
    return np.concatenate(new_edges), np.concatenate(new_flags)


class _XState:
    """Radial data of one X state on the disk of radius `extent` per mode."""

    def __init__(self, rho, extent, window):
        self.extent = extent
        self.a, self.b = _Mode(window.n1), _Mode(window.m1)
        self.pop = np.real(np.diag(rho)).reshape(2, 2)  # [i, j]: |n1+i, m1+j>
        self.amp = 2.0 * max(abs(rho[0, 3]), abs(rho[1, 2]))  # the other is 0
        # Inner edges: 0, the zeros of K_B[m, m+1] (g changes sign there)
        # and the extent.  Outer edges: the same for mode A, and the radii
        # where the leading coefficient of f in rb vanishes, so that a root
        # escapes to infinity; near them the roots' complex continuation
        # meets the growing side of e^{-2 rb^2}.
        self.inner = self._edges(self.b.xpoly[2])
        self.outer = self._edges(self.a.xpoly[2], self.pop[:, 1] @ self.a.xpoly[:2])
        self.critical = np.empty(0)
        self._add_critical(self._vertices())

    def _edges(self, *xpolys):
        """0, the extent and the radii in between where one of the
        polynomials in x = r^2 vanishes."""
        zeros = _radii(_roots(np.array(xpolys)), self.extent)
        return np.unique(np.concatenate([[0.0, self.extent], zeros.ravel()]))

    def _kinks(self, ra):
        """At each ra, the rb in (0, extent) where f = g or f = -g, as an
        (N, 2 degree) array padded with the extent, and the number of real
        roots (at any rb) behind them, which changes only where two roots
        of one of the two polynomials meet.  f is even in rb and g odd
        (`_Mode.rpoly` holds exact zeros at the other powers), so f - g is
        f + g with its odd coefficients negated, exactly: the roots of f + g,
        negated, are those of f - g, and one companion solve per outer node
        finds both curves (an escape root +inf becomes -inf, which is as
        real and pads to the extent as well)."""
        a = self.a.polys(ra)
        c = self.pop.T @ a[:2]
        f = c.T @ self.b.rpoly[:2]
        g = np.outer(self.amp * a[2], self.b.rpoly[2])
        # With g = 0 both curves are f = 0.
        z = _roots(f + g if self.amp else f)
        if self.amp:
            z = np.concatenate([z, -z])
        real = _is_real(z)
        rb = np.where(real & (z.real > 0.0) & (z.real < self.extent), z.real, self.extent)
        parts = len(z) // len(ra)
        return (rb.reshape(parts, len(ra), -1).swapaxes(0, 1).reshape(len(ra), -1),
                real.reshape(parts, len(ra), -1).sum(axis=(0, 2)))

    def _vertices(self):
        """The ra where f = 0 on a fixed inner edge below the extent, where
        g = 0 too: there the curves f = g and f = -g cross, and a root can
        pass from one to the other through rb = 0 without a count change."""
        w = self.pop @ self.b.polys(self.inner[:-1])[:2]
        radii = _radii(_roots(w.T @ self.a.xpoly[:2]), self.extent)
        return radii[radii < self.extent]

    def _events(self, ra, count, inside):
        """The radii where the root count changes between ra[k] and
        ra[k + 1], for each k with inside[k], placed by multisection."""
        change = inside & (count[1:] != count[:-1])
        lo, hi, ref = ra[:-1][change], ra[1:][change], count[:-1][change, None]
        rows = np.arange(len(lo))
        for _ in range(_ROUNDS if len(lo) else 0):
            grid = lo[:, None] + (hi - lo)[:, None] * (np.arange(_SPLIT + 1) / _SPLIT)
            differs = self._kinks(grid[:, 1:-1].ravel())[1].reshape(len(lo), -1) != ref
            first = np.where(differs.any(axis=1), np.argmax(differs, axis=1), _SPLIT - 1)
            lo, hi = grid[rows, first], grid[rows, first + 1]
        return 0.5 * (lo + hi)

    def _add_critical(self, found):
        """Add the found radii that are not within 1e-6 L of an outer edge
        already (placing an edge that close changes the volume by far less
        than rounding); True if any was added."""
        added = False
        for r in np.sort(found)[:max(0, _MAX_CRITICAL - len(self.critical))]:
            if np.min(np.abs(self.critical - r), initial=np.inf) > 1e-6 * self.extent:
                self.critical = np.sort(np.append(self.critical, r))
                added = True
        return added

    def _outer_nodes(self, q):
        edges, flags = _merge_edges(self.outer, self.critical[None], np.inf)
        edges, flags = _split_wide(edges[0], flags[0], _OUTER_WIDTH)
        ra, wa = _panel_nodes(edges, flags, q)
        return (ra, wa) + self._kinks(ra)

    def volume(self, q):
        """Negativity volume with q Gauss-Legendre nodes on every panel.  A
        change in the root count between two outer nodes of one panel adds
        an outer edge there, and the nodes are laid out again, up to three
        times; edges found stay for later calls, so a finer rule called
        first places them for a coarser one."""
        ra, wa, kinks, count = self._outer_nodes(q)
        for _ in range(3):
            if not self._add_critical(self._events(ra, count, np.arange(1, len(ra)) % q != 0)):
                break
            ra, wa, kinks, count = self._outer_nodes(q)
        a = (4.0 / math.pi**2) * self.a.values(ra)
        c, amp = self.pop.T @ a[:2], self.amp * a[2]
        total = 0.0
        for start in range(0, len(ra), _CHUNK):
            chunk = slice(start, start + _CHUNK)
            edges, flags = _merge_edges(self.inner, kinks[chunk], self.extent)
            c0, c1, g_amp = c[0, chunk, None], c[1, chunk, None], amp[chunk, None]
            inner = np.empty(len(edges))
            step = max(1, _ELEMENTS // ((edges.shape[1] - 1) * q))
            for s in range(0, len(edges), step):
                rows = slice(s, s + step)
                rb, wb = _panel_nodes(edges[rows], flags[rows], q)
                b0, b1, b2 = self.b.elements(rb)
                f = c0[rows] * b0 + c1[rows] * b1
                inner[rows] = np.sum(wb * rb * _angular_abs(f, g_amp[rows] * b2), axis=1)
            total += float(np.dot(wa[chunk] * ra[chunk], inner))
        return 0.5 * (2.0 * math.pi * total - 1.0)


def _polar_volumes(stack, extent, window, q):
    """Volumes of a (T, 4, 4) stack of any states on the disk of radius
    `extent` per mode.  At alpha = ra e^{i phi_a} and beta = rb e^{i phi_b},
    W = f + |c| cos(phi_b - chi) with f and c from the `_left` factor and
    the real mode-B elements at rb, so phi_b integrates in closed form
    (`_angular_abs`).  ra and rb take q Gauss-Legendre nodes on each radial
    panel of width at most _OUTER_WIDTH, and phi_a the periodic trapezoid
    rule with q nodes.  The K tables are built once, and each state's
    `_left` factor is formed in turn.  If a table is not finite, every
    volume is NaN, and so is the volume of a state whose factor is not."""
    r, wr = _panel_nodes(*_split_wide(np.array([0.0, extent]), np.zeros(2, bool),
                                      _OUTER_WIDTH), q)
    wr = wr * r
    ka = _k_tables((r[:, None] * np.exp(2j * math.pi * np.arange(q) / q)).ravel(),
                   window.n1)  # ra major
    kb = _k_tables(r, window.m1).real.reshape(-1, 4)
    if not (np.isfinite(ka).all() and np.isfinite(kb).all()):
        return np.full(len(stack), np.nan)
    step = max(1, _ELEMENTS // len(r))
    out = np.empty(len(stack))
    for k, one in enumerate(stack):
        left = _left(one, ka)
        if not np.isfinite(left).all():  # `_angular_abs` reads a NaN g as 0
            out[k] = np.nan
            continue
        residue = max(np.max(np.abs(left[:, [0, 3]].imag)),
                      np.max(np.abs(left[:, 2] - np.conj(left[:, 1]))))
        if residue > IMAG_TOL:
            raise ConsistencyError("Wigner function has imaginary residue %g" % residue)
        inner = np.empty(len(left))
        for s in range(0, len(left), step):
            rows = left[s:s + step, :, None]
            f = rows[:, 0].real * kb[:, 0] + rows[:, 3].real * kb[:, 3]
            inner[s:s + step] = np.sum(
                wr * _angular_abs(f, 2.0 * np.abs(rows[:, 1]) * kb[:, 1]), axis=1)
        total = np.sum(wr * np.mean(inner.reshape(len(r), q), axis=1))
        out[k] = 0.5 * (2.0 * math.pi * total - 1.0)
    return out


def volume_pair(rho, points, window=FockWindow()):
    """Negativity volume V = (1/2)(integral of |W| - 1), unclamped, at two
    resolutions whose gap the CLI gates (`cli.VOLUME_GATE`).  A stack of
    states gets two arrays, each value that of its state on its own.

    |W| is integrated over the disk of radius L = default_extent(window)
    per mode, with `points` Gauss-Legendre nodes on every radial panel.
    Exactly Hermitian X states (coherence only in rho14 or rho23) on
    windows up to _REDUCED_MAX_INDEX integrate both phase angles in closed
    form on panels that end on the kinks of |W| (`_XState`); every other
    state integrates phi_b in closed form and phi_a with `points` nodes
    (`_polar_volumes`).  The coarse twin uses half the points (rounded up
    to even, at least 8) in the same rule, so only 10 or more points get a
    coarser twin.
    """
    _check_points(points)
    extent = default_extent(window)
    rho = np.asarray(rho, dtype=complex)
    stack = rho.reshape(-1, 4, 4)
    orders = (points, max(8, 2 * math.ceil(points / 4)))  # half, rounded up to even
    fine, coarse = np.empty(len(stack)), np.empty(len(stack))
    reduced = _reduced(stack, window)
    for k in np.flatnonzero(reduced):
        x = _XState(stack[k], extent, window)
        fine[k], coarse[k] = x.volume(orders[0]), x.volume(orders[1])
    general = np.flatnonzero(~reduced)
    if len(general):
        for out, q in zip((fine, coarse), orders):
            out[general] = _polar_volumes(stack[general], extent, window, q)
    return _value(fine.reshape(rho.shape[:-2])), _value(coarse.reshape(rho.shape[:-2]))
