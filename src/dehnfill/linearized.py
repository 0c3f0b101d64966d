"""The gauged linearized Einstein operator on torus-invariant deformations.

On a warped product V**-1 dr^2 + V dtheta^2 + r^2 g_T the operator acts
blockwise on frame components of a symmetric 2-tensor h.  Every block
shares the radial part

    A = -V d^2/dr^2 - (V' + (n-2)V/r) d/dr

and carries a zeroth-order piece built from V, r and the sectional
curvatures.  The diagonal blocks (11, 22, jj) couple through a symmetric
matrix whose rows sum to -2 ric_aa and whose torus rows are equal, so it
is its six distinct entries; off-diagonal blocks are scalar.  Twelve
numbers per radius (COEFFICIENTS) give the operator.  A deformation is
stored as one (npts, K) array, the diagonal sector's n columns first and
then one column per off-diagonal component, and the operator is one
derivative pass over all K columns plus the coupling on the first n and
one coefficient per other column.

The derivatives are taken in x = log r, where A has O(1) coefficients,
by Newton's kernel (solver._derivatives on the cached 9-node template),
so the operator and the solver share one discretization and no stencil
is built per application.  A deformation's grid must therefore be
positive and uniform in log r (numutil.loggrid).

Applying the operator to the metric itself (h_ab = delta_ab in the
orthonormal frame) therefore returns -2 ric_aa on the diagonal for any
profile, which is 2(n-1) delta_ab when the background is Einstein.  That
identity is the structural check used throughout the tests; the kernel
takes its differences first, so the derivatives of a constant are
exactly zero and the identity holds to rounding on any grid.

The cusp model (V = r^2, all curvatures -1) reduces every block to an
Euler operator with constant couplings; its indicial roots drive the
oscillation estimates.  The operator is a function of the profile:
operator_coefficients(profile, r) is its table and apply_L(profile, h)
its action.  Every coefficient is assembled as its Euler constant, from
the one table that indicial_roots reads too, plus a mass part built from
the curvatures' own mass terms K + 1, so the black hole's mass part is
the operator difference L_BH - L_C itself, of size O(r^(1-n)), with no
O(1) terms cancelling in it.  compare_operators applies exactly that to
a sum of log-radial bumps in every block, from the bumps themselves: one
column b and its derivatives, no deformation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import (
    GridTooCoarse,
    NonFiniteField,
    OutOfDomain,
    SingularAtCore,
    TooFewSamples,
    UnknownBlock,
)
from .numutil import fit_loglog, loggrid
from .profiles import BlackHoleProfile, _check_dimension
from .solver import _derivatives, _unit_stencils

__all__ = [
    "InvariantDeformation",
    "operator_coefficients",
    "apply_L",
    "indicial_roots",
    "metric_deformation",
    "bump_deformation",
    "OperatorComparison",
    "compare_operators",
]

BLOCK_LABELS = ("11", "22", "12", "1j", "2j", "jj", "jk")
# the rows of operator_coefficients: the radial part, the scalar blocks'
# coefficients, then the six distinct entries of the diagonal coupling
COEFFICIENTS = ("c2", "c1", "c12", "c1j", "c2j", "cjk",
                "M00", "M01", "M0j", "M11", "M1j", "Mjj")


def _columns(n):
    """Where each block sits in InvariantDeformation.values at dimension n:
    an index for the one-column blocks, a slice for jj and jk."""
    npair = (n - 2) * (n - 3) // 2
    return {"11": 0, "22": 1, "jj": slice(2, n), "12": n, "1j": n + 1,
            "2j": n + 2, "jk": slice(n + 3, n + 3 + npair)}


def _blocks(values, n):
    """{label: view of the block's columns in the packed values}."""
    return {label: values[:, col] for label, col in _columns(n).items()}


def _checked_grid(grid):
    """A read-only float copy of a deformation grid, so that its checks
    hold for the copy's lifetime, and x = log r on it: at least 2 finite,
    strictly increasing, positive points, uniform in log r."""
    grid = np.array(grid, dtype=float)
    grid.setflags(write=False)
    if grid.ndim != 1 or grid.shape[0] < 2:
        raise GridTooCoarse("deformation grid needs at least 2 points")
    if not np.isfinite(grid).all():
        raise NonFiniteField("deformation grid contains nan or inf")
    if (np.diff(grid) <= 0).any():
        raise GridTooCoarse("deformation grid must be strictly increasing")
    if grid[0] <= 0:
        raise OutOfDomain(f"deformation grid must be positive, got r = {grid[0]}")
    # the operator's template needs a grid uniform in x = log r; the
    # rounding of log and of the power that builds such a grid (as
    # numutil.loggrid does) moves x by a few ulps of |x_0| + |x_last|, up
    # to 2.4 eps (1 + |x_0| + |x_last|) measured on 6000 random
    # loggrid grids from 1e-300 to 1e300
    x = np.log(grid)
    dev = np.abs(x - np.linspace(x[0], x[-1], x.size)).max()
    if dev > 8.0 * np.finfo(float).eps * (1.0 + abs(x[0]) + abs(x[-1])):
        raise GridTooCoarse(
            f"deformation grid must be uniform in log r: a node is "
            f"{dev:.3g} off the uniform grid from {grid[0]:.6g} to "
            f"{grid[-1]:.6g}")
    return grid, x


@dataclass(frozen=True, eq=False)
class InvariantDeformation:
    """Frame components of a torus-invariant symmetric 2-tensor, packed
    once into one (npts, K) array `values` with the columns 11, 22,
    jj_1..jj_{n-2}, 12, 1j, 2j, jk_1..jk_P, P = (n-2)(n-3)/2 torus pairs.
    `components` maps labels to arrays over the grid, with n-2 columns for
    jj, P for jk and one, which may be 1-D, for every other block; absent
    blocks are zero.  Afterwards `components`, `block` and `diag_matrix`
    are views of values."""

    n: int
    grid: np.ndarray
    components: dict
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_dimension(self.n)
        grid, _ = _checked_grid(self.grid)
        npts = grid.shape[0]
        cols = _columns(self.n)
        values = np.zeros((npts, cols["jk"].stop))
        for label, arr in self.components.items():
            if label not in cols:
                raise UnknownBlock(f"unknown block label {label!r}")
            arr = np.asarray(arr, dtype=float)
            view = values[:, cols[label]]
            if arr.shape != view.shape and not (
                    view.size == npts and arr.shape in ((npts,), (npts, 1))):
                raise TooFewSamples(
                    f"block {label} needs shape {view.shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise NonFiniteField(f"block {label} contains nan or inf")
            view[...] = arr.reshape(view.shape)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "components", _blocks(values, self.n))

    def block(self, label):
        """label's columns: (npts,) for a one-column block, else 2-D."""
        if label not in self.components:
            raise UnknownBlock(f"unknown block label {label!r}")
        return self.components[label]

    def diag_matrix(self):
        """(npts, n) view of the diagonal components (11, 22, jj...)."""
        return self.values[:, : self.n]


def metric_deformation(n, grid):
    """h = g itself: unit diagonal frame components on the grid."""
    h = InvariantDeformation(n=n, grid=grid, components={})
    h.values[:, :n] = 1.0
    return h


def _euler_constants(n):
    """The cusp's Euler constants (V = r^2, every curvature -1) at
    dimension n, one per row of _x_coefficients, so with the radial part
    in x = log r: a2 = -1, a1 = 1 - n, c12 = M00 = 2(n-1), c1j = n, 2 for
    M11, M1j and Mjj and 0 for c2j, cjk, M01 and M0j."""
    return np.array([-1.0, 1 - n,                   # a2, a1
                     2 * (n - 1), n, 0.0, 0.0,      # c12, c1j, c2j, cjk
                     2 * (n - 1), 0.0, 0.0,         # M00, M01, M0j
                     2.0, 2.0, 2.0])                # M11, M1j, Mjj


def operator_coefficients(profile, r):
    """The (12, npts) table of COEFFICIENTS of the operator at the profile,
    at the radii r, from one profile evaluation.

    A u = c2 u'' + c1 u' is the shared radial part; c12, c1j, c2j and
    cjk are the scalar blocks' zeroth-order coefficients.  The rest
    are the six distinct entries of the symmetric (11, 22, jj)
    coupling M, whose torus rows are equal (M0j, M1j, Mjj = Mjk) and
    whose row sums are -2 ric_aa for every profile (the gauge identity
    L(g) = -2 ric on constant deformations).  Each entry is its Euler
    constant (_euler_constants; c2 = -r^2 and c1 = -n r) plus the mass
    part (_mass_part), which is zero on the cusp V = r^2.  The radial
    rows are _x_coefficients' taken to r: c2 = a2 r^2 and
    c1 = (a1 + a2) r.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    C = _x_coefficients(profile, r)
    C[1] += C[0]
    C[1] *= r
    C[0] *= r**2
    return C


def _x_coefficients(profile, r):
    """coefficients on a 1-D array r with the radial part in x = log r,
    a2 d^2/dx^2 + a1 d/dx, in rows 0 and 1."""
    C = _mass_part(profile, r)
    # only the nonzero constants are added, so a mass part's -0.0 stays
    E = _euler_constants(profile.n)
    rows = np.flatnonzero(E)
    C[rows] += E[rows, None]
    return C


def _mass_part(profile, r):
    """_x_coefficients minus the Euler constants, on a 1-D array r.

    Built from the curvature mass terms k = K + 1 of frame_data, never
    from V - r^2, so every entry keeps its digits when the mass term
    u = 2 mu r^{1-n} is far below 1.  With e = V/r^2 = 1 - kperp and
    s = 2(kperp - k1perp):

        a2 = kperp,   a1 = (n-1) kperp - s,
        c12 = 2 k12 - 2n kperp + 4s + s^2/e,   c1j = -n kperp + s^2/(4e),
        c2j = s^2/(4e),   cjk = 2s + s^2/(2e),
        M00 = 2(1-n) kperp + 2s + s^2/(2e),
        M01 = 2(kperp - k12) - 2s - s^2/(2e),
        M11 = -2 kperp + 2s + s^2/(2e),   M0j = s,   M1j = s - 2 kperp,
        Mjj = -2 kperp.
    """
    n = profile.n
    V, _, k12, k1p, kp, _, _ = profile.frame_data(r)
    if (V <= 0).any():
        raise SingularAtCore(
            "profile vanishes on the grid; the zeroth-order terms divide by V"
        )
    s = 2.0 * (kp - k1p)
    t = s * s / (V / r**2)
    jk = 2.0 * s + 0.5 * t
    return np.array([
        kp, (n - 1) * kp - s,                               # a2, a1
        2.0 * k12 - 2.0 * n * kp + 4.0 * s + t,             # c12
        0.25 * t - n * kp, 0.25 * t, jk,                    # c1j, c2j, cjk
        2.0 * (s - (n - 1) * kp) + 0.5 * t,                 # M00
        2.0 * (kp - k12) - jk, s,                           # M01, M0j
        jk - 2.0 * kp, s - 2.0 * kp, -2.0 * kp,             # M11, M1j, Mjj
    ])


def _radial(profile, grid, coefficients):
    """The checks of an application of the operator at the profile on a
    checked grid, all made before any derivative is taken:
    coefficients(profile, grid) (_x_coefficients or _mass_part, which
    check the profile's domain), the core margin and at least 9 points.
    Returns that table C and its radial rows a2, a1 scaled by the grid's
    step hx in x = log r, as a2/hx^2 and a1/hx, ready for the unscaled
    sums of Newton's kernel, `solver._derivatives`.
    """
    C = coefficients(profile, grid)
    r_plus = profile.r_plus
    if r_plus is not None:
        margin = max(0.01 * r_plus, 10.0 * (grid[1] - grid[0]))
        if grid[0] < r_plus + margin:
            raise SingularAtCore(
                f"grid must start above r_plus + {margin:.3g} = "
                f"{r_plus + margin:.6g}; got {grid[0]:.6g}")
    npts = grid.shape[0]
    if npts < 9:
        raise GridTooCoarse("need at least 9 grid points to apply the operator")
    hx = (math.log(grid[-1]) - math.log(grid[0])) / (npts - 1)
    return C, C[0] / hx**2, C[1] / hx


def apply_L(profile, h):
    """Apply the operator at the profile to a deformation on its grid;
    returns a deformation with every block populated.  Both derivatives of
    every column come from one kernel call; the zeroth-order term couples
    the diagonal sector through S, the sum of the jj columns."""
    n, values = h.n, h.values
    if n != profile.n:
        raise UnknownBlock(f"dimension mismatch: operator {profile.n}, h {n}")
    C, a2, a1 = _radial(profile, h.grid, _x_coefficients)
    m00, m01, m0j, m11, m1j, mjj = C[6:]
    h11, h22, S = values[:, 0], values[:, 1], values[:, 2:n].sum(axis=1)
    zeroth = np.empty_like(values)
    zeroth[:, 0] = m00 * h11 + m01 * h22 + m0j * S
    zeroth[:, 1] = m01 * h11 + m11 * h22 + m1j * S
    zeroth[:, 2:n] = (m0j * h11 + m1j * h22 + mjj * S)[:, None]
    # the other columns, 12, 1j, 2j and one jk per torus pair, take the
    # rows c12, c1j, c2j and cjk
    npair = values.shape[1] - n - 3
    np.multiply(C[[2, 3, 4] + [5] * npair].T, values[:, n:], out=zeroth[:, n:])
    d1, d2 = _derivatives(values, _unit_stencils(values.shape[0]))
    # a2 d2 + a1 d1 + zeroth, summed left to right in place
    Lh = a2[:, None] * d2
    Lh += a1[:, None] * d1
    Lh += zeroth
    return InvariantDeformation(n=n, grid=h.grid, components=_blocks(Lh, n))


# the Euler constant of each scalar block's indicial polynomial; 11 is the
# diagonal sector's decoupled row, M00
_SCALAR_CONSTANTS = {"11": "M00", "12": "c12", "1j": "c1j", "2j": "c2j",
                     "jk": "cjk"}


def indicial_roots(block, n):
    """Indicial exponents of the cusp-model block.

    Scalar blocks give a pair (larger, smaller); the coupled diagonal
    sector (label "diag") gives all 2n eigen-exponents sorted
    descending.  Euler substitution r**s turns A into -(s^2 + (n-1)s),
    so each zeroth-order constant c contributes the polynomial
    s^2 + (n-1)s - c.
    """
    _check_dimension(n)

    def roots_for(c):
        disc = (n - 1) ** 2 + 4.0 * c
        sq = math.sqrt(disc)
        return (0.5 * (-(n - 1) + sq), 0.5 * (-(n - 1) - sq))

    if block in _SCALAR_CONSTANTS:
        E = dict(zip(COEFFICIENTS, _euler_constants(n).tolist()))
        return roots_for(E[_SCALAR_CONSTANTS[block]])
    if block == "diag":
        # the Euler coupling's eigenvalues are 2(n-1) twice and 0 n-2 times
        exps = 2 * roots_for(2.0 * (n - 1)) + (n - 2) * roots_for(0.0)
        return tuple(sorted(exps, reverse=True))
    raise UnknownBlock(f"unknown block label {block!r}")


def _unit_bump(x, center, width):
    """C-infinity bump in x, support (center-width, center+width).

    t is clipped into [1e-300, 1 - 2**-53] instead of masked: at either
    clipped end the exponent is below -9e15, so exp gives exactly 0 there,
    and the clip moves no t at which the bump is nonzero (1 - 2**-53 is
    the largest double below 1)."""
    t = (x - (center - width)) / (2.0 * width)
    np.clip(t, 1e-300, 1.0 - 2.0**-53, out=t)
    return np.exp(4.0 - 1.0 / t - 1.0 / (1.0 - t))


@cache
def _unit_bump_maxima():
    """max |b|, |b'|, |b''| of the unit-width bump, from a 4001-point
    reference and np.gradient; built on first use."""
    xf = np.linspace(-1.0, 1.0, 4001)
    ref = _unit_bump(xf, 0.0, 1.0)
    d1 = np.gradient(ref, xf)
    d2 = np.gradient(d1, xf)
    return np.max(np.abs(ref)), np.max(np.abs(d1)), np.max(np.abs(d2))


def _bump_column(x, centers, width):
    """The sum b of bump_deformation's bumps on x = log r of a checked grid.

    Each center's support [log c - width, log c + width], widened by one
    node on each side against rounding, is one row of a (B, L) gather; one
    _unit_bump call evaluates all rows, which are added in center order, so
    b is bit for bit the sum of the bumps evaluated one by one."""
    # the scale divides by width**2; Python floats, so that an overflow gives
    # inf and an underflow 0, not a warning or an OverflowError
    if not (width > 0 and 0.0 < float(width) * float(width) < math.inf):
        raise OutOfDomain(f"bump width must be positive, with a finite and "
                          f"nonzero square, got {width}")
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    if not (np.all(np.isfinite(centers)) and np.all(centers > 0)):
        raise OutOfDomain(f"bump centers must be finite and positive: {centers}")
    # unit-width reference scale; derivatives of the rescaled bump gain 1/width
    b0, b1, b2 = _unit_bump_maxima()
    scale = max(b0, b1 / width, b2 / width**2)
    lc = np.array([math.log(c) for c in centers.ravel().tolist()])
    # x ascends, so each support is a slice of it
    lo = np.maximum(np.searchsorted(x, lc - width) - 1, 0)
    hi = np.minimum(np.searchsorted(x, lc + width, side="right") + 1, x.size)
    # a row runs on past its slice, clamped to the grid, and is not added there
    cols = np.arange((hi - lo).max(initial=0))
    rows = _unit_bump(x[np.minimum(lo[:, None] + cols, x.size - 1)],
                      lc[:, None], width)
    rows /= scale
    total = np.zeros_like(x)
    for row, a, z in zip(rows, lo.tolist(), hi.tolist()):
        total[a:z] += row[: z - a]
    return total


def bump_deformation(n, grid, centers, width=0.4):
    """Sum of unit-C2 log-radial bumps, one per center, in every block.

    Each bump lives in x = log r with half-width `width` and is scaled
    so that max(|b|, |b'|, |b''|) = 1 with derivatives in x (the frame
    radial direction scales like r d/dr).  Centers should be separated
    by more than 2*width in log r so the sum keeps unit size.
    """
    h = InvariantDeformation(n=n, grid=grid, components={})
    h.values[:] = _bump_column(np.log(h.grid), centers, width)[:, None]
    return h


@dataclass(frozen=True, eq=False)
class OperatorComparison:
    """Pointwise operator difference on a grid with a decay fit."""

    grid: np.ndarray
    diff: np.ndarray
    bin_centers: np.ndarray
    bin_max: np.ndarray
    slope: float
    intercept: float
    residual: float


def compare_operators(n, grid, centers, width=0.4, r_window=None, m=1.0,
                      bins=12):
    """|L_C h - L_BH h| on the grid, h = bump_deformation(n, grid, centers,
    width), with a log-log envelope fit; no deformation is built.

    The difference of the cusp model and the black hole of mass m is the
    black hole's mass part (_mass_part), which keeps its digits however
    far it falls below either operator.  On the bump column b in
    every block it is R b + z b, R the mass part's radial part and z one of
    at most 7 rows (the coupling's three diagonal row sums, c12, c1j, c2j
    and, for n >= 4, cjk): one derivative pass over b, then the pointwise
    maximum over that table.  Its envelope, the maximum over each of `bins`
    log-spaced bins closed at both edges inside r_window, is fitted; for
    bumps translated across the window the slope comes out at -(n-1), and
    all-zero differences give slope nan.  Every check (n and m, the bumps
    and grid as in bump_deformation, a finite positive window lo < hi that
    meets the grid, an integer bins >= 3, the profile's domain and the
    core margin) runs before any derivative is taken.
    """
    profile = BlackHoleProfile(m=m, n=n)
    grid, x = _checked_grid(grid)
    b = _bump_column(x, centers, width)
    lo, hi = (grid[0], grid[-1]) if r_window is None else r_window
    if not (0.0 < lo < hi < math.inf and lo <= grid[-1] and hi >= grid[0]):
        raise OutOfDomain(f"r_window must be finite and positive, with lo < hi,"
                          f" and meet the grid: {r_window}")
    if not (isinstance(bins, numbers.Integral) and bins >= 3):
        raise OutOfDomain(f"bins must be an integer >= 3, got {bins}")
    C, a2, a1 = _radial(profile, grid, _mass_part)
    _, _, c12, c1j, c2j, cjk, m00, m01, m0j, m11, m1j, mjj = C
    d1, d2 = _derivatives(b, _unit_stencils(b.size))
    R = a2 * d2
    R += a1 * d1
    # the diagonal sector's rows sum the coupling over its n - 2 jj columns
    t = n - 2
    rows = [m00 + m01 + t * m0j, m01 + m11 + t * m1j, m0j + m1j + t * mjj,
            c12, c1j, c2j, cjk]
    Lh = np.array(rows if n >= 4 else rows[:6])
    Lh *= b
    Lh += R
    diff = np.abs(Lh, out=Lh).max(axis=0)
    edges = loggrid(lo, hi, bins + 1)
    mids = np.sqrt(edges[:-1] * edges[1:])
    lo_i = np.searchsorted(grid, edges[:-1])
    hi_i = np.searchsorted(grid, edges[1:], side="right")
    bin_max = np.array([diff[i:j].max(initial=0.0) for i, j in zip(lo_i, hi_i)])
    keep = bin_max > 0
    slope, intercept, residual = (fit_loglog(mids[keep], bin_max[keep])
                                  if keep.sum() >= 3 else (math.nan,) * 3)
    return OperatorComparison(grid=grid, diff=diff, bin_centers=mids,
                              bin_max=bin_max, slope=slope,
                              intercept=intercept, residual=residual)
