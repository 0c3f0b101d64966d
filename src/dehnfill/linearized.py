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
stencil pass per derivative over all K columns plus the coupling on the
first n and one coefficient per other column.

Applying the operator to the metric itself (h_ab = delta_ab in the
orthonormal frame) therefore returns -2 ric_aa on the diagonal for any
profile, which is 2(n-1) delta_ab when the background is Einstein.  That
identity is the structural check used throughout the tests.

The cusp model (V = r^2, all curvatures -1) reduces every block to an
Euler operator with constant couplings; its indicial roots drive the
oscillation estimates.  Every coefficient is assembled as its Euler
constant plus a mass part built from the curvatures' own mass terms
K + 1, so the black hole's mass part is the operator difference
L_BH - L_C itself, of size O(r^(1-n)), with no O(1) terms cancelling
in it; compare_operators applies exactly that.
"""

from __future__ import annotations

import math
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
from .numutil import apply_stencil, fit_loglog, stencil_weights
from .profiles import _check_dimension, black_hole_metric, cusp_metric

__all__ = [
    "BLOCK_LABELS",
    "COEFFICIENTS",
    "InvariantDeformation",
    "ODESystemL",
    "assemble_L_blackhole",
    "assemble_L_cusp",
    "apply_L",
    "indicial_roots",
    "metric_deformation",
    "bump_deformation",
    "OperatorComparison",
    "compare_operators",
]

BLOCK_LABELS = ("11", "22", "12", "1j", "2j", "jj", "jk")
# the rows of ODESystemL.coefficients: the radial part, the scalar blocks'
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
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.shape[0] < 2:
            raise GridTooCoarse("deformation grid needs at least 2 points")
        if not np.isfinite(grid).all():
            raise NonFiniteField("deformation grid contains nan or inf")
        if (np.diff(grid) <= 0).any():
            raise GridTooCoarse("deformation grid must be strictly increasing")
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


@dataclass(frozen=True, eq=False)
class ODESystemL:
    """The assembled operator: radial coefficients plus zeroth-order data,
    evaluated on demand as functions of r.  Each coefficient is its
    constant in the cusp's Euler model plus a mass part taken from the
    profile's frame data, which is zero on the cusp V = r^2."""

    n: int
    profile: object

    def coefficients(self, r):
        """The (12, npts) table of COEFFICIENTS at the radii r, from one
        profile evaluation.

        A u = c2 u'' + c1 u' is the shared radial part; c12, c1j, c2j and
        cjk are the scalar blocks' zeroth-order coefficients.  The rest
        are the six distinct entries of the symmetric (11, 22, jj)
        coupling M, whose torus rows are equal (M0j, M1j, Mjj = Mjk) and
        whose row sums are -2 ric_aa for every profile (the gauge identity
        L(g) = -2 ric on constant deformations).  The Euler constants are
        c2 = -r^2, c1 = -n r, c12 = M00 = 2(n-1), c1j = n, 2 for M11, M1j
        and Mjj and 0 for c2j, cjk, M01 and M0j; _mass_part adds the rest.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        n = self.n
        C = self._mass_part(r)
        c2, c1, c12, c1j, _, _, m00 = C[:7]
        c2 -= r**2
        c1 -= n * r
        c12 += 2.0 * (n - 1)
        c1j += n
        m00 += 2.0 * (n - 1)
        C[9:] += 2.0  # M11, M1j, Mjj
        return C

    def _mass_part(self, r):
        """coefficients minus the Euler constants, on a 1-D array r.

        Built from the curvature mass terms k = K + 1 of frame_data, never
        from V - r^2, so every entry keeps its digits when the mass term
        u = 2 mu r^{1-n} is far below 1.  With e = V/r^2 = 1 - kperp and
        s = 2(kperp - k1perp):

            c2 = kperp r^2,   c1 = (n kperp - s) r,
            c12 = 2 k12 - 2n kperp + 4s + s^2/e,   c1j = -n kperp + s^2/(4e),
            c2j = s^2/(4e),   cjk = 2s + s^2/(2e),
            M00 = 2(1-n) kperp + 2s + s^2/(2e),
            M01 = 2(kperp - k12) - 2s - s^2/(2e),
            M11 = -2 kperp + 2s + s^2/(2e),   M0j = s,   M1j = s - 2 kperp,
            Mjj = -2 kperp.
        """
        n = self.n
        V, _, k12, k1p, kp, _, _ = self.profile.frame_data(r, n)
        if (V <= 0).any():
            raise SingularAtCore(
                "profile vanishes on the grid; the zeroth-order terms divide by V"
            )
        r2 = r**2
        s = 2.0 * (kp - k1p)
        t = s * s / (V / r2)
        jk = 2.0 * s + 0.5 * t
        return np.array([
            kp * r2, (n * kp - s) * r,                          # c2, c1
            2.0 * k12 - 2.0 * n * kp + 4.0 * s + t,             # c12
            0.25 * t - n * kp, 0.25 * t, jk,                    # c1j, c2j, cjk
            2.0 * (s - (n - 1) * kp) + 0.5 * t,                 # M00
            2.0 * (kp - k12) - jk, s,                           # M01, M0j
            jk - 2.0 * kp, s - 2.0 * kp, -2.0 * kp,             # M11, M1j, Mjj
        ])


def assemble_L_blackhole(metric):
    """Operator assembly from a profile-backed metric.

    Accepts any FillingMetric; on the cusp profile V = r^2 the
    coefficients reduce to the exact Euler model (assemble_L_cusp).
    """
    return ODESystemL(n=metric.n, profile=metric.profile)


def assemble_L_cusp(n):
    """The cusp model A = -r^2 d^2 - n r d with constant couplings: the
    shared assembly on the cusp metric V = r^2."""
    return assemble_L_blackhole(cusp_metric(n))


def _apply(sys, h, coefficients):
    """The operator with coefficients(r) (sys.coefficients or
    sys._mass_part, which check the profile's domain) on h, packed like
    h.values.  The checks and the zeroth-order term come first, the
    coupling through S, the sum of the jj columns; then the 6-point d2 and
    5-point d1 stencils, which keep the interior's 4th order on the
    one-sided end rows, are each applied once to every column.
    """
    n = h.n
    if n != sys.n:
        raise UnknownBlock(f"dimension mismatch: operator {sys.n}, h {n}")
    grid, values = h.grid, h.values
    C = coefficients(grid)
    c2, c1, _, _, _, _, m00, m01, m0j, m11, m1j, mjj = C
    r_plus = sys.profile.r_plus
    if r_plus is not None:
        margin = max(0.01 * r_plus, 10.0 * (grid[1] - grid[0]))
        if grid[0] < r_plus + margin:
            raise SingularAtCore(
                f"grid must start above r_plus + {margin:.3g} = "
                f"{r_plus + margin:.6g}; got {grid[0]:.6g}")
    h11, h22, S = values[:, 0], values[:, 1], values[:, 2:n].sum(axis=1)
    zeroth = np.empty_like(values)
    zeroth[:, 0] = m00 * h11 + m01 * h22 + m0j * S
    zeroth[:, 1] = m01 * h11 + m11 * h22 + m1j * S
    zeroth[:, 2:n] = (m0j * h11 + m1j * h22 + mjj * S)[:, None]
    # the other columns, 12, 1j, 2j and one jk per torus pair, take the
    # rows c12, c1j, c2j and cjk
    npair = values.shape[1] - n - 3
    np.multiply(C[[2, 3, 4] + [5] * npair].T, values[:, n:], out=zeroth[:, n:])
    if grid.shape[0] < 9:
        raise GridTooCoarse("need at least 9 grid points to apply the operator")
    # c2 d2 + c1 d1 + zeroth, summed left to right in place
    Lh = c2[:, None] * apply_stencil(stencil_weights(grid, 2, 6), values)
    Lh += c1[:, None] * apply_stencil(stencil_weights(grid, 1, 5), values)
    Lh += zeroth
    return Lh


def apply_L(sys, h):
    """Apply the assembled operator to a deformation on its grid; returns
    a deformation with every block populated."""
    Lh = _apply(sys, h, sys.coefficients)
    return InvariantDeformation(n=h.n, grid=h.grid,
                                components=_blocks(Lh, h.n))


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

    if block in ("11", "12"):
        return roots_for(2.0 * (n - 1))
    if block == "1j":
        return (1.0, -float(n))
    if block in ("2j", "jk"):
        return (0.0, float(1 - n))
    if block in ("diag", "coupled"):
        # the Euler coupling's eigenvalues are 2(n-1) twice and 0 n-2 times
        exps = 2 * roots_for(2.0 * (n - 1)) + (n - 2) * roots_for(0.0)
        return tuple(sorted(exps, reverse=True))
    raise UnknownBlock(f"unknown block label {block!r}")


def _unit_bump(x, center, width):
    """C-infinity bump in x, support (center-width, center+width)."""
    t = (x - (center - width)) / (2.0 * width)
    out = np.zeros_like(x)
    inside = (t > 0) & (t < 1)
    ti = t[inside]
    out[inside] = np.exp(4.0 - 1.0 / ti - 1.0 / (1.0 - ti))
    return out


@cache
def _unit_bump_maxima():
    """max |b|, |b'|, |b''| of the unit-width bump, from a 4001-point
    reference and np.gradient; built on first use."""
    xf = np.linspace(-1.0, 1.0, 4001)
    ref = _unit_bump(xf, 0.0, 1.0)
    d1 = np.gradient(ref, xf)
    d2 = np.gradient(d1, xf)
    return np.max(np.abs(ref)), np.max(np.abs(d1)), np.max(np.abs(d2))


def bump_deformation(n, grid, centers, width=0.4):
    """Sum of unit-C2 log-radial bumps, one per center, in every block.

    Each bump lives in x = log r with half-width `width` and is scaled
    so that max(|b|, |b'|, |b''|) = 1 with derivatives in x (the frame
    radial direction scales like r d/dr).  Centers should be separated
    by more than 2*width in log r so the sum keeps unit size.
    """
    if not (math.isfinite(width) and width > 0):
        raise OutOfDomain(f"bump width must be finite and positive, got {width}")
    # the scale divides by width**2; Python floats, so that an overflow gives
    # inf and an underflow 0, not a warning or an OverflowError
    if not 0.0 < float(width) * float(width) < math.inf:
        raise OutOfDomain(f"bump width {width} is out of range: its square "
                          "overflows or underflows")
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    if not (np.all(np.isfinite(centers)) and np.all(centers > 0)):
        raise OutOfDomain(f"bump centers must be finite and positive: {centers}")
    # checks n and the grid, ascending, so each bump's support is a slice of x
    h = InvariantDeformation(n=n, grid=grid, components={})
    x = np.log(h.grid)
    total = np.zeros_like(x)
    # unit-width reference scale; derivatives of the rescaled bump gain 1/width
    b0, b1, b2 = _unit_bump_maxima()
    scale = max(b0, b1 / width, b2 / width**2)
    for c in centers:
        # the support |x - lc| < width, widened by one width against rounding
        lc = math.log(c)
        lo, hi = np.searchsorted(x, [lc - 2.0 * width, lc + 2.0 * width])
        total[lo:hi] += _unit_bump(x[lo:hi], lc, width) / scale
    h.values[:] = total[:, None]
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


def compare_operators(h, r_window=None, m=1.0, bins=12):
    """|L_C h - L_BH h| on the grid of h, with a log-log envelope fit.

    Compares the cusp model against the black hole of mass m.  The
    difference is the black hole's mass part (ODESystemL._mass_part)
    applied to h, one operator application that keeps its digits however
    far the difference falls below either operator.  It is reduced
    pointwise to its maximum over blocks, then an envelope (binwise maximum
    over log-spaced bins inside the finite, positive r_window, each bin
    closed at both edges) is fitted; for unit-C2 h translated across the
    window the slope comes out at -(n-1).  All-zero differences give slope
    nan.  The dimension, profile-domain and core-margin checks run before
    any derivative is taken.
    """
    sys = assemble_L_blackhole(black_hole_metric(m, h.n))
    diff = np.abs(_apply(sys, h, sys._mass_part)).max(axis=1)
    grid = h.grid
    if r_window is None:
        r_window = (float(grid[0]), float(grid[-1]))
    lo, hi = r_window
    if not all(0.0 < r < math.inf for r in (lo, hi)):
        raise OutOfDomain(f"r_window must be finite and positive: {r_window}")
    edges = np.geomspace(lo, hi, bins + 1)
    centers = np.sqrt(edges[:-1] * edges[1:])
    lo_i = np.searchsorted(grid, edges[:-1])
    hi_i = np.searchsorted(grid, edges[1:], side="right")
    bin_max = np.array([diff[a:b].max(initial=0.0) for a, b in zip(lo_i, hi_i)])
    keep = bin_max > 0
    if keep.sum() >= 3:
        slope, intercept, residual = fit_loglog(centers[keep], bin_max[keep])
    else:
        slope, intercept, residual = float("nan"), float("nan"), float("nan")
    return OperatorComparison(grid=grid, diff=diff, bin_centers=centers,
                              bin_max=bin_max, slope=slope,
                              intercept=intercept, residual=residual)
