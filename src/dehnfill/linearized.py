"""The gauged linearized Einstein operator on torus-invariant deformations.

On a warped product V**-1 dr^2 + V dtheta^2 + r^2 g_T the operator acts
blockwise on frame components of a symmetric 2-tensor h.  Every block
shares the radial part

    A = -V d^2/dr^2 - (V' + (n-2)V/r) d/dr

and carries a zeroth-order piece built from V, r and the sectional
curvatures.  The diagonal blocks (11, 22, jj) couple through a symmetric
matrix whose rows sum to -2 ric_aa; off-diagonal blocks are scalar.

Applying the operator to the metric itself (h_ab = delta_ab in the
orthonormal frame) therefore returns -2 ric_aa on the diagonal for any
profile, which is 2(n-1) delta_ab when the background is Einstein.  That
identity is the structural check used throughout the tests.

The cusp model (V = r^2, all curvatures -1) reduces every block to an
Euler operator; its indicial roots drive the oscillation estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .curvature import _frame_data
from .errors import (
    GridTooCoarse,
    NonFiniteField,
    OutOfDomain,
    SingularAtCore,
    TooFewSamples,
    UnknownBlock,
)
from .numutil import apply_stencil, fit_loglog, stencil_weights
from .profiles import black_hole_metric, cusp_metric

__all__ = [
    "BLOCK_LABELS",
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
    "torus_average",
]

BLOCK_LABELS = ("11", "22", "12", "1j", "2j", "jj", "jk")


@dataclass(frozen=True, eq=False)
class InvariantDeformation:
    """Frame components of a torus-invariant symmetric 2-tensor.

    components maps block labels to arrays whose leading axis runs over
    the grid.  Blocks jj and jk may carry one column per torus direction
    or unordered pair; scalar blocks may be (npts,) or (npts, m).
    """

    n: int
    grid: np.ndarray
    components: dict

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.shape[0] < 2:
            raise GridTooCoarse("deformation grid needs at least 2 points")
        if np.any(np.diff(grid) <= 0):
            raise GridTooCoarse("deformation grid must be strictly increasing")
        comps = {}
        for label, arr in self.components.items():
            if label not in BLOCK_LABELS:
                raise UnknownBlock(f"unknown block label {label!r}")
            arr = np.asarray(arr, dtype=float)
            if arr.shape[0] != grid.shape[0]:
                raise TooFewSamples(
                    f"block {label} has {arr.shape[0]} rows on a grid of "
                    f"{grid.shape[0]}"
                )
            if not np.all(np.isfinite(arr)):
                raise NonFiniteField(f"block {label} contains nan or inf")
            comps[label] = arr
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "components", comps)

    def block(self, label):
        """Component array for label, zeros if absent."""
        if label in self.components:
            return self.components[label]
        npts = self.grid.shape[0]
        if label == "jj":
            return np.zeros((npts, self.n - 2))
        if label == "jk":
            npair = (self.n - 2) * (self.n - 3) // 2
            return np.zeros((npts, npair))
        return np.zeros(npts)

    def diag_matrix(self):
        """(npts, n) array of diagonal components (11, 22, jj...)."""
        npts = self.grid.shape[0]
        d = np.zeros((npts, self.n))
        d[:, 0] = np.asarray(self.block("11")).reshape(npts)
        d[:, 1] = np.asarray(self.block("22")).reshape(npts)
        jj = np.atleast_2d(self.block("jj"))
        if jj.shape[0] != npts:
            jj = jj.T
        if jj.shape != (npts, self.n - 2):
            raise TooFewSamples(
                f"jj block must have {self.n - 2} columns, got {jj.shape}"
            )
        d[:, 2:] = jj
        return d

    def max_abs(self):
        return max(
            float(np.max(np.abs(arr))) for arr in self.components.values()
        )


def metric_deformation(n, grid):
    """h = g itself: unit diagonal frame components on the grid."""
    grid = np.asarray(grid, dtype=float)
    npts = grid.shape[0]
    return InvariantDeformation(
        n=n, grid=grid,
        components={
            "11": np.ones(npts),
            "22": np.ones(npts),
            "jj": np.ones((npts, n - 2)),
        },
    )


@dataclass(frozen=True, eq=False)
class ODESystemL:
    """The assembled operator: radial coefficients plus zeroth-order data,
    evaluated on demand as functions of r from the profile's V, V' and
    frame curvatures.  The cusp model is this assembly on V = r^2, where
    the coefficients reduce to the constants of the Euler model.
    """

    n: int
    profile: object

    def coefficients(self, r):
        """(c2, c1, offdiag, M) at the radii r, from one profile evaluation.

        A u = c2 u'' + c1 u' is the shared radial part; offdiag maps the
        scalar blocks 12, 1j, 2j, jk to their zeroth-order coefficients;
        M is the (npts, n, n) symmetric coupling of the (11, 22, jj)
        sector, whose row sums equal -2 ric_aa for every profile (the
        gauge identity L(g) = -2 ric on constant deformations).
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        n = self.n
        V, V1, K12, K1p, Kpp = _frame_data(self.profile, r)
        if np.any(V <= 0):
            raise SingularAtCore(
                "profile vanishes on the grid; the zeroth-order terms divide by V"
            )
        # P = V'^2/(2V); scaling by a power of two rounds the same way
        # before or after the division, so the four uses share one quotient
        Q = V1**2 / V
        P = 0.5 * Q
        Vr2 = V / r**2
        c2, c1 = -V, -(V1 + (n - 2) * V / r)
        offdiag = {
            "12": Q + 2.0 * (n - 2) * V / r**2 + 2.0 * K12,
            "1j": 0.25 * Q + (n + 1.0) * V / r**2 + 2.0 * K1p,
            "2j": 0.25 * Q + Vr2 + 2.0 * K1p,
            "jk": P + 2.0 * Kpp,
        }
        M = np.empty((r.shape[0], n, n))
        M[:, 0, 0] = P + 2.0 * (n - 2) * Vr2
        M[:, 0, 1] = M[:, 1, 0] = -(P + 2.0 * K12)
        M[:, 1, 1] = P
        M[:, 0, 2:] = M[:, 2:, 0] = (-2.0 * (Vr2 + K1p))[:, None]
        M[:, 1, 2:] = M[:, 2:, 1] = (-2.0 * K1p)[:, None]
        M[:, 2:, 2:] = (-2.0 * Kpp)[:, None, None]
        torus = np.arange(2, n)
        M[:, torus, torus] = (2.0 * Vr2)[:, None]
        return c2, c1, offdiag, M

    def a_coefficients(self, r):
        """(c2, c1) with A u = c2 u'' + c1 u'."""
        return self.coefficients(r)[:2]

    def zeroth_offdiag(self, r):
        """Scalar zeroth-order coefficients for blocks 12, 1j, 2j, jk."""
        return self.coefficients(r)[2]

    def coupling_diag(self, r):
        """(npts, n, n) symmetric coupling of the (11, 22, jj) sector."""
        return self.coefficients(r)[3]


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


def _core_margin_check(sys, grid):
    r_plus = sys.profile.r_plus
    if r_plus is None:
        return
    dr = grid[1] - grid[0]
    margin = max(0.01 * r_plus, 10.0 * dr)
    if grid[0] < r_plus + margin:
        raise SingularAtCore(
            f"grid must start above r_plus + {margin:.3g} = "
            f"{r_plus + margin:.6g}; got {grid[0]:.6g}"
        )


def _block_derivatives(h):
    """First and second radial derivatives of every block of h.

    Builds the 5-point d1 and 6-point d2 stencils once on h.grid and
    returns {label: (d1, d2)} for the scalar blocks 12, 1j, 2j, jk and
    for "diag", the (npts, n) matrix of diagonal components.  They
    depend on h alone, so operators applied to the same h can share them.
    """
    grid = h.grid
    if grid.shape[0] < 9:
        raise GridTooCoarse("need at least 9 grid points to apply the operator")
    st1 = stencil_weights(grid, 1, 5)
    st2 = stencil_weights(grid, 2, 6)
    blocks = {label: h.block(label) for label in ("12", "1j", "2j", "jk")}
    blocks["diag"] = h.diag_matrix()
    return {label: (apply_stencil(st1, u), apply_stencil(st2, u))
            for label, u in blocks.items()}


def _zeroth_order(sys, h):
    """The dimension and core-margin checks, then sys.coefficients on h's
    grid: (c2, c1) and the zeroth-order part of L h by block, with the
    diagonal sector under "diag".  None of it needs a derivative of h, so
    it all runs first and the (npts, n, n) coupling is freed before the
    stencils are built."""
    if h.n != sys.n:
        raise UnknownBlock(f"dimension mismatch: operator {sys.n}, h {h.n}")
    _core_margin_check(sys, h.grid)
    c2, c1, offdiag, M = sys.coefficients(h.grid)
    zeroth = {}
    for label in ("12", "1j", "2j", "jk"):
        u = h.block(label)
        c = offdiag[label]
        zeroth[label] = c * u if u.ndim == 1 else c[:, None] * u
    zeroth["diag"] = np.einsum("pab,pb->pa", M, h.diag_matrix())
    return c2, c1, zeroth


def _apply(h, zeroth_order, derivs):
    """apply_L from `_zeroth_order` and the derivatives of h's blocks."""
    c2, c1, zeroth = zeroth_order
    out = {}
    for label, (d1, d2) in derivs.items():
        if d1.ndim == 1:
            out[label] = c2 * d2 + c1 * d1 + zeroth[label]
        else:
            out[label] = c2[:, None] * d2 + c1[:, None] * d1 + zeroth[label]
    LD = out.pop("diag")
    out["11"] = LD[:, 0]
    out["22"] = LD[:, 1]
    out["jj"] = LD[:, 2:]
    return InvariantDeformation(n=h.n, grid=h.grid, components=out)


def apply_L(sys, h):
    """Apply the assembled operator to a deformation on its grid.

    First derivatives use 5-point stencils and second derivatives
    6-point ones, so the one-sided rows at the grid ends keep the same
    4th order as the interior.  The derivatives depend on h alone
    (`_block_derivatives`); `compare_operators` takes them once and
    shares them between its two operators.  Returns a deformation with
    every block populated.
    """
    return _apply(h, _zeroth_order(sys, h), _block_derivatives(h))


def indicial_roots(block, n):
    """Indicial exponents of the cusp-model block.

    Scalar blocks give a pair (larger, smaller); the coupled diagonal
    sector (label "diag") gives all 2n eigen-exponents sorted
    descending.  Euler substitution r**s turns A into -(s^2 + (n-1)s),
    so each zeroth-order constant c contributes the polynomial
    s^2 + (n-1)s - c.
    """
    if n < 3:
        raise OutOfDomain(f"need n >= 3, got {n}")

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
        sys = assemble_L_cusp(n)
        M = sys.coupling_diag(np.array([1.0]))[0]
        eigvals = np.linalg.eigvalsh(M)
        exps = []
        for lam in eigvals:
            exps.extend(roots_for(float(lam)))
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


def bump_deformation(n, grid, centers, width=0.4, blocks=None):
    """Sum of unit-C2 log-radial bumps, one per center.

    Each bump lives in x = log r with half-width `width` and is scaled
    so that max(|b|, |b'|, |b''|) = 1 with derivatives in x (the frame
    radial direction scales like r d/dr).  Centers should be separated
    by more than 2*width in log r so the sum keeps unit size.
    """
    if not (math.isfinite(width) and width > 0):
        raise OutOfDomain(f"bump width must be finite and positive, got {width}")
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    if not (np.all(np.isfinite(centers)) and np.all(centers > 0)):
        raise OutOfDomain(f"bump centers must be finite and positive: {centers}")
    # checked ascending here, so each bump's support is one slice of x
    grid = InvariantDeformation(n=n, grid=grid, components={}).grid
    x = np.log(grid)
    total = np.zeros_like(x)
    # unit-width reference scale; derivatives of the rescaled bump gain 1/width
    b0, b1, b2 = _unit_bump_maxima()
    scale = max(b0, b1 / width, b2 / width**2)
    for c in centers:
        # the support |x - lc| < width, widened by one width against rounding
        lc = math.log(c)
        lo, hi = np.searchsorted(x, [lc - 2.0 * width, lc + 2.0 * width])
        total[lo:hi] += _unit_bump(x[lo:hi], lc, width) / scale
    if blocks is None:
        blocks = BLOCK_LABELS
    npts = grid.shape[0]
    comps = {}
    for label in blocks:
        if label == "jj":
            comps[label] = np.tile(total[:, None], (1, n - 2))
        elif label == "jk":
            npair = (n - 2) * (n - 3) // 2
            if npair:
                comps[label] = np.tile(total[:, None], (1, npair))
        else:
            comps[label] = total.copy()
    return InvariantDeformation(n=n, grid=grid, components=comps)


@dataclass(frozen=True, eq=False)
class OperatorComparison:
    """Pointwise difference of two operator applications with a decay fit."""

    grid: np.ndarray
    diff: np.ndarray
    bin_centers: np.ndarray
    bin_max: np.ndarray
    slope: float
    intercept: float
    residual: float


def compare_operators(h, r_window=None, m=1.0, metric_a=None, metric_b=None,
                      bins=12):
    """|L_C h - L_BH h| on the grid of h, with a log-log envelope fit.

    By default compares the cusp model against the black hole of mass m.
    The pointwise difference is reduced to its maximum over blocks, then
    an envelope (binwise maximum over log-spaced bins inside the finite,
    positive r_window, each bin closed at both edges) is fitted; for unit-C2
    h translated across the window the slope comes out at -(n-1).  All-zero
    differences give slope nan.  The radial derivatives of h are taken once
    and shared by both operators; each operator runs its own dimension,
    core-margin and profile-domain checks before any derivative is taken.
    """
    n = h.n
    sys_a = assemble_L_cusp(n) if metric_a is None else assemble_L_blackhole(metric_a)
    sys_b = (assemble_L_blackhole(black_hole_metric(m, n))
             if metric_b is None else assemble_L_blackhole(metric_b))
    zeroth_a = _zeroth_order(sys_a, h)
    zeroth_b = _zeroth_order(sys_b, h)
    derivs = _block_derivatives(h)
    La = _apply(h, zeroth_a, derivs)
    Lb = _apply(h, zeroth_b, derivs)
    grid = h.grid
    diff = np.zeros(grid.shape[0])
    for label, a in La.components.items():
        d = np.abs(a - Lb.components[label])
        np.maximum(diff, d if d.ndim == 1 else d.max(axis=1, initial=0.0),
                   out=diff)
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


def torus_average(n, grid, samples):
    """Componentwise mean over torus sample points (the last axis).

    samples maps block labels to arrays (npts, ..., nsamples) of the
    lifted field evaluated at >= 16 torus points per radius.
    """
    averaged = {}
    for label, arr in samples.items():
        arr = np.asarray(arr, dtype=float)
        if arr.ndim < 2 or arr.shape[-1] < 16:
            raise TooFewSamples(
                f"block {label}: need >= 16 torus samples per radius"
            )
        averaged[label] = arr.mean(axis=-1)
    return InvariantDeformation(n=n, grid=grid, components=averaged)
