"""Euler-equation machinery and the Newton solve to exact Einstein profiles.

The cusp-model radial equations are Euler equations; an integrating
factor reduces them to quadratures, which gives both a reconstruction
map and a sharp oscillation bound.  The Newton iteration perturbs a
glued approximate profile, within the diagonal warped-product ansatz, to
the exact Einstein profile with the same closing period and conformal
infinity; by rigidity that profile is a black hole, so the solve doubles
as a parameter-recovery test.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    AnchorOutsideGrid,
    GridTooCoarse,
    NonFiniteField,
    NonPositiveProfile,
    OutOfDomain,
)
from .numutil import (_checked_samples, _is_finite_real, _window_starts,
                      cumtrapz0, diff_matrix)
from .profiles import (SampledProfile, _check_dimension, eval_profile,
                       fitted_mass)

__all__ = [
    "euler_reconstruct",
    "oscillation_bound",
    "oscillation_closed_form",
    "einstein_residual",
    "NewtonConfig",
    "EinsteinSolveResult",
    "newton_solve",
]


def euler_reconstruct(n, rhs, anchor):
    """Solve r^2 f'' + n r f' = rhs by double quadrature.

    The integrating factor gives (r^n f')' = r^(n-2) rhs, so

        f'(r) = r^-n * integral_{r_lo}^{r} s^(n-2) rhs(s) ds,

    with the inner constant fixed by f'(r_lo) = 0.  On a filled torus
    with r_lo at the core this is exactly the regularity condition
    there; it normalizes the decaying homogeneous mode relative to the
    grid start.  The anchor (r0, f0) then fixes the constant mode.
    Returns (grid, f).
    """
    _check_dimension(n)
    grid, vals = _checked_samples(*rhs, min_points=3)
    r0, f0 = anchor
    if not (grid[0] <= r0 <= grid[-1]):
        raise AnchorOutsideGrid(
            f"anchor radius {r0} outside grid [{grid[0]}, {grid[-1]}]"
        )
    if not math.isfinite(f0):
        raise NonFiniteField(f"anchor value must be finite, got {f0}")
    inner = cumtrapz0(grid ** (n - 2) * vals, grid)
    fprime = inner / grid**n
    F = cumtrapz0(fprime, grid)
    f = F - np.interp(r0, grid, F) + f0
    return grid, f


def oscillation_closed_form(n, r_lo, r1, r2):
    """The explicit factor (log(r2/r1) + C0)/(n-1) of the unit bound.

    C0 = r_lo^(n-1) (r2^(1-n) - r1^(1-n))/(n-1) < 0 comes from carrying
    the inner quadrature's lower limit through the outer integral.
    """
    _check_dimension(n)
    if not all(_is_finite_real(x) and x > 0 for x in (r_lo, r1, r2)):
        raise OutOfDomain(f"radii must be finite and positive, got {r_lo}, "
                          f"{r1}, {r2}")
    r_lo, r1, r2 = float(r_lo), float(r1), float(r2)
    try:
        C0 = r_lo ** (n - 1) * (r2 ** (1 - n) - r1 ** (1 - n)) / (n - 1)
    except OverflowError:
        C0 = math.inf
    if not math.isfinite(C0):
        raise OutOfDomain(f"radii {r_lo}, {r1}, {r2} are too large or too "
                          "small: C0 overflows")
    return (math.log(r2 / r1) + C0) / (n - 1)


def oscillation_bound(rhs, phi, r1, r2, n):
    """(bound, measured) for the oscillation |f(r1) - f(r2)|.

    measured comes from euler_reconstruct; bound is the same double
    quadrature applied to the envelope s^(n-2) phi(s) and scaled by
    sup |rhs/phi|.  Because both sides use the one trapezoid rule with
    positive weights, measured <= bound holds termwise, not merely in
    the continuum limit.  phi is None (unit weight) or an array of
    positive weights on the grid.
    """
    grid, vals = _checked_samples(*rhs, min_points=3)
    if not (grid[0] <= r1 < r2 <= grid[-1]):
        raise OutOfDomain(
            f"need grid[0] <= r1 < r2 <= grid[-1], got r1={r1}, r2={r2}"
        )
    weight = np.ones_like(grid) if phi is None else np.asarray(phi, dtype=float)
    if (weight.shape != grid.shape
            or not np.all((weight > 0) & (weight < math.inf))):
        raise OutOfDomain("phi must be positive and finite on the grid")
    sup = float(np.max(np.abs(vals) / weight))

    _, f = euler_reconstruct(n, (grid, vals), (r1, 0.0))
    measured = abs(float(np.interp(r2, grid, f)) - float(np.interp(r1, grid, f)))

    _, E = euler_reconstruct(n, (grid, weight), (r1, 0.0))
    bound = sup * (float(np.interp(r2, grid, E)) - float(np.interp(r1, grid, E)))
    return bound, measured


def einstein_residual(profile, grid=None):
    """The two scalar Einstein equations of the warped-product ansatz, in
    the profile's own dimension n.

    F1 = -V''/2 - (n-2)V'/(2r) + (n-1) is the (11)=(22) equation and
    F2 = -V'/r - (n-3)V/r^2 + (n-1) the torus one; they are linked by
    the Bianchi identity F1 = F2 + (r/2) F2'.  Returns the pair of grid
    functions ((grid, F1), (grid, F2)), grid None meaning sample_grid().
    """
    grid = profile.sample_grid() if grid is None else np.asarray(grid, dtype=float)
    V, _, _, _, _, F1, F2 = profile.frame_data(grid)
    if np.any(V < 0):
        raise NonPositiveProfile("profile is negative on the grid")
    return (grid, F1), (grid, F2)


@dataclass(frozen=True)
class NewtonConfig:
    """Iteration controls for the Einstein profile solve.

    The defaults put residual_tol above the rounding floor of the 9-point
    log-grid residual evaluation at the default grid_size.  The floor
    grows like 1/dx^2 while the dx^8 truncation stays far below: from the
    glued start (R=50, n=4 or 5, r_out = 50 r_plus) Newton bottoms out
    near 1.1e-12 at grid_size 256, 4.5e-12 at 512, 2.1e-11 at 1024 and
    9e-11 at 2048, so at 2048 the default residual_tol is out of reach.
    """

    max_iters: int = 30
    residual_tol: float = 5e-11
    grid_size: int = 256
    r_out: float = None

    def __post_init__(self):
        if not (isinstance(self.max_iters, numbers.Integral)
                and not isinstance(self.max_iters, bool)
                and self.max_iters >= 1):
            raise OutOfDomain(
                f"max_iters must be an integer >= 1, got {self.max_iters}")
        if not (_is_finite_real(self.residual_tol) and self.residual_tol > 0):
            raise OutOfDomain("residual_tol must be a finite positive real, "
                              f"got {self.residual_tol!r}")
        if not (isinstance(self.grid_size, numbers.Integral)
                and self.grid_size >= 64):
            raise GridTooCoarse(
                f"grid_size must be an integer >= 64, got {self.grid_size}")
        if self.r_out is not None and not (
                _is_finite_real(self.r_out) and self.r_out > 0):
            raise OutOfDomain("r_out must be a finite positive real, "
                              f"got {self.r_out!r}")


@dataclass(frozen=True)
class EinsteinSolveResult:
    """The last accepted Newton iterate and its diagnostics; error is None
    when the solve converged and otherwise says why it stopped short."""

    profile: SampledProfile
    fitted_m: float
    r_plus: float
    beta: float
    residuals: tuple
    iterations: int
    quadratic_ratio: float
    error: str | None

    @property
    def n(self):
        return self.profile.n

    @property
    def converged(self):
        return self.error is None

    def to_dict(self):
        out = {
            "n": int(self.n),
            "fitted_m": self.fitted_m,
            "r_plus": self.r_plus,
            "beta": self.beta,
            "iters": self.iterations,
            "converged": self.converged,
            "quadratic_ratio": self.quadratic_ratio,
            "residuals": list(self.residuals),
        }
        if self.error is not None:
            out["error"] = self.error
        return out


def _initial_values(profile, r, m_hat, n):
    lo, hi = profile.domain
    vals = r**2 - 2.0 * m_hat * r ** (3.0 - n)
    inside = (r >= lo) & (r <= hi)
    if np.any(inside):
        vals[inside] = eval_profile(profile, r[inside], 0)
    return vals


# band widths of the W-block: the F2 row N-1 reaches 8 columns left, the
# first F1 row 7 columns right
_LOWER, _UPPER = 8, 7
# rows of LAPACK's gbsv band storage: _LOWER rows of fill-in for the LU
# factors above the _LOWER + _UPPER + 1 diagonals
_ROWS = 2 * _LOWER + _UPPER + 1


@cache
def _unit_stencils(N):
    """The 9-point first- and second-derivative stencils on the grid 0..N-1.

    Returns (idx, w1, w2), each of shape (N, 9): row i approximates the
    derivative at node i by sum_k w[i, k] f(idx[i, k]) on the window of
    `numutil._window_starts`.  On a uniform grid x_i = p + i h the solver
    divides w1 by h and w2 by h^2.  Fornberg's recursion on integer nodes
    sees only exact differences, so every row is a row of one 9-node
    template: rows 0-3 give the left end, the centred row 4 every interior
    row and rows 5-8 the right end, bit-identical to the rows of
    diff_matrix(np.arange(N, dtype=float), d, 9) for two 9-node builds.

    All three depend on N alone, so they are built once per grid size per
    process and kept, read-only: about 216 N bytes a size.  The linearized
    operator applies the same template on its uniform grid in log r.
    """
    start = _window_starts(N, 9, np.arange(N))
    idx = start[:, None] + np.arange(9)
    row = np.arange(N) - start
    w1 = diff_matrix(np.arange(9.0), 1, stencil=9)[row]
    w2 = diff_matrix(np.arange(9.0), 2, stencil=9)[row]
    for a in (idx, w1, w2):
        a.setflags(write=False)
    return idx, w1, w2


@cache
def _band(N):
    """Flat positions in the Jacobian's band storage (see `_residual`) of
    rows 1..N-1 on their stencil windows, shape (N - 1, 9), read-only.
    The storage is Fortran-ordered, so entry [k, j] sits at j * _ROWS + k.
    Only Newton's Jacobian reads them, so the operator's grid sizes do not
    keep their 72 N bytes."""
    idx = _unit_stencils(N)[0][1:]
    band = idx * _ROWS + (_LOWER + _UPPER + np.arange(1, N)[:, None] - idx)
    band.setflags(write=False)
    return band


def _derivatives(U, stencils):
    """The unscaled template sums in difference form, shape (2,) + U.shape:
    sum_k w1[i, k] (U[idx[i, k]] - U[i]) and the same with w2, for U of
    shape (N,) or (N, K) and stencils `_unit_stencils(N)`.  The weights sum
    to zero only to rounding, so the plain sum of w U[idx] loses digits
    like 1/h^2 on nearly constant U; the differences are exact on
    constants.  The 4 rows at each end take the 9 nodes at that end; every
    row between uses the centred template row 4 on eight shifted slices of
    U, taken in blocks of rows, so no (N, 9, K) copy is made.  Every sum
    takes the 9 nodes in order, so a column's sums are the same bits alone
    as among K columns.
    """
    _, w1, w2 = stencils
    N = len(U)
    V = U.reshape(N, -1)
    K = V.shape[1]
    out = np.empty((2, N, K))
    # einsum sums along an axis of unit stride in another order, so the
    # nodes never take one: the end rows' differences are laid out
    # (9, 4, K), node first, and D below keeps at least 2 rows
    for rows, window in ((slice(0, 4), V[:9]), (slice(N - 4, N), V[N - 9:])):
        np.einsum("drk,krc->drc", np.array((w1[rows], w2[rows])),
                  window[:, None] - V[rows], out=out[:, rows])
    t = np.array((w1[4], w2[4]))
    # blocks of <= 8192 samples a slice keep D small; D[4] stays zero
    step = max(1, 8192 // K)
    D = np.zeros((9, max(2, min(step, N - 8)), K))
    for a in range(4, N - 4, step):
        b = min(a + step, N - 4)
        for k in (0, 1, 2, 3, 5, 6, 7, 8):
            np.subtract(V[a - 4 + k:b - 4 + k], V[a:b], out=D[k, :b - a])
        np.einsum("dk,kmc->dmc", t, D[:, :b - a], out=out[:, a:b])
    return out.reshape((2,) + U.shape)


def _grid(p, x_hi, N):
    """The radii r_i = exp(x_i) of the uniform log grid x from p to x_hi."""
    return np.exp(np.linspace(p, x_hi, N))


def _residual(W, p, r, n, x_hi, stencils, beta):
    """Rows: W[0]=0 | F1 at 1..N-2 | F2 at N-1 | core slope/(4 pi/beta) - 1.

    The grid x_i = p + i h, h = (x_hi - p)/(N-1), moves with the unknown
    core log-radius p; r is `_grid(p, x_hi, N)`, computed once per iterate
    by the caller, and stencils are `_unit_stencils(N)`.  The derivatives
    are `_derivatives(W, stencils)` divided by h and h^2, so they are
    exact on constants.  The core-slope row is divided by s = 4 pi/beta,
    which grows like r_plus, so that it is O(1) like every other row;
    scaling a row leaves the Newton step unchanged.

    Returns (res, jacobian).  jacobian() builds the Jacobian at the same
    (W, p) from this evaluation's DxW, DxxW, r and h, so a Newton iterate
    is evaluated once, and its Jacobian, with the derivative matrices
    D1 = w1/h and D2 = w2/h^2, is built only when a step is taken from it.
    The Jacobian is exact: the system is affine in W, and its p-column
    comes from dD1/dp = k D1, dD2/dp = 2k D2 with k = 1/(h(N-1)) and
    dr_i/dp = r_i (1 - i/(N-1)).  It is bordered, (ab, b, c, d): ab is
    the N x N W-block in LAPACK's gbsv band storage, built in place
    (ab[_LOWER + _UPPER + i - j, j] = J[i, j], shape (_ROWS, N),
    Fortran-ordered, rows 0.._LOWER-1 zero), b the p-column J[:N, N], c
    the core-slope row J[N, :9] (the other entries of row N are zero) and
    d the corner J[N, N].
    """
    _, w1, w2 = stencils
    N = len(W)
    h = (x_hi - p) / (N - 1)
    DxW, DxxW = _derivatives(W, stencils)
    DxW /= h
    DxxW /= h**2
    res = np.empty(N + 1)
    res[0] = W[0]
    i = slice(1, N - 1)
    A = DxxW[i] + (n - 3) * DxW[i]
    res[i] = -A / (2.0 * r[i] ** 2) + (n - 1)
    res[N - 1] = (-DxW[N - 1] / r[N - 1] ** 2
                  - (n - 3) * W[N - 1] / r[N - 1] ** 2 + (n - 1))
    core = r[0] * (4.0 * math.pi / beta)
    res[N] = DxW[0] / core - 1.0

    def jacobian():
        D1, D2 = w1 / h, w2 / h**2
        # rows 1..N-1 of the W-block on their stencil windows; row 0 is
        # W[0], whose one entry is the diagonal
        rows = np.empty((N - 1, 9))
        rows[:-1] = -(D2[i] + (n - 3) * D1[i]) / (2.0 * r[i, None] ** 2)
        rows[-1] = -D1[N - 1] / r[N - 1] ** 2
        rows[-1, 8] -= (n - 3) / r[N - 1] ** 2
        storage = np.zeros((N, _ROWS))
        storage.ravel()[_band(N)] = rows
        ab = storage.T
        ab[_LOWER + _UPPER, 0] = 1.0
        k = 1.0 / (h * (N - 1))
        s = 1.0 - np.arange(1, N - 1) / (N - 1)
        b = np.zeros(N)
        b[i] = (-(2.0 * DxxW[i] + (n - 3) * DxW[i]) * k
                / (2.0 * r[i] ** 2) + A * s / r[i] ** 2)
        b[N - 1] = -DxW[N - 1] * k / r[N - 1] ** 2
        c = D1[0] / core
        d = DxW[0] / core * (k - 1.0)
        return ab, b, c, d

    return res, jacobian


@cache
def _dgbsv():
    """LAPACK's dgbsv from scipy's compiled wrapper scipy.linalg._flapack.

    The extension is loaded on its own, so neither scipy's nor
    scipy.linalg's __init__ runs: scipy.linalg's reaches numpy.f2py,
    numpy.testing, numpy.ma and numpy.random, most of a cold solve.
    scipy.linalg.lapack.dgbsv is this same routine, and the module is
    registered under its own name, so a later `import scipy.linalg` reuses
    it.  On any exception (a wheel that needs scipy's __init__ to find its
    libraries, say) the public import is used instead.
    """
    name = "scipy.linalg._flapack"
    try:
        module = sys.modules.get(name)
        if module is None:
            spec = importlib.util.find_spec("scipy")
            linalg = os.path.join(spec.submodule_search_locations[0], "linalg")
            spec = importlib.machinery.PathFinder.find_spec(name, [linalg])
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            module = sys.modules.setdefault(name, module)
        return module.dgbsv
    except Exception:
        from scipy.linalg.lapack import dgbsv
        return dgbsv


def _newton_step(res, jac):
    """Solve J step = -res for the bordered Jacobian of `_residual`.

    One LAPACK dgbsv call factors the band A in place, consuming jac's
    ab, and solves both right-hand sides, A z1 = -res_W and A z2 = b,
    held in one Fortran-ordered buffer.  The Schur complement of A then
    gives the p-step y = (-res_N - c.z1)/(d - c.z2) and the W-step
    z1 - y z2.  A singular band (info > 0, as scipy.linalg.solve_banded
    reports it) or a zero or non-finite pivot raises
    np.linalg.LinAlgError; a NaN in the system is not checked up front, so
    it ends there too.
    """
    ab, b, c, d = jac
    N = len(b)
    rhs = np.empty((2, N))
    np.negative(res[:N], out=rhs[0])
    rhs[1] = b
    _, _, z, info = _dgbsv()(_LOWER, _UPPER, ab, rhs.T,
                             overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    z1, z2 = z.T
    pivot = d - c @ z2[:9]
    if not (math.isfinite(pivot) and pivot != 0.0):
        raise np.linalg.LinAlgError(f"Schur pivot {pivot}")
    y = (-res[N] - c @ z1[:9]) / pivot
    step = np.empty(N + 1)
    np.multiply(z2, y, out=step[:N])
    np.subtract(z1, step[:N], out=step[:N])
    step[N] = y
    return step


def newton_solve(initial, cfg=None):
    """Newton iteration, full steps only, for the exact Einstein profile in
    the initial profile's dimension n.

    Unknowns are the profile values on a log grid from the free core
    radius r_plus = exp(p) out to a fixed r_out, plus p itself.  The
    closing conditions V(r_plus) = 0, V'(r_plus) = 4 pi / beta pin the
    smooth-cone core, with beta the closing period of the initial
    profile's core; the outer row enforces the first-order Einstein
    equation, whose solutions all have leading coefficient r^2.

    Bad input raises a DehnFillError.  Every other exit returns the last
    accepted iterate, with error saying why when the solve stops short: a
    singular Jacobian, no acceptable step, or the iteration cap.  Each
    step is the full Newton step, accepted only if it cuts the residual
    by at least a quarter, so the returned iterate is the best one seen;
    a rejected step's error gives the residual kept and the full step's.
    """
    cfg = cfg or NewtonConfig()
    n = initial.n
    r_plus0, beta, m_hat = initial.core()
    r_out = cfg.r_out
    if r_out is None:
        # a profile with a finite outer end keeps it; others get 50 r_plus
        r_out = initial.outer_radius or 50.0 * r_plus0
    # the residual divides by r**2 on the grid out to r_out
    if not math.isfinite(float(r_out) * float(r_out)):
        raise OutOfDomain(f"r_out={r_out} is too large: r_out**2 overflows")
    if r_out <= 2.0 * r_plus0:
        raise OutOfDomain(f"r_out={r_out} too close to the core {r_plus0}")
    N = cfg.grid_size
    x_hi = math.log(r_out)
    p = math.log(r_plus0)
    r = _grid(p, x_hi, N)
    W = _initial_values(initial, r, m_hat, n)
    W[0] = 0.0
    stencils = _unit_stencils(N)

    def norm(res):
        return float(np.max(np.abs(res)))

    res, jacobian = _residual(W, p, r, n, x_hi, stencils, beta)
    history = [norm(res)]

    def finish(iters, error=None):
        # r is the grid of the last accepted iterate (W, p)
        prof = SampledProfile(grid=r, values=W, n=n)
        m_fit = fitted_mass(r, W, n)
        ratios = [history[k + 1] / history[k] ** 2
                  for k in range(max(0, len(history) - 4), len(history) - 1)
                  if history[k] > 0]
        qr = max(ratios) if ratios else 0.0
        return EinsteinSolveResult(
            profile=prof, fitted_m=m_fit, r_plus=float(np.exp(p)),
            beta=float(beta), residuals=tuple(history),
            iterations=iters, quadratic_ratio=qr, error=error,
        )

    for it in range(cfg.max_iters + 1):
        if history[-1] < cfg.residual_tol:
            return finish(it)
        if it == cfg.max_iters:
            return finish(it, f"residual {history[-1]:.3e} above tol "
                              f"{cfg.residual_tol:.1e} after {it} iterations")
        try:
            step = _newton_step(res, jacobian())
        except np.linalg.LinAlgError as exc:
            return finish(it, f"singular Jacobian: {exc}")
        W_new = W + step[:N]
        # row 0 is W[0] = 0, which the step meets only to rounding
        W_new[0] = 0.0
        p_new = p + step[N]
        r_new = _grid(p_new, x_hi, N)
        res_new, jacobian_new = _residual(W_new, p_new, r_new, n, x_hi,
                                          stencils, beta)
        norm_new = norm(res_new)
        # the negated test also rejects a NaN residual
        if not norm_new <= 0.75 * history[-1]:
            return finish(it, f"no acceptable step at iteration {it} "
                              f"(residual {history[-1]:.3e}; "
                              f"full step {norm_new:.3e})")
        W, p, r, res, jacobian = W_new, p_new, r_new, res_new, jacobian_new
        history.append(norm_new)
