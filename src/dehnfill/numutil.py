"""Small numerical helpers used throughout: finite-difference weights on
arbitrary grids (Fornberg's algorithm), differentiation matrices, log-log
slope fits, the C-infinity transition bump and the CSV number format.
"""

import numpy as np

from .errors import GridTooCoarse, OutOfDomain


def fornberg_weights(x0, xs, m):
    """Weights w with sum_k w[k] f(xs[k]) ~ f^(m)(x0) for nodes xs, shape
    (len(xs),): `stencil_weights` on the one window xs at the one point x0.
    """
    return stencil_weights(xs, m, len(xs), at=[x0])[1][0]


def _window_starts(npts, width, pos):
    """First index of the window of `width` consecutive nodes of a grid of
    npts nodes for each position pos (a node's index, or the index at which
    a query point falls, from `np.searchsorted`).

    The window is centred on its position where possible and shifted
    one-sided near the ends, so it always lies inside the grid.
    """
    if npts < width:
        raise GridTooCoarse(f"grid has {npts} points, stencil needs {width}")
    return np.clip(pos - width // 2, 0, npts - width)


def stencil_weights(grid, deriv, width, at):
    """Finite-difference stencils on an ascending grid at every point of
    the 1-d array `at` (at=grid for the stencils of the grid's own rows).

    Returns (idx, w), both of shape (npts, width) for npts = len(at): row q
    approximates the deriv-th derivative at at[q] by
    sum_k w[q, k] f(grid[idx[q, k]]), on the window of `_window_starts`
    around the index where at[q] falls; deriv 0 interpolates.  The weights
    come from Fornberg's recursion (Fornberg 1988, Generation of finite
    difference formulas on arbitrarily spaced grids), run for all rows at
    once on one (width, npts) plane per derivative order; w is the last
    plane transposed, so the lower orders are freed on return.
    """
    grid = np.asarray(grid, dtype=float)
    if width < deriv + 1:
        raise GridTooCoarse(
            f"need at least {deriv + 1} nodes for derivative order {deriv}")
    x0 = np.asarray(at, dtype=float)
    idx = (_window_starts(len(grid), width, np.searchsorted(grid, x0))[:, None]
           + np.arange(width))
    xs = grid[idx.T]
    c = [np.zeros((width, len(x0))) for _ in range(deriv + 1)]
    c[0][0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, width):
        ks = range(min(i, deriv), 0, -1)
        c5, c4 = c4, xs[i] - x0
        c3 = xs[i] - xs[:i]
        c2 = c3[0]
        for d in c3[1:]:
            c2 = c2 * d
        # row i from row i-1, which the updates below have not reached yet
        for k in ks:
            c[k][i] = c1 * (k * c[k - 1][i - 1] - c5 * c[k][i - 1]) / c2
        c[0][i] = -c1 * c5 * c[0][i - 1] / c2
        # rows j < i, each row independent of the others
        for k in ks:
            c[k][:i] = (c4 * c[k][:i] - k * c[k - 1][:i]) / c3
        c[0][:i] = c4 * c[0][:i] / c3
        c1 = c2
    return idx, c[deriv].T


def diff_matrix(grid, deriv, stencil):
    """Dense differentiation matrix on an arbitrary ascending grid.

    Each row i uses a window of `stencil` consecutive nodes containing i,
    centered where possible and shifted one-sided near the ends. With
    stencil = 5 this gives 4th-order first and second derivatives in the
    interior (one order less at the edges for deriv = 2).
    """
    grid = np.asarray(grid, dtype=float)
    npts = len(grid)
    D = np.zeros((npts, npts))
    starts = _window_starts(npts, stencil, np.arange(npts))
    for i, lo in enumerate(starts.tolist()):
        window = grid[lo : lo + stencil]
        D[i, lo : lo + stencil] = fornberg_weights(grid[i], window, deriv)
    return D


def apply_diff(grid, values, deriv, stencil=5):
    """Differentiate grid samples along axis 0: the rows of `diff_matrix`,
    built by `stencil_weights`, summed over the gathered windows."""
    idx, w = stencil_weights(grid, deriv, stencil, at=grid)
    return np.einsum("ik,ik...->i...", w, np.asarray(values, dtype=float)[idx])


def fit_loglog(x, y):
    """Least-squares slope of log y against log x.

    Returns (slope, intercept, residual) where residual is the rms of the
    fit misfit in log space; slope and intercept are the closed form from
    the centred sums.  Points with y <= 0 are rejected outright, a decay
    measurement that hits exact zero means the scan was set up wrong, and
    so are points with a NaN or infinite coordinate and x that are all
    equal, through which no line is fitted.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if (x.shape != y.shape or x.size < 2
            or not ((0 < x) & (x < np.inf) & (0 < y) & (y < np.inf)).all()):
        raise ValueError("log-log fit needs two matching arrays of at least "
                         "2 finite, strictly positive points")
    # array methods, not np.mean/np.sum: on a few points calls are the cost
    lx, ly = np.log(x), np.log(y)
    mx, my = lx.sum() / lx.size, ly.sum() / ly.size
    dx = lx - mx
    sxx = (dx * dx).sum()
    if sxx == 0:
        raise ValueError("log-log fit needs at least two distinct x")
    slope = (dx * (ly - my)).sum() / sxx
    intercept = my - slope * mx
    resid = float(np.sqrt(((slope * lx + intercept - ly) ** 2).sum() / lx.size))
    return float(slope), float(intercept), resid


# ----------------------------------------------------------------------
# C-infinity transition machinery. E(t) = exp(-1/t) extended by 0 for
# t <= 0 is smooth; S(t) = E(t) / (E(t) + E(1-t)) steps monotonically
# from 0 at t <= 0 to 1 at t >= 1 with all derivatives vanishing at the
# junctions.
# ----------------------------------------------------------------------


# exp(-1/t) is exactly 0 once 1/t > 745.2, so up to _T_EDGE the step is 0
# and its derivatives too; evaluating there gives 0 * inf once t**2
# underflows.  Below t = 1, 1 - t >= 2**-53, so that end needs no guard.
_T_EDGE = 1.0 / 746.0


def _smoothstep(t, order):
    """[S, S', S''][:order + 1] at t, from one evaluation of E(t), E(1-t)
    on (_T_EDGE, 1); outside it S is 0 or 1 and its derivatives are 0."""
    t = np.asarray(t, dtype=float)
    inside = (t > _T_EDGE) & (t < 1.0)
    tm = t[inside]
    a, b = np.exp(-1.0 / tm), np.exp(-1.0 / (1.0 - tm))
    s = a + b
    out = [np.heaviside(t - 0.5, 1.0, out=np.empty_like(t))]
    out[0][inside] = a / s
    if order >= 1:
        u, v = 1.0 / tm**2, 1.0 / (1.0 - tm) ** 2
        out.append(np.zeros_like(t))
        # d/dt [a/(a+b)] = (a' b - a b') / s^2 with a' = a/t^2, b' = -b/(1-t)^2
        out[1][inside] = w = a * b / s**2 * (u + v)
    if order >= 2:
        out.append(np.zeros_like(t))
        # log S' = log a + log b - 2 log s + log(u + v); differentiate once more
        out[2][inside] = w * (u - v - 2.0 * (a * u - b * v) / s
                              + (-2.0 / tm**3 + 2.0 / (1.0 - tm) ** 3) / (u + v))
    return out


def smoothstep(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    return _smoothstep(t, 0)[0]


def cumtrapz0(y, x):
    """Cumulative trapezoid with a leading zero, matching len(x)."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def loggrid(lo, hi, num):
    """Geometrically spaced grid, the natural sampling for r in [lo, hi]:
    num points, the ends exactly lo and hi.  lo and hi may also be (S,)
    arrays, which give an (S, num) grid, one row per pair.

    This is np.geomspace's arithmetic without its generic wrapper, bit for
    bit and in its memory layout: log10 of the ends, num - 1 equal steps
    in log10 r, 10 to those powers, then both ends pinned.  An integer
    num >= 2 and finite ends 0 < lo < hi are required."""
    if not (isinstance(num, (int, np.integer)) and num >= 2):
        raise GridTooCoarse(f"a log grid needs an integer num >= 2, got {num!r}")
    ends = np.array((lo, hi), dtype=float)
    lo, hi = ends
    if not ((0.0 < lo) & (lo < hi) & (hi < np.inf)).all():
        raise OutOfDomain(f"log grid ends must satisfy 0 < lo < hi < inf, "
                          f"got {lo} and {hi}")
    la, lb = np.log10(ends)
    y = np.multiply.outer(np.arange(num, dtype=float), (lb - la) / (num - 1))
    y += la
    np.power(10.0, y, out=y)
    y[0] = lo
    y[-1] = hi
    return y.T


def csv_lines(*columns):
    """One CSV line per index of the equal-length columns, each field %.17g,
    which round-trips every float64 and prints like f"{float(x):.17g}".
    Columns of unequal length raise ValueError.  All rows are formatted by
    one % on the row template repeated once per row."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    rows = len(cols[0]) if cols else 0
    if any(len(c) != rows for c in cols):
        raise ValueError(f"csv columns differ in length: {[len(c) for c in cols]}")
    template = ",".join(["%.17g"] * len(cols)) + "\n"
    flat = np.array(cols).T.ravel().tolist()
    return (template * rows % tuple(flat)).splitlines()
