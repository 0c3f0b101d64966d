"""Small numerical helpers used throughout: finite-difference weights on
arbitrary grids (Fornberg's algorithm), differentiation matrices, log-log
slope fits, and the C-infinity transition bump.
"""

import numpy as np

from .errors import GridTooCoarse


def fornberg_weights(x0, xs, m):
    """Weights w with sum_k w[k] f(xs[k]) ~ f^(m)(x0) for nodes xs.

    Classic recursion (Fornberg 1988, Generation of finite difference
    formulas on arbitrarily spaced grids). Returns shape (len(xs),).

    The recursion runs on Python floats, which round every + - * / the
    same way as numpy float64 scalars but cost several times less per
    step, so the weights are bit-identical to a numpy-scalar recursion in
    the same order.  The result is a strided column view of the
    (len(xs), m+1) table, not a contiguous copy: a BLAS dot picks its
    kernel by stride, so `w @ window` rounds like `stencil_weights`' rows.
    """
    xs = np.asarray(xs, dtype=float)
    nnodes = len(xs)
    if nnodes < m + 1:
        raise GridTooCoarse(f"need at least {m + 1} nodes for derivative order {m}")
    xs = xs.tolist()
    x0 = float(x0)
    c = [[0.0] * (m + 1) for _ in range(nnodes)]
    c[0][0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, nnodes):
        ks = range(min(i, m), 0, -1)
        c2 = 1.0
        c5 = c4
        xi = xs[i]
        c4 = xi - x0
        ci, cprev = c[i], c[i - 1]
        for j in range(i):
            c3 = xi - xs[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in ks:
                    ci[k] = c1 * (k * cprev[k - 1] - c5 * cprev[k]) / c2
                ci[0] = -c1 * c5 * cprev[0] / c2
            cj = c[j]
            for k in ks:
                cj[k] = (c4 * cj[k] - k * cj[k - 1]) / c3
            cj[0] = c4 * cj[0] / c3
        c1 = c2
    return np.array(c)[:, m]


def _window_starts(npts, width):
    """First index of each row's window of `width` consecutive nodes.

    The window is centred on its row where possible and shifted one-sided
    near the ends, so it always lies inside the grid.
    """
    if npts < width:
        raise GridTooCoarse(f"grid has {npts} points, stencil needs {width}")
    return np.clip(np.arange(npts) - width // 2, 0, npts - width)


def stencil_weights(grid, deriv, width):
    """Finite-difference stencils of every row of an ascending grid.

    Returns (idx, w), both of shape (npts, width): row i approximates the
    deriv-th derivative at grid[i] by sum_k w[i, k] f(grid[idx[i, k]]),
    on the window of `_window_starts`.  This is `fornberg_weights` run for
    all rows at once, looping over the width and derivative order only;
    every arithmetic step keeps its order, so each row is bit-identical
    to the scalar result.
    """
    grid = np.asarray(grid, dtype=float)
    npts = len(grid)
    if width < deriv + 1:
        raise GridTooCoarse(
            f"need at least {deriv + 1} nodes for derivative order {deriv}")
    idx = _window_starts(npts, width)[:, None] + np.arange(width)
    xs = grid[idx]
    x0 = grid
    m = deriv
    c = np.zeros((npts, width, m + 1))
    c[:, 0, 0] = 1.0
    c1 = 1.0
    c4 = xs[:, 0] - x0
    for i in range(1, width):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[:, i] - x0
        for j in range(i):
            c3 = xs[:, i] - xs[:, j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[:, i, k] = c1 * (k * c[:, i - 1, k - 1]
                                       - c5 * c[:, i - 1, k]) / c2
                c[:, i, 0] = -c1 * c5 * c[:, i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[:, j, k] = (c4 * c[:, j, k] - k * c[:, j, k - 1]) / c3
            c[:, j, 0] = c4 * c[:, j, 0] / c3
        c1 = c2
    # a view, so each row keeps the memory stride of the scalar result:
    # the BLAS dot in apply_stencil then takes the same kernel and rounds
    # the same way as `fornberg_weights(...) @ window`
    return idx, c[:, :, m]


def apply_stencil(stencil, values):
    """Apply (idx, w) from `stencil_weights` to samples along axis 0.

    values is (npts,) or (npts, m).  Each row is reduced with a batched
    matmul, which rounds like the per-row `w @ window` product.
    """
    idx, w = stencil
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        return (w[:, None, :] @ values[idx][:, :, None])[:, 0, 0]
    return (w[:, None, :] @ values[idx])[:, 0]


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
    for i, lo in enumerate(_window_starts(npts, stencil).tolist()):
        window = grid[lo : lo + stencil]
        D[i, lo : lo + stencil] = fornberg_weights(grid[i], window, deriv)
    return D


def apply_diff(grid, values, deriv, stencil=5):
    """Differentiate grid samples along axis 0 without materializing the
    full matrix: the rows of `diff_matrix`, built vectorized by
    `stencil_weights` and applied by `apply_stencil`.  Callers that
    differentiate several arrays on one grid should build the stencil once
    and call `apply_stencil` themselves.
    """
    return apply_stencil(stencil_weights(grid, deriv, stencil), values)


def fit_loglog(x, y):
    """Least-squares slope of log y against log x.

    Returns (slope, intercept, residual) where residual is the rms of the
    fit misfit in log space. Points with y <= 0 are rejected outright, a
    decay measurement that hits exact zero means the scan was set up wrong.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0) or np.any(x <= 0):
        raise ValueError("log-log fit needs strictly positive data")
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = coef
    resid = float(np.sqrt(np.mean((A @ coef - ly) ** 2)))
    return float(slope), float(intercept), resid


# ----------------------------------------------------------------------
# C-infinity transition machinery. E(t) = exp(-1/t) extended by 0 for
# t <= 0 is smooth; S(t) = E(t) / (E(t) + E(1-t)) steps monotonically
# from 0 at t <= 0 to 1 at t >= 1 with all derivatives vanishing at the
# junctions.
# ----------------------------------------------------------------------


def _bump_e(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smoothstep(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a = _bump_e(t)
    b = _bump_e(1.0 - t)
    return a / (a + b)


def smoothstep_d1(t):
    """First derivative of smoothstep (analytic)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mask = (t > 0) & (t < 1)
    tm = t[mask]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    s = a + b
    # d/dt [a/(a+b)] = (a' b - a b') / s^2 with a' = a/t^2, b' = -b/(1-t)^2
    out[mask] = (a * b / s**2) * (1.0 / tm**2 + 1.0 / (1.0 - tm) ** 2)
    return out


def smoothstep_d2(t):
    """Second derivative of smoothstep (analytic)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mask = (t > 0) & (t < 1)
    tm = t[mask]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    s = a + b
    u = 1.0 / tm**2
    v = 1.0 / (1.0 - tm) ** 2
    w = a * b / s**2 * (u + v)  # = S'
    # log S' = log a + log b - 2 log s + log(u + v); differentiate once more
    dlog = (
        u
        - v
        - 2.0 * (a * u - b * v) / s
        + (-2.0 / tm**3 + 2.0 / (1.0 - tm) ** 3) / (u + v)
    )
    out[mask] = w * dlog
    return out


def cumtrapz0(y, x):
    """Cumulative trapezoid with a leading zero, matching len(x)."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def loggrid(lo, hi, num):
    """Geometrically spaced grid, the natural sampling for r in [lo, hi]."""
    return np.geomspace(lo, hi, num)
