"""Small numerical helpers used throughout: finite-difference weights on
arbitrary grids (Fornberg's algorithm), differentiation matrices, log-log
slope fits, the C-infinity transition bump and the CSV number format.
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


def _window_starts(npts, width, pos=None):
    """First index of the window of `width` consecutive nodes for each row
    of a grid of npts nodes, or for each position pos (the index at which
    a query point falls, from `np.searchsorted`).

    The window is centred on its row where possible and shifted one-sided
    near the ends, so it always lies inside the grid.
    """
    if npts < width:
        raise GridTooCoarse(f"grid has {npts} points, stencil needs {width}")
    pos = np.arange(npts) if pos is None else pos
    return np.clip(pos - width // 2, 0, npts - width)


def stencil_weights(grid, deriv, width, at=None):
    """Finite-difference stencils of every row of an ascending grid, or of
    every point of the 1-d array `at`.

    Returns (idx, w), both of shape (npts, width) for npts rows: row q
    approximates the deriv-th derivative at at[q] (default grid[q]) by
    sum_k w[q, k] f(grid[idx[q, k]]), on the window of `_window_starts`
    around the index where at[q] falls; deriv 0 interpolates.  This is
    `fornberg_weights` run for all rows at once, looping over the width
    and derivative order only; every arithmetic step keeps its order, so
    each row is bit-identical to the scalar result.  The steps run in
    place on one contiguous (width, npts) plane per derivative order, and
    w is the last plane transposed, so the lower orders and the scratch
    rows are freed on return.
    """
    grid = np.asarray(grid, dtype=float)
    if width < deriv + 1:
        raise GridTooCoarse(
            f"need at least {deriv + 1} nodes for derivative order {deriv}")
    x0 = grid if at is None else np.asarray(at, dtype=float)
    pos = None if at is None else np.searchsorted(grid, x0)
    idx = _window_starts(len(grid), width, pos)[:, None] + np.arange(width)
    xs = grid[idx.T]
    npts = len(x0)
    c = [np.zeros((width, npts)) for _ in range(deriv + 1)]
    c[0][0] = 1.0
    c1 = 1.0
    c4, c5 = xs[0] - x0, np.empty(npts)
    c3 = np.empty((width - 1, npts))
    # c1 is the previous step's c2, so the two alternate between buffers
    products = np.empty((2, npts))
    t = np.empty_like(c3)
    for i in range(1, width):
        mn = min(i, deriv)
        c4, c5 = c5, c4
        np.subtract(xs[i], x0, out=c4)
        # c3[j] = xs[i] - xs[j]; c2 is their product over j < i, in order,
        # from 1.0 * c3[0], which is c3[0] exactly
        np.subtract(xs[i], xs[:i], out=c3[:i])
        c2 = products[i % 2]
        c2[:] = c3[0]
        for j in range(1, i):
            np.multiply(c2, c3[j], out=c2)
        # row i from row i-1, which the updates below have not reached yet
        for k in range(mn, 0, -1):
            new = c[k][i]
            np.multiply(c5, c[k][i - 1], out=new)
            np.subtract(_times(k, c[k - 1][i - 1], t[0]), new, out=new)
            np.multiply(c1, new, out=new)
            np.divide(new, c2, out=new)
        new = c[0][i]
        np.negative(c1, out=new)
        np.multiply(new, c5, out=new)
        np.multiply(new, c[0][i - 1], out=new)
        np.divide(new, c2, out=new)
        # rows j < i, each row independent of the others
        for k in range(mn, 0, -1):
            ck = c[k][:i]
            np.multiply(c4, ck, out=ck)
            np.subtract(ck, _times(k, c[k - 1][:i], t[:i]), out=ck)
            np.divide(ck, c3[:i], out=ck)
        np.multiply(c4, c[0][:i], out=c[0][:i])
        np.divide(c[0][:i], c3[:i], out=c[0][:i])
        c1 = c2
    # w is a transposed view, so each row has a non-unit stride like the
    # scalar result and apply_stencil's BLAS calls round like
    # `fornberg_weights(...) @ window`
    return idx, c[deriv].T


def _times(k, a, out):
    """k * a, into out unless k is 1, where the product is a itself."""
    return a if k == 1 else np.multiply(k, a, out=out)


def apply_stencil(stencil, values):
    """Apply (idx, w) from `stencil_weights` to samples along axis 0.

    values is (npts,) or (npts, m).  Three batched matmuls reduce the rows
    on the first window, those in between and those on the last against a
    strided view of every window of `width` consecutive rows, with no
    gathered copy.  The operands keep the strides of the per-row
    `w @ window` product, so each row rounds like it.
    """
    idx, w = stencil
    npts, width = w.shape
    values = np.ascontiguousarray(values, dtype=float)
    cols = values.reshape(npts, -1)
    s0, s1 = cols.strides
    # win[q] is rows q .. q+width-1 of cols
    win = np.ndarray((npts - width + 1, width, cols.shape[1]), float,
                     buffer=cols, strides=(s0, s0, s1))
    # window starts rise by one from row to row between the two ends
    s = idx[:, 0]
    lo, hi = np.searchsorted(s, [s[0] + 1, s[-1]])
    out = np.empty((npts, 1, cols.shape[1]))
    np.matmul(w[:lo, None], win[s[0]], out=out[:lo])
    np.matmul(w[lo:hi, None], win[s[0] + 1 : s[-1]], out=out[lo:hi])
    np.matmul(w[hi:, None], win[s[-1]], out=out[hi:])
    return out.reshape(values.shape)


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
    full matrix or gathering the windows: the rows of `diff_matrix`, built
    vectorized by `stencil_weights` and applied by `apply_stencil`.
    Callers that differentiate several arrays on one grid should build the
    stencil once and call `apply_stencil` themselves.
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


# exp(-1/t) is exactly 0 once 1/t > 745.2, so up to _T_EDGE the step is 0
# and its derivatives too; evaluating there gives 0 * inf once t**2
# underflows.  Below t = 1, 1 - t >= 2**-53, so that end needs no guard.
_T_EDGE = 1.0 / 746.0


def _edge_terms(t):
    """t as an array, the mask of (_T_EDGE, 1), and t, E(t), E(1-t) there."""
    t = np.asarray(t, dtype=float)
    inside = (t > _T_EDGE) & (t < 1.0)
    tm = t[inside]
    return t, inside, tm, np.exp(-1.0 / tm), np.exp(-1.0 / (1.0 - tm))


def smoothstep(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t, inside, _, a, b = _edge_terms(t)
    out = np.heaviside(t - 0.5, 1.0, out=np.empty_like(t))
    out[inside] = a / (a + b)
    return out


def smoothstep_d1(t):
    """First derivative of smoothstep (analytic)."""
    t, inside, tm, a, b = _edge_terms(t)
    out = np.zeros_like(t)
    s = a + b
    # d/dt [a/(a+b)] = (a' b - a b') / s^2 with a' = a/t^2, b' = -b/(1-t)^2
    out[inside] = (a * b / s**2) * (1.0 / tm**2 + 1.0 / (1.0 - tm) ** 2)
    return out


def smoothstep_d2(t):
    """Second derivative of smoothstep (analytic)."""
    t, inside, tm, a, b = _edge_terms(t)
    out = np.zeros_like(t)
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
    out[inside] = w * dlog
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


def csv_lines(*columns):
    """One CSV line per index of the equal-length columns, each field %.17g,
    which round-trips every float64 and prints like f"{float(x):.17g}"."""
    template = ",".join(["%.17g"] * len(columns))
    return [template % row for row in
            zip(*(np.asarray(c, dtype=float).tolist() for c in columns))]
