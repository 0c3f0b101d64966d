"""The stencil layers against the scalar Fornberg reference.

`_reference_fornberg` below is the recursion on numpy float64 scalars.
`stencil_weights` runs the same steps on whole rows and must match it bit
for bit; `fornberg_weights` is its one-window case, `diff_matrix` is
built from that row by row, and `apply_diff` must agree with the dense
matrix up to the rounding of each row's terms.  The difference-form
kernel that Newton and the operator share is tested in test_solver.py.
The closed-form log-log fit is checked against least squares, and
`loggrid` against np.geomspace, bit for bit.
"""

import numpy as np
import pytest

from dehnfill.errors import DehnFillError, GridTooCoarse
from dehnfill.numutil import (
    apply_diff,
    csv_lines,
    diff_matrix,
    fit_loglog,
    fornberg_weights,
    loggrid,
    stencil_weights,
)

GRIDS = {
    "uniform": np.linspace(2.0, 6.0, 64),
    "geometric": np.geomspace(1.0, 50.0, 80),
    # spacings vary by a factor of 3 from node to node
    "random": 1.0 + 0.05 * np.cumsum(
        np.random.default_rng(5).uniform(0.5, 1.5, 50)),
}
STENCILS = [(1, 5), (2, 6), (1, 9), (2, 9)]
# the operator workload's largest grid too
APPLY_GRIDS = {**GRIDS, "geometric4096": np.geomspace(5.0, 500.0, 4096)}
EPS = np.finfo(float).eps


def _reference_fornberg(x0, xs, m):
    """Fornberg's recursion on numpy float64 scalars, step for step."""
    xs = np.asarray(xs, dtype=float)
    nnodes = len(xs)
    c = np.zeros((nnodes, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, nnodes):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@pytest.mark.parametrize("name", GRIDS)
def test_fornberg_weights_match_numpy_scalar_reference_bitwise(name):
    grid = GRIDS[name]
    rng = np.random.default_rng(7)
    for width in range(1, 13):
        for m in range(min(width, 5)):
            for lo in (0, len(grid) // 2, len(grid) - width):
                xs = grid[lo : lo + width]
                # on a node (each end and the middle) and off the nodes
                x0s = [xs[0], xs[width // 2], xs[-1],
                       rng.uniform(xs[0], xs[-1] + 0.1)]
                for x0 in x0s:
                    got = fornberg_weights(x0, xs, m)
                    want = _reference_fornberg(x0, xs, m)
                    assert np.array_equal(got, want), (width, m, x0)
                    assert got.shape == want.shape


@pytest.mark.parametrize("nnodes, m", [(0, 0), (1, 1), (2, 2), (3, 4)])
def test_fornberg_weights_too_few_nodes(nnodes, m):
    with pytest.raises(GridTooCoarse):
        fornberg_weights(0.0, np.arange(float(nnodes)), m)


@pytest.mark.parametrize("deriv, width", STENCILS)
@pytest.mark.parametrize("name", GRIDS)
def test_rows_match_scalar_fornberg_bitwise(name, deriv, width):
    grid = GRIDS[name]
    idx, w = stencil_weights(grid, deriv, width, at=grid)
    assert idx.shape == w.shape == (len(grid), width)
    D = diff_matrix(grid, deriv, width)
    for i in range(len(grid)):
        assert np.all(np.diff(idx[i]) == 1) and idx[i, 0] <= i <= idx[i, -1]
        assert np.array_equal(w[i], fornberg_weights(grid[i], grid[idx[i]], deriv))
        # the same window as the dense matrix, which is zero elsewhere
        assert np.array_equal(D[i, idx[i]], w[i])
        assert np.count_nonzero(D[i]) == np.count_nonzero(w[i])


@pytest.mark.parametrize("deriv, width", STENCILS)
@pytest.mark.parametrize("name", GRIDS)
def test_stencils_at_the_nodes_are_the_row_stencils_bitwise(name, deriv, width):
    # all nodes at once give each node's own stencil, window and weights,
    # and w is the transposed (width, npts) plane
    grid = GRIDS[name]
    idx, w = stencil_weights(grid, deriv, width, at=grid)
    assert w.strides == (8, 8 * len(grid))
    for i in range(len(grid)):
        idx_i, w_i = stencil_weights(grid, deriv, width, at=grid[i:i + 1])
        assert np.array_equal(idx_i[0], idx[i])
        assert np.array_equal(w_i[0], w[i])


@pytest.mark.parametrize("deriv", [0, 1, 2])
@pytest.mark.parametrize("name", GRIDS)
def test_stencils_at_points_match_scalar_fornberg_bitwise(name, deriv):
    grid = GRIDS[name]
    width, npts = 9, len(grid)
    at = np.sort(np.random.default_rng(9).uniform(grid[0], grid[-1], 60))
    at = np.concatenate([grid[:1], at, grid[-1:]])
    idx, w = stencil_weights(grid, deriv, width, at=at)
    assert idx.shape == w.shape == (len(at), width)
    for q, x in enumerate(at):
        assert np.all(np.diff(idx[q]) == 1)
        assert grid[idx[q, 0]] <= x <= grid[idx[q, -1]]
        # centred on the interval that holds x, away from the ends
        if 0 < idx[q, 0] < npts - width:
            assert grid[idx[q, width // 2 - 1]] < x <= grid[idx[q, width // 2]]
        assert np.array_equal(w[q], fornberg_weights(x, grid[idx[q]], deriv))


@pytest.mark.parametrize("deriv, width", STENCILS)
@pytest.mark.parametrize("name", GRIDS)
def test_apply_diff_matches_dense_matrix(name, deriv, width):
    grid = GRIDS[name]
    D = diff_matrix(grid, deriv, width)
    rng = np.random.default_rng(6)
    for values in (np.sin(grid), rng.standard_normal((len(grid), 3))):
        got = apply_diff(grid, values, deriv, width)
        want = D @ values
        assert got.shape == want.shape
        # relative to the size of each row's terms, which the sum cancels
        assert np.all(np.abs(got - want) <= 1e-12 * (np.abs(D) @ np.abs(values)))


@pytest.mark.parametrize("deriv, width", STENCILS + [(0, 3)])
def test_stencil_weights_keep_only_their_plane(deriv, width):
    # w views one (width, npts) plane; the lower derivative orders and the
    # scratch rows of the recursion are freed on return
    grid = APPLY_GRIDS["geometric4096"]
    w = stencil_weights(grid, deriv, width, at=grid)[1]
    assert w.base.nbytes == w.nbytes == 4096 * width * 8


@pytest.mark.parametrize("deriv, width", STENCILS)
@pytest.mark.parametrize("name", GRIDS)
def test_polynomials_below_width_are_exact(name, deriv, width):
    grid = GRIDS[name]
    mid, half = 0.5 * (grid[0] + grid[-1]), 0.5 * (grid[-1] - grid[0])
    p = np.polynomial.Polynomial(np.random.default_rng(8).uniform(-1.0, 1.0, width),
                                 domain=[mid - half, mid + half])
    idx, w = stencil_weights(grid, deriv, width, at=grid)
    values = p(grid)
    err = np.abs(apply_diff(grid, values, deriv, width) - p.deriv(deriv)(grid))
    # rounding of the weighted sum and of the weights themselves
    scale = np.sum(np.abs(w) * np.abs(values[idx]), axis=1)
    assert np.all(err <= 1e3 * EPS * scale)


@pytest.mark.parametrize("npts, deriv, width", [(4, 1, 5), (8, 2, 9), (10, 2, 2),
                                                (10, 1, 1)])
def test_too_coarse_is_rejected(npts, deriv, width):
    grid = np.linspace(1.0, 2.0, npts)
    with pytest.raises(GridTooCoarse):
        stencil_weights(grid, deriv, width, at=grid)
    with pytest.raises(GridTooCoarse):
        apply_diff(grid, grid, deriv, width)


_CSV_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, 3.0, -7.0, 2.0**60,
                0.1, np.finfo(float).max, -np.finfo(float).max,
                np.finfo(float).tiny, np.inf, -np.inf, np.nan]


def test_csv_lines_match_per_element_formatting():
    rng = np.random.default_rng(11)
    kinds = [lambda rows: rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
             lambda rows: rng.uniform(-1.0, 1.0, rows),
             lambda rows: rng.permutation(np.resize(_CSV_SPECIAL, rows)),
             lambda rows: np.round(rng.uniform(-1e6, 1e6, rows))]
    for ncols in (1, 2, 8, 14):
        for rows in (0, 1, 40):
            cols = [kinds[k % 4](rows) for k in range(ncols)]
            want = [",".join(f"{float(x):.17g}" for x in row)
                    for row in zip(*cols)]
            assert len(want) == rows
            assert csv_lines(*cols) == want, (ncols, rows)
    assert csv_lines() == []
    assert csv_lines([5e-324, np.inf], [-0.0, -np.inf], [np.nan, 1.7976931348623157e308]) == [
        "4.9406564584124654e-324,-0,nan", "inf,-inf,1.7976931348623157e+308"]
    # tuples of floats, one column, and round trips
    assert csv_lines((1.5, -0.0)) == ["1.5", "-0"]
    assert [float(x) for x in csv_lines(cols[0])] == cols[0].tolist()


@pytest.mark.parametrize("columns", [((1.0, 2.0, 3.0), (4.0,)),
                                     ((1.0,), ()),
                                     ((), (1.0,), ()),
                                     ((1.0, 2.0), (3.0, 4.0), (5.0,))])
def test_csv_lines_reject_unequal_columns(columns):
    # zip would silently drop the rows past the shortest column
    with pytest.raises(ValueError, match="differ in length"):
        csv_lines(*columns)


@pytest.mark.parametrize("npts", range(3, 13))
def test_fit_loglog_matches_least_squares(npts):
    # the slope and intercept from centred sums against numpy's SVD
    # least squares on the same log data, and the rms misfit of that line
    rng = np.random.default_rng(npts)
    for _ in range(20):
        x = np.sort(rng.uniform(1.0, 1e3, npts))
        y = np.exp(rng.uniform(-3.0, 3.0)) * x ** rng.uniform(-6.0, -1.0)
        y *= np.exp(rng.normal(scale=0.3, size=npts))
        A = np.vstack([np.log(x), np.ones(npts)]).T
        coef, *_ = np.linalg.lstsq(A, np.log(y), rcond=None)
        resid = np.sqrt(np.mean((A @ coef - np.log(y)) ** 2))
        got = fit_loglog(x, y)
        assert got[:2] == pytest.approx(tuple(coef), rel=1e-12)
        assert got[2] == pytest.approx(resid, rel=1e-12)


@pytest.mark.parametrize("x, y", [
    ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]), ([5.0], [1.0]), ([], []),
    ([1.0, 2.0, 3.0], [1.0, 0.0, 3.0]), ([-1.0, 2.0], [1.0, 2.0]),
    ([1.0, 2.0, 3.0], [1.0, 2.0]),
    ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, np.nan, 3.0]),
    ([1.0, 2.0, np.inf], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, np.inf, 3.0])],
    ids=["equal-x", "one-point", "empty", "zero-y", "negative-x", "lengths",
         "nan-x", "nan-y", "inf-x", "inf-y"])
def test_fit_loglog_rejects_data_without_a_line(x, y):
    # least squares used to return a minimum-norm line through equal x
    with pytest.raises(ValueError):
        fit_loglog(x, y)


def _same_array(a, b):
    return (a.shape == b.shape and a.strides == b.strides
            and a.tobytes("A") == b.tobytes("A"))


def test_loggrid_matches_geomspace_bit_for_bit():
    # 12000 scalar draws: ends anywhere from 1e-300 to 1e300, spans from a
    # few ulps to 600 decades, num from 2 up
    rng = np.random.default_rng(32)
    for k in range(12000):
        e = rng.uniform(-300.0, 300.0)
        span = 10.0 ** rng.uniform(-15.0, 2.8)
        lo, hi = 10.0 ** e, 10.0 ** min(e + span, 300.0)
        num = 2 if k % 5 == 0 else int(rng.integers(3, 600))
        if not lo < hi:
            continue
        assert _same_array(loggrid(lo, hi, num), np.geomspace(lo, hi, num)), (
            lo, hi, num)
    # the (S,) form: one row per pair, geomspace's axis=1 result and layout
    for k in range(300):
        size = int(rng.integers(1, 7))
        lo = 10.0 ** rng.uniform(-300.0, 290.0, size)
        hi = lo * 10.0 ** rng.uniform(1e-12, 10.0, size)
        num = 2 if k % 5 == 0 else int(rng.integers(3, 1100))
        got = loggrid(lo, hi, num)
        assert got.shape == (size, num)
        assert _same_array(got, np.geomspace(lo, hi, num, axis=1))


@pytest.mark.parametrize("lo, hi, num", [
    (1.0, 2.0, 1), (1.0, 2.0, 0), (1.0, 2.0, -1), (1.0, 2.0, 2.0),
    (1.0, 2.0, True), (1.0, 2.0, "4"), (0.0, 2.0, 4), (-1.0, 2.0, 4),
    (2.0, 2.0, 4), (3.0, 2.0, 4), (1.0, np.inf, 4), (np.nan, 2.0, 4),
    (1.0, np.nan, 4), (np.array([1.0, 3.0]), np.array([2.0, 2.0]), 4),
])
def test_loggrid_rejects_invalid_input(lo, hi, num):
    with pytest.raises(DehnFillError):
        loggrid(lo, hi, num)
