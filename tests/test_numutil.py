"""The stencil layers against the scalar Fornberg reference.

`_reference_fornberg` below is the recursion on numpy float64 scalars.
`fornberg_weights` runs the same steps on Python floats and must match it
bit for bit, memory strides included; `diff_matrix` is built from it row
by row, and `stencil_weights`/`apply_stencil` must reproduce it exactly.
`_reference_apply` is the gathered batched product that `apply_stencil`
replaces, which its sliding-window reduction must match bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from dehnfill.errors import GridTooCoarse
from dehnfill.numutil import (
    apply_diff,
    apply_stencil,
    csv_lines,
    diff_matrix,
    fornberg_weights,
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
# the sliding-window reduction also at the operator workload's largest grid
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


def _reference_apply(stencil, values):
    """The stencil applied through a gathered (npts, width, cols) copy."""
    idx, w = stencil
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        return (w[:, None, :] @ values[idx][:, :, None])[:, 0, 0]
    return (w[:, None, :] @ values[idx])[:, 0]


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
                    # a strided column view, like the reference, so BLAS
                    # products with it round the same way
                    assert got.shape == want.shape
                    assert got.strides == want.strides


@pytest.mark.parametrize("nnodes, m", [(0, 0), (1, 1), (2, 2), (3, 4)])
def test_fornberg_weights_too_few_nodes(nnodes, m):
    with pytest.raises(GridTooCoarse):
        fornberg_weights(0.0, np.arange(float(nnodes)), m)


@pytest.mark.parametrize("deriv, width", STENCILS)
@pytest.mark.parametrize("name", GRIDS)
def test_rows_match_scalar_fornberg_bitwise(name, deriv, width):
    grid = GRIDS[name]
    idx, w = stencil_weights(grid, deriv, width)
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


def test_apply_stencil_matches_per_row_products_bitwise():
    grid = GRIDS["geometric"]
    st = stencil_weights(grid, 2, 6)
    idx = st[0]
    for values in (np.cos(grid), np.random.default_rng(7).standard_normal((len(grid), 4))):
        want = np.array([fornberg_weights(grid[i], grid[idx[i]], 2) @ values[idx[i]]
                         for i in range(len(grid))])
        assert np.array_equal(apply_stencil(st, values), want)


@pytest.mark.parametrize("deriv, width", STENCILS + [(0, 3)])
@pytest.mark.parametrize("name", APPLY_GRIDS)
def test_apply_stencil_matches_gathered_product_bitwise(name, deriv, width):
    grid = APPLY_GRIDS[name]
    st = stencil_weights(grid, deriv, width)
    # the table is (deriv+1, width, npts) and w a view of its last plane
    assert st[1].T.flags.c_contiguous
    rng = np.random.default_rng(12)
    for shape in [(len(grid),)] + [(len(grid), k) for k in (1, 2, 3, 6, 15)]:
        # values of mixed magnitude, so a change of summation order shows
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
        got = apply_stencil(st, values)
        want = _reference_apply(st, values)
        assert got.shape == want.shape == shape
        assert np.array_equal(got, want), (shape, np.max(np.abs(got - want)))
    # a strided input too
    wide = rng.standard_normal((len(grid), 8))
    assert np.array_equal(apply_stencil(st, wide[:, ::2]),
                          _reference_apply(st, wide[:, ::2]))


def test_apply_stencil_allocates_no_gather():
    grid = APPLY_GRIDS["geometric4096"]
    st = stencil_weights(grid, 2, 6)
    values = np.random.default_rng(13).standard_normal((len(grid), 6))
    tracemalloc.start()
    try:
        out = apply_stencil(st, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a gathered (npts, width, cols) copy alone would be width x the output
    assert peak < 2 * out.nbytes


@pytest.mark.parametrize("deriv, width", STENCILS)
@pytest.mark.parametrize("name", GRIDS)
def test_polynomials_below_width_are_exact(name, deriv, width):
    grid = GRIDS[name]
    mid, half = 0.5 * (grid[0] + grid[-1]), 0.5 * (grid[-1] - grid[0])
    p = np.polynomial.Polynomial(np.random.default_rng(8).uniform(-1.0, 1.0, width),
                                 domain=[mid - half, mid + half])
    idx, w = stencil_weights(grid, deriv, width)
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
        stencil_weights(grid, deriv, width)
    with pytest.raises(GridTooCoarse):
        apply_diff(grid, grid, deriv, width)


def test_csv_lines_match_per_element_formatting():
    rng = np.random.default_rng(11)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, 3.0, -7.0, 2.0**60,
               0.1, np.finfo(float).max, np.finfo(float).tiny]
    cols = [rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40),
            rng.uniform(-1.0, 1.0, 40),
            np.resize(special, 40),
            np.round(rng.uniform(-1e6, 1e6, 40))]
    want = [",".join(f"{float(x):.17g}" for x in row) for row in zip(*cols)]
    assert csv_lines(*cols) == want
    # tuples of floats, one column, and round trips
    assert csv_lines((1.5, -0.0)) == ["1.5", "-0"]
    assert [float(x) for x in csv_lines(cols[0])] == cols[0].tolist()
