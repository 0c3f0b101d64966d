import math

import numpy as np
import pytest

from dehnfill.errors import (
    GridTooCoarse,
    InvalidRho,
    InvalidWeight,
    NonFiniteField,
    OutOfDomain,
)
from dehnfill.gluing import deficit_norm
from dehnfill.norms import (
    WeightSpec,
    _cusp_weight,
    _holder_quotient,
    decay_weight,
    default_core_scale,
    default_delta,
    discrete_holder_seminorm,
    phi_c,
    phi_c_raw,
)
from dehnfill.profiles import black_hole_metric, closing_parameters


def test_phi_c_flat_core_value():
    w = WeightSpec(n=4, R=(100.0,), r_c=(50.0,))
    r_plus, _ = closing_parameters(1.0, 4)
    assert phi_c(w, 0, r_plus) == 0.5


def test_phi_c_outer_edge():
    w = WeightSpec(n=4, R=(100.0,), r_c=(50.0,))
    assert phi_c(w, 0, 100.0) == pytest.approx(1.0, abs=1e-14)


def test_phi_c_degenerate_cutoff_is_one():
    w = WeightSpec(n=4, R=(100.0,), r_c=(100.0,))
    r = np.linspace(1.0, 100.0, 57)
    assert np.all(phi_c(w, 0, r) == 1.0)


def test_phi_c_shape():
    w = WeightSpec(n=5, R=(200.0,), r_c=(40.0,))
    r = np.linspace(0.5, 200.0, 4001)
    vals = phi_c(w, 0, r)
    assert np.all(vals <= 1.0 + 1e-12)
    assert np.all(vals >= 40.0 / 200.0 - 1e-12)
    assert np.all(np.diff(vals) >= -1e-12)
    # smoothing keeps the corner C^1: the slope stays of the order of the
    # outer branch 1/R (the blend overshoots mildly inside its window)
    dd = np.diff(vals) / np.diff(r)
    assert np.max(dd) < 1.5 / 200.0


def test_phi_c_domain_errors():
    w = WeightSpec(n=4, R=(100.0,), r_c=(50.0,))
    with pytest.raises(OutOfDomain):
        phi_c(w, 0, 150.0)
    with pytest.raises(OutOfDomain):
        phi_c(w, 0, -1.0)
    with pytest.raises(InvalidWeight):
        phi_c(w, 3, 10.0)


def test_decay_weight_values():
    w2 = WeightSpec(n=4, R=(10.0,), delta=2.0)
    assert decay_weight(w2, 2.0) == 1.0
    assert decay_weight(w2, 0.5) == pytest.approx(16.0, abs=1e-12)
    w_auto = WeightSpec(n=5, R=(10.0,))
    assert w_auto.delta == 3.0
    assert decay_weight(w_auto, 1.0) == pytest.approx(8.0, abs=1e-12)


def test_decay_weight_rejects_bad_rho():
    w = WeightSpec(n=4, R=(10.0,))
    for rho in (0.0, -0.5, 2.5, np.nan):
        with pytest.raises(InvalidRho):
            decay_weight(w, rho)


def test_weighted_sup_zero_field():
    # deficit_norm's weighted sup of the black hole's exact-zero deficit
    w = WeightSpec(n=4, R=(1e9,), r_c=(50.0,))
    met = black_hole_metric(1.0, 4)
    assert deficit_norm(met, w, include_seminorms=False) == 0.0


def test_weighted_sup_cancels_phi_c():
    # with delta = 0 the weight is 1/phi_c
    w = WeightSpec(n=4, R=(100.0,), r_c=(50.0,), delta=0.0)
    grid = np.linspace(2.0, 100.0, 257)
    vals = phi_c(w, 0, grid)
    assert np.max(_cusp_weight(w, grid[None]) * vals) == pytest.approx(1.0, abs=1e-12)


def test_weighted_sup_constant_field():
    w = WeightSpec(n=4, R=(100.0,), r_c=(50.0,), delta=0.0)
    grid = np.linspace(2.0, 100.0, 257)
    out = np.max(_cusp_weight(w, grid[None]))
    assert out == pytest.approx(2.0, abs=1e-12)


def test_seminorm_constant_field():
    grid = np.linspace(1.0, 2.0, 20)
    assert discrete_holder_seminorm(np.ones(20), grid) == 0.0


def test_seminorm_linear_field_lipschitz():
    grid = np.arange(0.0, 10.0, 1.0)
    out = discrete_holder_seminorm(grid.copy(), grid, alpha=1.0, order=0)
    assert out == pytest.approx(1.0, abs=1e-12)


def test_seminorm_sqrt_larger_near_zero():
    near0 = np.linspace(0.01, 0.11, 40)
    near1 = np.linspace(1.0, 1.1, 40)
    s0 = discrete_holder_seminorm(np.sqrt(near0), near0, alpha=0.5)
    s1 = discrete_holder_seminorm(np.sqrt(near1), near1, alpha=0.5)
    assert s0 > s1


def test_seminorm_validation():
    grid = np.linspace(0.0, 1.0, 3)
    with pytest.raises(GridTooCoarse):
        discrete_holder_seminorm(np.ones(2), np.array([0.0, 1.0]))
    with pytest.raises(GridTooCoarse):
        discrete_holder_seminorm(grid.copy(), grid, order=2)
    with pytest.raises(InvalidWeight):
        discrete_holder_seminorm(grid.copy(), grid, order=3)
    with pytest.raises(InvalidWeight):
        discrete_holder_seminorm(grid.copy(), grid, alpha=0.0)
    with pytest.raises(InvalidWeight):
        discrete_holder_seminorm(grid.copy(), grid, alpha=1.5)
    # a NaN node makes the quotient nan, an infinite one meaningless
    for bad in ([0.0, math.nan, 1.0], [0.0, 0.5, math.inf]):
        with pytest.raises(NonFiniteField):
            discrete_holder_seminorm(np.ones(3), np.array(bad))


def test_weightspec_validation_and_defaults():
    with pytest.raises(InvalidWeight):
        WeightSpec(n=2, R=(10.0,))
    with pytest.raises(InvalidWeight):
        WeightSpec(n=4, R=(10.0,), delta=-1.0)
    with pytest.raises(InvalidWeight):
        WeightSpec(n=4, R=(10.0,), r_c=(20.0,))
    with pytest.raises(InvalidWeight):
        WeightSpec(n=4, R=(10.0, 20.0), r_c=(5.0,))
    w = WeightSpec(n=4, R=(50.0,))
    assert w.delta == default_delta(4) == 2.25
    assert w.r_c[0] == pytest.approx(default_core_scale(50.0, 4), abs=1e-14)
    r_plus, _ = closing_parameters(1.0, 4)
    assert w.r_c[0] == pytest.approx(math.sqrt(r_plus * 50.0), abs=1e-12)


def _decade_mass(w, k):
    # squared weighted-bounded field against the testbed volume density
    # r^{n-2}: a field with unit weighted sup norm satisfies
    # |u| <= (2r)^{-delta} on the infinite end where rho = 1/r
    r = np.linspace(10.0 ** k, 10.0 ** (k + 1), 4000)
    u = 1.0 / decay_weight(w, 1.0 / r)
    return float(np.trapezoid(u ** 2 * r ** (w.n - 2), r))


def test_l2_window_square_summability():
    n = 5
    w_in = WeightSpec(n=n, R=(10.0,))
    masses = [_decade_mass(w_in, k) for k in range(6)]
    ratios = [masses[k + 1] / masses[k] for k in range(5)]
    assert all(rat < 1.0 for rat in ratios)
    # the tail is geometric, so the partial sums converge: the full sum is
    # within one more ratio-step of its truncation
    assert masses[-1] < 1e-4 * masses[0]

    w_out = WeightSpec(n=n, R=(10.0,), delta=0.4 * (n - 1))
    masses = [_decade_mass(w_out, k) for k in range(6)]
    ratios = [masses[k + 1] / masses[k] for k in range(5)]
    assert all(rat > 1.0 for rat in ratios)


@pytest.mark.parametrize("build, error", [
    (lambda: WeightSpec(n=4, R=(10.0,), delta=math.nan), InvalidWeight),
    (lambda: WeightSpec(n=4, R=(10.0,), delta=math.inf), InvalidWeight),
    (lambda: WeightSpec(n=4, R=(math.inf,)), InvalidWeight),
    (lambda: WeightSpec(n=4, R=10**400), InvalidWeight),
    (lambda: WeightSpec(n=4, R=(50.0,), delta=10**400), InvalidWeight),
    (lambda: WeightSpec(n=4, R=(50.0,), r_c=10**400), InvalidWeight),
    (lambda: WeightSpec(n="4", R=(50.0,)), InvalidWeight),
    # with delta and r_c given, no default checks n on the way
    (lambda: WeightSpec(n=4.5, R=(50.0,), delta=1.0, r_c=(5.0,)), InvalidWeight),
    (lambda: WeightSpec(n=40, R=(50.0,), delta=1.0, r_c=(5.0,)), InvalidWeight),
    (lambda: WeightSpec(n=True, R=(50.0,), delta=1.0, r_c=(5.0,)), InvalidWeight),
], ids=["delta-nan", "delta-inf", "R-inf", "R-huge-int", "delta-huge-int",
        "r_c-huge-int", "n-string", "n-fractional", "n-above-max", "n-bool"])
def test_constructors_reject_non_finite(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_holder_quotient_matches_per_column_seminorms_bitwise(order, alpha):
    # gluing takes the seminorm of every deficit component in one call
    rng = np.random.default_rng(7)
    for npts, k in [(3, 1), (40, 3), (300, 6), (1024, 4)]:
        grid = np.cumsum(rng.uniform(0.01, 1.0, npts))
        field = rng.standard_normal((npts, k)) * 10.0 ** rng.integers(-8, 8, k)
        want = max(discrete_holder_seminorm(field[:, a], grid, alpha=alpha,
                                            order=order) for a in range(k))
        assert np.max(_holder_quotient(field.T, grid, alpha, order)) == want


def test_decay_weight_rejects_overflow():
    w = WeightSpec(n=4, R=(100.0,), delta=1e150)
    with pytest.raises(InvalidWeight, match="overflows"):
        decay_weight(w, np.array([0.5, 1.0, 2.0]))
    with pytest.raises(InvalidWeight, match="overflows"):
        decay_weight(w, 0.5)
    # at rho = 2 the weight is 1 for any delta
    assert decay_weight(w, 2.0) == 1.0


def test_phi_c_rows_are_their_one_cusp_weights():
    # (S, 1) columns of r_c and R give each row its scalar phi_c bit for
    # bit, also beside a row with no room to smooth (r_c within 5 % of R)
    R = np.array([[100.0], [40.0], [7.5]])
    r_c = np.array([[20.0], [39.0], [3.0]])
    r = np.linspace(0.05, 1.0, 300) * R
    rows = phi_c_raw(r, r_c, R)
    for s in range(3):
        assert np.array_equal(rows[s], phi_c_raw(r[s], r_c[s, 0], R[s, 0]))
    with pytest.raises(OutOfDomain, match="filling size 40.0$"):
        phi_c_raw(r * np.array([[1.0], [1.5], [1.0]]), r_c, R)
