import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dehnfill import solver
from dehnfill.errors import (
    AnchorOutsideGrid,
    GridTooCoarse,
    InvalidMass,
    InvalidWeight,
    NonFiniteField,
    NonPositiveProfile,
    OutOfDomain,
    RadiusTooSmall,
    ScanMissing,
    SingularAtCore,
)
from dehnfill.gluing import DecayScanResult
from dehnfill.lattice import GeodesicClass
from dehnfill.linearized import bump_deformation, compare_operators
from dehnfill.norms import (WeightSpec, default_core_scale, default_delta,
                            phi_c, phi_c_raw)
from dehnfill.numutil import diff_matrix, loggrid, stencil_weights
from dehnfill.profiles import (
    MAX_DIMENSION,
    BlackHoleProfile,
    CuspProfile,
    FillingMetric,
    GluedProfile,
    SampledProfile,
    closing_parameters,
)
from dehnfill.solver import (
    BudgetReport,
    EinsteinSolveResult,
    NewtonConfig,
    einstein_residual,
    euler_reconstruct,
    fitted_mass,
    newton_solve,
    oscillation_bound,
    oscillation_closed_form,
    perturbation_budget,
)


def test_euler_reconstruct_zero_rhs():
    grid = loggrid(1.0, 10.0, 500)
    _, f = euler_reconstruct(4, (grid, np.zeros(500)), (1.0, 0.0))
    assert np.max(np.abs(f)) == 0.0
    _, f = euler_reconstruct(4, (grid, np.zeros(500)), (2.0, 3.5))
    assert np.allclose(f, 3.5, atol=1e-14)


def test_euler_reconstruct_decaying_solution():
    # f = 1/r solves r^2 f'' + n r f' = (2-n)/r; with the grid starting
    # far inside, the inner-regularity normalization's homogeneous
    # correction b r^{1-n} has died off by r = 1
    n = 4
    grid = loggrid(1e-3, 10.0, 16000)
    rhs = (2.0 - n) / grid
    _, f = euler_reconstruct(n, (grid, rhs), (1.0, 1.0))
    mask = grid >= 1.0
    assert np.max(np.abs(f[mask] - 1.0 / grid[mask])) < 1e-6


def test_euler_reconstruct_roundtrip():
    # rhs generated from a known f with f'(r_lo) = 0, so the
    # reconstruction's normalization agrees with the target
    n = 4
    grid = loggrid(1.0, 20.0, 8000)
    x = np.log(grid)
    f_true = np.cos(x)
    rhs = -np.cos(x) + (1.0 - n) * np.sin(x)
    _, f = euler_reconstruct(n, (grid, rhs), (1.0, 1.0))
    assert np.max(np.abs(f - f_true)) < 1e-6


def test_euler_reconstruct_applyL_roundtrip():
    # same loop with the rhs produced by the cusp's operator instead of
    # analytically; apply_L returns A f = -(r^2 f'' + n r f')
    from dehnfill.linearized import InvariantDeformation, apply_L

    n = 5
    grid = loggrid(1.0, 20.0, 8000)
    f_true = np.cos(np.log(grid))
    # jk has one column per torus pair, (n-2)(n-3)/2 = 3 at n = 5
    h = InvariantDeformation(n=n, grid=grid,
                             components={"jk": np.tile(f_true[:, None], 3)})
    out = apply_L(CuspProfile(n), h)
    rhs = -out.block("jk")[:, 0]
    _, f = euler_reconstruct(n, (grid, rhs), (1.0, 1.0))
    assert np.max(np.abs(f - f_true)) < 1e-6


def test_euler_reconstruct_anchor_check():
    grid = loggrid(1.0, 10.0, 500)
    with pytest.raises(AnchorOutsideGrid):
        euler_reconstruct(4, (grid, np.zeros(500)), (0.5, 0.0))


def test_oscillation_zero_rhs():
    grid = loggrid(1.0, 50.0, 1000)
    bound, measured = oscillation_bound((grid, np.zeros(1000)), None,
                                        2.0, 30.0, 4)
    assert bound == 0.0
    assert measured == 0.0


def test_oscillation_constant_rhs():
    # for a one-signed rhs the quadrature bound is attained exactly and
    # both match the closed-form factor
    grid = loggrid(1.0, 50.0, 4000)
    eps = 0.73
    bound, measured = oscillation_bound((grid, np.full(4000, eps)), None,
                                        2.0, 30.0, 4)
    assert measured == pytest.approx(bound, rel=1e-12)
    closed = eps * oscillation_closed_form(4, grid[0], 2.0, 30.0)
    assert measured == pytest.approx(closed, rel=1e-4)
    assert measured == pytest.approx(eps * 0.88879889, rel=1e-6)


def test_oscillation_random_rhs():
    rng = np.random.default_rng(7)
    grid = loggrid(1.0, 50.0, 4000)
    x = np.log(grid)
    for _ in range(100):
        coeffs = rng.normal(size=5)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=5)
        rhs = sum(c * np.sin((k + 1) * x + p)
                  for k, (c, p) in enumerate(zip(coeffs, phases)))
        bound, measured = oscillation_bound((grid, rhs), None, 2.0, 30.0, 4)
        assert measured <= bound * (1.0 + 1e-8)


def test_oscillation_weighted_by_phi_c():
    # rhs equal to the weight itself has unit weighted sup, so the bound
    # specializes to the explicit constant of the weighted estimate
    n, R = 4, 50.0
    w = WeightSpec(n=n, R=(R,))
    grid = loggrid(closing_parameters(1.0, n)[0], R, 4000)
    weight = phi_c(w, 0, grid)
    bound, measured = oscillation_bound((grid, weight), weight,
                                        2.0, 45.0, n)
    assert measured <= bound * (1.0 + 1e-8)
    assert 0.0 < bound < oscillation_closed_form(n, grid[0], 2.0, 45.0)


def test_oscillation_bound_validation():
    grid = loggrid(1.0, 50.0, 1000)
    rhs = np.ones(1000)
    with pytest.raises(OutOfDomain):
        oscillation_bound((grid, rhs), None, 30.0, 2.0, 4)
    with pytest.raises(OutOfDomain):
        oscillation_bound((grid, rhs), np.zeros(1000), 2.0, 30.0, 4)


def test_einstein_residual_exact_profiles():
    (_, F1), (_, F2) = einstein_residual(BlackHoleProfile(1.0, 4))
    assert np.max(np.abs(F1)) < 1e-10
    assert np.max(np.abs(F2)) < 1e-10
    (_, F1), (_, F2) = einstein_residual(CuspProfile(4))
    assert np.max(np.abs(F1)) < 1e-12
    assert np.max(np.abs(F2)) < 1e-12


def test_einstein_residual_glued_support():
    prof = GluedProfile(50.0, 4)
    (g1, F1), (_, F2) = einstein_residual(prof)
    nz = np.abs(F1) > 1e-13
    assert g1[nz][0] > 0.8 * 50.0 * 0.99
    assert g1[nz][-1] < 0.9 * 50.0 * 1.01
    sup = np.max(np.abs(F1))
    assert sup == pytest.approx(0.00942985982371125, rel=1e-9)
    # deficit scaling: the sup carries the R^{1-n} law
    assert 100.0 < sup * 50.0**3 < 5000.0


def test_einstein_residual_sampled_matches_closed_form():
    # V = r^2 g(log r) sampled on the grid: the 9-node log-grid stencils
    # give F1 at every node, the two ends included, to the rounding floor
    n = 4
    for npts in (500, 1000):
        grid = loggrid(1.0, 20.0, npts)
        u = np.log(grid)
        g = 1.0 + 0.3 * np.sin(u) + 0.1 * np.cos(2.0 * u)
        g1 = 0.3 * np.cos(u) - 0.2 * np.sin(2.0 * u)
        g2 = -0.3 * np.sin(u) - 0.4 * np.cos(2.0 * u)
        # V_x = r^2 (2g + g') and V_xx = r^2 (4g + 4g' + g'') in x = log r
        F1_exact = (-(4.0 * g + 4.0 * g1 + g2 + (n - 3) * (2.0 * g + g1)) / 2.0
                    + (n - 1))
        (_, F1), _ = einstein_residual(SampledProfile(grid, grid**2 * g, n))
        assert np.max(np.abs(F1 - F1_exact)) <= 1e-8


def test_einstein_residual_checks_dimension():
    # the residual is taken in the profile's own n, and a sampled profile,
    # the one family built from plain arrays, checks the n it is given
    grid = loggrid(2.0, 40.0, 64)
    for n in (3, 4, 6):
        V = grid**2 - 2.0 * grid ** (3 - n)
        (_, F1), (_, F2) = einstein_residual(SampledProfile(grid, V, n))
        assert max(np.max(np.abs(F1)), np.max(np.abs(F2))) < 1e-6
    for n in (2, 4.0, True, MAX_DIMENSION + 1, 10**400):
        with pytest.raises(OutOfDomain):
            SampledProfile(grid, grid**2, n)


def test_einstein_residual_rejects_negative():
    grid = np.linspace(1.0, 10.0, 100)
    V = grid**2 - 30.0
    with pytest.raises(NonPositiveProfile):
        einstein_residual(SampledProfile(grid, V, 4))


def test_fitted_mass_exact():
    for n, m in [(4, 1.0), (5, 2.0), (7, 0.5)]:
        grid = loggrid(2.0, 40.0, 200)
        V = grid**2 - 2.0 * m * grid ** (3 - n)
        assert fitted_mass(grid, V, n) == pytest.approx(m, abs=1e-12)


def test_newton_blackhole_already_converged():
    res = newton_solve(BlackHoleProfile(2.0, 5))
    assert isinstance(res, EinsteinSolveResult)
    assert res.converged
    assert res.iterations == 0
    assert res.fitted_m == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("m", [1e-300, 1e-100, 1e50, 1e100, 1e300])
def test_newton_from_exact_blackhole_at_any_mass(m, n):
    # the core-slope row is scaled to O(1) like the others; unscaled it
    # grew like r_plus, and 1e50 and 1e100 stalled on rounding; the mass
    # fit's regressor is scaled by the grid's first radius, so that it
    # neither overflows nor underflows at n >= 6
    prof = BlackHoleProfile(m, n)
    res = newton_solve(prof)
    assert res.converged
    assert res.fitted_m == pytest.approx(m, rel=1e-6)
    assert res.r_plus == pytest.approx(prof.r_plus, rel=1e-6)


def test_newton_from_glued_recovers_blackhole():
    n = 4
    res = newton_solve(GluedProfile(50.0, n))
    assert res.converged
    assert res.iterations <= 8
    assert res.residuals[-1] < 1e-10
    assert res.fitted_m == pytest.approx(1.0, abs=1e-6)
    assert res.r_plus == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-6)
    # pointwise identification with the fitted black hole
    grid = np.asarray(res.profile.grid)
    V = np.asarray(res.profile.values)
    V_bh = grid**2 - 2.0 * res.fitted_m * grid ** (3 - n)
    assert np.max(np.abs(V - V_bh) / np.maximum(np.abs(V_bh), 1.0)) < 1e-8
    # closing data: the recovered core satisfies the smooth-cone relation
    assert 4.0 * np.pi / res.beta == pytest.approx(
        (n - 1) * res.r_plus, abs=1e-6)


def test_newton_glued_n5_iteration_budget():
    res = newton_solve(GluedProfile(15.0, 5))
    assert res.converged
    assert res.iterations <= 8
    assert res.quadratic_ratio < 1.0
    assert res.fitted_m == pytest.approx(1.0, abs=1e-6)


def test_newton_result_serializes():
    res = newton_solve(BlackHoleProfile(1.0, 4))
    d = res.to_dict()
    assert d["converged"] is True
    assert "error" not in d
    assert d["n"] == 4
    assert isinstance(d["residuals"], list)


def test_newton_max_iters_carries_result():
    # no solve reaches 1e-30, so one step always stops at max_iters (1e-12
    # can be reached in one step on some BLAS kernels)
    cfg = NewtonConfig(max_iters=1, residual_tol=1e-30)
    res = newton_solve(GluedProfile(50.0, 4), cfg=cfg)
    assert res.converged is False
    assert res.error.endswith("above tol 1.0e-30 after 1 iterations")
    assert res.to_dict()["error"] == res.error
    assert len(res.residuals) >= 1
    assert np.all(np.isfinite(res.residuals))


def test_newton_unreachable_tolerance():
    # a tolerance below the finite-difference rounding floor ends in a
    # rejected full step (it no longer cuts the residual by a quarter) or
    # at the iteration cap, and the solve returns its best profile
    cfg = NewtonConfig(residual_tol=1e-30)
    res = newton_solve(GluedProfile(15.0, 4), cfg=cfg)
    assert not res.converged
    assert res.error.startswith(("no acceptable step", "residual "))
    assert res.residuals[-1] < 1e-9
    assert res.fitted_m == pytest.approx(1.0, abs=1e-5)
    # at N=2048 the default tolerance sits below the floor, and the first
    # step lands on it; the residual in the message depends on the kernel
    res = newton_solve(GluedProfile(50.0, 4),
                       NewtonConfig(grid_size=2048))
    assert res.converged is False
    assert res.error.startswith("no acceptable step at iteration 1 ")
    assert res.to_dict()["error"] == res.error


@pytest.mark.parametrize("N", [256, 1024])
@pytest.mark.parametrize("n", [4, 5])
def test_solved_profile_satisfies_einstein_equations(n, N):
    # the returned profile is evaluated by the solver's own 9-node log-grid
    # stencils, so it solves the equations at the nodes and between them
    res = newton_solve(GluedProfile(50.0, n),
                       NewtonConfig(grid_size=N))
    assert res.converged, res.error
    prof = res.profile
    for grid in (None, np.geomspace(prof.grid[0], prof.grid[-1], 3000)):
        (_, F1), (_, F2) = einstein_residual(prof, grid)
        assert np.max(np.abs(F1)) <= 1e-8
        assert np.max(np.abs(F2)) <= 1e-8


@pytest.mark.parametrize("R", [15.0, 50.0, 500.0])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_solved_profile_vanishes_exactly_at_the_core(n, R):
    # row 0 of the system is W[0] = 0; a step that met it only to rounding
    # left about -2.6e-22 there, which the V < 0 check rejects
    res = newton_solve(GluedProfile(R, n))
    assert res.converged, res.error
    assert res.profile.values[0] == 0.0
    einstein_residual(res.profile)


def test_newton_solves_in_the_dimension_of_its_start():
    # n comes from the start alone: given a second n, the n=4 black hole
    # once "converged" at n=5 to m = 0.399
    for start in (BlackHoleProfile(1.0, 4), GluedProfile(50.0, 4)):
        res = newton_solve(start)
        assert res.converged, res.error
        assert res.n == res.profile.n == 4
        assert res.to_dict()["n"] == 4
        assert res.fitted_m == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n, R", [(4, 50.0), (5, 100.0), (6, 30.0)])
def test_newton_restarts_from_its_solved_profile(n, R):
    # a sampled profile carries its own n, so a solve restarts from the last
    # one's profile alone and lands on the same black hole
    first = newton_solve(GluedProfile(R, n))
    again = newton_solve(first.profile)
    assert first.converged and again.converged, (first.error, again.error)
    assert again.n == n
    assert again.fitted_m == pytest.approx(first.fitted_m, abs=1e-7)
    p = first.profile
    assert FillingMetric(p).n == first.n == p.n == n


def test_newton_rejects_cusp_start():
    with pytest.raises(SingularAtCore):
        newton_solve(CuspProfile(4))


@pytest.mark.parametrize("kwargs", [
    {"residual_tol": True}, {"residual_tol": "1e-10"},
    {"residual_tol": 1e-10 + 0j}, {"residual_tol": None},
    {"r_out": True}, {"r_out": "100"}, {"r_out": 100.0 + 0j},
], ids=["tol-bool", "tol-str", "tol-complex", "tol-none", "r-out-bool",
        "r-out-str", "r-out-complex"])
def test_newton_config_rejects_non_real(kwargs):
    # numbers.Real admits True as 1.0: residual_tol=True "converged" at
    # iteration 0 with fitted_m 0.99975, and a str raised a bare TypeError
    with pytest.raises(OutOfDomain, match=next(iter(kwargs))):
        NewtonConfig(**kwargs)


def test_newton_config_validation():
    with pytest.raises(OutOfDomain):
        NewtonConfig(max_iters=0)
    with pytest.raises(OutOfDomain):
        NewtonConfig(residual_tol=0.0)


@pytest.mark.parametrize("build, error", [
    (lambda: NewtonConfig(r_out=math.nan), OutOfDomain),
    (lambda: NewtonConfig(r_out=math.inf), OutOfDomain),
    (lambda: NewtonConfig(r_out=-5.0), OutOfDomain),
    (lambda: NewtonConfig(residual_tol=math.inf), OutOfDomain),
    (lambda: NewtonConfig(residual_tol=math.nan), OutOfDomain),
    (lambda: NewtonConfig(max_iters=math.nan), OutOfDomain),
    (lambda: NewtonConfig(max_iters=math.inf), OutOfDomain),
    (lambda: NewtonConfig(max_iters=2.5), OutOfDomain),
    (lambda: NewtonConfig(grid_size=math.nan), GridTooCoarse),
    (lambda: NewtonConfig(grid_size=math.inf), GridTooCoarse),
    (lambda: NewtonConfig(grid_size=2.5), GridTooCoarse),
    (lambda: NewtonConfig(max_iters=True), OutOfDomain),
    (lambda: NewtonConfig(r_out=10**400), OutOfDomain),
    (lambda: NewtonConfig(residual_tol=10**400), OutOfDomain),
], ids=["r-out-nan", "r-out-inf", "r-out-negative", "tol-inf", "tol-nan",
        "max-iters-nan", "max-iters-inf", "max-iters-non-integer",
        "grid-size-nan", "grid-size-inf", "grid-size-non-integer",
        "max-iters-bool", "r-out-int-overflows", "tol-int-overflows"])
def test_constructors_reject_non_finite(build, error):
    with pytest.raises(error):
        build()


def _dense_stencil(idx, w):
    D = np.zeros((len(idx), len(idx)))
    D[np.arange(len(idx))[:, None], idx] = w
    return D


def _dense_jacobian(jac):
    # the (N+1)^2 matrix of the bordered band returned by the solver
    ab, b, c, d = jac
    lower, upper = solver._LOWER, solver._UPPER
    N = len(b)
    J = np.zeros((N + 1, N + 1))
    for i in range(N):
        for j in range(max(0, i - lower), min(N, i + upper + 1)):
            J[i, j] = ab[lower + upper + i - j, j]
    J[:N, N] = b
    J[N, :len(c)] = c
    J[N, N] = d
    return J


def _glued_points(n, N):
    """The glued start and a perturbed (W, p), with what the solver needs."""
    prof = GluedProfile(15.0, n)
    r_plus, beta, m_hat = prof.core()
    p0, x_hi = math.log(r_plus), math.log(50.0 * r_plus)
    W0 = solver._initial_values(prof, np.exp(np.linspace(p0, x_hi, N)),
                                m_hat, n)
    W0[0] = 0.0
    rng = np.random.default_rng(3)
    bumped = W0 * (1.0 + 1e-3 * rng.standard_normal(N))
    bumped[0] = 0.0
    return ((W0, p0), (bumped, p0 + 0.01)), x_hi, beta


@pytest.mark.parametrize("N", [64, 65, 256, 512, 1024])
def test_unit_stencils_match_diff_matrix(N):
    # the 9-node template scattered into the band is the full per-row
    # Fornberg build on the unit grid, bit for bit
    idx, w1, w2 = solver._unit_stencils(N)
    for deriv, w in ((1, w1), (2, w2)):
        ref = diff_matrix(np.arange(N, dtype=float), deriv, 9)
        assert np.array_equal(_dense_stencil(idx, w), ref)


@pytest.mark.parametrize("N", [64, 65, 1024])
def test_unit_stencils_are_the_integer_template_rows(N):
    # one stencil_weights build on the nodes 0..8, its rows mapped onto
    # the N-node windows, is the cached template bit for bit
    idx, w1, w2 = solver._unit_stencils(N)
    nodes = np.arange(N, dtype=float)
    assert np.array_equal(idx, stencil_weights(nodes, 1, 9, at=nodes)[0])
    row = np.arange(N) - idx[:, 0]
    for deriv, w in ((1, w1), (2, w2)):
        template = stencil_weights(np.arange(9.0), deriv, 9, at=np.arange(9.0))[1]
        assert np.array_equal(w, template[row])


@pytest.mark.parametrize("shape", [(), (1,), (15,)], ids=["1d", "K1", "K15"])
@pytest.mark.parametrize("N", [9, 10, 64])
def test_derivatives_match_gathered_difference_form(N, shape):
    # N = 9: every row on window 0, one centred row; N = 10: the two end
    # windows are neighbours
    stencils = idx, w1, w2 = solver._unit_stencils(N)
    rng = np.random.default_rng(4)
    U = rng.standard_normal((N,) + shape) * 10.0 ** rng.integers(-6, 6, (N,) + shape)
    got = solver._derivatives(U, stencils)
    assert got.shape == (2, N) + shape
    dU = U[idx] - U[:, None]
    for w, d in zip((w1, w2), got):
        want = np.einsum("ik,ik...->i...", w, dU)
        scale = np.einsum("ik,ik...->i...", np.abs(w), np.abs(dU))
        assert np.all(np.abs(d - want) <= 1e-14 * scale)
    # exact on constants, however large
    assert not solver._derivatives(np.full((N,) + shape, 3e300), stencils).any()


@pytest.mark.parametrize("N", [9, 10, 256, 555, 8201])
def test_derivatives_of_a_column_do_not_depend_on_its_neighbours(N):
    # the sums of a column alone, as 1-D or (N, 1), are bit-identical to
    # its sums among K columns, in the end rows as in the interior; the
    # operator comparison takes one column where apply_L takes K.  N = 9
    # has one interior row; at N = 555 the last block of 15 columns, and
    # at N = 8201 that of one column, holds one row
    stencils = solver._unit_stencils(N)
    rng = np.random.default_rng(5)
    U = rng.standard_normal((N, 15)) * 10.0 ** rng.integers(-6, 6, (N, 15))
    whole = solver._derivatives(U, stencils)
    for K in (2, 8, 15):
        assert np.array_equal(solver._derivatives(U[:, :K], stencils),
                              whole[:, :, :K])
    for k in (0, 7, 14):
        column = np.ascontiguousarray(U[:, k])
        assert np.array_equal(solver._derivatives(column, stencils),
                              whole[:, :, k])
        assert np.array_equal(solver._derivatives(column[:, None], stencils),
                              whole[:, :, k:k + 1])


def test_derivatives_allocate_no_gather():
    # the operator's widest case: N = 4096 and K = 15 columns at n = 6
    stencils = solver._unit_stencils(4096)
    U = np.random.default_rng(13).standard_normal((4096, 15))
    tracemalloc.start()
    try:
        solver._derivatives(U, stencils)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a gathered (N, 9, K) copy alone would be 9 x the input
    assert peak < 9 * U.nbytes


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("n", [4, 5])
def test_analytic_p_column_matches_central_difference(n, N):
    points, x_hi, beta = _glued_points(n, N)
    stencils = solver._unit_stencils(N)
    for W, p in points:
        _, jacobian = solver._residual(W, p, solver._grid(p, x_hi, N), n,
                                       x_hi, stencils, beta)
        J = _dense_jacobian(jacobian())

        def res(q):
            return solver._residual(W, q, solver._grid(q, x_hi, N), n, x_hi,
                                    stencils, beta)[0]

        # fourth-order central difference in p
        hp = 1e-3
        fd = (8.0 * (res(p + hp) - res(p - hp))
              - (res(p + 2 * hp) - res(p - 2 * hp))) / (12.0 * hp)
        assert J[0, N] == 0.0
        assert np.max(np.abs(J[:, N] - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("n", [4, 5])
def test_bordered_step_matches_dense_solve(n, N):
    points, x_hi, beta = _glued_points(n, N)
    stencils = solver._unit_stencils(N)
    for W, p in points:
        res, jacobian = solver._residual(W, p, solver._grid(p, x_hi, N), n,
                                         x_hi, stencils, beta)
        jac = jacobian()
        # the step factors the band in place, so the reference comes first
        ref = np.linalg.solve(_dense_jacobian(jac), -res)
        step = solver._newton_step(res, jac)
        assert np.max(np.abs(step - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("n", [4, 5])
def test_difference_form_residual_matches_dense(n, N):
    # the residual as the dense matrices (T/h) @ W give it
    points, x_hi, beta = _glued_points(n, N)
    T1, T2 = (diff_matrix(np.arange(N, dtype=float), d, 9) for d in (1, 2))
    stencils = solver._unit_stencils(N)
    for W, p in points:
        r = np.exp(np.linspace(p, x_hi, N))
        h = (x_hi - p) / (N - 1)
        DxW, DxxW = (T1 / h) @ W, (T2 / h**2) @ W
        ref = np.empty(N + 1)
        ref[0] = W[0]
        ref[1:N - 1] = (-(DxxW + (n - 3) * DxW)[1:N - 1]
                        / (2.0 * r[1:N - 1] ** 2) + (n - 1))
        ref[N - 1] = (-DxW[-1] - (n - 3) * W[-1]) / r[-1] ** 2 + (n - 1)
        ref[N] = DxW[0] / (r[0] * (4.0 * math.pi / beta)) - 1.0
        got, _ = solver._residual(W, p, r, n, x_hi, stencils, beta)
        assert np.max(np.abs(got - ref)) <= 1e-10


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("n", [4, 5])
def test_banded_w_block_is_the_residual_derivative(n, N):
    # the residual is affine in W, so J[:, :N] v = res(W + v) - res(W)
    points, x_hi, beta = _glued_points(n, N)
    stencils = solver._unit_stencils(N)
    rng = np.random.default_rng(5)
    for W, p in points:
        r = solver._grid(p, x_hi, N)
        res, jacobian = solver._residual(W, p, r, n, x_hi, stencils, beta)
        v = 1e-3 * (W + 1.0) * rng.standard_normal(N)
        moved, _ = solver._residual(W + v, p, r, n, x_hi, stencils, beta)
        J = _dense_jacobian(jacobian())[:, :N]
        # row by row, against the size of that row's terms
        scale = np.abs(J) @ np.abs(v)
        assert np.all(np.abs(J @ v - (moved - res)) <= 1e-9 * scale)


@pytest.mark.parametrize("zeroed", [(0,), (2, 3)], ids=["band", "pivot"])
def test_singular_jacobian_returns_unconverged_result(monkeypatch, zeroed):
    # a zero band is singular; a zero border row and corner zero the pivot
    real = solver._residual

    def singular(*args):
        res, jacobian = real(*args)

        def zeroed_jacobian():
            return tuple(np.zeros_like(part) if k in zeroed else part
                         for k, part in enumerate(jacobian()))

        return res, zeroed_jacobian

    monkeypatch.setattr(solver, "_residual", singular)
    res = newton_solve(GluedProfile(50.0, 4),
                       cfg=NewtonConfig(grid_size=64))
    assert res.converged is False
    assert res.error.startswith("singular Jacobian: ")
    assert res.to_dict()["error"] == res.error
    assert res.iterations == 0


@pytest.mark.parametrize("n", [4, 5])
def test_newton_converges_at_grid_size_1024(n):
    # the glued start used to stall on the rounding floor just above the
    # default tolerance here (5.3e-11 > 5e-11)
    res = newton_solve(GluedProfile(50.0, n),
                       NewtonConfig(grid_size=1024))
    assert res.converged
    assert res.residuals[-1] < NewtonConfig().residual_tol


@pytest.mark.parametrize("R", [15.0, 19.0])
@pytest.mark.parametrize("n", [4, 5])
def test_newton_quadratic_ratio_at_grid_size_512(n, R):
    # a second step taken at the rounding floor made this ratio ~1e9
    res = newton_solve(GluedProfile(R, n),
                       NewtonConfig(grid_size=512))
    assert res.converged
    assert res.quadratic_ratio < 1.0


def test_newton_builds_stencils_once_per_grid_size(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return diff_matrix(*args, **kwargs)

    monkeypatch.setattr(solver, "diff_matrix", counting)
    solver._unit_stencils.cache_clear()
    made = []
    for N in (64, 64, 128):
        before = len(calls)
        cfg = NewtonConfig(grid_size=N, max_iters=60)
        res = newton_solve(GluedProfile(50.0, 4), cfg=cfg)
        assert res.converged
        made.append(len(calls) - before)
    # the first solve at a size builds the two templates, later ones reuse
    assert made == [2, 0, 2]
    for a in solver._unit_stencils(64):
        with pytest.raises(ValueError):
            a[0, 0] = 1


def _solve_events(monkeypatch, *args):
    """newton_solve(*args) with a log of its residual evaluations ("res"),
    Jacobian builds ("jac") and Newton steps ("step"), in order."""
    log = []
    residual, newton_step = solver._residual, solver._newton_step

    def counting_residual(*a):
        log.append("res")
        res, jacobian = residual(*a)

        def counting_jacobian():
            log.append("jac")
            return jacobian()

        return res, counting_jacobian

    def counting_step(*a):
        log.append("step")
        return newton_step(*a)

    monkeypatch.setattr(solver, "_residual", counting_residual)
    monkeypatch.setattr(solver, "_newton_step", counting_step)
    result = newton_solve(*args)
    monkeypatch.undo()
    return result, log


@pytest.mark.parametrize("N", [256, 512])
@pytest.mark.parametrize("n", [4, 5])
def test_newton_cold_and_warm_stencils_agree(monkeypatch, n, N):
    start, cfg = GluedProfile(50.0, n), NewtonConfig(grid_size=N)
    solver._unit_stencils.cache_clear()
    cold, log = _solve_events(monkeypatch, start, cfg)
    warm = newton_solve(start, cfg)
    assert cold.converged and warm.converged
    assert warm.residuals == cold.residuals
    assert np.array_equal(warm.profile.values, cold.profile.values)
    assert warm.r_plus == cold.r_plus
    assert warm.fitted_m == cold.fitted_m
    # one evaluation at the start, one per step, and each Jacobian is
    # built from the evaluation of the iterate it is taken at
    assert log == ["res"] + ["jac", "step", "res"] * cold.iterations


def _assert_each_step_cuts_a_quarter(result):
    """Each accepted step cuts the residual to at most 3/4 of the last."""
    res = result.residuals
    assert all(b <= 0.75 * a for a, b in zip(res, res[1:]))


@pytest.mark.parametrize("R, n, N", [(50.0, 4, 2048), (10000.0, 3, 256)],
                         ids=["stall-2048", "fail-10000"])
def test_newton_evaluates_each_iterate_once(monkeypatch, R, n, N):
    # solves that stop short on a rejected full step: every iterate, the
    # rejected one included, is evaluated once, and the rejected one
    # builds no Jacobian
    result, log = _solve_events(monkeypatch, GluedProfile(R, n),
                                NewtonConfig(grid_size=N))
    assert not result.converged
    assert result.error.startswith("no acceptable step at iteration ")
    assert log == ["res"] + ["jac", "step", "res"] * (result.iterations + 1)
    _assert_each_step_cuts_a_quarter(result)


@pytest.mark.parametrize("n, R, N", [(3, 2000.0, 128), (5, 500.0, 128),
                                     (6, 500.0, 128), (6, 2000.0, 256),
                                     (4, 10000.0, 512)])
def test_newton_stalled_glued_start_stops_short(n, R, N):
    # from these glued starts the full Newton step does not cut the
    # residual by a quarter, and damped steps from them reach a small
    # residual with a fitted mass up to 0.12 away from 1, so the solve
    # must stop short on its start rather than report converged
    result = newton_solve(GluedProfile(R, n),
                          NewtonConfig(grid_size=N))
    assert result.converged is False
    assert result.iterations == 0
    assert result.error.startswith("no acceptable step at iteration 0 ")
    _assert_each_step_cuts_a_quarter(result)


def test_perturbation_budget_inversion():
    scan = DecayScanResult(n=4, sizes=(5.0, 10.0), norms=(0.064, 0.008),
                           slope=-3.0, intercept=np.log(8.0), residual=0.0)
    rep = perturbation_budget(scan, Lambda=1.0, epsilon=1e-3)
    assert isinstance(rep, BudgetReport)
    assert not rep.feasible_now
    assert rep.min_size == pytest.approx(20.0, rel=1e-9)


def test_perturbation_budget_feasible_now():
    scan = DecayScanResult(n=4, sizes=(5.0, 10.0), norms=(0.064, 0.008),
                           slope=-3.0, intercept=np.log(8.0), residual=0.0)
    rep = perturbation_budget(scan, Lambda=1.0, epsilon=0.01)
    assert rep.feasible_now
    assert rep.min_size == 10.0


def test_perturbation_budget_n5_exponent():
    scan = DecayScanResult(n=5, sizes=(2.0, 4.0), norms=(1.0 / 16.0, 1.0 / 256.0),
                           slope=-4.0, intercept=0.0, residual=0.0)
    rep = perturbation_budget(scan, Lambda=1.0, epsilon=1e-4)
    assert rep.min_size == pytest.approx(10.0, rel=1e-9)


def test_perturbation_budget_validation():
    with pytest.raises(ScanMissing):
        perturbation_budget("not a scan", 1.0, 1.0)
    scan = DecayScanResult(n=4, sizes=(5.0, 10.0), norms=(1.0, 2.0),
                           slope=0.5, intercept=0.0, residual=0.0)
    with pytest.raises(ScanMissing):
        perturbation_budget(scan, 1.0, 1e-3)
    good = DecayScanResult(n=4, sizes=(5.0,), norms=(1.0,),
                           slope=-3.0, intercept=0.0, residual=0.0)
    with pytest.raises(OutOfDomain):
        perturbation_budget(good, -1.0, 1e-3)


_BUDGET_SCAN = DecayScanResult(n=4, sizes=(5.0, 10.0), norms=(0.064, 0.008),
                               slope=-3.0, intercept=np.log(8.0), residual=0.0)
_EULER_GRID = loggrid(1.0, 10.0, 50)
_EULER_RHS = np.ones(50)


def _with_nan(a, i=10):
    a = np.array(a, dtype=float)
    a[i] = math.nan
    return a


# each of these used to return a NaN, an inf-derived answer, a bool taken
# as a number or a bare ValueError, TypeError or OverflowError instead of
# a DehnFillError
@pytest.mark.parametrize("call, error", [
    (lambda: perturbation_budget(_BUDGET_SCAN, math.nan, 0.1), OutOfDomain),
    (lambda: perturbation_budget(_BUDGET_SCAN, 1.0, math.inf), OutOfDomain),
    (lambda: GluedProfile(R=math.inf, n=4), RadiusTooSmall),
    (lambda: phi_c_raw(math.nan, 1.5, 10.0), OutOfDomain),
    (lambda: bump_deformation(4, loggrid(5.0, 500.0, 64), [math.nan]),
     OutOfDomain),
    (lambda: compare_operators(4, loggrid(5.0, 500.0, 64), [math.nan]),
     OutOfDomain),
    (lambda: oscillation_closed_form(4, math.nan, 2.0, 3.0), OutOfDomain),
    (lambda: GeodesicClass((math.nan, 0, 0)), OutOfDomain),
    (lambda: euler_reconstruct(4, (_with_nan(_EULER_GRID), _EULER_RHS),
                               (2.0, 0.0)), NonFiniteField),
    (lambda: euler_reconstruct(4, (_EULER_GRID, _with_nan(_EULER_RHS)),
                               (2.0, 0.0)), NonFiniteField),
    (lambda: euler_reconstruct(math.nan, (_EULER_GRID, _EULER_RHS),
                               (2.0, 0.0)), OutOfDomain),
    (lambda: euler_reconstruct(4, (_EULER_GRID, _EULER_RHS),
                               (2.0, math.nan)), NonFiniteField),
    (lambda: euler_reconstruct(4, (np.linspace(0.0, 10.0, 50), _EULER_RHS),
                               (2.0, 0.0)), OutOfDomain),
    (lambda: oscillation_bound((_EULER_GRID, _with_nan(_EULER_RHS)), None,
                               2.0, 5.0, 4), NonFiniteField),
    (lambda: oscillation_bound((_EULER_GRID, _EULER_RHS),
                               _with_nan(_EULER_RHS), 2.0, 5.0, 4),
     OutOfDomain),
    (lambda: oscillation_bound((_EULER_GRID, _EULER_RHS),
                               np.full(50, math.inf), 2.0, 5.0, 4),
     OutOfDomain),
    (lambda: oscillation_closed_form(1, 1.0, 2.0, 3.0), OutOfDomain),
    (lambda: oscillation_closed_form(4, 1.0, 0.0, 3.0), OutOfDomain),
    (lambda: oscillation_closed_form(4, 1e300, 2.0, 3.0), OutOfDomain),
    (lambda: closing_parameters(True, 4), InvalidMass),
    (lambda: closing_parameters("1", 4), InvalidMass),
    (lambda: BlackHoleProfile(m=True, n=4), InvalidMass),
    (lambda: perturbation_budget(_BUDGET_SCAN, "1", 1e-3), OutOfDomain),
    (lambda: perturbation_budget(_BUDGET_SCAN, 1.0, True), OutOfDomain),
    (lambda: default_delta(math.nan), InvalidWeight),
    (lambda: default_delta(math.inf), InvalidWeight),
    (lambda: default_delta(4.5), InvalidWeight),
    (lambda: default_core_scale(math.nan, 4), InvalidWeight),
    (lambda: default_core_scale(math.inf, 4), InvalidWeight),
    (lambda: default_core_scale("1", 4), InvalidWeight),
    (lambda: oscillation_closed_form(4, np.float64(1e300), 2.0, 3.0),
     OutOfDomain),
    (lambda: oscillation_closed_form(4, 10**400, 2.0, 3.0), OutOfDomain),
    (lambda: perturbation_budget(_BUDGET_SCAN, 10**400, 1e-3), OutOfDomain),
    (lambda: default_core_scale(10**400, 4), InvalidWeight),
], ids=["budget-lambda-nan", "budget-epsilon-inf", "cutoff-hi-inf",
        "phi-c-r-nan",
        "bump-center-nan", "compare-center-nan", "oscillation-r-lo-nan",
        "geodesic-coeff-nan", "euler-grid-nan", "euler-rhs-nan",
        "euler-n-nan", "euler-anchor-value-nan", "euler-grid-at-zero",
        "oscillation-rhs-nan", "oscillation-weight-nan",
        "oscillation-weight-inf", "oscillation-n-1", "oscillation-r1-zero",
        "oscillation-r-lo-overflow", "closing-mass-bool", "closing-mass-str",
        "blackhole-mass-bool", "budget-lambda-str", "budget-epsilon-bool",
        "delta-n-nan", "delta-n-inf", "delta-n-fraction", "core-scale-r-nan",
        "core-scale-r-inf", "core-scale-r-str",
        "oscillation-r-lo-numpy-overflow", "oscillation-r-lo-int-overflows",
        "budget-lambda-int-overflows", "core-scale-r-int-overflows"])
def test_public_functions_reject_non_finite(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("r_out", [1e155, 1e200, 1e300])
def test_newton_rejects_r_out_whose_square_overflows(r_out):
    # the residual divides by r**2; this used to warn and then fail later
    with pytest.raises(OutOfDomain, match=r"r_out\*\*2 overflows"):
        newton_solve(GluedProfile(50.0, 4), NewtonConfig(r_out=r_out))


# Runs dgbsv on the systems saved in argv[1] and saves (lub, piv, x, info)
# of each to argv[3]; argv[2] "direct" takes the routine from the solver's
# loader, in a fresh interpreter where scipy.linalg is not loaded, and
# "public" from scipy.linalg.lapack.
_DGBSV_RUN = """
import sys
import numpy as np

if sys.argv[2] == "direct":
    from dehnfill.solver import _dgbsv
    dgbsv = _dgbsv()
    assert "scipy.linalg" not in sys.modules
else:
    from scipy.linalg.lapack import dgbsv
out = {}
with np.load(sys.argv[1]) as systems:
    for key in sorted({k.split("/")[0] for k in systems}):
        lub, piv, x, info = dgbsv(8, 7, systems[key + "/ab"],
                                  systems[key + "/b"])
        out.update({key + "/lub": lub, key + "/piv": piv, key + "/x": x,
                    key + "/info": np.array(info)})
np.savez(sys.argv[3], **out)
if sys.argv[2] == "direct":
    import scipy.linalg.lapack
    assert scipy.linalg.lapack.dgbsv is dgbsv
"""


def _band_systems():
    """Seeded (8, 7)-band systems in gbsv storage, keyed by kind."""
    systems = {}
    for seed in range(3):
        rng = np.random.default_rng(seed)
        N = 40 + 7 * seed
        ab = np.zeros((solver._ROWS, N))
        ab[8:] = rng.standard_normal((16, N))
        systems[f"pivoted{seed}"] = ab, rng.standard_normal(N)
        systems[f"two-rhs{seed}"] = ab, rng.standard_normal((N, 2))
    ab = systems["pivoted0"][0].copy()
    ab[:, 20] = 0.0
    systems["singular"] = ab, np.ones(40)
    return systems


def test_direct_dgbsv_matches_public_wrapper(tmp_path):
    # the solver loads scipy.linalg._flapack on its own; its dgbsv must
    # give the public wrapper's (lub, piv, x, info) bit for bit, each run in
    # a fresh interpreter so that neither reuses the other's module
    systems = _band_systems()
    np.savez(tmp_path / "systems.npz",
             **{f"{k}/{part}": a for k, (ab, b) in systems.items()
                for part, a in (("ab", ab), ("b", b))})
    src = str(Path(solver.__file__).resolve().parents[1])
    for path in ("direct", "public"):
        proc = subprocess.run([sys.executable, "-c", _DGBSV_RUN,
                               "systems.npz", path, f"{path}.npz"],
                              cwd=tmp_path, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
    with np.load(tmp_path / "direct.npz") as direct, \
            np.load(tmp_path / "public.npz") as public:
        assert sorted(direct) == sorted(public)
        for key in direct:
            a, b = direct[key], public[key]
            assert (a.dtype, a.shape, a.tobytes()) == (
                b.dtype, b.shape, b.tobytes()), key
        for seed in range(3):
            N = 40 + 7 * seed
            # every band needs row interchanges and is not singular
            for kind in ("pivoted", "two-rhs"):
                assert int(direct[f"{kind}{seed}/info"]) == 0
                assert not np.array_equal(direct[f"{kind}{seed}/piv"],
                                          np.arange(1, N + 1))
            assert direct[f"two-rhs{seed}/x"].shape == (N, 2)
        assert int(direct["singular/info"]) > 0

