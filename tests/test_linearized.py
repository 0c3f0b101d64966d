import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dehnfill import linearized, numutil, profiles, solver

from dehnfill.errors import (
    GridTooCoarse,
    NonFiniteField,
    OutOfDomain,
    SingularAtCore,
    TooFewSamples,
    UnknownBlock,
)
from dehnfill.linearized import (
    BLOCK_LABELS,
    COEFFICIENTS,
    InvariantDeformation,
    apply_L,
    assemble_L_blackhole,
    assemble_L_cusp,
    bump_deformation,
    compare_operators,
    indicial_roots,
    metric_deformation,
)
from dehnfill.numutil import diff_matrix, fit_loglog, loggrid
from dehnfill.profiles import (black_hole_metric, cusp_metric, eval_profile,
                               glued_metric)


def _named(C):
    """{name: row} of a coefficient table."""
    assert C.shape[0] == len(COEFFICIENTS)
    return dict(zip(COEFFICIENTS, C))


def _coupling(C, n):
    """The (npts, n, n) coupling of the diagonal sector, written out entry
    by entry from the table's six distinct ones."""
    k = _named(C)
    M = np.empty((C.shape[1], n, n))
    M[:, 2:, 2:] = k["Mjj"][:, None, None]
    M[:, 0, 0], M[:, 1, 1] = k["M00"], k["M11"]
    M[:, 0, 1] = M[:, 1, 0] = k["M01"]
    M[:, 0, 2:] = M[:, 2:, 0] = k["M0j"][:, None]
    M[:, 1, 2:] = M[:, 2:, 1] = k["M1j"][:, None]
    return M


def test_gauge_identity_blackhole():
    # applying L to the metric itself returns -2 ric = 2(n-1) g on an
    # Einstein background; the residue is finite-difference rounding
    met = black_hole_metric(1.0, 4)
    grid = loggrid(met.profile.r_plus * 1.2, 60.0, 400)
    out = apply_L(assemble_L_blackhole(met), metric_deformation(4, grid))
    diag = out.diag_matrix()
    assert np.max(np.abs(diag - 2.0 * 3.0)) < 1e-9
    for label in ("12", "1j", "2j", "jk"):
        assert np.max(np.abs(out.block(label))) == 0.0


def test_gauge_identity_cusp():
    sys = assemble_L_cusp(5)
    grid = loggrid(1.0, 30.0, 300)
    out = apply_L(sys, metric_deformation(5, grid))
    assert np.max(np.abs(out.diag_matrix() - 2.0 * 4.0)) < 1e-9


def test_gauge_identity_glued_scales():
    # off the exact-Einstein locus L(g) - 2(n-1)g equals -2 tau, which is
    # supported in the transition annulus and decays like R^{1-n}
    n = 4
    outs = []
    for R in (30.0, 120.0):
        met = glued_metric(R, n)
        grid = loggrid(met.profile.r_plus * 1.2, R * 0.999, 3000)
        out = apply_L(assemble_L_blackhole(met), metric_deformation(n, grid))
        outs.append(np.max(np.abs(out.diag_matrix() - 2.0 * (n - 1))))
    assert outs[0] / outs[1] == pytest.approx(4.0 ** (n - 1), rel=0.25)


@pytest.mark.parametrize("n", range(3, 9))
def test_cusp_maps_metric_to_2_n_minus_1_exactly(n):
    # the difference-form derivatives vanish on a constant, so only the
    # coupling's row sums remain, and on the cusp they are exact
    out = apply_L(assemble_L_cusp(n), metric_deformation(n, loggrid(0.6, 40.0, 400)))
    assert np.all(out.diag_matrix() == 2.0 * (n - 1))


@pytest.mark.parametrize("R", [None, 50.0], ids=["blackhole", "glued"])
def test_gauge_residue_at_rounding_level(R):
    # L(g) = -2 ric to rounding on any grid size: the derivatives of the
    # constant metric are exactly zero, however fine the grid
    from dehnfill.curvature import ricci_and_deficit

    met = black_hole_metric(1.0, 4) if R is None else glued_metric(R, 4)
    grid = loggrid(met.profile.r_plus * 1.2, 49.9, 2000)
    out = apply_L(assemble_L_blackhole(met), metric_deformation(4, grid))
    ric = ricci_and_deficit(met, grid).ric_diag
    assert np.max(np.abs(out.diag_matrix() + 2.0 * ric)) <= 1e-13


def test_zero_deformation_maps_to_zero():
    met = black_hole_metric(1.0, 4)
    grid = loggrid(met.profile.r_plus * 1.3, 20.0, 600)
    h = InvariantDeformation(n=4, grid=grid,
                             components={"11": np.zeros(600)})
    out = apply_L(assemble_L_blackhole(met), h)
    for label in BLOCK_LABELS:
        assert np.max(np.abs(out.block(label))) == 0.0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_cusp_coefficients_match_euler_model(n):
    # the shared assembly on V = r^2 gives the Euler model's constants
    r = np.geomspace(1e-3, 1e6, 200)
    C = assemble_L_cusp(n).coefficients(r)
    assert C.shape == (len(COEFFICIENTS), r.size)
    coef, M = _named(C), _coupling(C, n)
    ulp = 8 * np.finfo(float).eps
    assert np.all(np.abs(coef["c2"] + r**2) <= ulp * r**2)
    assert np.all(np.abs(coef["c1"] + n * r) <= ulp * n * r)
    for name, value in zip(("c12", "c1j", "c2j", "cjk"), (2.0 * (n - 1), n, 0, 0)):
        assert np.all(np.abs(coef[name] - value) <= ulp * 2 * n), name
    P, Vr2, K = 2.0, 1.0, -1.0
    expect = np.diag([P + 2 * (n - 2) * Vr2, P] + [2 * Vr2] * (n - 2))
    expect[0, 1] = expect[1, 0] = -(P + 2 * K)
    expect[0, 2:] = expect[2:, 0] = -2 * (Vr2 + K)
    expect[1, 2:] = expect[2:, 1] = -2 * K
    for j in range(2, n):
        for k in range(2, n):
            if j != k:
                expect[j, k] = -2 * K
    assert np.all(np.abs(M - expect) <= ulp * 2 * n)


def test_cusp_offdiag_coefficients():
    sys = assemble_L_cusp(4)
    r = np.array([1.0, 3.0])
    z = _named(sys.coefficients(r))
    assert np.allclose(z["c12"], 6.0)
    assert np.allclose(z["c1j"], 4.0)
    assert np.allclose(z["c2j"], 0.0)
    assert np.allclose(z["cjk"], 0.0)


def test_blackhole_12_coefficient_formula():
    # (Lh)_12 carries the zeroth coefficient (V')^2/V + 2(n-2)V/r^2 + 2K_12
    n, m = 4, 1.0
    met = black_hole_metric(m, n)
    sys = assemble_L_blackhole(met)
    r = np.array([2.0, 5.0])
    V = r**2 - 2.0 * m / r
    V1 = 2.0 * r + 2.0 * m / r**2
    K12 = -1.0 + (n - 3) * (n - 2) * m / r ** (n - 1)
    expect = V1**2 / V + 2.0 * (n - 2) * V / r**2 + 2.0 * K12
    assert np.allclose(_named(sys.coefficients(r))["c12"], expect, rtol=1e-13)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_blackhole_mass_coefficients_exact(n):
    # c2j, cjk and M0j of the unit-mass black hole are O(u), u = 2 r^(1-n),
    # and have no O(1) part; at r = 2^k, where u is exact in floating
    # point, each must match its closed form in exact rational arithmetic
    # (s = (n-1)u, e = 1-u) to a few ulps, however small u is
    ks = range(1, 30)
    r = np.array([2.0**k for k in ks])
    coef = _named(assemble_L_blackhole(black_hole_metric(1.0, n)).coefficients(r))
    ulps = 4 * Fraction(2) ** -52
    for i, k in enumerate(ks):
        u = Fraction(2, 2 ** (k * (n - 1)))
        s, e = (n - 1) * u, 1 - u
        for label, want in (("c2j", s * s / (4 * e)),
                            ("cjk", 2 * s + s * s / (2 * e)),
                            ("M0j", s)):
            got = coef[label][i]
            assert abs(Fraction(float(got)) - want) <= ulps * want, (label, k)


def test_coupling_row_sums():
    # row sums of the diagonal coupling are -2 ric for any profile: the
    # 11, 22 and every jj row, from the six distinct entries
    from dehnfill.curvature import ricci_and_deficit

    for n in range(3, 9):
        glued = glued_metric(25.0, n)
        r_plus = glued.profile.r_plus
        samples = loggrid(1.1 * r_plus, 24.9, 400)
        sampled = profiles.FillingMetric(profiles.SampledProfile(
            grid=samples, values=eval_profile(glued.profile, samples), n=n))
        # from near the core, then across the glued transition annulus
        r = np.concatenate([loggrid(1.2 * r_plus, 19.0, 11),
                            np.linspace(19.0, 24.0, 11)])
        for met in (black_hole_metric(1.0, n), cusp_metric(n), glued, sampled):
            k = _named(assemble_L_blackhole(met).coefficients(r))
            ric = ricci_and_deficit(met, r).ric_diag
            sums = (k["M00"] + k["M01"] + (n - 2) * k["M0j"],
                    k["M01"] + k["M11"] + (n - 2) * k["M1j"],
                    k["M0j"] + k["M1j"] + (n - 2) * k["Mjj"])
            for a in range(n):
                err = np.max(np.abs(sums[min(a, 2)] + 2.0 * ric[:, a]))
                assert err < 1e-10, (type(met.profile), n, a)


def test_indicial_roots_scalar_blocks():
    r11 = indicial_roots("11", 4)
    assert r11[0] == pytest.approx(0.5 * (-3.0 + np.sqrt(33.0)), abs=1e-12)
    assert r11[1] == pytest.approx(0.5 * (-3.0 - np.sqrt(33.0)), abs=1e-12)
    assert indicial_roots("12", 4) == r11
    assert indicial_roots("1j", 4) == (1.0, -4.0)
    assert indicial_roots("jk", 5) == (0.0, -4.0)
    assert indicial_roots("2j", 5) == (0.0, -4.0)


def test_indicial_dichotomy():
    # 11 and 1j never admit a zero root; jk always has exactly one
    for n in range(3, 9):
        for block in ("11", "1j"):
            roots = indicial_roots(block, n)
            assert min(abs(s) for s in roots) > 0.5
        roots = indicial_roots("jk", n)
        assert roots[0] == 0.0
        assert roots[1] == float(1 - n)


def test_indicial_diag_sector():
    n = 4
    exps = indicial_roots("diag", n)
    assert len(exps) == 2 * n
    assert all(a >= b for a, b in zip(exps, exps[1:]))
    r11 = indicial_roots("11", n)
    assert exps[0] == pytest.approx(r11[0], abs=1e-10)
    assert exps[-1] == pytest.approx(r11[1], abs=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_indicial_diag_roots_exact(n):
    # the Euler coupling's eigenvalues are 2(n-1) twice and 0 n-2 times, so
    # the diagonal sector's exponents are the 11 pair twice and (0, 1-n)
    # n-2 times, with no eigensolver rounding
    want = 2 * indicial_roots("11", n) + (n - 2) * (0.0, float(1 - n))
    assert indicial_roots("diag", n) == tuple(sorted(want, reverse=True))


def test_indicial_errors():
    with pytest.raises(UnknownBlock):
        indicial_roots("xy", 4)
    with pytest.raises(OutOfDomain):
        indicial_roots("11", 2)


@pytest.mark.parametrize("block, n", [("11", math.nan), ("1j", math.inf),
                                      ("11", 4.5), ("11", 1e300), ("diag", 4.0)])
def test_indicial_roots_reject_non_integer_n(block, n):
    # these used to give (nan, nan), (1.0, -inf), roots for n=4.5 and an
    # OverflowError
    with pytest.raises(OutOfDomain, match="integer n > 2"):
        indicial_roots(block, n)


def test_euler_annihilation_decaying_root():
    # r^{-n} solves the 1j block; the application residue is pure
    # discretization error of the 9-node template in log r.  On [2, 2e4]
    # every size sits far above the rounding floor; N=800 would not (it
    # reads 1.91e-10 or 1.86e-10 depending on the BLAS kernel)
    sys = assemble_L_cusp(4)
    expected = {50: 6.151353e-3, 100: 1.579004e-4,
                200: 2.295799e-6, 400: 2.462883e-8}
    sups = []
    for npts, val in expected.items():
        grid = loggrid(2.0, 2e4, npts)
        h = InvariantDeformation(n=4, grid=grid,
                                 components={"1j": grid ** (-4.0)})
        sup = float(np.max(np.abs(apply_L(sys, h).block("1j"))))
        assert sup == pytest.approx(val, rel=1e-3)
        sups.append(sup)
    order, _, _ = fit_loglog(
        np.array([50.0, 100.0, 200.0, 400.0]), np.array(sups)
    )
    assert order < -3.5


def test_euler_annihilation_growing_root():
    sys = assemble_L_cusp(4)
    s = indicial_roots("11", 4)[0]
    sups = []
    for npts in (12, 24, 48, 96):
        grid = loggrid(2.0, 12.0, npts)
        h = InvariantDeformation(n=4, grid=grid,
                                 components={"11": grid**s})
        # the 11 block couples into the diagonal sector; the residual of
        # an indicial solution shows up in its own component
        out = apply_L(sys, h)
        sups.append(float(np.max(np.abs(out.block("11")))))
    # the order is fitted below N=96, whose error (0.9e-9 to 1.2e-9,
    # depending on the BLAS kernel) already sits at the rounding floor:
    # 12/24/48 read -6.96 on every kernel.  The template reaches that
    # floor early, so the grids are coarse: on [2, 6] it is reached by
    # N=48, and at N=100..800 a fit reads a spurious order of +1
    order, _, _ = fit_loglog(np.array([12.0, 24.0, 48.0]), np.array(sups[:3]))
    assert order < -3.5
    assert sups[-1] < 1e-8


def test_constant_jk_annihilated():
    sys = assemble_L_cusp(4)
    grid = loggrid(2.0, 6.0, 200)
    h = InvariantDeformation(n=4, grid=grid,
                             components={"jk": np.ones((200, 1))})
    assert np.max(np.abs(apply_L(sys, h).block("jk"))) < 1e-8


def test_linear_1j_annihilated():
    # r^1 is the growing indicial solution of the 1j block
    sys = assemble_L_cusp(4)
    grid = loggrid(2.0, 6.0, 200)
    h = InvariantDeformation(n=4, grid=grid, components={"1j": grid.copy()})
    assert np.max(np.abs(apply_L(sys, h).block("1j"))) < 1e-7


def test_bump_deformation_unit_size():
    grid = loggrid(5.0, 50.0, 2000)
    h = bump_deformation(4, grid, centers=[15.0])
    assert 0.0 < max(np.max(np.abs(a)) for a in h.components.values()) <= 1.0 + 1e-12
    # well-separated centers keep unit size
    h2 = bump_deformation(4, grid, centers=[8.0, 30.0])
    assert max(np.max(np.abs(a)) for a in h2.components.values()) <= 1.0 + 1e-12


# 1e300 and 1e-200 are finite, but their squares overflow and underflow
@pytest.mark.parametrize("width", [float("nan"), 0.0, -0.4, float("inf"),
                                   1e300, 1e-200, np.float64(1e300)])
def test_bump_deformation_rejects_bad_width(width):
    with pytest.raises(OutOfDomain):
        bump_deformation(4, loggrid(5.0, 50.0, 200), centers=[15.0], width=width)


@pytest.mark.parametrize("centers, width", [
    *[([15.0], w) for w in (math.nan, 0.0, -0.4, math.inf, 1e300, 1e-200,
                            np.float64(1e300))],
    ([15.0, math.nan], 0.4), ([-15.0], 0.4), ([math.inf], 0.4)])
def test_compare_operators_rejects_bad_bumps(monkeypatch, centers, width):
    # compare builds its bumps itself, with bump_deformation's checks of
    # the width and the centers, before any stencil is built or applied
    built, applied = _count_stencils(monkeypatch)
    with pytest.raises(OutOfDomain, match="bump"):
        compare_operators(4, loggrid(5.0, 50.0, 200), centers, width=width)
    assert built == [] and applied == []


def test_compare_operators_slope():
    grid = loggrid(4.0, 260.0, 4000)
    cmp4 = compare_operators(4, grid, np.geomspace(8.0, 120.0, 10),
                             r_window=(6.0, 160.0), bins=10)
    assert cmp4.slope == pytest.approx(-3.0, abs=0.1)
    assert np.all(cmp4.diff >= 0.0)


def test_compare_operators_identical_metrics():
    # the window lies outside the bump's support, where both operators
    # see h = 0 on every stencil and agree exactly: all bins are zero
    grid = loggrid(2.0, 30.0, 1500)
    same = compare_operators(4, grid, [5.0], r_window=(15.0, 30.0))
    assert np.max(same.diff) > 0.0
    assert np.max(same.diff[grid >= 15.0]) == 0.0
    assert np.all(same.bin_max == 0.0)
    assert np.isnan(same.slope)


def test_compare_operators_bin_edge_point_counts_in_both_bins():
    # the only grid point of two neighbouring bins sits on their shared
    # edge, so each bin's maximum is the difference at that point: the
    # bins are 0.029 wide in log r, the grid's step 0.05, and the grid
    # is exp-spaced from that edge, so that one node is the edge exactly
    lo, hi, bins, k = 6.0, 8.0, 10, 5
    edges = np.geomspace(lo, hi, bins + 1)
    grid = edges[k] * np.exp(0.05 * np.arange(-11, 50))
    cmp = compare_operators(4, grid, [edges[k]], r_window=(lo, hi), bins=bins)
    i = int(np.searchsorted(grid, edges[k]))
    assert grid[i] == edges[k] and cmp.diff[i] > 0.0
    assert cmp.bin_max[k - 1] == cmp.bin_max[k] == cmp.diff[i]
    # and every bin is the maximum over the grid points inside it, edges in
    for j in range(bins):
        inside = (grid >= edges[j]) & (grid <= edges[j + 1])
        assert cmp.bin_max[j] == np.max(cmp.diff[inside], initial=0.0)


@pytest.mark.parametrize("window", [(5.0, math.nan), (math.nan, 50.0),
                                    (-5.0, 50.0), (0.0, 50.0), (5.0, math.inf),
                                    (500.0, 5.0), (50.0, 50.0), (600.0, 900.0),
                                    (1.0, 4.0)],
                         ids=["hi-nan", "lo-nan", "negative", "zero", "hi-inf",
                              "reversed", "empty", "above-grid", "below-grid"])
def test_compare_operators_rejects_bad_window(window):
    grid = loggrid(5.0, 500.0, 256)
    with pytest.raises(OutOfDomain, match="r_window"):
        compare_operators(4, grid, np.geomspace(7.5, 335.0, 12), r_window=window)


@pytest.mark.parametrize("bins", [2.5, 2, 0, -3, 12.0, "12", None])
def test_compare_operators_rejects_bad_bins(bins):
    # a fit needs three bins; bins=2.5 used to raise a TypeError
    grid = loggrid(5.0, 500.0, 256)
    with pytest.raises(OutOfDomain, match="bins"):
        compare_operators(4, grid, np.geomspace(7.5, 335.0, 12), bins=bins)


@pytest.mark.parametrize("centers, width", [
    (np.geomspace(7.5, 335.0, 12), 0.4), ([3.0, 600.0, 5.0], 0.4),
    ([15.0], 1e-3), ([15.0], 1e-15), ([15.0], 1e-17), ([15.0], 3.0),
    ([15.0], 1e150), ([5.0, 500.0], 0.05),
    # centres and support edges on nodes of the N = 64 grid, which are nodes
    # of the N = 4096 grid too (its step is 1/65 of theirs)
    (loggrid(5.0, 500.0, 64)[[10, 20, 40]], 3 * math.log(100.0) / 63),
    ([5.0, 500.0], 5 * math.log(100.0) / 63)])
def test_bump_deformation_matches_whole_grid_evaluation(centers, width):
    # the bumps are evaluated together on slices around their supports; no
    # bit of the sum may change against evaluating each bump on the whole
    # grid and adding them in center order, in the deformation's every
    # column and in the one column compare takes its derivatives of
    b0, b1, b2 = linearized._unit_bump_maxima()
    scale = max(b0, b1 / width, b2 / width**2)
    for N in (64, 3001, 4096):
        grid = loggrid(5.0, 500.0, N)
        want = np.zeros_like(grid)
        for c in centers:
            want += linearized._unit_bump(np.log(grid), math.log(c), width) / scale
        h = bump_deformation(4, grid, centers, width=width)
        assert np.array_equal(h.values, np.tile(want[:, None], (1, 8)))
        _, x = linearized._checked_grid(grid)
        assert np.array_equal(linearized._bump_column(x, centers, width), want)


def _count_stencils(monkeypatch):
    # the name of each stencil builder called, under every name it has in
    # numutil, linearized and solver, and the shape of each array the
    # derivative kernel is applied to
    built, applied = [], []
    for module in (numutil, linearized, solver):
        for name in ("fornberg_weights", "stencil_weights", "diff_matrix"):
            real = getattr(module, name, None)
            if real is None:
                continue

            def counting(*args, _real=real, _name=name, **kwargs):
                built.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    real_derivatives = linearized._derivatives

    def counting_derivatives(values, stencils):
        applied.append(values.shape)
        return real_derivatives(values, stencils)

    monkeypatch.setattr(linearized, "_derivatives", counting_derivatives)
    return built, applied


def test_compare_operators_builds_stencils_once(monkeypatch):
    # the template is built once per grid size, by Newton's cache; with it
    # warm, an application builds no stencil and takes both derivatives
    # in one kernel call: compare on the one column of h, apply_L on every
    # column
    solver._unit_stencils(1024)
    built, applied = _count_stencils(monkeypatch)
    grid = loggrid(5.0, 500.0, 1024)
    centers = np.geomspace(7.5, 335.0, 12)
    compare_operators(4, grid, centers, r_window=(5.0, 500.0))
    assert built == []
    assert applied == [(1024,)]
    applied.clear()
    apply_L(assemble_L_cusp(4), bump_deformation(4, grid, centers))
    # n = 4: 11, 22, two jj, 12, 1j, 2j and one jk column
    assert built == []
    assert applied == [(1024, 8)]


def test_compare_operators_caches_no_jacobian_band():
    # the operator reads the template alone; the band positions are
    # Newton's, built and kept only for the sizes it solves at
    solver._unit_stencils.cache_clear()
    solver._band.cache_clear()
    grid = loggrid(5.0, 500.0, 1000)
    compare_operators(4, grid, np.geomspace(7.5, 335.0, 12),
                      r_window=(5.0, 500.0))
    assert solver._unit_stencils.cache_info().currsize == 1
    assert solver._band.cache_info().currsize == 0
    band = solver._band(1000)
    assert band.shape == (999, 9) and not band.flags.writeable


def test_compare_operators_evaluates_frame_data_once(monkeypatch):
    # one profile evaluation, the black hole's frame data for its mass
    # part: no cusp operator and no separate V, V', V'' evaluations
    calls = []
    real = profiles._Profile.frame_data

    def counting(profile, r):
        calls.append(profile)
        return real(profile, r)

    orders = []
    real_eval = profiles._Profile._eval

    def counting_eval(profile, r, deriv_order):
        orders.append(deriv_order)
        return real_eval(profile, r, deriv_order)

    monkeypatch.setattr(profiles._Profile, "frame_data", counting)
    monkeypatch.setattr(profiles._Profile, "_eval", counting_eval)
    grid = loggrid(5.0, 500.0, 1024)
    compare_operators(4, grid, np.geomspace(7.5, 335.0, 12),
                      r_window=(5.0, 500.0))
    assert [type(p) for p in calls] == [profiles.BlackHoleProfile]
    assert orders == []


def test_compare_operators_applies_one_operator(monkeypatch):
    # the mass part alone: one zeroth-order pass (the black hole's mass
    # part, never the full coefficients) and one kernel call, on the one
    # 1-D column of the bumps
    counts = {"_derivatives": 0, "coefficients": 0, "_x_coefficients": 0,
              "_mass_part": 0}
    shapes = []
    real = linearized._derivatives

    def counting(values, stencils):
        counts["_derivatives"] += 1
        shapes.append(values.shape)
        return real(values, stencils)

    monkeypatch.setattr(linearized, "_derivatives", counting)
    for name in ("coefficients", "_x_coefficients", "_mass_part"):
        real_method = getattr(linearized.ODESystemL, name)

        def counting_method(sys, r, _real=real_method, _name=name):
            counts[_name] += 1
            return _real(sys, r)

        monkeypatch.setattr(linearized.ODESystemL, name, counting_method)
    grid = loggrid(5.0, 500.0, 1024)
    compare_operators(4, grid, np.geomspace(7.5, 335.0, 12),
                      r_window=(5.0, 500.0))
    assert counts == {"_derivatives": 1, "coefficients": 0,
                      "_x_coefficients": 0, "_mass_part": 1}
    assert shapes == [(1024,)]


def test_compare_operators_accepts_centers_off_the_grid():
    # bumps whose supports miss the grid leave b = 0: every difference is
    # zero and no fit is made
    grid = loggrid(5.0, 500.0, 256)
    cmp = compare_operators(4, grid, [1.0, 2000.0])
    assert not cmp.diff.any()
    assert not cmp.bin_max.any()
    assert math.isnan(cmp.slope)


class _MassPartL(linearized.ODESystemL):
    """The black hole's mass part as a whole operator, for apply_L."""

    def _x_coefficients(self, r):
        return self._mass_part(r)


@pytest.mark.parametrize("N", [256, 4096])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_compare_operators_matches_mass_part_on_every_column(n, N):
    # the one-column rows against the general operator on all K columns:
    # the same zero set and a few ulps of each point's value (n = 3 has no
    # jk row)
    grid = loggrid(5.0, 500.0, N)
    centers = np.geomspace(5.0 * math.exp(0.4), 500.0 * math.exp(-0.4), 12)
    h = bump_deformation(n, grid, centers)
    sys = _MassPartL(black_hole_metric(1.0, n).profile)
    want = np.abs(apply_L(sys, h).values).max(axis=1)
    diff = compare_operators(n, grid, centers).diff
    assert np.array_equal(diff == 0, want == 0)
    assert np.all(np.abs(diff - want) <= 4 * np.finfo(float).eps * want)


def _reference_apply_L(sys, grid, comps):
    """The operator block by block from sys.coefficients, knowing nothing
    of the packed layout: the diagonal sector (11, 22, jj) through M,
    every other block through its own scalar coefficient.  The radial
    derivatives are dense 9-node differentiation matrices in x = log r,
    built on the integer nodes (whose differences are exact) and scaled by
    the step, and taken to r by the chain rule u_r = u_x / r,
    u_rr = (u_xx - u_x) / r^2.  Returns {label: (npts, m) array} and the
    largest term's size."""
    C = sys.coefficients(grid)
    c2, c1, off = C[0], C[1], _named(C)
    M = _coupling(C, sys.n)
    nodes = np.arange(grid.size, dtype=float)
    hx = (math.log(grid[-1]) - math.log(grid[0])) / (grid.size - 1)
    Dx = diff_matrix(nodes, 1, 9) / hx
    Dxx = diff_matrix(nodes, 2, 9) / hx**2
    r = grid[:, None]
    terms = []

    def op(u, zeroth):
        ux, uxx = Dx @ u, Dxx @ u
        terms.extend([c2[:, None] * (uxx - ux) / r**2,
                      c1[:, None] * ux / r, zeroth])
        return terms[-3] + terms[-2] + terms[-1]

    diag = np.column_stack([comps["11"], comps["22"], comps["jj"]])
    Ld = op(diag, np.einsum("pab,pb->pa", M, diag))
    out = {"11": Ld[:, :1], "22": Ld[:, 1:2], "jj": Ld[:, 2:]}
    for label in ("12", "1j", "2j", "jk"):
        u = comps[label].reshape(grid.size, -1)
        out[label] = op(u, off["c" + label][:, None] * u)
    return out, max(float(np.max(np.abs(t), initial=0.0)) for t in terms)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_apply_L_matches_per_block_reference(n):
    # pins the column layout: a 1j/2j swap or a jk pair at the wrong
    # offset gives some column another block's coefficient
    met = black_hole_metric(1.0, n)
    grid = loggrid(3.0, 40.0, 400)
    rng = np.random.default_rng(n)
    widths = {"11": 1, "22": 1, "jj": n - 2, "12": 1, "1j": 1, "2j": 1,
              "jk": (n - 2) * (n - 3) // 2}
    # rough samples, so that no term is a cancellation far below the
    # rounding of the stencil sums
    comps = {label: rng.normal(size=(grid.size, w))
             for label, w in widths.items()}
    sys = assemble_L_blackhole(met)
    got = apply_L(sys, InvariantDeformation(n=n, grid=grid, components=comps))
    want, scale = _reference_apply_L(sys, grid, comps)
    for label in BLOCK_LABELS:
        err = np.abs(got.block(label).reshape(grid.size, -1) - want[label])
        assert np.max(err, initial=0.0) <= 1e-14 * scale, label


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_compare_operators_matches_two_apply_L(n):
    # at compare's defaults, where the subtraction of two full operators
    # still resolves the difference, the mass part gives the same diff to
    # a few ulps of the operators' size (2.7e-16 to 3.3e-16 measured)
    grid = loggrid(5.0, 500.0, 4096)
    centers = np.geomspace(5.0 * math.exp(0.4), 500.0 * math.exp(-0.4), 12)
    h = bump_deformation(n, grid, centers)
    La = apply_L(assemble_L_cusp(n), h)
    Lb = apply_L(assemble_L_blackhole(black_hole_metric(1.0, n)), h)
    expected = np.zeros(grid.size)
    scale = 0.0
    for label in BLOCK_LABELS:
        a = La.block(label).reshape(grid.size, -1)
        d = np.abs(a - Lb.block(label).reshape(grid.size, -1))
        # n = 3 has no jk column
        expected = np.maximum(expected, d.max(axis=1, initial=0.0))
        scale = max(scale, float(np.max(np.abs(a), initial=0.0)))
    diff = compare_operators(n, grid, centers).diff
    assert np.max(np.abs(diff - expected)) <= 1e-15 * scale


def test_unit_bump_matches_masked_evaluation():
    # the clipped, unmasked bump gives the bits of exp on the open support
    # and exactly 0 elsewhere, at the support's ends and next to them too
    x = np.concatenate([
        np.random.default_rng(7).uniform(-1.5, 1.5, 20000),
        np.nextafter([-1.0, -1.0, 1.0, 1.0, 0.0], [-2, 2, -2, 2, 1]),
        [-1.0, 1.0, 0.0, -1.0 + 1e-300, 1.0 - 1e-16]])
    for center, width in ((0.0, 1.0), (3.5, 0.4), (-2.0, 1e-3)):
        xs = center + width * x
        t = (xs - (center - width)) / (2.0 * width)
        want = np.zeros_like(t)
        inside = (t > 0) & (t < 1)
        ti = t[inside]
        want[inside] = np.exp(4.0 - 1.0 / ti - 1.0 / (1.0 - ti))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linearized._unit_bump(xs, center, width)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got).any()


def test_unit_bump_maxima_cached_and_lazy():
    xf = np.linspace(-1.0, 1.0, 4001)
    ref = linearized._unit_bump(xf, 0.0, 1.0)
    d1 = np.gradient(ref, xf)
    d2 = np.gradient(d1, xf)
    fresh = (np.max(np.abs(ref)), np.max(np.abs(d1)), np.max(np.abs(d2)))
    assert linearized._unit_bump_maxima() == fresh
    assert linearized._unit_bump_maxima() is linearized._unit_bump_maxima()
    # nothing is computed at import time
    code = ("import dehnfill.linearized as m; "
            "print(m._unit_bump_maxima.cache_info().currsize)")
    src = str(Path(linearized.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


def test_apply_L_grid_too_coarse():
    sys = assemble_L_cusp(4)
    grid = loggrid(2.0, 6.0, 8)
    h = InvariantDeformation(n=4, grid=grid, components={"11": np.ones(8)})
    with pytest.raises(GridTooCoarse):
        apply_L(sys, h)


def test_apply_L_core_margin():
    met = black_hole_metric(1.0, 4)
    rp = met.profile.r_plus
    grid = loggrid(rp + 1e-4, 10.0, 200)
    h = InvariantDeformation(n=4, grid=grid, components={"11": np.ones(200)})
    with pytest.raises(SingularAtCore):
        apply_L(assemble_L_blackhole(met), h)


def test_deformation_validation():
    grid = loggrid(1.0, 2.0, 10)
    with pytest.raises(UnknownBlock):
        InvariantDeformation(n=4, grid=grid, components={"33": np.ones(10)})
    with pytest.raises(TooFewSamples):
        InvariantDeformation(n=4, grid=grid, components={"11": np.ones(7)})
    bad = np.ones(10)
    bad[3] = np.nan
    with pytest.raises(NonFiniteField):
        InvariantDeformation(n=4, grid=grid, components={"11": bad})
    with pytest.raises(GridTooCoarse):
        InvariantDeformation(n=4, grid=grid[::-1].copy(),
                             components={"11": np.ones(10)})


@pytest.mark.parametrize("grid", [[1.0, 2.0, math.nan], [1.0, 2.0, math.inf],
                                  [-math.inf, 1.0, 2.0], [1.0, math.nan, 2.0]])
@pytest.mark.parametrize("build", [
    lambda grid: InvariantDeformation(n=4, grid=grid, components={}),
    lambda grid: metric_deformation(4, grid),
    lambda grid: bump_deformation(4, grid, centers=[1.5]),
    lambda grid: compare_operators(4, grid, [1.5]),
], ids=["InvariantDeformation", "metric_deformation", "bump_deformation",
        "compare_operators"])
def test_deformations_reject_non_finite_grid(build, grid):
    # a spacing of nan compares False with 0, and one of inf is positive
    with pytest.raises(NonFiniteField):
        build(grid)


def _nudged_loggrid():
    grid = loggrid(5.0, 500.0, 256)
    grid[100] *= 1.0 + 1e-6
    return grid


@pytest.mark.parametrize("grid", [np.linspace(5.0, 500.0, 256),
                                  _nudged_loggrid()],
                         ids=["linspace", "nudged-loggrid"])
def test_operator_rejects_grid_not_uniform_in_log_r(monkeypatch, grid):
    # the operator takes its derivatives on a uniform grid in log r; a
    # deformation on any other grid cannot be built, so every entry point
    # raises before a stencil is built or applied
    built, applied = _count_stencils(monkeypatch)
    entry_points = [
        lambda: apply_L(assemble_L_cusp(4), metric_deformation(4, grid)),
        lambda: compare_operators(4, grid, [50.0]),
        lambda: bump_deformation(4, grid, centers=[50.0]),
    ]
    for call in entry_points:
        with pytest.raises(GridTooCoarse, match="uniform in log r"):
            call()
    assert built == [] and applied == []


@pytest.mark.parametrize("lo, hi", [(1e-100, 1e100), (50.0, 1e150)])
def test_deformation_accepts_wide_geomspace_grids(lo, hi):
    # the tolerance follows the rounding of log, which grows with |log r|
    h = InvariantDeformation(n=4, grid=np.geomspace(lo, hi, 4096),
                             components={})
    assert h.grid.size == 4096


def test_deformation_grid_is_positive_and_read_only():
    with pytest.raises(OutOfDomain, match="positive"):
        InvariantDeformation(n=4, grid=[-1.0, 1.0, 3.0], components={})
    grid = loggrid(5.0, 50.0, 16)
    h = InvariantDeformation(n=4, grid=grid, components={})
    # a copy: changing the caller's array afterwards cannot undo the checks
    grid[3] = 7.0
    assert h.grid[3] != 7.0
    with pytest.raises(ValueError):
        h.grid[3] = 7.0


@pytest.mark.parametrize("n", [math.nan, 2.5, True, 2, 40, 4.0])
@pytest.mark.parametrize("build", [
    lambda n, grid: InvariantDeformation(n=n, grid=grid, components={}),
    lambda n, grid: metric_deformation(n, grid),
    lambda n, grid: bump_deformation(n, grid, centers=[15.0]),
    lambda n, grid: compare_operators(n, grid, [15.0]),
], ids=["InvariantDeformation", "metric_deformation", "bump_deformation",
        "compare_operators"])
def test_deformations_reject_bad_dimension(build, n):
    # these used to be accepted, or to fail later with a TypeError
    with pytest.raises(OutOfDomain):
        build(n, loggrid(5.0, 50.0, 64))


@pytest.mark.parametrize("n, label, shape", [
    (4, "jk", (64, 3)), (4, "12", (64, 5)), (4, "jj", (64, 3)),
    (4, "jj", (64,)), (5, "jk", (64,)), (3, "jk", (64,)), (3, "jk", (64, 1)),
    (4, "11", (64, 1, 1)), (4, "11", ())])
def test_deformation_rejects_wrong_block_width(n, label, shape):
    # jj has n-2 columns, jk (n-2)(n-3)/2 and every other block one
    with pytest.raises(TooFewSamples):
        InvariantDeformation(n=n, grid=loggrid(5.0, 50.0, 64),
                             components={label: np.ones(shape)})


def test_deformation_packs_blocks_into_views():
    # columns 11, 22, jj_1..jj_{n-2}, 12, 1j, 2j, jk_1..jk_P; a one-column
    # block may be given 1-D or as one column, absent blocks are zero
    n, grid = 5, loggrid(5.0, 50.0, 16)
    ones = np.ones(16)
    h = InvariantDeformation(n=n, grid=grid, components={
        "11": 1 * ones, "22": 2 * ones[:, None],
        "jj": np.tile([3.0, 4.0, 5.0], (16, 1)), "1j": 7 * ones,
        "jk": np.tile([9.0, 10.0, 11.0], (16, 1))})
    want = [1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 7.0, 0.0, 9.0, 10.0, 11.0]
    assert np.array_equal(h.values, np.tile(want, (16, 1)))
    assert h.block("22").shape == (16,) and h.block("jj").shape == (16, 3)
    for label in BLOCK_LABELS:
        assert np.shares_memory(h.values, h.block(label)), label
    assert np.shares_memory(h.values, h.diag_matrix())
    assert np.array_equal(h.diag_matrix(), h.values[:, :n])
    assert h.components.keys() == set(BLOCK_LABELS)
    with pytest.raises(UnknownBlock):
        h.block("33")
    h3 = InvariantDeformation(n=3, grid=grid, components={"jj": ones})
    assert h3.values.shape == (16, 6) and h3.block("jk").shape == (16, 0)
    h4 = InvariantDeformation(n=4, grid=grid, components={"jk": ones})
    assert np.array_equal(h4.block("jk"), ones[:, None])
