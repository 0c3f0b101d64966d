import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dehnfill import curvature, linearized

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
    InvariantDeformation,
    apply_L,
    assemble_L_blackhole,
    assemble_L_cusp,
    bump_deformation,
    compare_operators,
    indicial_roots,
    metric_deformation,
    torus_average,
)
from dehnfill.numutil import fit_loglog, loggrid
from dehnfill.profiles import black_hole_metric, cusp_metric, glued_metric


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
    grid = np.linspace(1.0, 30.0, 300)
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


def test_zero_deformation_maps_to_zero():
    met = black_hole_metric(1.0, 4)
    grid = loggrid(met.profile.r_plus * 1.3, 20.0, 600)
    h = InvariantDeformation(n=4, grid=grid,
                             components={"11": np.zeros(600)})
    out = apply_L(assemble_L_blackhole(met), h)
    for label in BLOCK_LABELS:
        assert np.max(np.abs(out.block(label))) == 0.0


def test_cusp_substitution_is_exact():
    # the warped assembly with V = r^2 must reduce to the Euler model
    for n in (4, 6):
        r = np.linspace(0.5, 40.0, 97)
        warped = assemble_L_blackhole(cusp_metric(n))
        euler = assemble_L_cusp(n)
        cw2, cw1 = warped.a_coefficients(r)
        ce2, ce1 = euler.a_coefficients(r)
        assert np.max(np.abs(cw2 - ce2)) < 1e-14 * np.max(np.abs(ce2))
        assert np.max(np.abs(cw1 - ce1)) < 1e-14 * np.max(np.abs(ce1))
        zw = warped.zeroth_offdiag(r)
        ze = euler.zeroth_offdiag(r)
        for label in ("12", "1j", "2j", "jk"):
            assert np.max(np.abs(zw[label] - ze[label])) < 1e-12
        Mw = warped.coupling_diag(r)
        Me = euler.coupling_diag(r)
        assert np.max(np.abs(Mw - Me)) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_cusp_coefficients_match_euler_model(n):
    # the shared assembly on V = r^2 gives the Euler model's constants
    r = np.geomspace(1e-3, 1e6, 200)
    c2, c1, off, M = assemble_L_cusp(n).coefficients(r)
    ulp = 8 * np.finfo(float).eps
    assert np.all(np.abs(c2 + r**2) <= ulp * r**2)
    assert np.all(np.abs(c1 + n * r) <= ulp * n * r)
    for label, value in zip(("12", "1j", "2j", "jk"), (2.0 * (n - 1), n, 0, 0)):
        assert np.all(np.abs(off[label] - value) <= ulp * 2 * n), label
    P, Vr2, K = 2.0, 1.0, -1.0
    expect = np.diag([P + 2 * (n - 2) * Vr2, P] + [2 * Vr2] * (n - 2))
    expect[0, 1] = expect[1, 0] = -(P + 2 * K)
    expect[0, 2:] = expect[2:, 0] = -2 * (Vr2 + K)
    expect[1, 2:] = expect[2:, 1] = -2 * K
    for j in range(2, n):
        for k in range(2, n):
            if j != k:
                expect[j, k] = -2 * K
    assert M.shape == (r.size, n, n)
    assert np.all(np.abs(M - expect) <= ulp * 2 * n)


def test_cusp_offdiag_coefficients():
    sys = assemble_L_cusp(4)
    r = np.array([1.0, 3.0])
    z = sys.zeroth_offdiag(r)
    assert np.allclose(z["12"], 6.0)
    assert np.allclose(z["1j"], 4.0)
    assert np.allclose(z["2j"], 0.0)
    assert np.allclose(z["jk"], 0.0)


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
    assert np.allclose(sys.zeroth_offdiag(r)["12"], expect, rtol=1e-13)


def test_coupling_row_sums():
    # row sums of the diagonal coupling are -2 ric for any profile
    from dehnfill.curvature import ricci_and_deficit

    met = glued_metric(25.0, 5)
    r = np.linspace(19.0, 24.0, 11)
    M = assemble_L_blackhole(met).coupling_diag(r)
    ric = ricci_and_deficit(met, r).ric_diag
    assert np.max(np.abs(M.sum(axis=2) + 2.0 * ric)) < 1e-10


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


def test_indicial_errors():
    with pytest.raises(UnknownBlock):
        indicial_roots("xy", 4)
    with pytest.raises(OutOfDomain):
        indicial_roots("11", 2)


def test_euler_annihilation_decaying_root():
    # r^{-n} solves the 1j block; the application residue is pure
    # discretization error of the 4th-order stencils
    sys = assemble_L_cusp(4)
    expected = {100: 2.785968e-4, 200: 2.096571e-5,
                400: 1.441345e-6, 800: 9.459893e-8}
    sups = []
    for npts, val in expected.items():
        grid = np.linspace(2.0, 6.0, npts)
        h = InvariantDeformation(n=4, grid=grid,
                                 components={"1j": grid ** (-4.0)})
        sup = float(np.max(np.abs(apply_L(sys, h).block("1j"))))
        assert sup == pytest.approx(val, rel=1e-3)
        sups.append(sup)
    order, _, _ = fit_loglog(
        np.array([100.0, 200.0, 400.0, 800.0]), np.array(sups)
    )
    assert order < -3.5


def test_euler_annihilation_growing_root():
    sys = assemble_L_cusp(4)
    s = indicial_roots("11", 4)[0]
    sups = []
    for npts in (100, 200, 400):
        grid = np.linspace(2.0, 6.0, npts)
        h = InvariantDeformation(n=4, grid=grid,
                                 components={"11": grid**s})
        # the 11 block couples into the diagonal sector; the residual of
        # an indicial solution shows up in its own component
        out = apply_L(sys, h)
        sups.append(float(np.max(np.abs(out.block("11")))))
    order, _, _ = fit_loglog(np.array([100.0, 200.0, 400.0]), np.array(sups))
    assert order < -3.5
    assert sups[-1] < 1e-8


def test_constant_jk_annihilated():
    sys = assemble_L_cusp(4)
    grid = np.linspace(2.0, 6.0, 200)
    h = InvariantDeformation(n=4, grid=grid,
                             components={"jk": np.ones((200, 1))})
    assert np.max(np.abs(apply_L(sys, h).block("jk"))) < 1e-8


def test_linear_1j_annihilated():
    # r^1 is the growing indicial solution of the 1j block
    sys = assemble_L_cusp(4)
    grid = np.linspace(2.0, 6.0, 200)
    h = InvariantDeformation(n=4, grid=grid, components={"1j": grid.copy()})
    assert np.max(np.abs(apply_L(sys, h).block("1j"))) < 1e-7


def test_bump_deformation_unit_size():
    grid = loggrid(5.0, 50.0, 2000)
    h = bump_deformation(4, grid, centers=[15.0])
    assert 0.0 < h.max_abs() <= 1.0 + 1e-12
    only = bump_deformation(4, grid, centers=[15.0], blocks=("11",))
    assert set(only.components) == {"11"}
    # well-separated centers keep unit size
    h2 = bump_deformation(4, grid, centers=[8.0, 30.0])
    assert h2.max_abs() <= 1.0 + 1e-12


@pytest.mark.parametrize("width", [float("nan"), 0.0, -0.4, float("inf")])
def test_bump_deformation_rejects_bad_width(width):
    with pytest.raises(OutOfDomain):
        bump_deformation(4, loggrid(5.0, 50.0, 200), centers=[15.0], width=width)


def test_compare_operators_slope():
    grid = loggrid(4.0, 260.0, 4000)
    h = bump_deformation(4, grid, centers=np.geomspace(8.0, 120.0, 10))
    cmp4 = compare_operators(h, r_window=(6.0, 160.0), bins=10)
    assert cmp4.slope == pytest.approx(-3.0, abs=0.1)
    assert np.all(cmp4.diff >= 0.0)


def test_compare_operators_identical_metrics():
    grid = loggrid(1.0, 30.0, 1500)
    h = bump_deformation(4, grid, centers=[5.0])
    same = compare_operators(h, metric_a=cusp_metric(4),
                             metric_b=cusp_metric(4))
    assert np.max(same.diff) == 0.0
    assert np.isnan(same.slope)


def test_compare_operators_bin_edge_point_counts_in_both_bins():
    # the only grid point of two neighbouring bins sits on their shared
    # edge, so each bin's maximum is the difference at that point
    lo, hi, bins, k = 6.0, 160.0, 10, 5
    edges = np.geomspace(lo, hi, bins + 1)
    grid = loggrid(4.0, 260.0, 800)
    grid = np.sort(np.append(
        grid[(grid < edges[k - 1]) | (grid > edges[k + 1])], edges[k]))
    h = bump_deformation(4, grid, centers=[edges[k]])
    cmp = compare_operators(h, r_window=(lo, hi), bins=bins)
    i = int(np.searchsorted(grid, edges[k]))
    assert grid[i] == edges[k] and cmp.diff[i] > 0.0
    assert cmp.bin_max[k - 1] == cmp.bin_max[k] == cmp.diff[i]
    # and every bin is the maximum over the grid points inside it, edges in
    for j in range(bins):
        inside = (grid >= edges[j]) & (grid <= edges[j + 1])
        assert cmp.bin_max[j] == np.max(cmp.diff[inside], initial=0.0)


@pytest.mark.parametrize("window", [(5.0, math.nan), (math.nan, 50.0),
                                    (-5.0, 50.0), (0.0, 50.0), (5.0, math.inf)],
                         ids=["hi-nan", "lo-nan", "negative", "zero", "hi-inf"])
def test_compare_operators_rejects_bad_window(window):
    grid = loggrid(5.0, 500.0, 256)
    h = bump_deformation(4, grid, centers=np.geomspace(7.5, 335.0, 12))
    with pytest.raises(OutOfDomain, match="r_window"):
        compare_operators(h, r_window=window)


@pytest.mark.parametrize("centers, width", [
    (np.geomspace(7.5, 335.0, 12), 0.4), ([3.0, 600.0, 5.0], 0.4),
    ([15.0], 1e-3), ([15.0], 1e-15), ([15.0], 1e-17), ([15.0], 3.0),
    ([15.0], 1e150), ([5.0, 500.0], 0.05)])
def test_bump_deformation_matches_whole_grid_evaluation(centers, width):
    # each bump is evaluated on a slice around its support; no bit of the
    # sum may change against evaluating it on the whole grid
    grid = loggrid(5.0, 500.0, 3001)
    h = bump_deformation(4, grid, centers, width=width)
    b0, b1, b2 = linearized._unit_bump_maxima()
    scale = max(b0, b1 / width, b2 / width**2)
    want = np.zeros_like(grid)
    for c in centers:
        want += linearized._unit_bump(np.log(grid), math.log(c), width) / scale
    assert np.array_equal(h.components["11"], want)


def _count_stencils(monkeypatch):
    calls = []
    real = linearized.stencil_weights

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(linearized, "stencil_weights", counting)
    return calls


def test_compare_operators_builds_stencils_once(monkeypatch):
    calls = _count_stencils(monkeypatch)
    grid = loggrid(5.0, 500.0, 1024)
    h = bump_deformation(4, grid, centers=np.geomspace(7.5, 335.0, 12))
    compare_operators(h, r_window=(5.0, 500.0))
    assert sorted(calls) == [(1, 5), (2, 6)]
    calls.clear()
    apply_L(assemble_L_cusp(4), h)
    assert sorted(calls) == [(1, 5), (2, 6)]


def test_compare_operators_evaluates_frame_data_twice(monkeypatch):
    # one profile evaluation (V, V', V'') per operator, none per
    # coefficient set
    calls = []
    real = linearized._frame_data

    def counting(profile, r):
        calls.append(profile)
        return real(profile, r)

    orders = []
    real_eval = curvature.eval_profile

    def counting_eval(profile, r, deriv_order=0):
        orders.append(deriv_order)
        return real_eval(profile, r, deriv_order)

    monkeypatch.setattr(linearized, "_frame_data", counting)
    monkeypatch.setattr(curvature, "eval_profile", counting_eval)
    grid = loggrid(5.0, 500.0, 1024)
    h = bump_deformation(4, grid, centers=np.geomspace(7.5, 335.0, 12))
    compare_operators(h, r_window=(5.0, 500.0))
    assert [p.variant for p in calls] == ["cusp", "blackhole"]
    assert orders == [0, 1, 2, 0, 1, 2]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_compare_operators_matches_two_apply_L(n):
    # sharing the derivatives changes no bit of the difference
    grid = loggrid(5.0, 500.0, 1024)
    h = bump_deformation(n, grid, centers=np.geomspace(7.5, 335.0, 12))
    La = apply_L(assemble_L_cusp(n), h)
    Lb = apply_L(assemble_L_blackhole(black_hole_metric(1.0, n)), h)
    expected = np.zeros(grid.size)
    for label in BLOCK_LABELS:
        d = np.abs(La.block(label) - Lb.block(label)).reshape(grid.size, -1)
        expected = np.maximum(expected, d.max(axis=1))
    assert np.array_equal(compare_operators(h).diff, expected)


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


def test_torus_average_constant_input():
    grid = np.linspace(1.0, 5.0, 20)
    base = np.linspace(0.0, 1.0, 20)
    samples = {"11": np.repeat(base[:, None], 16, axis=1)}
    out = torus_average(4, grid, samples)
    assert np.array_equal(out.block("11"), base)


def test_torus_average_kills_oscillation():
    grid = np.linspace(1.0, 5.0, 20)
    theta = 2.0 * np.pi * np.arange(32) / 32.0
    samples = {"11": np.broadcast_to(np.sin(theta), (20, 32)).copy()}
    out = torus_average(4, grid, samples)
    assert np.max(np.abs(out.block("11"))) < 1e-14


def test_torus_average_lift_slope():
    # oscillation amplitude proportional to the torus diameter r/R leaves
    # a residual of exactly that order after averaging
    R = 100.0
    grid = np.geomspace(1.0, 80.0, 25)
    theta = 2.0 * np.pi * np.arange(64) / 64.0
    lift = (grid[:, None] / R) * np.sin(theta)[None, :]
    avg = torus_average(4, grid, {"11": lift})
    resid = np.max(np.abs(lift - avg.block("11")[:, None]), axis=1)
    slope, _, _ = fit_loglog(grid, resid)
    assert slope == pytest.approx(1.0, abs=0.05)


def test_torus_average_needs_samples():
    grid = np.linspace(1.0, 5.0, 20)
    with pytest.raises(TooFewSamples):
        torus_average(4, grid, {"11": np.ones((20, 8))})


def test_apply_L_grid_too_coarse():
    sys = assemble_L_cusp(4)
    grid = np.linspace(2.0, 6.0, 8)
    h = InvariantDeformation(n=4, grid=grid, components={"11": np.ones(8)})
    with pytest.raises(GridTooCoarse):
        apply_L(sys, h)


def test_apply_L_core_margin():
    met = black_hole_metric(1.0, 4)
    rp = met.profile.r_plus
    grid = np.linspace(rp + 1e-4, 10.0, 200)
    h = InvariantDeformation(n=4, grid=grid, components={"11": np.ones(200)})
    with pytest.raises(SingularAtCore):
        apply_L(assemble_L_blackhole(met), h)


def test_deformation_validation():
    grid = np.linspace(1.0, 2.0, 10)
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
