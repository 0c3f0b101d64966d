import math

import numpy as np
import pytest

from dehnfill.errors import (
    DerivOrderUnsupported,
    InvalidMass,
    OutOfDomain,
    RadiusTooSmall,
)
from dehnfill.linearized import indicial_roots
from dehnfill.profiles import (
    MAX_DIMENSION,
    BlackHoleProfile,
    CuspProfile,
    GluedProfile,
    SampledProfile,
    _cutoff_mass,
    black_hole_metric,
    closing_parameters,
    cusp_metric,
    eval_profile,
    glued_metric,
)
from dehnfill.numutil import _smoothstep, loggrid, smoothstep
from dehnfill.solver import einstein_residual


def test_eval_profile_cusp():
    assert eval_profile(CuspProfile(4), 3.0, 0) == 9.0
    assert eval_profile(CuspProfile(4), 3.0, 1) == 6.0
    assert eval_profile(CuspProfile(4), 3.0, 2) == 2.0


def test_eval_profile_blackhole_values():
    prof = BlackHoleProfile(m=1.0, n=4)
    # V(2) = 4 - 2/2
    assert eval_profile(prof, 2.0, 0) == pytest.approx(3.0, abs=1e-14)
    r_plus = 2.0 ** (1.0 / 3.0)
    assert eval_profile(prof, r_plus, 0) == pytest.approx(0.0, abs=1e-14)
    assert prof.r_plus == pytest.approx(r_plus, abs=1e-15)


def test_eval_profile_domain_and_order_errors():
    prof = BlackHoleProfile(m=1.0, n=4, domain=(1.3, 10.0))
    with pytest.raises(OutOfDomain):
        eval_profile(prof, 0.5, 0)
    with pytest.raises(OutOfDomain):
        eval_profile(prof, 11.0, 0)
    with pytest.raises(DerivOrderUnsupported):
        eval_profile(prof, 2.0, 3)


@pytest.mark.parametrize("r", [math.nan, [5.0, math.nan, 10.0]])
def test_eval_profile_rejects_nan_radius(r):
    # every comparison with nan is False, so a domain check written as
    # "any radius below or above" let it through to a RuntimeWarning
    with pytest.raises(OutOfDomain):
        eval_profile(GluedProfile(20.0, 4), r)


def test_closing_parameters_values():
    r_plus, beta = closing_parameters(1.0, 4)
    assert r_plus == pytest.approx(1.2599210, abs=1e-6)
    assert beta == pytest.approx(3.3246500, abs=1e-5)

    r_plus, beta = closing_parameters(0.5, 3)
    assert r_plus == 1.0
    assert beta == pytest.approx(2.0 * math.pi, abs=1e-14)

    with pytest.raises(InvalidMass):
        closing_parameters(0.0, 4)
    with pytest.raises(InvalidMass):
        closing_parameters(-1.0, 5)


def test_closing_smooth_cone_consistency():
    # beta must equal 4 pi / V'(r_plus) since V'(r_plus) = (n-1) r_plus
    r_plus, beta = closing_parameters(1.0, 5)
    prof = BlackHoleProfile(m=1.0, n=5)
    v1 = eval_profile(prof, r_plus, 1)
    assert beta == pytest.approx(4.0 * math.pi / v1, abs=1e-12)


def test_closing_identity_sweep():
    for m in (0.25, 0.5, 1.0, 2.0, 4.0):
        for n in range(3, 9):
            r_plus, beta = closing_parameters(m, n)
            prof = BlackHoleProfile(m=m, n=n)
            assert abs(beta * eval_profile(prof, r_plus, 1) - 4.0 * math.pi) < 1e-12
            assert abs(r_plus - (2.0 * m) ** (1.0 / (n - 1))) < 1e-12


def test_cutoff_shape():
    # the cutoff of the glued profile at R = 10, from 1 below 8 to 0 above 9
    lo, hi = GluedProfile(10.0, 4).transition
    assert (lo, hi) == (8.0, 9.0)
    r = np.linspace(7.0, 10.0, 301)
    chi = _cutoff_mass(r, lo, hi, 0)[0]
    assert np.all((0.0 <= chi) & (chi <= 1.0))
    assert np.all(np.diff(chi) <= 1e-15)
    assert np.all(chi[r <= 8.0] == 1.0)
    assert np.all(chi[r >= 9.0] == 0.0)
    # derivatives vanish identically outside the window, not just approximately
    outside = (r < 8.0) | (r > 9.0)
    _, chi_d1, chi_d2 = _cutoff_mass(r, lo, hi, 2)
    assert np.all(chi_d1[outside] == 0.0)
    assert np.all(chi_d2[outside] == 0.0)


@pytest.mark.parametrize("build", [GluedProfile, glued_metric],
                         ids=["class", "builder"])
@pytest.mark.parametrize("R", [math.nan, math.inf, 3.0],
                         ids=["nan", "inf", "inside-core-margin"])
def test_glued_profile_rejects_bad_radius(build, R):
    # R = 1e200 is test_cutoff_rejects_window_whose_squared_width_overflows
    with pytest.raises(RadiusTooSmall):
        build(R, 4)


@pytest.mark.parametrize("n", [3, 4, 7])
@pytest.mark.parametrize("R", [4.5, 10.0, 123.4, 1e150])
def test_glued_window_and_domain_follow_from_R(R, n):
    prof = GluedProfile(R, n)
    assert prof.transition == (0.8 * R, 0.9 * R)
    assert prof.domain == (closing_parameters(1.0, n)[0], R)
    assert prof.outer_radius == R
    assert prof == GluedProfile(R, n)


def test_glued_profile_closed_form_regions():
    prof = GluedProfile(100.0, 4)
    # chi = 1 region: V(50) = 2500 - 2/50
    assert eval_profile(prof, 50.0, 0) == pytest.approx(2499.96, abs=1e-12)
    # chi = 0 region: pure cusp
    assert eval_profile(prof, 99.5, 0) == pytest.approx(99.5**2, abs=1e-12)


def test_glued_profile_matches_pieces_bitwise():
    prof = GluedProfile(100.0, 4)
    bh = BlackHoleProfile(m=1.0, n=4)
    lo, hi = prof.transition
    r_in = np.linspace(prof.domain[0] * 1.001, lo * 0.999, 97)
    r_out = np.linspace(hi * 1.001, 99.9, 97)
    for order in (0, 1, 2):
        assert np.array_equal(eval_profile(prof, r_in, order),
                              eval_profile(bh, r_in, order))
        cusp_vals = {0: r_out**2, 1: 2.0 * r_out, 2: np.full_like(r_out, 2.0)}
        assert np.array_equal(eval_profile(prof, r_out, order), cusp_vals[order])


def test_glued_profile_smooth_junctions():
    # R=10 puts the transition on [8, 9]; check C^4 by comparing one-sided
    # finite differences of V across each junction
    prof = GluedProfile(10.0, 5)
    for rj in prof.transition:
        h = 1e-2
        for order in (1, 2):
            left = _fd(prof, rj - 2.0 * h, h, order)
            right = _fd(prof, rj + 2.0 * h, h, order)
            exact_l = eval_profile(prof, rj - 2.0 * h, order)
            exact_r = eval_profile(prof, rj + 2.0 * h, order)
            assert abs(left - exact_l) < 1e-6 * max(1.0, abs(exact_l))
            assert abs(right - exact_r) < 1e-6 * max(1.0, abs(exact_r))


def _fd(prof, r, h, order):
    stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h + r
    vals = eval_profile(prof, stencil, 0)
    if order == 1:
        w = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    else:
        w = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h**2)
    return float(w @ vals)


def test_analytic_derivatives_match_fd():
    profiles = [
        (CuspProfile(n=4, domain=(0.5, 50.0)), np.linspace(1.0, 40.0, 23)),
        (BlackHoleProfile(m=1.0, n=4), np.linspace(1.5, 40.0, 23)),
        (BlackHoleProfile(m=2.0, n=7), np.linspace(1.6, 40.0, 23)),
        (GluedProfile(30.0, 5), np.linspace(2.0, 29.0, 41)),
    ]
    for prof, rs in profiles:
        for r in rs:
            for order in (1, 2):
                fd = _fd(prof, r, 1e-3 * max(1.0, r), order)
                exact = eval_profile(prof, float(r), order)
                assert abs(fd - exact) < 1e-6 * max(1.0, abs(exact))


def test_glued_profile_too_small():
    with pytest.raises(RadiusTooSmall):
        GluedProfile(1.8, 4)


def test_sampled_profile_validation():
    grid = np.linspace(1.0, 2.0, 8)
    with pytest.raises(OutOfDomain):
        SampledProfile(grid=grid, values=grid**2, n=4)  # fewer than 9 points
    grid = np.array([1.0, 2.0, 1.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    with pytest.raises(OutOfDomain):
        SampledProfile(grid=grid, values=grid**2, n=4)


def test_sampled_profile_rejects_non_positive_grid():
    # V is interpolated in log r, which needs r > 0
    for lo in (0.0, -1.0):
        grid = np.linspace(lo, lo + 8.0, 9)
        with pytest.raises(OutOfDomain, match="positive"):
            SampledProfile(grid=grid, values=grid**2, n=4)


def test_sampled_profile_between_nodes_matches_closed_form():
    bh = BlackHoleProfile(m=1.0, n=5)
    grid = np.geomspace(bh.r_plus, 50.0 * bh.r_plus, 256)
    prof = SampledProfile(grid=grid, values=eval_profile(bh, grid, 0), n=5)
    r = np.geomspace(grid[0], grid[-1], 1001)
    for k in (0, 1, 2):
        want = eval_profile(bh, r, k)
        err = np.abs(eval_profile(prof, r, k) - want)
        assert np.all(err <= 1e-9 * np.maximum(np.abs(want), 1.0))
    assert isinstance(eval_profile(prof, 3.0, 2), float)
    assert eval_profile(prof, np.full((2, 3), 3.0), 1).shape == (2, 3)


@pytest.mark.parametrize("n", range(3, 9))
def test_sampled_black_hole_is_einstein_between_nodes(n):
    # mu = m is read off the samples and differentiated, not V itself, so
    # the deficit keeps its digits at every n
    bh = BlackHoleProfile(m=1.0, n=n)
    grid = loggrid(bh.r_plus, 50.0 * bh.r_plus, 256)
    prof = SampledProfile(grid=grid, values=eval_profile(bh, grid), n=n)
    r = np.geomspace(grid[0], grid[-1], 1002)[1:-1]
    (_, F1), (_, F2) = einstein_residual(prof, r)
    assert max(np.abs(F1).max(), np.abs(F2).max()) <= 1e-10
    want = eval_profile(bh, r, 1)
    assert np.max(np.abs(eval_profile(prof, r, 1) - want) / want) <= 2e-13


@pytest.mark.parametrize("n", [MAX_DIMENSION + 1, 10**400])
def test_dimension_above_the_bound_is_rejected(n):
    # 10**400 used to reach float arithmetic and raise OverflowError
    cusp_metric(MAX_DIMENSION)
    with pytest.raises(OutOfDomain, match=f"n > {MAX_DIMENSION}"):
        cusp_metric(n)
    with pytest.raises(OutOfDomain, match=f"n > {MAX_DIMENSION}"):
        indicial_roots("11", n)


def test_positivity_above_core():
    prof = GluedProfile(40.0, 6)
    r = np.linspace(prof.r_plus * 1.01, 39.9, 500)
    assert np.all(eval_profile(prof, r, 0) > 0)


_GRID = np.geomspace(1.0, 20.0, 16)


@pytest.mark.parametrize("build, error", [
    (lambda: closing_parameters(math.inf, 4), InvalidMass),
    (lambda: closing_parameters(math.nan, 4), InvalidMass),
    (lambda: BlackHoleProfile(m=math.nan, n=4), InvalidMass),
    (lambda: black_hole_metric(True, 4), InvalidMass),
    (lambda: glued_metric(True, 4), RadiusTooSmall),
    (lambda: GluedProfile(R="50", n=4), RadiusTooSmall),
    (lambda: closing_parameters(10**400, 4), InvalidMass),
    (lambda: BlackHoleProfile(m=10**400, n=4), InvalidMass),
    (lambda: GluedProfile(R=10**400, n=4), RadiusTooSmall),
    (lambda: SampledProfile(grid=_GRID, values=np.where(_GRID > 5.0, np.nan, _GRID**2),
                            n=4), OutOfDomain),
    (lambda: SampledProfile(grid=np.append(_GRID[:-1], np.inf), values=_GRID**2,
                            n=4), OutOfDomain),
], ids=["closing-inf-mass", "closing-nan-mass", "blackhole-nan-mass",
        "blackhole-metric-mass-bool", "glued-helper-radius-bool",
        "glued-radius-str", "closing-int-mass-overflows",
        "blackhole-int-mass-overflows", "glued-int-radius-overflows",
        "sampled-nan-values", "sampled-inf-grid"])
def test_constructors_reject_non_finite(build, error):
    # an int too large for a float used to raise a bare OverflowError
    with pytest.raises(error):
        build()


def test_cutoff_rejects_window_whose_squared_width_overflows():
    # chi'' divides by (hi - lo)**2, an OverflowError on Python floats
    with pytest.raises(OutOfDomain, match="squared width overflows"):
        GluedProfile(R=1e200, n=4)
    with pytest.raises(OutOfDomain, match="squared width overflows"):
        GluedProfile(1e200, 4)
    lo, hi = GluedProfile(1e151, 4).transition
    assert math.isfinite(_cutoff_mass(0.5 * (lo + hi), lo, hi, 2)[2])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cutoff_finite_where_the_step_variable_is_tiny():
    # a wide window puts t = (r - lo)/(hi - lo) below 1e-150, where t**2 and
    # t**3 underflow and 1/t can overflow: these were nan (0 * inf) with
    # RuntimeWarnings; the step is exactly 0 there and so are its derivatives
    assert _cutoff_mass(1.0000000000000002, 1.0, 1e150, 1)[1] == 0.0
    assert _cutoff_mass(2.0, 1.0, 1e150, 2)[2] == 0.0
    assert _cutoff_mass(2.0, 1.0, 1e150, 0)[0] == 1.0
    prof = GluedProfile(2e150, 4)
    for order in (0, 1, 2):
        assert np.all(np.isfinite(eval_profile(prof, [1.3, 2.6], order)))
    # a subnormal t
    assert _cutoff_mass(np.nextafter(1e-150, 1.0), 1e-150, 1e150, 0)[0] == 1.0
    for t in (5e-324, 1e-300, 1e-3, np.nextafter(1.0, 0.0), 1.0, 2.0):
        assert smoothstep(t) == (1.0 if t > 0.5 else 0.0)
        assert _smoothstep(t, 1)[1] == 0.0
        assert _smoothstep(t, 2)[2] == 0.0
    assert math.isnan(smoothstep(math.nan))


@pytest.mark.parametrize("n", [4.5, 3.7])
def test_cusp_metric_rejects_non_integer_n(n):
    # int(n) used to truncate these to n=4 and n=3
    with pytest.raises(OutOfDomain, match="integer n > 2"):
        cusp_metric(n)
    with pytest.raises(OutOfDomain, match="integer n > 2"):
        CuspProfile(n)
    with pytest.raises(OutOfDomain, match="integer n > 2"):
        GluedProfile(30.0, n)
