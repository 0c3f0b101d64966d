import numpy as np
import pytest

from dehnfill.curvature import cutoff_deficit_diag, ricci_and_deficit
from dehnfill.errors import (
    InvalidWeight,
    RadiusTooSmall,
    ScanMissing,
    TooFewSamples,
)
from dehnfill.gluing import (
    ApproximateSolution,
    DecayScanResult,
    build_approximate_solution,
    decay_scan,
    deficit_norm,
    filling_from_lengths,
)
from dehnfill.norms import WeightSpec
from dehnfill.numutil import loggrid
from dehnfill.profiles import black_hole_metric, glued_metric


def test_build_single_cusp():
    filling = filling_from_lengths([20.0], 4)
    sol = build_approximate_solution(filling)
    assert isinstance(sol, ApproximateSolution)
    assert len(sol.metrics) == 1
    assert sol.metrics[0].profile.R == pytest.approx(6.0157, abs=1e-4)
    assert sol.size == 20.0
    assert sol.metrics[0].beta == pytest.approx(filling.beta1, abs=1e-14)


def test_build_too_short():
    filling = filling_from_lengths([6.0], 4)
    with pytest.raises(RadiusTooSmall):
        build_approximate_solution(filling)


def test_build_two_cusps():
    filling = filling_from_lengths([30.0, 40.0], 5)
    sol = build_approximate_solution(filling)
    assert len(sol.metrics) == 2
    R0 = sol.metrics[0].profile.R
    R1 = sol.metrics[1].profile.R
    assert R1 / R0 == pytest.approx(40.0 / 30.0, rel=1e-12)
    assert sol.size == 30.0
    # each cusp carries its own transverse torus geometry
    g0 = sol.metrics[0].torus_gram
    assert g0 is not None and g0.shape == (3, 3)


def test_deficit_norm_blackhole_is_zero():
    bh = black_hole_metric(1.0, 4)
    assert deficit_norm(bh, grid_size=512) < 1e-10
    assert deficit_norm(bh, grid_size=512) == 0.0


def test_deficit_norm_unit_weights_is_plain_sup():
    n, R = 4, 50.0
    met = glued_metric(R, n)
    w = WeightSpec(n=n, R=(R,), delta=0.0, r_c=(R,))
    norm = deficit_norm(met, w, grid_size=512, include_seminorms=False)
    fine = loggrid(0.75 * R, 0.95 * R, 8192)
    sup = float(np.max(np.abs(cutoff_deficit_diag(met, fine))))
    assert norm == pytest.approx(sup, rel=0.02)


def test_deficit_norm_size_ratio():
    n = 4
    n100 = deficit_norm(glued_metric(100.0, n), grid_size=512)
    n200 = deficit_norm(glued_metric(200.0, n), grid_size=512)
    ratio = n200 / n100
    assert ratio == pytest.approx(2.0 ** (1 - n), rel=0.15)


def test_deficit_norm_frozen_values():
    # regression guards: the norm is deterministic for a fixed grid_size
    f50 = filling_from_lengths([50.0], 4)
    f100 = filling_from_lengths([100.0], 4)
    v50 = deficit_norm(build_approximate_solution(f50), grid_size=512)
    v100 = deficit_norm(build_approximate_solution(f100), grid_size=512)
    assert v50 == pytest.approx(5.045024691025e4, rel=1e-9)
    assert v100 == pytest.approx(6.306280863815e3, rel=1e-9)
    assert v100 / v50 == pytest.approx(0.125, rel=0.01)


def test_deficit_norm_grid_convergence():
    met = glued_metric(30.0, 4)
    v512 = deficit_norm(met, grid_size=512)
    v1024 = deficit_norm(met, grid_size=1024)
    v2048 = deficit_norm(met, grid_size=2048)
    assert abs(v1024 - v512) < 0.01 * v512
    assert abs(v2048 - v512) < 0.01 * v512
    assert v2048 <= v512 * 1.01


def test_deficit_zero_outside_annulus():
    n, R = 5, 40.0
    met = glued_metric(R, n)
    prof = met.profile
    inner = loggrid(prof.domain[0] * 1.001, 0.8 * R * 0.999, 512)
    outer = loggrid(0.9 * R * 1.001, R * 0.9999, 512)
    for grid in (inner, outer):
        assert np.all(cutoff_deficit_diag(met, grid) == 0.0)
        rep = ricci_and_deficit(met, grid)
        assert np.max(np.abs(rep.deficit_diag)) < 1e-13


def test_deficit_norm_validation():
    met = glued_metric(30.0, 4)
    with pytest.raises(TooFewSamples):
        deficit_norm(met, grid_size=128)
    sol = build_approximate_solution(filling_from_lengths([30.0, 40.0], 4))
    w = WeightSpec(n=4, R=(sol.metrics[0].profile.R,))
    with pytest.raises(InvalidWeight):
        deficit_norm(sol, w)


def test_decay_scan_slopes():
    L = [40.0, 80.0, 160.0, 320.0, 640.0]
    for n in (3, 4, 5):
        scan = decay_scan(n, L, grid_size=512)
        assert isinstance(scan, DecayScanResult)
        assert scan.expected_slope == float(1 - n)
        assert abs(scan.slope - (1 - n)) < 0.1
        assert len(scan.rows()) == 5
        assert all(b < a for (_, a), (_, b) in zip(scan.rows(), scan.rows()[1:]))


def test_decay_scan_frozen_n3():
    scan = decay_scan(3, [40.0, 80.0, 160.0, 320.0, 640.0], grid_size=512)
    assert scan.slope == pytest.approx(-2.000000077195, abs=1e-9)
    assert scan.norms[0] == pytest.approx(8.808074054036e5, rel=1e-9)


def test_decay_scan_delta_passthrough():
    L = [40.0, 80.0, 160.0, 320.0, 640.0]
    a = decay_scan(4, L, w=2.0, grid_size=512)
    b = decay_scan(4, L, w=WeightSpec(n=4, R=(10.0,), delta=2.0),
                   grid_size=512)
    assert a.norms == b.norms


def test_decay_scan_validation():
    with pytest.raises(TooFewSamples):
        decay_scan(4, [40.0, 80.0, 160.0], grid_size=512)
    with pytest.raises(ScanMissing):
        decay_scan(4, [40.0, 80.0, 60.0, 320.0, 640.0], grid_size=512)
    with pytest.raises(RadiusTooSmall):
        decay_scan(4, [5.0, 40.0, 80.0, 160.0, 320.0], grid_size=512)


def test_filling_from_lengths_matches_manual():
    f = filling_from_lengths([12.0], 5)
    assert f.lengths == (12.0,)
    assert f.n == 5
    assert f.size == 12.0
    assert f.two_pi_ok
    assert f.radii[0] == pytest.approx(12.0 / f.beta1, rel=1e-14)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 0.0, -20.0])
def test_decay_scan_rejects_non_finite_or_non_positive_size(bad):
    # a nan size passes every pairwise order comparison, so it must be
    # caught before the order check
    with pytest.raises(ScanMissing, match=f"got {bad}"):
        decay_scan(4, [10.0, bad, 40.0, 80.0, 160.0, 320.0], grid_size=256)
