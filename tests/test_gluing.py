import numpy as np
import pytest

from dehnfill import gluing
from dehnfill.curvature import cutoff_deficit_diag, ricci_and_deficit
from dehnfill.errors import (
    InvalidWeight,
    OutOfDomain,
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
from dehnfill.lattice import FlatLattice, GeodesicClass, filling_data
from dehnfill.norms import WeightSpec, decay_weight, phi_c
from dehnfill.numutil import loggrid
from dehnfill.profiles import black_hole_metric, closing_parameters, glued_metric


def test_list_and_tuple_cusps_build_the_same_profiles():
    lat = FlatLattice(np.array([[20.0, 0.0, 0.0], [1.0, 7.0, 0.0], [0.0, 1.0, 9.0]]))
    sig = GeodesicClass((1, 0, 0))
    fillings = [filling_data([cusp], 4) for cusp in ((lat, sig), [lat, sig])]
    profiles = [build_approximate_solution(f).metrics[0].profile
                for f in fillings]
    assert profiles[0].R == fillings[0].radii[0] == fillings[1].radii[0]
    assert profiles[0] == profiles[1]


def test_build_single_cusp():
    filling = filling_from_lengths([20.0], 4)
    sol = build_approximate_solution(filling)
    assert isinstance(sol, ApproximateSolution)
    assert len(sol.metrics) == 1
    assert sol.metrics[0].profile.R == pytest.approx(6.0157, abs=1e-4)
    assert sol.size == 20.0
    assert sol.n == sol.metrics[0].n == 4


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
    assert sol.n == 5 and all(m.n == 5 for m in sol.metrics)


def test_deficit_norm_blackhole_is_zero():
    bh = black_hole_metric(1.0, 4)
    assert deficit_norm(bh, grid_size=512) < 1e-10
    assert deficit_norm(bh, grid_size=512) == 0.0


@pytest.mark.parametrize("metric", [glued_metric(50.0, 4),
                                    black_hole_metric(1.0, 4)],
                         ids=["glued-R50", "blackhole"])
def test_deficit_norm_of_a_metric_is_its_one_cusp_solution(metric):
    filling = filling_from_lengths([metric.profile.domain[1]], metric.n)
    sol = ApproximateSolution(filling=filling, metrics=(metric,))
    assert deficit_norm(metric) == deficit_norm(sol)


def test_deficit_norm_unit_weights_is_plain_sup():
    n, R = 4, 50.0
    met = glued_metric(R, n)
    w = WeightSpec(n=n, R=(R,), delta=0.0, r_c=(R,))
    norm = deficit_norm(met, w, grid_size=512, include_seminorms=False)
    fine = loggrid(0.75 * R, 0.95 * R, 8192)
    sup = float(np.max(np.abs(cutoff_deficit_diag(met, fine))))
    assert norm == pytest.approx(sup, rel=0.02)


def test_deficit_norm_is_the_weighted_sup():
    # the default weight decay_weight(r/R) / phi_c against a fine grid
    n, R = 4, 50.0
    met = glued_metric(R, n)
    w = WeightSpec(n=n, R=(R,))
    norm = deficit_norm(met, w, grid_size=512, include_seminorms=False)
    fine = loggrid(0.75 * R, 0.95 * R, 8192)
    weight = decay_weight(w, fine / R) / phi_c(w, 0, fine)
    deficit = np.abs(cutoff_deficit_diag(met, fine)).max(axis=1)
    assert norm == pytest.approx(float(np.max(weight * deficit)), rel=0.02)


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
    # a weight of another dimension: the n=5 weight read 2693.98 on this
    # n=4 metric, whose own weight gives 1372.86
    with pytest.raises(InvalidWeight, match="n=5"):
        deficit_norm(glued_metric(50.0, 4), WeightSpec(n=5, R=(50.0,)))
    # a solution whose metrics are not of its filling's dimension is
    # refused when it is built: see test_solution_metrics_match_filling


@pytest.mark.parametrize("lengths, metrics", [
    ([30.0], (glued_metric(30.0, 4),)),
    ([30.0, 40.0], (glued_metric(30.0, 5),)),
    ([30.0], (glued_metric(30.0, 5), glued_metric(40.0, 5))),
    ([30.0, 40.0], (glued_metric(30.0, 5), black_hole_metric(1.0, 4))),
], ids=["other-n", "too-few", "too-many", "one-of-other-n"])
def test_solution_metrics_match_filling(lengths, metrics):
    # the first used to build, with .n reading 5 over its one n=4 metric
    with pytest.raises(OutOfDomain, match="n=5"):
        ApproximateSolution(filling=filling_from_lengths(lengths, 5),
                            metrics=metrics)


def test_decay_scan_slopes():
    L = [40.0, 80.0, 160.0, 320.0, 640.0]
    for n in (3, 4, 5):
        scan = decay_scan(n, L, grid_size=512)
        assert isinstance(scan, DecayScanResult)
        assert scan.expected_slope == float(1 - n)
        assert abs(scan.slope - (1 - n)) < 0.1
        rows = list(zip(scan.sizes, scan.norms))
        assert len(rows) == 5
        assert all(b < a for (_, a), (_, b) in zip(rows, rows[1:]))


def test_decay_scan_frozen_n3():
    scan = decay_scan(3, [40.0, 80.0, 160.0, 320.0, 640.0], grid_size=512)
    assert scan.slope == pytest.approx(-1.9999999999988474, abs=1e-9)
    assert scan.norms[0] == pytest.approx(8.8080716975137e5, rel=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_deficit_norm_is_self_similar_in_R(n):
    # the grid covers the transition window alone, whose shape in log r is
    # the same at every R, so R**(n-1) times the norm is one constant
    scaled = [R ** (n - 1) * deficit_norm(glued_metric(R, n))
              for R in (20.0, 37.3, 123.4, 1000.0, 5000.0)]
    assert scaled == pytest.approx([scaled[0]] * len(scaled), rel=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_decay_scan_matches_the_lattice_path(n):
    # one glued metric per size gives the norm of the one-cusp filling
    # built from a lattice, bit for bit
    sizes = [40.0, 80.0, 160.0, 320.0, 640.0]
    lattice_norms = []
    for L in sizes:
        f = filling_from_lengths([L], n)
        lattice_norms.append(deficit_norm(build_approximate_solution(f),
                                          WeightSpec(n=n, R=f.radii)))
    assert decay_scan(n, sizes).norms == tuple(lattice_norms)


def test_decay_scan_delta_passthrough():
    L = [40.0, 80.0, 160.0, 320.0, 640.0]
    a = decay_scan(4, L, w=2.0, grid_size=512)
    # delta reaches the weight of every size, whose R and r_c track it
    one_by_one = []
    for size in L:
        f = filling_from_lengths([size], 4)
        one_by_one.append(deficit_norm(build_approximate_solution(f),
                                       WeightSpec(n=4, R=f.radii, delta=2.0)))
    assert a.norms == tuple(one_by_one)
    assert a.norms != decay_scan(4, L, grid_size=512).norms


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
                                 0.0, -20.0,
                                 pytest.param(10**400, id="huge-int")])
def test_decay_scan_rejects_non_finite_or_non_positive_size(bad):
    # a nan size passes every pairwise order comparison, so it must be
    # caught before the order check
    with pytest.raises(ScanMissing, match=f"got {bad}"):
        decay_scan(4, [10.0, bad, 40.0, 80.0, 160.0, 320.0], grid_size=256)


_SIZES = [40.0, 80.0, 160.0, 320.0, 640.0]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_decay_scan_stack_matches_per_size_norms(n):
    # one (S, G) stack gives each size the bits of its stack of one
    _, beta1 = closing_parameters(1.0, n)
    for grid_size in (256, 512, 4096):
        for delta in (None, 2.0):
            single = tuple(
                deficit_norm(glued_metric(L / beta1, n),
                             WeightSpec(n=n, R=(L / beta1,), delta=delta),
                             grid_size=grid_size)
                for L in _SIZES)
            scan = decay_scan(n, _SIZES, w=delta, grid_size=grid_size)
            assert scan.norms == single


@pytest.mark.parametrize("grid_size", [256, 512, 4096])
def test_stack_rows_are_each_profiles_loggrid_and_frame_data(monkeypatch,
                                                             grid_size):
    # row s of the stack is the log grid of profile s's window, and its
    # deficit is that profile's own frame_data, bit for bit; at n = 5 the
    # cutoff width of L = 565.5 squares to another value by x * x than by
    # Python's **, so a column squared with numpy's ** would fail here
    sizes = [40.0, 80.0, 160.0, 320.0, 565.5]
    seen = []

    def spy(profiles, r):
        out = original(profiles, r)
        seen.append((profiles, r, out))
        return out

    original = gluing._stack_deficit
    monkeypatch.setattr(gluing, "_stack_deficit", spy)
    decay_scan(5, sizes, grid_size=grid_size)
    [(profiles, grid, (rad, tor))] = seen
    assert grid.shape == (len(sizes), grid_size)
    for s, profile in enumerate(profiles):
        lo, hi = profile.domain
        tlo, thi = profile.transition
        row = loggrid(max(tlo / 1.02, lo * (1.0 + 1e-9)),
                      min(thi * 1.02, hi * (1.0 - 1e-9)), grid_size)
        assert np.array_equal(grid[s], row)
        want = profile.frame_data(row)[5:]
        assert np.array_equal(rad[s], want[0])
        assert np.array_equal(tor[s], want[1])


@pytest.mark.parametrize("n", [3, 4, 6])
def test_solution_norm_is_the_max_of_its_one_cusp_norms(n):
    sol = build_approximate_solution(filling_from_lengths([30.0, 45.0], n))
    ones = [deficit_norm(m) for m in sol.metrics]
    assert ones[0] != ones[1]
    assert deficit_norm(sol) == max(ones)
    # a cusp without a cutoff takes the row-by-row path
    mixed = ApproximateSolution(filling=sol.filling,
                                metrics=(sol.metrics[1], black_hole_metric(1.0, n)))
    assert deficit_norm(mixed) == ones[1]


@pytest.mark.parametrize("bad", [300.5, float("nan"), True, 512.0])
def test_grid_size_must_be_an_integer(bad):
    with pytest.raises(TooFewSamples, match="integer >= 256"):
        deficit_norm(glued_metric(30.0, 4), grid_size=bad)
    with pytest.raises(TooFewSamples, match="integer >= 256"):
        decay_scan(4, _SIZES, grid_size=bad)
