import numpy as np
import pytest

from dehnfill.curvature import (
    curvature_action,
    cutoff_deficit_diag,
    decompose_quadratic,
    fd_curvature_oracle,
    ricci_and_deficit,
    sectional_curvatures,
    sectional_matrix,
    spectral_bound,
    trace_free_top_eigenvalue,
)
from dehnfill.errors import OutOfDomain
from dehnfill.numutil import fit_loglog, loggrid
from dehnfill.profiles import (
    black_hole_metric,
    cusp_metric,
    eval_profile,
    glued_metric,
    make_glued_profile,
)


def test_sectional_cusp_all_minus_one():
    met = cusp_metric(5)
    K12, K1p, Kpp = sectional_curvatures(met, np.array([0.7, 1.0, 4.0]))
    assert np.allclose(K12, -1.0, atol=1e-14)
    assert np.allclose(K1p, -1.0, atol=1e-14)
    assert np.allclose(Kpp, -1.0, atol=1e-14)


def test_sectional_blackhole_point_values():
    met = black_hole_metric(1.0, 4)
    K12, K1p, Kpp = sectional_curvatures(met, 2.0)
    # -1 + (n-3)(n-2) m / r^{n-1}, -1 - (n-3) m / r^{n-1}, -1 + 2m / r^{n-1}
    assert K12 == pytest.approx(-0.75, abs=1e-14)
    assert K1p == pytest.approx(-1.125, abs=1e-14)
    assert Kpp == pytest.approx(-0.75, abs=1e-14)


def test_sectional_decay_to_hyperbolic():
    # all three curvatures approach -1 at rate r^{1-n}
    for n in (4, 6):
        met = black_hole_metric(1.0, n)
        r = np.geomspace(5.0, 500.0, 40)
        K12, K1p, Kpp = sectional_curvatures(met, r)
        for K in (K12, K1p, Kpp):
            slope, _, _ = fit_loglog(r, np.abs(K + 1.0))
            assert abs(slope + (n - 1)) < 0.1


def test_ricci_and_deficit_blackhole():
    met = black_hole_metric(1.0, 5)
    rep = ricci_and_deficit(met, 3.0)
    assert np.max(np.abs(rep.deficit_diag)) < 1e-12
    assert rep.scalar == pytest.approx(-20.0, abs=1e-12)


def test_ricci_cusp():
    met = cusp_metric(4)
    rep = ricci_and_deficit(met, 1.0)
    assert np.allclose(rep.ric_diag, -3.0, atol=1e-14)
    assert np.allclose(rep.deficit_diag, 0.0, atol=1e-14)


def test_report_internal_consistency():
    met = black_hole_metric(2.0, 6)
    r = np.linspace(2.0, 20.0, 11)
    rep = ricci_and_deficit(met, r)
    n = 6
    # ric_aa is the row sum of pairwise sectional curvatures
    for p in range(r.size):
        K = sectional_matrix(n, rep.K12[p], rep.K1perp[p], rep.Kperp[p])
        assert np.allclose(K.sum(axis=1), rep.ric_diag[p], atol=1e-12)
    assert np.allclose(rep.ric_diag.sum(axis=1), rep.scalar, atol=1e-11)


def test_glued_deficit_support_and_magnitude():
    n = 4
    R = 100.0
    met = glued_metric(R, n)
    prof = met.profile
    grid = loggrid(prof.domain[0] * 1.001, R * 0.9999, 2048)
    dv = cutoff_deficit_diag(met, grid)
    window = (grid >= prof.cutoff.lo) & (grid <= prof.cutoff.hi)
    # identically zero off the transition annulus, not merely small
    assert np.all(dv[~window] == 0.0)
    # generic curvature path agrees on the annulus
    rep = ricci_and_deficit(met, grid[window])
    assert np.max(np.abs(rep.deficit_diag - dv[window])) < 1e-11
    # magnitude C R^{1-n}; the shape constant was measured once from this
    # configuration and is frozen as a regression guard
    sup = np.max(np.abs(dv))
    C = sup * R ** (n - 1)
    assert 1.0 < C < 1e4


def test_glued_deficit_sup_decay_slope():
    n = 5
    Rs = np.array([10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0])
    sups = []
    for R in Rs:
        met = glued_metric(R, n)
        grid = loggrid(R * 0.78, R * 0.92, 1024)
        sups.append(np.max(np.abs(cutoff_deficit_diag(met, grid))))
    slope, _, _ = fit_loglog(Rs, np.array(sups))
    assert abs(slope + (n - 1)) < 0.1


def test_cutoff_deficit_rejects_cusp():
    with pytest.raises(OutOfDomain):
        cutoff_deficit_diag(cusp_metric(4), np.array([1.0, 2.0]))


def test_einstein_exactness_grid():
    for n in range(4, 9):
        met = black_hole_metric(1.0, n)
        rp = met.profile.r_plus
        grid = loggrid(rp * 1.0001, 50.0 * rp, 512)
        rep = ricci_and_deficit(met, grid)
        assert np.max(np.abs(rep.deficit_diag)) < 1e-10
        assert np.max(np.abs(rep.scalar + n * (n - 1))) < 1e-10


def test_oracle_blackhole_point():
    met = black_hole_metric(1.0, 4)
    orc = fd_curvature_oracle(met, np.array([2.0]))
    assert abs(orc["K"][0, 0, 1] - (-0.75)) < 1e-7


def test_oracle_cusp_constant_curvature():
    met = cusp_metric(6)
    orc = fd_curvature_oracle(met, np.array([5.0]))
    K = orc["K"][0]
    off = ~np.eye(6, dtype=bool)
    assert np.max(np.abs(K[off] + 1.0)) < 1e-7


def test_oracle_cross_validates_glued():
    met = glued_metric(20.0, 4)
    # one point in the cusp region and one inside the transition annulus
    r = np.array([18.5, 17.0])
    orc = fd_curvature_oracle(met, r)
    rep = ricci_and_deficit(met, r)
    assert np.max(np.abs(orc["deficit_diag"] - rep.deficit_diag)) < 1e-6


def test_oracle_random_samples():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        kind = rng.choice(["cusp", "blackhole", "glued"])
        if kind == "cusp":
            met = cusp_metric(n)
            r = float(rng.uniform(0.8, 20.0))
        elif kind == "blackhole":
            m = float(rng.uniform(0.3, 3.0))
            met = black_hole_metric(m, n)
            r = float(rng.uniform(1.3 * met.profile.r_plus, 30.0))
        else:
            R = float(rng.uniform(12.0, 60.0))
            met = glued_metric(R, n)
            r = float(rng.uniform(1.3 * met.profile.r_plus, 0.95 * R))
        orc = fd_curvature_oracle(met, np.array([r]))
        rep = ricci_and_deficit(met, np.array([r]))
        scale = max(1.0, np.max(np.abs(rep.ric_diag)))
        assert np.max(np.abs(orc["ric_diag"] - rep.ric_diag)) < 1e-6 * scale
        K = sectional_matrix(n, rep.K12[0], rep.K1perp[0], rep.Kperp[0])
        assert np.max(np.abs(orc["K"][0] - K)) < 1e-6


def test_curvature_action_hyperbolic_identity():
    n = 4
    K = sectional_matrix(n, -1.0, -1.0, -1.0)
    Rg = curvature_action(K, np.eye(n))
    assert np.allclose(Rg, -(n - 1) * np.eye(n), atol=1e-14)
    assert np.allclose(curvature_action(K, np.zeros((n, n))), 0.0)


def test_curvature_action_blackhole_point():
    met = black_hole_metric(1.0, 4)
    rep = ricci_and_deficit(met, 2.0)
    K = sectional_matrix(4, rep.K12[0], rep.K1perp[0], rep.Kperp[0])
    h = np.zeros((4, 4))
    h[0, 0] = 1.0
    Rh = curvature_action(K, h)
    assert Rh[1, 1] == pytest.approx(-0.75, abs=1e-14)
    assert Rh[2, 2] == pytest.approx(-1.125, abs=1e-14)
    assert Rh[3, 3] == pytest.approx(-1.125, abs=1e-14)
    assert Rh[0, 0] == 0.0


def test_decompose_quadratic_cases():
    rng = np.random.default_rng(11)
    met = black_hole_metric(1.0, 4)
    rep = ricci_and_deficit(met, 10.0)
    n = 4
    K = sectional_matrix(n, rep.K12[0], rep.K1perp[0], rep.Kperp[0])
    ric = rep.ric_diag[0]

    # trace-free h: only the first summand survives
    h = rng.normal(size=(n, n))
    h = 0.5 * (h + h.T)
    h -= np.trace(h) / n * np.eye(n)
    a, mu, tr = decompose_quadratic(K, ric, h)
    assert mu == pytest.approx(0.0, abs=1e-12)
    assert tr == pytest.approx(0.0, abs=1e-12)

    # pure-trace h = g: (Rg, g) is the scalar curvature
    a, mu, tr = decompose_quadratic(K, ric, np.eye(n))
    assert a == pytest.approx(0.0, abs=1e-13)
    assert a + mu + tr == pytest.approx(float(rep.scalar[0]), abs=1e-11)

    # random h: the three parts reconstruct (Rh, h) exactly
    for _ in range(20):
        h = rng.normal(size=(n, n))
        h = 0.5 * (h + h.T)
        a, mu, tr = decompose_quadratic(K, ric, h)
        Rh = curvature_action(K, h)
        direct = float(np.sum(Rh * h))
        assert abs((a + mu + tr) - direct) < 1e-12 * max(1.0, abs(direct))


def test_top_eigenvalue_saturates_constant_curvature():
    n = 4
    K = sectional_matrix(n, -1.0, -1.0, -1.0)
    a = trace_free_top_eigenvalue(K)
    bound = (n - 2) * (-1.0) - (-(n - 1.0))
    assert a <= bound + 1e-12
    assert a == pytest.approx(bound, abs=1e-12)


def test_top_eigenvalue_strict_on_blackhole():
    # at n=4 the curvature term degenerates and the bound is attained with
    # equality even off the hyperbolic locus; strictness starts at n=5
    met = black_hole_metric(1.0, 5)
    rep = ricci_and_deficit(met, 1.5)
    K = sectional_matrix(5, rep.K12[0], rep.K1perp[0], rep.Kperp[0])
    a = trace_free_top_eigenvalue(K, rep.ric_diag[0])
    assert a < spectral_bound(K, rep.ric_diag[0])

    met4 = black_hole_metric(1.0, 4)
    rep4 = ricci_and_deficit(met4, 1.5)
    K4 = sectional_matrix(4, rep4.K12[0], rep4.K1perp[0], rep4.Kperp[0])
    a4 = trace_free_top_eigenvalue(K4, rep4.ric_diag[0])
    assert a4 == pytest.approx(spectral_bound(K4, rep4.ric_diag[0]), abs=1e-12)


def test_top_eigenvalue_n3_saturates():
    # n=3 black holes are hyperbolic; the bound is met with equality
    met = black_hole_metric(1.0, 3)
    rep = ricci_and_deficit(met, 2.5)
    K = sectional_matrix(3, rep.K12[0], rep.K1perp[0], rep.Kperp[0])
    a = trace_free_top_eigenvalue(K, rep.ric_diag[0])
    b = spectral_bound(K, rep.ric_diag[0])
    assert a == pytest.approx(b, abs=1e-12)


def _reference_oracle(metric, r):
    """fd_curvature_oracle's curvature step as plain einsums, step for step:
    the two quadratic Christoffel terms as separate contractions and the
    frame scaling as one five-operand product."""
    n = metric.n
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    h = np.maximum(1e-4 * rr, 1e-6)
    w5 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    npts = rr.size
    rk = rr[None, :] + np.arange(-4, 5)[:, None] * h[None, :]
    Vk = eval_profile(metric.profile, rk.ravel(), 0).reshape(9, npts)
    g = np.empty((9, npts, n))
    g[:, :, 0] = 1.0 / Vk
    g[:, :, 1] = Vk
    g[:, :, 2:] = (rk**2)[:, :, None]
    dg = np.empty((5, npts, n))
    for j in range(5):
        dg[j] = np.einsum("k,kpa->pa", w5, g[j : j + 5]) / h[:, None]
    g5 = g[2:7]
    Gamma = np.zeros((5, npts, n, n, n))
    inv_g00 = 1.0 / g5[:, :, 0]
    for a in range(n):
        Gamma[:, :, 0, a, a] = -dg[:, :, a] * 0.5 * inv_g00
        Gamma[:, :, a, 0, a] = dg[:, :, a] * 0.5 / g5[:, :, a]
        Gamma[:, :, a, a, 0] = Gamma[:, :, a, 0, a]
    Gamma[:, :, 0, 0, 0] = dg[:, :, 0] * 0.5 * inv_g00
    dGamma = np.einsum("k,kpabc->pabc", w5, Gamma) / h[:, None, None, None]
    G0 = Gamma[2]
    Rud = np.zeros((npts, n, n, n, n))
    Rud[:, :, :, 0, :] += np.transpose(dGamma, (0, 1, 3, 2))
    Rud[:, :, :, :, 0] -= np.transpose(dGamma, (0, 1, 3, 2))
    Rud += np.einsum("pace,pedb->pabcd", G0, G0)
    Rud -= np.einsum("pade,pecb->pabcd", G0, G0)
    Rdown = np.einsum("pa,pabcd->pabcd", g5[2], Rud)
    scale = 1.0 / np.sqrt(g5[2])
    Rframe = np.einsum(
        "pabcd,pa,pb,pc,pd->pabcd", Rdown, scale, scale, scale, scale
    )
    K = np.einsum("pabab->pab", Rframe)
    for a in range(n):
        K[:, a, a] = 0.0
    ric = np.einsum("pab->pa", K)
    return {"r": rr, "R_frame": Rframe, "K": K, "ric_diag": ric,
            "scalar": np.einsum("pa->p", ric), "deficit_diag": ric + (n - 1.0)}


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("profile", ["blackhole", "cusp", "glued"])
def test_oracle_matches_einsum_reference_bitwise(profile, n):
    if profile == "blackhole":
        met = black_hole_metric(1.3, n)
        rp = met.profile.r_plus
        r = loggrid(1.05 * rp, 50.0 * rp, 32)
    elif profile == "cusp":
        met = cusp_metric(n)
        r = loggrid(0.5, 50.0, 32)
    else:
        met = glued_metric(30.0, n)
        # spans the core, the transition annulus and the cusp region
        r = loggrid(1.05 * met.profile.domain[0], 29.0, 40)
    got = fd_curvature_oracle(met, r)
    want = _reference_oracle(met, r)
    assert got.keys() == want.keys()
    for key, arr in want.items():
        assert got[key].shape == arr.shape
        assert got[key].tobytes() == arr.tobytes(), key
