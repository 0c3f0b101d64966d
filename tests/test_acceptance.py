"""Acceptance suite: the quantitative estimates the toolkit must reproduce.

Each test prints a single line

    criterion N (<name>): PASS|FAIL - <measured detail>

and then asserts the stated tolerance, so a full run doubles as a
machine-checkable scorecard.
"""

import math

import numpy as np
import pytest

from dehnfill.curvature import (
    curvature_action,
    decompose_quadratic,
    fd_curvature_oracle,
    ricci_and_deficit,
    sectional_matrix,
    spectral_bound,
    trace_free_top_eigenvalue,
)
from dehnfill.gluing import decay_scan
from dehnfill.lattice import (
    FlatLattice,
    GeodesicClass,
    extend_to_basis,
    quotient_generators,
)
from dehnfill.linearized import (
    COEFFICIENTS,
    InvariantDeformation,
    apply_L,
    compare_operators,
    indicial_roots,
    metric_deformation,
    operator_coefficients,
)
from dehnfill.norms import WeightSpec, phi_c
from dehnfill.numutil import fit_loglog, loggrid
from dehnfill.profiles import (
    CuspProfile,
    GluedProfile,
    black_hole_metric,
    closing_parameters,
    cusp_metric,
    eval_profile,
    glued_metric,
)
from dehnfill.solver import (
    newton_solve,
    oscillation_bound,
    oscillation_closed_form,
)

NS = (4, 5, 6, 7, 8)
MASSES = (0.5, 1.0, 2.0)


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} - {detail}")


def test_criterion_1_blackhole_exactness():
    worst_closed = 0.0
    worst_oracle = 0.0
    worst_scalar = 0.0
    for n in NS:
        for m in MASSES:
            met = black_hole_metric(m, n)
            rp = met.profile.r_plus
            grid = loggrid(rp * 1.05, 50.0 * rp, 512)
            rep = ricci_and_deficit(met, grid)
            worst_closed = max(worst_closed,
                               float(np.max(np.abs(rep.deficit_diag))))
            worst_scalar = max(worst_scalar,
                               float(np.max(np.abs(rep.scalar + n * (n - 1)))))
            orc = fd_curvature_oracle(met, grid)
            worst_oracle = max(worst_oracle,
                               float(np.max(np.abs(orc["deficit_diag"]))))
    ok = worst_closed < 1e-10 and worst_oracle < 1e-6 and worst_scalar < 1e-10
    _report(1, "black-hole Einstein exactness", ok,
            f"closed sup {worst_closed:.2e}, oracle sup {worst_oracle:.2e}, "
            f"scalar dev {worst_scalar:.2e}")
    assert worst_closed < 1e-10
    assert worst_oracle < 1e-6
    assert worst_scalar < 1e-10


def test_criterion_2_closing_parameters():
    worst_beta = 0.0
    worst_rp = 0.0
    for n in NS:
        for m in MASSES:
            r_plus, beta = closing_parameters(m, n)
            V1 = eval_profile(black_hole_metric(m, n).profile, r_plus, 1)
            worst_beta = max(worst_beta,
                             abs(beta * float(V1) - 4.0 * math.pi))
            worst_rp = max(worst_rp,
                           abs(r_plus - (2.0 * m) ** (1.0 / (n - 1))))
    ok = worst_beta < 1e-12 and worst_rp < 1e-12
    _report(2, "closing parameters", ok,
            f"|beta V'(r+) - 4pi| {worst_beta:.2e}, r+ dev {worst_rp:.2e}")
    assert worst_beta < 1e-12
    assert worst_rp < 1e-12


def test_criterion_3_deficit_decay():
    sizes = list(np.geomspace(60.0, 600.0, 7))
    devs = {}
    for n in (3, 4, 5, 6):
        scan = decay_scan(n, sizes, grid_size=512)
        devs[n] = scan.slope - (1 - n)
    ok = all(abs(d) < 0.1 for d in devs.values())
    detail = ", ".join(f"n={n}: slope dev {d:+.4f}" for n, d in devs.items())
    _report(3, "deficit decay O(size^(1-n))", ok, detail)
    for n, d in devs.items():
        assert abs(d) < 0.1, f"n={n}"


def test_criterion_4_operator_comparison():
    devs = {}
    for n in (4, 5, 6):
        grid = loggrid(4.0, 260.0, 4000)
        comp = compare_operators(n, grid, np.geomspace(8.0, 120.0, 10),
                                 r_window=(6.0, 160.0), bins=10)
        devs[n] = comp.slope - (1 - n)
    ok = all(abs(d) < 0.1 for d in devs.values())
    detail = ", ".join(f"n={n}: slope dev {d:+.4f}" for n, d in devs.items())
    _report(4, "cusp vs black-hole operator decay", ok, detail)
    for n, d in devs.items():
        assert abs(d) < 0.1, f"n={n}"


def test_criterion_5_indicial_dichotomy():
    ok = True
    for n in range(3, 9):
        for block in ("11", "1j"):
            ok = ok and min(abs(s) for s in indicial_roots(block, n)) > 1e-9
        ok = ok and indicial_roots("jk", n) == (0.0, float(1 - n))
        ok = ok and indicial_roots("1j", n) == (1.0, -float(n))
    # high-order annihilation of r^s, measured as the refinement order of
    # the residual over dyadic grids in log r; on [2, 2e4] every size sits
    # above the rounding floor, which the 9-node template reaches on [2, 6]
    # by N=100 (a fit there reads a spurious order of +1.5)
    cusp = CuspProfile(4)
    sups = []
    for npts in (100, 200, 400, 800):
        grid = loggrid(2.0, 2e4, npts)
        h = InvariantDeformation(n=4, grid=grid,
                                 components={"1j": grid ** (-4.0)})
        sups.append(float(np.max(np.abs(apply_L(cusp, h).block("1j")))))
    order, _, _ = fit_loglog(np.array([100.0, 200.0, 400.0, 800.0]),
                             np.array(sups))
    ok = ok and order < -3.5
    _report(5, "indicial dichotomy", ok,
            f"zero-root pattern exact for n=3..8, "
            f"annihilation order {-order:.2f}")
    assert ok
    assert order < -3.5


def test_criterion_6_newton_perturbation():
    rows = []
    ok = True
    for n in (4, 5):
        for R in (15.0, 50.0, 100.0):
            res = newton_solve(GluedProfile(R, n))
            m_dev = abs(res.fitted_m - 1.0)
            rp_dev = abs(res.r_plus - 2.0 ** (1.0 / (n - 1)))
            good = (res.converged and res.residuals[-1] < 1e-10
                    and m_dev < 1e-6 and rp_dev < 1e-6
                    and np.isfinite(res.quadratic_ratio)
                    and res.quadratic_ratio < 1.0)
            ok = ok and good
            rows.append((n, R, res.residuals[-1], m_dev, rp_dev,
                         res.quadratic_ratio))
    worst_res = max(r[2] for r in rows)
    worst_m = max(r[3] for r in rows)
    worst_rp = max(r[4] for r in rows)
    worst_q = max(r[5] for r in rows)
    _report(6, "Newton perturbation to Einstein", ok,
            f"6 solves: residual<= {worst_res:.2e}, m dev<= {worst_m:.2e}, "
            f"r+ dev<= {worst_rp:.2e}, quad ratio<= {worst_q:.3f}")
    assert ok


def test_criterion_7_oscillation_bound():
    n = 4
    grid = loggrid(1.0, 50.0, 4000)
    x = np.log(grid)
    rng = np.random.default_rng(7)
    r1, r2 = 2.0, 30.0
    closed_unit = oscillation_closed_form(n, float(grid[0]), r1, r2)
    fails_plain = 0
    worst_frac = 0.0
    for _ in range(100):
        coeffs = rng.normal(size=5)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=5)
        rhs = sum(c * np.sin((k + 1) * x + p)
                  for k, (c, p) in enumerate(zip(coeffs, phases)))
        bound, measured = oscillation_bound((grid, rhs), None, r1, r2, n)
        closed = float(np.max(np.abs(rhs))) * closed_unit
        if not (measured <= bound * (1 + 1e-8)
                and measured <= closed * (1 + 1e-6)):
            fails_plain += 1
        if bound > 0:
            worst_frac = max(worst_frac, measured / bound)
    # weighted variant: unit phi_c-relative sup, geometric-mean core scale
    R = 50.0
    w = WeightSpec(n=n, R=(R,))
    wgrid = loggrid(closing_parameters(1.0, n)[0], R, 4000)
    weight = phi_c(w, 0, wgrid)
    fails_weighted = 0
    for _ in range(100):
        coeffs = rng.normal(size=4)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
        osc = sum(c * np.sin((k + 1) * np.log(wgrid) + p)
                  for k, (c, p) in enumerate(zip(coeffs, phases)))
        rhs = weight * osc
        bound, measured = oscillation_bound((wgrid, rhs), weight,
                                            2.0, 45.0, n)
        if not measured <= bound * (1 + 1e-8):
            fails_weighted += 1
    ok = fails_plain == 0 and fails_weighted == 0
    _report(7, "oscillation bound", ok,
            f"plain fails {fails_plain}/100, weighted fails "
            f"{fails_weighted}/100, worst measured/bound {worst_frac:.4f}")
    assert fails_plain == 0
    assert fails_weighted == 0


def test_criterion_8_spectral_bound_strict():
    # at n=4 the bound degenerates to equality for every warped metric, so
    # the strict statement is checked on n in {5,...,8}
    rng = np.random.default_rng(23)
    min_gap = np.inf
    fails = 0
    for _ in range(100):
        n = int(rng.integers(5, 9))
        m = float(rng.uniform(0.1, 3.0))
        met = black_hole_metric(m, n)
        r = float(rng.uniform(1.05 * met.profile.r_plus,
                              8.0 * met.profile.r_plus))
        rep = ricci_and_deficit(met, r)
        K = sectional_matrix(n, rep.K12[0], rep.K1perp[0], rep.Kperp[0])
        a = trace_free_top_eigenvalue(K, rep.ric_diag[0])
        b = spectral_bound(K, rep.ric_diag[0])
        gap = b - a
        min_gap = min(min_gap, gap)
        if not gap > 0:
            fails += 1
    # equality holds only in the constant-curvature limit
    K_hyp = sectional_matrix(5, -1.0, -1.0, -1.0)
    ric_hyp = -4.0 * np.ones(5)
    sat = abs(trace_free_top_eigenvalue(K_hyp, ric_hyp)
              - spectral_bound(K_hyp, ric_hyp))
    ok = fails == 0 and sat < 1e-12
    _report(8, "trace-free spectral bound strict", ok,
            f"0 violations in 100 samples (n in 5..8), min gap "
            f"{min_gap:.3e}, hyperbolic saturation dev {sat:.1e}")
    assert fails == 0
    assert sat < 1e-12


def test_criterion_9_lattice_identities():
    rng = np.random.default_rng(101)
    checked = 0
    worst_rel = 0.0
    dets_ok = True
    while checked < 200:
        k = int(rng.integers(2, 5))
        B = rng.integers(-6, 7, size=(k, k))
        det = abs(np.linalg.det(B.astype(float)))
        if det < 0.5:
            continue
        c = rng.integers(-9, 10, size=k)
        g = 0
        for v in c:
            g = math.gcd(g, abs(int(v)))
        if g == 0:
            continue
        c = (c // g).astype(int)
        lat = FlatLattice(B.astype(float))
        sig = GeodesicClass(tuple(int(v) for v in c))
        M = extend_to_basis(lat, sig)
        detM = round(float(np.linalg.det(M.astype(float))))
        dets_ok = dets_ok and detM in (1, -1)
        out = quotient_generators(lat, sig)
        rel = abs(out["length"] * out["covolume"] - det) / det
        worst_rel = max(worst_rel, rel)
        checked += 1
    ok = dets_ok and worst_rel < 1e-10
    _report(9, "lattice and quotient identities", ok,
            f"200 lattices rank 2-4: det always +-1, worst covolume "
            f"identity rel err {worst_rel:.2e}")
    assert dets_ok
    assert worst_rel < 1e-10


def test_criterion_10_exact_identity_suite():
    # quadratic-form decomposition reconstructs (Rh, h)
    rng = np.random.default_rng(5)
    worst_dec = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        m = float(rng.uniform(0.3, 2.0))
        met = black_hole_metric(m, n)
        r = float(rng.uniform(1.1 * met.profile.r_plus, 20.0))
        rep = ricci_and_deficit(met, r)
        K = sectional_matrix(n, rep.K12[0], rep.K1perp[0], rep.Kperp[0])
        h = rng.normal(size=(n, n))
        h = 0.5 * (h + h.T)
        a, mu, tr = decompose_quadratic(K, rep.ric_diag[0], h)
        direct = float(np.sum(curvature_action(K, h) * h))
        worst_dec = max(worst_dec,
                        abs(a + mu + tr - direct) / max(1.0, abs(direct)))

    # gauge identity: L applied to the background metric equals -2 ric on
    # every profile variant (the assembled operator's row-sum identity;
    # on Einstein backgrounds this is the same statement as
    # L(g) = 2(ric + (n-1)g) + 2(n-1)g with vanishing deficit)
    worst_gauge = 0.0
    cases = []
    met = black_hole_metric(1.0, 4)
    cases.append((met, loggrid(met.profile.r_plus * 1.2, 60.0, 400)))
    cases.append((cusp_metric(5), loggrid(0.6, 40.0, 400)))
    met = glued_metric(50.0, 4)
    cases.append((met, loggrid(met.profile.r_plus * 1.2, 49.9, 2000)))
    for met, grid in cases:
        out = apply_L(met.profile, metric_deformation(met.n, grid))
        ric = ricci_and_deficit(met, grid).ric_diag
        worst_gauge = max(worst_gauge,
                          float(np.max(np.abs(out.diag_matrix() + 2.0 * ric))))

    # cusp substitution: the assembly on V = r^2 gives the Euler model's
    # constants, written out here
    r = np.linspace(0.5, 30.0, 64)
    worst_sub = 0.0
    for n in (3, 4, 6, 8):
        C = operator_coefficients(CuspProfile(n), r)
        # the coupling's six distinct entries: M00, M01 = M0j = 0, and 2
        # everywhere else
        euler = {"c2": -r**2, "c1": -n * r, "c12": 2.0 * (n - 1),
                 "c1j": float(n), "c2j": 0.0, "cjk": 0.0,
                 "M00": 2.0 * (n - 1), "M01": 0.0, "M0j": 0.0,
                 "M11": 2.0, "M1j": 2.0, "Mjj": 2.0}
        worst_sub = max(worst_sub,
                        *(float(np.max(np.abs(row - euler[name])))
                          for name, row in zip(COEFFICIENTS, C, strict=True)))

    ok = worst_dec < 1e-12 and worst_gauge < 1e-8 and worst_sub < 1e-11
    _report(10, "exact identity suite", ok,
            f"decompose rel {worst_dec:.2e}, gauge residue {worst_gauge:.2e}, "
            f"substitution dev {worst_sub:.2e}")
    assert worst_dec < 1e-12
    assert worst_gauge < 1e-8
    assert worst_sub < 1e-11
