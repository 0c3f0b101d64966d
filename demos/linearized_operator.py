"""The linearized gauged Einstein operator on invariant deformations.

Three checks that organize the linear theory: the gauge identity on the
metric itself, the indicial roots at the cusp end (which control which
decay rates the operator can absorb), and the rate at which the black-hole
operator converges to the cusp operator far from the core.
"""

import numpy as np

from dehnfill.curvature import ricci_and_deficit
from dehnfill.linearized import (
    apply_L,
    assemble_L_blackhole,
    compare_operators,
    indicial_roots,
    metric_deformation,
)
from dehnfill.numutil import loggrid
from dehnfill.profiles import black_hole_metric, glued_metric

n = 4

# gauge identity: L applied to the background metric returns -2 ric, so on
# an Einstein background the diagonal is the constant 2(n-1)
met = black_hole_metric(1.0, n)
grid = loggrid(met.profile.r_plus * 1.2, 60.0, 400)
out = apply_L(assemble_L_blackhole(met), metric_deformation(n, grid))
diag = out.diag_matrix()
print(f"L(g) on the black hole: diag in "
      f"[{diag.min():.9f}, {diag.max():.9f}]  (2(n-1) = {2 * (n - 1)})")

ric = ricci_and_deficit(met, grid).ric_diag
print(f"row-sum identity |L(g) + 2 ric| <= "
      f"{np.max(np.abs(diag + 2.0 * ric)):.2e}")

g50 = glued_metric(50.0, n)
ggrid = loggrid(g50.profile.r_plus * 1.2, 49.5, 2000)
gd = apply_L(assemble_L_blackhole(g50), metric_deformation(n, ggrid))
dev = np.max(np.abs(gd.diag_matrix() - 2.0 * (n - 1)))
print(f"on the glued profile the identity bends by the deficit: "
      f"{dev:.3e} = O(R^(1-n))")
print()

# indicial roots: the scalar blocks of the cusp operator are Euler
# operators r^2 f'' + a r f' + b f; their roots split cleanly away from
# zero except the jk sector, which carries the 0 root of the flat torus
for block in ("11", "12", "1j", "2j", "jk", "diag"):
    roots = indicial_roots(block, n)
    print(f"indicial roots {block:>4}: {np.round(roots, 6)}")
print()

# operator comparison: on deformations of unit size supported at radius r,
# (L_bh - L_cusp) h decays like r^(1-n); h is the bump sum in every block
grid = loggrid(4.0, 260.0, 4000)
comp = compare_operators(n, grid, np.geomspace(8.0, 120.0, 10),
                         r_window=(6.0, 160.0), bins=10)
print("operator difference by radius bin:")
for c, v in zip(comp.bin_centers, comp.bin_max):
    print(f"  r ~ {c:8.2f}   max |(L_bh - L_cusp) h| = {v:.3e}")
print(f"fitted decay slope = {comp.slope:.4f}   (theory: {1 - n})")
