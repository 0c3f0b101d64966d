"""Einstein deficit of glued profiles across filling sizes.

Measures the weighted deficit norm of the approximate solution as the
filling size grows and fits the decay exponent; the theory predicts
size^(1-n). Then inverts the fit to answer "how large must the filling be
for a prescribed deficit budget".
"""

import numpy as np

from dehnfill.gluing import (
    build_approximate_solution,
    decay_scan,
    deficit_norm,
    filling_from_lengths,
    perturbation_budget,
)

n = 4

# a single solution first: the norm weighs the deficit by the decay weight
# (2/rho)^delta relative to phi_c, and adds log-coordinate difference
# seminorms, all on one grid over the transition window, the only place
# where the deficit is nonzero
filling = filling_from_lengths([50.0], n)
sol = build_approximate_solution(filling)
nrm = deficit_norm(sol)
print(f"n = {n}, geodesic length 50 -> filling radius "
      f"{filling.radii[0]:.4f}")
print(f"weighted deficit norm = {nrm:.6e}")

sizes = list(np.geomspace(40.0, 640.0, 7))
scan = decay_scan(n, sizes)
print()
print("size        norm")
for L, v in zip(scan.sizes, scan.norms):
    print(f"{L:8.1f}  {v:.6e}")
print(f"fitted slope = {scan.slope:.6f}   (theory: {1 - n})")
print(f"residual     = {scan.residual:.2e}")
print()

# invert: smallest size whose predicted deficit sits below eps / Lambda
for eps in (1e-2, 1e-4, 1e-6):
    rep = perturbation_budget(scan, 1.0, eps)
    print(f"budget eps = {eps:7.0e}  ->  min size = {rep.min_size:10.2f}"
          f"  (feasible now: {rep.feasible_now})")

# higher dimension decays faster
scan5 = decay_scan(5, sizes)
print()
print(f"n = 5 slope = {scan5.slope:.6f}   (theory: {1 - 5})")
