"""Perturbing the glued approximate solution to an exact Einstein profile.

The glued profile fails the Einstein equations only in the transition
window. A Newton iteration on the radial profile, each full step
accepted only if it cuts the residual by at least a quarter, removes
that deficit; the corrected profile is then identified against the
exact black-hole family by fitting the mass.
"""

import numpy as np

from dehnfill.profiles import GluedProfile, closing_parameters, eval_profile
from dehnfill.solver import einstein_residual, newton_solve

n = 4

for R in (15.0, 50.0, 100.0):
    start = GluedProfile(R, n)
    (_, F1), (_, F2) = einstein_residual(start)
    sup0 = max(np.max(np.abs(F1)), np.max(np.abs(F2)))
    res = newton_solve(start)
    assert res.converged, res.error
    rp_exact, beta_exact = closing_parameters(res.fitted_m, n)
    print(f"R = {R:6.1f}: start residual {sup0:.3e} -> "
          f"{res.residuals[-1]:.3e} in {res.iterations} step(s)")
    print(f"          fitted m = {res.fitted_m:.9f}, "
          f"r+ = {res.r_plus:.9f} (exact {rp_exact:.9f}), "
          f"quad ratio = {res.quadratic_ratio:.4f}")
print()

# the solved profile is the m = 1 black hole pointwise, not just in the
# fitted parameters
res = newton_solve(GluedProfile(50.0, n))
assert res.converged, res.error
r = np.geomspace(res.r_plus * 1.01, 45.0, 7)
V_solved = eval_profile(res.profile, r)
V_exact = r**2 - 2.0 / r
print("r         V (solved)      V (m=1 black hole)")
for ri, a, b in zip(r, V_solved, V_exact):
    print(f"{ri:8.3f}  {a:14.9f}  {b:14.9f}")
print()
print(f"identification error sup = {np.max(np.abs(V_solved - V_exact)):.2e}")

# the solved profile is evaluated with the solver's own stencils, so it
# satisfies the Einstein equations between the nodes as well, ends included
lo, hi = res.profile.domain
(_, F1), (_, F2) = einstein_residual(res.profile, np.geomspace(lo, hi, 3000))
print(f"solved profile on [{lo:.4f}, {hi:.1f}]: max |F1| = "
      f"{np.max(np.abs(F1)):.2e}, max |F2| = {np.max(np.abs(F2)):.2e}")
