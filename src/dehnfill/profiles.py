"""Warping profiles V(r) and the filling metrics they generate.

Everything in this package lives on the cohomogeneity-one ansatz

    g = V(r)^{-1} dr^2 + V(r) dtheta^2 + r^2 g_T,

over a flat torus T^{n-2}. The three closed-form families share the mass
form V = r^2 - 2 mu(r) r^{3-n}: the hyperbolic cusp has mu = 0, the black
hole mu = m, and a glued profile mu = chi(r), a monotone C-infinity cutoff
that is 1 near the core and 0 outside. The black hole closes smoothly at
the core radius r_+ = (2m)^{1/(n-1)} when the circle period is
beta_m = 4 pi / ((n-1) r_+). A sampled profile (a Newton solve's result)
reads mu = (r^2 - V) r^{n-3}/2 off its samples. Each family supplies mu,
mu' and mu'' only; V, V', V'', the frame curvatures and the Einstein
deficit all follow from them, the curvatures as -1 plus mass terms and
the deficit from mu' and mu'' alone, so it is exactly zero wherever the
mass is constant.

The circle period and g_T fix a filled cusp's topology but enter no number
computed here, so a FillingMetric is a profile; every profile, the sampled
one included, carries its n.  The period comes from closing_parameters
(EinsteinSolveResult.beta after a solve), g_T from lattice.quotient_generators.

The cutoff transition is placed on the proportional window
[0.8 R, 0.9 R], which GluedProfile derives from R alone. A transition
window of fixed unit width would leave the Einstein deficit of the glued
profile at O(R^{3-n}) (the chi'' term picks up no 1/R factors), which
contradicts the O(R^{1-n}) decay this profile is meant to realize; a
window proportional to R gives chi' = O(1/R), chi'' = O(1/R^2) and hence
deficit O(R^{1-n}) in every dimension n >= 3.
At R = 10 the window is [8, 9], the same interval used by the worked
examples in the construction this mirrors.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DerivOrderUnsupported,
    InvalidMass,
    NonPositiveProfile,
    OutOfDomain,
    RadiusTooSmall,
    SingularAtCore,
)
from .numutil import (_checked_samples, _is_finite_real, _smoothstep, loggrid,
                      stencil_weights)

__all__ = [
    "CuspProfile",
    "BlackHoleProfile",
    "GluedProfile",
    "SampledProfile",
    "closing_parameters",
    "fitted_mass",
    "eval_profile",
    "FillingMetric",
    "black_hole_metric",
    "cusp_metric",
    "glued_metric",
]

# Fraction of R where the cutoff transition starts and ends.
TRANSITION_LO = 0.8
TRANSITION_HI = 0.9

_DEFAULT_RMAX = 1e9

# Largest dimension n accepted anywhere.  A deformation holds one column
# per torus pair, (n-2)(n-3)/2 of them, so memory grows like n^2 per grid
# point, and a huge n overflows float arithmetic such as the indicial
# discriminant (n-1)^2 + 4c.
MAX_DIMENSION = 32


def closing_parameters(m, n):
    """Core radius and circle period of the smooth black-hole closing.

    r_+ = (2m)^{1/(n-1)} is the unique positive zero of V, and
    beta = 4 pi / ((n-1) r_+) = 4 pi / V'(r_+) is the theta-period for
    which the metric closes smoothly (flat totally geodesic core torus).

    Returns (r_plus, beta). Raises InvalidMass unless m is finite and positive.
    """
    if not (_is_finite_real(m) and m > 0):
        raise InvalidMass(f"mass must be positive and finite, got {m}")
    _check_dimension(n)
    r_plus = (2.0 * m) ** (1.0 / (n - 1))
    beta = 4.0 * math.pi / ((n - 1) * r_plus)
    return r_plus, beta


def _check_dimension(n):
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise OutOfDomain(f"n={n!r} is not allowed: the construction needs an "
                          "integer n > 2 (a positive-dimensional transverse torus)")
    if n > MAX_DIMENSION:
        raise OutOfDomain(f"dimensions n > {MAX_DIMENSION} are not supported")
    return n


def fitted_mass(grid, values, n):
    """Least-squares mass of the closest black-hole profile.

    Minimizes sum (V - (r^2 - 2m r^(3-n)))^2 over m, i.e. regresses
    (r^2 - V)/2 on r^(3-n).  Weighting by the regressor keeps the outer
    samples, where r^(3-n) is tiny, from amplifying noise.  The regressor
    is (r/r0)^(3-n), r0 = grid[0], so it stays O(1) at any mass.
    """
    grid, values = _checked_samples(grid, values, min_points=1)
    r0 = float(grid[0])
    basis = (grid / r0) ** (3 - n)
    # basis[0] = 1, so the sum is at least 1
    denom = float(np.sum(basis**2))
    return float(np.sum((grid**2 - values) * basis) / (2.0 * denom)) * r0 ** (n - 3)


def _cutoff_mass(r, lo, hi, order):
    """(chi, chi', chi'')[:order + 1] at r of the cutoff from 1 below lo to
    0 above hi, numbers or (S, 1) columns against (S, G) radii.  float_power
    squares a column with libm's pow, as Python's ** squares a number."""
    width = hi - lo
    s = _smoothstep((np.asarray(r, dtype=float) - lo) / width, order)
    return [1.0 - s[0]] + [-s[k] / np.float_power(width, k)
                           for k in range(1, order + 1)]


class _Profile:
    """What each profile family decides for itself: its core (r_plus and
    the (r_plus, beta, mass) a Newton solve starts from) and its mass
    function.  Each family supplies (mu, mu', mu'')[:order + 1] of
    V = r^2 - 2 mu(r) r^{3-n} (_mass); V, V', V'' (_eval) and the frame
    data (frame_data) follow here."""

    r_plus = None
    # finite outer end of the family's natural domain (Newton's default r_out)
    outer_radius = None
    # radial window [lo, hi] where the cutoff moves, if there is one
    transition = None

    def sample_grid(self):
        """Radii to sample the profile on when the caller gives none:
        512 log-spaced points over at most two decades above the core."""
        lo, hi = self.domain
        lo = max(lo, 1e-3)
        hi = min(hi, 100.0 * max(lo, 1.0))
        return loggrid(lo * (1 + 1e-9), hi, 512)

    def _eval(self, r, deriv_order):
        n = self.n
        mu = self._mass(r, deriv_order)
        p = r ** (3 - n)
        if deriv_order == 0:
            return r * r - 2.0 * mu[0] * p
        p1 = (3 - n) * r ** (2 - n)
        if deriv_order == 1:
            return 2.0 * r - 2.0 * (mu[1] * p + mu[0] * p1)
        p2 = (3 - n) * (2 - n) * r ** (1 - n)
        return 2.0 - 2.0 * (mu[2] * p + 2.0 * mu[1] * p1 + mu[0] * p2)

    def frame_data(self, r):
        """(V, V', k12, k1perp, kperp, rad, tor) at the radii r (an array).

        k = K + 1 are the mass terms of the frame sectional curvatures
        K12 = -V''/2, K1perp = -V'/(2r) and Kperp = -V/r^2, which are -1
        on the cusp; rad and tor are the Einstein deficit ric + (n-1) in
        the 11 = 22 and in the torus directions.  With u = 2 mu r^{1-n},

            k12 = mu'' r^{3-n} + 2(3-n) mu' r^{2-n} + (3-n)(2-n) u/2,
            k1perp = mu' r^{2-n} + (3-n) u/2,
            kperp = u,

        and in ric_11 = K12 + (n-2) K1perp, ric_jj = 2 K1perp + (n-3) Kperp
        the u terms cancel symbolically, leaving

            rad = mu'' r^{3-n} + (4-n) mu' r^{2-n},   tor = 2 mu' r^{2-n},

        exactly zero in floating point wherever mu' = mu'' = 0.  Radii
        outside the domain raise OutOfDomain; the frame formulas stay
        regular at the core r_plus (V = 0 there but nothing divides by V),
        so it is allowed with the ulp slack of eval_profile.
        """
        r = _check_in_domain(self, r)
        n = self.n
        mu, mu1, mu2 = self._mass(r, 2)
        p, q, rad, tor = _deficit(r, n, mu1, mu2)
        u = 2.0 * mu * r ** (1 - n)
        V = r * r - 2.0 * mu * p
        V1 = 2.0 * r - 2.0 * (mu1 * p + mu * ((3 - n) * q))
        k12 = mu2 * p + 2 * (3 - n) * mu1 * q + 0.5 * (3 - n) * (2 - n) * u
        k1perp = mu1 * q + 0.5 * (3 - n) * u
        return V, V1, k12, k1perp, u, rad, tor


def _deficit(r, n, mu1, mu2):
    """r^{3-n}, r^{2-n} and frame_data's deficit rad, tor from mu', mu''."""
    p, q = r ** (3 - n), r ** (2 - n)
    return p, q, mu2 * p + (4 - n) * mu1 * q, 2.0 * mu1 * q


def _stack_deficit(profiles, r):
    """rad and tor of frame_data on the (S, G) radii r, row s on profiles[s],
    all of one dimension: at once with glued profiles' cutoffs as (S, 1)
    columns, row by row through frame_data if any profile has no cutoff."""
    if any(p.transition is None for p in profiles):
        return np.swapaxes([p.frame_data(row)[5:]
                            for p, row in zip(profiles, r)], 0, 1)
    for p, row in zip(profiles, r):
        _check_in_domain(p, row)
    lo, hi = np.array([p.transition for p in profiles]).T[:, :, None]
    return _deficit(r, profiles[0].n, *_cutoff_mass(r, lo, hi, 2)[1:])[2:]


@dataclass(frozen=True)
class CuspProfile(_Profile):
    """V = r^2, the exact hyperbolic cusp: mu = 0."""

    n: int
    domain: tuple = (1e-6, _DEFAULT_RMAX)

    def __post_init__(self):
        _check_dimension(self.n)

    def _mass(self, r, order):
        return (0.0,) * (order + 1)

    def core(self):
        raise SingularAtCore("the cusp profile has no core to close")


@dataclass(frozen=True)
class BlackHoleProfile(_Profile):
    """V = r^2 - 2 m r^{3-n}, Einstein for every m > 0: mu = m."""

    m: float
    n: int
    domain: tuple = None

    def __post_init__(self):
        r_plus, _ = closing_parameters(self.m, self.n)
        object.__setattr__(self, "m", float(self.m))
        if self.domain is None:
            object.__setattr__(self, "domain", (r_plus, _DEFAULT_RMAX))

    @property
    def r_plus(self):
        return (2.0 * self.m) ** (1.0 / (self.n - 1))

    def _mass(self, r, order):
        return (self.m,) + (0.0,) * order

    def core(self):
        r_plus, beta = closing_parameters(self.m, self.n)
        return r_plus, beta, self.m


@dataclass(frozen=True)
class GluedProfile(_Profile):
    """V = r^2 - 2 chi(r) r^{3-n}: black hole near the core, cusp outside,
    chi moving on transition = [0.8 R, 0.9 R] of the domain [r_+, R].  R
    must be finite and exceed r_+ + 3, so the transition clears the core."""

    R: float
    n: int
    transition: tuple = field(init=False)
    domain: tuple = field(init=False)

    def __post_init__(self):
        _check_dimension(self.n)
        r_plus = self.r_plus
        if not (_is_finite_real(self.R) and self.R > r_plus + 3.0):
            raise RadiusTooSmall(f"gluing radius {self.R!r} must exceed "
                                 f"r_+ + 3 = {r_plus + 3.0:.6f}")
        object.__setattr__(self, "R", float(self.R))
        lo, hi = TRANSITION_LO * self.R, TRANSITION_HI * self.R
        # chi'' divides by the squared width; Python floats, so that an
        # overflow gives inf, not a warning or an OverflowError
        width = float(hi - lo)
        if not math.isfinite(width * width):
            raise OutOfDomain(f"transition window [{lo}, {hi}] is too wide: "
                              "its squared width overflows")
        object.__setattr__(self, "transition", (lo, hi))
        object.__setattr__(self, "domain", (r_plus, self.R))

    @property
    def r_plus(self):
        # the core matches the unit-mass black hole by construction
        return 2.0 ** (1.0 / (self.n - 1))

    @property
    def outer_radius(self):
        return self.R

    def _mass(self, r, order):
        return _cutoff_mass(r, *self.transition, order)

    def core(self):
        r_plus, beta = closing_parameters(1.0, self.n)
        return r_plus, beta, 1.0


@dataclass(frozen=True, eq=False)
class SampledProfile(_Profile):
    """V given by samples on an ascending grid of positive radii.  Its mass
    mu = (r^2 - V) r^{n-3}/2 and mu', mu'' come from the Newton solve's own
    9-node Fornberg stencils in x = log r."""

    grid: np.ndarray
    values: np.ndarray
    n: int
    domain: tuple = field(init=False)

    def __post_init__(self):
        _check_dimension(self.n)
        grid, values = _checked_samples(self.grid, self.values, min_points=9)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "domain", (float(grid[0]), float(grid[-1])))

    @property
    def outer_radius(self):
        return float(self.grid[-1])

    def sample_grid(self):
        return self.grid

    def _mass(self, r, order):
        # mu = (r^2 - V) r^{n-3}/2 on the samples, by 9 nodes in x = log r,
        # where mu_x = r mu' and mu_xx = r mu' + r^2 mu''
        grid = self.grid
        mu = 0.5 * (grid * grid - self.values) * grid ** (self.n - 3)
        x, at = np.log(grid), np.log(r).ravel()

        def d(k):
            idx, w = stencil_weights(x, k, 9, at=at)
            return (w * mu[idx]).sum(axis=1).reshape(r.shape)

        mus = [d(k) for k in range(order + 1)]
        if order == 2:
            mus[2] = (mus[2] - mus[1]) / (r * r)
        if order:
            mus[1] = mus[1] / r
        return mus

    def core(self):
        m_hat = fitted_mass(self.grid, self.values, self.n)
        if m_hat <= 0:
            raise NonPositiveProfile(
                f"sampled profile fits a nonpositive mass {m_hat:.3g}"
            )
        r_plus, beta = closing_parameters(m_hat, self.n)
        return r_plus, beta, m_hat


def _check_in_domain(profile, r):
    r = np.asarray(r, dtype=float)
    lo, hi = profile.domain
    # Allow an ulp of slack at the ends so that r_plus itself is evaluable;
    # every comparison with nan is False, so a nan radius fails the check.
    tol = 1e-12 * max(abs(lo), 1.0)
    if not ((r >= lo - tol).all() and (r <= hi * (1 + 1e-12)).all()):
        raise OutOfDomain(
            f"radius outside profile domain [{lo}, {hi}]: "
            f"r in [{r.min()}, {r.max()}]"
        )
    return r


def eval_profile(profile, r, deriv_order=0):
    """Evaluate V, V' or V'' at radius r (scalar or array).

    deriv_order must be 0, 1 or 2; anything else raises
    DerivOrderUnsupported. Radii outside the profile domain raise
    OutOfDomain. Every profile is evaluated from its mass form: the
    closed-form families' mass derivatives are analytic, a sampled
    profile's come from 9-node stencils in log r.
    """
    if deriv_order not in (0, 1, 2):
        raise DerivOrderUnsupported(f"deriv_order must be 0, 1 or 2, got {deriv_order}")
    scalar = np.isscalar(r) or (isinstance(r, np.ndarray) and r.ndim == 0)
    out = profile._eval(_check_in_domain(profile, r), deriv_order)
    return float(out) if scalar else out


# ----------------------------------------------------------------------
# Filling metrics
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FillingMetric:
    """Cohomogeneity-one metric data: the profile, which carries n."""

    profile: object

    @property
    def n(self):
        return self.profile.n


def black_hole_metric(m, n):
    """Black-hole filling metric of mass m."""
    return FillingMetric(BlackHoleProfile(m=m, n=n))


def cusp_metric(n):
    """Exact hyperbolic cusp metric on the model end."""
    return FillingMetric(CuspProfile(n))


def glued_metric(R, n):
    """Glued approximate-Einstein metric at gluing radius R."""
    return FillingMetric(GluedProfile(R, n))
