"""Warping profiles V(r) and the filling metrics they generate.

Everything in this package lives on the cohomogeneity-one ansatz

    g = V(r)^{-1} dr^2 + V(r) dtheta^2 + r^2 g_T,

over a flat torus T^{n-2}. The three closed-form families share the mass
form V = r^2 - 2 mu(r) r^{3-n}: the hyperbolic cusp has mu = 0, the black
hole mu = m, and a glued profile mu = chi(r), a monotone C-infinity cutoff
that is 1 near the core and 0 outside. The black hole closes smoothly at
the core radius r_+ = (2m)^{1/(n-1)} when the circle period is
beta_m = 4 pi / ((n-1) r_+). Each family supplies mu, mu' and mu'' only;
V, V', V'', the frame curvatures and the Einstein deficit all follow from
them, the curvatures as -1 plus mass terms and the deficit from mu' and
mu'' alone, so it is exactly zero wherever the mass is constant.

The cutoff transition is placed on the proportional window
[0.8 R, 0.9 R]. A transition window of fixed unit width would leave the
Einstein deficit of the glued profile at O(R^{3-n}) (the chi'' term picks
up no 1/R factors), which contradicts the O(R^{1-n}) decay this profile is
meant to realize; a window proportional to R gives chi' = O(1/R),
chi'' = O(1/R^2) and hence deficit O(R^{1-n}) in every dimension n >= 3.
At R = 10 the window is [8, 9], the same interval used by the worked
examples in the construction this mirrors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DerivOrderUnsupported,
    InvalidMass,
    NonPositiveProfile,
    OutOfDomain,
    RadiusTooSmall,
    SingularAtCore,
)
from .numutil import (loggrid, smoothstep, smoothstep_d1, smoothstep_d2,
                      stencil_weights)

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
    if not (math.isfinite(m) and m > 0):
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


def _check_own_dimension(profile, n):
    if n != profile.n:
        raise OutOfDomain(f"the {profile.variant} profile is built for "
                          f"n={profile.n}, not n={n!r}")


def fitted_mass(grid, values, n):
    """Least-squares mass of the closest black-hole profile.

    Minimizes sum (V - (r^2 - 2m r^(3-n)))^2 over m, i.e. regresses
    (r^2 - V)/2 on r^(3-n).  Weighting by the regressor keeps the outer
    samples, where r^(3-n) is tiny, from amplifying noise.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    basis = grid ** (3 - n)
    denom = float(np.sum(basis**2))
    if denom == 0:
        raise InvalidMass("degenerate grid for the mass fit")
    return float(np.sum((grid**2 - values) * basis) / (2.0 * denom))


@dataclass(frozen=True)
class CutoffFunction:
    """Monotone C-infinity cutoff: chi = 1 below lo, chi = 0 above hi.

    Built from the exp(-1/t) smoothstep, so it is C^k for every k.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (0 < self.lo < self.hi and math.isfinite(self.hi)):
            raise RadiusTooSmall(f"bad transition window [{self.lo}, {self.hi}]")
        # chi_d2 divides by the squared width; Python floats, so that an
        # overflow gives inf, not a warning or an OverflowError
        width = float(self.hi - self.lo)
        if not math.isfinite(width * width):
            raise OutOfDomain(f"transition window [{self.lo}, {self.hi}] is "
                              "too wide: its squared width overflows")

    def _t(self, r):
        return (np.asarray(r, dtype=float) - self.lo) / (self.hi - self.lo)

    def chi(self, r):
        return 1.0 - smoothstep(self._t(r))

    def chi_d1(self, r):
        return -smoothstep_d1(self._t(r)) / (self.hi - self.lo)

    def chi_d2(self, r):
        return -smoothstep_d2(self._t(r)) / (self.hi - self.lo) ** 2


class _Profile:
    """What each profile family decides for itself: its core (r_plus and
    the (r_plus, beta, mass) a Newton solve starts from) and its mass
    function.  A closed-form family supplies (mu, mu', mu'')[:order + 1]
    of V = r^2 - 2 mu(r) r^{3-n} (_mass); V, V', V'' (_eval) and the frame
    data (frame_data) follow here.  SampledProfile overrides both."""

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

    def frame_data(self, r, n):
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
        _check_own_dimension(self, n)
        mu, mu1, mu2 = self._mass(r, 2)
        p, q = r ** (3 - n), r ** (2 - n)
        u = 2.0 * mu * r ** (1 - n)
        V = r * r - 2.0 * mu * p
        V1 = 2.0 * r - 2.0 * (mu1 * p + mu * ((3 - n) * q))
        k12 = mu2 * p + 2 * (3 - n) * mu1 * q + 0.5 * (3 - n) * (2 - n) * u
        k1perp = mu1 * q + 0.5 * (3 - n) * u
        rad = mu2 * p + (4 - n) * mu1 * q
        return V, V1, k12, k1perp, u, rad, 2.0 * mu1 * q


@dataclass(frozen=True)
class CuspProfile(_Profile):
    """V = r^2, the exact hyperbolic cusp: mu = 0."""

    n: int
    domain: tuple = (1e-6, _DEFAULT_RMAX)
    variant = "cusp"

    def __post_init__(self):
        _check_dimension(self.n)

    def _mass(self, r, order):
        return (0.0,) * (order + 1)

    def core(self, n):
        raise SingularAtCore("the cusp profile has no core to close")


@dataclass(frozen=True)
class BlackHoleProfile(_Profile):
    """V = r^2 - 2 m r^{3-n}, Einstein for every m > 0: mu = m."""

    m: float
    n: int
    domain: tuple = None

    def __post_init__(self):
        r_plus, _ = closing_parameters(self.m, self.n)
        if self.domain is None:
            object.__setattr__(self, "domain", (r_plus, _DEFAULT_RMAX))

    variant = "blackhole"

    @property
    def r_plus(self):
        return (2.0 * self.m) ** (1.0 / (self.n - 1))

    def _mass(self, r, order):
        return (self.m,) + (0.0,) * order

    def core(self, n):
        _check_own_dimension(self, n)
        r_plus, beta = closing_parameters(self.m, self.n)
        return r_plus, beta, self.m


@dataclass(frozen=True)
class GluedProfile(_Profile):
    """V = r^2 - 2 chi(r) r^{3-n}: black hole near the core, cusp outside."""

    R: float
    n: int
    cutoff: CutoffFunction
    domain: tuple = None

    def __post_init__(self):
        _check_dimension(self.n)
        if self.domain is None:
            r_plus, _ = closing_parameters(1.0, self.n)
            object.__setattr__(self, "domain", (r_plus, self.R))

    variant = "glued"

    @property
    def r_plus(self):
        # the core matches the unit-mass black hole by construction
        return 2.0 ** (1.0 / (self.n - 1))

    @property
    def outer_radius(self):
        return self.domain[1]

    @property
    def transition(self):
        return self.cutoff.lo, self.cutoff.hi

    def _mass(self, r, order):
        cut = self.cutoff
        return [f(r) for f in (cut.chi, cut.chi_d1, cut.chi_d2)[:order + 1]]

    def core(self, n):
        _check_own_dimension(self, n)
        r_plus, beta = closing_parameters(1.0, n)
        return r_plus, beta, 1.0


@dataclass(frozen=True, eq=False)
class SampledProfile(_Profile):
    """V given by samples on an ascending grid of positive radii, evaluated
    by the Newton solve's own 9-node Fornberg stencils in x = log r."""

    grid: np.ndarray
    values: np.ndarray
    domain: tuple = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 9:
            raise OutOfDomain("sampled profile needs at least 9 grid points")
        if np.any(np.diff(grid) <= 0):
            raise OutOfDomain("sampled profile grid must be strictly increasing")
        if values.shape != grid.shape:
            raise OutOfDomain("sampled profile grid/values shape mismatch")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise OutOfDomain("sampled profile grid and values must be finite")
        if grid[0] <= 0:
            raise OutOfDomain("sampled profile grid must be positive (log r)")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if self.domain is None:
            object.__setattr__(self, "domain", (float(grid[0]), float(grid[-1])))

    variant = "sampled"

    @property
    def outer_radius(self):
        return float(self.grid[-1])

    def sample_grid(self):
        return self.grid

    def _eval(self, r, deriv_order):
        # 9 nodes in x = log r, where V_x = r V' and V_xx = r V' + r^2 V''
        x, at = np.log(self.grid), np.log(r).ravel()

        def d(k):
            idx, w = stencil_weights(x, k, 9, at=at)
            return (w * self.values[idx]).sum(axis=1).reshape(r.shape)

        if deriv_order == 0:
            return d(0)
        Vx = d(1)
        return Vx / r if deriv_order == 1 else (d(2) - Vx) / (r * r)

    def frame_data(self, r, n):
        # the generic path: the curvatures from V, V', V'' and the deficit
        # through the cancellation of ric + (n-1) in floating point
        r = _check_in_domain(self, r)
        V = self._eval(r, 0)
        V1 = self._eval(r, 1)
        K12 = -0.5 * self._eval(r, 2)
        K1perp = -V1 / (2.0 * r)
        Kperp = -V / r**2
        rad = K12 + (n - 2) * K1perp + (n - 1.0)
        tor = 2.0 * K1perp + (n - 3) * Kperp + (n - 1.0)
        return V, V1, K12 + 1.0, K1perp + 1.0, Kperp + 1.0, rad, tor

    def core(self, n):
        m_hat = fitted_mass(self.grid, self.values, n)
        if m_hat <= 0:
            raise NonPositiveProfile(
                f"sampled profile fits a nonpositive mass {m_hat:.3g}"
            )
        r_plus, beta = closing_parameters(m_hat, n)
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
    OutOfDomain. Cusp, black-hole and glued profiles are evaluated from
    their mass form (the cutoff derivatives are analytic as well);
    sampled profiles by 9-node stencils in log r.
    """
    if deriv_order not in (0, 1, 2):
        raise DerivOrderUnsupported(f"deriv_order must be 0, 1 or 2, got {deriv_order}")
    scalar = np.isscalar(r) or (isinstance(r, np.ndarray) and r.ndim == 0)
    out = profile._eval(_check_in_domain(profile, r), deriv_order)
    return float(out) if scalar else out


def make_glued_profile(R, n):
    """Glued profile with transition on [0.8 R, 0.9 R].

    Requires R > r_+(m=1) + 3 so the transition clears the core region;
    otherwise RadiusTooSmall (the filling is too short to interpolate).
    """
    _check_dimension(n)
    r_plus, _ = closing_parameters(1.0, n)
    if R <= r_plus + 3.0:
        raise RadiusTooSmall(
            f"gluing radius {R} must exceed r_+ + 3 = {r_plus + 3.0:.6f}"
        )
    cutoff = CutoffFunction(TRANSITION_LO * R, TRANSITION_HI * R)
    return GluedProfile(R=float(R), n=int(n), cutoff=cutoff)


# ----------------------------------------------------------------------
# Filling metrics
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FillingMetric:
    """Cohomogeneity-one metric data: dimension, profile, circle period
    and the Gram matrix of the flat T^{n-2} factor."""

    n: int
    profile: object
    beta: float
    torus_gram: np.ndarray = None

    def __post_init__(self):
        _check_dimension(self.n)
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise OutOfDomain(f"beta must be positive and finite, got {self.beta}")
        if self.torus_gram is None:
            object.__setattr__(self, "torus_gram", np.eye(self.n - 2))
            return
        gram = np.asarray(self.torus_gram, dtype=float)
        if gram.shape != (self.n - 2, self.n - 2):
            raise OutOfDomain(
                f"torus_gram must be {(self.n - 2, self.n - 2)}, got {gram.shape}"
            )
        if not np.all(np.isfinite(gram)):
            raise OutOfDomain("torus_gram must be finite")
        if not np.allclose(gram, gram.T, atol=1e-12):
            raise OutOfDomain("torus_gram must be symmetric")
        if np.linalg.eigvalsh(gram).min() <= 0:
            raise OutOfDomain("torus_gram must be positive definite")
        object.__setattr__(self, "torus_gram", gram)


def black_hole_metric(m, n):
    """Black-hole filling metric with the smooth-closing period beta_m."""
    _, beta = closing_parameters(m, n)
    return FillingMetric(n=int(n), profile=BlackHoleProfile(m=float(m), n=int(n)),
                         beta=beta)


def cusp_metric(n):
    """Exact hyperbolic cusp metric on the model end (beta = 2 pi)."""
    return FillingMetric(n=n, profile=CuspProfile(n), beta=2.0 * math.pi)


def glued_metric(R, n):
    """Glued approximate-Einstein metric at gluing radius R (beta = beta_1)."""
    _, beta1 = closing_parameters(1.0, n)
    return FillingMetric(n=int(n), profile=make_glued_profile(R, n), beta=beta1)
