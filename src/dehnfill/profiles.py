"""Warping profiles V(r) and the filling metrics they generate.

Everything in this package lives on the cohomogeneity-one ansatz

    g = V(r)^{-1} dr^2 + V(r) dtheta^2 + r^2 g_T,

over a flat torus T^{n-2}. The two closed-form profiles are the hyperbolic
cusp V = r^2 and the black-hole family V = r^2 - 2m r^{3-n}, which closes
smoothly at the core radius r_+ = (2m)^{1/(n-1)} when the circle period is
beta_m = 4 pi / ((n-1) r_+). A glued profile interpolates between the two
with a monotone C-infinity cutoff chi, V = r^2 - 2 chi(r) r^{3-n}.

The cutoff transition is placed on the proportional window
[0.8 R, 0.9 R]. A transition window of fixed unit width would leave the
Einstein deficit of the glued profile at O(R^{3-n}) (the chi'' term picks
up no 1/R factors), which contradicts the O(R^{1-n}) decay this profile is
meant to realize; a window proportional to R gives chi' = O(1/R),
chi'' = O(1/R^2) and hence deficit O(R^{1-n}) in every dimension n >= 3.
At R = 10 the window is [8, 9], the same interval used by the worked
examples in the construction this mirrors.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DerivOrderUnsupported,
    InvalidMass,
    NonPositiveProfile,
    NotInCuspRegion,
    OutOfDomain,
    RadiusTooSmall,
    SingularAtCore,
)
from .numutil import loggrid, smoothstep, smoothstep_d1, smoothstep_d2

# Fraction of R where the cutoff transition starts and ends.
TRANSITION_LO = 0.8
TRANSITION_HI = 0.9

_DEFAULT_RMAX = 1e9


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
    return n


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

    def _t(self, r):
        return (np.asarray(r, dtype=float) - self.lo) / (self.hi - self.lo)

    def chi(self, r):
        return 1.0 - smoothstep(self._t(r))

    def chi_d1(self, r):
        return -smoothstep_d1(self._t(r)) / (self.hi - self.lo)

    def chi_d2(self, r):
        return -smoothstep_d2(self._t(r)) / (self.hi - self.lo) ** 2


class _Profile:
    """What each profile family decides for itself: its closed-form V, V',
    V'' (_eval), its JSON params, its core (r_plus and the (r_plus, beta,
    mass) a Newton solve starts from) and its exact-support deficit."""

    r_plus = None
    # finite outer end of the family's natural domain (Newton's default r_out)
    outer_radius = None
    # radial window [lo, hi] where the cutoff moves, if there is one
    transition = None
    has_exact_deficit = False

    def params(self):
        """Constructor arguments other than domain, as JSON values."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "domain"}

    @classmethod
    def from_params(cls, params, domain):
        return cls(domain=domain, **params)

    def sample_grid(self):
        """Radii to sample the profile on when the caller gives none:
        512 log-spaced points over at most two decades above the core."""
        lo, hi = self.domain
        lo = max(lo, 1e-3)
        hi = min(hi, 100.0 * max(lo, 1.0))
        return loggrid(lo * (1 + 1e-9), hi, 512)

    def exact_deficit(self, r, n):
        raise OutOfDomain(
            f"exact-support deficit applies to cutoff profiles, not {self.variant!r}"
        )


@dataclass(frozen=True)
class CuspProfile(_Profile):
    """V = r^2, the exact hyperbolic cusp."""

    domain: tuple = (1e-6, _DEFAULT_RMAX)
    variant = "cusp"

    def _eval(self, r, deriv_order):
        if deriv_order == 0:
            return r * r
        if deriv_order == 1:
            return 2.0 * r
        return np.full_like(r, 2.0)

    def core(self, n):
        raise SingularAtCore("the cusp profile has no core to close")


@dataclass(frozen=True)
class BlackHoleProfile(_Profile):
    """V = r^2 - 2 m r^{3-n}, Einstein for every m > 0."""

    m: float
    n: int
    domain: tuple = None

    def __post_init__(self):
        r_plus, _ = closing_parameters(self.m, self.n)
        if self.domain is None:
            object.__setattr__(self, "domain", (r_plus, _DEFAULT_RMAX))

    variant = "blackhole"
    has_exact_deficit = True

    @property
    def r_plus(self):
        return (2.0 * self.m) ** (1.0 / (self.n - 1))

    def _eval(self, r, deriv_order):
        m, n = self.m, self.n
        if deriv_order == 0:
            return r * r - 2.0 * m * r ** (3 - n)
        if deriv_order == 1:
            return 2.0 * r + 2.0 * m * (n - 3) * r ** (2 - n)
        return 2.0 - 2.0 * m * (n - 3) * (n - 2) * r ** (1 - n)

    def core(self, n):
        r_plus, beta = closing_parameters(self.m, self.n)
        return r_plus, beta, self.m

    def exact_deficit(self, r, n):
        # chi is constant: the deficit vanishes identically
        return np.zeros((r.size, n))


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
    has_exact_deficit = True

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

    def _eval(self, r, deriv_order):
        n = self.n
        cut = self.cutoff
        chi = cut.chi(r)
        p = r ** (3 - n)
        if deriv_order == 0:
            return r * r - 2.0 * chi * p
        c1 = cut.chi_d1(r)
        p1 = (3 - n) * r ** (2 - n)
        if deriv_order == 1:
            return 2.0 * r - 2.0 * (c1 * p + chi * p1)
        c2 = cut.chi_d2(r)
        p2 = (3 - n) * (2 - n) * r ** (1 - n)
        return 2.0 - 2.0 * (c2 * p + 2.0 * c1 * p1 + chi * p2)

    def core(self, n):
        r_plus, beta = closing_parameters(1.0, n)
        return r_plus, beta, 1.0

    def exact_deficit(self, r, n):
        d1 = self.cutoff.chi_d1(r)
        d2 = self.cutoff.chi_d2(r)
        rad = d2 * r ** (3 - n) + (4 - n) * d1 * r ** (2 - n)
        tor = 2.0 * d1 * r ** (2 - n)
        out = np.zeros((r.size, n))
        out[:, 0] = rad
        out[:, 1] = rad
        out[:, 2:] = tor[:, None]
        return out

    def params(self):
        return {"R": self.R, "n": self.n,
                "cutoff": {"lo": self.cutoff.lo, "hi": self.cutoff.hi}}

    @classmethod
    def from_params(cls, params, domain):
        c = params["cutoff"]
        return cls(R=params["R"], n=params["n"],
                   cutoff=CutoffFunction(lo=c["lo"], hi=c["hi"]), domain=domain)


@dataclass(frozen=True, eq=False)
class SampledProfile(_Profile):
    """V given by samples on an ascending grid, evaluated by a natural
    cubic spline (so second derivatives are available everywhere).

    Natural ends pin S'' = 0 at the two boundary knots, so V'' carries a
    boundary layer there that decays geometrically into the interior
    (factor 2 - sqrt(3) per interval); derivative-based diagnostics
    should be read a safe number of intervals away from the ends."""

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
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if self.domain is None:
            object.__setattr__(self, "domain", (float(grid[0]), float(grid[-1])))

    variant = "sampled"

    @property
    def _spline(self):
        spl = self.__dict__.get("_spline_cache")
        if spl is None:
            # imported here so that `import dehnfill` does not load scipy
            from scipy.interpolate import CubicSpline

            spl = CubicSpline(self.grid, self.values, bc_type="natural")
            self.__dict__["_spline_cache"] = spl
        return spl

    @property
    def outer_radius(self):
        return float(self.grid[-1])

    def sample_grid(self):
        return self.grid

    def _eval(self, r, deriv_order):
        return self._spline(r, nu=deriv_order)

    def core(self, n):
        m_hat = fitted_mass(self.grid, self.values, n)
        if m_hat <= 0:
            raise NonPositiveProfile(
                f"sampled profile fits a nonpositive mass {m_hat:.3g}"
            )
        r_plus, beta = closing_parameters(m_hat, n)
        return r_plus, beta, m_hat

    def params(self):
        return {"grid": self.grid.tolist(), "values": self.values.tolist()}


def _check_in_domain(profile, r):
    r = np.asarray(r, dtype=float)
    lo, hi = profile.domain
    # Allow an ulp of slack at the ends so that r_plus itself is evaluable.
    tol = 1e-12 * max(abs(lo), 1.0)
    if np.any(r < lo - tol) or np.any(r > hi * (1 + 1e-12)):
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
    their closed forms (the cutoff derivatives are analytic as well);
    sampled profiles go through their spline.
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


def coordinate_change_to_cusp(profile, R, rho):
    """Rescale the outer region of a glued profile to cusp coordinates.

    With rho = r/R the metric V^{-1} dr^2 + V dtheta^2 + r^2 g_T becomes,
    wherever V = r^2 exactly (cutoff fully off),

        rho^{-2} drho^2 + rho^2 (d(R theta)^2 + R^2 g_T),

    the standard cusp with boundary torus scaled by 1/R (equivalently the
    torus coordinates scaled by R). Returns a dict with the three metric
    coefficient ratios against the exact cusp form, all of which should be
    1 in the chi = 0 region. Raises NotInCuspRegion if rho R is not past
    the end of the transition window.
    """
    if profile.variant != "glued":
        raise NotInCuspRegion("coordinate change applies to glued profiles")
    rho_arr = np.asarray(rho, dtype=float)
    r = rho_arr * R
    if np.any(r < profile.cutoff.hi):
        raise NotInCuspRegion(
            f"r = {np.min(r):.6g} is inside the transition (cutoff active "
            f"below {profile.cutoff.hi:.6g}); no cusp form there"
        )
    V = eval_profile(profile, r)
    # g_rhorho * rho^2, g_thetatheta / (rho R)^2, torus factor r^2/(rho R)^2
    radial = (R * R / V) * rho_arr * rho_arr
    circle = V / (r * r)
    torus = np.ones_like(rho_arr)
    return {
        "rho": rho_arr,
        "radial_ratio": radial,
        "circle_ratio": circle,
        "torus_ratio": torus,
        "max_mismatch": float(
            np.max(np.abs(np.stack([radial - 1.0, circle - 1.0, torus - 1.0])))
        ),
    }


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
        if not np.allclose(gram, gram.T, atol=1e-12):
            raise OutOfDomain("torus_gram must be symmetric")
        if self.n > 2 and gram.size and np.linalg.eigvalsh(gram).min() <= 0:
            raise OutOfDomain("torus_gram must be positive definite")
        object.__setattr__(self, "torus_gram", gram)


def black_hole_metric(m, n, torus_gram=None):
    """Black-hole filling metric with the smooth-closing period beta_m."""
    r_plus, beta = closing_parameters(m, n)
    return FillingMetric(n=int(n), profile=BlackHoleProfile(m=float(m), n=int(n)),
                         beta=beta, torus_gram=torus_gram)


def cusp_metric(n, beta=2.0 * math.pi, torus_gram=None):
    """Exact hyperbolic cusp metric on the model end."""
    return FillingMetric(n=int(n), profile=CuspProfile(), beta=beta,
                         torus_gram=torus_gram)


def glued_metric(R, n, torus_gram=None):
    """Glued approximate-Einstein metric at gluing radius R (beta = beta_1)."""
    _, beta1 = closing_parameters(1.0, n)
    return FillingMetric(n=int(n), profile=make_glued_profile(R, n),
                         beta=beta1, torus_gram=torus_gram)


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------


def profile_to_dict(profile):
    return {"variant": profile.variant, "domain": list(profile.domain),
            "params": profile.params()}


_VARIANTS = {cls.variant: cls for cls in
             (CuspProfile, BlackHoleProfile, GluedProfile, SampledProfile)}


def profile_from_dict(d):
    cls = _VARIANTS.get(d["variant"])
    if cls is None:
        raise OutOfDomain(f"unknown profile variant {d['variant']!r}")
    return cls.from_params(d.get("params", {}), tuple(d["domain"]))


def profile_to_json(profile):
    return json.dumps(profile_to_dict(profile), sort_keys=True)


def profile_from_json(text):
    return profile_from_dict(json.loads(text))
