"""Weight functions and weighted norms on filled and cusped regions.

Fields on a filling are measured against a cusp-comparison weight phi_c
(flat at the core scale r_c, growing like r/R further out) times a decay
factor (2/rho)**delta that books exponential-in-distance decay toward the
unfilled end.  The combination is what makes the deficit of a glued
metric shrink at the rate set by the normalized filling size rather than
merely pointwise.

Conventions:
  * rho is a normalized radius in (0, 2].  On a filling of size R we use
    rho = r / R; on the infinite-end testbed rho = 1 / r, so the decay
    factor there reads (2r)**delta.
  * delta is the decay rate.  For L2-compatible estimates it must sit
    strictly inside ((n-1)/2, n-1); the default is the midpoint 3(n-1)/4.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridTooCoarse,
    InvalidRho,
    InvalidWeight,
    NonFiniteField,
    OutOfDomain,
    TooFewSamples,
)
from .numutil import _is_finite_real, smoothstep
from .profiles import closing_parameters

__all__ = [
    "WeightSpec",
    "default_delta",
    "default_core_scale",
    "phi_c",
    "phi_c_raw",
    "decay_weight",
    "discrete_holder_seminorm",
]


def default_delta(n):
    """Decay rate 3(n-1)/4, the midpoint of the admissible band.

    The band ((n-1)/2, n-1) is where the weighted pairing on an infinite
    end is square-integrable while the weight still undercuts the slowest
    homogeneous solution r**(1-n).
    """
    if not (isinstance(n, numbers.Integral) and n >= 3):
        raise InvalidWeight(f"need an integer n >= 3, got n={n}")
    return 0.75 * (n - 1)


def default_core_scale(R, n):
    """Geometric mean of the core radius r_plus(m=1) and the filling size."""
    r_plus, _ = closing_parameters(1.0, n)
    if not (_is_finite_real(R) and R > r_plus):
        raise InvalidWeight(f"filling size R={R} must be finite and above "
                            f"the core radius {r_plus}")
    return math.sqrt(r_plus * R)


@dataclass(frozen=True)
class WeightSpec:
    """Resolved weight parameters for one or more cusps.

    R and r_c are per-cusp tuples of equal length; R is carried here
    because every weight evaluation needs the filling size alongside the
    core scale.  delta defaults to default_delta(n) and r_c entries to
    sqrt(r_plus * R).
    """

    n: int
    R: tuple
    delta: float = None
    r_c: tuple = None

    def __post_init__(self):
        if self.n < 3:
            raise InvalidWeight(f"need n >= 3, got n={self.n}")
        R = tuple(float(x) for x in np.atleast_1d(self.R))
        if not all(math.isfinite(x) and x > 0 for x in R):
            raise InvalidWeight("filling sizes must be finite and positive")
        object.__setattr__(self, "R", R)
        delta = self.delta
        if delta is None:
            delta = default_delta(self.n)
        delta = float(delta)
        if not (math.isfinite(delta) and delta >= 0):
            raise InvalidWeight(f"delta must be finite and nonnegative, got {delta}")
        object.__setattr__(self, "delta", delta)
        r_c = self.r_c
        if r_c is None:
            r_c = tuple(default_core_scale(x, self.n) for x in R)
        else:
            r_c = tuple(float(x) for x in np.atleast_1d(r_c))
        if len(r_c) != len(R):
            raise InvalidWeight(f"got {len(r_c)} core scales for {len(R)} fillings")
        for rc, RR in zip(r_c, R):
            if not (0 < rc <= RR):
                raise InvalidWeight(f"core scale {rc} outside (0, {RR}]")
        object.__setattr__(self, "r_c", r_c)

    @property
    def num_cusps(self):
        return len(self.R)


# half-width of the window that smooths phi_c's corner, as a fraction of r_c
_SMOOTH_FRAC = 0.05


def phi_c_raw(r, r_c, R):
    """Cusp comparison weight: max(r, r_c)/R with a smoothed corner.

    Piecewise the weight is r_c/R for r <= r_c and r/R beyond; the kink
    at r = r_c is mollified over a window of half-width _SMOOTH_FRAC*r_c
    by blending the two branches with a C-infinity step.  When r_c sits
    within a window-width of R there is no room to smooth inside the
    filling and the raw piecewise formula is returned.  r_c and R may be
    (S, 1) columns against (S, G) radii (a raw row's blend, at w = 1, is
    discarded).
    """
    r = np.asarray(r, dtype=float)
    params = np.array((r_c, R), dtype=float)
    if not np.isfinite(params).all():
        raise InvalidWeight("phi_c needs finite r_c and R")
    if (params <= 0).any():
        raise InvalidWeight("phi_c needs positive r_c and R")
    if not np.all(np.isfinite(r)):
        raise OutOfDomain("phi_c needs finite r")
    if np.any(r <= 0):
        raise OutOfDomain("phi_c is defined for positive r")
    beyond = np.broadcast_to(R, r.shape)[r > R * (1.0 + 1e-12)]
    if beyond.size:
        raise OutOfDomain(f"radius beyond the filling size {beyond[0]}")
    w = _SMOOTH_FRAC * r_c
    base = np.maximum(r, r_c) / R
    raw = np.logical_or(w <= 0, r_c >= R - w)
    if raw.all():
        return base if base.ndim else float(base)
    w = np.where(raw, 1.0, w)
    t = np.clip((r - (r_c - w)) / (2.0 * w), 0.0, 1.0)
    s = smoothstep(t)
    out = np.where(raw, base, ((1.0 - s) * r_c + s * np.maximum(r, r_c)) / R)
    return out if out.ndim else float(out)


def phi_c(w, cusp_index, r):
    """phi_c for one cusp of a WeightSpec."""
    if not (0 <= cusp_index < w.num_cusps):
        raise InvalidWeight(f"cusp index {cusp_index} out of range")
    return phi_c_raw(r, w.r_c[cusp_index], w.R[cusp_index])


def decay_weight(w, rho):
    """(2/rho)**delta for normalized radius rho in (0, 2].

    Equals 1 at the outer edge rho = 2 and grows monotonically toward
    the small-rho end, so multiplying by it prices in decay of rate
    delta.  On the infinite-end testbed rho = 1/r and the factor is
    (2r)**delta.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(~np.isfinite(rho)) or np.any(rho <= 0) or np.any(rho > 2.0 + 1e-12):
        raise InvalidRho("normalized radius must lie in (0, 2]")
    with np.errstate(over="ignore"):
        out = (2.0 / rho) ** w.delta
    if not np.all(np.isfinite(out)):
        raise InvalidWeight(f"decay weight (2/rho)**{w.delta} overflows")
    return out if out.ndim else float(out)


def _check_field(field_vals, grid):
    field_vals = np.asarray(field_vals, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if field_vals.shape[-1] != grid.shape[-1]:
        raise TooFewSamples(
            f"field has {field_vals.shape[-1]} samples on a grid of {grid.shape[-1]}"
        )
    if grid.shape[-1] < 2:
        raise TooFewSamples("need at least 2 grid points")
    if np.any(np.diff(grid) <= 0):
        raise GridTooCoarse("grid must be strictly increasing")
    if not (np.all(np.isfinite(field_vals)) and np.all(np.isfinite(grid))):
        raise NonFiniteField("field or grid contains nan or inf")
    return field_vals, grid


def _cusp_weight(w, grid):
    """decay_weight * phi_c**-1 at rho = r / R on the (S, G) grid, row s
    at cusp s of w: the weight of gluing.deficit_norm's sup."""
    R, r_c = np.array([w.R, w.r_c])[:, :, None]
    return decay_weight(w, grid / R) / phi_c_raw(grid, r_c, R)


def discrete_holder_seminorm(field, grid, alpha=0.5, order=0):
    """Discrete Holder quotient of the order-th divided difference.

    Forms the order-th divided differences of the field (a derivative
    proxy on the grid) and returns the maximum over adjacent windows of
    their difference divided by the window separation to the alpha.
    order=0 is the plain Holder quotient of the field itself.  gluing
    runs the same kernel, `_holder_quotient`, on several fields at once.
    """
    if np.ndim(field) != 1:
        raise InvalidWeight("seminorm expects a scalar field")
    field_vals, grid = _check_field(field, grid)
    if order not in (0, 1, 2):
        raise InvalidWeight(f"order must be 0, 1 or 2, got {order}")
    if not (0 < alpha <= 1):
        raise InvalidWeight(f"alpha must lie in (0, 1], got {alpha}")
    if grid.shape[0] < max(3, order + 2):
        raise GridTooCoarse(
            f"need at least {max(3, order + 2)} points for order={order}"
        )
    return float(_holder_quotient(field_vals, grid, alpha, order))


def _holder_quotient(vals, x, alpha, order):
    """discrete_holder_seminorm without its checks, along the last axis of
    vals and of x, which broadcast against each other, and maximized over
    it: each row gets the 1-D arithmetic and its own maximum."""
    for _ in range(order):
        vals = np.diff(vals) / np.diff(x)
        x = 0.5 * (x[..., :-1] + x[..., 1:])
    return np.max(np.abs(np.diff(vals)) / np.diff(x) ** alpha, axis=-1)
