"""Assembly of approximate solutions and decay scans of their deficit.

An approximate solution closes each cusp of the filling data with a glued
profile of size R^i = L_i / beta_1; a cusp's metric is that profile alone,
since its torus gram (lattice.quotient_generators) and the closing period
beta_1 (DehnFillingData.beta1) enter no deficit.  Its Einstein deficit is
supported in the transition annuli and is measured in the weighted norm
on those annuli alone, for all cusps (or all sizes of a scan) in one pass
over an (S, G) stack of log grids; scanning the norm against the
normalized filling size exhibits the O(size**(1-n)) decay law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidWeight, OutOfDomain, ScanMissing, TooFewSamples
from .lattice import DehnFillingData, FlatLattice, GeodesicClass, filling_data
from .norms import WeightSpec, _check_field, _cusp_weight, _holder_quotient
from .numutil import _is_finite_real, fit_loglog, loggrid
from .profiles import (FillingMetric, _stack_deficit, closing_parameters,
                       glued_metric, make_glued_profile)

__all__ = [
    "ApproximateSolution",
    "DecayScanResult",
    "build_approximate_solution",
    "filling_from_lengths",
    "deficit_norm",
    "decay_scan",
]


@dataclass(frozen=True)
class ApproximateSolution:
    """One glued metric per cusp, tagged with the filling it closes."""

    filling: DehnFillingData
    metrics: tuple

    def __post_init__(self):
        if (len(self.metrics) != len(self.filling.radii)
                or any(m.n != self.n for m in self.metrics)):
            raise OutOfDomain(
                f"a filling of {len(self.filling.radii)} cusps at "
                f"n={self.n} needs one metric of that n per cusp, got n="
                f"{[m.n for m in self.metrics]}")

    @property
    def n(self):
        return self.filling.n

    @property
    def size(self):
        return self.filling.size


def build_approximate_solution(filling):
    """Close every cusp of the filling with a glued metric at its R^i (see
    the module docstring for its period and torus gram).  Raises
    RadiusTooSmall when any R^i is at or below r_plus + 3."""
    return ApproximateSolution(filling=filling, metrics=tuple(
        glued_metric(R, filling.n) for R in filling.radii))


def filling_from_lengths(lengths, n):
    """Synthetic filling data from plain normalized lengths.

    Builds, for each length L, a rank n-1 rectangular lattice diag(L, 1,
    ..., 1) with the filling class along the first axis.  Useful for
    scans and command-line runs where only the sizes matter.
    """
    lengths = [float(L) for L in np.atleast_1d(lengths)]
    if not lengths:
        raise TooFewSamples("need at least one length")
    k = n - 1
    cusps = []
    for L in lengths:
        basis = np.eye(k)
        basis[0, 0] = L
        cusps.append((FlatLattice(basis), GeodesicClass((1,) + (0,) * (k - 1))))
    return filling_data(cusps, n)


def _deficit_norms(profiles, w, grid_size, include_seminorms):
    """The deficit norm of the metric of each profile, row s of one (S, G)
    stack at cusp s of w: see deficit_norm."""
    if not (isinstance(grid_size, (int, np.integer))
            and not isinstance(grid_size, bool) and grid_size >= 256):
        raise TooFewSamples(f"grid_size must be an integer >= 256, got {grid_size}")
    lo, hi = np.array([p.domain for p in profiles], dtype=float).T
    # the deficit is exactly zero outside the transition annulus, whose
    # log-width is fixed: a grid 2 % past its edges sees the same shape at
    # every R (no transition: the whole domain)
    tlo, thi = np.array([p.transition or (0.0, np.inf) for p in profiles]).T
    grid = loggrid(np.maximum(tlo / 1.02, lo * (1.0 + 1e-9)),
                   np.minimum(thi * 1.02, hi * (1.0 - 1e-9)), grid_size)
    # the deficit diagonal has two distinct entries, rad (11 = 22) and tor
    weighted = _cusp_weight(w, grid) * np.asarray(_stack_deficit(profiles, grid))
    norms = np.max(np.abs(weighted), axis=(0, 2))
    if include_seminorms:
        # first and second derivative proxies of the weighted deficit in
        # the log-radial coordinate (the coordinate in which the filling
        # geometry has unit scale), as adjacent divided-difference sups
        weighted, x = _check_field(weighted, np.log(grid))
        for order in (0, 1):
            norms += np.max(_holder_quotient(weighted, x, 1.0, order), axis=0)
    return norms


def deficit_norm(sol, w=None, grid_size=512, include_seminorms=True):
    """Weighted norm of the Einstein deficit, maximized over cusps.

    sol is an ApproximateSolution, a stack of its cusps, or a single
    FillingMetric, a stack of one.  Per cusp, on row s of one (S, grid_size)
    pass: sup of decay_weight * phi_c**-1 * |deficit| plus (unless
    include_seminorms is False) first and second divided-difference
    seminorms of the weighted deficit in log r, on a log grid over the
    transition window, where the deficit lives (the whole domain for a
    profile without a transition).
    """
    metrics = (sol,) if isinstance(sol, FillingMetric) else sol.metrics
    if w is None:
        w = WeightSpec(n=sol.n, R=tuple(m.profile.domain[1] for m in metrics))
    if w.num_cusps != len(metrics):
        raise InvalidWeight(
            f"weight covers {w.num_cusps} cusps, solution has {len(metrics)}"
        )
    if any(m.n != w.n for m in metrics):
        raise InvalidWeight(f"weight is built for n={w.n}, the solution's "
                            f"metrics for n={[m.n for m in metrics]}")
    return float(np.max(_deficit_norms([m.profile for m in metrics], w,
                                       grid_size, include_seminorms)))


@dataclass(frozen=True)
class DecayScanResult:
    """(size, norm) samples with the fitted log-log slope."""

    n: int
    sizes: tuple
    norms: tuple
    slope: float
    intercept: float
    residual: float

    @property
    def expected_slope(self):
        return float(1 - self.n)


def decay_scan(n, L_list, w=None, grid_size=512):
    """Deficit norm against filling size, with a least-squares slope.

    Each size L is one glued metric at filling_data's R = L / beta_1, and
    all sizes are one stack of deficit_norm's kernel, one row per size.  w
    is the weight's decay rate delta, or None for the default rate; R and
    r_c track each size.  Build errors for unbuildable sizes propagate.
    """
    sizes = tuple(L_list)
    if len(sizes) < 5:
        raise TooFewSamples(f"need at least 5 sizes, got {len(sizes)}")
    for L in sizes:
        if not (_is_finite_real(L) and L > 0):
            raise ScanMissing(f"sizes must be finite and positive, got {L}")
    sizes = tuple(map(float, sizes))
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ScanMissing("sizes must be strictly increasing")
    _, beta1 = closing_parameters(1.0, n)
    radii = [L / beta1 for L in sizes]
    spec = WeightSpec(n=n, R=radii, delta=w)
    profiles = [make_glued_profile(R, n) for R in radii]
    norms = _deficit_norms(profiles, spec, grid_size, True)
    slope, intercept, residual = fit_loglog(np.asarray(sizes), norms)
    return DecayScanResult(n=int(n), sizes=sizes, norms=tuple(norms.tolist()),
                           slope=slope, intercept=intercept, residual=residual)
