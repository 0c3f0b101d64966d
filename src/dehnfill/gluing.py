"""Assembly of approximate solutions and decay scans of their deficit.

An approximate solution closes each cusp of the filling data with a glued
profile of size R^i = L_i / beta_1.  Its Einstein deficit is supported in
the transition annuli and is measured in the weighted norm; scanning the
norm against the normalized filling size exhibits the O(size**(1-n))
decay law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import cutoff_deficit_diag, ricci_and_deficit
from .errors import InvalidWeight, ScanMissing, TooFewSamples
from .lattice import DehnFillingData, FlatLattice, GeodesicClass, filling_data
from .norms import (WeightSpec, _check_field, _holder_quotient, decay_weight,
                    phi_c)
from .numutil import fit_loglog, loggrid
from .profiles import FillingMetric, make_glued_profile

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

    n: int
    filling: DehnFillingData
    metrics: tuple
    label: str

    @property
    def size(self):
        return self.filling.size


def build_approximate_solution(filling, n=None):
    """Close every cusp of the filling with a glued profile at R^i.

    Each cusp keeps its own transverse torus geometry (the quotient gram
    from the filling data when present, identity otherwise) and the
    common closing period beta_1.  Raises RadiusTooSmall when any R^i is
    at or below r_plus + 3.
    """
    if n is None:
        n = filling.n
    if n != filling.n:
        raise InvalidWeight(f"dimension mismatch: {n} vs filling {filling.n}")
    metrics = []
    for i, R in enumerate(filling.radii):
        profile = make_glued_profile(R, n)
        gram = None
        cusp = filling.cusps[i]
        if isinstance(cusp, tuple) and len(cusp) == 2:
            from .lattice import quotient_generators

            lat, sig = cusp
            q = quotient_generators(lat, sig)
            gram = q["torus_gram"]
        metrics.append(
            FillingMetric(n=n, profile=profile, beta=filling.beta1,
                          torus_gram=gram)
        )
    label = f"|sigma|={filling.size:.6g}"
    return ApproximateSolution(n=int(n), filling=filling,
                               metrics=tuple(metrics), label=label)


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


def _cusp_deficit_norm(metric, w, cusp_index, grid_size, include_seminorms):
    profile = metric.profile
    lo, hi = profile.domain
    grid = loggrid(lo * (1.0 + 1e-9), hi * (1.0 - 1e-9), grid_size)
    if profile.transition is not None:
        # the deficit lives in the transition annulus, whose log-width is
        # fixed while the domain's grows with R; refine it with a fixed
        # point count so the norm resolves the same shape at every size
        tlo, thi = profile.transition
        wlo = max(tlo / 1.02, lo * (1.0 + 1e-9))
        whi = min(thi * 1.02, hi * (1.0 - 1e-9))
        window = loggrid(wlo, whi, grid_size)
        grid = np.unique(np.concatenate([grid, window]))
    if profile.has_exact_deficit:
        # exact-support form: identically zero outside the transition, so
        # the large core weight multiplies a true zero instead of rounding
        # residue from the generic curvature path
        deficit = cutoff_deficit_diag(metric, grid)
    else:
        deficit = ricci_and_deficit(metric, grid).deficit_diag
    R = w.R[cusp_index]
    wt = decay_weight(w, grid / R) / phi_c(w, cusp_index, grid)
    weighted = wt[:, None] * deficit
    total = float(np.max(np.abs(weighted)))
    if include_seminorms:
        # first and second derivative proxies of the weighted deficit in
        # the log-radial coordinate (the coordinate in which the filling
        # geometry has unit scale), as adjacent divided-difference sups,
        # taken over all components at once after one check of the field
        weighted, x = _check_field(weighted, np.log(grid))
        for order in (0, 1):
            total += _holder_quotient(weighted, x, 1.0, order)
    return total


def deficit_norm(sol, w=None, grid_size=512, include_seminorms=True):
    """Weighted norm of the Einstein deficit, maximized over cusps.

    Per cusp: sup over a log grid of decay_weight * phi_c**-1 * |deficit|
    plus (unless include_seminorms is False) first and second
    finite-difference seminorms of the weighted deficit, taken as
    divided-difference derivative sups in log r.  Deterministic for a
    fixed grid_size.
    """
    if grid_size < 256:
        raise TooFewSamples(f"grid_size must be >= 256, got {grid_size}")
    if isinstance(sol, FillingMetric):
        sol = ApproximateSolution(
            n=sol.n,
            filling=filling_from_lengths([sol.profile.domain[1]], sol.n),
            metrics=(sol,), label="single metric",
        )
    if w is None:
        w = WeightSpec(n=sol.n, R=tuple(m.profile.domain[1] for m in sol.metrics))
    if w.num_cusps != len(sol.metrics):
        raise InvalidWeight(
            f"weight covers {w.num_cusps} cusps, solution has {len(sol.metrics)}"
        )
    return max(
        _cusp_deficit_norm(m, w, i, grid_size, include_seminorms)
        for i, m in enumerate(sol.metrics)
    )


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

    def rows(self):
        return list(zip(self.sizes, self.norms))


def decay_scan(n, L_list, w=None, grid_size=512):
    """Deficit norm against filling size, with a least-squares slope.

    w may be a WeightSpec template (only its delta is reused, since R and
    r_c must track each size), a numeric delta, or None for the default
    rate.  Build errors for unbuildable sizes propagate.
    """
    sizes = tuple(float(L) for L in L_list)
    if len(sizes) < 5:
        raise TooFewSamples(f"need at least 5 sizes, got {len(sizes)}")
    for L in sizes:
        if not (math.isfinite(L) and L > 0):
            raise ScanMissing(f"sizes must be finite and positive, got {L}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ScanMissing("sizes must be strictly increasing")
    delta = None
    if isinstance(w, WeightSpec):
        delta = w.delta
    elif w is not None:
        delta = float(w)
    norms = []
    for L in sizes:
        filling = filling_from_lengths([L], n)
        sol = build_approximate_solution(filling)
        spec = WeightSpec(n=n, R=filling.radii, delta=delta)
        norms.append(deficit_norm(sol, spec, grid_size=grid_size))
    slope, intercept, residual = fit_loglog(np.asarray(sizes), np.asarray(norms))
    return DecayScanResult(n=int(n), sizes=sizes, norms=tuple(norms),
                           slope=slope, intercept=intercept, residual=residual)
