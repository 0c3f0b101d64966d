"""Flat-torus lattices, primitive geodesics and the solid-torus quotient.

A cusp cross-section is T_0 = R^{n-1} / Gamma with Gamma a lattice of
translations. A Dehn filling is determined by a primitive class sigma in
Gamma (gcd of its coefficients 1, the formalization of "simple closed
geodesic"): the filled core is a solid torus whose meridian disk has
boundary length L(sigma), and the remaining group Gamma_0 = Gamma/<sigma>
acts on S^1 x R^{n-2} by a rotation plus a translation per generator.

The filling radius is R = L(sigma)/beta_1, where beta_1 is the smooth
closing period of the m = 1 black hole, and the filling size |sigma| is
the minimum of the geodesic lengths over the cusps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPrimitive, OutOfDomain
from .numutil import _is_finite_real
from .profiles import closing_parameters

__all__ = [
    "FlatLattice",
    "GeodesicClass",
    "DehnFillingData",
    "geodesic_length",
    "extend_to_basis",
    "quotient_generators",
    "filling_data",
]


@dataclass(frozen=True, eq=False)
class FlatLattice:
    """Lattice in R^k given by the columns of a nonsingular basis matrix."""

    basis: np.ndarray

    def __post_init__(self):
        try:
            basis = np.asarray(self.basis, dtype=float)
        except OverflowError:
            raise OutOfDomain("lattice basis holds an integer too large "
                              "for a float") from None
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise OutOfDomain(f"lattice basis must be square, got {basis.shape}")
        if not np.all(np.isfinite(basis)):
            raise OutOfDomain("lattice basis contains nan or inf")
        sign, logdet = np.linalg.slogdet(basis)  # det itself can overflow
        if sign == 0 or logdet <= math.log(1e-12):
            raise OutOfDomain("lattice basis is singular")
        object.__setattr__(self, "basis", basis)

    @property
    def rank(self):
        return self.basis.shape[0]


@dataclass(frozen=True)
class GeodesicClass:
    """Integer coefficient vector of a closed geodesic in the lattice basis."""

    coeffs: tuple

    def __post_init__(self):
        # a whole float such as 2.0 passes; a fraction, nan, inf, a bool, a
        # string or an int too large for a float is rejected, not truncated
        if not all(_is_finite_real(c) and float(c).is_integer()
                   for c in self.coeffs):
            raise OutOfDomain(
                f"geodesic coefficients must be integers within float range, got "
                f"{self.coeffs}")
        coeffs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    def check_primitive(self, strict=True):
        """Reject imprimitive classes.

        strict mode demands gcd 1 (needed wherever a unimodular basis
        completion exists, which is impossible otherwise).  Non-strict
        mode, used by the length computations, additionally admits
        multiples of a coordinate axis: those carry an unambiguous
        length even though they wrap a shorter geodesic.
        """
        nonzero = [c for c in self.coeffs if c != 0]
        if not nonzero:
            raise NotPrimitive("zero coefficient vector")
        g = 0
        for c in nonzero:
            g = math.gcd(g, c)
        if g == 1:
            return
        if not strict and len(nonzero) == 1:
            return
        raise NotPrimitive(
            f"coefficients {self.coeffs} have gcd {g}, not a simple "
            "closed geodesic"
        )


def geodesic_length(lat, sigma):
    """Euclidean length of the geodesic class: |basis @ coeffs|."""
    sigma.check_primitive(strict=False)
    if len(sigma.coeffs) != lat.rank:
        raise OutOfDomain("coefficient vector length does not match lattice rank")
    with np.errstate(over="ignore", invalid="ignore"):
        length = float(np.linalg.norm(
            lat.basis @ np.array(sigma.coeffs, dtype=float)))
    if not math.isfinite(length):
        raise OutOfDomain(f"geodesic length of {sigma.coeffs} overflows")
    return length


def extend_to_basis(lat, sigma):
    """Unimodular integer matrix whose first column is sigma's coefficients.

    Runs the vector Euclid algorithm on the coefficients, reducing sigma to
    e_1 by elementary integer operations while accumulating their inverses
    as column operations on the identity; the result M has det +-1 and
    M e_1 = sigma, so {sigma, gamma_1, ..., gamma_{k-1}} generates Gamma.
    """
    sigma.check_primitive()
    k = lat.rank
    if len(sigma.coeffs) != k:
        raise OutOfDomain("coefficient vector length does not match lattice rank")
    v = [int(c) for c in sigma.coeffs]
    # W tracks the inverse of the accumulated row operations, as exact ints.
    W = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def col_add(dst, src, q):
        # row op v[dst] -= q v[src] has inverse column op W[:,src] += q W[:,dst]
        for row in W:
            row[src] += q * row[dst]

    def col_swap(i, j):
        for row in W:
            row[i], row[j] = row[j], row[i]

    def col_negate(i):
        for row in W:
            row[i] = -row[i]

    # reduce v to +-e_i by repeated remaindering against the smallest entry
    while True:
        nz = [i for i in range(k) if v[i] != 0]
        if len(nz) == 1:
            break
        piv = min(nz, key=lambda i: (abs(v[i]), i))
        for i in nz:
            if i != piv:
                q = v[i] // v[piv]
                v[i] -= q * v[piv]
                col_add(i, piv, q)
    hot = next(i for i in range(k) if v[i] != 0)
    if hot != 0:
        v[0], v[hot] = v[hot], v[0]
        col_swap(0, hot)
    if v[0] < 0:
        v[0] = -v[0]
        col_negate(0)
    assert v[0] == 1 and all(c == 0 for c in v[1:])
    return np.array(W, dtype=int)


def quotient_generators(lat, sigma):
    """Action data of Gamma_0 = Gamma/<sigma> on S^1 x R^{k-1}.

    Completes sigma to a basis, splits each remaining generator w into its
    component along sigma (a rotation of the circle of circumference
    L(sigma), returned as an angle) and its orthogonal projection (a
    translation in R^{k-1}, expressed in an orthonormal basis of the
    orthogonal complement). Every translation part is nonzero, otherwise
    the generator would be parallel to sigma and the completion would not
    be a basis.

    Returns a dict with keys 'generators' (list of (angle, translation)),
    'length', 'covolume' (of the projected translation lattice), and
    'torus_gram' (Gram matrix of the projected generators). The identity
    L(sigma) * covolume = |det basis| always holds.
    """
    M = extend_to_basis(lat, sigma)
    B = lat.basis
    k = lat.rank
    vecs = B @ M.astype(float)                   # columns: sigma, gamma_1, ...
    v_sigma = vecs[:, 0]
    L = float(np.linalg.norm(v_sigma))
    sig_hat = v_sigma / L
    # orthonormal basis of sigma-perp from the full-space QR of [sigma | I]
    q, _ = np.linalg.qr(np.column_stack([sig_hat, np.eye(k)]))
    perp = q[:, 1:k]

    generators = []
    trans = np.empty((k - 1, k - 1))
    for i in range(1, k):
        w = vecs[:, i]
        along = float(sig_hat @ w)
        angle = 2.0 * math.pi * along / L
        t = perp.T @ w
        if np.linalg.norm(t) <= 1e-12 * max(1.0, np.linalg.norm(w)):
            raise OutOfDomain("quotient generator parallel to sigma")
        trans[:, i - 1] = t
        generators.append((angle, t))
    covol = float(abs(np.linalg.det(trans))) if k > 1 else 1.0
    return {
        "generators": generators,
        "length": L,
        "covolume": covol,
        "torus_gram": trans.T @ trans,
    }


@dataclass(frozen=True, eq=False)
class DehnFillingData:
    """Per-cusp filling data: lengths, radii R^i = L_i / beta_1, the filling
    size |sigma| = min_i L_i, and the 2 pi threshold flag."""

    n: int
    lengths: tuple
    radii: tuple
    size: float
    two_pi_ok: bool
    beta1: float


def filling_data(cusps, n):
    """Assemble DehnFillingData from (lattice, geodesic) pairs.

    beta_1 = 4 pi / ((n-1) 2^{1/(n-1)}) is the closing period of the m = 1
    black hole; each cusp gets filling radius R^i = L(sigma^i)/beta_1.
    """
    if not cusps:
        raise OutOfDomain("need at least one cusp")
    _, beta1 = closing_parameters(1.0, n)
    lengths = tuple(geodesic_length(lat, sig) for lat, sig in cusps)
    radii = tuple(L / beta1 for L in lengths)
    size = min(lengths)
    return DehnFillingData(
        n=int(n), lengths=lengths, radii=radii,
        size=size, two_pi_ok=bool(size > 2.0 * math.pi), beta1=beta1,
    )
