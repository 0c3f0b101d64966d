"""Curvature of the cohomogeneity-one metrics, in the diagonalizing frame.

For g = V^{-1} dr^2 + V dtheta^2 + r^2 g_T the orthonormal frame

    e_1 = sqrt(V) d_r,  e_2 = V^{-1/2} d_theta,  e_j = r^{-1} u_j

(u_j orthonormal for the flat torus) diagonalizes the curvature operator,
with the three distinct sectional curvatures

    K_12 = -V''/2,   K_1j = K_2j = -V'/(2r),   K_ij = -V/r^2  (i, j > 2).

Diagonal Ricci entries are the row sums of the sectional matrix,
ric_aa = sum_l K_al, valid precisely because the frame diagonalizes the
curvature operator; every formula here is cross-checked against the
finite-difference oracle below, which knows nothing about these
reductions and differentiates raw metric coefficient samples instead.

The Einstein deficit is tau = ric + (n-1) g, reported through its frame
diagonal. Black-hole profiles have tau identically zero and scalar
curvature -n(n-1).
"""

from dataclasses import dataclass

import numpy as np

from .errors import EigenSolveFailure, OutOfDomain, StepTooLarge
from .numutil import csv_lines
from .profiles import _check_in_domain, eval_profile

__all__ = [
    "CurvatureReport",
    "sectional_curvatures",
    "ricci_and_deficit",
    "cutoff_deficit_diag",
    "sectional_matrix",
    "fd_curvature_oracle",
    "curvature_action",
    "decompose_quadratic",
    "trace_free_top_eigenvalue",
    "spectral_bound",
]


def _interior(metric, r):
    # The frame formulas stay regular at the core r_plus (V = 0 there but
    # nothing divides by V), so the closed domain is allowed with the same
    # ulp slack as profile evaluation.
    return np.atleast_1d(_check_in_domain(metric.profile, r))


def sectional_curvatures(metric, r):
    """The three distinct sectional curvatures (K12, K1perp, Kperp) at r."""
    rr = _interior(metric, r)
    V = eval_profile(metric.profile, rr, 0)
    V1 = eval_profile(metric.profile, rr, 1)
    V2 = eval_profile(metric.profile, rr, 2)
    K12 = -0.5 * V2
    K1perp = -V1 / (2.0 * rr)
    Kperp = -V / rr**2
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(K12[0]), float(K1perp[0]), float(Kperp[0])
    return K12, K1perp, Kperp


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """Frame curvature data along a radial grid.

    ric_diag and deficit_diag have shape (npts, n); scalar is (npts,).
    """

    n: int
    r: np.ndarray
    K12: np.ndarray
    K1perp: np.ndarray
    Kperp: np.ndarray
    ric_diag: np.ndarray
    scalar: np.ndarray
    deficit_diag: np.ndarray

    CSV_HEADER = "r,K12,K1perp,Kperp,ric11,ricperp,scalar,deficit_sup"

    def csv_rows(self):
        """The CSV_HEADER rows as a list of %.17g lines (numutil.csv_lines),
        one per grid point; deficit_sup is that point's largest |deficit|."""
        def_sup = np.max(np.abs(self.deficit_diag), axis=1)
        return csv_lines(self.r, self.K12, self.K1perp, self.Kperp,
                         self.ric_diag[:, 0], self.ric_diag[:, -1],
                         self.scalar, def_sup)

    @property
    def deficit_sup(self):
        return float(np.max(np.abs(self.deficit_diag)))


def ricci_and_deficit(metric, r):
    """Diagonal Ricci, scalar curvature and Einstein deficit along r.

    ric_11 = ric_22 = -V''/2 - (n-2) V'/(2r),
    ric_jj = -V'/r - (n-3) V/r^2 for the torus directions,
    deficit = ric_diag + (n-1).
    """
    n = metric.n
    rr = _interior(metric, r)
    K12, K1perp, Kperp = sectional_curvatures(metric, rr)
    K12 = np.atleast_1d(K12)
    K1perp = np.atleast_1d(K1perp)
    Kperp = np.atleast_1d(Kperp)
    ric_rad = K12 + (n - 2) * K1perp                 # = -V''/2 - (n-2)V'/(2r)
    ric_tor = 2.0 * K1perp + (n - 3) * Kperp          # = -V'/r - (n-3)V/r^2
    ric = np.empty((rr.size, n))
    ric[:, 0] = ric_rad
    ric[:, 1] = ric_rad
    ric[:, 2:] = ric_tor[:, None]
    scalar = 2.0 * ric_rad + (n - 2) * ric_tor
    deficit = ric + (n - 1.0)
    return CurvatureReport(
        n=n, r=rr, K12=K12, K1perp=K1perp, Kperp=Kperp,
        ric_diag=ric, scalar=scalar, deficit_diag=deficit,
    )


def cutoff_deficit_diag(metric, r):
    """Einstein deficit of a cutoff profile, in exact-support form.

    For V = r^2 - 2 chi(r) r^{3-n} the chi r^{1-n} terms and the constant
    terms of ric + (n-1)g cancel symbolically, leaving

        deficit_11 = deficit_22 = chi'' r^{3-n} + (4-n) chi' r^{2-n}
        deficit_jj = 2 chi' r^{2-n}  (torus directions).

    The generic curvature path computes the same numbers through the
    cancellation in floating point, leaving O(eps) residue everywhere;
    this form is identically zero wherever chi' = chi'' = 0, which is
    what weighted norms with large core weights need. Supports the glued
    profile (chi from its cutoff) and the black hole (chi constant, so the
    deficit is the zero array); other profiles raise OutOfDomain.
    """
    return metric.profile.exact_deficit(_interior(metric, r), metric.n)


def sectional_matrix(n, K12, K1perp, Kperp):
    """Symmetric matrix K with K[a,b] the sectional curvature of the
    (e_a, e_b) plane and zero diagonal."""
    K = np.full((n, n), Kperp, dtype=float)
    K[0, 1] = K[1, 0] = K12
    K[0, 2:] = K[2:, 0] = K1perp
    K[1, 2:] = K[2:, 1] = K1perp
    np.fill_diagonal(K, 0.0)
    return K


# ----------------------------------------------------------------------
# Finite-difference oracle
# ----------------------------------------------------------------------

# 4th-order central first-derivative weights on offsets -2..2, to be
# divided by the step.
_D1_W5 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def fd_curvature_oracle(metric, r, h_fd=None):
    """Frame curvature components from raw metric coefficient samples.

    Independent check of the closed forms: builds the coordinate metric
    diag(1/V, V, r^2, ..., r^2) from profile *values only* (never the
    analytic V' or V''), forms Christoffel symbols and the full curvature
    tensor with nested 4th-order finite differences, and converts to the
    orthonormal frame. A non-identity torus Gram matrix is absorbed
    beforehand by the exact linear change of torus coordinates that makes
    the flat factor Euclidean, which changes no curvature component.

    Returns a dict with the full frame tensor R[a,b,c,d] of shape
    (npts, n, n, n, n), the sectional matrix K of shape (npts, n, n),
    ric_diag, scalar and deficit_diag. The sign is normalized so that
    hyperbolic space reports K = -1.
    """
    n = metric.n
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    lo, hi = metric.profile.domain
    h = np.maximum(1e-4 * rr, 1e-6) if h_fd is None else np.full_like(rr, h_fd)
    if np.any(rr - 4 * h <= lo) or np.any(rr + 4 * h >= hi):
        raise StepTooLarge(
            "finite-difference superstencil leaves the profile domain; "
            "move r inward or shrink h_fd"
        )

    npts = rr.size
    offsets = np.arange(-4, 5)
    # metric coefficient samples on the 9-point superstencil
    rk = rr[None, :] + offsets[:, None] * h[None, :]          # (9, npts)
    Vk = eval_profile(metric.profile, rk.ravel(), 0).reshape(9, npts)
    g = np.empty((9, npts, n))
    g[:, :, 0] = 1.0 / Vk
    g[:, :, 1] = Vk
    g[:, :, 2:] = (rk**2)[:, :, None]

    # dg/dr at the 5 inner stencil points, 4th order from the 9 samples
    dg = np.empty((5, npts, n))
    for j in range(5):
        dg[j] = np.einsum("k,kpa->pa", _D1_W5, g[j : j + 5]) / h[:, None]

    g5 = g[2:7]
    # Christoffels of a diagonal metric depending on the first coordinate:
    # Gamma^0_{aa} = -dg_aa / (2 g_00) (a != 0), Gamma^0_{00} = dg_00/(2 g_00),
    # Gamma^a_{0a} = Gamma^a_{a0} = dg_aa / (2 g_aa).
    Gamma = np.zeros((5, npts, n, n, n))
    inv_g00 = 1.0 / g5[:, :, :1]
    a = np.arange(n)
    Gamma[:, :, 0, a, a] = -dg * 0.5 * inv_g00
    Gamma[:, :, a, 0, a] = Gamma[:, :, a, a, 0] = dg * 0.5 / g5
    Gamma[:, :, 0, 0, 0] = dg[:, :, 0] * 0.5 * inv_g00[:, :, 0]

    # dGamma/dr at the center, 4th order from the 5 Christoffel stacks
    dGamma = np.einsum("k,kpabc->pabc", _D1_W5, Gamma) / h[:, None, None, None]
    G0 = Gamma[2]

    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
    #             + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb},
    # with d_c nonzero only for c = 0.
    Rud = np.zeros((npts, n, n, n, n))
    Rud[:, :, :, 0, :] += np.transpose(dGamma, (0, 1, 3, 2))
    Rud[:, :, :, :, 0] -= np.transpose(dGamma, (0, 1, 3, 2))
    # both products from one batched matmul: GG[p,a,c,d,b] = G^a_ce G^e_db
    # (a diagonal metric leaves at most one nonzero term per sum over e, so
    # no BLAS summation order or FMA can move a bit)
    GG = (G0.reshape(npts, n * n, n) @ G0.reshape(npts, n, n * n)).reshape(
        (npts,) + (n,) * 4)
    Rud += GG.transpose(0, 1, 4, 2, 3)
    Rud -= GG.transpose(0, 1, 4, 3, 2)

    # lower the first index, then scale each index to the orthonormal frame
    scale = 1.0 / np.sqrt(g5[2])
    Rframe = g5[2][:, :, None, None, None] * Rud
    Rframe *= scale[:, :, None, None, None]
    Rframe *= scale[:, None, :, None, None]
    Rframe *= scale[:, None, None, :, None]
    Rframe *= scale[:, None, None, None, :]

    # Sign convention: fix so hyperbolic space gives K_ab = -1. With the
    # index layout above, R_frame[a,b,a,b] is the sectional curvature of
    # span(e_a, e_b) directly (the cusp profile pins the sign).
    K = np.einsum("pabab->pab", Rframe)
    K[:, a, a] = 0.0

    ric = np.einsum("pab->pa", K)
    scalar = np.einsum("pa->p", ric)
    deficit = ric + (n - 1.0)
    return {
        "r": rr,
        "R_frame": Rframe,
        "K": K,
        "ric_diag": ric,
        "scalar": scalar,
        "deficit_diag": deficit,
    }


# ----------------------------------------------------------------------
# Pointwise curvature algebra on symmetric 2-tensors
# ----------------------------------------------------------------------


def curvature_action(K, h):
    """Action of the curvature operator on a symmetric 2-tensor, in the
    diagonalizing frame.

    For diagonal h, (Rh)_aa = sum_l K_al h_ll; off-diagonal entries pick
    up (Rh)_ab = -K_ab h_ab. On a constant-curvature point (all K = -1)
    this reduces to Rh = -(tr h) g + h.
    """
    K = np.asarray(K, dtype=float)
    h = np.asarray(h, dtype=float)
    if not np.allclose(h, h.T, atol=1e-12 * max(1.0, np.abs(h).max())):
        raise OutOfDomain("curvature action expects a symmetric tensor")
    Rh = -K * h
    np.fill_diagonal(Rh, K @ np.diag(h).copy())
    return Rh


def decompose_quadratic(K, ric, h):
    """Split (Rh, h) into trace-free, mixed and pure-trace parts.

    With t = tr h / n and h0 = h - t g:

        (Rh, h) = (Rh0, h0) + mu + trace_term,
        mu = 2 t sum_a (ric_aa + (n-1)) h0_aa,
        trace_term = t^2 scalar - 2 t (n-1) tr h0.

    The three parts sum to (Rh, h) exactly; the tr h0 correction inside
    trace_term (zero in exact arithmetic) keeps the identity at rounding
    level in floating point. On an Einstein background mu vanishes, and on
    an approximate one it is controlled by the Einstein deficit.
    """
    K = np.asarray(K, dtype=float)
    ric = np.asarray(ric, dtype=float)
    h = np.asarray(h, dtype=float)
    n = K.shape[0]
    t = np.trace(h) / n
    h0 = h - t * np.eye(n)
    Rh0 = curvature_action(K, h0)
    Rh0_h0 = float(np.sum(Rh0 * h0))
    deficit = ric + (n - 1.0)
    mu = float(2.0 * t * np.sum(deficit * np.diag(h0)))
    scalar = float(np.sum(ric))
    trace_term = float(t * t * scalar - 2.0 * t * (n - 1.0) * np.trace(h0))
    return Rh0_h0, mu, trace_term


def trace_free_top_eigenvalue(K, ric=None):
    """Largest eigenvalue of the curvature action on trace-free symmetric
    tensors at a point.

    The action block-diagonalizes: diagonal tensors transform by the
    sectional matrix K (restricted to the sum-zero subspace), and each
    off-diagonal pair (a, b) is an eigenvector with eigenvalue -K_ab.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    # orthonormal basis of the sum-zero subspace
    A = np.eye(n) - np.full((n, n), 1.0 / n)
    q, _ = np.linalg.qr(A)
    Q = q[:, : n - 1]
    try:
        diag_eigs = np.linalg.eigvalsh(Q.T @ K @ Q)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveFailure(str(exc)) from exc
    off = -K[np.triu_indices(n, k=1)]
    return float(max(diag_eigs.max(), off.max()))


def spectral_bound(K, ric):
    """(n-2) K_max - ric_min, the comparison value for the top trace-free
    eigenvalue. K_max runs over the frame sectional curvatures (which are
    the extreme plane curvatures for a diagonalized curvature operator)."""
    K = np.asarray(K, dtype=float)
    ric = np.asarray(ric, dtype=float)
    n = K.shape[0]
    K_max = K[np.triu_indices(n, k=1)].max()
    return float((n - 2) * K_max - ric.min())
