import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehnfill.errors import NotPrimitive, OutOfDomain
from dehnfill.lattice import (
    DehnFillingData,
    FlatLattice,
    GeodesicClass,
    extend_to_basis,
    filling_data,
    geodesic_length,
    quotient_generators,
)


def _hnf(A):
    """Column-style Hermite normal form of a nonsingular integer matrix.

    Exact integer arithmetic throughout; the result is lower triangular
    with positive diagonal and entries left of the diagonal reduced into
    [0, pivot). Two integer matrices generate the same lattice iff their
    forms agree, which makes this an independent oracle for basis
    completion.
    """
    A = [[int(x) for x in row] for row in np.asarray(A).tolist()]
    k = len(A)
    for i in range(k):
        while True:
            nz = [j for j in range(i, k) if A[i][j] != 0]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda j: abs(A[i][j]))
            for j in nz:
                if j == piv:
                    continue
                q = A[i][j] // A[i][piv]
                for row in A:
                    row[j] -= q * row[piv]
        hot = next(j for j in range(i, k) if A[i][j] != 0)
        if hot != i:
            for row in A:
                row[i], row[hot] = row[hot], row[i]
        if A[i][i] < 0:
            for row in A:
                row[i] = -row[i]
        for j in range(i):
            q = A[i][j] // A[i][i]
            for row in A:
                row[j] -= q * row[i]
    return A


def _int_det(A):
    """Determinant of an integer matrix by fraction-free expansion."""
    A = [[int(x) for x in row] for row in np.asarray(A).tolist()]
    k = len(A)
    if k == 1:
        return A[0][0]
    return sum(
        (-1) ** j * A[0][j] * _int_det(
            [[A[r][c] for c in range(k) if c != j] for r in range(1, k)]
        )
        for j in range(k)
    )


def test_length_identity_axis():
    lat = FlatLattice(np.eye(3))
    assert geodesic_length(lat, GeodesicClass((10, 0, 0))) == 10.0


def test_length_diag_basis():
    lat = FlatLattice(np.diag([2.0, 3.0]))
    L = geodesic_length(lat, GeodesicClass((1, 1)))
    assert L == pytest.approx(math.sqrt(13.0), abs=1e-12)


def test_length_rejects_imprimitive():
    lat = FlatLattice(np.eye(3))
    with pytest.raises(NotPrimitive):
        geodesic_length(lat, GeodesicClass((2, 4, 6)))
    with pytest.raises(NotPrimitive):
        geodesic_length(lat, GeodesicClass((0, 0, 0)))


def test_length_axis_multiple_allowed():
    # a multiple of one generator wraps a shorter geodesic but still has a
    # well-defined length; only the mixed imprimitive classes are rejected
    lat = FlatLattice(np.eye(2))
    assert geodesic_length(lat, GeodesicClass((0, 7))) == 7.0


def test_extend_first_axis_is_identity():
    lat = FlatLattice(np.eye(4))
    M = extend_to_basis(lat, GeodesicClass((1, 0, 0, 0)))
    assert np.array_equal(M, np.eye(4, dtype=int))


def test_extend_rank2():
    lat = FlatLattice(np.eye(2))
    M = extend_to_basis(lat, GeodesicClass((2, 3)))
    assert M.dtype.kind == "i"
    assert tuple(M[:, 0]) == (2, 3)
    assert _int_det(M) in (1, -1)


def test_extend_rank3():
    lat = FlatLattice(np.eye(3))
    M = extend_to_basis(lat, GeodesicClass((6, 10, 15)))
    assert tuple(M[:, 0]) == (6, 10, 15)
    assert _int_det(M) in (1, -1)


def test_extend_rejects_imprimitive():
    lat = FlatLattice(np.eye(2))
    with pytest.raises(NotPrimitive):
        extend_to_basis(lat, GeodesicClass((2, 4)))
    # axis multiples are admitted for lengths but not for basis completion
    with pytest.raises(NotPrimitive):
        extend_to_basis(lat, GeodesicClass((0, 3)))


def test_quotient_identity_lattice_pure_translations():
    lat = FlatLattice(np.eye(3))
    out = quotient_generators(lat, GeodesicClass((1, 0, 0)))
    assert out["length"] == pytest.approx(1.0, abs=1e-14)
    for angle, t in out["generators"]:
        assert angle == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)
    assert out["covolume"] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out["torus_gram"], np.eye(2), atol=1e-12)


def test_quotient_diag_basis():
    lat = FlatLattice(np.diag([2.0, 3.0]))
    out = quotient_generators(lat, GeodesicClass((0, 1)))
    assert out["length"] == pytest.approx(3.0, abs=1e-14)
    (angle, t), = out["generators"]
    assert angle == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(t) == pytest.approx(2.0, abs=1e-12)
    assert out["length"] * out["covolume"] == pytest.approx(6.0, abs=1e-12)


def test_quotient_covolume_identity_random():
    rng = np.random.default_rng(3)
    count = 0
    while count < 60:
        B = rng.integers(-5, 6, size=(3, 3))
        if abs(_int_det(B)) == 0:
            continue
        c = rng.integers(-7, 8, size=3)
        g = math.gcd(math.gcd(abs(int(c[0])), abs(int(c[1]))), abs(int(c[2])))
        if g != 1:
            continue
        lat = FlatLattice(B.astype(float))
        sig = GeodesicClass(tuple(int(x) for x in c))
        out = quotient_generators(lat, sig)
        det = abs(float(_int_det(B)))
        lhs = out["length"] * out["covolume"]
        assert abs(lhs - det) < 1e-10 * det
        # rotation angle of each generator is set by its component along
        # sigma; re-deriving it from the vectors is an independent check
        M = extend_to_basis(lat, sig)
        vecs = B.astype(float) @ M
        sig_hat = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        for i, (angle, t) in enumerate(out["generators"], start=1):
            along = float(sig_hat @ vecs[:, i])
            expect = 2.0 * math.pi * along / out["length"]
            assert angle == pytest.approx(expect, abs=1e-10)
            assert np.linalg.norm(t) > 1e-9
        count += 1


def test_filling_data_single_cusp():
    lat = FlatLattice(np.eye(3))
    fd = filling_data([(lat, GeodesicClass((10, 0, 0)))], 4)
    assert isinstance(fd, DehnFillingData)
    assert fd.lengths == (10.0,)
    assert fd.radii[0] == pytest.approx(3.0078358, abs=1e-4)
    assert fd.size == 10.0
    assert fd.two_pi_ok
    assert fd.beta1 == pytest.approx(4.0 * math.pi / (3.0 * 2.0 ** (1.0 / 3.0)),
                                     abs=1e-14)


def test_filling_data_below_two_pi():
    lat = FlatLattice(np.eye(3))
    fd = filling_data([(lat, GeodesicClass((6, 0, 0)))], 4)
    assert fd.size == 6.0
    assert not fd.two_pi_ok


def test_filling_data_two_cusps():
    lat1 = FlatLattice(np.eye(3))
    lat2 = FlatLattice(np.diag([12.0, 1.0, 1.0]))
    fd = filling_data(
        [(lat1, GeodesicClass((10, 0, 0))), (lat2, GeodesicClass((1, 0, 0)))],
        5,
    )
    assert fd.lengths == (10.0, 12.0)
    assert fd.size == 10.0
    assert len(fd.radii) == 2
    assert fd.radii[1] / fd.radii[0] == pytest.approx(1.2, abs=1e-12)


def test_filling_data_needs_cusps():
    with pytest.raises(OutOfDomain):
        filling_data([], 4)


@st.composite
def primitive_coeffs(draw, rank):
    c = [draw(st.integers(min_value=-9, max_value=9)) for _ in range(rank)]
    g = 0
    for x in c:
        g = math.gcd(g, abs(x))
    if g == 0:
        return (1,) + (0,) * (rank - 1)
    return tuple(x // g for x in c)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=2, max_value=5).flatmap(
    lambda k: primitive_coeffs(k)))
def test_extend_unimodular_and_lattice_preserving(coeffs):
    k = len(coeffs)
    lat = FlatLattice(np.eye(k))
    M = extend_to_basis(lat, GeodesicClass(coeffs))
    assert _int_det(M) in (1, -1)
    assert tuple(M[:, 0]) == coeffs
    # a unimodular transform fixes the lattice: the Hermite forms agree
    assert _hnf(M) == _hnf(np.eye(k, dtype=int))


@settings(max_examples=80, deadline=None)
@given(
    primitive_coeffs(3),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2),
                  st.integers(-2, 2)),
        min_size=1, max_size=6,
    ),
)
def test_length_invariant_under_basis_change(coeffs, ops):
    # build a unimodular U from elementary shears, then transform basis and
    # coefficients together; the geodesic length must not move
    U = np.eye(3, dtype=int)
    for i, j, q in ops:
        if i == j or q == 0:
            continue
        E = np.eye(3, dtype=int)
        E[i, j] = q
        U = U @ E
    Uinv = np.round(np.linalg.inv(U)).astype(int)
    assert np.array_equal(U @ Uinv, np.eye(3, dtype=int))
    new_coeffs = Uinv @ np.array(coeffs, dtype=int)
    g = 0
    for x in new_coeffs:
        g = math.gcd(g, abs(int(x)))
    if g != 1:
        return
    B = np.array([[2.0, 0.3, 0.0], [0.0, 1.5, 0.2], [0.1, 0.0, 1.0]])
    L0 = geodesic_length(FlatLattice(B), GeodesicClass(coeffs))
    L1 = geodesic_length(
        FlatLattice(B @ U.astype(float)),
        GeodesicClass(tuple(int(x) for x in new_coeffs)),
    )
    assert L1 == pytest.approx(L0, rel=1e-12)


def test_singular_basis_rejected():
    with pytest.raises(OutOfDomain):
        FlatLattice(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(OutOfDomain):
        geodesic_length(FlatLattice(np.eye(3)), GeodesicClass((1, 0)))


def test_large_finite_basis_accepted_without_warning():
    # det itself overflows here; the singularity test must not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lat = FlatLattice(np.diag([1e308, 1e308, 1.0]))
    assert lat.rank == 3


@pytest.mark.parametrize("basis", [
    np.zeros((2, 2)),
    [[1.0, 2.0], [2.0, 4.0]],
    np.diag([1e-7, 1e-6]),
    np.diag([1e-200, 1e-200, 1e300]),
    np.diag([1e-300, 1e-300, 1.0]),
])
def test_singular_bases_still_rejected(basis):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomain, match="singular"):
            FlatLattice(np.array(basis))


@pytest.mark.parametrize("build, error", [
    (lambda: FlatLattice(np.array([[1.0, 0.0], [0.0, math.nan]])), OutOfDomain),
    (lambda: FlatLattice(np.array([[1.0, math.inf], [0.0, 1.0]])), OutOfDomain),
    (lambda: FlatLattice(np.full((2, 2), math.nan)), OutOfDomain),
    (lambda: FlatLattice([[10**400, 0], [0, 1]]), OutOfDomain),
], ids=["basis-nan", "basis-inf", "basis-all-nan", "basis-huge-int"])
def test_constructors_reject_non_finite(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("coeffs", [
    (1.5, 0, 0), (math.inf, 0, 0), (True, 0, 0), ("1", 0, 0), (0, 10.7, 1),
    (10**400, 0, 0),
], ids=["fraction", "inf", "bool", "string", "fraction-second", "huge-int"])
def test_geodesic_class_rejects_non_integers(coeffs):
    with pytest.raises(OutOfDomain, match="must be integers"):
        GeodesicClass(coeffs)


def test_geodesic_class_accepts_whole_floats():
    sig = GeodesicClass((10.0, np.int64(0), np.float64(-1.0)))
    assert sig.coeffs == (10, 0, -1)
    assert all(type(c) is int for c in sig.coeffs)


@pytest.mark.parametrize("basis", [
    [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1e200, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1e308, 1e308, 0], [0, 1, 0], [0, 0, 1]],
])
def test_geodesic_length_rejects_overflow(basis):
    # np.linalg.norm squares the vector, so 1e200 already overflows; the
    # last basis overflows in the product basis @ coeffs
    with pytest.raises(OutOfDomain, match="overflows"):
        geodesic_length(FlatLattice(np.array(basis)), GeodesicClass((1, 1, 0)))


def test_geodesic_length_is_the_norm_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(20):
        basis = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 100)
        lat = FlatLattice(basis)
        sigma = GeodesicClass((1, 2, -3))
        assert geodesic_length(lat, sigma) == float(
            np.linalg.norm(basis @ np.array([1.0, 2.0, -3.0])))
