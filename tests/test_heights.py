import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from heightcount.heights import (
    CartanCoordinates,
    HeightError,
    MeasureConvention,
    Place,
    PrimitiveMatrix,
    _is_prime,
    adjoint_rep,
    cartan_radial_real,
    global_height,
    smith_exponents,
)
from oracles import primitive_vector


def test_place_validation():
    assert Place.prime(7).is_finite
    assert not Place.infinity().is_finite
    with pytest.raises(HeightError):
        Place.prime(6)


def test_is_prime_matches_trial_division_and_handles_huge_inputs():
    def by_trial_division(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    small = list(range(-3, 3000)) + [2**32 - 5, 2**32 - 1, 2**32 + 1, 2**32 + 15]
    assert all(_is_prime(n) == by_trial_division(n) for n in small)
    # large inputs: Mersenne primes, a strong pseudoprime to the
    # prime bases up to 23, and a product of two large primes
    assert _is_prime(2**61 - 1) and _is_prime(2**89 - 1)
    assert not _is_prime(3825123056546413051)
    assert not _is_prime((2**31 - 1) * (2**61 - 1))


def test_primitive_vector_examples():
    assert primitive_vector((2, 4, 6)) == ((1, 2, 3), 2)
    assert primitive_vector((-3, -6)) == ((1, 2), 3)
    with pytest.raises(HeightError):
        primitive_vector((0, 0))


def test_primitive_matrix_validation():
    with pytest.raises(HeightError):
        PrimitiveMatrix(((2, 0), (0, 2)))  # content 2
    with pytest.raises(HeightError):
        PrimitiveMatrix(((-1, 0), (0, 1)))  # wrong sign
    with pytest.raises(HeightError):
        PrimitiveMatrix(((1, 1), (1, 1)))  # det 0
    with pytest.raises(HeightError):
        PrimitiveMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))  # not 2x2
    assert PrimitiveMatrix(((2, 1), (1, -1))).det() == -3


def test_primitive_matrix_accepts_exactly_the_oracle_points():
    def canonical(t):
        # content 1 and first nonzero entry positive, by the oracle
        return any(t) and primitive_vector(t) == (t, 1)

    for t in itertools.product(range(-4, 5), repeat=4):
        a, b, c, d = t
        expected = canonical(t) and a * d - b * c != 0
        try:
            PrimitiveMatrix(((a, b), (c, d)))
            accepted = True
        except HeightError:
            accepted = False
        assert accepted == expected, t


@pytest.mark.parametrize(
    "entries, message",
    [
        (((2.0, 1), (1, 1)), "entries must be integers"),  # det 1.0
        (((Fraction(2), 1), (1, 1)), "entries must be integers"),
        ((("2", 1), (1, 1)), "entries must be integers"),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), "expected a 2x2 matrix"),
        (((1, 0), (0,)), "expected a 2x2 matrix"),
        (5, "expected a 2x2 matrix"),
        (None, "expected a 2x2 matrix"),
    ],
    ids=["float", "fraction", "str", "3x3", "ragged", "int", "none"],
)
def test_primitive_matrix_rejects_non_integers_and_other_shapes(entries, message):
    with pytest.raises(HeightError, match=message):
        PrimitiveMatrix(entries)


def test_primitive_matrix_numpy_integers_slots_and_equality():
    g = PrimitiveMatrix(((2, 1), (1, -1)))
    n = PrimitiveMatrix(tuple(tuple(np.int64(x) for x in row) for row in g.entries))
    assert n.det() == g.det() == -3
    assert not hasattr(g, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.entries = ((1, 0), (0, 1))
    h = PrimitiveMatrix(((2, 1), (1, -1)))
    assert h == g and hash(h) == hash(g) and h is not g


def test_primitive_matrix_numpy_integers_are_exact():
    # int64 products past 2^63 wrap: the entries are kept as Python ints
    big = np.int64(2**32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = PrimitiveMatrix(((big, np.int64(1)), (np.int64(1), big)))
        M, det = adjoint_rep(g)
    assert g.det() == det == 2**64 - 1
    assert M[0][0] == 2**64
    assert all(type(x) is int for row in g.entries for x in row)
    assert g == PrimitiveMatrix(((2**32, 1), (1, 2**32)))


# --------------------------------------------------------------------------
# global heights


def test_global_height_examples():
    assert global_height([[1, 0], [0, 1]]) == 1
    assert global_height([[4, 0, 0], [0, 2, 0], [0, 0, 1]]) == 4
    assert global_height(((3, -7), (2, 5))) == 7
    # content > 1: the height is that of the content-1 representative
    assert global_height([[6, 0], [0, 2]]) == 3
    assert global_height([[-10, 4], [0, 6]]) == 5
    assert global_height(PrimitiveMatrix(((2, 1), (1, 1)))) == 2
    assert type(global_height([[2, 0], [0, 4]])) is int


@pytest.mark.parametrize(
    "M",
    [
        [[Fraction(1, 2), 0], [0, 3]],
        [[Fraction(2), 0], [0, 3]],
        [[1.0, 0], [0, 3]],
        [[0.5, 0], [0, 3]],
        [[0, 0], [0, 0]],
    ],
    ids=["fraction", "integral-fraction", "integral-float", "float", "zero"],
)
def test_global_height_rejects_non_integer_and_zero(M):
    with pytest.raises(HeightError):
        global_height(M)


def _kron(A, B):
    nA, nB = len(A), len(B)
    return [
        [A[i][j] * B[k][l] for j in range(nA) for l in range(nB)]
        for i in range(nA)
        for k in range(nB)
    ]


@given(
    a=st.lists(st.integers(-20, 20), min_size=4, max_size=4),
    b=st.lists(st.integers(-20, 20), min_size=4, max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_product_embedding_height_is_multiplicative(a, b):
    # the block pair (g, h) embeds through the tensor product, whose
    # max-entry factors exactly: no distortion constant in the split case
    if a[0] * a[3] - a[1] * a[2] == 0 or b[0] * b[3] - b[1] * b[2] == 0:
        return
    A = [a[:2], a[2:]]
    B = [b[:2], b[2:]]
    assert (
        global_height(_kron(A, B))
        == global_height(A) * global_height(B)
    )


@given(
    entries=st.lists(st.integers(-30, 30), min_size=4, max_size=4),
    c=st.integers(min_value=-9, max_value=9).filter(lambda x: x != 0),
)
@settings(max_examples=80, deadline=None)
def test_product_formula_scaling_invariance(entries, c):
    if all(x == 0 for x in entries):
        return
    M = [entries[:2], entries[2:]]
    scaled = [[c * x for x in row] for row in M]
    assert global_height(M) == global_height(scaled)


# --------------------------------------------------------------------------
# adjoint embedding


def test_adjoint_identity():
    M, det = adjoint_rep([[1, 0], [0, 1]])
    assert det == 1
    assert M == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_adjoint_diag_2_1():
    M, det = adjoint_rep([[2, 0], [0, 1]])
    assert det == 2
    assert M == ((4, 0, 0), (0, 1, 0), (0, 0, 2))
    assert global_height(M) == 4


def test_adjoint_unipotent_is_unipotent():
    M, det = adjoint_rep([[1, 1], [0, 1]])
    assert det == 1
    # all eigenvalues 1 <=> (M - I)^3 = 0, checked in exact arithmetic
    N = [[M[i][j] - (1 if i == j else 0) for j in range(3)] for i in range(3)]

    def matmul(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]

    N3 = matmul(matmul(N, N), N)
    assert all(x == 0 for row in N3 for x in row)


def test_adjoint_is_multiplicative_up_to_det():
    g1, g2 = [[2, 1], [1, 1]], [[1, -3], [0, 1]]
    M1, d1 = adjoint_rep(g1)
    M2, d2 = adjoint_rep(g2)
    prod = [[sum(g1[i][k] * g2[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    M12, d12 = adjoint_rep(prod)
    composed = [
        [sum(M1[i][k] * M2[k][j] for k in range(3)) for j in range(3)] for i in range(3)
    ]
    assert d12 == d1 * d2
    assert tuple(tuple(row) for row in composed) == M12


def _canonical_primitive_boxes(bound):
    for a, b, c, d in itertools.product(range(-bound, bound + 1), repeat=4):
        first = next((x for x in (a, b, c, d) if x), None)
        if first is None or first < 0:
            continue
        if a * d - b * c == 0:
            continue
        if math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d))) != 1:
            continue
        yield a, b, c, d


def test_content_one_law_exhaustive_small():
    for a, b, c, d in _canonical_primitive_boxes(3):
        M, det = adjoint_rep([[a, b], [c, d]])
        flat = [x for row in M for x in row]
        g = 0
        for x in flat:
            g = math.gcd(g, x)
        assert g == 1
        h = global_height(M)
        mx = max(abs(a), abs(b), abs(c), abs(d))
        assert mx * mx <= h <= 2 * mx * mx


@given(entries=st.lists(st.integers(-500, 500), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_content_one_law_random(entries):
    a, b, c, d = entries
    if a * d - b * c == 0:
        return
    g = math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d)))
    a, b, c, d = a // g, b // g, c // g, d // g
    M, _ = adjoint_rep([[a, b], [c, d]])
    flat = [x for row in M for x in row]
    gg = 0
    for x in flat:
        gg = math.gcd(gg, x)
    assert gg == 1
    h = global_height(M)
    mx = max(abs(a), abs(b), abs(c), abs(d))
    assert mx * mx <= h <= 2 * mx * mx


# --------------------------------------------------------------------------
# Smith exponents


def _minor_gcd_exponents(M, p):
    """Oracle: valuations of the gcds of i x i minors."""
    n = len(M)
    arr = np.array(M, dtype=object)

    def minors(k):
        out = []
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[M[i][j] for j in cols] for i in rows]
                out.append(_det(sub))
        return out

    def _det(sub):
        k = len(sub)
        if k == 1:
            return sub[0][0]
        return sum(
            (-1) ** j * sub[0][j] * _det([row[:j] + row[j + 1 :] for row in sub[1:]])
            for j in range(k)
        )

    def valp(x):
        v = 0
        x = abs(x)
        while x % p == 0:
            x //= p
            v += 1
        return v

    ds = []
    for k in range(1, n + 1):
        g = 0
        for m in minors(k):
            g = math.gcd(g, m)
        ds.append(g)
    vs = [valp(d) for d in ds]
    return tuple(vs[i] - (vs[i - 1] if i else 0) for i in range(n))


def test_smith_exponents_examples():
    for p in (2, 3, 5):
        assert smith_exponents([[p, 0], [0, 1]], p).exponents == (0, 1)
    M, _ = adjoint_rep([[2, 0], [0, 1]])
    assert smith_exponents(M, 2).exponents == (0, 1, 2)


def test_smith_exponents_errors():
    with pytest.raises(HeightError):
        smith_exponents([[0, 0], [0, 0]], 2)
    with pytest.raises(HeightError):
        smith_exponents([[1, 1], [1, 1]], 2)  # singular


@given(
    entries=st.lists(st.integers(-40, 40), min_size=9, max_size=9),
    p=st.sampled_from([2, 3, 5]),
)
@settings(max_examples=120, deadline=None)
def test_smith_exponents_match_minor_gcd_oracle(entries, p):
    M = [entries[:3], entries[3:6], entries[6:]]
    det = (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )
    if det == 0:
        return
    assert smith_exponents(M, p).exponents == _minor_gcd_exponents(M, p)


def test_snf_pattern_of_adjoint_images():
    # exponents of the adjoint image are always (0, k, 2k)
    for a, b, c, d in _canonical_primitive_boxes(3):
        M, det = adjoint_rep([[a, b], [c, d]])
        for p in (2, 3):
            e = smith_exponents(M, p).exponents
            assert e[0] == 0 and e[2] == 2 * e[1]
            v, x = 0, abs(det)
            while x % p == 0:
                x //= p
                v += 1
            assert e[1] == v


# --------------------------------------------------------------------------
# archimedean radial part


def test_cartan_radial_real_examples():
    assert cartan_radial_real([[1, 0], [0, 1]]).singular_values == (1.0, 1.0)
    sv = cartan_radial_real([[3, 0], [0, 1]]).singular_values
    assert sv == pytest.approx((3.0, 1.0), rel=1e-14)


def test_cartan_radial_real_flags_singular():
    with pytest.raises(HeightError):
        cartan_radial_real([[1, 1], [1, 1]])


@given(entries=st.lists(st.integers(-50, 50), min_size=9, max_size=9))
@settings(max_examples=100, deadline=None)
def test_singular_values_square_to_gram_eigenvalues(entries):
    M = np.array(entries, dtype=float).reshape(3, 3)
    if abs(np.linalg.det(M)) < 1e-6:
        return
    sv = cartan_radial_real(M.tolist()).singular_values
    eig = sorted(np.linalg.eigvalsh(M.T @ M), reverse=True)
    for s, e in zip(sv, eig):
        assert s * s == pytest.approx(e, rel=1e-10, abs=1e-10)


def test_cartan_coordinates_validation():
    with pytest.raises(HeightError):
        CartanCoordinates(place=Place.prime(2), exponents=(2, 0))
    with pytest.raises(HeightError):
        CartanCoordinates(place=Place.infinity(), singular_values=(1.0, 2.0))
    with pytest.raises(HeightError):
        CartanCoordinates(place=Place.prime(2), singular_values=(2.0, 1.0))


def test_measure_convention_validation():
    assert MeasureConvention().archimedean_scale == 1.0
    with pytest.raises(HeightError):
        MeasureConvention(archimedean_scale=0.0)


def test_properness_height_balls_are_finite():
    # every point with adjoint height < T lives in the entry box of radius
    # floor(sqrt(T)); entries beyond it force H >= max^2 >= T
    T = 17
    B = math.isqrt(T)
    inside = set()
    for a, b, c, d in _canonical_primitive_boxes(B + 4):
        M, _ = adjoint_rep([[a, b], [c, d]])
        if global_height(M) < T:
            inside.add((a, b, c, d))
            assert max(abs(a), abs(b), abs(c), abs(d)) <= B
    assert 0 < len(inside) < math.inf


@pytest.mark.parametrize(
    "call",
    [
        lambda: adjoint_rep([[1.5, 0], [0, 1]]),
        lambda: adjoint_rep([[Fraction(1, 2), 0], [0, 1]]),
        lambda: adjoint_rep([[2.0, 1], [1, 1]]),
        lambda: smith_exponents([[2.7, 0, 0], [0, 1, 0], [0, 0, 1]], 2),
        lambda: smith_exponents([[2.0, 0, 0], [0, 1, 0], [0, 0, 1]], 2),
    ],
    ids=["adjoint-float", "adjoint-fraction", "adjoint-whole-float", "smith-float", "smith-whole-float"],
)
def test_matrix_entries_must_be_integers(call):
    # int() used to truncate: 1.5 read as 1, 2.7 as 2
    with pytest.raises(HeightError, match="integers"):
        call()


def test_matrix_entries_accept_numpy_integers():
    g = np.array([[2, 1], [1, 1]], dtype=np.int64)
    assert adjoint_rep(g) == adjoint_rep([[2, 1], [1, 1]])
    M, _ = adjoint_rep(g)
    assert smith_exponents(np.array(M), 3) == smith_exponents(M, 3)
