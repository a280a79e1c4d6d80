"""Exact heights of rational points of PGL_2, and radial coordinates.

A point of PGL_2(Q) (or P^n(Q)) is its content-1 integer 2x2 matrix (or
vector), unique up to sign; the canonical sign makes the first nonzero
entry positive.  Its height, the product over all places of the local
max-norms, is the largest |entry| of that representative, an integer.

The adjoint embedding of PGL_2 sends g to the matrix of X -> g X adj(g) on
trace-zero 2x2 matrices in the ordered basis

    e = [[0,1],[0,0]],  f = [[0,0],[1,0]],  h = [[1,0],[0,-1]].

For g = [[a,b],[c,d]] that matrix is

    [[ a^2, -b^2, -2ab ],
     [-c^2,  d^2,  2cd ],
     [ -ac,   bd, ad+bc]]

which is det(g) times the adjoint action and always has content 1 when g
does (a prime dividing all entries would divide a, b, c, d).  Consequently
max|g|^2 <= H(Ad g) <= 2 max|g|^2, the bound that makes exhaustive
enumeration of height balls complete.

Radial (Cartan) coordinates are elementary-divisor exponents at a finite
place and singular values at the real place.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# mpmath's primality test: a set lookup below 50, division by the odd primes
# below 50, then Miller-Rabin (exact below 3.4e14, a strong probable-prime
# test beyond), so a huge input cannot stall a caller.
from mpmath.libmp import isprime as _is_prime

# smallest singular value, relative to the largest, of a nonsingular matrix
_SINGULAR_RTOL = 1e-12

__all__ = [
    "Place",
    "PrimitiveMatrix",
    "CartanCoordinates",
    "MeasureConvention",
    "HeightError",
    "global_height",
    "adjoint_rep",
    "smith_exponents",
    "cartan_radial_real",
]


class HeightError(ValueError):
    pass


@dataclass(frozen=True)
class Place:
    """A place of Q: the archimedean one or a prime p."""

    p: int | None  # None = archimedean

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise HeightError(f"{self.p} is not prime")

    @classmethod
    def infinity(cls) -> "Place":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "Place":
        return cls(p)

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def __repr__(self):
        return "Place(oo)" if self.p is None else f"Place({self.p})"


@dataclass(frozen=True)
class CartanCoordinates:
    """Radial part of a group element at one place.

    At a finite place: non-decreasing elementary-divisor exponents, minimal
    exponent 0 for a primitive matrix.  At the real place: singular values
    sorted in descending order.
    """

    place: Place
    exponents: tuple[int, ...] | None = None
    singular_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.place.is_finite:
            if self.exponents is None or self.singular_values is not None:
                raise HeightError("finite place carries integer exponents")
            if list(self.exponents) != sorted(self.exponents):
                raise HeightError("exponents must be non-decreasing")
        else:
            if self.singular_values is None or self.exponents is not None:
                raise HeightError("archimedean place carries singular values")
            sv = list(self.singular_values)
            if sv != sorted(sv, reverse=True):
                raise HeightError("singular values must be sorted descending")
            if any(s <= 0 for s in sv):
                raise HeightError("singular values must be positive")


@dataclass(frozen=True)
class MeasureConvention:
    """Haar normalization: vol(U_p) = 1 at finite places; the archimedean
    component carries a single positive calibration constant."""

    archimedean_scale: float = 1.0

    def __post_init__(self):
        if not self.archimedean_scale > 0:
            raise HeightError("archimedean scale must be positive")


# --------------------------------------------------------------------------
# primitive representatives


@dataclass(frozen=True, slots=True)
class PrimitiveMatrix:
    """Content-1 invertible integer 2x2 matrix with canonical sign; the
    unique representative of a point of PGL_2(Q).

    Three checks on the integer entries a, b, c, d: content
    gcd(a, b, c, d) = 1, the first nonzero entry positive, and
    ad - bc != 0.  Entries are ints or numpy integers, kept as ints; a
    float, a fraction or a string raises, whole or not."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            (a, b), (c, d) = self.entries
        except (TypeError, ValueError):
            raise HeightError("expected a 2x2 matrix") from None
        try:
            content = math.gcd(a, b, c, d)
        except TypeError:
            raise HeightError("matrix entries must be integers") from None
        if content != 1 or (a or b or c or d) < 0:
            raise HeightError("matrix is not in canonical primitive form")
        if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int):
            # numpy integers multiply in fixed width: keep exact Python ints
            a, b, c, d = map(operator.index, (a, b, c, d))
            object.__setattr__(self, "entries", ((a, b), (c, d)))
        if a * d == b * c:
            raise HeightError("determinant must be nonzero")

    def det(self) -> int:
        (a, b), (c, d) = self.entries
        return a * d - b * c


# --------------------------------------------------------------------------
# heights


def _int_rows(M, cast=int) -> list[list]:
    """The rows of a matrix of integers (int, numpy integers: anything
    ``operator.index`` takes), each entry through ``cast``; floats and
    fractions raise, whole or not."""
    try:
        return [[cast(operator.index(x)) for x in row] for row in M]
    except TypeError:
        raise HeightError("matrix entries must be integers") from None


def global_height(M) -> int:
    """Height of the point an integer matrix represents (nested sequences
    or a PrimitiveMatrix): the largest |entry| over the content, a positive
    integer invariant under nonzero integer scaling (the product formula)."""
    flat = [x for row in _int_rows(M.entries if isinstance(M, PrimitiveMatrix) else M) for x in row]
    if not any(flat):
        raise HeightError("zero matrix has no height")
    return max(map(abs, flat)) // math.gcd(*flat)


# --------------------------------------------------------------------------
# the adjoint embedding of PGL_2


def adjoint_rep(g) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Matrix of X -> g X adj(g) on trace-zero 2x2 matrices, basis (e, f, h).

    Returns (M, det_g); M/det_g is the adjoint action of g and M always has
    content 1 for primitive g.
    """
    rows = g.entries if isinstance(g, PrimitiveMatrix) else _int_rows(g)
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise HeightError("expected a 2x2 matrix")
    (a, b), (c, d) = rows
    det = a * d - b * c
    if det == 0:
        raise HeightError("determinant must be nonzero")
    M = (
        (a * a, -b * b, -2 * a * b),
        (-c * c, d * d, 2 * c * d),
        (-a * c, b * d, a * d + b * c),
    )
    return M, det


# --------------------------------------------------------------------------
# radial coordinates


def smith_exponents(M, p: int) -> CartanCoordinates:
    """Elementary-divisor exponents of an integer matrix at p.

    Pivoting elimination over Q tracking p-adic valuations: the minimal
    valuation is the next exponent, and the Schur complement carries the
    rest.  Exponents come out non-decreasing.
    """
    if not _is_prime(p):
        raise HeightError(f"{p} is not prime")
    if isinstance(M, PrimitiveMatrix):
        M = M.entries
    rows = _int_rows(M, Fraction)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise HeightError("expected a square integer matrix")
    if all(x == 0 for row in rows for x in row):
        raise HeightError("zero matrix has no Smith exponents")

    def val(x: Fraction) -> float:
        if x == 0:
            return math.inf
        v = 0
        num, den = x.numerator, x.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v

    exps: list[int] = []
    work = rows
    size = n
    while size > 0:
        vals = [[val(work[i][j]) for j in range(size)] for i in range(size)]
        vmin = min(min(r) for r in vals)
        if vmin is math.inf:
            raise HeightError("matrix is singular; Smith exponents undefined")
        exps.append(int(vmin))
        pi, pj = next(
            (i, j) for i in range(size) for j in range(size) if vals[i][j] == vmin
        )
        piv = work[pi][pj]
        nxt = []
        for i in range(size):
            if i == pi:
                continue
            f = work[i][pj] / piv
            nxt.append(
                [work[i][j] - f * work[pi][j] for j in range(size) if j != pj]
            )
        work = nxt
        size -= 1
    return CartanCoordinates(place=Place.prime(p), exponents=tuple(sorted(exps)))


def cartan_radial_real(M) -> CartanCoordinates:
    """Singular values of a rational matrix, sorted descending."""
    if isinstance(M, PrimitiveMatrix):
        M = M.entries
    arr = np.array([[float(x) for x in row] for row in M], dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise HeightError("expected a square matrix")
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv[-1] <= _SINGULAR_RTOL * sv[0]:
        raise HeightError("matrix is numerically singular")
    return CartanCoordinates(
        place=Place.infinity(), singular_values=tuple(float(s) for s in sv)
    )
