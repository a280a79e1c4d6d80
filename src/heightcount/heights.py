"""Exact heights on projective points over Q, and radial coordinates.

A point of P(M_n(Q)) (or P^n(Q)) is represented by a content-1 integer
matrix (or vector), unique up to sign; the canonical sign makes the first
nonzero entry positive.  The global height of a point is the product over
all places of the local max-norms of any representative, which for the
canonical representative collapses to its largest |entry|, an integer.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

# mpmath's primality test: a set lookup below 50, division by the odd primes
# below 50, then Miller-Rabin (exact below 3.4e14, a strong probable-prime
# test beyond), so a huge input cannot stall a caller.
from mpmath.libmp import isprime as _is_prime

__all__ = [
    "Place",
    "PrimitiveMatrix",
    "HeightValue",
    "CartanCoordinates",
    "MeasureConvention",
    "HeightError",
    "primitivize",
    "primitive_vector",
    "local_height",
    "global_height",
    "adjoint_rep",
    "adjoint_action_matrix",
    "smith_exponents",
    "cartan_radial_real",
    "parse_matrix",
    "format_matrix",
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
class HeightValue:
    value: Fraction

    def __post_init__(self):
        if self.value <= 0:
            raise HeightError("heights are positive")

    def __str__(self):
        v = self.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


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


def primitive_vector(entries: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Canonical content-1 representative of a nonzero integer vector.

    Returns (primitive, content) with content * primitive == +-entries and
    the first nonzero entry of primitive positive.
    """
    ent = [int(x) for x in entries]
    g = 0
    for x in ent:
        g = math.gcd(g, x)
    if g == 0:
        raise HeightError("zero input has no primitive representative")
    ent = [x // g for x in ent]
    first = next(x for x in ent if x != 0)
    if first < 0:
        ent = [-x for x in ent]
    return tuple(ent), g


@dataclass(frozen=True)
class PrimitiveMatrix:
    """Content-1 invertible integer matrix with canonical sign; the unique
    representative of a point of PGL_n(Q)."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise HeightError("entries must form a square matrix")
        flat = [x for row in self.entries for x in row]
        prim, content = primitive_vector(flat)
        if content != 1 or tuple(flat) != prim:
            raise HeightError("matrix is not in canonical primitive form")
        if _int_det(self.entries) == 0:
            raise HeightError("determinant must be nonzero")

    @property
    def n(self) -> int:
        return len(self.entries)

    def det(self) -> int:
        return _int_det(self.entries)

    def max_entry(self) -> int:
        return max(abs(x) for row in self.entries for x in row)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "PrimitiveMatrix":
        prim, _ = primitivize(rows)
        return prim


def _int_det(rows) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    det = 0
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        det += (-1) ** j * rows[0][j] * _int_det(minor)
    return det


def primitivize(M) -> tuple[PrimitiveMatrix, int]:
    """Canonicalize an integer matrix: (PrimitiveMatrix, content)."""
    rows = [list(map(int, row)) for row in M]
    flat = [x for row in rows for x in row]
    prim, content = primitive_vector(flat)
    n = len(rows)
    it = iter(prim)
    mat = tuple(tuple(next(it) for _ in row) for row in rows)
    pm = PrimitiveMatrix(entries=mat)
    return pm, content


# --------------------------------------------------------------------------
# local and global heights


def _as_fraction_rows(M) -> list[list[Fraction]]:
    if isinstance(M, PrimitiveMatrix):
        M = M.entries
    rows = [[Fraction(x) for x in row] for row in M]
    if not rows or all(x == 0 for row in rows for x in row):
        raise HeightError("zero matrix has no height")
    return rows


def _padic_abs(x: Fraction, p: int) -> Fraction:
    if x == 0:
        return Fraction(0)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def local_height(M, v: Place) -> Fraction:
    """Local max-norm: max over entries of |entry|_v, exactly."""
    rows = _as_fraction_rows(M)
    if v.is_finite:
        return max(_padic_abs(x, v.p) for row in rows for x in row)
    return max(abs(x) for row in rows for x in row)


def global_height(M) -> HeightValue:
    """Product over all places of the local max-norms.

    Equals the largest |entry| of the content-1 integer representative, so
    it is a positive integer for any rational input and invariant under
    nonzero rational scaling (the product formula).
    """
    rows = _as_fraction_rows(M)
    den = 1
    for row in rows:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for row in rows for x in row]
    prim, _ = primitive_vector(ints)
    return HeightValue(Fraction(max(abs(x) for x in prim)))


# --------------------------------------------------------------------------
# the adjoint embedding of PGL_2


def adjoint_rep(g, n: int = 2) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Matrix of X -> g X adj(g) on trace-zero 2x2 matrices, basis (e, f, h).

    Returns (M, det_g); M/det_g is the adjoint action of g and M always has
    content 1 for primitive g.
    """
    if n != 2:
        raise HeightError("only the PGL_2 adjoint embedding is implemented")
    if isinstance(g, PrimitiveMatrix):
        rows = g.entries
    else:
        rows = tuple(tuple(int(x) for x in row) for row in g)
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


def adjoint_action_matrix(g) -> list[list[Fraction]]:
    """The adjoint action Ad(g) = (g X adj g)/det as an exact rational matrix."""
    M, det = adjoint_rep(g)
    return [[Fraction(x, det) for x in row] for row in M]


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
    rows = [[Fraction(int(x)) for x in row] for row in M]
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


def parse_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    """Row-major bracketed integer lists, e.g. "[[1,2],[3,4]]"."""
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HeightError(f"cannot parse matrix {text!r}: {exc}") from None
    if not isinstance(data, list) or not data:
        raise HeightError("expected a bracketed list of rows")
    if all(isinstance(x, int) for x in data):
        return (tuple(data),)  # a single row vector
    if not all(isinstance(row, list) and all(isinstance(x, int) for x in row) for row in data):
        raise HeightError("matrix entries must be integers")
    return tuple(tuple(row) for row in data)


def format_matrix(M) -> str:
    if isinstance(M, PrimitiveMatrix):
        M = M.entries
    return "[" + ",".join("[" + ",".join(str(int(x)) for x in row) + "]" for row in M) + "]"


def cartan_radial_real(M, singular_rtol: float = 1e-12) -> CartanCoordinates:
    """Singular values of a rational matrix, sorted descending."""
    if isinstance(M, PrimitiveMatrix):
        M = M.entries
    arr = np.array([[float(x) for x in row] for row in M], dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise HeightError("expected a square matrix")
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv[-1] <= singular_rtol * sv[0]:
        raise HeightError("matrix is numerically singular")
    return CartanCoordinates(
        place=Place.infinity(), singular_values=tuple(float(s) for s in sv)
    )
