"""Weight-lattice combinatorics behind the point-count growth exponents.

A semisimple root datum is described here by its Cartan matrix together with
a partition of the simple-root indices into almost-simple factors.  Everything
this module computes is linear algebra over the rationals in the simple-root
basis:

* the coefficients ``u`` of the sum of positive roots, ``2rho = sum u_i a_i``,
  obtained exactly as ``2 * C^{-T} * (1,...,1)``;
* the coefficients ``m`` of a dominant weight in the simple-root basis;
* the growth invariants ``a = max_i (u_i + 1)/m_i`` and the log-power ``b``
  (number of Galois orbits achieving the max), plus the saturation flag
  (does the argmax set meet every almost-simple factor?).

One constructor, ``root_datum``, builds a root system and its Galois orbits
from a map of ``type=``/``cartan=``/``factors=``/``galois=`` strings, whether
it comes from the CLI's ``--type``/``--galois`` or, by ``parse_config``, a
``--config`` file.  Named types (``A3``, ``A1xG2``) are read from one table,
``_FAMILIES``, which gives each family A..G the ranks it exists in, its Cartan
block and the marks of its highest root: ``named_root_system`` and
``adjoint_weight_root_coords`` accept exactly the same names.

All arithmetic uses ``fractions.Fraction``; ties in the argmax are resolved
by exact equality.  Indices are 1-based throughout the public API, matching
the usual numbering of simple roots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "RootSystem",
    "GaloisOrbits",
    "ManinInvariants",
    "RootDataError",
    "named_root_system",
    "parse_config",
    "root_datum",
    "adjoint_weight_root_coords",
    "two_rho_coeffs",
    "weight_to_root_basis",
    "manin_invariants",
    "is_saturated",
]


class RootDataError(ValueError):
    """Structural problem with root data (singular block, bad partition...)."""


# --------------------------------------------------------------------------
# exact linear algebra over Q (small dense systems only)


def _solve_transposed(C: Sequence[Sequence[int]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve C^T x = rhs by fraction-exact Gauss-Jordan. Raises on singular C."""
    n = len(C)
    M = [[Fraction(C[j][i]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise RootDataError("singular Cartan matrix")
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def _check_partition(parts: Sequence[frozenset[int]], rank: int, what: str) -> None:
    """Raise unless ``parts`` are nonempty and partition {1..rank}."""
    seen: set[int] = set()
    for part in parts:
        if not part:
            raise RootDataError(f"empty {what}")
        if seen & part:
            raise RootDataError(f"{what}s overlap")
        seen |= part
    if seen != set(range(1, rank + 1)):
        raise RootDataError(f"{what}s must partition {{1..rank}}")


def _int_rows(text: str, key: str) -> list[list[int]]:
    """A config value ``[[i, ...], ...]``: JSON lists of JSON integers."""
    rows = json.loads(text)
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and all(type(i) is int for i in r) for r in rows
    ):
        raise RootDataError(f"{key} must be a list of lists of integers, got {text!r}")
    return rows


# --------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class RootSystem:
    """Cartan matrix plus a partition of {1..rank} into almost-simple factors.

    The Cartan matrix convention is ``C[i][j] = <alpha_i, alpha_j^vee>`` so
    that fundamental coordinates of a weight ``w = sum m_j alpha_j`` are
    ``C^T m``.  For simply-laced systems the distinction is invisible.
    """

    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    factor_partition: tuple[frozenset[int], ...]
    label: str = ""

    def __post_init__(self):
        if self.rank < 1:
            raise RootDataError("rank must be positive")
        C = self.cartan_matrix
        if len(C) != self.rank or any(len(row) != self.rank for row in C):
            raise RootDataError("Cartan matrix shape does not match rank")
        for i in range(self.rank):
            if C[i][i] != 2:
                raise RootDataError("Cartan diagonal entries must equal 2")
            for j in range(self.rank):
                if i != j and C[i][j] > 0:
                    raise RootDataError("off-diagonal Cartan entries must be <= 0")
        _check_partition(self.factor_partition, self.rank, "factor block")
        # off-block entries must vanish: C is block-diagonal, so it is
        # invertible exactly when each block is
        for block in self.factor_partition:
            for i in block:
                for j in range(1, self.rank + 1):
                    if j not in block and C[i - 1][j - 1] != 0:
                        raise RootDataError("Cartan matrix couples distinct factors")
        _solve_transposed(C, [0] * self.rank)  # raises if singular


@dataclass(frozen=True)
class GaloisOrbits:
    """Orbit partition of the simple-root indices under the Galois twist.

    Split/inner forms have the trivial action: all orbits singletons.
    """

    orbits: tuple[frozenset[int], ...]

    @classmethod
    def trivial(cls, rank: int) -> "GaloisOrbits":
        return cls(tuple(frozenset([i]) for i in range(1, rank + 1)))

    def validate(self, rank: int) -> None:
        _check_partition(self.orbits, rank, "Galois orbit")


@dataclass(frozen=True)
class ManinInvariants:
    """Growth data of the height count N(T) ~ c T^a (log T)^(b-1)."""

    a: Fraction
    b: int
    delta_iota: frozenset[int]
    u: tuple[int, ...]
    saturated: bool


# --------------------------------------------------------------------------
# named systems

def _path(n: int) -> list[tuple[int, int, int, int]]:
    """The simple links of the chain 0 - 1 - ... - (n-1)."""
    return [(i, i + 1, -1, -1) for i in range(n - 1)]


# family -> (the ranks n it exists in, its Dynkin links (i, j, C[i][j],
# C[j][i]) at rank n on 0-based nodes, the coefficients of its highest root
# in the simple-root basis at rank n); Bourbaki numbering, where E's chain
# is 1-3-4-5-6(-7(-8)) with node 2 attached to 4
_FAMILIES = {
    "A": (lambda n: n >= 1, _path, lambda n: [1] * n),
    "B": (
        lambda n: n >= 2,
        lambda n: _path(n - 1) + [(n - 2, n - 1, -2, -1)],
        lambda n: [1] + [2] * (n - 1),
    ),
    "C": (
        lambda n: n >= 2,
        lambda n: _path(n - 1) + [(n - 2, n - 1, -1, -2)],
        lambda n: [2] * (n - 1) + [1],
    ),
    "D": (
        lambda n: n >= 3,
        lambda n: _path(n - 1) + [(n - 3, n - 1, -1, -1)],
        lambda n: [1] + [2] * (n - 3) + [1, 1],
    ),
    "E": (
        lambda n: n in (6, 7, 8),
        lambda n: _path(n)[2:] + [(0, 2, -1, -1), (1, 3, -1, -1)],
        lambda n: {6: [1, 2, 2, 3, 2, 1], 7: [2, 2, 3, 4, 3, 2, 1], 8: [2, 3, 4, 6, 5, 4, 3, 2]}[n],
    ),
    "F": (
        lambda n: n == 4,
        lambda n: [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)],
        lambda n: [2, 3, 4, 2],
    ),
    "G": (lambda n: n == 2, lambda n: [(0, 1, -1, -3)], lambda n: [3, 2]),
}


def _factors(label: str) -> list[tuple[str, int]]:
    """The simple factors (family, rank) of a name like ``A3`` or ``A1xB2``."""
    out = []
    for part in label.replace(" ", "").split("x"):
        if len(part) < 2 or part[0].upper() not in _FAMILIES or not part[1:].isdigit():
            raise RootDataError(f"cannot parse root-system type {label!r}")
        family, n = part[0].upper(), int(part[1:])
        if not _FAMILIES[family][0](n):
            raise RootDataError(f"unsupported type {family}{n}")
        out.append((family, n))
    return out


def named_root_system(label: str) -> RootSystem:
    """Build a root system from a name like ``A3``, ``B2``, or ``A1xA1``."""
    factors = _factors(label)
    rank = sum(n for _, n in factors)
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    partition = []
    off = 0
    for family, n in factors:
        for i, j, cij, cji in _FAMILIES[family][1](n):
            C[off + i][off + j], C[off + j][off + i] = cij, cji
        partition.append(frozenset(range(off + 1, off + n + 1)))
        off += n
    return RootSystem(
        rank=rank,
        cartan_matrix=tuple(tuple(row) for row in C),
        factor_partition=tuple(partition),
        label=label,
    )


def adjoint_weight_root_coords(label: str) -> tuple[int, ...]:
    """Simple-root coefficients of the adjoint highest weight (the highest
    root), per factor, concatenated.  Tabulated marks; no root enumeration."""
    return tuple(m for family, n in _factors(label) for m in _FAMILIES[family][2](n))


def parse_config(text: str) -> dict[str, str]:
    """The key=value map of a config text, as ``root_datum`` reads it: one
    ``key=value`` per line, blank lines and ``#`` comments skipped."""
    kv: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RootDataError(f"bad config line {line!r}")
        k, v = line.split("=", 1)
        kv[k.strip()] = v.strip()
    return kv


def root_datum(kv: dict[str, str]) -> tuple[RootSystem, GaloisOrbits]:
    """A root system and its Galois orbits from string values by key.

    Recognized keys: ``type=A3`` or an explicit ``cartan=[[2,-1,...],...]``
    (with optional ``factors=[[1,2,3]]`` and ``label=``), plus optional
    ``galois=[[1],[2],[3]]``; orbits default to the trivial action.
    """
    if "type" in kv:
        rs = named_root_system(kv["type"])
    elif "cartan" in kv:
        C = _int_rows(kv["cartan"], "cartan")
        rank = len(C)
        if "factors" in kv:
            partition = tuple(map(frozenset, _int_rows(kv["factors"], "factors")))
        else:
            partition = (frozenset(range(1, rank + 1)),)
        rs = RootSystem(
            rank=rank,
            cartan_matrix=tuple(map(tuple, C)),
            factor_partition=partition,
            label=kv.get("label", "custom"),
        )
    else:
        raise RootDataError("a root datum needs a type or a cartan matrix")

    if "galois" not in kv:
        return rs, GaloisOrbits.trivial(rs.rank)
    gal = GaloisOrbits(tuple(map(frozenset, _int_rows(kv["galois"], "galois"))))
    gal.validate(rs.rank)
    return rs, gal


# --------------------------------------------------------------------------
# operations


def two_rho_coeffs(rs: RootSystem) -> tuple[int, ...]:
    """Coefficients u with 2rho = sum_i u_i alpha_i.

    2rho has fundamental coordinates (2,...,2), so u = 2 C^{-T} (1,...,1);
    the result is always integral.
    """
    sol = _solve_transposed(rs.cartan_matrix, [2] * rs.rank)
    out = []
    for v in sol:
        if v.denominator != 1:
            raise RootDataError(f"non-integral 2rho coefficient {v}")
        out.append(int(v))
    return tuple(out)


def weight_to_root_basis(rs: RootSystem, fund: Sequence) -> tuple[Fraction, ...]:
    """Convert fundamental coordinates of a weight to simple-root coordinates."""
    if len(fund) != rs.rank:
        raise RootDataError("weight length does not match rank")
    return tuple(_solve_transposed(rs.cartan_matrix, fund))


def is_saturated(rs: RootSystem, delta_iota: frozenset[int] | set[int]) -> bool:
    """True iff the critical set meets every almost-simple factor."""
    if not set(delta_iota) <= set(range(1, rs.rank + 1)):
        raise RootDataError("delta_iota contains out-of-range indices")
    return all(block & set(delta_iota) for block in rs.factor_partition)


def manin_invariants(
    rs: RootSystem,
    m: Sequence,
    gal: GaloisOrbits | None = None,
) -> ManinInvariants:
    """Growth invariants of the height count for a weight with simple-root
    coefficients ``m`` (all must be positive).

    a is the exact maximum of (u_i + 1)/m_i, delta_iota its argmax set, and
    b the number of Galois orbits meeting delta_iota.  Orbits that straddle
    the delta_iota boundary are rejected: for inner forms this cannot occur,
    and the orbit count would be ambiguous.
    """
    m_f = [Fraction(x) for x in m]
    if len(m_f) != rs.rank:
        raise RootDataError("weight length does not match rank")
    if any(x <= 0 for x in m_f):
        raise RootDataError("all simple-root coefficients must be positive")
    if gal is None:
        gal = GaloisOrbits.trivial(rs.rank)
    gal.validate(rs.rank)

    u = two_rho_coeffs(rs)
    ratios = [Fraction(u[i] + 1) / m_f[i] for i in range(rs.rank)]
    a = max(ratios)
    delta = frozenset(i + 1 for i in range(rs.rank) if ratios[i] == a)

    b = 0
    for orb in gal.orbits:
        inside = orb & delta
        if inside and inside != orb:
            raise RootDataError(
                "Galois orbit straddles the critical set; orbit count undefined"
            )
        if inside:
            b += 1

    return ManinInvariants(
        a=a,
        b=b,
        delta_iota=delta,
        u=u,
        saturated=is_saturated(rs, delta),
    )
