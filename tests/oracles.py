"""Reference computations that only the tests use: each checks a closed
form of the library against an independent derivation."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from heightcount.heights import HeightError, PrimitiveMatrix
from heightcount.mixing import MixingError, evaluate_point, xi_padic
from heightcount.zeta import ZetaError, primes_below

_ORACLE_GUARD = 10**6  # largest p^k whose cells cell_volume_oracle counts


def primitive_vector(entries) -> tuple[tuple[int, ...], int]:
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


def cell_volume_oracle(p: int, k: int) -> Fraction:
    """Cell volume by counting lattice classes, independent of the formula.

    Cosets of U inside U a_k U correspond to index-p^k sublattices of Z^2
    with cyclic quotient.  Sublattices are enumerated by Hermite bases
    [[p^a, b], [0, p^(k-a)]] with 0 <= b < p^a; the quotient is cyclic of
    order p^k exactly when the entry gcd is 1 (for 2x2 the first elementary
    divisor is the content).
    """
    if k < 0:
        raise ZetaError("cell level must be >= 0")
    if k == 0:
        return Fraction(1)
    if p**k > _ORACLE_GUARD:
        raise ZetaError(f"p^k = {p ** k} exceeds the enumeration guard {_ORACLE_GUARD}")
    count = 0
    for a in range(k + 1):
        d1, d2 = p**a, p ** (k - a)
        for b in range(d1):
            if math.gcd(math.gcd(d1, b), d2) == 1:
                count += 1
    return Fraction(count)


def hecke_recursion_residual(p: int, n: int) -> float:
    """|(q phi(n+1) + phi(n-1))/(q+1) - lambda phi(n)| with the tempered
    eigenvalue lambda = 2 sqrt(q)/(q+1); vanishes identically for n >= 1."""
    if n < 1:
        raise MixingError("recursion applies for n >= 1")
    q = float(p)
    lam = 2.0 * math.sqrt(q) / (q + 1.0)
    lhs = (q * xi_padic(p, n + 1) + xi_padic(p, n - 1)) / (q + 1.0)
    return abs(lhs - lam * xi_padic(p, n))


def xi_global(g: PrimitiveMatrix) -> float:
    """Product of the local decay kernels over all places (finitely many
    differ from 1)."""
    return math.prod(ev.xi for ev in evaluate_point(g))


def finite_parts_oracle(P: int, ss) -> list:
    """prod_{p<P} (1 + p^{-s}) for each s in ss with one mp.exp per prime
    and sample at the working precision: the product that
    ``zeta._finite_parts`` computes in fixed point."""
    neg_logs = [-mp.log(p) for p in primes_below(P)]
    return [mp.fprod(1 + mp.exp(mp.mpf(s) * nl) for nl in neg_logs) for s in ss]


def primes_below_oracle(n: int) -> np.ndarray:
    """The primes p < n from a sieve of every integer below n, a byte each:
    the sieve that ``zeta.primes_below`` halves."""
    if n <= 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def two_pass_parser():
    """The command-line parser the CLI had before its one-pass reading: the
    global flags, then an argparse subparser per subcommand, so each line is
    read in two passes.  Its exit codes and values are the grammar's."""
    import argparse

    from heightcount.cli import _SUBCOMMANDS

    ap = argparse.ArgumentParser(prog="heightcount", allow_abbrev=False)
    ap.add_argument("--config")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--cache", default="heightcount_cache.jsonl")
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--csv")
    ap.add_argument("--allow-stale", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--audit-rate", type=int, default=0)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (_, options) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        for key, default in options.items():
            flag = "--" + key.replace("_", "-")
            if default is False:
                sp.add_argument(flag, action="store_true")
            else:
                sp.add_argument(flag, required=default is None, default=default)
    return ap
