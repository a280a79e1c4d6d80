"""Spherical decay kernels for PGL_2 and the global decay function.

The basic bi-K-invariant matrix coefficient of PGL_2 over Q_p is given on
the Cartan cell at level n by the Macdonald closed form

    Xi_p(n) = q^{-n/2} * (n (1 - 1/q) + (1 + 1/q)) / (1 + 1/q),

which satisfies the Hecke/tree recursion (the tests check it)

    (q Xi(n+1) + Xi(n-1)) / (q + 1) = (2 sqrt(q) / (q+1)) Xi(n),  n >= 1.

Over R the kernel is the K-average of the height of the Cartan element with
singular-value ratio e^{2t}:

    Xi_oo(t) = (2/pi) int_0^{pi/2} (e^{2t} cos^2 + e^{-2t} sin^2)^{-1/2},

which Gauss's formula int_0^{pi/2} (a^2 cos^2 + b^2 sin^2)^{-1/2} =
pi / (2 AGM(a, b)) turns into the closed form Xi_oo(t) = 1 / AGM(e^t, e^{-t}).

The global decay function of a rational point multiplies the local kernels
over the finitely many places where the point leaves the maximal compact:
the p-adic level is the middle elementary-divisor exponent of the adjoint
image, the real radial part is the singular-value ratio.  These kernels
satisfy a two-sided sandwich against eta_v = (local Cartan displacement),

    eta_v^{-1/2} <= xi_v <= C_eps eta_v^{-1/2 + eps},

whose lower half is exact-rational checkable (compare squares); the bound
verifier reports empirical constants for the upper half, for height
domination xi <= C H^{-1/m}, and for L^p integrability trends.

PGL_2 has rank one at every place, so the local kernel is a single rank-one
factor.  For PGL_n the same construction would run over a maximal strongly
orthogonal set of positive roots of the A_{n-1} system, {e_i - e_{n+1-i} :
i <= n/2}, with one rank-one factor per member; only the PGL_2 kernels are
evaluated numerically here, and higher-rank growth predictions stay
symbolic (the rootdata module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .heights import (
    CartanCoordinates,
    Place,
    PrimitiveMatrix,
    _is_prime,
    adjoint_rep,
    cartan_radial_real,
    smith_exponents,
)
from .zeta import cell_volume

__all__ = [
    "XiEvaluation",
    "MixingReport",
    "MixingError",
    "xi_padic",
    "xi_padic_squared",
    "xi_real",
    "evaluate_point",
    "verify_bounds",
    "lp_probe",
]


class MixingError(ValueError):
    pass


# --------------------------------------------------------------------------
# local kernels


def xi_padic(p: int, n: int) -> float:
    """Zonal spherical value at the Cartan cell diag(p^n, 1)."""
    if n < 0:
        raise MixingError("cell level must be >= 0")
    q = float(p)
    return q ** (-n / 2.0) * (n * (1 - 1 / q) + (1 + 1 / q)) / (1 + 1 / q)


def xi_padic_squared(p: int, n: int) -> Fraction:
    """Exact square of xi_padic: rational, for exact sandwich comparisons."""
    if n < 0:
        raise MixingError("cell level must be >= 0")
    q = Fraction(p)
    lin = (n * (1 - 1 / q) + (1 + 1 / q)) / (1 + 1 / q)
    return lin * lin / q**n


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of a >= b > 0."""
    while a - b > 4e-16 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


def xi_real(t: float) -> float:
    """Harish-Chandra spherical value at the Cartan element with
    singular-value ratio e^{2t}; depends only on |t|.

    1 / AGM(e^t, e^{-t}), evaluated as e^{-t} / AGM(1, e^{-2t}) so that no
    intermediate overflows; the clamp keeps rounding noise from creeping
    above the mathematical range (0, 1].
    """
    t = abs(float(t))
    x = math.exp(-2.0 * t)
    if x == 0.0:
        raise MixingError("real kernel argument out of floating-point range")
    return min(1.0, math.exp(-t) / _agm(1.0, x))


# --------------------------------------------------------------------------
# global decay function


def _prime_factors(n: int) -> list[int]:
    n = abs(int(n))
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class XiEvaluation:
    """One local factor of the global decay function."""

    place: Place
    radial: CartanCoordinates
    xi: float
    eta: float  # Cartan displacement >= 1: q^n, or the singular-value ratio

    def __post_init__(self):
        if not (0.0 < self.xi <= 1.0):
            raise MixingError("xi must lie in (0, 1]")
        if self.eta < 1.0:
            raise MixingError("eta must be >= 1")


def evaluate_point(g: PrimitiveMatrix) -> list[XiEvaluation]:
    """Local (xi_v, eta_v) data of a rational point at every place where it
    leaves the maximal compact, plus the real place.

    The p-adic level is the middle elementary-divisor exponent of the 3x3
    adjoint image, nonzero exactly at primes dividing det(g).
    """
    M, det = adjoint_rep(g)
    out = []
    for p in _prime_factors(det):
        coords = smith_exponents(M, p)
        n = coords.exponents[1]
        if n == 0:
            continue
        out.append(
            XiEvaluation(
                place=Place.prime(p),
                radial=CartanCoordinates(place=Place.prime(p), exponents=(0, n)),
                xi=xi_padic(p, n),
                eta=float(p**n),
            )
        )
    real_radial = cartan_radial_real(g.entries)
    sv = real_radial.singular_values
    ratio = sv[0] / sv[-1]
    t = 0.5 * math.log(ratio)
    out.append(
        XiEvaluation(place=Place.infinity(), radial=real_radial, xi=xi_real(t), eta=ratio)
    )
    return out


# --------------------------------------------------------------------------
# bound verification


_LP_REPORT_EVERY = 20


@dataclass
class MixingReport:
    sample_size: int
    eps: float
    m: int
    lower_sandwich_violations: int
    c_eps: float  # smallest C with xi_G <= C prod eta^(-1/2+eps)
    c_height: float  # smallest C with xi_G <= C H^(-1/m)
    lp_partial_sums: dict[float, list[float]]


def lp_probe(
    p: int,
    exponents: Sequence[float] = (2.0, 2.5, 3.0),
    terms: int = 200,
) -> dict[float, list[float]]:
    """Partial sums of sum_k vol(U a_k U) xi_p(k)^e at one prime, after
    every _LP_REPORT_EVERY terms.

    Divergent trend expected at e = 2 (the measure grows like the kernel
    decays), geometric convergence at e = 3.
    """
    if not _is_prime(p):
        raise MixingError(f"{p} is not prime")
    if not all(map(math.isfinite, exponents)):
        raise MixingError(f"L^p exponents must be finite, got {list(exponents)}")
    out: dict[float, list[float]] = {}
    try:
        # (vol(U a_k U), xi_p(k)) for every k, shared by every exponent
        cells = [(float(cell_volume(p, k)), xi_padic(p, k)) for k in range(terms + 1)]
        for e in exponents:
            acc = 0.0
            snaps = []
            for k, (vol, xi) in enumerate(cells):
                acc += vol * xi**e
                if k % _LP_REPORT_EVERY == 0 and k > 0:
                    snaps.append(acc)
            out[float(e)] = snaps
    except OverflowError:
        raise MixingError(f"the L^p probe at p = {p} overflows a float in {terms} terms") from None
    if not all(math.isfinite(v) for snaps in out.values() for v in snaps):
        raise MixingError(f"an L^p partial sum at p = {p} is not finite")
    return out


def verify_bounds(
    sample: Iterable[PrimitiveMatrix],
    eps: float,
    m: int,
    lp_prime: int = 2,
    lp_exponents: Sequence[float] = (2.0, 2.5, 3.0),
    lp_terms: int = 200,
) -> MixingReport:
    """Empirical constants for the decay-function inequalities on a sample.

    The lower sandwich eta_v^{-1/2} <= xi_v is checked exactly at finite
    places (squares compared in rational arithmetic) and in floating point
    at the real place; any violation indicates an implementation bug and is
    counted, not repaired.
    """
    if m < 1:
        raise MixingError("m must be a positive integer")
    if not all(map(math.isfinite, (eps, *lp_exponents))):
        raise MixingError(f"eps {eps} and the L^p exponents {list(lp_exponents)} must be finite")
    if not _is_prime(lp_prime):
        raise MixingError(f"{lp_prime} is not prime")
    n_pts = 0
    violations = 0
    c_eps = 0.0
    c_height = 0.0
    try:
        for g in sample:
            n_pts += 1
            evs = evaluate_point(g)
            xi_g = 1.0
            eta_pow = 1.0
            for ev in evs:
                xi_g *= ev.xi
                eta_pow *= ev.eta ** (-0.5 + eps)
                if ev.place.is_finite:
                    n = ev.radial.exponents[-1]
                    if xi_padic_squared(ev.place.p, n) < Fraction(1, ev.place.p**n):
                        violations += 1
                else:
                    if ev.xi * math.sqrt(ev.eta) < 1.0 - 1e-9:
                        violations += 1
            c_eps = max(c_eps, xi_g / eta_pow)
            H, _ = adjoint_rep(g)
            h_val = float(max(abs(x) for row in H for x in row))
            c_height = max(c_height, xi_g * h_val ** (1.0 / m))
    except (OverflowError, ZeroDivisionError):
        raise MixingError(f"a bound leaves the float range at eps = {eps}, m = {m}") from None
    if n_pts == 0:
        raise MixingError("empty sample")
    if not (math.isfinite(c_eps) and math.isfinite(c_height)):
        raise MixingError(f"a decay-bound constant is not finite at eps = {eps}, m = {m}")
    return MixingReport(
        sample_size=n_pts,
        eps=float(eps),
        m=int(m),
        lower_sandwich_violations=violations,
        c_eps=c_eps,
        c_height=c_height,
        lp_partial_sums=lp_probe(lp_prime, lp_exponents, lp_terms),
    )
