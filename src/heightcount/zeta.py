"""Local height-zeta factors for PGL_2, Euler products, and count fitting.

At a finite place q, integrating H^{-s} over the group with vol(U) = 1
reduces to a sum over Cartan cells U a_k U: the cell at level k has local
height q^k and exact integer volume 1 (k = 0) or q^{k-1}(q+1) (k >= 1),
given by ``cell_volume`` alone (the zeta payloads, the cell model and the
L^p probe all read it), so

    Z_q(s) = 1 + (1 + q^{-1}) sum_{k>=1} q^k q^{-ks}
           = (1 + t) / (1 - q t),   t = q^{-s},

an exact rational function; it serves `zeta --at` and the Cartan-cell
model.  The full Euler product over primes equals zeta(s-1) zeta(s)/zeta(2s),
with a simple pole at s = 2 coming entirely from the zeta(s-1) part.
Regularizing each factor by (1 - p^{1-s}) turns it into exactly 1 + p^{-s},
so the residue multiplies those closed forms directly and restores the pole
through the zeta(s-1) comparison factor.  That product runs in fixed-point
Python integers with one exponential per prime: on a sample grid with
smallest s - 2 = h0, p^{-s} is p^{-2} times a power of E = p^{-h0} times
a remainder factor that is a short Taylor series on halving grids.  It
agrees with one 50-digit mp.exp per prime and sample to about 1e-49
relative, so the residue's floats are the same as with that product.

At the real place the group integral in KAK coordinates, parametrized by
the singular-value ratio u >= 1 with radial density (u - 1/u)/u du and both
components weighted equally, is 2 int_0^1 (1 - v^2) v^{s-2} dv = 4/(s^2 - 1)
in closed form (v = 1/u).  Its overall normalization (the archimedean Haar
scale) is a calibration constant, never asserted a priori.

The Tauberian side goes the other way: given an empirical grid (T, N(T)),
fit N / (T^a (log T)^(b-1)) against c (1 + d / log T) and, in diagnostic
mode, a free growth exponent; exponents that make either fit non-finite
are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import log_int_fixed
from mpmath.libmp.libelefun import exp_fixed, ln2_fixed

from .heights import MeasureConvention, _is_prime

__all__ = [
    "LocalFactor",
    "ResidueEstimate",
    "FitResult",
    "ZetaError",
    "ResourceGuardError",
    "local_factor_pgl2_adjoint",
    "cell_volume",
    "model_cell_probabilities",
    "archimedean_factor",
    "residue_estimate",
    "tauberian_fit",
    "calibrate_archimedean_scale",
    "primes_below",
]

GROWTH_EXPONENT = Fraction(2)  # pole location of the PGL_2 adjoint zeta
_RESIDUE_DPS = 50  # working decimal digits of the residue extrapolation
# largest residue cutoff: below it the odd-number prime sieve takes 50 MB
# and the 5.8M primes 46 MB
_RESIDUE_CUTOFF_LIMIT = 10**8
# largest q^s of an exact local factor value, in bits: its numerator and
# denominator then have at most 19,729 digits each
_EXACT_BITS = 2**16
# fixed-point bits of the Euler product beyond mp.prec: its pi(P) < 2^23
# factors each round by a few ulps, and E^k's powering loses a few more
_GUARD_BITS = 32
# a remainder exponent below 2^-16 is summed as a Taylor series (at most
# about a dozen terms at 50 digits), a larger one calls exp_fixed
_TAYLOR_MIN_BITS = 16
# smallest fit grid: its points, and its largest over smallest threshold
_FIT_MIN_POINTS, _FIT_MIN_SPAN = 5, 10.0


class ZetaError(ValueError):
    pass


class ResourceGuardError(ValueError):
    """A requested count, residue cutoff or exact value exceeds its work or
    size limit; the one guard class, which the enumeration module raises too."""


def primes_below(n: int) -> np.ndarray:
    """The primes p < n in ascending order, as int64: a sieve of the odd
    numbers, a byte each, whose index array is turned into primes in place."""
    if n <= 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones(n // 2, dtype=bool)  # odd[i]: is 2i + 1 prime; odd[0] stands for 2
    for p in range(3, math.isqrt(n - 1) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


# --------------------------------------------------------------------------
# local factors


def cell_volume(q: int, k: int) -> int:
    """vol(U a_k U) under vol(U) = 1: 1 for k = 0, q^(k-1)(q+1) for k >= 1,
    the coefficient of q^{-ks} in the series form of Z_q(s)."""
    if k < 0:
        raise ZetaError("cell level must be >= 0")
    return 1 if k == 0 else q ** (k - 1) * (q + 1)


@dataclass(frozen=True)
class LocalFactor:
    """Local zeta factor Z_q(s) = (1 + t)/(1 - q t), t = q^{-s}; its series
    form is Z(s) = sum_k cell_volume(q, k) q^{-ks}."""

    q: int

    def evaluate_exact(self, s: int) -> Fraction:
        """Value at an integer s > 1, as an exact rational; q^s must have
        at most 2^16 bits."""
        if s <= 1:
            raise ZetaError("local factor diverges for s <= 1")
        if s * math.log2(self.q) > _EXACT_BITS:
            raise ResourceGuardError(f"{self.q}^{s} exceeds the exact limit of 2^16 bits")
        t = Fraction(1, self.q**s)
        return (1 + t) / (1 - self.q * t)

    def evaluate(self, s) -> mp.mpf:
        """Value at real s > 1 (mpmath float)."""
        s = mp.mpf(s)
        if s <= 1:
            raise ZetaError("local factor diverges for s <= 1")
        t = mp.power(self.q, -s)
        den = 1 - self.q * t
        if den <= 0:
            raise ZetaError("evaluation outside the convergence region")
        return (1 + t) / den


def local_factor_pgl2_adjoint(p: int) -> LocalFactor:
    """The exact local factor (1 + t)/(1 - q t) at q = p."""
    if not _is_prime(p):
        raise ZetaError(f"{p} is not prime")
    # a numpy integer, as primes_below gives, would overflow q^s
    return LocalFactor(q=int(p))


def model_cell_probabilities(p: int, kmax: int) -> tuple[dict[int, Fraction], Fraction]:
    """Limit frequencies of Cartan cells under the height-ball measure.

    P(k) = vol(U a_k U) q^{-2k} / Z_p(2), exact; returns ({k: P(k)}, tail)
    where tail is the exact mass beyond kmax, so the total is 1 exactly.
    """
    q = p
    z2 = local_factor_pgl2_adjoint(p).evaluate_exact(2)
    probs = {k: cell_volume(q, k) * Fraction(1, q ** (2 * k)) / z2 for k in range(kmax + 1)}
    # sum_{k>kmax} (1+1/q) q^{-k} / z2, geometric
    tail = Fraction(q + 1, q) * Fraction(1, q**kmax) * Fraction(1, q - 1) / z2
    return probs, tail


# --------------------------------------------------------------------------
# the archimedean factor


def archimedean_factor(s: float, convention: MeasureConvention | None = None) -> float:
    """scale * 2 * integral over u >= 1 of u^{-s} (u - 1/u)/u du.

    u is the singular-value ratio of the Cartan representative (also its
    adjoint height); the factor 2 counts both components of PGL_2(R).
    v = 1/u turns the integral into int_0^1 (1 - v^2) v^{s-2} dv =
    2/(s^2 - 1), so the factor is scale * 4/((s - 1)(s + 1)).  Diverges for
    s <= 1.
    """
    if convention is None:
        convention = MeasureConvention()
    if s <= 1:
        raise ZetaError("archimedean integral diverges for s <= 1")
    return convention.archimedean_scale * 4.0 / ((s - 1.0) * (s + 1.0))


# --------------------------------------------------------------------------
# Euler products and residue extraction


def _finite_parts(P: int, ss: Sequence[float]) -> list[mp.mpf]:
    """prod_{p<P} (1 + p^{-s}) for each s in ss, at the working precision:
    the Euler product regularized by (1 - p^{1-s}).

    The product runs in Python-integer fixed point with mp.prec +
    _GUARD_BITS fractional bits and one exponential per prime.  With
    h = s - 2, h0 = min h and k = round(h/h0),

        p^{-s} = p^{-2} E^k exp(-(h - k h0) log p),   E = p^{-h0},

    where E^k is a product of the squares E^(2^j).  The remainder
    h - k h0 is an exact binary number: on a halving grid such as the CLI's
    2 + 0.4/2^j it is a few ulps of s, and its exponential is a short Taylor
    series; a larger one goes through the full fixed-point exp.  Each
    factor is off by a few units of 2^-(mp.prec + _GUARD_BITS), so the
    product agrees with one mp.exp per prime and sample (the oracle in
    tests/oracles.py) to about 1e-49 relative.  That is far below what the
    floats of ``residue_estimate`` resolve, and they come out identical.
    """
    wp = mp.mp.prec + _GUARD_BITS
    one = 1 << wp
    ln2 = ln2_fixed(wp)
    hs = [Fraction(s) - 2 for s in ss]
    h0 = min(hs)
    ks = [round(h / h0) for h in hs]
    nsq = max(ks).bit_length()
    bits = [[j for j in range(nsq) if k >> j & 1] for k in ks]
    rests = [int((h - k * h0) * one) for h, k in zip(hs, ks)]  # exact
    taylor_max = one >> _TAYLOR_MIN_BITS
    acc = [one] * len(ss)
    for p in primes_below(P):
        p = int(p)  # one Python int at a time: the fixed point needs them
        log_p = log_int_fixed(p, wp)
        squares = [exp_fixed(-(h0.numerator * log_p) // h0.denominator, wp, ln2)]
        for _ in range(1, nsq):
            squares.append(squares[-1] ** 2 >> wp)
        p_2 = one // (p * p)
        for i, (js, rest) in enumerate(zip(bits, rests)):
            t = p_2
            for j in js:
                t = t * squares[j] >> wp
            x = -rest * log_p >> wp  # -(h - k h0) log p
            if abs(x) < taylor_max:  # t exp(x) = sum of t x^n / n!
                term, n = t, 0
                while term:
                    n += 1
                    term = (term * x >> wp) // n
                    t += term
            else:
                t = t * exp_fixed(x, wp, ln2) >> wp
            acc[i] = acc[i] * (one + t) >> wp
    return [mp.mpf((a, -wp)) for a in acc]


def _neville_at_zero(hs: Sequence[mp.mpf], vs: Sequence[mp.mpf]) -> list[mp.mpf]:
    """Polynomial extrapolation of (h, v) samples to h = 0; returns the
    diagonal of the Neville tableau (successive extrapolation orders)."""
    n = len(hs)
    tab = [list(vs)]
    for k in range(1, n):
        row = []
        for i in range(n - k):
            num = hs[i] * tab[k - 1][i + 1] - hs[i + k] * tab[k - 1][i]
            row.append(num / (hs[i] - hs[i + k]))
        tab.append(row)
    return [tab[k][0] for k in range(n)]


@dataclass
class ResidueEstimate:
    value: float
    error: float
    converged: bool
    samples: list[tuple[float, float]]  # (s, (s-2) * regularized value at s)
    tail_bound: float


def residue_estimate(
    P: int,
    samples: Sequence[float],
    convention: MeasureConvention | None = None,
    include_archimedean: bool = True,
) -> ResidueEstimate:
    """Residue at s = 2 of the (regularized) global height zeta function.

    Evaluates (s-2) zeta(s-1) prod_{p<P}(1 + p^{-s}) Z_oo(s), where
    1 + p^{-s} = Z_p(s)(1 - p^{1-s}) is the regularized local factor, on a
    strictly decreasing sample grid s -> 2+ and Richardson-extrapolates in
    (s - 2).  The truncation beyond P is controlled by p^{-s} <= p^{-2}; its
    aggregate effect is reported as tail_bound.  A non-convergent
    extrapolation is flagged, never silently returned.  P must be >= 2;
    above 10^8 (a 96 MB sieve and primes) it raises ResourceGuardError.
    Since (s-2) zeta(s-1) -> 1, the limit has the closed form
    prod_{p<P}(1 + p^{-2}) Z_oo(2), which the extrapolation matches to
    1.5e-7 relative at P = 2000.
    """
    ss = [float(x) for x in samples]
    if len(ss) < 3:
        raise ZetaError("need at least 3 sample points")
    if any(x <= 2 for x in ss) or any(b >= a for a, b in zip(ss, ss[1:])):
        raise ZetaError("samples must strictly decrease toward 2")
    if P < 2:
        raise ZetaError(f"residue cutoff must be >= 2, got {P}")
    if P > _RESIDUE_CUTOFF_LIMIT:
        raise ResourceGuardError(
            f"residue cutoff {P} exceeds the limit {_RESIDUE_CUTOFF_LIMIT}"
        )
    with mp.workdps(_RESIDUE_DPS):
        hs = [mp.mpf(s) - 2 for s in ss]
        vs = []
        for s, finite in zip(ss, _finite_parts(P, ss)):
            v = (mp.mpf(s) - 2) * mp.zeta(mp.mpf(s) - 1) * finite
            if include_archimedean:
                v *= mp.mpf(archimedean_factor(s, convention))
            vs.append(v)
        diag = _neville_at_zero(hs, vs)
        best = diag[-1]
        last_step = abs(diag[-1] - diag[-2])
        scale_ref = abs(best) if best != 0 else mp.mpf(1)
        converged = bool(last_step <= mp.mpf("1e-4") * scale_ref)
        # sum_{p >= P} p^{-2} < 1/(P-1), relative effect on the product
        tail = float(mp.mpf(1) / (P - 1))
        return ResidueEstimate(
            value=float(best),
            error=float(last_step) + tail * float(scale_ref),
            converged=converged,
            samples=[(s, float(v)) for s, v in zip(ss, vs)],
            tail_bound=tail,
        )


# --------------------------------------------------------------------------
# Tauberian fitting of empirical counts


@dataclass
class FitResult:
    a_hat: float  # free-exponent diagnostic fit
    c_hat: float
    d_hat: float  # first-order log correction: c (1 + d / log T)
    residuals: list[float]
    grid: list[tuple[int, int]]


def tauberian_fit(
    grid: Sequence[tuple[int, int]],
    a: Fraction | float,
    b: int,
) -> FitResult:
    """Least-squares fit of N(T) = c T^a (log T)^(b-1) (1 + d / log T).

    Also reports the free-exponent fit of log N against log T (with the
    (b-1) log log T term removed) as a diagnostic a_hat.  An exponent past
    the float range, or a non-finite normalised count or fit, is a ZetaError.
    """
    pts = [(int(t), int(n)) for t, n in grid]
    if any(t2 <= t1 for (t1, _), (t2, _) in zip(pts, pts[1:])):
        raise ZetaError("grid thresholds must be strictly increasing")
    if len(pts) < _FIT_MIN_POINTS:
        raise ZetaError(f"degenerate grid: need at least {_FIT_MIN_POINTS} points")
    ts = np.array([t for t, _ in pts], dtype=float)
    ns = np.array([n for _, n in pts], dtype=float)
    if ts[-1] / ts[0] < _FIT_MIN_SPAN:
        raise ZetaError("degenerate grid: thresholds span too small a range")
    if np.any(ns <= 0):
        raise ZetaError("counts must be positive to fit")

    logt = np.log(ts)
    try:
        af, bf = float(a), float(b - 1)
    except OverflowError:
        raise ZetaError("a growth exponent overflows a float") from None
    # exponents far from the counts' own overflow or underflow the
    # normalisation; that is checked once below, not warned about
    with np.errstate(all="ignore"):
        y = ns / (ts**af * logt**bf)
        if not np.all(np.isfinite(y)):
            raise ZetaError(f"N / (T^a (log T)^(b-1)) is not finite at a = {a}, b = {b}")
        design = np.column_stack([np.ones_like(logt), 1.0 / logt])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        c_hat, e = float(coef[0]), float(coef[1])
        if c_hat <= 0:
            raise ZetaError("fit produced a non-positive leading constant")
        resid = [float(r) for r in y - design @ coef]

        z = np.log(ns) - bf * np.log(logt)
        slope_design = np.column_stack([logt, np.ones_like(logt)])
        sl, *_ = np.linalg.lstsq(slope_design, z, rcond=None)
        fit = FitResult(
            a_hat=float(sl[0]), c_hat=c_hat, d_hat=e / c_hat, residuals=resid, grid=pts
        )
    if not all(map(math.isfinite, (fit.a_hat, fit.c_hat, fit.d_hat, *resid))):
        raise ZetaError(f"the fit at a = {a}, b = {b} is not finite")
    return fit


def calibrate_archimedean_scale(
    empirical_c: float,
    residue_at_unit_scale: float,
    a: Fraction | float = GROWTH_EXPONENT,
) -> MeasureConvention:
    """Choose the archimedean scale so that residue/a reproduces the
    empirically fitted leading constant.  The residue is linear in the
    scale, so scale = empirical_c * a / residue(1)."""
    if empirical_c <= 0 or residue_at_unit_scale <= 0:
        raise ZetaError("calibration inputs must be positive")
    return MeasureConvention(
        archimedean_scale=empirical_c * float(a) / residue_at_unit_scale
    )
