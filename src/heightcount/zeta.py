"""Local height-zeta factors for PGL_2, Euler products, and count fitting.

At a finite place q, integrating H^{-s} over the group with vol(U) = 1
reduces to a sum over Cartan cells U a_k U: the cell at level k has exact
volume 1 (k = 0) or q^{k-1}(q+1) (k >= 1) and local height q^k, so

    Z_q(s) = 1 + (1 + q^{-1}) sum_{k>=1} q^k q^{-ks}
           = (1 + t) / (1 - q t),   t = q^{-s},

an exact rational function; it serves `zeta --at` and the Cartan-cell
model.  The full Euler product over primes equals zeta(s-1) zeta(s)/zeta(2s),
with a simple pole at s = 2 coming entirely from the zeta(s-1) part.
Regularizing each factor by (1 - p^{1-s}) turns it into exactly 1 + p^{-s},
so the residue multiplies those closed forms directly and restores the pole
through the zeta(s-1) comparison factor.

At the real place the group integral in KAK coordinates, parametrized by
the singular-value ratio u >= 1 with radial density (u - 1/u)/u du and both
components weighted equally, is 2 int_0^1 (1 - v^2) v^{s-2} dv = 4/(s^2 - 1)
in closed form (v = 1/u).  Its overall normalization (the archimedean Haar
scale) is a calibration constant, never asserted a priori.

The Tauberian side goes the other way: given an empirical grid (T, N(T)),
fit N / (T^a (log T)^(b-1)) against c (1 + d / log T) and, in diagnostic
mode, a free growth exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp
import numpy as np

from .heights import MeasureConvention, _is_prime

__all__ = [
    "LocalFactor",
    "ResidueEstimate",
    "FitResult",
    "ZetaError",
    "local_factor_pgl2_adjoint",
    "cell_volume",
    "cell_volume_oracle",
    "model_cell_probabilities",
    "archimedean_factor",
    "residue_estimate",
    "tauberian_fit",
    "calibrate_archimedean_scale",
    "primes_below",
]

GROWTH_EXPONENT = Fraction(2)  # pole location of the PGL_2 adjoint zeta


class ZetaError(ValueError):
    pass


def primes_below(n: int) -> list[int]:
    if n <= 2:
        return []
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


# --------------------------------------------------------------------------
# local factors


def cell_volume(q: int, k: int) -> Fraction:
    """vol(U a_k U) under vol(U) = 1: 1 for k = 0, q^(k-1)(q+1) for k >= 1."""
    if k < 0:
        raise ZetaError("cell level must be >= 0")
    return Fraction(1) if k == 0 else Fraction(q ** (k - 1) * (q + 1))


@dataclass(frozen=True)
class LocalFactor:
    """Local zeta factor as an exact rational function of t = q^{-s}.

    numerator/denominator hold integer coefficients in increasing powers
    of t; cell_volumes tabulates the cell measures entering the series form
    Z(s) = sum_k vol_k q^{-ks}.
    """

    q: int
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    cell_volumes: tuple[Fraction, ...]

    def _poly(self, coeffs, t):
        acc = 0 * t
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    def evaluate_exact(self, s: int) -> Fraction:
        """Value at an integer s > 1, as an exact rational."""
        if s <= 1:
            raise ZetaError("local factor diverges for s <= 1")
        t = Fraction(1, self.q**s)
        den = self._poly(self.denominator, t)
        if den <= 0:
            raise ZetaError("evaluation outside the convergence region")
        return self._poly(self.numerator, t) / den

    def evaluate(self, s) -> mp.mpf:
        """Value at real s > 1 (mpmath float)."""
        s = mp.mpf(s)
        if s <= 1:
            raise ZetaError("local factor diverges for s <= 1")
        t = mp.power(self.q, -s)
        den = self._poly(self.denominator, t)
        if den <= 0:
            raise ZetaError("evaluation outside the convergence region")
        return self._poly(self.numerator, t) / den


def local_factor_pgl2_adjoint(p: int, kmax: int = 12) -> LocalFactor:
    """The exact local factor (1 + t)/(1 - q t) at q = p, with cell volumes."""
    if not _is_prime(p):
        raise ZetaError(f"{p} is not prime")
    return LocalFactor(
        q=p,
        numerator=(1, 1),
        denominator=(1, -p),
        cell_volumes=tuple(cell_volume(p, k) for k in range(kmax + 1)),
    )


def cell_volume_oracle(p: int, k: int, guard: int = 10**6) -> Fraction:
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
    if p**k > guard:
        raise ZetaError(f"p^k = {p ** k} exceeds the enumeration guard {guard}")
    count = 0
    for a in range(k + 1):
        d1, d2 = p**a, p ** (k - a)
        for b in range(d1):
            if math.gcd(math.gcd(d1, b), d2) == 1:
                count += 1
    return Fraction(count)


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
    the Euler product regularized by (1 - p^{1-s}).  Primes and their logs
    are computed once for all s."""
    neg_logs = [-mp.log(p) for p in primes_below(P)]
    out = []
    for s in ss:
        sm = mp.mpf(s)
        out.append(mp.fprod(1 + mp.exp(sm * nl) for nl in neg_logs))
    return out


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
    dps: int = 50,
    include_archimedean: bool = True,
) -> ResidueEstimate:
    """Residue at s = 2 of the (regularized) global height zeta function.

    Evaluates (s-2) zeta(s-1) prod_{p<P}(1 + p^{-s}) Z_oo(s), where
    1 + p^{-s} = Z_p(s)(1 - p^{1-s}) is the regularized local factor, on a
    strictly decreasing sample grid s -> 2+ and Richardson-extrapolates in
    (s - 2).  The truncation beyond P is controlled by p^{-s} <= p^{-2}; its
    aggregate effect is reported as tail_bound.  A non-convergent
    extrapolation is flagged, never silently returned.  P must be >= 2.
    """
    ss = [float(x) for x in samples]
    if len(ss) < 3:
        raise ZetaError("need at least 3 sample points")
    if any(x <= 2 for x in ss) or any(b >= a for a, b in zip(ss, ss[1:])):
        raise ZetaError("samples must strictly decrease toward 2")
    if P < 2:
        raise ZetaError(f"residue cutoff must be >= 2, got {P}")
    with mp.workdps(dps):
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
    b_input: int
    c_hat: float
    d_hat: float  # first-order log correction: c (1 + d / log T)
    residuals: list[float]
    grid: list[tuple[int, int]]


def tauberian_fit(
    grid: Sequence[tuple[int, int]],
    a: Fraction | float,
    b: int,
    min_points: int = 5,
    min_span: float = 10.0,
) -> FitResult:
    """Least-squares fit of N(T) = c T^a (log T)^(b-1) (1 + d / log T).

    Also reports the free-exponent fit of log N against log T (with the
    (b-1) log log T term removed) as a diagnostic a_hat.
    """
    pts = [(int(t), int(n)) for t, n in grid]
    if any(t2 <= t1 for (t1, _), (t2, _) in zip(pts, pts[1:])):
        raise ZetaError("grid thresholds must be strictly increasing")
    if len(pts) < min_points:
        raise ZetaError(f"degenerate grid: need at least {min_points} points")
    ts = np.array([t for t, _ in pts], dtype=float)
    ns = np.array([n for _, n in pts], dtype=float)
    if ts[-1] / ts[0] < min_span:
        raise ZetaError("degenerate grid: thresholds span too small a range")
    if np.any(ns <= 0):
        raise ZetaError("counts must be positive to fit")

    logt = np.log(ts)
    af = float(a)
    y = ns / (ts**af * logt ** (b - 1))
    design = np.column_stack([np.ones_like(logt), 1.0 / logt])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    c_hat, e = float(coef[0]), float(coef[1])
    if c_hat <= 0:
        raise ZetaError("fit produced a non-positive leading constant")
    resid = list(y - design @ coef)

    z = np.log(ns) - (b - 1) * np.log(logt)
    slope_design = np.column_stack([logt, np.ones_like(logt)])
    sl, *_ = np.linalg.lstsq(slope_design, z, rcond=None)
    return FitResult(
        a_hat=float(sl[0]),
        b_input=int(b),
        c_hat=c_hat,
        d_hat=e / c_hat,
        residuals=[float(r) for r in resid],
        grid=pts,
    )


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
