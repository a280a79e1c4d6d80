import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import quad

from heightcount.heights import CartanCoordinates, Place, PrimitiveMatrix
from heightcount.mixing import (
    MixingError,
    XiEvaluation,
    evaluate_point,
    lp_probe,
    verify_bounds,
    xi_padic,
    xi_padic_squared,
    xi_real,
)
from oracles import hecke_recursion_residual, xi_global


# --------------------------------------------------------------------------
# p-adic kernel


def test_xi_padic_normalized_at_identity():
    for p in (2, 3, 5, 101):
        assert xi_padic(p, 0) == 1.0


def test_xi_padic_pinned_value():
    assert xi_padic(2, 1) == pytest.approx(4 / (3 * math.sqrt(2)), rel=1e-14)


def test_xi_padic_strictly_decreasing():
    for p in (2, 3, 5):
        vals = [xi_padic(p, n) for n in range(31)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 1 for v in vals)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hecke_recursion_certificate(p):
    for n in range(1, 51):
        assert hecke_recursion_residual(p, n) < 1e-12


def test_xi_padic_squared_is_exact_square():
    for p in (2, 3, 5):
        for n in range(12):
            assert float(xi_padic_squared(p, n)) == pytest.approx(
                xi_padic(p, n) ** 2, rel=1e-13
            )


# --------------------------------------------------------------------------
# real kernel


def test_xi_real_at_identity():
    assert xi_real(0.0) == 1.0


def test_xi_real_depends_only_on_abs():
    for t in (0.3, 1.7, 5.0):
        assert xi_real(-t) == xi_real(t)


def test_xi_real_against_elliptic_closed_form():
    # the defining integral reduces to a complete elliptic integral:
    # Xi(t) = (2/pi) e^{-t} K(1 - e^{-4t}), an independent evaluation path
    for t in (0.1, 0.5, 1.0, 3.0, 7.0, 15.0, 25.0, 40.0):
        closed = (2 / math.pi) * math.exp(-t) * sp.ellipkm1(math.exp(-4 * t))
        assert xi_real(t) == pytest.approx(closed, rel=1e-10)


def test_xi_real_against_direct_high_precision_quadrature():
    # raw K-average on [0, pi/2] with tanh-sinh nodes at high precision
    for t in (0.4, 2.0):
        with mp.workdps(40):
            f = lambda th: (
                mp.exp(2 * t) * mp.cos(th) ** 2 + mp.exp(-2 * t) * mp.sin(th) ** 2
            ) ** mp.mpf("-0.5")
            ref = float((2 / mp.pi) * mp.quad(f, [0, mp.pi / 2]))
        assert xi_real(t) == pytest.approx(ref, rel=1e-10)


def _xi_real_pieces(t: float, rel_tol: float = 1e-13) -> float:
    """Quadrature oracle: the K-average integral, rewritten piecewise so each
    piece is smooth.

    With eps = e^{-4t},
        I(t) = int_0^{pi/2} (cos^2 + eps sin^2)^{-1/2}
             = int_0^{Y} dy / sqrt(1 + eps sinh^2 y)          (u = tan = sinh y)
             + int_0^1 dx / sqrt((1 + eps x^2)(1 + x^2))      (w = 1/u = x sqrt(eps))
    where Y = asinh(eps^{-1/2}); then Xi(t) = (2/pi) e^{-t} I(t).
    """
    eps = math.exp(-4.0 * t)
    Y = math.asinh(1.0 / math.sqrt(eps))
    i1, e1 = quad(
        lambda y: 1.0 / math.sqrt(1.0 + eps * math.sinh(y) ** 2),
        0.0, Y, epsrel=rel_tol, epsabs=0.0, limit=200,
    )
    i2, e2 = quad(
        lambda x: 1.0 / math.sqrt((1.0 + eps * x * x) * (1.0 + x * x)),
        0.0, 1.0, epsrel=rel_tol, epsabs=0.0, limit=200,
    )
    assert (e1 + e2) <= 10 * rel_tol * (i1 + i2)
    return (2.0 / math.pi) * math.exp(-t) * (i1 + i2)


def test_xi_real_agm_matches_quadrature_oracle():
    # Gauss: the K-average is pi / (2 AGM(e^t, e^-t)); checked against the
    # smooth piecewise quadrature over the whole range the verifier meets
    for t in np.geomspace(1e-7, 40.0, 120):
        assert xi_real(t) == pytest.approx(_xi_real_pieces(t), rel=1e-12)


def test_xi_real_rejects_underflowing_argument():
    with pytest.raises(MixingError):
        xi_real(400.0)


def test_xi_real_strictly_decreasing():
    vals = [xi_real(t) for t in (0.0, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_xi_real_asymptotic_slope():
    # t e^{-t}-type decay: log xi / t drifts to -1 from above
    r20 = math.log(xi_real(20.0)) / 20.0
    r40 = math.log(xi_real(40.0)) / 40.0
    assert -1.0 < r40 < r20 < -0.8


# --------------------------------------------------------------------------
# global function


def identity():
    return PrimitiveMatrix(((1, 0), (0, 1)))


def test_xi_global_identity():
    assert xi_global(identity()) == pytest.approx(1.0, rel=1e-12)


def test_xi_global_diag_2_1_composes_local_factors():
    g = PrimitiveMatrix(((2, 0), (0, 1)))
    t = 0.5 * math.log(2.0)  # singular ratio 2 = e^{2t}
    expected = xi_padic(2, 1) * xi_real(t)
    assert xi_global(g) == pytest.approx(expected, rel=1e-10)
    assert xi_padic(2, 1) < 1 and xi_real(t) < 1


def test_xi_global_decreasing_along_diagonal_family():
    vals = [
        xi_global(PrimitiveMatrix(((2**k, 0), (0, 1)))) for k in range(0, 11)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_evaluate_point_levels_match_det_valuation():
    g = PrimitiveMatrix(((6, 0), (0, 1)))
    evs = {ev.place.p: ev for ev in evaluate_point(g) if ev.place.is_finite}
    assert set(evs) == {2, 3}
    assert evs[2].radial.exponents == (0, 1)
    assert evs[3].radial.exponents == (0, 1)
    assert evs[2].eta == 2.0 and evs[3].eta == 3.0


# --------------------------------------------------------------------------
# sandwich and probes


def test_lower_sandwich_exact_for_padic_kernel():
    # eta^{-1/2} <= xi_v, squared: q^{-n} <= xi^2, exact rationals
    for p in (2, 3, 5):
        for n in range(0, 41):
            assert xi_padic_squared(p, n) >= Fraction(1, p**n)


def test_verify_bounds_identity_sample():
    rep = verify_bounds([identity()], eps=0.1, m=4, lp_terms=40)
    assert rep.lower_sandwich_violations == 0
    assert rep.c_eps == pytest.approx(1.0, rel=1e-9)
    assert rep.c_height == pytest.approx(1.0, rel=1e-9)


def test_verify_bounds_diagonal_family_stable_c_eps():
    # xi eta^{1/2 - eps} rises to a single interior peak and then decays,
    # so the empirical constant saturates once the family passes the peak
    fam20 = [PrimitiveMatrix(((2**k, 0), (0, 1))) for k in range(21)]
    fam30 = [PrimitiveMatrix(((2**k, 0), (0, 1))) for k in range(31)]
    r20 = verify_bounds(fam20, eps=0.1, m=4, lp_terms=20)
    r30 = verify_bounds(fam30, eps=0.1, m=4, lp_terms=20)
    assert r20.lower_sandwich_violations == 0
    assert r30.lower_sandwich_violations == 0
    assert r30.c_eps == pytest.approx(r20.c_eps, rel=1e-9)
    assert math.isfinite(r30.c_eps)


def test_verify_bounds_rejects_empty_sample():
    with pytest.raises(MixingError):
        verify_bounds([], eps=0.1, m=2)


def test_lp_probe_trends():
    sums = lp_probe(2, exponents=(2.0, 2.5, 3.0), terms=200)
    div = sums[2.0]
    assert all(b > a for a, b in zip(div, div[1:]))
    assert div[-1] / div[0] > 50  # clear divergence trend
    conv = sums[3.0]
    assert abs(conv[-1] - conv[-2]) < 1e-8  # settled after 200 terms
    mid = sums[2.5]
    deltas = [b - a for a, b in zip(mid, mid[1:])]
    assert all(d > 0 for d in deltas)
    assert deltas[-1] < deltas[0]  # converging, if slowly


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_lp_probe_matches_fraction_volume_sums(p):
    # the per-term expression lp_probe used before it shared one int volume
    # and one kernel value per k across exponents: the sums must not move
    # by a bit, since cached mixing-probe payloads are compared byte for byte
    from heightcount.zeta import cell_volume

    exponents = (2.0, 2.5, 3.0)
    want = {}
    for e in exponents:
        acc, snaps = 0.0, []
        for k in range(201):
            acc += float(cell_volume(p, k)) * xi_padic(p, k) ** e
            if k % 20 == 0 and k > 0:
                snaps.append(acc)
        want[e] = snaps
    assert repr(lp_probe(p, exponents, 200)) == repr(want)


def test_lp_probe_float_overflow_is_a_mixing_error():
    # 37^199 * 38, the cell volume of term 200, is past the float range
    lp_probe(31)
    with pytest.raises(MixingError, match="overflow"):
        lp_probe(37)
    assert len(lp_probe(37, terms=180)[2.0]) == 9


def test_lp_probe_rejects_non_primes():
    for bad in (1, 4, 9):
        with pytest.raises(MixingError, match="not prime"):
            lp_probe(bad)


def test_verify_bounds_rejects_non_prime_before_sampling():
    def sample():
        raise AssertionError("the sample was read before the prime was checked")
        yield

    with pytest.raises(MixingError, match="not prime"):
        verify_bounds(sample(), eps=0.1, m=4, lp_prime=4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_eps_and_exponents_are_rejected_before_sampling(bad):
    def sample():
        raise AssertionError("the sample was read before eps was checked")
        yield

    with pytest.raises(MixingError, match="finite"):
        verify_bounds(sample(), eps=bad, m=4)
    with pytest.raises(MixingError, match="finite"):
        verify_bounds(sample(), eps=0.1, m=4, lp_exponents=(2.0, bad))
    with pytest.raises(MixingError, match="finite"):
        lp_probe(2, exponents=(bad,))


def test_xi_evaluation_validation():
    with pytest.raises(MixingError):
        XiEvaluation(
            place=Place.prime(2),
            radial=CartanCoordinates(Place.prime(2), exponents=(0, 1)),
            xi=1.5,
            eta=2.0,
        )
    with pytest.raises(MixingError):
        XiEvaluation(
            place=Place.prime(2),
            radial=CartanCoordinates(Place.prime(2), exponents=(0, 1)),
            xi=0.5,
            eta=0.5,
        )


def test_properness_max_xi_decreases_on_height_shells(exhaustive_sample_10):
    from heightcount.heights import adjoint_rep, global_height

    shells: dict[int, float] = {}
    for g in exhaustive_sample_10[::7]:  # subsample for speed, deterministic
        M, _ = adjoint_rep(g)
        h = global_height(M)
        j = h.bit_length() - 1
        x = xi_global(g)
        shells[j] = max(shells.get(j, 0.0), x)
    js = sorted(shells)
    assert len(js) >= 4
    for a, b in zip(js, js[1:]):
        assert shells[b] < shells[a]
