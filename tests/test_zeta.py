import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from heightcount.heights import MeasureConvention
from heightcount.zeta import (
    ZetaError,
    _finite_parts,
    _neville_at_zero,
    archimedean_factor,
    calibrate_archimedean_scale,
    cell_volume,
    cell_volume_oracle,
    local_factor_pgl2_adjoint,
    model_cell_probabilities,
    primes_below,
    residue_estimate,
    tauberian_fit,
)


# --------------------------------------------------------------------------
# local factors


def series_partial(lf, s, K: int):
    """Partial sum over cells k <= K of vol_k q^{-ks} (mpmath float): the
    series form of a local factor, an oracle for its rational form."""
    s = mp.mpf(s)
    total = mp.mpf(0)
    for k in range(K + 1):
        vol = cell_volume(lf.q, k)
        total += mp.mpf(vol.numerator) / vol.denominator * mp.power(lf.q, -k * s)
    return total


def test_local_factor_exact_values():
    assert local_factor_pgl2_adjoint(2).evaluate_exact(2) == Fraction(5, 2)
    assert local_factor_pgl2_adjoint(3).evaluate_exact(2) == Fraction(5, 3)
    # closed form (q^2+1)/(q^2-q) at s = 2
    for p in (2, 3, 5, 7, 11):
        assert local_factor_pgl2_adjoint(p).evaluate_exact(2) == Fraction(
            p * p + 1, p * p - p
        )


def test_local_factor_tends_to_one():
    for p in (2, 5):
        lf = local_factor_pgl2_adjoint(p)
        assert abs(lf.evaluate(40.0) - 1) < 1e-10
        vals = [lf.evaluate(s) for s in (2.0, 3.0, 5.0, 10.0)]
        assert all(a > b > 1 for a, b in zip(vals, vals[1:]))


def test_local_factor_diverges_at_one():
    lf = local_factor_pgl2_adjoint(2)
    with pytest.raises(ZetaError):
        lf.evaluate_exact(1)
    # (s-1)-damped partial sums stay bounded approaching 1, blow up at 1
    ss = [1.5, 1.25, 1.1, 1.05]
    damped = [(s - 1) * float(series_partial(lf, s, 2000)) for s in ss]
    assert max(damped) < 10
    assert float(series_partial(lf, 1.0, 500)) > 100


def test_series_agrees_with_rational_form():
    # tail after K terms is (1+1/q) q^{-(K+1)(s-1)} / (1 - q^{-(s-1)}),
    # within 1.5 q^{-K(s-1)} on this grid
    with mp.workdps(50):
        for p in (2, 3, 5):
            lf = local_factor_pgl2_adjoint(p)
            for s in (2.1, 2.5, 3.0):
                for K in (10, 25, 40):
                    err = abs(series_partial(lf, s, K) - lf.evaluate(s))
                    floor = mp.mpf(10) ** (-45)  # working-precision noise
                    assert err < max(1.5 * mp.mpf(p) ** (-K * (mp.mpf(s) - 1)), floor)


def test_local_factor_rejects_non_primes():
    for bad in (0, 1, 4, 6, 9, 91):
        with pytest.raises(ZetaError, match="not prime"):
            local_factor_pgl2_adjoint(bad)
        with pytest.raises(ZetaError, match="not prime"):
            model_cell_probabilities(bad, 3)


def test_euler_regularity_identity():
    # Z_p(s)(1 - p^{1-s}) = 1 + p^{-s} exactly, so the deviation from 1 is
    # p^{-s} <= 4 p^{-s} on the whole range
    for p in (2, 3, 97):
        lf = local_factor_pgl2_adjoint(p)
        for s in (2, 3):
            t = Fraction(1, p**s)
            val = lf.evaluate_exact(s) * (1 - Fraction(p, p**s))
            assert val == 1 + t
    for p in primes_below(10**4):
        lf = local_factor_pgl2_adjoint(p)
        for s in (2.0, 2.5, 3.0):
            dev = abs(float(lf.evaluate(s)) * (1 - p ** (1 - s)) - 1)
            assert dev <= 4 * p ** (-s)


# --------------------------------------------------------------------------
# cell volumes


def test_cell_volume_oracle_examples():
    assert cell_volume_oracle(2, 0) == 1
    assert cell_volume_oracle(2, 1) == 3
    assert cell_volume_oracle(3, 2) == 12


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_cell_volume_formula_matches_oracle(p, k):
    assert cell_volume(p, k) == cell_volume_oracle(p, k)


def test_cell_volume_oracle_guard():
    with pytest.raises(ZetaError):
        cell_volume_oracle(1009, 3)


def test_model_cell_probabilities_sum_to_one():
    for p in (2, 3, 5, 7):
        for kmax in (0, 3, 10):
            probs, tail = model_cell_probabilities(p, kmax)
            assert sum(probs.values()) + tail == 1
    probs, _ = model_cell_probabilities(2, 2)
    assert probs[0] == Fraction(2, 5)
    assert probs[1] == Fraction(3, 10)
    probs3, _ = model_cell_probabilities(3, 1)
    assert probs3[0] == Fraction(3, 5)


# --------------------------------------------------------------------------
# archimedean factor


def test_archimedean_matches_closed_form():
    # int_1^oo u^{-s}(1 - u^{-2}) du = 2/(s^2-1), so the factor is 4 s /(s^2-1)
    # times the scale -- with the 2-component factor, 4 scale/(s^2-1)
    for s in (1.5, 2.0, 3.0, 10.0):
        assert archimedean_factor(s) == pytest.approx(4.0 / (s * s - 1), rel=1e-8)
    conv = MeasureConvention(archimedean_scale=2.5)
    assert archimedean_factor(2.0, conv) == pytest.approx(2.5 * 4.0 / 3.0, rel=1e-8)


def test_archimedean_matches_quadrature_oracle():
    # int_0^1 (1 - v^2) v^{s-2} dv with the endpoint weight v^{s-2} handed
    # to the algebraic-weight rule, which stays accurate close to the pole
    for s in 2.0 + np.geomspace(1e-6, 1.0, 60):
        val, err = quad(
            lambda v: 1.0 - v * v, 0.0, 1.0, weight="alg", wvar=(s - 2.0, 0.0),
            epsrel=1e-13, epsabs=0.0,
        )
        assert err <= 1e-12 * val
        assert archimedean_factor(s) == pytest.approx(2.0 * val, rel=1e-12)


def test_archimedean_monotone_and_vanishing():
    vals = [archimedean_factor(s) for s in (1.2, 1.5, 2.0, 4.0, 12.0, 40.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # only the height-1 core survives; the decay is the 1/(s^2) of its edge
    assert vals[-1] == pytest.approx(4.0 / (40.0**2 - 1), rel=1e-6)


def test_archimedean_pole_order_one():
    # (s-1) * value stays bounded as s drops to 1 (local exponent is 1)
    for s in (1.01, 1.001, 1.0001):
        assert 1.8 < (s - 1) * archimedean_factor(s) < 2.2


def test_archimedean_divergence_error():
    with pytest.raises(ZetaError):
        archimedean_factor(1.0)
    with pytest.raises(ZetaError):
        archimedean_factor(0.5)


# --------------------------------------------------------------------------
# Euler product and residue


def test_finite_part_converges_in_cutoff():
    with mp.workdps(50):
        vals = [float(_finite_parts(P, [2.5])[0]) for P in (100, 1000, 10000)]
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
    assert abs(vals[2] - vals[1]) < 1e-4


def old_path_residue(P, samples, include_archimedean=True):
    """(value, error) of the residue with each regularized local factor taken
    as LocalFactor.evaluate(s) (1 - p^{1-s}) at 50 digits: the rational-form
    Euler product that 1 + p^{-s} replaces."""
    with mp.workdps(50):
        hs, vs = [], []
        for s in samples:
            sm = mp.mpf(s)
            finite = mp.mpf(1)
            for p in primes_below(P):
                finite *= local_factor_pgl2_adjoint(p).evaluate(sm) * (1 - mp.power(p, 1 - sm))
            v = (sm - 2) * mp.zeta(sm - 1) * finite
            if include_archimedean:
                v *= mp.mpf(archimedean_factor(s))
            hs.append(sm - 2)
            vs.append(v)
        diag = _neville_at_zero(hs, vs)
        scale = abs(diag[-1])
        return float(diag[-1]), float(abs(diag[-1] - diag[-2])) + float(scale / (P - 1))


@pytest.mark.parametrize("include_archimedean", [True, False])
@pytest.mark.parametrize("P", [2, 3, 200, 2000])
def test_residue_matches_rational_form_oracle(P, include_archimedean):
    grid = [2 + 0.4 / 2**j for j in range(6)]
    value, error = old_path_residue(P, grid, include_archimedean)
    est = residue_estimate(P, grid, include_archimedean=include_archimedean)
    assert est.value == pytest.approx(value, rel=1e-12, abs=0)
    assert est.error == pytest.approx(error, rel=1e-12, abs=0)


def test_residue_of_zeta_surrogate_is_one():
    est = residue_estimate(2, [2.4, 2.2, 2.1, 2.05, 2.025], include_archimedean=False)
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_residue_matches_closed_form():
    # full product = zeta(s-1) zeta(s)/zeta(2s) times 4 scale/(s^2-1):
    # residue at 2 is (zeta(2)/zeta(4)) * (4/3) = 20/pi^2 at unit scale
    est = residue_estimate(2000, [2 + 0.4 / 2**j for j in range(6)])
    assert est.converged
    assert abs(est.value - 20 / math.pi**2) < 2e-3
    assert abs(est.value - 20 / math.pi**2) < 3 * est.error + 1e-6


def test_residue_cutoff_consistency():
    grid = [2 + 0.4 / 2**j for j in range(6)]
    lo = residue_estimate(1000, grid)
    hi = residue_estimate(10000, grid)
    assert abs(lo.value - hi.value) <= lo.error + hi.error


def test_residue_scales_linearly():
    grid = [2 + 0.4 / 2**j for j in range(5)]
    one = residue_estimate(200, grid)
    two = residue_estimate(200, grid, convention=MeasureConvention(archimedean_scale=2.0))
    assert two.value == pytest.approx(2 * one.value, rel=1e-9)


def test_residue_input_validation():
    with pytest.raises(ZetaError):
        residue_estimate(100, [2.1, 2.2, 2.3])  # not decreasing
    with pytest.raises(ZetaError):
        residue_estimate(100, [2.2, 2.1])  # too few
    with pytest.raises(ZetaError):
        residue_estimate(100, [2.2, 2.1, 2.0])  # touches the pole
    for cutoff in (1, 0, -5):  # no prime product and no tail bound
        with pytest.raises(ZetaError, match="cutoff"):
            residue_estimate(cutoff, [2.3, 2.2, 2.1])


# --------------------------------------------------------------------------
# Tauberian fitting


def test_fit_exact_power_law():
    grid = [(t, 3 * t * t) for t in (10, 30, 100, 300, 1000, 3000)]
    fit = tauberian_fit(grid, 2, 1)
    assert fit.c_hat == pytest.approx(3.0, abs=1e-9)
    assert fit.a_hat == pytest.approx(2.0, abs=1e-6)
    assert max(abs(r) for r in fit.residuals) < 1e-9


def test_fit_exact_log_model():
    grid = [(t, int(t * t * math.log(t))) for t in (100, 400, 1600, 6400, 25600, 102400)]
    fit = tauberian_fit(grid, 2, 2)
    assert fit.c_hat == pytest.approx(1.0, abs=1e-4)


def test_fit_recovers_log_correction():
    c, d = 5.0, -0.8
    grid = [(t, int(c * t * t * (1 + d / math.log(t)))) for t in (64, 256, 1024, 4096, 16384, 65536)]
    fit = tauberian_fit(grid, 2, 1)
    assert fit.c_hat == pytest.approx(c, rel=1e-3)
    assert fit.d_hat == pytest.approx(d, rel=1e-2)


def test_fit_rejects_degenerate_grids():
    with pytest.raises(ZetaError):
        tauberian_fit([(10, 100), (20, 400), (40, 1600)], 2, 1)  # too few
    with pytest.raises(ZetaError):
        tauberian_fit([(10, 1), (11, 1), (12, 1), (13, 1), (14, 1)], 2, 1)  # span
    with pytest.raises(ZetaError):
        tauberian_fit([(10, 1), (10, 1), (12, 1), (13, 1), (140, 1)], 2, 1)  # order


# --------------------------------------------------------------------------
# calibration


def test_calibration_fixed_point():
    residue = 20 / math.pi**2
    conv = calibrate_archimedean_scale(residue / 2, residue)
    assert conv.archimedean_scale == pytest.approx(1.0, rel=1e-12)


def test_calibration_linearity():
    residue = 1.7
    c1 = calibrate_archimedean_scale(0.4, residue).archimedean_scale
    c2 = calibrate_archimedean_scale(0.8, residue).archimedean_scale
    assert c2 == pytest.approx(2 * c1, rel=1e-12)


def test_calibration_round_trip_through_residue():
    # calibrate, then a forward residue run at the calibrated scale must
    # reproduce the empirical constant
    grid = [2 + 0.4 / 2**j for j in range(6)]
    base = residue_estimate(500, grid)
    target_c = 5.2
    conv = calibrate_archimedean_scale(target_c, base.value)
    forward = residue_estimate(500, grid, convention=conv)
    assert forward.value / 2 == pytest.approx(target_c, rel=1e-6)


def test_calibration_rejects_nonpositive():
    with pytest.raises(ZetaError):
        calibrate_archimedean_scale(0.0, 1.0)
    with pytest.raises(ZetaError):
        calibrate_archimedean_scale(1.0, -2.0)
