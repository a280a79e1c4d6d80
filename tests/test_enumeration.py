import functools
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
import mpmath

from heightcount.enumeration import (
    CartanHistogram,
    EnumerationError,
    HeightSpectrum,
    IncompleteSpectrumError,
    ResourceGuardError,
    cartan_statistics,
    convolve_counts,
    count_projective,
    scan_pgl2_adjoint,
    _val_table,
)
from heightcount.heights import adjoint_rep, global_height, smith_exponents


# --------------------------------------------------------------------------
# projective space


def brute_projective(n, T):
    counts = {}
    for v in itertools.product(range(-(T - 1), T), repeat=n + 1):
        first = next((x for x in v if x), None)
        if first is None or first < 0:
            continue
        g = 0
        for x in v:
            g = math.gcd(g, x)
        if g != 1:
            continue
        h = max(abs(x) for x in v)
        counts[h] = counts.get(h, 0) + 1
    return counts


# The enumerator count_projective used before the Moebius identity:
# canonical representatives (first nonzero entry positive) with the last
# coordinate vectorized.  Kept here as an exact oracle.


def recursive_projective(n, T):
    """Height counts of P^n(Q) points with height < T, by enumeration.

    Height and gcd are even in the last coordinate, so it runs over y >= 0
    with y > 0 counted for both signs whenever the prefix already fixed
    the canonical sign.
    """
    if T == 1:
        return {}
    last = np.arange(0, T, dtype=np.int64)
    buckets = np.zeros(T, dtype=np.int64)

    def rec(prefix_gcd, prefix_max, depth, sign_fixed):
        if depth == n:
            if not sign_fixed:
                buckets[1] += 1  # the single point (0, ..., 0, 1)
                return
            g = np.gcd(prefix_gcd, last)
            h = np.maximum(prefix_max, last)
            ok = g == 1
            hsel = h[ok]
            np.add(buckets, 2 * np.bincount(hsel, minlength=T), out=buckets)
            if ok[0]:  # y = 0 has no sign partner
                buckets[prefix_max] -= 1
            return
        lo = 0 if not sign_fixed else -(T - 1)
        for x in range(lo, T):
            rec(
                math.gcd(prefix_gcd, abs(x)),
                max(prefix_max, abs(x)),
                depth + 1,
                sign_fixed or x > 0,
            )

    rec(0, 0, 0, False)
    return {h: int(c) for h, c in enumerate(buckets) if c and h >= 1}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("T", [1, 2, 3, 6, 9])
def test_projective_matches_brute_force(n, T):
    assert count_projective(n, T).counts == brute_projective(n, T)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_projective_matches_brute_force_high_n(n, T):
    assert count_projective(n, T).counts == brute_projective(n, T)


@pytest.mark.parametrize("n,T", [(1, 3000), (2, 128), (3, 40), (4, 20)])
def test_projective_matches_recursive_oracle(n, T):
    assert count_projective(n, T).counts == recursive_projective(n, T)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projective_schanuel_constant(n):
    # Schanuel: N(t) ~ 2^n / zeta(n+1) t^(n+1)
    s = count_projective(n, 10**4)
    const = 2**n / float(mpmath.zeta(n + 1))
    for t in (5000, 10**4):
        assert abs(s.count_below(t) / t ** (n + 1) / const - 1) < 1e-3


def test_projective_pinned_examples():
    assert count_projective(1, 2).total == 4
    assert count_projective(2, 2).total == 13
    assert count_projective(1, 1).total == 0


def test_projective_spectrum_consistency():
    s = count_projective(1, 50)
    for t in (1, 2, 10, 37, 50):
        assert s.count_below(t) == count_projective(1, t).total
    assert s.total == s.count_below(50)


def test_projective_resource_guard():
    # beyond the (n+1) T limit: rejected before anything is allocated
    for n, T in ((1, 10**12), (10**7, 10)):
        t0 = time.perf_counter()
        with pytest.raises(ResourceGuardError):
            count_projective(n, T)
        assert time.perf_counter() - t0 < 0.1


def test_projective_rejects_bad_args():
    with pytest.raises(EnumerationError):
        count_projective(0, 10)
    with pytest.raises(EnumerationError):
        count_projective(1, 0)


# --------------------------------------------------------------------------
# PGL_2 adjoint enumeration


def brute_pgl2(T, bound, primes=()):
    """Independent oracle: canonical primitive det != 0 matrices by direct
    per-matrix height and Smith computation."""
    counts = {}
    hists = {p: {} for p in primes}
    for a, b, c, d in itertools.product(range(-bound, bound + 1), repeat=4):
        first = next((x for x in (a, b, c, d) if x), None)
        if first is None or first < 0:
            continue
        if a * d - b * c == 0:
            continue
        if math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d))) != 1:
            continue
        M, _ = adjoint_rep([[a, b], [c, d]])
        h = int(global_height(M).value)
        if h >= T:
            continue
        counts[h] = counts.get(h, 0) + 1
        for p in primes:
            k = smith_exponents(M, p).exponents[1]
            hists[p][k] = hists[p].get(k, 0) + 1
    return counts, hists


# The scan this package used before the fundamental-domain scan: signed
# entries (a, b, c, d) in [-B, B]^4, canonical sign, halved only by
# (b, c) -> (-b, -c).  Kept here as an exact oracle.


def _signed_entry_slice(a_values, B, T, primes, vluts, kmaxs, bchunk=48):
    rng = np.arange(-B, B + 1, dtype=np.int32)
    C2d = rng[:, None]
    D2d = rng[None, :]
    gcd_cd = np.gcd(np.abs(C2d), np.abs(D2d)).astype(np.int32)
    abs1 = np.abs(rng)
    inner_max = np.maximum(np.maximum(C2d * C2d, D2d * D2d), 2 * np.abs(C2d * D2d))
    C3 = rng[None, :, None]
    D3 = rng[None, None, :]
    gcd_lut = np.gcd.outer(
        np.arange(B + 1, dtype=np.int32), np.arange(B + 1, dtype=np.int32)
    )
    height_counts = np.zeros(T, dtype=np.int64)
    joint = {p: np.zeros((kmaxs[p] + 1) * T, dtype=np.int64) for p in primes}

    def do(a: int, bs: np.ndarray, weight: int):
        b3 = bs[:, None, None]
        det = np.int32(a) * D3 - b3 * C3
        cross = np.abs(np.int32(a) * D3 + b3 * C3)  # |ad + bc|
        col_max = np.maximum(inner_max, abs(a) * abs1[:, None])
        H = np.maximum(col_max[None, :, :], cross)
        np.maximum(H, (np.abs(bs)[:, None] * abs1[None, :])[:, None, :], out=H)
        s_ab = np.maximum(a * a, np.maximum(bs * bs, 2 * np.abs(a * bs))).astype(np.int32)
        np.maximum(H, s_ab[:, None, None], out=H)
        mask = (H < T) & (det != 0)
        g_ab = gcd_lut[abs(a), np.abs(bs)]
        mask &= gcd_lut[g_ab[:, None, None], gcd_cd[None, :, :]] == 1
        hsel = H[mask].astype(np.int64)
        np.add(height_counts, weight * np.bincount(hsel, minlength=T), out=height_counts)
        if primes:
            dsel = np.abs(det[mask]).astype(np.int64)
            for p in primes:
                k = vluts[p][dsel]
                joint[p] += weight * np.bincount(
                    k * T + hsel, minlength=(kmaxs[p] + 1) * T
                )

    bpos = np.arange(1, B + 1, dtype=np.int32)
    for a in a_values:
        if a == 0:
            # canonical sign: a = 0 forces b >= 1
            for lo in range(0, B, bchunk):
                do(0, bpos[lo : lo + bchunk], 1)
        else:
            # b > 0 stands for both signs of (b, c)
            do(a, np.zeros(1, dtype=np.int32), 1)
            for lo in range(0, B, bchunk):
                do(a, bpos[lo : lo + bchunk], 2)
    return height_counts, joint


@functools.lru_cache(maxsize=None)
def signed_entry_scan(T, primes=(2, 3, 5)):
    """(height_counts, {p: joint}) of the signed-entry scan with the default
    radius floor(sqrt(T))."""
    B = max(1, math.isqrt(T))
    vluts = {p: _val_table(p, 2 * B * B) for p in primes}
    kmaxs = {p: int(vluts[p].max()) for p in primes}
    hc, joint = _signed_entry_slice(range(B + 1), B, T, primes, vluts, kmaxs)
    return hc, {p: joint[p].reshape(kmaxs[p] + 1, T) for p in primes}


@pytest.mark.parametrize("primes", [(), (2,), (2, 3, 5)])
@pytest.mark.parametrize("T", [1, 2, 5, 16, 17, 100, 1000, 2048, 4096])
def test_pgl2_scan_matches_signed_entry_oracle(T, primes):
    hc, joint = signed_entry_scan(T)
    for radius in (None, 2 * math.isqrt(T)):
        for threads in (1, 2, 3):
            scan = scan_pgl2_adjoint(T, primes, radius=radius, threads=threads)
            assert np.array_equal(scan.height_counts, hc)
            assert sorted(scan.joint) == list(primes)
            for p in primes:
                rows = joint[p].shape[0]
                if radius is None:
                    assert scan.joint[p].shape == joint[p].shape
                assert np.array_equal(scan.joint[p][:rows], joint[p])
                # a wider radius adds rows for larger |det| only; they stay empty
                assert not scan.joint[p][rows:].any()


def test_pgl2_t2_matches_exhaustive_signs():
    spectrum = scan_pgl2_adjoint(2).spectrum()
    ref, _ = brute_pgl2(2, 1)
    assert spectrum.counts == ref


def test_pgl2_t5_includes_diag_2_1():
    spectrum = scan_pgl2_adjoint(5).spectrum()
    # diag(2,1) has adjoint height 4 < 5
    assert 4 in spectrum.counts and spectrum.counts[4] >= 1
    ref, _ = brute_pgl2(5, 2)
    assert spectrum.counts == ref


def test_pgl2_t64_matches_brute_force_with_histograms():
    scan = scan_pgl2_adjoint(64, primes_tracked=(2, 3))
    ref_counts, ref_hists = brute_pgl2(64, 8, primes=(2, 3))
    assert scan.spectrum().counts == ref_counts
    assert scan.histogram(2).freq == ref_hists[2]
    assert scan.histogram(3).freq == ref_hists[3]


def test_pgl2_monotone_in_threshold():
    scan = scan_pgl2_adjoint(256)
    prev = 0
    for t in range(1, 257):
        cur = scan.spectrum(t).total
        assert cur >= prev
        prev = cur


@pytest.mark.parametrize("T", [64, 256])
def test_pgl2_completeness_radius_doubling(T):
    base = scan_pgl2_adjoint(T)
    wide = scan_pgl2_adjoint(T, radius=2 * math.isqrt(T))
    assert np.array_equal(base.height_counts, wide.height_counts)


def test_pgl2_thread_partition_determinism():
    one = scan_pgl2_adjoint(512, primes_tracked=(2, 3), threads=1)
    two = scan_pgl2_adjoint(512, primes_tracked=(2, 3), threads=2)
    three = scan_pgl2_adjoint(512, primes_tracked=(2, 3), threads=3)
    assert np.array_equal(one.height_counts, two.height_counts)
    assert np.array_equal(one.height_counts, three.height_counts)
    for p in (2, 3):
        assert np.array_equal(one.joint[p], two.joint[p])
        assert np.array_equal(one.joint[p], three.joint[p])


def test_pgl2_resource_guard():
    with pytest.raises(ResourceGuardError):
        scan_pgl2_adjoint(10**8)


def test_pgl2_guard_counts_reduced_cells():
    # B = 16: the cubes [0, x]^3 of (y, z, w) for x = 1..16
    cells = sum((x + 1) ** 3 for x in range(1, 17))
    assert scan_pgl2_adjoint(256, work_limit=cells).cells_visited == cells
    with pytest.raises(ResourceGuardError):
        scan_pgl2_adjoint(256, work_limit=cells - 1)


def test_pgl2_cells_visited_reduced_domain():
    B = math.isqrt(2048)
    scan = scan_pgl2_adjoint(2048, (2, 3), threads=2)
    assert scan.cells_visited == sum((x + 1) ** 3 for x in range(1, B + 1))
    assert scan.cells_visited <= (2 * B + 1) ** 4 / 16


def test_pgl2_int32_range_guard_fails_fast():
    # 2B^2 >= 2^31: heights and |det| would overflow int32; the guard trips
    # before the work guard and before anything is allocated
    with pytest.raises(EnumerationError, match="int32") as info:
        scan_pgl2_adjoint(2**20, (2,), radius=2**15, work_limit=10**40)
    assert not isinstance(info.value, ResourceGuardError)


def test_pgl2_rejects_tracked_primes_below_2():
    # p = 1 would never leave the p-power loops; v_4(det) of a composite
    # is no Cartan level either
    for bad in ((1,), (0, 2), (4,), (2, 9), (3, 2**32 + 1)):
        with pytest.raises(EnumerationError, match="primes"):
            scan_pgl2_adjoint(16, bad)


def test_pgl2_rejects_undercovering_radius():
    with pytest.raises(EnumerationError, match="cannot cover"):
        scan_pgl2_adjoint(256, radius=10)


# --------------------------------------------------------------------------
# spectra and convolution


def test_spectrum_validation_and_merge():
    s = HeightSpectrum({1: 4, 3: 2}, threshold=5)
    assert s.total == 6
    assert s.count_below(4) == 6
    assert s.count_below(2) == 4
    with pytest.raises(IncompleteSpectrumError):
        s.count_below(6)
    t = s.merge(HeightSpectrum({3: 1}, threshold=7))
    assert t.counts == {1: 4, 3: 3} and t.threshold == 5
    with pytest.raises(EnumerationError):
        HeightSpectrum({0: 1}, threshold=2)


def brute_convolve(s1, s2, w1, w2, T):
    total = 0
    for h1, c1 in s1.counts.items():
        for h2, c2 in s2.counts.items():
            if h1**w1 * h2**w2 < T:
                total += c1 * c2
    return total


@pytest.mark.parametrize("w1,w2", [(1, 1), (1, 2), (2, 1), (2, 3)])
def test_convolution_matches_double_loop(w1, w2):
    s = count_projective(1, 41)
    for T in (1, 2, 5, 17, 41):
        assert convolve_counts(s, s, w1, w2, T) == brute_convolve(s, s, w1, w2, T)


def test_convolution_symmetry():
    s1 = count_projective(1, 26)
    s2 = count_projective(2, 26)
    for T in (4, 25):
        assert convolve_counts(s1, s2, 1, 1, T) == convolve_counts(s2, s1, 1, 1, T)


def test_convolution_per_fiber_structure():
    # with w = (1, 2), the count decomposes as sum over h of N1 at the
    # induced budget with strict inequalities
    s = count_projective(1, 150)
    T = 150
    total = 0
    for h2, c2 in s.counts.items():
        if h2 * h2 >= T:
            continue
        budget = (T - 1) // (h2 * h2)
        total += c2 * s.count_below(budget + 1)
    assert convolve_counts(s, s, 1, 2, T) == total


def test_convolution_exact_past_int64():
    # P^20 counts pass 2^63 below height 10: the prefix sums stay exact
    s = count_projective(20, 10)
    assert max(s.counts.values()) > 2**63
    assert convolve_counts(s, s, 1, 1, 9) == brute_convolve(s, s, 1, 1, 9)


def test_convolution_rejects_incomplete_spectra():
    s_small = count_projective(1, 4)
    s_big = count_projective(1, 60)
    with pytest.raises(IncompleteSpectrumError):
        convolve_counts(s_big, s_small, 1, 1, 50)
    with pytest.raises(IncompleteSpectrumError):
        convolve_counts(s_small, s_big, 1, 1, 50)
    # completeness is judged against what the threshold actually requires:
    # with w1 = 2 the first factor only needs heights up to sqrt(T-1)
    assert convolve_counts(s_small, s_big, 2, 1, 10) == brute_convolve(
        s_small, s_big, 2, 1, 10
    )


def _int_root(x, k):
    r = int(round(x ** (1.0 / k)))
    while r > 0 and r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


@given(
    t=st.integers(min_value=1, max_value=120),
    w1=st.integers(min_value=1, max_value=3),
    w2=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_convolution_raises_exactly_when_incomplete(t, w1, w2):
    s = count_projective(1, 12)
    needs_more = t > 1 and (
        _int_root(t - 1, w1) >= s.threshold or _int_root(t - 1, w2) >= s.threshold
    )
    if needs_more:
        with pytest.raises(IncompleteSpectrumError):
            convolve_counts(s, s, w1, w2, t)
    else:
        assert convolve_counts(s, s, w1, w2, t) == brute_convolve(s, s, w1, w2, t)


# --------------------------------------------------------------------------
# Cartan statistics


def test_cartan_statistics_all_in_one_cell():
    stats = cartan_statistics(CartanHistogram(p=2, freq={0: 10}))
    assert stats == {0: Fraction(1)}


def test_cartan_statistics_sum_to_one_exactly():
    stats = cartan_statistics(CartanHistogram(p=3, freq={0: 5, 1: 7, 2: 1}))
    assert sum(stats.values()) == 1
    assert stats[1] == Fraction(7, 13)


def test_cartan_statistics_rejects_empty():
    with pytest.raises(EnumerationError):
        cartan_statistics(CartanHistogram(p=2, freq={}))
