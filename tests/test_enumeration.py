import functools
import hashlib
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
from heightcount.zeta import primes_below


def nonzero(counts):
    """{index: count} of the nonzero entries of a count array."""
    return {i: int(c) for i, c in enumerate(counts) if c}


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
# two coordinates vectorized.  Kept here as an exact oracle.


def recursive_projective(n, T):
    """Height counts of P^n(Q) points with height < T, by enumeration.

    The first n - 1 coordinates are enumerated one by one; the last two,
    (x, y), run as a numpy box over x, y >= 0.  Height and gcd are even in
    each of them, so a nonzero x or y stands for both of its signs once the
    prefix has fixed the canonical sign.  With no sign fixed yet, x > 0
    fixes it, and x = 0 leaves y > 0 as the canonical sign.
    """
    if T == 1:
        return {}
    ys = np.arange(T, dtype=np.int64)
    wy = 1 + (ys > 0)
    rows = max(1, 2**16 // T)  # x rows per block, to bound memory at large T
    buckets = np.zeros(T, dtype=np.int64)

    def box(prefix_gcd, prefix_max, sign_fixed):
        for lo in range(0, T, rows):
            xs = ys[lo : lo + rows, None]
            ok = np.gcd(np.gcd(prefix_gcd, xs), ys) == 1
            h = np.maximum(np.maximum(prefix_max, xs), ys)
            if sign_fixed:
                w = (1 + (xs > 0)) * wy
            else:
                w = np.where(xs > 0, wy, 1)
            w = np.broadcast_to(w, ok.shape)
            buckets[:] += np.bincount(h[ok], weights=w[ok], minlength=T).astype(np.int64)

    def rec(prefix_gcd, prefix_max, depth, sign_fixed):
        if depth == n - 1:
            box(prefix_gcd, prefix_max, sign_fixed)
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
    assert nonzero(count_projective(n, T).counts) == brute_projective(n, T)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_projective_matches_brute_force_high_n(n, T):
    assert nonzero(count_projective(n, T).counts) == brute_projective(n, T)


@pytest.mark.parametrize("n,T", [(1, 3000), (2, 128), (3, 40), (4, 20)])
def test_projective_matches_recursive_oracle(n, T):
    assert nonzero(count_projective(n, T).counts) == recursive_projective(n, T)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projective_schanuel_constant(n):
    # Schanuel: N(t) ~ 2^n / zeta(n+1) t^(n+1)
    s = count_projective(n, 10**4)
    const = 2**n / float(mpmath.zeta(n + 1))
    for t in (5000, 10**4):
        assert abs(s.below(t).total / t ** (n + 1) / const - 1) < 1e-3


@pytest.mark.parametrize(
    "n,T,total,digest",
    [
        (2, 2**17, 7493083501091905,
         "2adccba3ab9328661f5158ed03ba64aaea61053292600ee270c05fd7aad0e3e8"),
        (5, 2**15, 38935255757773049208529177120,
         "d041713662777c0e44f9318048327a5f61b48c4e63802e6b42bec93a0e6f5e5f"),
        # counts past 2^63
        (20, 2**16, 146760325914080420784751159171224123355375663913667792099670492919921441143072136540859101688601639496008321,
         "1b59cf28e655f1faa875bfcfd1f7127e7fcafad66d8a15633b4ed6cc1fa6f62d"),
    ],
)
def test_projective_spectrum_digests(n, T, total, digest):
    # recorded from the sum over squarefree d of mu(d) f(h/d), before the
    # inversion ran one prime at a time; the CLI digests the "h,c" lines
    from heightcount.cli import _count

    count, text, _ = _count(f"projective:{n}", T, T, {})
    assert count == total
    assert hashlib.sha256(text().encode()).hexdigest() == digest


def test_projective_pinned_examples():
    assert count_projective(1, 2).total == 4
    assert count_projective(2, 2).total == 13
    assert count_projective(1, 1).total == 0


def test_projective_spectrum_consistency():
    s = count_projective(1, 50)
    for t in (1, 2, 10, 37, 50):
        assert s.below(t).total == count_projective(1, t).total
    assert s.total == s.below(50).total


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
        h = global_height(M)
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


# The scan this package used before the sweep counted Cartan rows: every
# cell (x, y, z, w) of the cubes [0, x]^3 of (y, z, w) under x = max entry,
# about B^4/4 of them.  Each orbit of the row and column swaps counts at its
# lexicographically largest point, weighted by its size; inside the cube
# (0 < y, z, w < x) a cell stands for 16 matrices under each eps, and the
# cells on its surface are weighted one by one.  Kept here as an exact
# oracle for the Cartan rows.

# cells per numpy block: int32 temporaries of 256 KB
_BLOCK_CELLS = 1 << 16


class _Tally:
    """Counts per height and, per prime, per (k, height) for k >= 1 (the
    k = 0 row is the total minus these, filled in at the end)."""

    def __init__(self, T, vluts, kmaxs):
        self.T = T
        self.vluts = vluts
        self.heights = np.zeros(T, dtype=np.int64)
        self.joint = {p: np.zeros((kmaxs[p], T), dtype=np.int64) for p in vluts}

    def add(self, h, det, weights=None):
        """Count matrices of height h and |det| det, one per entry or
        ``weights`` (aligned with h) of them."""
        self.heights += np.bincount(h, weights, self.T).astype(np.int64)
        for p, vlut in self.vluts.items():
            k = vlut[det]
            hit = k > 0
            w = None if weights is None else weights[hit]
            rows = self.joint[p]
            idx = (k[hit] - 1) * self.T + h[hit]
            rows += np.bincount(idx, w, rows.size).astype(np.int64).reshape(rows.shape)


def _tally_cells(tally, Hc, P, Q, w_minus=None, w_plus=None):
    """Count cells under both signs eps = sign(ad * bc): Hc is the height
    without the ad + bc entry (T where not counted), P = |ad|, Q = |bc|,
    w_minus and w_plus the canonical matrices per cell (one if None)."""
    T = tally.T
    S = P + Q  # eps = -: |det| = P + Q and |ad + bc| = |P - Q|
    D = np.abs(P - Q)  # eps = +: |det| = |P - Q| and |ad + bc| = P + Q
    H = np.maximum(Hc, D)
    keep = H < T
    h, s, d = H[keep], S[keep], D[keep]
    if w_minus is not None:
        w_minus, w_plus = w_minus[keep], w_plus[keep]
    tally.add(h, s, w_minus)
    h_plus = np.maximum(h, s)
    ok = (h_plus < T) & (d != 0)
    tally.add(h_plus[ok], d[ok], None if w_plus is None else w_plus[ok])


def _scan_bulk(x, gcd_lut, tally):
    """Cells with 1 <= y, z, w < x: x is the strict maximum, so the cell is
    the only point of its orbit in the domain and stands for 16 matrices
    under each eps; the tally counts cells, the factor 16 comes later."""
    T = tally.T
    if x < 2:
        return
    y = np.arange(1, x, dtype=np.int32)
    z = np.arange(1, x, dtype=np.int32)[:, None]
    w = np.arange(1, x, dtype=np.int32)[None, :]
    # primitivity needs only gcd(x, y) per y: one (z, w) table per divisor
    divs, row = np.unique(gcd_lut[x, 1:x], return_inverse=True)
    coprime = gcd_lut[divs[:, None, None], gcd_lut[z, w][None]] == 1
    table = np.where(coprime, np.maximum(x * x, 2 * z * w)[None], T).astype(np.int32)
    P = (x * w)[None]
    step = max(1, _BLOCK_CELLS // table[0].size)
    for lo in range(0, x - 1, step):
        ys = y[lo : lo + step]
        Hc = np.take(table, row[lo : lo + step], axis=0)
        np.maximum(Hc, (2 * x * ys)[:, None, None], out=Hc)
        _tally_cells(tally, Hc, P, ys[:, None, None] * z[None])


def _scan_surface(x, gcd_lut, tally):
    """The cells of the cube x with y, z or w equal to 0 or x, weighted one
    by one."""
    full = np.arange(x + 1, dtype=np.int32)
    ends, mid = full[[0, x]], full[1:x]
    grids = [
        np.meshgrid(*axes, indexing="ij")
        for axes in ((ends, full, full), (mid, ends, full), (mid, mid, ends))
    ]
    Y, Z, W = (np.concatenate([g[i].ravel() for g in grids]) for i in range(3))
    # the cell loses to the row swap (z, w, x, y) only if z = x and y < w,
    # which fixes it if z = x and y = w; likewise the column swap
    # (y, x, w, z) and both (w, z, y, x)
    ty, tz, tw = Y == x, Z == x, W == x
    rep = ~(tz & (Y < W)) & ~(ty & (Z < W)) & ~(tw & (Y < Z))
    rep &= gcd_lut[gcd_lut[x, Y], gcd_lut[Z, W]] == 1
    fixed = (tz & (Y == W)).astype(np.int32) + (ty & (Z == W)) + (tw & (Y == Z))
    orbit = 4 // (1 + fixed)
    # canonical sign patterns: 4 under each eps when ad, bc != 0, else all
    # 2^(nonzero entries - 1) under one eps
    nonzero = (Y > 0).astype(np.int32) + (Z > 0) + (W > 0)
    both = nonzero == 3
    w_minus = np.where(both, 4, 0) * orbit
    w_plus = np.where(both, 4, 1 << nonzero) * orbit
    Hc = np.maximum(x * x, np.maximum(2 * x * Y, 2 * Z * W))
    _tally_cells(tally, np.where(rep, Hc, tally.T), x * W, Y * Z, w_minus, w_plus)


@functools.lru_cache(maxsize=None)
def cell_scan(T, primes=(2, 3, 5, 7), radius=None):
    """(height_counts, {p: joint}) of the cell scan, joint rows k = 0..kmax
    for |det| up to 2 radius^2 (radius floor(sqrt(T)) by default)."""
    B = max(1, math.isqrt(T) if radius is None else radius)
    dmax = 2 * B * B
    kmaxs = {}
    for p in primes:
        k, pk = 0, p
        while pk <= dmax:
            k, pk = k + 1, pk * p
        kmaxs[p] = k
    # a counted cell has entries below sqrt(T), so |det| < 2T
    vluts = {p: _val_table(p, min(dmax, 2 * T)) for p in primes}
    gcd_lut = np.gcd.outer(np.arange(B + 1), np.arange(B + 1))
    bulk, surface = _Tally(T, vluts, kmaxs), _Tally(T, vluts, kmaxs)
    for x in range(1, math.isqrt(max(T - 1, 0)) + 1):
        _scan_bulk(x, gcd_lut, bulk)
        _scan_surface(x, gcd_lut, surface)
    hc = 16 * bulk.heights + surface.heights
    joint = {}
    for p in primes:
        rest = 16 * bulk.joint[p] + surface.joint[p]
        joint[p] = np.vstack([hc - rest.sum(axis=0), rest])
    return hc, joint


@pytest.mark.parametrize("primes", [(), (2,), (2, 3, 5)])
@pytest.mark.parametrize("T", [1, 2, 5, 16, 17, 100, 1000, 2048, 4096])
def test_pgl2_scan_matches_signed_entry_oracle(T, primes):
    hc, joint = signed_entry_scan(T)
    for radius in (None, 2 * math.isqrt(T)):
        scan = scan_pgl2_adjoint(T, primes, radius=radius)
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
    assert nonzero(spectrum.counts) == ref


def test_pgl2_t5_includes_diag_2_1():
    spectrum = scan_pgl2_adjoint(5).spectrum()
    # diag(2,1) has adjoint height 4 < 5
    assert spectrum.counts[4] >= 1
    ref, _ = brute_pgl2(5, 2)
    assert nonzero(spectrum.counts) == ref


def test_pgl2_t64_matches_brute_force_with_histograms():
    scan = scan_pgl2_adjoint(64, primes_tracked=(2, 3))
    ref_counts, ref_hists = brute_pgl2(64, 8, primes=(2, 3))
    assert nonzero(scan.spectrum().counts) == ref_counts
    assert nonzero(scan.histogram(2)) == ref_hists[2]
    assert nonzero(scan.histogram(3)) == ref_hists[3]


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
    # threads= is accepted and selects nothing: the scan runs on one thread
    one = scan_pgl2_adjoint(512, primes_tracked=(2, 3), threads=1)
    three = scan_pgl2_adjoint(512, primes_tracked=(2, 3), threads=3)
    assert np.array_equal(one.height_counts, three.height_counts)
    for p in (2, 3):
        assert np.array_equal(one.joint[p], three.joint[p])


def test_pgl2_resource_guard():
    with pytest.raises(ResourceGuardError):
        scan_pgl2_adjoint(10**8)


def test_pgl2_guard_counts_reduced_cells():
    # without tracked primes the sweep visits, for x = 1..isqrt(T - 1), the
    # triples (x, y, z) in [0, x]^2 whose least height max(x^2, 2xy) is below T
    T = 256
    n = sum(
        1
        for x in range(1, math.isqrt(T - 1) + 1)
        for y in range(x + 1)
        for z in range(x + 1)
        if max(x * x, 2 * x * y) < T
    )
    assert scan_pgl2_adjoint(T, work_limit=n).cells_visited == n
    with pytest.raises(ResourceGuardError):
        scan_pgl2_adjoint(T, work_limit=n - 1)


def test_pgl2_sweep_range_guard_fails_fast():
    # heights up to 2T are int32 in the sweep: past 2^30 it refuses at once,
    # whatever the work limit
    t0 = time.perf_counter()
    with pytest.raises(EnumerationError, match="int32") as info:
        scan_pgl2_adjoint(2**30 + 1, work_limit=10**40)
    assert not isinstance(info.value, ResourceGuardError)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("T", [*range(1, 601), 1024, 2048, 4096])
def test_pgl2_sweep_matches_cell_scan(T):
    hc, joint = cell_scan(T)
    for primes in ((), (2, 3, 5, 7)):
        scan = scan_pgl2_adjoint(T, primes)
        assert np.array_equal(scan.height_counts, hc)
        assert sorted(scan.joint) == list(primes)
        for p in primes:
            assert scan.joint[p].shape == joint[p].shape
            assert np.array_equal(scan.joint[p], joint[p])


@pytest.mark.parametrize("T", [257, 600, 2048])
def test_pgl2_sweep_matches_cell_scan_large_primes(T):
    # primes above isqrt(T - 1) up to the largest p <= 2B^2: every group
    # has P = p, so the classes mod P hold at most one candidate each
    B = math.isqrt(T - 1)
    primes = (29, 31, int(primes_below(2 * B * B + 1)[-1]))
    hc, joint = cell_scan(T, primes)
    scan = scan_pgl2_adjoint(T, primes)
    assert np.array_equal(scan.height_counts, hc)
    for p in primes:
        assert scan.joint[p].shape == joint[p].shape
        assert np.array_equal(scan.joint[p], joint[p])
    assert joint[29][1:].any() and joint[31][1:].any()


@pytest.mark.parametrize("T", [1, 2, 17, 100, 257, 1000])
def test_pgl2_sweep_matches_cell_scan_wide_radius(T):
    # a wider radius adds joint rows for larger |det| only, on both sides
    radius = 2 * math.isqrt(T)
    hc, joint = cell_scan(T, radius=radius)
    scan = scan_pgl2_adjoint(T, (2, 3, 5, 7), radius=radius)
    assert np.array_equal(scan.height_counts, hc)
    for p in (2, 3, 5, 7):
        assert scan.joint[p].shape == joint[p].shape
        assert np.array_equal(scan.joint[p], joint[p])


def test_pgl2_sweep_sized_by_threshold_not_radius():
    # a radius of 2^15 would mean 2^30-entry tables in the cell scan; the
    # sweep sizes everything by isqrt(T - 1)
    t0 = time.perf_counter()
    wide = scan_pgl2_adjoint(4096, radius=2**15)
    assert time.perf_counter() - t0 < 1.0
    assert np.array_equal(wide.height_counts, scan_pgl2_adjoint(4096).height_counts)


def test_pgl2_sweep_strided_levels_match_cell_scan(monkeypatch):
    # with one triple per block every group holds one x, so at 8192 the
    # level arrays of stride p^e (e0 = 1..3 at p = 2, 1..2 at p = 3) and the
    # one-x branch of the sweep run, which larger blocks reach only from
    # about 2^15
    from heightcount import enumeration

    monkeypatch.setattr(enumeration, "_SWEEP_BLOCK", 1)
    hc, joint = cell_scan(8192, (2, 3))
    scan = scan_pgl2_adjoint(8192, (2, 3))
    assert np.array_equal(scan.height_counts, hc)
    for p in (2, 3):
        assert scan.joint[p].shape == joint[p].shape
        assert np.array_equal(scan.joint[p], joint[p])


@pytest.mark.parametrize("T", [2048, 8192])
def test_pgl2_tracked_primes_are_independent(T):
    # a prime's joint counts must not depend on which other primes share
    # the sweep, their order or repeats
    together = scan_pgl2_adjoint(T, (2, 3))
    reordered = scan_pgl2_adjoint(T, (3, 2, 2))
    for p in (2, 3):
        alone = scan_pgl2_adjoint(T, (p,)).joint[p]
        assert np.array_equal(together.joint[p], alone)
        assert np.array_equal(reordered.joint[p], alone)


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()


def test_pgl2_scan_14_digests(pgl2_scan_14):
    # recorded from the cell scan before the sweep existed
    assert _digest(pgl2_scan_14.height_counts) == (
        "d416444c9744b7ba929388a4aa87b10a2ea9bb51cdd07259fcc46dca988b9b54"
    )
    assert _digest(pgl2_scan_14.joint[2]) == (
        "193ef344d91b7afb394f2cec1dcb3f6f5581bce189acaa6b35227ceac4212284"
    )
    assert _digest(pgl2_scan_14.joint[3]) == (
        "3fd6a91e22e88303b6338755feda8f8bf9968acda8760cf9cc5433408f579691"
    )


def test_pgl2_sweep_2_16_digest():
    hc = scan_pgl2_adjoint(2**16).height_counts
    assert int(hc.sum()) == 22605088512
    assert _digest(hc) == "938c28479a4cb9c2c520c650c79a81f80191944ca85fe8b5e40325dd6bec2e8d"


def test_pgl2_scan_2_16_joint_digests():
    # recorded from the sweep whose slope-x pieces moved their class
    # members mod p one by one, before the Cartan rows were reworked
    scan = scan_pgl2_adjoint(2**16, (2, 3))
    assert _digest(scan.height_counts) == "938c28479a4cb9c2c520c650c79a81f80191944ca85fe8b5e40325dd6bec2e8d"
    assert scan.joint[2].shape == (18, 2**16) and scan.joint[3].shape == (11, 2**16)
    assert _digest(scan.joint[2]) == "acd20d58e0950c829eefe50de49cc95abb0c913cd1d513a56a1a743ab19614a8"
    assert _digest(scan.joint[3]) == "f018c8bd1c38dd522da0a2db28bb552085b95666bdc51ee54c4d44c2f234f40d"


def test_pgl2_cells_visited_reduced_domain():
    # with tracked primes too, the sweep visits the triples (x, y, z) in
    # [0, x]^2 whose least height max(x^2, 2xy) is below T
    T = 2048
    n = sum(
        1
        for x in range(1, math.isqrt(T - 1) + 1)
        for y in range(x + 1)
        for z in range(x + 1)
        if max(x * x, 2 * x * y) < T
    )
    assert scan_pgl2_adjoint(T, (2, 3)).cells_visited == n


def test_pgl2_int32_range_guard_fails_fast():
    # heights up to 2T are int32 in the sweep, Cartan rows included: past
    # 2^30 a primed scan is refused at once, whatever the work limit
    t0 = time.perf_counter()
    with pytest.raises(EnumerationError, match="int32") as info:
        scan_pgl2_adjoint(2**30 + 1, (2,), work_limit=10**40)
    assert not isinstance(info.value, ResourceGuardError)
    assert time.perf_counter() - t0 < 0.1


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
    s = HeightSpectrum(np.array([0, 4, 0, 2, 0]))
    assert s.total == 6
    assert s.below(4).total == 6
    assert s.below(2).total == 4
    with pytest.raises(IncompleteSpectrumError):
        s.below(6)


@pytest.mark.parametrize("T", [0, -5])
def test_spectrum_reads_reject_nonpositive_threshold(T):
    # below(0) used to return an empty spectrum and count_below(-5) a 0
    s = HeightSpectrum(np.array([0, 4, 0, 2, 0]))
    with pytest.raises(EnumerationError, match=">= 1"):
        s.below(T)
    with pytest.raises(EnumerationError, match=">= 1"):
        count_projective(1, 5).below(T)


def brute_convolve(s1, s2, w1, w2, T):
    total = 0
    for h1, c1 in nonzero(s1.counts).items():
        for h2, c2 in nonzero(s2.counts).items():
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
    for h2, c2 in nonzero(s.counts).items():
        if h2 * h2 >= T:
            continue
        budget = (T - 1) // (h2 * h2)
        total += c2 * s.below(budget + 1).total
    assert convolve_counts(s, s, 1, 2, T) == total


def test_convolution_exact_past_int64():
    # P^20 counts pass 2^63 below height 10: the prefix sums stay exact
    s = count_projective(20, 10)
    assert max(s.counts) > 2**63
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
    stats = cartan_statistics(np.array([10]))
    assert stats == {0: Fraction(1)}


def test_cartan_statistics_sum_to_one_exactly():
    stats = cartan_statistics(np.array([5, 7, 1]))
    assert sum(stats.values()) == 1
    assert stats[1] == Fraction(7, 13)


def test_cartan_statistics_rejects_empty():
    with pytest.raises(EnumerationError):
        cartan_statistics(np.zeros(0, dtype=np.int64))
