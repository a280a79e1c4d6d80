"""Exact counting of rational points of bounded height.

Three targets are counted at desk scale:

* P^n(Q): primitive integer (n+1)-vectors modulo sign, height = max |entry|,
  counted per height by Moebius inversion of the box counts: the points of
  height h number 1/2 sum_{d | h} mu(d) [(2h/d+1)^(n+1) - (2h/d-1)^(n+1)];
* PGL_2(Q) under the adjoint embedding: primitive 2x2 integer matrices with
  canonical sign and nonzero determinant, height = max |entry| of the 3x3
  adjoint-embedding image (an integer; see the heights module).  Since that
  height is at least max|g|^2, scanning the entry box [-B, B]^4 with
  B = floor(sqrt(T)) is provably complete for the ball H < T;
* products PGL_2 x PGL_2 with weighted height H1^w1 H2^w2, counted exactly
  by convolving two single-factor height spectra.

Counts are bucketed by exact integer height (a HeightSpectrum), which is a
sufficient statistic for every threshold T' <= T and for convolutions.  The
PGL_2 scan also records, per tracked prime p, the joint distribution of
(height, k) where k is the middle elementary-divisor exponent of the
adjoint image at p -- equivalently val_p(det g) for primitive g -- feeding
the local equidistribution checks.

Both PGL_2 counts run over the absolute entries (x, y, z, w) = (|a|, |b|,
|c|, |d|) and the sign eps of ad * bc, on which the height and |det| alone
depend: with P = xw and Q = yz, the ad + bc entry has absolute value P + Q
and |det| = |P - Q| when eps = +, and the other way round when eps = -.  A
cell stands for its canonical-sign matrices: 4 under each eps when P, Q > 0,
else 2^(nonzero entries - 1) under one.  The row swap and the column swap
preserve height, |det| and primitivity as well, and between them they carry
the first position of (x, y, z, w) to each of the four, so only cells whose
first entry x is the largest are needed: the cube [0, x]^3 of (y, z, w) for
each x.  There the height is max(C, 2zw) under eps = - and max(C, 2zw,
xw + yz) under eps = +, with C = max(x^2, 2xy).

Without tracked primes the spectrum comes from a sweep over the triples
(x, y, z) that never visits w one by one:

* Weights.  A cell with m entries equal to x stands for 4/m times its sign
  patterns, since the swaps move each of those m positions to the front
  once.  The sweep adds three times these weights in int64 and divides by 3
  at the end, which must come out exact.
* Pieces.  For fixed (x, y, z) the height is a convex piecewise-linear
  function of w in [1, x) with slopes 0, x and 2z: a constant piece at C, a
  piece xw + yz (eps = + only) and a piece 2zw.  The constant pieces are one
  count per (x, y) row; the slope-x pieces are arithmetic progressions of
  stride x, added through one difference array per x; the slope-2z pieces
  are counted per (x, z, w) in closed form, as the number of rows y whose
  piece holds w.  Under eps = +, det = 0 only at w = yz/x, a point of the
  constant piece, which is left out; w = 0 and w = x are single cells.
* Content.  Matrices of every content are counted, and since
  Ad(dg) = d^2 Ad(g), the primitive ones follow by Moebius inversion:
  prim[h] = sum over d^2 | h of mu(d) all[h / d^2].

That is under B^3/3 triples for B = isqrt(T - 1) and O(T^(3/2)) work, with
every array sized by B and T whatever the radius.

Cartan rows need |det| matrix by matrix, so with tracked primes the cell
scan visits every cell of the cubes, about B^4/4 of them where the signed
entries halved by (b, c) -> (-b, -c) took (2B+1)^4/4.  Each orbit counts at
its lexicographically largest point, weighted by its size.  Inside the cube
(0 < y, z, w < x) every cell stands for 16 matrices under each eps; the
cells on its surface are weighted one by one.  The work is cut into blocks
of a bounded number of cells whatever T is, the blocks are shared among
threads, and partial counts merge by integer addition, so any partition
(any thread count) gives identical results.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .heights import _is_prime
from .zeta import primes_below

__all__ = [
    "HeightSpectrum",
    "CartanHistogram",
    "PGL2Scan",
    "EnumerationError",
    "ResourceGuardError",
    "IncompleteSpectrumError",
    "count_projective",
    "scan_pgl2_adjoint",
    "convolve_counts",
    "cartan_statistics",
]

# work allowed in one PGL_2 scan: the cells it visits, or without tracked
# primes the (x, y, z) triples of the sweep (2^20 needs about 2.8e8)
DEFAULT_WORK_LIMIT = 3 * 10**10
# largest (n+1) T for P^n: the spectrum holds T integers of about
# (n+1) log2(2T) bits each
_PROJECTIVE_LIMIT = 2**21


class EnumerationError(ValueError):
    pass


class ResourceGuardError(EnumerationError):
    """The requested count exceeds its work or size limit."""


class IncompleteSpectrumError(EnumerationError):
    """A spectrum does not cover the height range a computation needs."""


@dataclass
class HeightSpectrum:
    """Multiset {integer height -> point count}, complete for heights < threshold."""

    counts: dict[int, int]
    threshold: int

    def __post_init__(self):
        if any(h < 1 for h in self.counts):
            raise EnumerationError("height values must be >= 1")
        if any(c < 0 for c in self.counts.values()):
            raise EnumerationError("counts must be non-negative")
        self.counts = {h: c for h, c in self.counts.items() if c != 0}

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count_below(self, T: int) -> int:
        """Number of points with height < T; requires T <= threshold."""
        return self.below(T).total

    def below(self, T: int) -> "HeightSpectrum":
        """The spectrum of the points with height < T; requires T <= threshold."""
        if T > self.threshold:
            raise IncompleteSpectrumError(
                f"spectrum complete below {self.threshold}, asked for {T}"
            )
        return HeightSpectrum({h: c for h, c in self.counts.items() if h < T}, threshold=T)

    def merge(self, other: "HeightSpectrum") -> "HeightSpectrum":
        merged = dict(self.counts)
        for h, c in other.counts.items():
            merged[h] = merged.get(h, 0) + c
        return HeightSpectrum(merged, min(self.threshold, other.threshold))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Heights (int64) and counts, ascending; the counts are Python ints
        in an object array, so their sums stay exact past 2^63."""
        hs = np.array(sorted(self.counts), dtype=np.int64)
        cs = np.array([self.counts[int(h)] for h in hs], dtype=object)
        return hs, cs


@dataclass
class CartanHistogram:
    """Per-prime frequencies of the middle elementary-divisor exponent of
    the adjoint image, over all points counted."""

    p: int
    freq: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.freq.values())


def cartan_statistics(hist: CartanHistogram) -> dict[int, Fraction]:
    """Empirical cell frequencies; exact rationals summing to 1."""
    total = hist.total
    if total <= 0:
        raise EnumerationError("empty histogram")
    return {k: Fraction(c, total) for k, c in sorted(hist.freq.items()) if c}


# --------------------------------------------------------------------------
# P^n(Q)


def _mobius(n: int) -> np.ndarray:
    """mu(d) for 1 <= d < n as int8 (entry 0 is unused)."""
    mu = np.ones(n, dtype=np.int8)
    for p in primes_below(n):
        mu[::p] *= -1
        mu[:: p * p] = 0
    return mu


def count_projective(n: int, T: int) -> HeightSpectrum:
    """Exact height spectrum of P^n(Q) points with height < T.

    Modulo sign, the integer (n+1)-vectors of height exactly m number
    f(m) = ((2m+1)^(n+1) - (2m-1)^(n+1)) / 2: the box [-m, m]^(n+1) less
    the box [-(m-1), m-1]^(n+1).  Such a vector is d times a primitive one
    of height m/d, for its content d | m, so f is the Dirichlet convolution
    of the primitive counts with 1, and Moebius inversion gives the points
    of height h as sum_{d | h} mu(d) f(h/d).  The arithmetic is in Python
    integers, exact for every n.
    """
    if n < 1:
        raise EnumerationError("projective space needs n >= 1")
    if T < 1:
        raise EnumerationError("T must be >= 1")
    if (n + 1) * T > _PROJECTIVE_LIMIT:
        raise ResourceGuardError(
            f"(n+1) T = {(n + 1) * T} exceeds the projective limit {_PROJECTIVE_LIMIT}"
        )
    m = np.arange(T, dtype=object)
    f = ((2 * m + 1) ** (n + 1) - (2 * m - 1) ** (n + 1)) // 2
    mu = _mobius(T)
    out = np.zeros(T, dtype=object)
    for d in np.flatnonzero(mu[1:]) + 1:
        out[d::d] += int(mu[d]) * f[1 : (T - 1) // d + 1]
    return HeightSpectrum({h: int(c) for h, c in enumerate(out) if h}, threshold=T)


# --------------------------------------------------------------------------
# PGL_2(Q) under the adjoint embedding


def _val_table(p: int, nmax: int) -> np.ndarray:
    v = np.zeros(nmax + 1, dtype=np.int64)
    pk = p
    while pk <= nmax:
        v[pk::pk] += 1
        pk *= p
    return v


@dataclass
class PGL2Scan:
    """Raw output of one adjoint-height scan: per-height counts (complete
    below ``threshold``) and, per tracked prime, joint (k, height) counts."""

    threshold: int
    radius: int
    height_counts: np.ndarray  # shape (threshold,), index = height
    joint: dict[int, np.ndarray]  # p -> shape (kmax+1, threshold)
    cells_visited: int = 0  # work done, not a result: kept out of payloads

    def spectrum(self, T: int | None = None) -> HeightSpectrum:
        T = self.threshold if T is None else T
        if T > self.threshold:
            raise IncompleteSpectrumError(
                f"scan complete below {self.threshold}, asked for {T}"
            )
        hc = self.height_counts[:T]
        return HeightSpectrum(
            {int(h): int(c) for h, c in enumerate(hc) if c},
            threshold=T,
        )

    def histogram(self, p: int, T: int | None = None) -> CartanHistogram:
        T = self.threshold if T is None else T
        if T > self.threshold:
            raise IncompleteSpectrumError(
                f"scan complete below {self.threshold}, asked for {T}"
            )
        if p not in self.joint:
            raise EnumerationError(f"prime {p} was not tracked in this scan")
        per_k = self.joint[p][:, :T].sum(axis=1)
        return CartanHistogram(p=p, freq={int(k): int(c) for k, c in enumerate(per_k) if c})


# cells per block of the scan, whatever T is: a numpy temporary of int32
# cells then takes 256 KB, and a block's temporaries stay in L2 cache
_BLOCK_CELLS = 1 << 16
# the scan's cell values (heights, |det|, T as the skip marker) are int32
_INT32_MAX = 2**31 - 1


def _reduced_cells(B: int) -> int:
    """Cells the scan visits with entries bounded by B: the cube
    [0, x]^3 of (y, z, w) for each x = 1..B."""
    return ((B + 1) * (B + 2) // 2) ** 2 - 1


class _Tally:
    """Accumulators of one worker: counts per height and, per tracked prime,
    counts per (k, height) for k >= 1 (the k = 0 row is the total minus
    these, filled in at the end)."""

    def __init__(self, T: int, vluts: dict, kmaxs: dict):
        self.T = T
        self.vluts = vluts
        self.heights = np.zeros(T, dtype=np.int64)
        self.joint = {p: np.zeros((kmaxs[p], T), dtype=np.int64) for p in vluts}

    def add(self, h: np.ndarray, det: np.ndarray, weights=None) -> None:
        """Count matrices of height h and |det| det, one per entry or
        ``weights`` (an array aligned with h) of them."""
        if not h.size:
            return
        # bins only from the least height up: a block's heights are >= x^2
        lo = int(h.min())
        width = self.T - lo
        h = h - lo
        self.heights[lo:] += _bincount(h, weights, width)
        for p, vlut in self.vluts.items():
            k = np.take(vlut, det)
            hit = np.flatnonzero(k)  # only where p | det
            idx = np.take(k, hit).astype(np.intp) * width + np.take(h, hit) - width
            w = None if weights is None else np.take(weights, hit)
            rows = self.joint[p]
            rows[:, lo:] += _bincount(idx, w, len(rows) * width).reshape(-1, width)


def _bincount(idx: np.ndarray, weights, n: int) -> np.ndarray:
    c = np.bincount(idx, weights=weights, minlength=n)
    # weighted counts are float sums of small integers: exact
    return c if weights is None else c.astype(np.int64)


def _tally_cells(tally: _Tally, Hc, P, Q, w_minus=None, w_plus=None) -> None:
    """Count cells under both signs eps = sign(ad * bc).

    Hc is the height without the ad + bc entry (T on cells not counted),
    P = |ad| and Q = |bc|; w_minus and w_plus, arrays shaped like Hc, are
    the canonical matrices a cell stands for under each sign (one if None).
    """
    T = tally.T
    S = P + Q  # eps = -: |det| = P + Q and |ad + bc| = |P - Q|
    D = P - Q  # eps = +: |det| = |P - Q| and |ad + bc| = P + Q
    np.abs(D, out=D)
    H = np.maximum(Hc, D)
    keep = H < T
    h, s, d = H[keep], S[keep], D[keep]
    if w_minus is not None:
        w_minus, w_plus = w_minus[keep], w_plus[keep]
    tally.add(h, s, w_minus)
    h_plus = np.maximum(h, s)  # = max(Hc, P + Q), as P + Q >= |P - Q|
    ok = (h_plus < T) & (d != 0)
    tally.add(h_plus[ok], d[ok], None if w_plus is None else w_plus[ok])


def _scan_bulk(x: int, zlo: int, zhi: int, gcd_lut, tally: _Tally) -> None:
    """Cells with 1 <= y, w < x and zlo <= z < zhi (within [1, x)).

    x is the strict maximum of a nonzero cell, so the cell is the only point
    of its orbit in the domain (weight 4), and each sign eps has 4 canonical
    sign patterns: every cell stands for 16 matrices under each eps.  The
    tally counts cells; the factor 16 is applied when tallies merge.  In
    the cube [0, x]^3, Hc = max(x^2, 2xy, 2zw).
    """
    T = tally.T
    y = np.arange(1, x, dtype=np.int32)
    z = np.arange(zlo, zhi, dtype=np.int32)[:, None]
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


def _surface_cells(x: int):
    """The (y, z, w) in [0, x]^3 with a coordinate equal to 0 or x."""
    full = np.arange(x + 1, dtype=np.int32)
    ends, mid = full[[0, x]], full[1:x]
    grids = [
        np.meshgrid(*axes, indexing="ij")
        for axes in ((ends, full, full), (mid, ends, full), (mid, mid, ends))
    ]
    return [np.concatenate([g[i].ravel() for g in grids]) for i in range(3)]


def _scan_surface(xlo: int, xhi: int, gcd_lut, tally: _Tally) -> None:
    """The cells of the cubes x = xlo..xhi-1 outside the bulk: y, z or w is
    0 or equal to x.  Weights are worked out per cell."""
    parts = [(x, *_surface_cells(x)) for x in range(xlo, xhi)]
    X = np.concatenate([np.full(len(p[1]), p[0], dtype=np.int32) for p in parts])
    Y, Z, W = (np.concatenate([p[i] for p in parts]) for i in (1, 2, 3))
    # Each orbit of the row swap R and the column swap C counts at its
    # lexicographically largest point, with the orbit's size.  As x is the
    # largest entry, the cell loses to R (z, w, x, y) only if z = x and
    # y < w, and R fixes it if z = x and y = w; likewise C (y, x, w, z) and
    # RC (w, z, y, x).
    ty, tz, tw = Y == X, Z == X, W == X
    rep = ~(tz & (Y < W)) & ~(ty & (Z < W)) & ~(tw & (Y < Z))
    # gcd(x, y, z, w) == 1, by flat lookups (faster than 2d fancy indexing)
    lut, n = gcd_lut.ravel(), gcd_lut.shape[1]
    rep &= np.take(lut, np.take(lut, X * n + Y) * n + np.take(lut, Z * n + W)) == 1
    fixed = (tz & (Y == W)).astype(np.int32) + (ty & (Z == W)) + (tw & (Y == Z))
    orbit = 4 // (1 + fixed)
    # canonical sign patterns: 4 under each eps when ad, bc != 0, else all
    # 2^(nonzero entries - 1) under one eps (both give one height and |det|)
    nonzero = (Y > 0).astype(np.int32) + (Z > 0) + (W > 0)  # besides x
    both = nonzero == 3
    w_minus = np.where(both, 4, 0) * orbit
    w_plus = np.where(both, 4, 1 << nonzero) * orbit
    Hc = np.maximum(X * X, np.maximum(2 * X * Y, 2 * Z * W))
    _tally_cells(tally, np.where(rep, Hc, tally.T), X * W, Y * Z, w_minus, w_plus)


def _scan_tasks(B: int) -> list[tuple[int, tuple]]:
    """(cells, task) pairs covering the domain: bulk slabs of one x and a
    z-range, and surface runs of consecutive x, each about a block."""
    tasks = []
    for x in range(2, B + 1):
        n = x - 1
        step = max(1, _BLOCK_CELLS // (n * n))
        for zlo in range(1, x, step):
            zhi = min(x, zlo + step)
            tasks.append((n * n * (zhi - zlo), ("bulk", x, zlo, zhi)))
    xlo, cells = 1, 0
    for x in range(1, B + 1):
        cells += 6 * x * x + 2
        if cells >= _BLOCK_CELLS or x == B:
            tasks.append((cells, ("surface", xlo, x + 1)))
            xlo, cells = x + 1, 0
    return tasks


# --------------------------------------------------------------------------
# the sweep: the spectrum without tracked primes

# (x, y, z) triples per numpy block of the sweep: temporaries stay in L2
_SWEEP_BLOCK = 1 << 14
# the sweep's values (heights up to 2T, layout offsets) are int32
_SWEEP_MAX_T = 2**30


def _expand(length: np.ndarray, *per_row: np.ndarray) -> list[np.ndarray]:
    """Rows of cells: each row's values repeated over its ``length`` cells,
    then each cell's index within its row."""
    rowid = np.repeat(np.arange(len(length)), length)
    k = np.arange(rowid.size) - np.repeat(np.cumsum(length) - length, length)
    return [v[rowid] for v in per_row] + [k.astype(np.int32)]


def _plateau(X, Y, Z):
    """For cells (x, y, z): the height C = max(x^2, 2xy) of the constant
    pieces, Q = yz = qx + r, and the w in [1, x) at height C: the first cm
    for eps = - (2zw <= C), the first cp for eps = + (also xw + Q <= C),
    of which det0 (w = Q/x) has det = 0."""
    M = np.maximum(X, 2 * Y)
    C = X * M
    Q = Y * Z
    q, r = np.divmod(Q, X)
    cm = np.minimum(X - 1, C // np.maximum(2 * Z, 1))
    cp = np.minimum(cm, M - q - (r > 0))
    det0 = (r == 0) & (q > 0) & (q < X)
    return C, Q, q, r, cm, cp, det0


def _sweep_group(T: int, gx: np.ndarray, gy: np.ndarray, all3: np.ndarray) -> None:
    """Add three times the counts of the cubes x = gx[0], ..., gx[-1]
    (consecutive) to ``all3``; the rows y = 0..gy[i] of x = gx[i] are those
    with C < T.  A cell (x, y, z) stands for w = 0..x."""
    xa, xb = int(gx[0]), int(gx[-1])
    base = xa * xa
    L = min(T, 2 * xb * xb + 1) - base  # heights here lie in [x^2, 2x^2]
    weighted = []  # (height - base, weight)
    unit = [np.zeros(0, np.int64)]  # heights - base of weight 24
    # slope-x pieces go to one difference array per x over (r, q), for the
    # heights qx + r with q in [x, 2x + 1], laid out from first[x - xa]
    ncol = xb + 2
    first = (np.cumsum(gx) - gx) * ncol
    sink = int(first[-1]) + xb * ncol
    starts, ends = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]

    # interior: 0 < y, z < x, weight 48 for w < x and 24 for w = x
    ny = np.minimum(gx - 1, gy)
    rx, ry = _expand(ny, gx)
    ry += 1
    z = np.arange(1, xb, dtype=np.int32)[None, :]
    step = max(1, _SWEEP_BLOCK // max(1, xb - 1))
    for a in range(0, rx.size, step):
        Y = ry[a : a + step, None]
        if xa == xb:
            X, ok = xa, True
        else:  # rows of several x share the columns z < xb
            X = rx[a : a + step, None]
            ok = z < X
        C, Q, q, r, cm, cp, det0 = _plateau(X, Y, z)
        # at height C: eps = - on [1, cm], eps = + on [1, cp] less det = 0,
        # and w = 0
        weighted.append((C[:, 0] - base, 48 * ((cm + cp + 1 - det0) * ok).sum(axis=1)))
        # w = x, eps = +: max(C, 2xz, x^2 + Q)
        Hxp = np.maximum(np.maximum(C, 2 * X * z), X * X + Q)
        unit.append(np.where(ok, Hxp - base, L).ravel())
        # eps = +, w in [cp + 1, hi]: xw + Q is the largest entry below
        # w* = ceil(Q / (2z - x)), 2zw from there on
        den = 2 * z - X
        wstar = np.where(den > 0, (Q + den - 1) // np.maximum(den, 1), X)
        Tq, Tr = divmod(T - 1, X)
        hi = np.minimum(np.minimum(wstar, X) - 1, Tq - q - (r > Tr))
        lo = cp + 1
        run = (hi >= lo) & ok
        cell = first[X - xa] + r * ncol + q - X
        starts.append(np.where(run, cell + lo, sink).ravel())
        ends.append(np.where(run, cell + hi + 1, sink).ravel())
    # w = x, eps = -: max(C, 2xz) is C for z <= max(x // 2, y), else 2xz
    # (reached by the rows y < z when 2z > x)
    weighted.append((rx * np.maximum(rx, 2 * ry) - base, 24 * np.minimum(rx - 1, np.maximum(rx // 2, ry))))
    cx, cn, k = _expand(np.maximum(gx - 1 - gx // 2, 0), gx, ny)
    cz = cx // 2 + 1 + k
    weighted.append((2 * cx * cz - base, 24 * np.minimum(cn, cz - 1)))

    # the surface: y or z is 0 or x (no slope-x piece there)
    top = gx[gy == gx]
    fx = np.concatenate([gx, top])
    X1, Y1, Z1 = _expand(fx + 1, fx, np.concatenate([np.zeros_like(gx), top]))
    X = np.concatenate([X1, np.repeat(rx, 2)])
    Y = np.concatenate([Y1, np.repeat(ry, 2)])
    Z = np.concatenate([Z1, np.repeat(rx, 2) * np.tile(np.int32([0, 1]), rx.size)])
    C, Q, q, r, cm, cp, det0 = _plateau(X, Y, Z)
    # 3 * 4/m * sign patterns, which are 2^(nonzero entries - 1), half of
    # them under each eps when y, z > 0: 48/m, or half that for y = z = 0;
    # w = x adds one more entry equal to x
    ey, ez, both = Y == X, Z == X, Q > 0
    m = 1 + ey + ez
    lone = (Y | Z) == 0
    wm = 48 // m - 24 * lone
    wx = 48 // (m + 1) - 12 * lone
    Hxm = np.maximum(C, 2 * X * Z)
    weighted += [
        (C - base, wm * (cm + both * (cp + 1 - det0))),
        (Hxm - base, wx),
        (np.maximum(Hxm, X * X + Q) - base, wx * (both & ~(ey & ez))),
    ]

    # slope-2z pieces, dense over (x, z, w) with x^2 < 2zw < T: eps = -
    # from the rows y = 0..k1, eps = + from y = 1..k2
    zx, k = _expand(gx, gx)
    zz = k + 1
    wlo = zx * zx // (2 * zz) + 1
    wn = np.maximum(np.minimum(zx - 1, (T - 1) // (2 * zz)) - wlo + 1, 0)
    X, Z, W, k = _expand(wn, zx, zz, wlo)
    W += k
    zw = Z * W
    k1 = (zw - 1) // X
    k2 = np.minimum(k1, (2 * Z - X) * W // Z)
    weighted.append((2 * zw - base, (1 + k1 + k2) * np.where(Z == X, 24, 48)))

    h = np.minimum(np.concatenate([np.ravel(h) for h, _ in weighted]), L)
    w = np.concatenate([np.ravel(w) for _, w in weighted])
    # float sums of small integers: exact
    direct = np.bincount(h, w, L + 1).astype(np.int64)
    direct += 24 * np.bincount(np.minimum(np.concatenate(unit), L), minlength=L + 1)
    all3[base : base + L] += direct[:L]
    runs = np.bincount(np.concatenate(starts), minlength=sink + 1)
    runs -= np.bincount(np.concatenate(ends), minlength=sink + 1)
    runs = runs[:sink].reshape(-1, ncol).cumsum(axis=1)
    for x, row in zip(gx.tolist(), (first // ncol).tolist()):
        span = runs[row : row + x, : x + 1].T.ravel()  # heights x^2 + j
        n = min(T - x * x, span.size)
        all3[x * x : x * x + n] += 48 * span[:n]


def _sweep_pgl2(T: int, work_limit: int) -> tuple[np.ndarray, int]:
    """Per height, the primitive canonical-sign matrices with det != 0 and
    adjoint height < T, and the (x, y, z) triples visited."""
    if T > _SWEEP_MAX_T:
        raise EnumerationError(f"T = {T}: heights up to 2T overflow int32")
    B = math.isqrt(T - 1)
    # the rows y <= x all have C < T up to x0: a lower bound without arrays
    x0 = math.isqrt((T - 1) // 2)
    triples = (x0 + 1) * (x0 + 2) * (2 * x0 + 3) // 6 - 1
    if triples <= work_limit:
        xs = np.arange(1, B + 1, dtype=np.int32)
        ymax = np.minimum(xs, (T - 1) // (2 * xs))
        sizes = (xs + 1).astype(np.int64) * (ymax + 1)
        triples = int(sizes.sum())
    if triples > work_limit:
        raise ResourceGuardError(f"{triples} triples to visit exceed work limit {work_limit}")
    all3 = np.zeros(T, dtype=np.int64)
    lo, acc = 0, 0
    for i, size in enumerate(sizes.tolist()):
        acc += size
        if acc >= _SWEEP_BLOCK or i == B - 1:
            _sweep_group(T, xs[lo : i + 1], ymax[lo : i + 1], all3)
            lo, acc = i + 1, 0
    counts, rest = np.divmod(all3, 3)
    if rest.any():
        raise EnumerationError("sweep weights do not add up to whole matrices")
    # every content d: all[h] = sum over d^2 | h of prim[h / d^2]
    mu = _mobius(B + 1)
    prim = counts.copy()
    for d in np.flatnonzero(mu[2:]) + 2:
        d2 = int(d) ** 2
        prim[d2::d2] += int(mu[d]) * counts[1 : (T - 1) // d2 + 1]
    return prim, triples


def scan_pgl2_adjoint(
    T: int,
    primes_tracked: Iterable[int] = (),
    radius: int | None = None,
    threads: int = 1,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> PGL2Scan:
    """Scan primitive canonical-sign 2x2 integer matrices with det != 0 and
    adjoint height < T, with entries in [-radius, radius].

    The default radius floor(sqrt(T)) is complete because the adjoint height
    dominates max|entry|^2; a larger radius must not change any count.
    Without tracked primes the sweep counts the spectrum: it ignores
    ``threads``, sizes its arrays by isqrt(T - 1) whatever the radius, and
    reports the (x, y, z) triples it visits as ``cells_visited``, which
    ``work_limit`` bounds.
    """
    if T < 1:
        raise EnumerationError("T must be >= 1")
    primes = tuple(sorted(set(int(p) for p in primes_tracked)))
    composite = [p for p in primes if not _is_prime(p)]
    if composite:
        raise EnumerationError(f"tracked primes must be prime, got {composite[0]}")
    B = math.isqrt(T) if radius is None else int(radius)
    if radius is not None and B < math.isqrt(T):
        raise EnumerationError(
            f"radius {B} cannot cover the ball H < {T}: need at least {math.isqrt(T)}"
        )
    if B < 1:
        B = 1
    if not primes:
        hc, triples = _sweep_pgl2(T, work_limit)
        return PGL2Scan(threshold=T, radius=B, height_counts=hc, joint={}, cells_visited=triples)
    dmax = 2 * B * B
    if dmax > _INT32_MAX:
        raise EnumerationError(
            f"radius {B}: |det| and heights up to 2B^2 = {dmax} overflow int32"
        )
    cells = _reduced_cells(B)
    if cells > work_limit:
        raise ResourceGuardError(f"{cells} cells to visit exceed work limit {work_limit}")
    kmaxs = {}
    for p in primes:
        k, pk = 0, p
        while pk <= dmax:
            k, pk = k + 1, pk * p
        kmaxs[p] = k
    # a counted cell has entries below sqrt(T), so |det| < 2T
    vluts = {p: _val_table(p, min(dmax, 2 * T)).astype(np.int8) for p in primes}
    gcd_lut = np.gcd.outer(np.arange(B + 1, dtype=np.int32), np.arange(B + 1, dtype=np.int32))

    def work(batch) -> tuple[_Tally, _Tally]:
        bulk, surface = _Tally(T, vluts, kmaxs), _Tally(T, vluts, kmaxs)
        for kind, *args in batch:
            if kind == "bulk":
                _scan_bulk(*args, gcd_lut, bulk)
            else:
                _scan_surface(*args, gcd_lut, surface)
        return bulk, surface

    # largest tasks first, each to the worker with the fewest cells
    threads = max(1, int(threads))
    batches, loads = [[] for _ in range(threads)], [0] * threads
    for size, task in sorted(_scan_tasks(B), key=lambda t: -t[0]):
        i = loads.index(min(loads))
        batches[i].append(task)
        loads[i] += size
    if threads == 1:
        tallies = [work(batches[0])]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            tallies = list(ex.map(work, batches))
    # integer sums: any partition of the tasks merges to the same arrays
    hc = sum(16 * bulk.heights + surface.heights for bulk, surface in tallies)
    joint = {}
    for p in primes:
        rest = sum(16 * bulk.joint[p] + surface.joint[p] for bulk, surface in tallies)
        joint[p] = np.vstack([hc - rest.sum(axis=0), rest])
    return PGL2Scan(threshold=T, radius=B, height_counts=hc, joint=joint, cells_visited=sum(loads))


# --------------------------------------------------------------------------
# product groups by convolution


def _int_kth_root(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 0, exact."""
    if x < 0:
        raise EnumerationError("negative radicand")
    if x == 0:
        return 0
    if k == 1:
        return x
    r = int(round(x ** (1.0 / k)))
    while r > 0 and r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def convolve_counts(
    s1: HeightSpectrum,
    s2: HeightSpectrum,
    w1: int,
    w2: int,
    T: int,
) -> int:
    """#{(g, h): H(g)^w1 * H(h)^w2 < T}, exactly, from two spectra.

    For each height h2 in s2, the fiber count is the number of g with
    H(g)^w1 <= (T-1) // h2^w2, read off prefix sums of s1.  Raises if either
    spectrum is not complete over the range the threshold requires.
    """
    if w1 < 1 or w2 < 1:
        raise EnumerationError("weights must be positive integers")
    if T < 1:
        raise EnumerationError("T must be >= 1")
    h2_max = _int_kth_root(T - 1, w2) if T > 1 else 0
    if h2_max >= s2.threshold:
        raise IncompleteSpectrumError(
            f"second spectrum complete below {s2.threshold}, need heights up to {h2_max}"
        )
    h1_needed = _int_kth_root(T - 1, w1) if T > 1 else 0
    if h1_needed >= s1.threshold:
        raise IncompleteSpectrumError(
            f"first spectrum complete below {s1.threshold}, need heights up to {h1_needed}"
        )
    hs1, cs1 = s1.as_arrays()
    cum1 = np.cumsum(cs1)

    total = 0
    for h2, c2 in s2.counts.items():
        if h2 > h2_max:
            continue
        budget = (T - 1) // (h2**w2)  # H1^w1 <= budget
        h1_max = _int_kth_root(budget, w1)
        idx = np.searchsorted(hs1, h1_max, side="right")
        n1 = int(cum1[idx - 1]) if idx > 0 else 0
        total += c2 * n1
    return total
