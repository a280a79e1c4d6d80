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

Counts are bucketed by exact integer height in one array indexed by height
(a HeightSpectrum: counts[h] for h below the threshold, counts[0] = 0;
int64 for PGL_2, Python integers for P^n), which is a sufficient statistic
for every threshold T' <= T, read as the prefix counts[:T'], and for
convolutions.  The PGL_2 scan also records, per tracked prime p, the joint
distribution of (k, height) where k is the middle elementary-divisor
exponent of the adjoint image at p -- equivalently val_p(det g) for
primitive g -- feeding the local equidistribution checks.

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

A sweep over the triples (x, y, z) counts them without visiting w one by
one:

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
  prim[h] = sum over d^2 | h of mu(d) all[h / d^2], done in place as one
  factor (1 - S_(q^2)) per prime q, with (S_m f)[h] = f[h / m].

* Cartan rows.  Per tracked prime p the same pieces are counted by
  k = v_p(det).  Along a piece det = A t + c is linear in its free entry
  t, so either v_p(c) < v_p(A) and every t has k = v_p(c), or det has a
  p-adic root t* and k = v_p(A) + v_p(t - t*): the t with p^j | det form
  one residue class modulo p^(j - v_p(A)).  The constant pieces of both
  signs make one piece t in [-cp, cm] (t = -w under eps = +), as do the
  slope-2z pieces (t = +-y), and the w = x cells under eps = -, whose
  det = x^2 + yz is linear in z along a row at height C and in y along a
  column at height 2xz.  Each row of such pieces at one height counts its
  classes in closed form, one floor difference per level p^e < P, where
  P is the first power of p with P >= 2x; a piece then holds at most one
  t of the class modulo P, the root's representative nearest 0, whose k
  is read off |det|.  A slope-x piece adds its whole run to the row of
  its least k (through a difference array per x, as above), its classes
  modulo p^e for the levels e < e0 to difference arrays of stride p^e,
  and moves the members of the class modulo p^e0 to their own k one by
  one, with e0 chosen per group by the length of the runs.  The w = x
  cells under eps = + are read off |det| one by one.  Row 0 is the total
  less the other rows.  Content inverts with a twist, since
  v_p(det dg) = 2 v_p(d) + v_p(det g):
  prim_k[h] = sum over d^2 | h of mu(d) all_(k - 2 v_p(d))[h / d^2].

That is under B^3/3 triples for B = isqrt(T - 1) and O(T^(3/2)) work for
the spectrum, with every array sized by B and T whatever the radius; a
tracked prime adds O(log_p x) closed-form levels per piece row and per
slope-x run, and the class members modulo p^e0 of the slope-x pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .heights import _is_prime
from .zeta import ResourceGuardError, primes_below

__all__ = [
    "HeightSpectrum",
    "PGL2Scan",
    "EnumerationError",
    "ResourceGuardError",
    "IncompleteSpectrumError",
    "count_projective",
    "scan_pgl2_adjoint",
    "convolve_counts",
    "cartan_statistics",
]

# work allowed in one PGL_2 scan: the (x, y, z) triples of the sweep
# (2^20 needs about 2.8e8)
DEFAULT_WORK_LIMIT = 3 * 10**10
# largest (n+1) T for P^n: the spectrum holds T integers of about
# (n+1) log2(2T) bits each
_PROJECTIVE_LIMIT = 2**21


class EnumerationError(ValueError):
    pass


class IncompleteSpectrumError(EnumerationError):
    """A spectrum does not cover the height range a computation needs."""


def _check_below(T: int | None, threshold: int) -> int:
    """T (default: threshold), once 1 <= T <= threshold holds."""
    T = threshold if T is None else T
    if T < 1:
        raise EnumerationError("T must be >= 1")
    if T > threshold:
        raise IncompleteSpectrumError(f"spectrum complete below {threshold}, asked for {T}")
    return T


@dataclass
class HeightSpectrum:
    """Point counts by integer height: counts[h] for 0 <= h < threshold,
    with counts[0] = 0; complete below threshold = len(counts)."""

    counts: np.ndarray

    @property
    def threshold(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def below(self, T: int) -> "HeightSpectrum":
        """The spectrum of the points with height < T, a view; requires
        1 <= T <= threshold."""
        return HeightSpectrum(self.counts[: _check_below(T, self.threshold)])


def cartan_statistics(per_k: np.ndarray) -> dict[int, Fraction]:
    """Empirical cell frequencies of a histogram per_k[k]; exact rationals
    summing to 1."""
    total = int(per_k.sum())
    if total <= 0:
        raise EnumerationError("empty histogram")
    return {k: Fraction(c, total) for k, c in enumerate(per_k.tolist()) if c}


# --------------------------------------------------------------------------
# P^n(Q)


def count_projective(n: int, T: int) -> HeightSpectrum:
    """Exact height spectrum of P^n(Q) points with height < T.

    Modulo sign, the integer (n+1)-vectors of height exactly m number
    f(m) = ((2m+1)^(n+1) - (2m-1)^(n+1)) / 2: the box [-m, m]^(n+1) less
    the box [-(m-1), m-1]^(n+1).  Such a vector is d times a primitive one
    of height m/d, for its content d | m, so f is the Dirichlet convolution
    of the primitive counts with 1, and Moebius inversion gives the points
    of height h as sum_{d | h} mu(d) f(h/d): the product over primes q of
    (1 - S_q), with (S_q f)[h] = f[h/q], applied to f in place.  The
    arithmetic is in Python integers, exact for every n.
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
    for q in primes_below(T):
        # numpy reads overlapping operands as if copied first
        f[q::q] -= f[1 : (T - 1) // q + 1]
    f[0] = 0  # no point has height 0
    return HeightSpectrum(f)


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
    height_counts: np.ndarray  # shape (threshold,), index = height
    joint: dict[int, np.ndarray]  # p -> shape (kmax+1, threshold)
    cells_visited: int = 0  # work done, not a result: kept out of payloads

    def spectrum(self, T: int | None = None) -> HeightSpectrum:
        """The counts below T (default: all), a view of ``height_counts``."""
        return HeightSpectrum(self.height_counts[: _check_below(T, self.threshold)])

    def histogram(self, p: int, T: int | None = None) -> np.ndarray:
        """The points below T (default: all) per k at the tracked prime p."""
        T = _check_below(T, self.threshold)
        if p not in self.joint:
            raise EnumerationError(f"prime {p} was not tracked in this scan")
        return self.joint[p][:, :T].sum(axis=1)


# --------------------------------------------------------------------------
# the sweep: the spectrum and the Cartan rows

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


def _take(a, shape, f):
    """The entries f of a broadcast to ``shape``, read flat."""
    a = np.asarray(a)
    if a.shape == shape:
        return a.reshape(-1)[f]
    if a.ndim == 0:
        return np.full(len(f), a)
    return np.broadcast_to(a, shape).reshape(-1)[f]


def _flat(*a):
    """The arrays a broadcast together, as flat int64 arrays."""
    return [np.asarray(b, dtype=np.int64).ravel() for b in np.broadcast_arrays(*a)]


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


class _CartanRows:
    """The sweep's Cartan rows at one tracked prime p: three times the
    matrices of every content per (k, height) with k = v_p(det), in
    ``rows``, at least kmax + 1 of them.  The caller takes row 0 as the
    total less the others, zeroes the row of det = 0 and the rows above K,
    and drops the last column, which collects the heights from T on.

    Along a piece det = A t + c is linear in the free entry t.  If
    v_p(c) < v_p(A) every t has k = v_p(c); otherwise det has a p-adic
    root t* and k = v_p(A) + v_p(t - t*), so the t with k >= v_p(A) + e
    form one residue class modulo p^e.  ``pieces`` takes a row of pieces
    at one height and counts the t of each class for the levels p^e < P,
    P the first power of p with P >= 2x, as floor differences summed
    along the row.  A piece lies in (-P/2, P/2), so it holds at most one
    t of the class modulo P, the root's representative nearest 0, whose
    k is read off |det|.  ``runs`` takes the slope-x pieces, whose
    heights vary along t: through one difference array of stride p^e per
    level e below the group's e0, and the members of the root's class
    modulo p^e0 one by one.  ``cells`` takes single cells.
    """

    def __init__(self, p: int, T: int, B: int, kmax: int):
        self.p, self.T = p, T
        # v_p(n) for |det| <= 2x^2 in the sweep's domain, up to K
        self.vtab = _val_table(p, 2 * B * B).astype(np.int8)
        K = int(self.vtab.max())
        self.vtab[0] = K + 1  # det = 0: a dropped row
        self.K = K
        P, E = p, 1
        while P < 2 * B:
            P, E = P * p, E + 1
        # products of a piece's c <= 2B^2 with residues modulo P
        self.dt = np.int32 if 2 * B * B * P < 2**31 else np.int64
        self.pw = p ** np.arange(K + 2, dtype=np.int64)
        self.inv = np.zeros(B + 1, dtype=np.int64)  # of the p-free part of a, mod P
        for a in range(1, B + 1):
            self.inv[a] = pow(a // p ** int(self.vtab[a]), -1, P)
        self.ninv = (P - self.inv) % P
        # rows k = v_p(A) + e for e < E stay below nk
        self.nk = max(K + 2, int(self.vtab[1 : B + 1].max(initial=0)) + E + 1)
        self.rows = np.zeros((max(self.nk, kmax + 1), T + 1), dtype=np.int64)
        self.flat = self.rows.reshape(-1)
        self.krow = np.arange(self.nk, dtype=np.int64) * (T + 1)

    def start_group(self, gx: np.ndarray) -> None:
        """Set up the group of x = gx: the levels p^e < P of its pieces,
        the difference array of the slope-x pieces' whole runs, with rows
        (k, r) for k = 1..v_p(x) and r = 0..x-1 per x and the columns q - x
        of the sweep's layout, and one array of the same columns and rows
        (x, r) per level e < e0 of their classes."""
        p, xb = self.p, int(gx[-1])
        E, P = 1, p
        while P < 2 * xb:
            E, P = E + 1, P * p
        # in a group of one x the slope-x classes modulo p^e go to level
        # arrays while p^e <= x / 16; past that, and in groups of many short
        # x, moving the members one by one costs less
        e0 = 1
        while gx[0] == xb and 16 * p**e0 <= xb and e0 < E:
            e0 += 1
        self.E, self.P, self.e0 = E, P, e0
        self.xa, self.xb = int(gx[0]), xb
        self.vx = self.vtab[gx]
        self.ncol = xb + 2
        size = gx.astype(np.int64) * self.vx * self.ncol
        self.first = np.cumsum(size) - size
        self.lay = np.zeros(int(size.sum()), dtype=np.int64)
        self.rfirst = (np.cumsum(gx) - gx).astype(np.int64)
        nr = int(gx.sum())
        self.levels = []
        for e in range(1, e0):
            s = p**e
            self.levels.append(np.zeros((nr, -(-(xb - 1 + s) // s) * s), dtype=np.int64))

    def cells(self, det, hidx, w) -> None:
        """Single cells of |det| det at the column hidx = min(height, T), w
        matrices each (k = 0 needs no entry); flat int64 arrays from
        ``_flat``."""
        k = self.vtab[det]
        f = np.flatnonzero(k)
        np.add.at(self.flat, k[f] * self.krow[1] + hidx[f], w[f])

    def _mod(self, a, P):
        return a & (P - 1) if self.p == 2 else a - a // P * P

    def pieces(self, A, c, lo, hi, hidx, w) -> None:
        """Pieces of det = A t + c over t in [lo, hi] (empty if hi = lo - 1),
        w matrices per t, one row of pieces per height.  A > 0, hidx =
        min(height, T) and w (or one w for all) hold one value per row;
        c >= 0, lo and hi are 2-d of one shape, one column per piece."""
        p, P, E, vtab = self.p, self.P, self.E, self.vtab
        R, n = c.shape
        v = vtab[A]
        w = np.asarray(w, dtype=np.int64)
        idx, cnt = [], []
        if v.any():
            # p^v does not divide c: no root, every t has k = v_p(c)
            pv = self.pw[v].astype(c.dtype)
            pv = pv[0] if (v == v[0]).all() else pv[:, None]
            c_ = c // pv
            low = c_ * pv != c
            f = np.flatnonzero(low)
            i = f // n
            idx.append(vtab[c.reshape(-1)[f]] * self.krow[1] + hidx[i])
            cnt.append((hi - lo + 1).reshape(-1)[f] * _take(w, (R,), i))
            hi = hi - (hi - lo + 1) * low
        else:
            c_ = c
        half = P // 2
        m = c_.astype(self.dt) * (self.ninv[A] % P).astype(self.dt)[:, None] + half
        rs = (self._mod(m, P) - half).astype(c.dtype)  # t* mod P, nearest 0
        def rowsum(a, dt=None):
            # a reduction along an axis of length 1 costs more than a copy
            return a[:, 0] if n == 1 else a.sum(axis=1, dtype=dt)

        # ge[e]: the t with k >= v + e, summed over the row
        ge = np.empty((E + 1, R), dtype=np.int64)
        ge[0] = rowsum(hi - lo + 1)
        if E > 1:
            a, b = hi - rs, lo - 1 - rs
            # |a|, |b| <= P/2 + 2x; int16 halves the traffic of each level
            if half + 2 * self.xb < 2**15:
                a, b = a.astype(np.int16), b.astype(np.int16)
            for e in range(1, E):
                s = p**e  # a scalar divisor: numpy's fast path
                # a row sums n counts of at most 2x/s + 1 each
                dt = np.int16 if n * (2 * self.xb // s + 2) < 2**15 else np.int32
                ge[e] = rowsum(a // s - b // s, dt)
        hit = (rs >= lo) & (rs <= hi)
        ge[E] = rowsum(hit)
        # the levels' exact counts, zeros and all: masking them costs more
        d = ge[:-1]
        d -= ge[1:]
        d *= w
        base = self.krow[v] + hidx
        for e in range(E):
            np.add.at(self.flat, base + self.krow[e], d[e])
        # the candidates, each at its own k
        f = np.flatnonzero(hit)
        i = f // n
        det = A[i].astype(np.int64) * rs.reshape(-1)[f] + c.reshape(-1)[f]
        idx.append(vtab[np.abs(det)] * self.krow[1] + hidx[i])
        cnt.append(_take(w, (R,), i))
        for a, b in zip(idx, cnt):
            np.add.at(self.flat, a.ravel(), b.ravel())

    def runs(self, X, Q, lo, hi, r, q) -> None:
        """The eps = + slope-x pieces, one per entry (X may be one x for
        all): w in [lo, hi] at heights xw + Q, det = xw - Q, 48 matrices
        each.

        A run has k >= min(v_p(Q), v_p(x)) throughout, and k exactly that
        off the class of the root modulo p.  Whole runs go to the rows of
        that k (for k >= 1); the classes modulo p^e of the runs with a root
        go to the level arrays for e < e0, and the members of the class
        modulo p^e0 move from the row of k = v_p(x) + e0 - 1 to their own k
        one by one."""
        v = self.vtab[X]
        if v.any():
            X, v = np.broadcast_arrays(X, v, Q)[:2]
            u = self.vtab[Q]
            k = np.minimum(u, v)
            whole = np.flatnonzero(k)
            cell = self.first[X[whole] - self.xa] + ((k[whole] - 1) * X[whole] + r[whole]) * self.ncol + (q - X)[whole]
            np.add.at(self.lay, cell + lo[whole], 1)
            np.subtract.at(self.lay, cell + hi[whole] + 1, 1)
            f = np.flatnonzero(u >= v)
            X, Q, lo, hi, r, q, v = (a[f] for a in (X, Q, lo, hi, r, q, v))
            Q_ = Q // self.pw[v].astype(Q.dtype)
        else:
            Q_ = Q
        p, e0 = self.p, self.e0
        P0 = p**e0
        dt = self.dt
        rt = self._mod(self._mod(Q_, P0).astype(dt) * (self.inv[X] % P0).astype(dt), P0)  # w* mod p^e0
        if self.levels:
            row = self.rfirst[X - self.xa] + r
            for e, L in enumerate(self.levels, 1):
                s = p**e
                w1 = lo + self._mod(rt - lo, s)
                pos = row * L.shape[1] + q - X + w1
                np.add.at(L.reshape(-1), pos, 1)
                np.subtract.at(L.reshape(-1), pos + s * ((hi - w1) // s + 1), 1)
        w1 = lo + self._mod(rt - lo, P0)
        m = (hi - w1) // P0 + 1
        i = np.repeat(np.arange(len(m)), m)
        w = w1[i] + P0 * (np.arange(len(i)) - np.repeat(np.cumsum(m) - m, m))
        Xi, Qi = (X[i] if np.ndim(X) else X), Q[i]
        h = Xi * w + Qi  # below T
        k = self.vtab[Xi * w - Qi] * self.krow[1]
        moved = _take(v, Q.shape, i) + (e0 - 1)
        f = np.flatnonzero(moved)
        idx = np.concatenate([k + h, moved[f] * self.krow[1] + h[f]])
        np.add.at(self.flat, idx, np.repeat([48, -48], [len(k), len(f)]))

    def end_group(self, gx: np.ndarray, T: int) -> None:
        """Add the group's whole runs and level arrays, 48 matrices per
        cell: the classes modulo p^e leave the row of k = v_p(x) + e - 1
        for the row of k = v_p(x) + e."""
        xs, firsts, vs = gx.tolist(), self.first.tolist(), self.vx.tolist()
        if self.lay.size:
            lay = self.lay.reshape(-1, self.ncol).cumsum(axis=1).ravel()
            for x, start, v in zip(xs, firsts, vs):
                if not v:
                    continue
                n = min(T - x * x, x * (x + 1))
                rows = lay[start : start + v * x * self.ncol].reshape(v, x, self.ncol)
                span = rows[:, :, : x + 1].transpose(0, 2, 1).reshape(v, -1)  # heights x^2 + j
                self.rows[1 : v + 1, x * x : x * x + n] += 48 * span[:, :n]
        for e, L in enumerate(self.levels, 1):
            s = self.p**e
            nr, nc = L.shape
            cov = 48 * L.reshape(nr, nc // s, s).cumsum(axis=1).reshape(nr, nc)
            for x, row, v in zip(xs, self.rfirst.tolist(), vs):
                n = min(T - x * x, x * (x + 1))
                span = cov[row : row + x, : x + 1].T.ravel()[:n]  # heights x^2 + j
                self.rows[v + e, x * x : x * x + n] += span
                if v + e > 1:
                    self.rows[v + e - 1, x * x : x * x + n] -= span


def _sweep_group(T: int, gx: np.ndarray, gy: np.ndarray, all3: np.ndarray, cartan=()) -> None:
    """Add three times the counts of the cubes x = gx[0], ..., gx[-1]
    (consecutive) to ``all3``, and their Cartan rows to each of ``cartan``;
    the rows y = 0..gy[i] of x = gx[i] are those with C < T.  A cell
    (x, y, z) stands for w = 0..x."""
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
    for cr in cartan:
        cr.start_group(gx)

    # interior: 0 < y, z < x, weight 48 for w < x and 24 for w = x
    ny = np.minimum(gx - 1, gy)
    rx, ry = _expand(ny, gx)
    ry += 1
    zs = np.arange(1, xb, dtype=np.int32)[None, :]
    step = max(1, _SWEEP_BLOCK // max(1, xb - 1))
    for a in range(0, rx.size, step):
        Y = ry[a : a + step, None]
        if xa == xb:
            X, ok, z = xa, True, zs
        else:  # rows of several x share the columns z below their largest x
            X = rx[a : a + step, None]
            z = zs[:, : int(X[-1, 0]) - 1]
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
        if cartan:
            # the constant pieces of both signs: det = xt + Q for t in
            # [-cp, cm], t = -w under eps = +
            A = np.full(len(C), X) if xa == xb else X[:, 0]
            hrow = np.minimum(C[:, 0], T).astype(np.int64)
            he = cm if xa == xb else np.where(ok, cm, -cp - 1)
            # w = x under eps = +
            single = _flat(X * X - Q, np.minimum(Hxp, T), 24 * ok)
            f = np.flatnonzero(run)
            runs = [a if np.ndim(a) == 0 else _take(a, run.shape, f) for a in (X, Q, lo, hi, r, q)]
            for cr in cartan:
                cr.pieces(A, Q, -cp, he, hrow, 48)
                cr.cells(*single)
                cr.runs(*runs)
    # w = x, eps = -: max(C, 2xz) is C for z <= max(x // 2, y), else 2xz
    # (reached by the rows y < z when 2z > x)
    zc = np.minimum(rx - 1, np.maximum(rx // 2, ry))
    weighted.append((rx * np.maximum(rx, 2 * ry) - base, 24 * zc))
    cx, cn, k = _expand(np.maximum(gx - 1 - gx // 2, 0), gx, ny)
    cz = cx // 2 + 1 + k
    cy = np.minimum(cn, cz - 1)
    weighted.append((2 * cx * cz - base, 24 * cy))
    # the Cartan rows' pieces with one piece per height: (A, c, lo, hi,
    # height, w) for det = A t + c over t in [lo, hi]
    rowpieces = []
    if cartan:
        # det = x^2 + yz, linear in z along a row and in y along a column
        rowpieces.append((ry, rx * rx, 1, zc, rx * np.maximum(rx, 2 * ry), 24))
        rowpieces.append((cz, cx * cx, 1, cy, 2 * cx * cz, 24))

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
    if cartan:
        # one piece per cell: t in [-cp, cm] as above, or [1, cm] if Q = 0
        rowpieces.append((X, Q, np.where(both, -cp, 1), cm, C, wm))
        single = [
            np.concatenate(a)
            for a in zip(
                _flat(X * X + Q, np.minimum(Hxm, T), wx),
                _flat(X * X - Q, np.minimum(np.maximum(Hxm, X * X + Q), T), wx * (both & ~(ey & ez))),
            )
        ]
        for cr in cartan:
            cr.cells(*single)

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
    if cartan:
        # rows y of det = yz + xw (eps = -) and yz - xw (eps = +, up to
        # sign): det = zt + xw for t in [-k2, k1], t = -y under eps = +
        rowpieces.append((Z, X * W, -k2, k1, 2 * zw, np.where(Z == X, 24, 48)))
        A, c, lo, hi, h, w = (
            np.concatenate([np.full(len(a[0]), a[i]) if np.ndim(a[i]) == 0 else a[i] for a in rowpieces])
            for i in range(6)
        )
        c, lo, hi, h = c[:, None], lo[:, None], hi[:, None], np.minimum(h, T).astype(np.int64)
        for cr in cartan:
            cr.pieces(A, c, lo, hi, h, w)

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
    for cr in cartan:
        cr.end_group(gx, T)


def _sweep_pgl2(T: int, primes, radius: int, work_limit: int) -> tuple[np.ndarray, dict, int]:
    """Per height, the primitive canonical-sign matrices with det != 0 and
    adjoint height < T; per tracked prime their (k, height) counts, with
    rows k = 0..kmax for every |det| <= 2 radius^2; and the (x, y, z)
    triples visited."""
    if T > _SWEEP_MAX_T:
        raise EnumerationError(f"T = {T}: heights up to 2T overflow int32")
    B = math.isqrt(T - 1)
    xs = np.arange(1, B + 1, dtype=np.int32)
    ymax = np.minimum(xs, (T - 1) // (2 * xs))
    sizes = (xs + 1).astype(np.int64) * (ymax + 1)
    triples = int(sizes.sum())
    if triples > work_limit:
        raise ResourceGuardError(f"{triples} triples to visit exceed work limit {work_limit}")
    counts = np.zeros(T, dtype=np.int64)
    kmax = {}
    for p in primes:
        kmax[p], pk = 0, p
        while pk <= 2 * radius * radius:
            kmax[p], pk = kmax[p] + 1, pk * p
    # a prime above every |det| <= 2B^2 leaves all matrices at k = 0
    cartan = [_CartanRows(p, T, B, kmax[p]) for p in primes if p <= 2 * B * B]
    lo, acc = 0, 0
    for i, size in enumerate(sizes.tolist()):
        acc += size
        if acc >= _SWEEP_BLOCK or i == B - 1:
            _sweep_group(T, xs[lo : i + 1], ymax[lo : i + 1], counts, cartan)
            lo, acc = i + 1, 0
    _thirds(counts)
    joint = {}
    for p in primes:
        cr = next((cr for cr in cartan if cr.p == p), None)
        if cr is None:
            rows = joint[p] = np.zeros((kmax[p] + 1, T), dtype=np.int64)
        else:  # the sweep's rows become the joint counts in place
            rows = joint[p] = cr.rows[: kmax[p] + 1, :T]
            rows[cr.K + 1 :] = 0
            for k in range(1, cr.K + 1):
                _thirds(rows[k])
        rows[0] = counts - rows[1:].sum(axis=0)
    # prim = product over primes q of (1 - S_(q^2)) applied to all; since
    # v_p(det dg) = 2 v_p(d) + v_p(det g), at q = p it also moves k up by 2
    for q in primes_below(B + 1):
        q2 = q * q
        n = (T - 1) // q2
        # numpy reads overlapping operands as if copied first
        counts[q2::q2] -= counts[1 : n + 1]
        for p, rows in joint.items():
            s = 2 if q == p else 0
            rows[s:, q2::q2] -= rows[: len(rows) - s, 1 : n + 1]
    return counts, joint, triples


def _thirds(a: np.ndarray) -> None:
    """Divide the 1-d array ``a`` by 3 in place, which must be exact."""
    rest = np.empty_like(a)
    np.divmod(a, 3, out=(a, rest))
    if rest.any():
        raise EnumerationError("sweep weights do not add up to whole matrices")


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
    dominates max|entry|^2; a larger radius must not change any count, and
    sets only the rows of ``joint`` (k up to log_p(2 radius^2)).  The sweep
    runs on one thread whatever ``threads`` says, sizes its arrays by
    isqrt(T - 1), and reports the (x, y, z) triples it visits as
    ``cells_visited``, which ``work_limit`` bounds.
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
    hc, joint, triples = _sweep_pgl2(T, primes, max(B, 1), work_limit)
    return PGL2Scan(threshold=T, height_counts=hc, joint=joint, cells_visited=triples)


# --------------------------------------------------------------------------
# product groups by convolution


def _int_kth_root(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 0, exact."""
    r = x if k == 1 else round(x ** (1.0 / k))
    while r**k > x:
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
    H(g)^w1 <= (T-1) // h2^w2: the prefix sum of s1 up to the height
    floor(((T-1) // h2^w2)^(1/w1)).  Raises if either spectrum is not
    complete over the range the threshold requires.
    """
    if w1 < 1 or w2 < 1:
        raise EnumerationError("weights must be positive integers")
    if T < 1:
        raise EnumerationError("T must be >= 1")
    # each spectrum must hold every height its factor takes below T
    c2 = s2.counts[: _check_below(_int_kth_root(T - 1, w2) + 1, s2.threshold)]
    c1 = s1.counts[: _check_below(_int_kth_root(T - 1, w1) + 1, s1.threshold)]
    # Python ints in an object array: the prefix sums stay exact past 2^63
    cum1 = np.cumsum(c1, dtype=object)
    total = 0
    for h2 in np.flatnonzero(c2).tolist():
        budget = (T - 1) // (h2**w2)  # H1^w1 <= budget
        total += int(c2[h2]) * cum1[_int_kth_root(budget, w1)]
    return total
