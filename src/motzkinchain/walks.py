"""Colored Motzkin walk combinatorics.

A walk is a plain tuple of the chain's own base-``(2s+1)`` digits, so a walk
and a chain configuration are the same string: ``0`` is a flat step, ``c``
an up (left) step of color ``c`` and ``s+c`` a down (right) step of color
``c``, for ``c = 1..s``.  A walk is a (colored) Motzkin walk when it never
dips below zero, ends at zero, and every down step closes the most recent
still-open up step of the same color.  Dyck walks are the flat-free special
case.  The canonical order is lexicographic over the letters flat, downs,
ups, colors ascending within a kind: the digits ``0, s+1..2s, 1..s``.  The
token text writes the same letters as ``0``, ``dc`` and ``uc``.

Counts are exact arbitrary-precision integers, a row at a time from an O(n)
recurrence.  ``CountTable.build``, the input to the Schmidt-spectrum module,
reads those rows up to ``EXACT_LIMIT`` and past it natural logs built on
``gammaln``: only the rows near the top Schmidt weight, each from the window
of its terms near the peak, so that what is left out lies far below one ulp
of each sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, InvalidSpec, SizeExceeded

EXACT_LIMIT = 300
ENUMERATION_GUARD = 10**8
# entries per chunk of log-space summands (256 KiB), so a table's memory is O(n)
_TERM_CHUNK = 2**15
# row entries a log-space table may sum (n**2/4 in full; 4.7e9 in the top rows at n = 10**6, s = 2)
LOG_WORK_LIMIT = 3 * 10**10
# past EXACT_LIMIT: rows within _TOP_CUT of the top Schmidt weight (entropy_exact
# keeps those within 80), each from a window _TOP_DEPTH below its peak
_TOP_CUT = 90.0
_TOP_DEPTH = 100.0


def encode_walk(walk: Sequence[int], s: int) -> str:
    """Render a walk as space-separated tokens, e.g. ``"u2 0 d2"``."""
    return " ".join(
        "0" if digit == 0 else f"u{digit}" if digit <= s else f"d{digit - s}" for digit in walk
    )


def enumerate_walks(length: int, colors: int, kind: str) -> Iterator[tuple[int, ...]]:
    """The complete walks of the given length in canonical lexicographic order.

    ``kind`` is ``"motzkin"`` for colored Motzkin walks or ``"dyck"`` for
    colored Dyck walks (no flat steps).  A depth-first search prunes
    invalid prefixes, so only viable walks are visited.  The guard therefore
    bounds the number of walks the request would yield, not the raw
    candidate space; counts beyond ``ENUMERATION_GUARD`` raise
    :class:`SizeExceeded`.  Arguments and guard are checked on the call, not
    at the first ``next()``; the walks are then yielded lazily.
    """
    if length < 0 or colors < 1:
        raise InvalidSpec("length must be >= 0 and colors >= 1")
    if kind == "dyck":
        yield_count = (
            0 if length % 2 else colors ** (length // 2) * catalan_number(length // 2)
        )
    elif kind == "motzkin":
        yield_count = motzkin_number(length, colors)
    else:
        raise InvalidSpec(f"unknown walk family {kind!r}")
    if yield_count > ENUMERATION_GUARD:
        raise SizeExceeded(
            f"{yield_count} walks of kind {kind!r} exceed the enumeration "
            f"guard {ENUMERATION_GUARD:.0e}"
        )
    return _walks(length, colors, kind)


def _walks(length: int, colors: int, kind: str) -> Iterator[tuple[int, ...]]:
    """The depth-first walk generator behind :func:`enumerate_walks`."""
    ups = list(range(1, colors + 1))
    flats = [0] if kind == "motzkin" else []
    prefix: list[int] = []
    stack: list[int] = []

    def rec(remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            if not stack:
                yield tuple(prefix)
            return
        # the walk cannot come back down in time
        if len(stack) > remaining:
            return
        # canonical order: flat, the one down step that closes the top open
        # color, then the ups
        closing = [colors + stack[-1]] if stack else []
        for letter in flats + closing + ups:
            if letter > colors:
                stack.pop()
            elif letter:
                stack.append(letter)
            prefix.append(letter)
            yield from rec(remaining - 1)
            prefix.pop()
            if letter > colors:
                stack.append(letter - colors)
            elif letter:
                stack.pop()

    yield from rec(length)


# ---------------------------------------------------------------------------
# Exact integer counting
# ---------------------------------------------------------------------------

def binomial(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside ``0 <= k <= n``."""
    return math.comb(n, k) if 0 <= k <= n else 0


def catalan_number(w: int) -> int:
    if w < 0:
        raise DomainError("Catalan numbers need w >= 0")
    return binomial(2 * w, w) - binomial(2 * w, w - 1)


def ballot_count(length: int, m: int) -> int:
    """Number of one-colored nonnegative up/down walks from 0 to ``m``.

    Nonzero only when ``length`` and ``m`` have equal parity and
    ``0 <= m <= length``; with ``length = 2i + m`` the count is
    ``C(2i+m, i) - C(2i+m, i-1)`` by the reflection principle.
    """
    if m < 0 or m > length or (length - m) % 2:
        return 0
    i = (length - m) // 2
    return binomial(length, i) - binomial(length, i - 1)


def halfwalk_term_row(n: int, m: int, s: int) -> list[int]:
    """The summands ``C(n, 2i+m) * ballot(2i+m, m) * s**i`` of ``M(n, m, s)``,
    one per number ``i = 0..(n-m)//2`` of matched pairs; the exact twin of
    :class:`_LogTerms`."""
    return [
        binomial(n, 2 * i + m) * ballot_count(2 * i + m, m) * s**i
        for i in range((n - m) // 2 + 1)
    ]


def colored_halfwalk_count(n: int, m: int, s: int) -> int:
    """Count length-``n`` colored Motzkin prefixes ending at height ``m``.

    Interior matched pairs contribute a free color choice each (factor
    ``s``); the colors of the ``m`` still-open up steps are not counted.
    The sum runs over the number ``i`` of matched pairs:

        sum_i  C(n, 2i+m) * ballot(2i+m, m) * s**i
    """
    if s < 1:
        raise InvalidSpec("color count s must be >= 1")
    if m < 0 or m > n:
        return 0
    return sum(halfwalk_term_row(n, m, s))


def motzkin_number(length: int, s: int = 1) -> int:
    """Count complete s-colored Motzkin walks of the given length.

    Sums over the number ``w`` of matched pairs: choose the 2w non-flat
    positions, a Dyck shape on them, and a color per pair:

        sum_w  s**w * Catalan(w) * C(length, 2w)
    """
    if s < 1:
        raise InvalidSpec("color count s must be >= 1")
    if length < 0:
        raise DomainError("length must be >= 0")
    return sum(
        s**w * catalan_number(w) * binomial(length, 2 * w)
        for w in range(length // 2 + 1)
    )


def halfwalk_row(n: int, s: int) -> list[int]:
    """``M(n, m, s)`` for ``m = 0..n`` in O(n) integer steps.

    ``c_j = [x^j] (x + 1 + s/x)**n`` counts the free walks, ``s`` per down
    step; ``x P' (x + 1 + s/x) = n P (x - s/x)`` gives the exact division
    ``(n - j + 1) c_{j-1} = s (n + j + 1) c_{j+1} + j c_j`` from ``c_n = 1``,
    ``c_{n+1} = 0``, and reflecting about -1, ``M(n, m, s) = c_m - s c_{m+2}``.
    """
    if s < 1:
        raise InvalidSpec("color count s must be >= 1")
    if n < 0:
        raise DomainError("n must be >= 0")
    c = [0] * (n + 3)
    c[n] = 1
    for j in range(n, 0, -1):
        c[j - 1] = (s * (n + j + 1) * c[j + 1] + j * c[j]) // (n - j + 1)
    return [c[m] - s * c[m + 2] for m in range(n + 1)]


def full_walk_count(n: int, s: int) -> int:
    """Count colored Motzkin walks of length ``2n`` by glueing half-walks.

    A walk splits at midpoint height ``m`` into a prefix whose ``m`` open
    colors are free and a suffix whose closing colors are forced, giving
    ``sum_m s**m * M(n,m,s)**2``.
    """
    return sum(s**m * c * c for m, c in enumerate(halfwalk_row(n, s)))


def dyck_area_total(length: int) -> int:
    """Total area under strictly positive Motzkin excursions.

    The excursions counted here have ``length + 2`` steps: they leave zero
    immediately, stay strictly positive, and return on the final step; the
    area is the sum of all post-step heights.  The total satisfies
    ``A(L+1) = 2 A(L) + 3 A(L-1)`` and closes to ``(3**(L+1) + (-1)**L)/4``.
    """
    if length < 1:
        raise DomainError("area totals start at interior length 1")
    return (3 ** (length + 1) + (-1) ** length) // 4


# ---------------------------------------------------------------------------
# Log-space counting
# ---------------------------------------------------------------------------


def _logsumexp(values: np.ndarray) -> float:
    if values.size == 0:
        return -math.inf
    peak = float(np.max(values))
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(float(np.sum(np.exp(values - peak))))


@lru_cache(maxsize=1)
def _log_factorials(n: int) -> np.ndarray:
    """``log(k!)`` for ``k = 0..n`` from ``gammaln``, kept for the last ``n``."""
    return gammaln(np.arange(n + 1, dtype=float) + 1.0)


def _check_log_work(entries: int) -> None:
    if entries > LOG_WORK_LIMIT:
        raise SizeExceeded(f"{entries:.3g} log-space row entries exceed LOG_WORK_LIMIT")


class _LogTerms:
    """The summands of ``log M(n, m, s)``, ``k = 2i+m``, ``j = i+m``, ``i`` pairs:

        log C(n, k) + (log k! - log i! - log j!) + log((m+1)/(j+1)) + i log s

    (the ballot difference folded into ``(m+1)/(j+1)``, so nothing cancels),
    -inf past a row's last pair count ``(n-m)//2``."""

    def __init__(self, n: int, s: int):
        self.n, self.s = n, s
        self.fact = _log_factorials(n)
        self.up = np.concatenate([self.fact, np.zeros(n + 1)])
        # zeros above n and +inf below 0 make a term past its row's end -inf
        below = np.concatenate([self.fact[::-1], np.full(n + 1, math.inf)])
        self.log_binom = self.fact[n] - self.up - below
        self.plus_one = np.arange(1.0, 2 * n + 3)
        self.pair_weight = np.arange(n // 2 + 1.0) * math.log(s)

    @staticmethod
    def _fill(out, part, log_binom_k, fact_k, fact_i, fact_j, m_plus_one, j_plus_one, weight_i):
        # operands are strided views or gathered arrays: the same float ops either way
        np.copyto(out, log_binom_k)
        np.subtract(fact_k, fact_i, out=part)
        out += np.subtract(part, fact_j, out=part)
        out += np.log(np.divide(m_plus_one, j_plus_one, out=part), out=part)
        out += weight_i
        return out

    def block(self, m0: int, c0: int, out: np.ndarray, part: np.ndarray) -> np.ndarray:
        """Rows ``m0, m0+1, ...`` and pair counts ``c0, c0+1, ...`` into ``out``."""
        (g, w), step = out.shape, self.up.strides[0]

        def view(table, start, col_step):
            return np.ndarray((g, w), float, table, start * step, (step, col_step * step))

        k0, j0 = m0 + 2 * c0, m0 + c0
        return self._fill(
            out, part, view(self.log_binom, k0, 2), view(self.up, k0, 2), self.fact[c0 : c0 + w],
            view(self.up, j0, 1), self.plus_one[m0 : m0 + g, None], view(self.plus_one, j0, 1),
            self.pair_weight[c0 : c0 + w],
        )

    def points(self, m: np.ndarray, i: np.ndarray) -> np.ndarray:
        """The terms at the index pairs ``(m, i)``."""
        k, j = m + 2 * i, m + i
        return self._fill(
            np.empty(m.shape), np.empty(m.shape), self.log_binom[k], self.up[k], self.fact[i],
            self.up[j], self.plus_one[m], self.plus_one[j], self.pair_weight[i],
        )

    def peaks(self, m: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Each row's peak: ``t(i+1)/t(i) = s (a-2i)(a-2i-1) / ((i+1)(i+m+2))``,
        ``a = n-m``, falls in ``i``, and ``t(i+1) <= t(i)`` over ``s`` reads
        ``A i^2 - B i + C <= 0``, first met at ``2C / (B + sqrt(B^2 - 4AC))`` rounded up."""
        a, inv_s = self.n - m, math.exp(-math.log(self.s))
        b = 2.0 * (2.0 * a - 1.0) + (m + 3.0) * inv_s
        c = a * (a - 1.0) - (m + 2.0) * inv_s
        root = 2.0 * c / (b + np.sqrt(b * b - 4.0 * (4.0 - inv_s) * c))
        return np.clip(np.ceil(root), 0, last).astype(np.int64)


def _row_windows(terms: _LogTerms, depth: float, cut: float) -> tuple[int, np.ndarray, np.ndarray]:
    """The first row to build and the first and last pair count of each built
    row's window (the terms within ``depth`` of its peak).  The rows built run
    from the first to the last whose upper-bound weight ``m log s + 2 (peak
    term + log length)`` lies within ``cut`` of the largest lower bound
    ``m log s + 2 peak term``."""
    m = np.arange(terms.n + 1)
    last = (terms.n - m) // 2
    peak = terms.peaks(m, last)
    top = terms.points(m, peak)
    weight = m * math.log(terms.s) + 2.0 * top
    upper = weight + 2.0 * np.log(last + 1.0)
    kept = np.flatnonzero(upper >= weight.max() - cut)
    rows = slice(int(kept[0]), int(kept[-1]) + 1)
    # how far each window reaches from the peak, down (first half) and up
    count = rows.stop - rows.start
    m, floor = np.tile(m[rows], 2), np.tile(top[rows] - depth, 2)
    base, side = np.tile(peak[rows], 2), np.repeat([-1, 1], count)
    hi = np.concatenate([peak[rows], last[rows] - peak[rows]])
    # a side whose far end reaches the floor reaches it throughout
    lo = np.where(terms.points(m, base + side * hi) >= floor, hi, 0)
    active = np.flatnonzero(lo < hi)
    while active.size:
        a, b = lo[active], hi[active]
        mid = (a + b + 1) // 2
        reach = terms.points(m[active], base[active] + side[active] * mid) >= floor[active]
        lo[active], hi[active] = np.where(reach, mid, a), np.where(reach, b, mid - 1)
        active = active[lo[active] < hi[active]]
    return rows.start, base[:count] - lo[:count], base[count:] + lo[count:]


def _log_halfwalk(n: int, s: int, depth: float, cut: float) -> tuple[np.ndarray, float]:
    """``log M(n, m, s)`` for ``m = 0..n`` (-inf for rows not built) and the
    log full-walk count, from the windows of :func:`_row_windows`, built for
    runs of rows over the union of their windows.

    Each row is summed once as a full-length 1-D row, zero outside the built
    columns, so ``np.add.reduce`` takes the full row's pairwise tree.  At
    ``depth`` and ``cut`` past exp's underflow every term and row left out is
    an exact 0 and the result has every bit of the full sums.  Otherwise a
    term outside a window lies below ``exp(-depth)`` of its row's peak and a
    row left out below ``exp(-cut)`` of the top weight; at ``_TOP_DEPTH`` and
    ``_TOP_CUT`` what is omitted is under ``(n+1) exp(-90)`` relative, far below
    one ulp, so a bit can move only where a partial sum lies that close to a
    rounding boundary."""
    terms = _LogTerms(n, s)
    r, first, final = _row_windows(terms, depth, cut)
    m_lo = r
    lengths = (n - np.arange(r, r + first.size)) // 2 + 1
    _check_log_work(int(lengths.sum()))
    padded = np.zeros(max(4 * _TERM_CHUNK, n // 2 + 1))
    out = np.full(n + 1, -math.inf)
    while r < m_lo + first.size:
        # the rows from r whose union window fits a chunk and whose rows fit `padded`
        k = r - m_lo
        length = int(lengths[k])
        cap = min(first.size - k, padded.size // length)
        cap = min(cap, max(1, _TERM_CHUNK // int(final[k] - first[k] + 1)))
        c0 = np.minimum.accumulate(first[k : k + cap])
        c1 = np.maximum.accumulate(final[k : k + cap]) + 1
        g = max(1, int(np.count_nonzero(np.arange(1, cap + 1) * (c1 - c0) <= _TERM_CHUNK)))
        c0, c1 = int(c0[g - 1]), int(c1[g - 1])
        grid = padded[: g * length].reshape(g, length)
        block = terms.block(r, c0, grid[:, c0:c1], np.empty((g, c1 - c0)))
        peaks = block.max(axis=1)
        block -= peaks[:, None]
        # exp is an exact 0 below -745.2, at -1e4 as at -inf
        np.exp(np.maximum(block, -1e4, out=block), out=block)
        for row, size, peak in zip(grid, lengths[k : k + g].tolist(), peaks.tolist()):
            out[r] = peak + math.log(float(np.add.reduce(row[:size])))
            r += 1
        block[...] = 0.0
    return out, _logsumexp(np.arange(n + 1) * math.log(s) + 2.0 * out)


# ---------------------------------------------------------------------------
# CountTable
# ---------------------------------------------------------------------------


@dataclass
class CountTable:
    """``log M(n, m, s)`` for ``m = 0..n`` and the log full-walk count
    ``log sum_m s**m M(n, m, s)**2`` of the doubled chain.

    Exact integer rows up to ``EXACT_LIMIT``; past it the log-space rows
    within ``_TOP_CUT`` of the top Schmidt weight, each from a window
    ``_TOP_DEPTH`` deep, and -inf elsewhere: what is left out is under
    ``(n+1) exp(-90)`` relative, far below one ulp (see :func:`_log_halfwalk`).
    """

    n: int
    s: int
    log_halfwalk: np.ndarray
    log_total: float

    @classmethod
    def build(cls, n: int, s: int) -> "CountTable":
        if n < 0:
            raise DomainError("n must be >= 0")
        if s < 1:
            raise InvalidSpec("color count s must be >= 1")
        if n > EXACT_LIMIT:
            return cls(n, s, *_log_halfwalk(n, s, _TOP_DEPTH, _TOP_CUT))
        counts = halfwalk_row(n, s)
        logs = np.array([math.log(c) if c else -math.inf for c in counts], dtype=float)
        return cls(n, s, logs, math.log(sum(s**m * c * c for m, c in enumerate(counts))))

    def log_schmidt_weight(self) -> np.ndarray:
        """Log of ``s**m * p_m`` for each ``m``; the weights sum to one."""
        m = np.arange(self.n + 1)
        return m * math.log(self.s) + 2.0 * self.log_halfwalk - self.log_total
