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

The module offers two arithmetic routes for the counting functions:

* exact arbitrary-precision integers, used for half-chain lengths up to
  ``EXACT_LIMIT``;
* natural-log floating point built on ``gammaln``, usable far beyond that:
  chunks of every height's summands are filled into one reused buffer from
  1-D tables, then summed by log-sum-exp with ``exp`` spared every entry
  that underflows, keeping every bit of the per-height formula.

``CountTable`` bundles both and is the input to the Schmidt-spectrum and
external-field modules.
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

_PASCAL: list[list[int]] = [[1]]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient from a row-cached Pascal triangle."""
    if k < 0 or k > n:
        return 0
    while len(_PASCAL) <= n:
        prev = _PASCAL[-1]
        row = [1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1]
        _PASCAL.append(row)
    return _PASCAL[n][k]


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
    :func:`log_halfwalk_terms`."""
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


def halfwalk_table(max_length: int, s: int) -> list[list[int]]:
    """DP table ``T[L][h]`` of colored prefix counts, heights ``0..max_length``.

    Independent route from :func:`colored_halfwalk_count`: the transfer
    recurrence, read off the final step of the prefix, is

        T[L][h] = T[L-1][h] + T[L-1][h-1] + s * T[L-1][h+1]

    (flat, fresh unmatched up, and a down completing a colored pair).
    """
    if s < 1:
        raise InvalidSpec("color count s must be >= 1")
    table = [[0] * (max_length + 2) for _ in range(max_length + 1)]
    table[0][0] = 1
    for L in range(1, max_length + 1):
        prev = table[L - 1]
        row = table[L]
        for h in range(L + 1):
            val = prev[h] + s * prev[h + 1]
            if h:
                val += prev[h - 1]
            row[h] = val
    return [row[: L + 1] for L, row in enumerate(table)]


def full_walk_count(n: int, s: int) -> int:
    """Count colored Motzkin walks of length ``2n`` by glueing half-walks.

    A walk splits at midpoint height ``m`` into a prefix whose ``m`` open
    colors are free and a suffix whose closing colors are forced, giving
    ``sum_m s**m * M(n,m,s)**2``.
    """
    total = 0
    for m in range(n + 1):
        half = colored_halfwalk_count(n, m, s)
        total += s**m * half * half
    return total


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


def log_halfwalk_terms(n: int, s: int, m_start: int, m_stop: int) -> Iterator[np.ndarray]:
    """Yield the summands of ``log M(n, m, s)`` for heights ``m_start <= m < m_stop``.

    Each chunk holds consecutive heights in rows and the pair count ``i``
    along columns, starting at 0, with the term

        log C(n, 2i+m) + log C(2i+m, i) + log((m+1)/(i+m+1)) + i log s

    and -inf past a row's last pair count ``(n-m)//2``.  The ballot
    difference is folded into the positive factor ``(m+1)/(i+m+1)`` so no
    cancellation occurs.  A chunk holds about ``_TERM_CHUNK`` entries.

    What depends on one index alone is a 1-D table built once per call:
    ``log C(n, k)``, ``j + 1.0`` and ``i log s``.  A chunk adds to a strided
    copy of the first ``log k! - log i! - log (i+m)!``, the log of a division
    of two views of the second, and the third: the float operations of the
    formula above in its order, so every term keeps its bits.  Each chunk is
    a view of one buffer that the next chunk overwrites; copy one to keep it.
    """
    fact = _log_factorials(n)
    # k = 2i+m and i+m may pass n, and n-k drop below zero, only past a row's
    # end: zeros above and +inf below make those entries come out -inf
    up = np.concatenate([fact, np.zeros(n + 1)])
    log_binom = fact[n] - up - np.concatenate([fact[::-1], np.full(n + 1, math.inf)])
    plus_one = np.arange(1.0, 2 * n + 3)
    pair_weight = np.arange(n // 2 + 1.0) * math.log(s)
    width = (n - m_start) // 2 + 1
    buffer, scratch = np.empty((2, min(max(_TERM_CHUNK, width), max(m_stop - m_start, 0) * width)))
    step = up.strides[0]
    m0 = m_start
    while m0 < m_stop:
        width = (n - m0) // 2 + 1
        shape = (min(m_stop - m0, max(1, _TERM_CHUNK // width)), width)
        terms, part = (b[: shape[0] * width].reshape(shape) for b in (buffer, scratch))
        np.copyto(terms, np.ndarray(shape, float, log_binom, m0 * step, (step, 2 * step)))
        k_fact = np.ndarray(shape, float, up, m0 * step, (step, 2 * step))
        np.subtract(k_fact, fact[:width], out=part)
        terms += np.subtract(part, np.ndarray(shape, float, up, m0 * step, (step, step)), out=part)
        # column 0 of j + 1.0, at j = m + i, is m + 1.0
        j_plus_one = np.ndarray(shape, float, plus_one, m0 * step, (step, step))
        terms += np.log(np.divide(j_plus_one[:, :1], j_plus_one, out=part), out=part)
        terms += pair_weight[:width]
        yield terms
        m0 += shape[0]


def _log_halfwalk(n: int, s: int, m_start: int, m_stop: int) -> np.ndarray:
    """``log M(n, m, s)`` for ``m_start <= m < m_stop``, one log-sum-exp per row.

    Each row is summed as its own contiguous slice, which keeps the pairwise
    grouping of a 1-D ``np.sum``; a 2-D sum over the -inf padding does not,
    and moves the last bit.  ``exp`` rounds anything below -746 to an exact
    0, but through a slow path (about 16 times the cost), so such entries and
    the padding go in as 0 and come out as 0: every row sum sees the same array.
    """
    out = []
    for terms in log_halfwalk_terms(n, s, m_start, m_stop):
        peaks = terms.max(axis=1)
        terms -= peaks[:, None]
        zero = terms < -746.0
        np.copyto(terms, 0.0, where=zero)
        np.exp(terms, out=terms)
        np.copyto(terms, 0.0, where=zero)
        for row, peak in zip(terms, peaks):
            m = m_start + len(out)
            out.append(float(peak) + math.log(float(row[: (n - m) // 2 + 1].sum())))
    return np.array(out, dtype=float)


# ---------------------------------------------------------------------------
# CountTable
# ---------------------------------------------------------------------------


@dataclass
class CountTable:
    """Half-walk counts for one ``(n, s)``: exact integers where feasible,
    natural logs always.

    ``halfwalk[m]`` is the count of length-``n`` prefixes ending at height
    ``m`` with open-step colors not counted; ``total`` is the full-walk count
    ``sum_m s**m halfwalk[m]**2`` for the doubled chain.
    """

    n: int
    s: int
    log_halfwalk: np.ndarray
    log_total: float
    halfwalk: list[int] | None = None
    total: int | None = None

    @classmethod
    def build(cls, n: int, s: int, mode: str = "auto") -> "CountTable":
        """``mode`` is ``"auto"`` (exact up to EXACT_LIMIT), ``"exact"``, or ``"log"``."""
        if n < 0:
            raise DomainError("n must be >= 0")
        if s < 1:
            raise InvalidSpec("color count s must be >= 1")
        if mode not in ("auto", "exact", "log"):
            raise InvalidSpec(f"unknown CountTable mode {mode!r}")
        if mode == "exact" and n > EXACT_LIMIT:
            raise SizeExceeded(f"exact tables stop at n = {EXACT_LIMIT}")
        exact = mode == "exact" or (mode == "auto" and n <= EXACT_LIMIT)
        if exact:
            counts = halfwalk_table(n, s)[n]
            total = sum(s**m * c * c for m, c in enumerate(counts))
            logs = np.array(
                [math.log(c) if c else -math.inf for c in counts], dtype=float
            )
            return cls(
                n=n,
                s=s,
                log_halfwalk=logs,
                log_total=math.log(total),
                halfwalk=counts,
                total=total,
            )
        logs = _log_halfwalk(n, s, 0, n + 1)
        log_total = _logsumexp(np.arange(n + 1) * math.log(s) + 2.0 * logs)
        return cls(n=n, s=s, log_halfwalk=logs, log_total=log_total)

    def log_schmidt_weight(self) -> np.ndarray:
        """Log of ``s**m * p_m`` for each ``m``; the weights sum to one."""
        m = np.arange(self.n + 1)
        return m * math.log(self.s) + 2.0 * self.log_halfwalk - self.log_total
