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
runs the same recurrence in float ratios and keeps natural logs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, InvalidSpec, SizeExceeded

ENUMERATION_GUARD = 10**8
# the largest half-chain a count table takes: about 1 s and 115 MB at the limit
TABLE_LIMIT = 3 * 10**6


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
    one per number ``i = 0..(n-m)//2`` of matched pairs; they rise to one peak
    and fall (see :func:`motzkinchain.schmidt.halfwalk_term_argmax`)."""
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
# CountTable
# ---------------------------------------------------------------------------


@dataclass
class CountTable:
    """``log M(n, m, s) - R`` for ``m = 0..n`` and ``log sum_m s**m M(n, m, s)**2
    - 2R``, the log full-walk count of the doubled chain, both relative to one
    reference ``R = log c_0``.  Every reader takes differences (a log
    probability is ``2 log_halfwalk - log_total``), so ``R`` cancels.

    The rows run :func:`halfwalk_row`'s recurrence in the float ratios
    ``q_j = sqrt(s) c_j / c_{j-1}``: ``q_j = (n-j+1) / ((n+j+1) q_{j+1} +
    j/sqrt(s))`` from ``q_{n+1} = 0``, a backward three-term recurrence taken
    as a continued fraction.  Every term is positive, so an error in
    ``q_{j+1}`` reaches ``q_j`` damped (Gautschi, SIAM Review 9, 1967).  Then
    ``log(s**(m/2) c_m / c_0)`` sums ``log q_j`` over ``j = 1..m``, and
    ``log M = log c_m + log1p(-q_{m+1} q_{m+2})``.  The scaled coefficients
    ``s**(j/2) c_j`` are symmetric about ``j = 0`` and peak there, so the rows
    near the top Schmidt weight, ``m`` of order ``sqrt(n)``, sum ratios close
    to one over short runs, and no value of size ``n log n`` is rounded.
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
        if s > sys.float_info.max:
            raise InvalidSpec("color count s exceeds the float range")
        if n > TABLE_LIMIT:
            raise SizeExceeded(f"n = {n} exceeds TABLE_LIMIT = {TABLE_LIMIT:.0e}")
        # q[j] for j = 1..n; q[0] = 1 starts the sum, q[n+1] = q[n+2] = 0 end the rows
        q = np.zeros(n + 3)
        q[0] = 1.0
        ratio, root = 0.0, math.sqrt(s)
        for j in range(n, 0, -1):
            ratio = (n - j + 1) / ((n + j + 1) * ratio + j / root)
            q[j] = ratio
        log_halfwalk = np.cumsum(np.log(q[: n + 1]))
        log_halfwalk -= np.arange(n + 1) * (0.5 * math.log(s))
        log_halfwalk += np.log1p(-q[1 : n + 2] * q[2 : n + 3])
        weight = np.arange(n + 1) * math.log(s) + 2.0 * log_halfwalk
        peak = float(weight.max())
        return cls(n, s, log_halfwalk, peak + math.log(float(np.sum(np.exp(weight - peak)))))

    def log_schmidt_weight(self) -> np.ndarray:
        """Log of ``s**m * p_m`` for each ``m``; the weights sum to one."""
        m = np.arange(self.n + 1)
        return m * math.log(self.s) + 2.0 * self.log_halfwalk - self.log_total
