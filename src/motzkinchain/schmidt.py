"""Schmidt spectrum and entanglement entropy of the colored Motzkin state.

Cutting the uniform superposition over colored Motzkin walks at the middle
of a ``2n``-site chain gives Schmidt values indexed by the midpoint height
``m`` and the colors of the ``m`` open up steps: each height contributes the
probability ``p_m = M(n,m,s)**2 / N`` with multiplicity ``s**m``, where
``M(n,m,s)`` counts half-walks and ``N`` normalizes.  The entropy therefore
grows like ``sqrt(n)`` for two or more colors and logarithmically for one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .walks import CountTable

EULER_GAMMA = 0.5772156649015329

# entropy terms whose weight is below exp(TRUNCATION_LOG_CUTOFF) of the peak
# weight are dropped; the discarded tail is below 1e-20 for n up to 1e6
TRUNCATION_LOG_CUTOFF = -80.0


def sigma(s: int) -> float:
    """Peak-location constant ``sqrt(s) / (2 sqrt(s) + 1)``."""
    if s < 1:
        raise InvalidSpec("color count s must be >= 1")
    if s > sys.float_info.max:
        raise InvalidSpec("color count s exceeds the float range")
    r = math.sqrt(s)
    return r / (2.0 * r + 1.0)


def alpha_peak(s: int) -> float:
    """The Schmidt weight over heights peaks near ``alpha_peak(s) * sqrt(n)``."""
    return math.sqrt(2.0 * sigma(s))


def schmidt_rank(n: int, s: int) -> int:
    """Number of distinct Schmidt vectors: ``1 + s + ... + s**n``."""
    if n < 0:
        raise InvalidSpec("n must be >= 0")
    if s < 1:
        raise InvalidSpec("color count s must be >= 1")
    if s == 1:
        return n + 1
    return (s ** (n + 1) - 1) // (s - 1)


@dataclass
class SchmidtSpectrum:
    """Midpoint-height resolved Schmidt data for one ``(n, s)``.

    ``log_probability[m]`` is ``ln p_m``; the full spectrum lists ``p_m``
    with multiplicity ``s**m``, so ``sum_m s**m p_m = 1``.
    """

    n: int
    s: int
    log_probability: np.ndarray
    rank: int

    def log_weight(self) -> np.ndarray:
        """Log of the multiplicity-weighted probabilities ``s**m p_m``."""
        m = np.arange(self.n + 1)
        return m * math.log(self.s) + self.log_probability


def schmidt_spectrum(table: CountTable) -> SchmidtSpectrum:
    logp = 2.0 * table.log_halfwalk - table.log_total
    return SchmidtSpectrum(
        n=table.n,
        s=table.s,
        log_probability=logp,
        rank=schmidt_rank(table.n, table.s),
    )


def entropy_exact(n: int, s: int) -> float:
    """Entanglement entropy ``-sum_m s**m p_m ln p_m`` across the middle cut,
    from the ratio row of :meth:`CountTable.build`, over the heights whose
    weight lies within ``TRUNCATION_LOG_CUTOFF`` of the top.
    """
    table = CountTable.build(n, s)
    logw = table.log_schmidt_weight()
    logp = 2.0 * table.log_halfwalk - table.log_total
    keep = logw >= np.max(logw) + TRUNCATION_LOG_CUTOFF
    return -float(np.sum(np.exp(logw[keep]) * logp[keep]))


def entropy_asymptotic(n: int, s: int) -> float:
    """Large-``n`` entropy: ``2 ln(s) sqrt(2 sigma / pi) sqrt(n) + (1/2) ln n + c``.

    The additive constant is ``gamma - 1/2 + (ln 2 + ln pi + ln sigma)/2``.
    For one color the leading term vanishes and the logarithm dominates.
    """
    if n < 1:
        raise InvalidSpec("n must be >= 1")
    sig = sigma(s)
    return (
        2.0 * math.log(s) * math.sqrt(2.0 * sig / math.pi) * math.sqrt(n)
        + 0.5 * math.log(n)
        + EULER_GAMMA
        - 0.5
        + 0.5 * (math.log(2.0) + math.log(math.pi) + math.log(sig))
    )


def entropy_constant_bits() -> float:
    """The ``n``-independent part of the one-color entropy, in bits."""
    return (EULER_GAMMA - 0.5) / math.log(2.0) + 0.5 * (
        1.0 + math.log2(math.pi) + math.log2(sigma(1))
    )


def saddle_point(n: int, m: int, s: int) -> float:
    """Saddle location of the pair-count sum inside ``M(n,m,s)``.

    The dominant number of matched pairs sits at

        sigma*n - m/2 + (m/(8 sqrt(s))) (m/n)
                 + ((4s-1) m / (128 s sqrt(s))) (m/n)**3

    with corrections of order ``n (m/n)**5``.
    """
    if n < 1 or m < 0 or m > n:
        raise InvalidSpec("need 0 <= m <= n with n >= 1")
    sig = sigma(s)
    r = math.sqrt(s)
    x = m / n
    return (
        sig * n
        - m / 2.0
        + (m / (8.0 * r)) * x
        + ((4.0 * s - 1.0) * m / (128.0 * s * r)) * x**3
    )


def halfwalk_term_argmax(n: int, m: int, s: int) -> int:
    """Index ``i`` (number of matched pairs) of the first largest summand of
    ``M(n,m,s)``; the saddle-point formula approximates this.

    With ``a = n - m`` the term ratio ``t(i+1)/t(i) = s (a-2i)(a-2i-1) /
    ((i+1)(i+m+2))`` falls in ``i``, so the answer is the first ``i`` with
    ``s (a-2i)(a-2i-1) <= (i+1)(i+m+2)``, found by exact integer bisection.
    """
    if not 0 <= m <= n or s < 1:
        raise InvalidSpec("need 0 <= m <= n and s >= 1")
    a, lo, hi = n - m, 0, (n - m) // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if s * (a - 2 * mid) * (a - 2 * mid - 1) <= (mid + 1) * (mid + m + 2):
            hi = mid
        else:
            lo = mid + 1
    return lo


def expected_mid_height(n: int) -> tuple[float, float]:
    """Mean midpoint height of a random one-color Motzkin walk.

    Returns ``(exact, asymptotic)`` where the exact value is
    ``sum_m m M(n,m)**2 / sum_m M(n,m)**2`` and the asymptotic one is
    ``2 sqrt(2/(3 pi)) sqrt(n)``, a constant specific to one color.
    """
    table = CountTable.build(n, 1)
    logw = table.log_schmidt_weight()
    peak = float(np.max(logw))
    w = np.exp(logw - peak)
    exact = float(np.sum(np.arange(n + 1) * w) / np.sum(w))
    asymptotic = 2.0 * math.sqrt(2.0 / (3.0 * math.pi)) * math.sqrt(n)
    return exact, asymptotic
