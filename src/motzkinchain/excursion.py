"""Brownian-excursion area tools and the phase-twisted trial state.

The area under a standard Brownian excursion has a density expressible
through the zeros of the Airy function and a confluent hypergeometric
factor, with moments generated by a simple rational recursion.  Both are
implemented here and cross-validated against each other by quadrature.

The same area statistic controls a variational estimate on the spin
chain: multiplying each Motzkin string's ground-state amplitude by a
phase proportional to the area under its walk costs an energy and leaves
an overlap with the ground state that one transfer product over heights
gives together, without enumerating strings.  That energy, doubled,
upper-bounds the spectral gap whenever the twisted state keeps at most
half its weight on the ground state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import airy, hyperu

from .errors import (
    DomainError,
    InvalidSpec,
    NoConvergence,
    OverlapTooLarge,
    SizeExceeded,
)

DEFAULT_ZERO_COUNT = 40
SERIES_TOL = 1e-12
QUADRATURE_RANGE = (1e-3, 3.0)
QUADRATURE_TOL = 1e-7
# the trial transfer product's size bound, in height updates (two_n * (n + 1))
TRIAL_WORK_LIMIT = 10**8
# zeros per step of the density series; a point leaves once its series stops
_SERIES_CHUNK = 4

# The twist angle that balances phase decay against energy cost scales as
# sqrt(3)/(2 sqrt(5/3 - pi/2)) times n^{-3/2}.
TWIST_CONSTANT = math.sqrt(3.0) / (2.0 * math.sqrt(5.0 / 3.0 - math.pi / 2.0))


@lru_cache(maxsize=None)
def airy_zeros(count: int = DEFAULT_ZERO_COUNT) -> np.ndarray:
    """First ``count`` zeros of Ai on the negative axis, descending.

    Each zero is bracketed between midpoints of the classical estimates
    ``-(3 pi (4j - 1)/8)^{2/3}`` for neighboring indices and refined by
    bisection until the interval closes to 1e-13, which leaves the
    residual |Ai| comfortably below 1e-10, all brackets in lockstep.  The
    table is computed once per ``count`` and returned read-only.
    """
    if count < 1:
        raise InvalidSpec("need at least one zero")
    estimates = np.array([0.0] + [
        -((3.0 * math.pi * (4 * j - 1) / 8.0) ** (2.0 / 3.0))
        for j in range(1, count + 2)
    ])
    hi = 0.5 * (estimates[:-2] + estimates[1:-1])
    lo = 0.5 * (estimates[1:-1] + estimates[2:])
    f_lo = airy(lo)[0]
    escaped = f_lo * airy(hi)[0] > 0
    if escaped.any():
        j = int(escaped.argmax())
        raise RuntimeError(f"zero {j + 1} escaped its bracket [{lo[j]}, {hi[j]}]")
    live = np.flatnonzero(hi - lo > 1e-13)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        f_mid = airy(mid)[0]
        left = f_lo[live] * f_mid < 0  # a zero mid closes its bracket on itself
        hi[live] = np.where(left | (f_mid == 0.0), mid, hi[live])
        lo[live], f_lo[live] = np.where(left, lo[live], mid), np.where(left, f_lo[live], f_mid)
        live = live[hi[live] - lo[live] > 1e-13]
    table = 0.5 * (lo + hi)
    table.flags.writeable = False
    return table


def _series_terms(values: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """The zero series' terms, one row per point and one column per zero."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = 2.0 * np.abs(zeros[None, :]) ** 3 / (27.0 * values[:, None] ** 2)
        return v ** (2.0 / 3.0) * np.exp(-v) * hyperu(-5.0 / 6.0, 4.0 / 3.0, v)


@dataclass
class ExcursionDensity:
    """Area density of the standard Brownian excursion.

    The zero series stops once a term falls below ``SERIES_TOL`` times the
    running sum, and its terms are evaluated a few zeros at a time only up to
    that stopping term; ``last_truncation_error`` records the size of the first
    omitted term from the most recent evaluation.  A point whose terms are
    all zero (the far left tail) has density 0; a point whose series never
    meets the tolerance over the available zeros, or whose terms are not
    finite, raises :class:`NoConvergence`.
    """

    zeros: np.ndarray
    last_truncation_error: float = 0.0

    def __call__(self, x):
        scalar = np.isscalar(x)
        values = np.atleast_1d(np.asarray(x, dtype=float))
        if (values <= 0).any():
            raise DomainError("the excursion area density lives on x > 0")
        count, rows = len(self.zeros), np.arange(len(values))
        terms = np.zeros((len(values), count))
        stop, live = np.full(len(values), count), rows
        for start in range(0, count, _SERIES_CHUNK):
            end = start + _SERIES_CHUNK
            terms[live, start:end] = chunk = _series_terms(values[live], self.zeros[start:end])
            # each step re-adds its rows from the first term, so every partial
            # sum is the one left-to-right sum over the whole row
            running = np.cumsum(terms[live, :end], axis=1)[:, start:]
            # "<=" so that a zero term stops the series even where the tolerance
            # times a subnormal running sum underflows to zero
            small = np.abs(chunk) <= SERIES_TOL * np.abs(running)
            done = small.any(axis=1)
            stop[live[done]] = start + small[done].argmax(axis=1)
            if not (live := live[~done]).size:
                break
        # a row that stops on a zero term (exp underflowed) is evaluated in full, as
        # hyperu may be nan further on; other rows stop at v < 746, far below its nans
        quiet = (stop < count) & (terms[rows, np.minimum(stop, count - 1)] == 0)
        terms[quiet] = _series_terms(values[quiet], self.zeros)
        failed = (stop == count) | ~np.isfinite(terms).all(axis=1)
        if failed.any():
            bad = int(failed.argmax())
            raise NoConvergence(
                f"excursion density series did not converge at x = {values[bad]:.17g}",
                float(abs(terms[bad, -1])),
            )
        summed = np.cumsum(terms, axis=1)[rows, np.maximum(stop, 1) - 1]
        self.last_truncation_error = float(np.abs(terms[rows, stop]).max(initial=0.0))
        out = 2.0 * math.sqrt(6.0) / values**2 * summed
        return float(out[0]) if scalar else out


def excursion_density() -> ExcursionDensity:
    return ExcursionDensity(zeros=airy_zeros(DEFAULT_ZERO_COUNT))


@lru_cache(maxsize=None)
def _area_constants(k_max: int) -> tuple[Fraction, ...]:
    """The rational constants driving the area-moment recursion.

    K_0 = -1/2 and K_k = ((3k-4)/4) K_{k-1} + sum_{j=1}^{k-1} K_j K_{k-j}.
    """
    values = [Fraction(-1, 2)]
    for k in range(1, k_max + 1):
        acc = Fraction(3 * k - 4, 4) * values[k - 1]
        acc += sum(
            (values[j] * values[k - j] for j in range(1, k)), Fraction(0)
        )
        values.append(acc)
    return tuple(values)


def excursion_moments(k_max: int) -> list[float]:
    """Moments E[B^k] of the excursion area for k = 0..k_max.

    The k-th moment is ``4 sqrt(pi) 2^{-k/2} k! K_k / Gamma((3k-1)/2)``
    with the rational K_k from :func:`_area_constants`; evaluation runs in
    log space so large k stay finite.
    """
    if not 0 <= k_max <= 30:
        raise InvalidSpec("moment order must lie in 0..30")
    constants = _area_constants(max(k_max, 1))
    out = [1.0]
    for k in range(1, k_max + 1):
        log_mag = (
            math.log(4.0 * math.sqrt(math.pi))
            - 0.5 * k * math.log(2.0)
            + math.lgamma(k + 1)
            - math.lgamma((3 * k - 1) / 2.0)
        )
        kk = constants[k]
        log_mag += math.log(kk.numerator) - math.log(kk.denominator)
        out.append(math.exp(log_mag))
    return out


def moment_asymptotic(k: int) -> float:
    """Large-order growth law ``3 sqrt(2) k (k/12e)^{k/2}``."""
    if k < 1:
        raise InvalidSpec("need k >= 1")
    return 3.0 * math.sqrt(2.0) * k * (k / (12.0 * math.e)) ** (k / 2.0)


def area_std() -> float:
    """Standard deviation of the excursion area, ``sqrt(5/12 - pi/8)``."""
    return math.sqrt(5.0 / 12.0 - math.pi / 8.0)


# ---------------------------------------------------------------------------
# Oscillatory transforms of the density
# ---------------------------------------------------------------------------


def integrate_density(
    density: ExcursionDensity, weight=None, max_panel_width: float = 0.1
):
    """Panel Gauss quadrature of ``density * weight`` over ``QUADRATURE_RANGE``.

    Doubles the panel count until two successive refinements agree within
    ``QUADRATURE_TOL``; the last change is the reported error estimate.
    """
    if not 0 < max_panel_width < math.inf:
        raise DomainError(f"the panel width must be finite and positive, got {max_panel_width}")
    lo, hi = QUADRATURE_RANGE
    nodes, gauss_w = leggauss(16)
    panels = max(8, int(math.ceil((hi - lo) / max_panel_width)))
    previous = None
    for _ in range(8):
        edges = np.linspace(lo, hi, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        points = (mids[:, None] + half * nodes[None, :]).ravel()
        values = density(points)
        if weight is not None:
            values = values * weight(points)
        total = half * (values.reshape(panels, -1) @ gauss_w).sum()
        if previous is not None and abs(total - previous) < QUADRATURE_TOL:
            return total, abs(total - previous)
        previous = total
        panels *= 2
    return previous, math.inf


def characteristic_FA(theta: float, density: ExcursionDensity | None = None) -> complex:
    """Fourier transform ``int f_A(x) exp(2 pi i x theta) dx``.

    Resolves the oscillation by capping panel widths at ``1/(4|theta|)``
    and refining until the estimated error drops below 1e-6.
    """
    if not math.isfinite(theta):
        raise DomainError(f"the frequency must be finite, got {theta}")
    if abs(theta) > 100:
        raise InvalidSpec("|theta| above 100 is outside the supported range")
    if density is None:
        density = excursion_density()
    width = 0.1 if theta == 0 else min(0.1, 1.0 / (4.0 * abs(theta)))
    value, err = integrate_density(
        density, lambda x: np.exp(2j * math.pi * x * theta), max_panel_width=width
    )
    if err > 1e-6:
        raise NoConvergence("oscillatory quadrature failed to reach 1e-6", err)
    return complex(value)


@dataclass
class RectanglePair:
    """Equal-density points one standard deviation apart."""

    x1: float
    x2: float
    height: float
    transform_modulus: float
    bound: float

    def satisfied(self) -> bool:
        return self.transform_modulus <= self.bound + 1e-9


def rectangle_level_pair(
    density: ExcursionDensity | None = None, width: float | None = None
) -> RectanglePair:
    """Find x1 < x2 with f(x1) = f(x2) and x2 - x1 equal to ``width``.

    The density is unimodal, so the pair straddling the mode is unique;
    bisection on the left abscissa locates it.  The returned record also
    evaluates the transform at frequency ``1/width`` together with the
    rectangle bound ``1 - height * width`` it must not exceed.
    """
    if density is None:
        density = excursion_density()
    if width is None:
        width = area_std()
    grid = np.linspace(0.2, 1.2, 2001)
    mode = float(grid[np.argmax(density(grid))])
    lo, hi = 0.05, mode
    gap = lambda x1: np.diff(density(np.array([x1, x1 + width])))[0]
    g_lo = gap(lo)
    if g_lo <= 0:
        raise RuntimeError("no sign change for the level pair bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    x1 = 0.5 * (lo + hi)
    height = float(density(x1))
    modulus = abs(characteristic_FA(1.0 / width, density))
    return RectanglePair(
        x1=x1,
        x2=x1 + width,
        height=height,
        transform_modulus=modulus,
        bound=1.0 - height * width,
    )


# ---------------------------------------------------------------------------
# Phase-twisted trial state on the spin chain
# ---------------------------------------------------------------------------


def _check_trial_size(two_n: int, s: int) -> None:
    """Parity and color checks, and the one size bound: the transfer
    product's work, ``two_n`` steps over ``n + 1`` heights."""
    if two_n < 2 or two_n % 2:
        raise InvalidSpec("two_n must be even and >= 2")
    if s < 1:
        raise InvalidSpec("need s >= 1")
    if two_n * (two_n // 2 + 1) > TRIAL_WORK_LIMIT:
        raise SizeExceeded(
            f"two_n={two_n} needs more than {TRIAL_WORK_LIMIT:.0e} transfer updates"
        )


def twist_angle(two_n: int) -> float:
    """The reference twist for a chain of ``two_n`` sites.

    Scales as the inverse 3/2 power of the chain length, so the phase
    accumulated over a typical walk area stays of order one while the
    per-move phase shrinks.  With this normalization the trial energy
    decays quadratically in the chain length.
    """
    return TWIST_CONSTANT * two_n ** (-1.5)


def trial_energy_exact(
    two_n: int, s: int, theta_tilde: float
) -> tuple[complex, float]:
    """Ground-state overlap and energy of the phase-twisted state.

    One transfer product over heights gives both.  The area is the sum of
    the post-step heights, so the twisted vector takes the phase
    ``exp(2 pi i theta h)`` at each post-step height ``h``.  A move is a
    letter hopping over an adjacent flat site or a matched pair appearing
    on two adjacent flat sites (one per color); it flips the area by
    exactly one and costs ``(1 - cos 2 pi theta)``.  Counting each move
    once, from its flat-first side, the move-weighted vector gains at
    every step the moves completed right after a flat step, read off the
    untwisted vector from two steps back; at height 0 the move row over
    the untwisted one is the mean number of moves per string.  A flat
    step weighs ``s**-0.5`` and a letter 1, so a matched pair carries its
    ``s`` colors, and rescaling by the untwisted maximum after every step
    keeps all rows in range for any ``s``; the rows other than the
    twisted one are positive, so nothing cancels.
    """
    _check_trial_size(two_n, s)
    if not math.isfinite(theta_tilde):
        raise DomainError(f"the twist must be finite, got {theta_tilde}")
    # heights and area flips are integers, so only theta mod 1 matters; fmod
    # is exact and keeps a huge twist's phases and cosine meaningful
    theta = math.fmod(theta_tilde, 1.0)
    n = two_n // 2
    phase = np.exp(2j * math.pi * theta * np.arange(n + 1))
    flat = math.exp(-0.5 * math.log(s))
    # rows over heights 0..n: the untwisted vector, the twisted one, the
    # move-weighted one and the untwisted one from the step before
    rows = np.zeros((4, n + 1), dtype=complex)
    rows[:2, 0] = 1.0
    for _ in range(two_n):
        stepped = flat * rows
        stepped[:, 1:] += rows[:, :-1]
        stepped[:, :-1] += rows[:, 1:]
        stepped[1] *= phase
        # after a flat step: s pair creations at weight s * flat**2 = 1, or
        # one hop of a letter
        before = rows[3]
        stepped[2] += before
        stepped[2, 1:] += flat * before[:-1]
        stepped[2, :-1] += flat * before[1:]
        stepped[3] = rows[0]
        stepped /= stepped[0].real.max()
        rows = stepped
    overlap = complex(rows[1, 0] / rows[0, 0])
    moves = float(rows[2, 0].real / rows[0, 0].real)
    energy = (1.0 - math.cos(2.0 * math.pi * theta)) * moves
    return overlap, energy


@dataclass
class VariationalBound:
    """Certified gap upper bound from the twisted trial state."""

    two_n: int
    s: int
    theta_tilde: float
    scale_factor: int
    overlap_sq: float
    energy: float
    bound: float


def variational_gap_bound(two_n: int, s: int) -> VariationalBound:
    """Upper bound on the spectral gap from the twisted state.

    Starting from the reference twist, doubles the angle until the
    twisted state keeps at most half its weight on the ground state;
    twice its energy then dominates the gap.  Gives up once the angle
    passes ten times the reference value.
    """
    base = twist_angle(two_n)
    factor = 1
    while factor <= 10:
        theta = base * factor
        overlap, energy = trial_energy_exact(two_n, s, theta)
        weight = abs(overlap) ** 2
        if weight <= 0.5:
            return VariationalBound(
                two_n=two_n,
                s=s,
                theta_tilde=theta,
                scale_factor=factor,
                overlap_sq=weight,
                energy=energy,
                bound=2.0 * energy,
            )
        factor *= 2
    raise OverlapTooLarge(
        f"no twist up to 10x the reference pushed the ground weight below "
        f"1/2 at two_n={two_n}, s={s}"
    )
