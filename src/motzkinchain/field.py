"""Boundary-free chain in a weak diagonal field.

Dropping the boundary projectors leaves the local moves conserving the
number of unmatched letters of each kind, so the zero-energy space splits
into sectors labeled by the reduced word ``r^p l^q`` that a configuration
shrinks to.  A field that counts non-flat letters, applied at strength
``epsilon0 / two_n``, lifts the degeneracy at first order; the shift of a
sector depends only on the total imbalance ``m = p + q`` and equals the
field strength times the mean non-flat count over the sector.

The mean non-flat count is read exactly from two integer count rows: the
flats of the prefixes ending at height ``m`` total ``n M(n-1, m, s)``, one
per place a flat can be inserted into a shorter prefix.  The module also
builds the tensor-product ground state of the one-color boundary-free
chain and a small-system check that sector-restricted diagonalization
reproduces the first-order energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidSpec, SizeExceeded
from .schmidt import sigma
from .walks import halfwalk_row

FIELD_LIMIT = 2000


def _check_height_args(n: int, m: int, s: int) -> None:
    if s < 1:
        raise InvalidSpec("color count s must be >= 1")
    if n < 0:
        raise DomainError("walk length must be >= 0")
    if m < 0 or m > n:
        raise DomainError(f"no length-{n} walk ends at height {m}")


@lru_cache(maxsize=2)
def _shorter_row(n: int, s: int) -> tuple[int, ...]:
    """``M(n-1, m, s)`` for ``m = 0..n-1``, then two zeros, so that the
    indices ``-1``, ``n`` and ``n+1`` read as empty heights."""
    return (*halfwalk_row(n - 1, s), 0, 0)


def field_expectation_exact(n: int, m: int, s: int) -> float:
    """Mean non-flat step count over colored prefixes of length ``n``
    ending at height ``m``, up to ``n = FIELD_LIMIT``.

    Marking one flat step of a length-``n`` prefix is inserting a flat into
    a length-``(n-1)`` prefix at one of ``n`` places, so the flats total
    ``n M(n-1, m, s)`` and the mean is ``n - n M(n-1, m, s) / M(n, m, s)``;
    the last step gives ``M(n, m) = M(n-1, m-1) + M(n-1, m) + s M(n-1, m+1)``.
    One integer true division rounds the part above ``m`` once.
    """
    _check_height_args(n, m, s)
    if n > FIELD_LIMIT:
        raise SizeExceeded(f"field means stop at n = {FIELD_LIMIT}")
    if n == 0:
        return 0.0
    prev = _shorter_row(n, s)
    full = prev[m - 1] + prev[m] + s * prev[m + 1]
    return m + (n * (full - prev[m]) - m * full) / full


def field_expectation_asymptotic(n: int, m: int, s: int) -> float:
    """Large-``n`` expansion of the mean non-flat count at height ``m``.

    Two correction orders in ``m / n`` beyond the extensive term
    ``2 sigma n``; accurate to better than a percent once ``n`` reaches a
    few hundred and ``m`` stays near or below ``2 sqrt(n)``.
    """
    _check_height_args(n, m, s)
    root = math.sqrt(s)
    ratio = m / n
    return (
        2.0 * sigma(s) * n
        + (m / (4.0 * root)) * ratio
        + ((4.0 * s - 1.0) * m / (64.0 * s * root)) * ratio**3
    )


@dataclass(frozen=True)
class FieldReport:
    """First-order energies of the boundary-free chain in the field.

    ``energies[m]`` is the shift of the ``m``-imbalance sector on the
    length-``2n`` chain, ``exact_expectations[m]`` the underlying mean
    non-flat count, and ``ground_energy`` the leading asymptotic value
    ``2 sigma epsilon0`` that the ``m = 0`` shift approaches.
    """

    n: int
    s: int
    energies: dict[int, float]
    ground_energy: float
    exact_expectations: dict[int, float]


def field_energies(n: int, s: int, epsilon0: float, m_max: int | None = None) -> FieldReport:
    """First-order sector energies on the chain of ``2n`` sites.

    The sector with ``m`` total unmatched letters shifts by
    ``(epsilon0 / 2n)`` times the mean non-flat count at height ``m``.
    Every shift lies in ``(0, epsilon0]`` and grows with ``m`` within each
    parity of ``m``; both facts are re-checked here before the report is
    returned.  Across parities it need not grow: with many colors nearly
    every step pairs up and the count follows the parity of ``2n - m``
    (at ``2n = 10``, ``s = 10`` the ``m = 1`` shift lies below ``m = 0``'s).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0.0 < epsilon0 < 1.0:
        raise DomainError("epsilon0 must lie in (0, 1)")
    two_n = 2 * n
    if two_n > FIELD_LIMIT:
        raise SizeExceeded(f"field energies stop at n = {FIELD_LIMIT // 2}")
    if m_max is None:
        m_max = two_n
    if not 0 <= m_max <= two_n:
        raise DomainError(f"m_max must lie in [0, {two_n}]")
    _check_height_args(two_n, m_max, s)
    means = (field_expectation_exact(two_n, m, s) for m in range(m_max + 1))
    expectations: dict[int, float] = {}
    energies: dict[int, float] = {}
    for m, mean in enumerate(means):
        shift = epsilon0 / two_n * mean
        if not 0.0 < shift <= epsilon0 * (1.0 + 1e-12):
            raise InvalidSpec(f"sector shift {shift:g} escaped (0, epsilon0]")
        if shift < energies.get(m - 2, 0.0) - 1e-15:
            raise InvalidSpec(f"sector shifts decreased at m = {m}")
        expectations[m] = mean
        energies[m] = shift
    return FieldReport(
        n=n,
        s=s,
        energies=energies,
        ground_energy=2.0 * sigma(s) * epsilon0,
        exact_expectations=expectations,
    )


def product_ground_state(two_n: int, alpha: float) -> np.ndarray:
    """Tensor-product zero mode of the one-color boundary-free chain.

    Each site carries ``alpha |l> + |0> + (1/alpha) |r>`` up to
    normalization.  Every bulk projector annihilates the product for any
    nonzero real ``alpha``: the exchange directions see identical
    amplitude on both orderings, and the pair direction sees amplitude
    ``1 * 1`` on ``|0 0>`` against ``alpha / alpha`` on ``|l r>``.
    """
    from .hamiltonian import ChainSpec

    if not math.isfinite(alpha) or alpha == 0.0:
        raise DomainError("alpha must be a nonzero finite real")
    ChainSpec(two_n=two_n, s=1, boundary="open").check_size()
    site = np.array([1.0, alpha, 1.0 / alpha])
    site /= np.linalg.norm(site)
    vec = np.array([1.0])
    for _ in range(two_n):
        vec = np.kron(vec, site)
    return vec


def product_state_norm_factor(two_n: int, alpha: float) -> float:
    """Norm of the unnormalized product state, ``(1 + a^2 + a^-2)^(n)``."""
    if not math.isfinite(alpha) or alpha == 0.0:
        raise DomainError("alpha must be a nonzero finite real")
    return float((1.0 + alpha**2 + alpha**-2) ** (two_n / 2))


@dataclass(frozen=True)
class SectorCheck:
    """Outcome of sector-restricted diagonalization against first order.

    ``worst_deviation`` is the largest gap between a sector's lowest
    eigenvalue under the field and the first-order prediction;
    ``equal_energy_spread`` the largest spread among sectors sharing an
    imbalance; ``multiplicities_ok`` records whether imbalance ``m``
    appeared in exactly ``m + 1`` sectors.
    """

    two_n: int
    class_count: int
    worst_deviation: float
    equal_energy_spread: float
    multiplicities_ok: bool


def sector_first_order_check(two_n: int, epsilon0: float = 1e-3) -> SectorCheck:
    """Diagonalize the one-color boundary-free chain plus field per sector.

    The bulk projectors never connect different sectors and the field is
    diagonal, so the full operator block-diagonalizes over the move
    classes, numbered alike by both.  The certified lowest level of each
    sector, from one :func:`lowest_spectrum` call, is compared with the
    field strength times the mean non-flat count at the sector's imbalance.
    """
    from .hamiltonian import ChainSpec, build_hamiltonian, local_move_classes, lowest_spectrum

    if not 0.0 < epsilon0 < 1.0:
        raise DomainError("epsilon0 must lie in (0, 1)")
    spec = ChainSpec(two_n=two_n, s=1, boundary="open", field_epsilon0=epsilon0)
    result = lowest_spectrum(build_hamiltonian(spec), k=1)
    eps = epsilon0 / two_n
    classes = local_move_classes(two_n, 1)
    by_imbalance: dict[int, list[float]] = {}
    worst = 0.0
    for lowest, label in zip(result.sector_lowest.tolist(), classes.labels):
        if label is None:
            raise InvalidSpec("a one-color sector failed to reduce to rights-then-lefts")
        m = label[0] + label[1]
        predicted = eps * field_expectation_exact(two_n, m, 1)
        worst = max(worst, abs(lowest - predicted))
        by_imbalance.setdefault(m, []).append(lowest)
    spread = max(max(v) - min(v) for v in by_imbalance.values())
    multiplicities_ok = all(
        len(by_imbalance.get(m, [])) == m + 1 for m in range(two_n + 1)
    )
    return SectorCheck(
        two_n=two_n,
        class_count=classes.count,
        worst_deviation=worst,
        equal_energy_spread=spread,
        multiplicities_ok=multiplicities_ok,
    )
