"""Uniform-field energy shift tests.

The exact height-resolved expectation is compared against direct string
enumeration at small sizes and, bit for bit, against an independent
exact-rational sum over the pair count up to the longest chain.  Sector
diagonalization then confirms the first-order shifts on the actual chain
operator.
"""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import iter_matched_digit_strings
from motzkinchain import field
from motzkinchain.errors import DomainError, InvalidSpec, SizeExceeded
from motzkinchain.field import (
    field_energies,
    field_expectation_asymptotic,
    field_expectation_exact,
    product_ground_state,
    product_state_norm_factor,
    sector_first_order_check,
)
from motzkinchain.hamiltonian import (
    ChainSpec,
    build_hamiltonian,
    local_move_classes,
    sector_split,
)
from motzkinchain.schmidt import sigma


# ---------------------------------------------------------------------------
# Exact expectation
# ---------------------------------------------------------------------------


def test_hand_checked_examples():
    assert field_expectation_exact(1, 1, 1) == 1.0
    # length two at height zero: the flat-flat string and the matched pair
    assert field_expectation_exact(2, 0, 1) == 1.0
    # at full height every step is a letter
    assert field_expectation_exact(6, 6, 1) == 6.0


@pytest.mark.parametrize("s", [1, 2])
def test_expectation_matches_enumeration(s):
    for n in range(1, 7):
        for m in range(n + 1):
            strings = list(iter_matched_digit_strings(n, s, end_opens=m))
            if not strings:
                continue
            mean = sum(
                sum(1 for d in digits if d != 0) for digits in strings
            ) / len(strings)
            assert field_expectation_exact(n, m, s) == pytest.approx(mean, rel=1e-13)


def _rational_expectation(n, m, s):
    """Independent exact mean over the pair-count distribution, rounded once
    above ``m``: ``m + float(Fraction(2 num, den))``."""
    num = Fraction(0)
    den = Fraction(0)
    for i in range((n - m) // 2 + 1):
        ballot = Fraction(math.comb(2 * i + m, i) * (m + 1), i + m + 1)
        term = math.comb(n, 2 * i + m) * ballot * s**i
        num += i * term
        den += term
    return m + float(Fraction(2 * num, den))


@pytest.mark.parametrize(
    ("n", "m", "s"),
    [(350, 0, 1), (350, 7, 1), (500, 3, 2), (2000, 40, 2)]
    + [(2000, m, s) for s in (2, 10**6) for m in (0, 63, 1000, 2000)],
)
def test_expectation_against_rational_sum(n, m, s):
    assert field_expectation_exact(n, m, s) == _rational_expectation(n, m, s)


def test_expectation_validation():
    with pytest.raises(InvalidSpec):
        field_expectation_exact(4, 0, 0)
    with pytest.raises(DomainError):
        field_expectation_exact(-1, 0, 1)
    with pytest.raises(DomainError):
        field_expectation_exact(4, 5, 1)
    with pytest.raises(SizeExceeded):
        field_expectation_exact(2001, 0, 1)


# ---------------------------------------------------------------------------
# Asymptotic expansion
# ---------------------------------------------------------------------------


def test_asymptotic_base_term():
    assert field_expectation_asymptotic(100, 0, 1) == pytest.approx(200.0 / 3.0, rel=1e-15)
    assert field_expectation_asymptotic(50, 0, 2) == pytest.approx(
        2.0 * sigma(2) * 50, rel=1e-15
    )


def test_asymptotic_tracks_exact_to_a_fraction_of_a_percent():
    for m in (0, 10, 50, 63):
        exact = field_expectation_exact(2000, m, 2)
        asym = field_expectation_asymptotic(2000, m, 2)
        assert abs(exact - asym) / exact < 0.01


# ---------------------------------------------------------------------------
# Sector energies
# ---------------------------------------------------------------------------


def test_field_energies_structure():
    report = field_energies(6, 1, 0.01)
    shifts = [report.energies[m] for m in range(13)]
    assert all(0.0 < e <= 0.01 * (1 + 1e-12) for e in shifts)
    assert all(a <= b + 1e-15 for a, b in zip(shifts, shifts[1:]))
    assert report.energies[12] == pytest.approx(0.01, rel=1e-14)
    assert report.ground_energy == pytest.approx(2.0 * sigma(1) * 0.01, rel=1e-15)
    assert report.exact_expectations[0] == pytest.approx(
        field_expectation_exact(12, 0, 1), rel=1e-15
    )


def test_ground_sector_shift_approaches_asymptote():
    report = field_energies(1000, 2, 1e-3, m_max=0)
    rel = abs(report.energies[0] - report.ground_energy) / report.ground_energy
    assert rel < 1e-3


def test_energies_match_recorded_values():
    # recorded from the two exact count rows, after every one of the 2,001
    # expectations equalled m + float(Fraction(2 num, den)) of the pair-count
    # sums; the digest covers all 2,001 expectations and energies
    report = field_energies(1000, 2, 1e-3)
    assert report.exact_expectations[0] == 1477.2005105133499
    assert report.exact_expectations[63] == 1477.562334395957
    assert report.exact_expectations[500] == 1499.6859743364398
    assert report.exact_expectations[2000] == 2000.0
    values = [report.exact_expectations[m] for m in range(2001)]
    values += [report.energies[m] for m in range(2001)]
    digest = hashlib.sha256(np.array(values, dtype="<f8").tobytes()).hexdigest()
    assert digest == "156ed3a249eedbd38c79598827aa4be868910cda8b56036eb23cbad5cd341bd3"


@pytest.mark.parametrize(("n", "s"), [(1000, 1), (1000, 2), (151, 2), (151, 3)])
def test_batched_expectations_equal_the_per_height_route_bit_for_bit(n, s):
    # chain lengths 2000 and 302: the report's loop over heights, which reads
    # one cached shorter row, against one call per height, and both against
    # the independent rational mean at both ends, next to them and in the middle
    report = field_energies(n, s, 1e-3, m_max=2 * n)
    per_height = [field_expectation_exact(2 * n, m, s) for m in range(2 * n + 1)]
    assert [report.exact_expectations[m] for m in range(2 * n + 1)] == per_height
    for m in (0, 1, n, 2 * n - 1, 2 * n):
        assert report.exact_expectations[m] == _rational_expectation(2 * n, m, s), m


def test_first_two_sectors_split_like_inverse_square():
    eps0 = 1e-3
    deltas = {}
    for n in (200, 800):
        r = field_energies(n, 1, eps0, m_max=1)
        deltas[n] = r.energies[1] - r.energies[0]
    ratio = deltas[200] / deltas[800]
    assert ratio == pytest.approx(16.0, rel=0.02)


def test_sector_split_prefactor_frozen_points():
    # the scaled split (E_1 - E_0) * 16 sqrt(s) n^2 / eps0 drifts toward 3;
    # the n = 1000 value is the exact rational 8n (mean_1 - mean_0) of the
    # pair-count sums at 2n = 2000, rounded once
    eps0 = 1e-3
    for n, expected in [(50, 2.9704341947657875), (1000, 2.998501100748587)]:
        r = field_energies(n, 1, eps0, m_max=1)
        scaled = (r.energies[1] - r.energies[0]) * 16 * n**2 / eps0
        assert scaled == pytest.approx(expected, rel=1e-9)


def test_field_energies_validation():
    with pytest.raises(DomainError):
        field_energies(0, 1, 0.01)
    with pytest.raises(DomainError):
        field_energies(4, 1, 0.0)
    with pytest.raises(DomainError):
        field_energies(4, 1, 1.5)
    with pytest.raises(DomainError):
        field_energies(4, 1, 0.01, m_max=9)


def test_field_energies_accept_many_colors():
    # nearly every step pairs up at s = 10**6, so the mean non-flat count
    # follows the parity of 2n - m: m = 1 lies below m = 0, m = 2 above it
    report = field_energies(151, 10**6, 1e-3, m_max=302)
    shifts = [report.energies[m] for m in range(303)]
    assert shifts[1] < shifts[0]
    assert all(a <= b + 1e-15 for a, b in zip(shifts, shifts[2:]))


def test_field_energies_reject_a_fall_within_one_parity(monkeypatch):
    exact = field.field_expectation_exact

    def falling(n, m, s):
        return exact(n, 0, s) - 0.5 if m == 2 else exact(n, m, s)

    monkeypatch.setattr(field, "field_expectation_exact", falling)
    with pytest.raises(InvalidSpec, match="decreased at m = 2"):
        field_energies(6, 1, 0.01)


def test_field_energies_reject_bad_colors_on_a_long_chain():
    with pytest.raises(InvalidSpec):
        field_energies(200, 0, 0.01)


# ---------------------------------------------------------------------------
# Product zero modes of the boundary-free chain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 2.0, -1.5, 0.3])
def test_product_state_is_annihilated_without_boundaries(alpha):
    spec = ChainSpec(two_n=4, s=1, boundary="open")
    H = build_hamiltonian(spec).matrix
    vec = product_ground_state(4, alpha)
    assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-14)
    assert np.max(np.abs(H @ vec)) < 1e-12


def test_product_state_norm_factor_matches_direct_product():
    for alpha in (1.0, 2.0, 0.5):
        site = np.array([1.0, alpha, 1.0 / alpha])
        raw = np.array([1.0])
        for _ in range(4):
            raw = np.kron(raw, site)
        assert product_state_norm_factor(4, alpha) == pytest.approx(
            float(np.linalg.norm(raw)), rel=1e-13
        )


def test_product_state_rejects_degenerate_mixing():
    with pytest.raises(DomainError):
        product_ground_state(4, 0.0)
    with pytest.raises(DomainError):
        product_state_norm_factor(4, math.inf)


# ---------------------------------------------------------------------------
# Sector-resolved diagonalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("two_n", "frozen_worst"), [(4, 1.1113783604012068e-07), (6, 8.212636109128542e-08)])
def test_sector_diagonalization_confirms_first_order(two_n, frozen_worst):
    eps0 = 1e-3
    check = sector_first_order_check(two_n, eps0)
    assert check.class_count == (two_n + 1) * (two_n // 2 + 1)
    assert check.multiplicities_ok
    assert check.worst_deviation <= 10.0 * eps0**2
    assert check.worst_deviation == pytest.approx(frozen_worst, rel=1e-6)
    assert check.equal_energy_spread < 1e-12


@pytest.mark.parametrize("two_n", [4, 6, 8])
def test_field_keeps_the_move_class_numbering(two_n):
    # the field adds only diagonal entries, so the check may read the move
    # classes' labels against the field operator's sector levels
    spec = ChainSpec(two_n=two_n, s=1, boundary="open", field_epsilon0=1e-3)
    sector_of, _ = sector_split(build_hamiltonian(spec).matrix)
    np.testing.assert_array_equal(sector_of, local_move_classes(two_n, 1).class_id)


def test_sector_check_validation():
    with pytest.raises(DomainError):
        sector_first_order_check(4, 0.0)


def test_importing_the_light_modules_leaves_scipy_sparse_and_special_unloaded():
    # only the sector check and the product state reach the chain operator
    package_root = str(Path(field.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import motzkinchain.cli, motzkinchain.walks, motzkinchain.schmidt, motzkinchain.field\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.special'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
