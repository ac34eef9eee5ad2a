"""Counting, enumeration, and token-format tests for the walks module.

Expected values come from the digit-string oracles in conftest, which
re-derive every count with plain stack scans, or from closed forms
checked independently (math.comb, explicit DP recurrences).
"""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_digit_strings,
    digits_form_walk,
    halfwalk_table,
    heights_of_digits,
    is_dyck,
    iter_matched_digit_strings,
)
from motzkinchain import walks
from motzkinchain.errors import DomainError, InvalidSpec, SizeExceeded
from motzkinchain.schmidt import TRUNCATION_LOG_CUTOFF
from motzkinchain.walks import (
    CountTable,
    ballot_count,
    binomial,
    catalan_number,
    colored_halfwalk_count,
    dyck_area_total,
    encode_walk,
    enumerate_walks,
    full_walk_count,
    halfwalk_row,
    motzkin_number,
)


# ---------------------------------------------------------------------------
# Token format
# ---------------------------------------------------------------------------


def test_encode_basic_tokens():
    assert encode_walk((1, 2), 1) == "u1 d1"
    assert encode_walk((0,), 1) == "0"
    assert encode_walk((2, 0, 4), 2) == "u2 0 d2"


# ---------------------------------------------------------------------------
# Validity predicates
# ---------------------------------------------------------------------------


def test_two_flats_are_motzkin():
    assert digits_form_walk((0, 0), 1)


def test_crossed_colors_are_not_motzkin():
    # u1 d2 with two colors
    assert not digits_form_walk((1, 4), 2)


def test_length_two_motzkin_set_two_colors():
    found = {encode_walk(w, 2) for w in enumerate_walks(2, 2, kind="motzkin")}
    assert found == {"0 0", "u1 d1", "u2 d2"}


@pytest.mark.parametrize("s", [1, 2])
def test_predicates_match_digit_scan(s):
    # every string is a Motzkin walk or a Dyck walk exactly when the
    # matching filtered enumeration yields it
    for length in range(5):
        motzkin = set(enumerate_walks(length, s, kind="motzkin"))
        dyck = set(enumerate_walks(length, s, kind="dyck"))
        for walk in all_digit_strings(length, s):
            assert digits_form_walk(walk, s) == (walk in motzkin)
            assert is_dyck(walk, s) == (walk in dyck)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_length_four_motzkin_count():
    assert len(list(enumerate_walks(4, 1, kind="motzkin"))) == 9


def test_enumerate_length_zero_yields_empty_walk():
    for kind in ("motzkin", "dyck"):
        assert list(enumerate_walks(0, 3, kind=kind)) == [()]


@pytest.mark.parametrize("s", [1, 2])
def test_enumerate_motzkin_equals_filtered_digit_strings(s):
    for length in range(6):
        expected = [
            d for d in all_digit_strings(length, s) if digits_form_walk(d, s)
        ]
        got = list(enumerate_walks(length, s, kind="motzkin"))
        assert sorted(got) == sorted(expected)


def test_enumerate_dyck_is_flatless_motzkin():
    for length in (0, 2, 4, 6):
        dycks = list(enumerate_walks(length, 2, kind="dyck"))
        assert all(is_dyck(w, 2) for w in dycks)
        flatless = [w for w in enumerate_walks(length, 2, kind="motzkin") if 0 not in w]
        assert dycks == flatless


def test_enumerate_alphabet_in_canonical_order():
    # flat, then downs, then ups, colors ascending within a kind
    assert list(enumerate_walks(4, 1, "motzkin"))[:4] == [
        (0, 0, 0, 0), (0, 0, 1, 2), (0, 1, 0, 2), (0, 1, 2, 0)
    ]
    assert list(enumerate_walks(4, 2, kind="dyck"))[:3] == [(1, 3, 1, 3), (1, 3, 2, 4), (1, 1, 3, 3)]


# SHA-256 of every walk's token text, one line each, in enumeration order,
# over lengths 0..6; recorded from the Step/Walk implementation these digit
# tuples replaced
ENUMERATION_SHA256 = {
    ("motzkin", 1): "5fa4d902ba4a1799777ffcf2905f304076e5b83f2385e1566970638a055e7b30",
    ("motzkin", 2): "4481f07cee79faae940fbf84571334100f8e706d061d45cf79097be9a633f2cb",
    ("motzkin", 3): "70dc217a120191de269af6c7a8b1783744a177432c1d64dabff31eade8d940a2",
    ("dyck", 1): "edb2f345a5382d6a54912025f454ba04e51740def55eb53dfefb51782451bcc9",
    ("dyck", 2): "1a3bfe137f0a0a3bc425c0c846d88b663b65ff27a769f6dd75dd8f2956bb605f",
    ("dyck", 3): "6bcc1cd130377b58fd1241cf572be8d8e05a06b09fd48780cd6ca3e680deda0b",
}


@pytest.mark.parametrize(("kind", "s"), list(ENUMERATION_SHA256))
def test_enumeration_tokens_are_byte_stable(kind, s):
    digest = hashlib.sha256()
    for length in range(7):
        # the recorded header names the length and an end height that
        # complete walks do not have
        digest.update(f"# {length} None\n".encode())
        for walk in enumerate_walks(length, s, kind):
            digest.update((encode_walk(walk, s) + "\n").encode())
    assert digest.hexdigest() == ENUMERATION_SHA256[(kind, s)]


def test_enumerate_guard_refuses_huge_requests():
    with pytest.raises(SizeExceeded):
        next(enumerate_walks(40, 3, kind="motzkin"))


def test_enumerate_argument_validation():
    with pytest.raises(InvalidSpec):
        list(enumerate_walks(2, 0, "motzkin"))
    for kind in ("spiral", "all", "end-height"):
        with pytest.raises(InvalidSpec):
            list(enumerate_walks(2, 1, kind))


def test_enumerate_refuses_on_the_call_not_the_first_next():
    # the walks are lazy, the checks are not: no generator is handed out
    with pytest.raises(InvalidSpec):
        enumerate_walks(2, 1, "spiral")
    with pytest.raises(SizeExceeded):
        enumerate_walks(60, 3, "motzkin")


# ---------------------------------------------------------------------------
# Exact counting
# ---------------------------------------------------------------------------


def test_binomial_matches_math_comb():
    for n in range(12):
        for k in range(-1, n + 2):
            assert binomial(n, k) == (math.comb(n, k) if 0 <= k <= n else 0)


def test_catalan_small_values():
    assert [catalan_number(w) for w in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def _ballot_oracle(length, m):
    # DP over +-1 steps staying nonnegative; no closed form involved.
    row = {0: 1}
    for _ in range(length):
        new = {}
        for h, c in row.items():
            for nh in (h - 1, h + 1):
                if nh >= 0:
                    new[nh] = new.get(nh, 0) + c
        row = new
    return row.get(m, 0)


def test_ballot_examples():
    assert ballot_count(2, 0) == 1
    assert ballot_count(6, 0) == catalan_number(3) == 5
    assert ballot_count(3, 0) == 0


def test_ballot_matches_dp_oracle():
    for length in range(11):
        for m in range(length + 1):
            assert ballot_count(length, m) == _ballot_oracle(length, m)


def test_colored_halfwalk_examples():
    assert colored_halfwalk_count(2, 1, 1) == 2
    assert colored_halfwalk_count(2, 0, 1) == 2
    assert colored_halfwalk_count(1, 0, 3) == 1


@pytest.mark.parametrize("s", [1, 2, 3])
def test_colored_halfwalk_count_matches_enumeration(s):
    # The oracle enumerates open colors explicitly, so its count carries an
    # extra s**m factor relative to the closed form.
    for n in range(6):
        for m in range(n + 1):
            oracle = sum(1 for _ in iter_matched_digit_strings(n, s, end_opens=m))
            assert s**m * colored_halfwalk_count(n, m, s) == oracle


def test_halfwalk_table_agrees_with_closed_form():
    for s in (1, 2, 5):
        table = halfwalk_table(20, s)
        for length in range(21):
            for m in range(length + 1):
                assert table[length][m] == colored_halfwalk_count(length, m, s)


@pytest.mark.parametrize("s", [1, 2, 3, 10**6])
def test_exact_row_matches_the_dp_oracle(s):
    table = halfwalk_table(300, s)
    for n in [*range(13), 100, 299, 300]:
        assert halfwalk_row(n, s) == table[n], n


@pytest.mark.parametrize("n", [-1, -2, -7])
def test_exact_row_refuses_negative_lengths(n):
    with pytest.raises(DomainError):
        halfwalk_row(n, 1)


def test_motzkin_number_examples():
    assert motzkin_number(4, 1) == 9
    assert motzkin_number(2, 2) == 3
    # classical single-color sequence
    assert [motzkin_number(L) for L in range(10)] == [
        1, 1, 2, 4, 9, 21, 51, 127, 323, 835,
    ]


def test_motzkin_number_matches_transfer_oracle():
    # Independent DP: height profile with s-weighted closings.
    for s in (1, 2, 3):
        for length in range(15):
            row = {0: 1}
            for _ in range(length):
                new = {}
                for h, c in row.items():
                    new[h] = new.get(h, 0) + c
                    new[h + 1] = new.get(h + 1, 0) + c
                    if h:
                        new[h - 1] = new.get(h - 1, 0) + s * c
                row = new
            assert motzkin_number(length, s) == row[0]


def test_full_walk_count_glues_to_motzkin_number():
    for s in (1, 2, 3):
        for n in range(8):
            assert full_walk_count(n, s) == motzkin_number(2 * n, s)
    # the half-length decomposition at n=3, both sides exact
    n = 3
    assert full_walk_count(n, 1) == sum(
        colored_halfwalk_count(n, m, 1) ** 2 for m in range(n + 1)
    )


@pytest.mark.parametrize("n", [-1, -3])
def test_full_walk_count_refuses_negative_lengths(n):
    with pytest.raises(DomainError):
        full_walk_count(n, 2)


def test_catalan_asymptotic_within_two_percent_by_fifty():
    # The quoted convergence rate: measured deviation at n=50 is
    # 0.02205572, which exceeds the claimed 2% window.  Kept at the
    # claimed tolerance; see the repository notes for the analysis.
    ratio = catalan_number(50) * 50**1.5 * math.sqrt(math.pi) / 4**50
    assert abs(ratio - 1.0) <= 0.02


def test_catalan_asymptotic_measured_deviation():
    # Frozen from direct evaluation; regression-pins the actual rate.
    ratio = catalan_number(50) * 50**1.5 * math.sqrt(math.pi) / 4**50
    assert abs(ratio - 1.0) == pytest.approx(0.022055721612642132, abs=1e-12)
    deviations = [
        abs(catalan_number(n) * n**1.5 * math.sqrt(math.pi) / 4**n - 1.0)
        for n in (50, 100, 200)
    ]
    assert deviations == sorted(deviations, reverse=True)


# ---------------------------------------------------------------------------
# Areas
# ---------------------------------------------------------------------------


def _positive_excursion_area_total(interior, s=1):
    # Enumerate walks of interior+2 steps that leave zero at once, stay
    # strictly positive, and close on the final step; sum their areas.
    total = 0
    for digits in iter_matched_digit_strings(interior + 2, s, end_opens=0):
        if digits[0] != 1 or not (digits[-1] > s):
            continue
        h = 0
        heights = []
        for d in digits:
            if 1 <= d <= s:
                h += 1
            elif d > s:
                h -= 1
            heights.append(h)
        if min(heights[:-1]) < 1:
            continue
        total += sum(heights)
    return total


def test_area_total_seed_value():
    assert dyck_area_total(1) == 2


def test_area_total_matches_enumeration():
    for interior in range(1, 7):
        assert dyck_area_total(interior) == _positive_excursion_area_total(interior)


def test_area_total_recursion():
    for L in range(2, 21):
        assert dyck_area_total(L + 1) == 2 * dyck_area_total(L) + 3 * dyck_area_total(L - 1)


def test_area_total_domain():
    with pytest.raises(DomainError):
        dyck_area_total(0)


def test_mean_area_approaches_three_halves_power_law():
    # total area / walk count ~ sqrt(2 pi / 3) n^{3/2}; deviation at
    # n=200 measured 0.0061 and shrinking roughly like 1/n.
    deviations = []
    for n in (20, 50, 100, 200):
        ratio = (
            dyck_area_total(2 * n)
            / motzkin_number(2 * n)
            / (math.sqrt(2 * math.pi / 3) * n**1.5)
        )
        deviations.append(abs(ratio - 1.0))
    assert deviations == sorted(deviations, reverse=True)
    assert deviations[-1] < 0.01


def test_walk_area_on_digits():
    # u1 u1 d1 d1
    assert sum(heights_of_digits((1, 1, 2, 2), 1)) == 1 + 2 + 1 + 0


# ---------------------------------------------------------------------------
# CountTable
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [1, 2, 3])
def test_log_count_matches_exact(s):
    # the rows are relative to one reference, so each is read against row 0
    for n in (5, 40, 120):
        logs = CountTable.build(n, s).log_halfwalk
        zero = math.log(colored_halfwalk_count(n, 0, s))
        for m in range(0, n + 1, max(1, n // 7)):
            exact = math.log(colored_halfwalk_count(n, m, s)) - zero
            assert logs[m] - logs[0] == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_count_table_probabilities_one_color():
    assert halfwalk_row(1, 1) == [1, 1] and full_walk_count(1, 1) == 2
    table = CountTable.build(1, 1)
    probabilities = np.exp(2.0 * table.log_halfwalk - table.log_total)
    np.testing.assert_allclose(probabilities, [0.5, 0.5], rtol=1e-15)


def test_count_table_probabilities_two_colors():
    assert halfwalk_row(1, 2) == [1, 1] and full_walk_count(1, 2) == 3
    table = CountTable.build(1, 2)
    # 1/3 each, one at m=0 and two (by color) at m=1
    probabilities = np.exp(2.0 * table.log_halfwalk - table.log_total)
    np.testing.assert_allclose(probabilities, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-15)


@pytest.mark.parametrize("s", [1, 2, 4])
def test_count_table_weights_normalize(s):
    for n in (3, 17, 350):
        table = CountTable.build(n, s)
        weights = np.exp(table.log_schmidt_weight())
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


@given(
    n=st.integers(min_value=0, max_value=120),
    s=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_log_schmidt_weight_matches_exact_fractions(n, s):
    total = full_walk_count(n, s)
    exact = [float(Fraction(s**m * c * c, total)) for m, c in enumerate(halfwalk_row(n, s))]
    weights = np.exp(CountTable.build(n, s).log_schmidt_weight())
    np.testing.assert_allclose(weights, exact, rtol=1e-12)


def heavy_weights(n, s):
    """The exact integer row of ``M(n, m, s)``, and the weights ``s**m M**2`` of
    every height within 400 bits of the heaviest, each shifted down by one
    common ``shift``; the heights left out weigh together below 2**-380 of the
    total, and every weight kept has at least 270 bits after the shift."""
    row = halfwalk_row(n, s)
    log2_s = math.log2(s)
    bits = [m * log2_s + 2 * count.bit_length() for m, count in enumerate(row)]
    top = max(bits)
    shift = max(0, int(top) - 670)
    weights = {
        m: (s**m * count * count) >> shift
        for m, count in enumerate(row)
        if bits[m] > top - 400
    }
    return row, weights, shift


ROW_CASES = [(n, s) for s in (1, 2, 3, 4) for n in (0, 1, 2, 3, 301, 302, 1999, 5000)]
ROW_CASES += [(n, s) for n in (777, 1000, 3000, 5001) for s in (1, 2, 3)]
ROW_CASES += [(1000, 4), (3000, 7), (5000, 7), (5001, 10), (12345, 1), (12345, 2), (20000, 3)]
ROW_CASES += [(301, 10**6), (3001, 10**6)]


@pytest.mark.parametrize(("n", "s"), ROW_CASES)
def test_every_row_matches_the_exact_count(n, s):
    # a row sums up to n logs of ratios, so its error may grow like n
    # roundings; rows and total are read against row 0
    row, weights, shift = heavy_weights(n, s)
    exact = np.array([math.log(count) for count in row]) - math.log(row[0])
    table = CountTable.build(n, s)
    bound = 4 * (n + 1) * np.finfo(float).eps
    error = np.abs(table.log_halfwalk - table.log_halfwalk[0] - exact)
    assert np.all(error <= bound * np.maximum(1.0, np.abs(exact)))
    exact_total = math.log(sum(weights.values())) + shift * math.log(2) - 2 * math.log(row[0])
    total = table.log_total - 2 * table.log_halfwalk[0]
    assert abs(total - exact_total) <= bound * max(1.0, abs(exact_total))


TOP_CASES = [(n, s) for n in (301, 777, 1000, 1999, 3000, 5000, 5001) for s in (1, 2, 3)]
TOP_CASES += [(1000, 4), (5000, 7), (301, 10**6), (3001, 10**6), (12345, 2), (20000, 3)]
TOP_CASES += [(12345, 1), (3000, 7), (5001, 10)]


@pytest.mark.parametrize(("n", "s"), TOP_CASES)
def test_top_weights_match_the_exact_fractions(n, s):
    # the heights the entropy reads, within TRUNCATION_LOG_CUTOFF of the top,
    # sit at m of order sqrt(n), so their error may grow like sqrt(n) roundings
    _, weights, _ = heavy_weights(n, s)
    total = sum(weights.values())
    logw = CountTable.build(n, s).log_schmidt_weight()
    kept = np.flatnonzero(logw >= logw.max() + TRUNCATION_LOG_CUTOFF)
    exact = np.array([((weights[m] << 200) // total) / 2.0**200 for m in kept])
    bound = 256 * math.sqrt(n) * np.finfo(float).eps
    assert np.all(np.abs(np.exp(logw[kept]) / exact - 1.0) <= bound)


def test_log_table_memory_stays_linear():
    # a handful of float rows of n + 3 entries, 0.8 MB each at n = 10**5
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        CountTable.build(10**5, 2)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * 10**5


def test_count_table_log_mode_reaches_large_sizes():
    table = CountTable.build(2000, 2)
    assert np.isfinite(table.log_total)


def test_count_table_guards():
    with pytest.raises(DomainError):
        CountTable.build(-1, 1)
    with pytest.raises(InvalidSpec):
        CountTable.build(4, 0)
    with pytest.raises(InvalidSpec):
        CountTable.build(400, 10**400)
    with pytest.raises(SizeExceeded, match="TABLE_LIMIT"):
        CountTable.build(walks.TABLE_LIMIT + 1, 2)
