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
from scipy.special import gammaln

from conftest import (
    all_digit_strings,
    digits_form_walk,
    heights_of_digits,
    is_dyck,
    iter_matched_digit_strings,
)
from motzkinchain.errors import DomainError, InvalidSpec, SizeExceeded
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
    halfwalk_table,
    log_halfwalk_terms,
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
# Log-space counting
# ---------------------------------------------------------------------------


def log_binomial(n, k):
    """Natural log of C(n, k) from ``gammaln`` log-factorials; -inf outside range."""
    n_arr, k_arr = np.broadcast_arrays(np.asarray(n), np.asarray(k))
    table = gammaln(np.arange(int(np.max(n_arr, initial=1)) + 1, dtype=float) + 1.0)
    out = np.full(n_arr.shape, -math.inf)
    ok = (k_arr >= 0) & (k_arr <= n_arr)
    nn, kk = n_arr[ok], k_arr[ok]
    out[ok] = table[nn] - table[kk] - table[nn - kk]
    if np.isscalar(n) and np.isscalar(k):
        return float(out)
    return out


def per_height_log_terms(n, m, s):
    """The summands of ``log M(n, m, s)``, one per pair count, for one height."""
    i = np.arange((n - m) // 2 + 1)
    return (
        log_binomial(n, 2 * i + m)
        + log_binomial(2 * i + m, i)
        + np.log((m + 1.0) / (i + m + 1.0))
        + i * math.log(s)
    )


def per_height_log_count(n, m, s):
    """The per-height loop the chunked log-space kernel replaced: one term
    array and one log-sum-exp for each height ``m``."""
    terms = per_height_log_terms(n, m, s)
    peak = float(np.max(terms))
    return peak + math.log(float(np.sum(np.exp(terms - peak))))


def test_log_binomial_scalar_and_array():
    assert log_binomial(10, 3) == pytest.approx(math.log(math.comb(10, 3)), rel=1e-14)
    n = np.arange(6)
    out = log_binomial(n, 2)
    for i in range(6):
        expected = math.log(math.comb(i, 2)) if i >= 2 else -math.inf
        assert out[i] == pytest.approx(expected, rel=1e-14) or (
            out[i] == -math.inf and expected == -math.inf
        )
    assert log_binomial(5, 7) == -math.inf
    assert log_binomial(5, -1) == -math.inf


@pytest.mark.parametrize("s", [1, 2, 3])
def test_log_count_matches_exact(s):
    for n in (5, 40, 120):
        logs = CountTable.build(n, s, mode="log").log_halfwalk
        for m in range(0, n + 1, max(1, n // 7)):
            exact = colored_halfwalk_count(n, m, s)
            assert logs[m] == pytest.approx(math.log(exact), rel=1e-12)


# ---------------------------------------------------------------------------
# CountTable
# ---------------------------------------------------------------------------


def test_count_table_probabilities_one_color():
    table = CountTable.build(1, 1)
    assert Fraction(table.halfwalk[0] ** 2, table.total) == Fraction(1, 2)
    assert Fraction(table.halfwalk[1] ** 2, table.total) == Fraction(1, 2)


def test_count_table_probabilities_two_colors():
    table = CountTable.build(1, 2)
    assert table.halfwalk == [1, 1]
    assert table.total == 3
    assert Fraction(table.halfwalk[0] ** 2, table.total) == Fraction(1, 3)
    assert Fraction(table.halfwalk[1] ** 2, table.total) == Fraction(1, 3)  # multiplicity 2


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
def test_count_table_log_mode_matches_exact_mode(n, s):
    exact = CountTable.build(n, s, mode="exact")
    logged = CountTable.build(n, s, mode="log")
    np.testing.assert_allclose(
        logged.log_halfwalk, exact.log_halfwalk, rtol=1e-11, atol=1e-11
    )
    assert logged.log_total == pytest.approx(exact.log_total, rel=1e-11)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 301, 302, 1999, 5000])
def test_log_table_matches_per_height_loop_bit_for_bit(n, s):
    # even and odd n; n <= 3 fits one chunk, 301 and 302 take two, 1999 and
    # 5000 take 33 and 198
    table = CountTable.build(n, s, mode="log")
    logs = np.array([per_height_log_count(n, m, s) for m in range(n + 1)])
    weights = np.arange(n + 1) * math.log(s) + 2.0 * logs
    peak = float(np.max(weights))
    log_total = peak + math.log(float(np.sum(np.exp(weights - peak))))
    assert np.array_equal(table.log_halfwalk, logs)
    assert table.log_total == log_total


def test_log_table_memory_stays_linear():
    # one (n+1) x (n/2+1) term grid would take about 100 MB at n = 5000
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        CountTable.build(5000, 2, mode="log")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    ("n", "s", "m_start", "m_stop"),
    [
        (1999, 2, 0, 2000),  # every row, 33 chunks
        (1999, 2, 31, 100),  # one row before the full table's first chunk boundary
        (5000, 1, 137, 900),  # a mid-range start, several chunks
        (3001, 10**6, 0, 3002),  # s = 10**6
        (1000, 3, 999, 1001),  # the last two rows, a single term each
    ],
)
def test_log_terms_match_per_height_terms_bit_for_bit(n, s, m_start, m_stop):
    m = m_start
    for chunk in log_halfwalk_terms(n, s, m_start, m_stop):
        for row in chunk:
            terms = per_height_log_terms(n, m, s)
            padding = np.full(row.size - terms.size, -math.inf)
            assert np.array_equal(row, np.concatenate([terms, padding])), m
            m += 1
    assert m == m_stop


def test_log_terms_chunks_are_views_of_one_buffer():
    # documented: the next chunk overwrites the last, so a caller that keeps
    # two chunks must copy the first
    chunks = log_halfwalk_terms(1999, 2, 0, 2000)
    first = next(chunks)
    kept = first.copy()
    second = next(chunks)
    assert np.shares_memory(first, second)
    assert not np.array_equal(first, kept)


def test_count_table_log_mode_reaches_large_sizes():
    table = CountTable.build(2000, 2, mode="log")
    assert np.isfinite(table.log_total)
    assert table.halfwalk is None


def test_count_table_guards():
    with pytest.raises(SizeExceeded):
        CountTable.build(301, 1, mode="exact")
    with pytest.raises(InvalidSpec):
        CountTable.build(5, 1, mode="fast")
    with pytest.raises(DomainError):
        CountTable.build(-1, 1)
    with pytest.raises(InvalidSpec):
        CountTable.build(4, 0)


