"""Schmidt spectrum and entropy tests.

The heavyweight cross-check against a dense singular value decomposition
of the actual chain state lives in the acceptance module; here the brute
force runs at small sizes, plus closed-form and asymptotic checks.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import iter_matched_digit_strings
from motzkinchain.errors import InvalidSpec
from motzkinchain.schmidt import (
    EULER_GAMMA,
    alpha_peak,
    entropy_asymptotic,
    entropy_constant_bits,
    entropy_exact,
    expected_mid_height,
    halfwalk_term_argmax,
    saddle_point,
    schmidt_rank,
    schmidt_spectrum,
    sigma,
)
from motzkinchain.walks import CountTable


def schmidt_weight_argmax(table):
    """Height ``m`` carrying the largest Schmidt weight ``s**m p_m``."""
    return int(np.argmax(table.log_schmidt_weight()))


def brute_schmidt_values(n, s):
    """Singular values of the half-chain coefficient matrix.

    Builds the chain state of length 2n by enumerating complete walks as
    digit strings, splits each at the midpoint, and runs a dense SVD over
    the occupied row and column spaces.  No counting formulas involved.
    """
    left_index = {}
    right_index = {}
    entries = []
    for digits in iter_matched_digit_strings(2 * n, s, end_opens=0):
        left, right = digits[:n], digits[n:]
        i = left_index.setdefault(left, len(left_index))
        j = right_index.setdefault(right, len(right_index))
        entries.append((i, j))
    matrix = np.zeros((len(left_index), len(right_index)))
    for i, j in entries:
        matrix[i, j] = 1.0
    matrix /= math.sqrt(len(entries))
    return np.linalg.svd(matrix, compute_uv=False)


def brute_entropy_nats(n, s):
    values = brute_schmidt_values(n, s)
    p = values[values > 1e-14] ** 2
    return float(-(p * np.log(p)).sum())


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------


def test_sigma_values():
    assert sigma(1) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert sigma(4) == pytest.approx(2.0 / 5.0, rel=1e-15)


def test_alpha_peak_values():
    assert alpha_peak(1) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)
    assert alpha_peak(4) == pytest.approx(math.sqrt(2.0 * 2.0 / 5.0), rel=1e-14)


@pytest.mark.parametrize(
    ("function", "args"),
    [
        (sigma, (10**400,)),
        (alpha_peak, (10**400,)),
        (entropy_asymptotic, (100, 10**400)),
        (saddle_point, (100, 4, 10**400)),
    ],
)
def test_color_count_beyond_the_float_range_is_invalid(function, args):
    with pytest.raises(InvalidSpec):
        function(*args)


def test_schmidt_rank_closed_form():
    assert schmidt_rank(5, 1) == 6
    assert schmidt_rank(3, 2) == 15
    assert schmidt_rank(1, 3) == 4


@pytest.mark.parametrize("s", [1, 2])
def test_schmidt_rank_matches_brute_force(s):
    for n in (1, 2, 3):
        values = brute_schmidt_values(n, s)
        assert int((values > 1e-10).sum()) == schmidt_rank(n, s)


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------


def test_spectrum_single_site_halves():
    spec = schmidt_spectrum(CountTable.build(1, 1))
    weights = np.exp(spec.log_weight())
    np.testing.assert_allclose(weights, [0.5, 0.5], rtol=1e-14)


def test_spectrum_single_site_two_colors():
    # three equal coefficients 1/3, one at m=0 and two (by color) at m=1
    spec = schmidt_spectrum(CountTable.build(1, 2))
    weights = np.exp(spec.log_weight())
    np.testing.assert_allclose(weights, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_spectrum_normalizes(s):
    for n in (2, 9, 33):
        spec = schmidt_spectrum(CountTable.build(n, s))
        assert abs(np.exp(spec.log_weight()).sum() - 1.0) < 1e-12


@pytest.mark.parametrize(("n", "s"), [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_spectrum_matches_brute_svd(n, s):
    brute = np.sort(brute_schmidt_values(n, s))[::-1]
    brute = brute[brute > 1e-12] ** 2
    table = CountTable.build(n, s)
    exact = [float(Fraction(table.halfwalk[m] ** 2, table.total)) for m in range(n + 1)]
    np.testing.assert_allclose(np.exp(schmidt_spectrum(table).log_probability), exact, rtol=1e-14)
    expanded = [p for m, p in enumerate(exact) for _ in range(s**m)]
    expected = np.sort(np.array(expanded))[::-1]
    np.testing.assert_allclose(brute, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Entropy, exact
# ---------------------------------------------------------------------------


def test_entropy_two_site_values():
    assert entropy_exact(1, 1) == pytest.approx(math.log(2.0), rel=1e-14)
    assert entropy_exact(1, 2) == pytest.approx(math.log(3.0), rel=1e-14)


def test_entropy_bits_conversion():
    nats = entropy_exact(4, 2)
    bits = entropy_exact(4, 2, base="bits")
    assert bits == pytest.approx(nats / math.log(2.0), rel=1e-14)
    with pytest.raises(InvalidSpec):
        entropy_exact(4, 2, base="trits")


@pytest.mark.parametrize(("n", "s"), [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)])
def test_entropy_matches_brute_force(n, s):
    assert entropy_exact(n, s) == pytest.approx(brute_entropy_nats(n, s), abs=1e-10)


def test_entropy_accepts_prebuilt_table():
    table = CountTable.build(7, 2)
    assert entropy_exact(7, 2, table=table) == entropy_exact(7, 2)


# ---------------------------------------------------------------------------
# Entropy, asymptotic
# ---------------------------------------------------------------------------


def test_single_color_additive_constant():
    # the closed constant: 1/2 ln n + gamma - 1/2 + (ln 2 + ln pi - ln 3)/2
    for n in (100, 1000):
        expected = (
            0.5 * math.log(n)
            + EULER_GAMMA
            - 0.5
            + 0.5 * (math.log(2.0) + math.log(math.pi) - math.log(3.0))
        )
        assert entropy_asymptotic(n, 1) == pytest.approx(expected, rel=1e-13)


def test_single_color_exact_approaches_constant():
    n = 2000
    predicted = entropy_asymptotic(n, 1)
    actual = entropy_exact(n, 1)
    assert abs(actual - predicted) < 0.02


def test_constant_in_bits():
    # (gamma - 1/2 + (ln 2 + ln pi - ln 3)/2) / ln 2, frozen to 8 places
    assert entropy_constant_bits() == pytest.approx(0.64466547, abs=5e-9)


def test_two_color_leading_coefficient():
    # strip the subleading terms; what is left over sqrt(n) is the
    # square-root growth coefficient 2 ln(s) sqrt(2 sigma / pi)
    n = 10**6
    s = 2
    tail = (
        0.5 * math.log(n)
        + EULER_GAMMA
        - 0.5
        + 0.5 * (math.log(2.0) + math.log(math.pi) + math.log(sigma(s)))
    )
    lead = (entropy_asymptotic(n, s) - tail) / math.sqrt(n)
    assert lead == pytest.approx(
        2.0 * math.log(2.0) * math.sqrt(2.0 * sigma(s) / math.pi), rel=1e-12
    )


def test_asymptotic_requires_valid_arguments():
    with pytest.raises(InvalidSpec):
        entropy_asymptotic(100, 0)


# ---------------------------------------------------------------------------
# Saddle point and peak locations
# ---------------------------------------------------------------------------


def test_saddle_point_flat_sector():
    assert saddle_point(300, 0, 1) == pytest.approx(100.0, rel=1e-12)
    for s in (2, 3):
        assert saddle_point(300, 0, s) == pytest.approx(sigma(s) * 300, rel=1e-12)


def test_saddle_point_tracks_term_argmax():
    # 128 was recorded from the per-height log-space loop the chunked term rows replaced
    assert halfwalk_term_argmax(400, 40, 2) == 128
    assert abs(halfwalk_term_argmax(400, 40, 2) - saddle_point(400, 40, 2)) <= 2


@pytest.mark.parametrize(
    ("n", "s", "digest"),
    [
        (301, 1, "402e4249600651684d5b28e7707e432f84f203f88d76103044fa8ff0205f6b47"),
        (301, 2, "6f07a3c2fb45ac3f2abbf0909864cc413660c962ba7d9a1386583378b63fa7c3"),
        (301, 3, "ae57329beb94b2381b545a0e514aa8176dabed62d3c531a914070803d11720af"),
        (1999, 1, "f7a90f3b7acc937a129df7a4a775e5e1dc5e1c5a5f606761c44dd5536699d7ab"),
        (1999, 2, "aa3a9689cb4e9710d70f148eba08f5e55ebaf5235e45bfc6d4f2fbd98fb75dda"),
        (1999, 3, "65b96cfdc5a93e67d414c208e0f1b90ee4e8cb73f8dd45b754b85372b8cac891"),
    ],
)
def test_term_argmax_is_stable_at_every_height(n, s, digest):
    # recorded from the log-space kernel that evaluated every term with fresh
    # temporaries; the SHA-256 of the list of argmaxes over m = 0..n
    argmaxes = [halfwalk_term_argmax(n, m, s) for m in range(n + 1)]
    assert hashlib.sha256(repr(argmaxes).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    ("n", "m", "s"),
    [(400, 500, 1), (400, -1, 1), (400, 40, 0), (100, 101, 1), (100, -1, 1), (100, 4, 0)],
)
def test_term_argmax_rejects_heights_outside_the_walk_and_bad_colors(n, m, s):
    # n = 400 takes the log-space branch, n = 100 the exact one
    with pytest.raises(InvalidSpec):
        halfwalk_term_argmax(n, m, s)


def test_weight_peak_near_predicted_height():
    table = CountTable.build(10**4, 2, mode="log")
    peak = schmidt_weight_argmax(table)
    predicted = alpha_peak(2) * 100.0
    assert abs(peak - predicted) / predicted < 0.03


# ---------------------------------------------------------------------------
# Mid-chain height
# ---------------------------------------------------------------------------


def test_expected_mid_height_smallest_chain():
    exact, _ = expected_mid_height(1)
    assert exact == pytest.approx(0.5, rel=1e-14)


def test_expected_mid_height_asymptotic_form():
    _, asym = expected_mid_height(10**4)
    assert asym == pytest.approx(2.0 * math.sqrt(2.0 / (3.0 * math.pi)) * 100.0, rel=1e-13)


def test_expected_mid_height_ratio_converges():
    exact, asym = expected_mid_height(10**4)
    assert abs(exact / asym - 1.0) < 0.02
