"""Excursion-area density and twisted trial-state tests.

The density and its transforms are checked against closed forms, library
special functions, and independent quadrature.  The trial-state block is
cross-checked by explicit enumeration on the spin chain itself.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ai_zeros, hyperu

from conftest import (
    bisected_airy_zeros,
    digits_form_walk,
    full_series_density,
    halfwalk_table,
    heights_of_digits,
    iter_matched_digit_strings,
)
from motzkinchain import excursion
from motzkinchain.errors import (
    DomainError,
    InvalidSpec,
    NoConvergence,
    OverlapTooLarge,
    SizeExceeded,
)
from motzkinchain.excursion import (
    TWIST_CONSTANT,
    ExcursionDensity,
    RectanglePair,
    _check_trial_size,
    airy_zeros,
    area_std,
    characteristic_FA,
    excursion_density,
    excursion_moments,
    integrate_density,
    moment_asymptotic,
    rectangle_level_pair,
    trial_energy_exact,
    twist_angle,
    variational_gap_bound,
)
from motzkinchain.hamiltonian import (
    ChainSpec,
    build_hamiltonian,
    lowest_spectrum,
    motzkin_indices,
)
from motzkinchain.schmidt import sigma
from motzkinchain.walks import motzkin_number


# ---------------------------------------------------------------------------
# Airy zeros and the density
# ---------------------------------------------------------------------------


def test_airy_zeros_match_library_special_values():
    ours = airy_zeros(10)
    reference = ai_zeros(10)[0]
    np.testing.assert_allclose(ours, reference, atol=1e-10)
    assert (np.diff(ours) < 0).all()


def test_airy_zeros_are_bisected_once_per_count_and_shared_read_only():
    zeros = airy_zeros(40)
    assert airy_zeros(40) is zeros
    assert excursion_density().zeros is zeros
    assert not zeros.flags.writeable
    with pytest.raises(ValueError):
        zeros[0] = 0.0


def test_density_left_tail_is_essentially_zero():
    d = excursion_density()
    value = d(0.05)
    assert value < 1e-8
    assert value == pytest.approx(4.8084865887897226e-158, rel=1e-6)


def test_density_rejects_nonpositive_points():
    d = excursion_density()
    with pytest.raises(DomainError):
        d(0.0)
    with pytest.raises(DomainError):
        d(np.array([0.5, -1.0]))


def test_density_fails_where_the_series_does_not_converge():
    d = excursion_density()
    # the all-zero far left tail is an exact zero, not a failure
    assert d(0.01) == 0.0 and d(1e-91) == 0.0
    assert d.last_truncation_error == 0.0
    # at x = 3e-92 the first term is 0, which stops the series, but hyperu
    # returns nan from the 20th zero on
    for x in (50.5, 100.0, 1e200, 3e-92):
        with pytest.raises(NoConvergence):
            d(x)
    with pytest.raises(NoConvergence):
        d(np.array([1.0, 100.0]))


def test_density_scalar_and_vector_agree():
    d = excursion_density()
    xs = np.array([0.3, 0.6, 1.1])
    vec = d(xs)
    for x, v in zip(xs, vec):
        assert d(float(x)) == pytest.approx(v, rel=1e-14)
    assert d.last_truncation_error < 1e-10


def test_density_integrates_to_one():
    d = excursion_density()
    total, err = integrate_density(d)
    assert err < 1e-7
    assert total == pytest.approx(1.0, abs=1e-6)


def test_density_mean_matches_closed_form():
    d = excursion_density()
    mean, err = integrate_density(d, weight=lambda x: x)
    assert err < 1e-7
    assert mean == pytest.approx(0.5 * math.sqrt(math.pi / 2.0), abs=1e-6)


# ---------------------------------------------------------------------------
# The series and the bisection against their full-length oracles, bit for bit
# ---------------------------------------------------------------------------

# the zero tail, the mode, the right tail past where the series fails, and the
# far left: below x = 6.2e-92 hyperu turns nan in a row's later columns while its
# first term is already 0, and below 1e-154 v overflows
DENSITY_GRIDS = (
    np.linspace(0.01, 3.0, 300),
    np.linspace(0.001, 0.08, 200),
    np.linspace(0.2, 1.2, 501),
    np.linspace(2.5, 8.0, 200),
    np.array([50.5, 100.0, 1e200]),
    np.geomspace(1e-95, 1e-88, 200),
    np.geomspace(1e-160, 1e-150, 200),
    np.geomspace(1e-320, 300.0, 600),
)


def _outcome(call, x):
    """The density's bytes and truncation error, or the failure's message
    and best residual."""
    try:
        values, error = call(x)
    except NoConvergence as failure:
        return str(failure), repr(failure.best_residual)
    return values.tobytes(), error


@pytest.mark.parametrize("count", [1, 10, 40, 200])
def test_airy_zeros_have_the_bits_of_the_scalar_bisection(count):
    assert airy_zeros(count).tobytes() == bisected_airy_zeros(count).tobytes()


@pytest.mark.parametrize(
    ("count", "chunks"), [(10, (1, 3, 10)), (40, (1, 7, 40)), (200, ())], ids=["10", "40", "200"]
)
def test_density_has_the_bits_of_the_full_series(count, chunks, monkeypatch):
    zeros = airy_zeros(count)
    density = ExcursionDensity(zeros=zeros)

    def kernel(x):
        values = density(x)
        return values, density.last_truncation_error

    points = list(DENSITY_GRIDS)
    points += [grid[i:i + 1] for grid in DENSITY_GRIDS for i in range(0, len(grid), 11)]
    expected = [_outcome(lambda x: full_series_density(zeros, x), x) for x in points]
    for chunk in (excursion._SERIES_CHUNK, *chunks):
        monkeypatch.setattr(excursion, "_SERIES_CHUNK", chunk)
        assert [_outcome(kernel, x) for x in points] == expected


def test_hyperu_is_finite_wherever_a_stopped_series_skips_it():
    # a series that stops on a nonzero term stops at v < 746, where exp(-v)
    # is still positive; its skipped terms read hyperu at up to
    # 746 (z_count/z_1)^3, which is 5.2e7 for 200 zeros
    zeros = airy_zeros(200)
    v = np.geomspace(1e-3, 746.0 * (zeros[-1] / zeros[0]) ** 3, 200_001)
    assert np.isfinite(hyperu(-5.0 / 6.0, 4.0 / 3.0, v)).all()


@pytest.mark.parametrize("theta", [0.0, 1.0 / area_std(), 7.5])
def test_transform_has_the_bits_of_the_full_series(theta):
    zeros = airy_zeros(40)
    full = lambda x: full_series_density(zeros, x)[0]
    assert characteristic_FA(theta) == characteristic_FA(theta, full)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def test_moments_match_quadrature():
    d = excursion_density()
    moments = excursion_moments(4)
    assert moments[0] == 1.0
    for k in range(1, 5):
        quad, err = integrate_density(d, weight=lambda x, k=k: x**k)
        assert err < 1e-7
        assert moments[k] == pytest.approx(quad, abs=1e-5)


def test_second_moment_is_five_twelfths():
    assert excursion_moments(2)[2] == pytest.approx(5.0 / 12.0, rel=1e-13)


def test_area_std_closed_form():
    assert area_std() == pytest.approx(math.sqrt(5.0 / 12.0 - math.pi / 8.0), rel=1e-15)
    assert area_std() == pytest.approx(0.1548144, abs=1e-5)


def test_high_order_moment_growth_law():
    ratio = excursion_moments(25)[25] / moment_asymptotic(25)
    assert ratio == pytest.approx(0.9823820319563064, rel=1e-9)
    assert abs(ratio - 1.0) < 0.15


def test_moment_validation():
    with pytest.raises(InvalidSpec):
        excursion_moments(31)
    with pytest.raises(InvalidSpec):
        excursion_moments(-1)
    with pytest.raises(InvalidSpec):
        moment_asymptotic(0)


# ---------------------------------------------------------------------------
# Fourier transform of the density
# ---------------------------------------------------------------------------


def test_transform_at_zero_frequency_is_total_mass():
    value = characteristic_FA(0.0)
    assert value.real == pytest.approx(1.0, abs=1e-6)
    assert value.imag == pytest.approx(0.0, abs=1e-9)


def test_transform_modulus_never_exceeds_one():
    for theta in (0.5, 1.0, 2.5, 6.0):
        assert abs(characteristic_FA(theta)) <= 1.0 + 1e-9


def test_transform_is_tiny_at_inverse_std():
    theta = 1.0 / area_std()
    assert theta == pytest.approx(6.459335792073746, rel=1e-12)
    assert abs(characteristic_FA(theta)) == pytest.approx(
        0.001771724365765934, abs=1e-6
    )


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0 / area_std(), 2.0, 7.5, 40.0, -3.0])
def test_transform_matches_the_cosine_sine_pair(theta):
    d = excursion_density()
    width = 0.1 if theta == 0 else min(0.1, 1.0 / (4.0 * abs(theta)))
    real, _ = integrate_density(
        d, lambda x: np.cos(2.0 * math.pi * x * theta), max_panel_width=width
    )
    imag, _ = integrate_density(
        d, lambda x: np.sin(2.0 * math.pi * x * theta), max_panel_width=width
    )
    assert abs(characteristic_FA(theta, d) - complex(real, imag)) <= 1e-13


def test_transform_frequency_cap():
    with pytest.raises(InvalidSpec):
        characteristic_FA(101.0)


def test_transform_rejects_a_non_finite_frequency_before_any_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(excursion, "integrate_density", no_quadrature)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            characteristic_FA(theta, density=object())


@pytest.mark.parametrize("width", [0.0, -0.1, math.nan, math.inf])
def test_quadrature_rejects_a_panel_width_that_is_not_finite_and_positive(width):
    def no_density(points):
        raise AssertionError("density evaluated")

    with pytest.raises(DomainError):
        integrate_density(no_density, max_panel_width=width)


def test_rectangle_pair_straddles_the_mode():
    pair = rectangle_level_pair()
    d = excursion_density()
    assert pair.x2 - pair.x1 == pytest.approx(area_std(), abs=1e-12)
    assert d(pair.x1) == pytest.approx(pair.height, rel=1e-9)
    assert d(pair.x2) == pytest.approx(pair.height, rel=1e-6)
    assert pair.x1 == pytest.approx(0.49237142255793254, abs=1e-9)
    assert pair.height == pytest.approx(2.3556072243650936, rel=1e-8)
    assert pair.bound == pytest.approx(0.6353174226898592, rel=1e-8)
    assert pair.satisfied()
    assert pair.transform_modulus <= pair.bound


def test_rectangle_pair_takes_one_two_point_density_call_per_step():
    density = excursion_density()
    sizes = []

    def recorded(x):
        sizes.append(np.size(x))
        return density(x)

    pair = rectangle_level_pair(recorded)
    # recorded where each bisection step made two one-point calls
    assert pair == RectanglePair(
        *map(float.fromhex, [
            "0x1.f83036d57c3a8p-2", "0x1.4b5bfa0cf41bfp-1", "0x1.2d84899b6f48ep+1",
            "0x1.d07268d57ebdep-10", "0x1.45485342105c4p-1",
        ])
    )
    steps = sizes[1:sizes.index(1)]
    assert sizes[0] == 2001 and len(steps) > 40 and set(steps) == {2}


# ---------------------------------------------------------------------------
# Twist scale
# ---------------------------------------------------------------------------


def test_twist_constant_closed_form():
    expected = math.sqrt(3.0) / (2.0 * math.sqrt(5.0 / 3.0 - math.pi / 2.0))
    assert TWIST_CONSTANT == pytest.approx(expected, rel=1e-15)
    assert TWIST_CONSTANT == pytest.approx(2.796974443754971, rel=1e-12)


def test_twist_angle_power_law():
    assert twist_angle(14) == pytest.approx(TWIST_CONSTANT * 14.0**-1.5, rel=1e-15)
    assert twist_angle(56) == pytest.approx(twist_angle(14) / 8.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Transfer sums against direct enumeration
# ---------------------------------------------------------------------------


def area_histogram(two_n: int, s: int) -> dict[int, int]:
    """How many colored Motzkin strings carry each walk area.

    The area convention is the sum of the heights after every step; the
    transfer update adds the post-step height as each step is placed, so
    the histogram doubles as the incremental-area cross-check.
    """
    _check_trial_size(two_n, s)
    n = two_n // 2
    max_area = n * n + 1
    current = {(0, 0): 1}
    for _ in range(two_n):
        nxt: dict[tuple[int, int], int] = {}
        for (h, a), count in current.items():
            nxt[(h, a + h)] = nxt.get((h, a + h), 0) + count
            if h < n:
                key = (h + 1, a + h + 1)
                nxt[key] = nxt.get(key, 0) + s * count
            if h:
                key = (h - 1, a + h - 1)
                nxt[key] = nxt.get(key, 0) + count
        current = {k: v for k, v in nxt.items() if k[1] <= max_area}
    out: dict[int, int] = {}
    for (h, a), count in current.items():
        if h == 0:
            out[a] = out.get(a, 0) + count
    return out


def _enumerated_area_histogram(two_n, s):
    out = {}
    for digits in iter_matched_digit_strings(two_n, s):
        area = sum(heights_of_digits(digits, s))
        out[area] = out.get(area, 0) + 1
    return out


def move_pair_count(two_n: int, s: int) -> int:
    """Number of (string, position, move) triples counted from one side.

    A move is a letter hopping over an adjacent flat site, or a matched
    pair materializing on two adjacent flat sites (one triple per color);
    each unordered pair of strings joined by a move is counted exactly
    once, from its flat-first representative.  Exact integers, from the
    half-walk table: T[L][h] counts the closings of length L descending
    from height h (the colors of their h unmatched letters are forced),
    and s**h * T[L][h] the prefixes of length L ending at height h.
    """
    table = halfwalk_table(two_n, s)
    total = 0
    for j in range(1, two_n):
        left = table[j - 1]
        right = table[two_n - j - 1] + [0, 0]
        # from above two_n - j the suffix cannot descend to the ground
        for h in range(min(j, two_n - j + 1)):
            contributions = s * right[h + 1] + s * right[h]
            if h:
                contributions += right[h - 1]
            total += s**h * left[h] * contributions
    return total


def _enumerated_move_pairs(two_n, s):
    """Count (string, position, move) triples from the flat-first side.

    A flat pair admits one pair-creation move per color; a flat followed
    by any letter admits exactly one hop.
    """
    total = 0
    for digits in iter_matched_digit_strings(two_n, s):
        for a, b in zip(digits, digits[1:]):
            if a == 0:
                total += s if b == 0 else 1
    return total


@pytest.mark.parametrize(("two_n", "s"), [(2, 1), (4, 1), (6, 1), (8, 1), (4, 2), (6, 2), (8, 2)])
def test_area_histogram_matches_enumeration(two_n, s):
    assert area_histogram(two_n, s) == _enumerated_area_histogram(two_n, s)


@pytest.mark.parametrize(("two_n", "s"), [(2, 1), (4, 1), (6, 1), (8, 1), (4, 2), (6, 2), (8, 2)])
def test_move_pair_count_matches_enumeration(two_n, s):
    assert move_pair_count(two_n, s) == _enumerated_move_pairs(two_n, s)


@pytest.mark.parametrize(
    ("two_n", "s"),
    [(t, s) for s in (1, 2, 3) for t in range(2, 41, 2)]
    + [(t, 1) for t in (100, 200, 400, 654)]
    + [(t, 2) for t in (100, 200, 400, 534)]
    + [(t, 3) for t in (100, 200, 400, 480)],
)
def test_transfer_moves_per_string_match_the_exact_ratio(two_n, s):
    # at theta = 1/2 every move costs 1 - cos(pi) = 2 exactly
    _, energy = trial_energy_exact(two_n, s, 0.5)
    exact = float(Fraction(move_pair_count(two_n, s), motzkin_number(two_n, s)))
    assert energy / 2.0 == pytest.approx(exact, rel=2e-15, abs=0.0)


def test_histogram_total_is_string_count():
    assert sum(area_histogram(12, 1).values()) == motzkin_number(12, 1)
    assert sum(area_histogram(10, 2).values()) == motzkin_number(10, 2)


# ---------------------------------------------------------------------------
# Trial state
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("two_n", "s"),
    [(t, 1) for t in range(2, 19, 2)]
    + [(t, 2) for t in range(2, 13, 2)]
    + [(t, 3) for t in range(2, 11, 2)],
)
def test_transfer_overlap_matches_area_histogram(two_n, s):
    histogram = area_histogram(two_n, s)
    total = motzkin_number(two_n, s)
    for factor in (1, 2, 4, 8):
        theta = factor * twist_angle(two_n)
        expected = (
            sum(
                count * cmath.exp(2j * math.pi * theta * area)
                for area, count in histogram.items()
            )
            / total
        )
        overlap, _ = trial_energy_exact(two_n, s, theta)
        assert abs(overlap - expected) <= 1e-13


@pytest.mark.parametrize(
    ("two_n", "s", "factor", "reference"),
    [
        # sums over the exact area histogram in 40-digit arithmetic
        (18, 1, 1, complex(-0.008838119195192915556647, -0.1304735277384225629260)),
        (12, 2, 4, complex(0.001356032001686783313145, 0.001376120839450045424189)),
        (10, 3, 8, complex(0.01360866121381622822559, -0.004383880922760486370631)),
    ],
)
def test_transfer_overlap_high_precision_references(two_n, s, factor, reference):
    overlap, _ = trial_energy_exact(two_n, s, factor * twist_angle(two_n))
    assert abs(overlap - reference) <= 6e-15


@pytest.mark.parametrize(("two_n", "s"), [(20, 10**6), (94, 10**6), (2, 10**300)])
def test_transfer_overlap_stays_finite_for_many_colors(two_n, s):
    overlap, energy = trial_energy_exact(two_n, s, twist_angle(two_n))
    assert cmath.isfinite(overlap) and math.isfinite(energy)
    assert abs(overlap) <= 1.0


def test_untwisted_state_is_the_ground_state():
    overlap, energy = trial_energy_exact(10, 1, 0.0)
    assert overlap == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert energy == 0.0


@pytest.mark.parametrize("theta", [3.0, 1e307])
def test_whole_number_twist_leaves_the_overlap_at_one(theta):
    overlap, energy = trial_energy_exact(8, 1, theta)
    assert overlap == 1.0
    assert energy == 0.0


@pytest.mark.parametrize(("two_n", "s"), [(8, 1), (6, 2)])
def test_trial_energy_matches_spin_chain_expectation(two_n, s):
    """Build the twisted vector on the spin chain and apply the operator."""
    theta = twist_angle(two_n)
    spec = ChainSpec(two_n=two_n, s=s, boundary="motzkin")
    H = build_hamiltonian(spec).matrix
    idx = motzkin_indices(two_n, s)
    d = 2 * s + 1
    phi = np.zeros(spec.dim, dtype=complex)
    for i in idx:
        digits = []
        value = int(i)
        for _ in range(two_n):
            digits.append(value % d)
            value //= d
        digits.reverse()
        area = sum(heights_of_digits(tuple(digits), s))
        phi[i] = cmath.exp(2j * math.pi * theta * area)
    phi /= np.linalg.norm(phi)
    energy = (np.conj(phi) @ (H @ phi)).real
    uniform = np.zeros(spec.dim)
    uniform[idx] = 1.0 / math.sqrt(len(idx))
    overlap = np.conj(uniform) @ phi

    exact_overlap, exact_energy = trial_energy_exact(two_n, s, theta)
    assert exact_energy == pytest.approx(energy, abs=1e-12)
    assert exact_overlap == pytest.approx(overlap, abs=1e-12)


@dataclass(frozen=True)
class TrialState:
    """Uniform-modulus state with an area-proportional phase twist."""

    two_n: int
    s: int
    theta_tilde: float

    def __post_init__(self):
        _check_trial_size(self.two_n, self.s)

    @property
    def string_count(self) -> int:
        return motzkin_number(self.two_n, self.s)

    def amplitude(self, area: int) -> complex:
        return cmath.exp(2j * math.pi * self.theta_tilde * area) / math.sqrt(
            self.string_count
        )

    def amplitude_of(self, walk) -> complex:
        if len(walk) != self.two_n or not digits_form_walk(walk, self.s):
            raise InvalidSpec("amplitudes are defined on complete strings only")
        return self.amplitude(sum(heights_of_digits(walk, self.s)))


def test_trial_state_amplitudes():
    state = TrialState(two_n=6, s=1, theta_tilde=0.1)
    assert state.string_count == motzkin_number(6, 1)
    walk = (1, 0, 2, 1, 2, 0)  # u1 0 d1 u1 d1 0
    area = 1 + 1 + 0 + 1 + 0 + 0
    expected = cmath.exp(2j * math.pi * 0.1 * area) / math.sqrt(state.string_count)
    assert state.amplitude_of(walk) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(InvalidSpec):
        state.amplitude_of((1, 2))
    with pytest.raises(InvalidSpec):
        state.amplitude_of((1, 1, 2, 2, 1, 0))


def test_trial_size_guards():
    # the one size bound is on work: two_n * (n + 1) transfer updates
    _check_trial_size(14140, 1)
    with pytest.raises(SizeExceeded):
        trial_energy_exact(14142, 1, 0.01)
    overlap, energy = trial_energy_exact(4, 10**400, 0.01)
    assert cmath.isfinite(overlap) and math.isfinite(energy)
    with pytest.raises(InvalidSpec):
        trial_energy_exact(7, 1, 0.01)
    with pytest.raises(InvalidSpec):
        trial_energy_exact(4, 0, 0.01)


def test_huge_trial_size_is_refused_before_any_work(monkeypatch):
    # the bound is checked before any array is built
    from motzkinchain import excursion

    monkeypatch.setattr(excursion, "np", None)
    for two_n, s in [(14142, 1), (10**18, 1), (14142, 2**1024)]:
        with pytest.raises(SizeExceeded):
            trial_energy_exact(two_n, s, 0.01)


@pytest.mark.parametrize(("low_n", "tolerance"), [(300, 0.01), (2000, 0.001)])
def test_trial_energy_decays_as_inverse_square_length(low_n, tolerance):
    # the paper's c >= 2: at the reference twist the trial energy, hence
    # the gap bound, falls like n^-2; measured by doubling the length
    low = trial_energy_exact(low_n, 1, twist_angle(low_n))[1]
    high = trial_energy_exact(2 * low_n, 1, twist_angle(2 * low_n))[1]
    slope = math.log(high / low) / math.log(2.0)
    assert -2.0 - tolerance <= slope <= -2.0 + tolerance


def _area_law_distance(two_n, s):
    """| |overlap|**2 - |phi_A(c)|**2 | with phi_A Janson's excursion-area
    transform: a walk's area is about sqrt(2 sigma) (2n)**1.5 times the
    excursion area, so the reference twist probes phi_A at
    c = TWIST_CONSTANT * sqrt(2 sigma)."""
    overlap, _ = trial_energy_exact(two_n, s, twist_angle(two_n))
    limit = characteristic_FA(TWIST_CONSTANT * math.sqrt(2.0 * sigma(s)))
    return abs(abs(overlap) ** 2 - abs(limit) ** 2)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_overlap_approaches_the_excursion_area_law(s):
    # Janson, Probab. Surveys 2007: the rescaled walk area converges to the
    # Brownian excursion area, whose transform the Airy series computes
    coarse = _area_law_distance(1000, s)
    fine = _area_law_distance(4000, s)
    assert coarse <= 0.2 / 1000
    assert fine <= 0.2 / 4000
    assert fine <= coarse / 3.0


def test_reference_twist_frozen_point():
    # frozen from the exact transfer sums at fourteen sites
    overlap, energy = trial_energy_exact(14, 1, twist_angle(14))
    assert abs(overlap) ** 2 == pytest.approx(0.01599186961236382, rel=1e-9)
    assert energy == pytest.approx(0.26682114716665034, rel=1e-9)


def test_reference_twist_keeps_middling_ground_weight_at_sixteen_sites():
    # The twist scale is calibrated so the ground weight should sit well
    # inside (0.05, 0.95) at this size; measured weight is 0.0166.  Kept
    # at the claimed window; see the repository notes for the analysis.
    overlap, _ = trial_energy_exact(16, 1, twist_angle(16))
    weight = abs(overlap) ** 2
    assert 0.05 < weight < 0.95


def test_sixteen_site_ground_weight_regression():
    overlap, energy = trial_energy_exact(16, 1, twist_angle(16))
    assert abs(overlap) ** 2 == pytest.approx(0.016585154811890542, rel=1e-9)
    assert energy == pytest.approx(0.20449516587275393, rel=1e-9)


# ---------------------------------------------------------------------------
# Variational bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("two_n", "frozen_bound", "frozen_weight"),
    [
        (6, 2.609300176331273, 0.015387458675548138),
        (8, 1.578426636167809, 0.014241094596530186),
        (10, 1.0337418939718812, 0.014626836824324614),
    ],
)
def test_variational_bound_dominates_true_gap(two_n, frozen_bound, frozen_weight):
    vb = variational_gap_bound(two_n, 1)
    assert vb.scale_factor == 1
    assert vb.overlap_sq <= 0.5
    assert vb.bound == pytest.approx(frozen_bound, rel=1e-9)
    assert vb.overlap_sq == pytest.approx(frozen_weight, rel=1e-9)
    spec = ChainSpec(two_n=two_n, s=1, boundary="motzkin")
    true_gap = lowest_spectrum(build_hamiltonian(spec)).gap
    assert vb.bound >= true_gap


def test_variational_bound_gives_up_on_tiny_chains():
    with pytest.raises(OverlapTooLarge):
        variational_gap_bound(2, 1)
