"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Every criterion is checked at its stated tolerance against an oracle that
does not share code with the path under test (exhaustive enumeration,
dense linear algebra, independent quadrature, byte comparison).  Failures
list every violated subcheck in the assertion message.
"""

import json
import math
import sys

import numpy as np
import pytest

from conftest import iter_matched_digit_strings
from test_schmidt import brute_schmidt_values

from motzkinchain.cli import main as cli_main
from motzkinchain.excursion import (
    excursion_density,
    excursion_moments,
    integrate_density,
    trial_energy_exact,
    twist_angle,
    variational_gap_bound,
)
from motzkinchain.field import (
    field_expectation_asymptotic,
    field_expectation_exact,
    sector_first_order_check,
)
from motzkinchain.hamiltonian import (
    ChainSpec,
    build_hamiltonian,
    gap_scan,
    verify_frustration_free,
)
from motzkinchain.markov import (
    build_canonical_tree,
    build_heff,
    build_transition,
    edge_load,
)
from motzkinchain.schmidt import (
    entropy_asymptotic,
    entropy_constant_bits,
    entropy_exact,
    schmidt_rank,
    schmidt_spectrum,
)
from motzkinchain.walks import (
    CountTable,
    colored_halfwalk_count,
    full_walk_count,
    motzkin_number,
)


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _find_capture_manager(request):
    # Verdict lines must reach the real terminal even for passing tests, so
    # they are printed with capture suspended instead of through sys.stdout.
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"\n[{status}] criterion {number}: {name}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def _check(failures: list, condition, label: str) -> None:
    if not condition:
        failures.append(label)


def _prefix_words(length: int, s: int) -> dict:
    """Exhaustive prefix enumeration, grouped by the open-color word."""
    counts: dict = {}
    stack: list = []

    def rec(pos: int) -> None:
        if pos == length:
            key = tuple(stack)
            counts[key] = counts.get(key, 0) + 1
            return
        rec(pos + 1)  # flat site
        for color in range(1, s + 1):
            stack.append(color)
            rec(pos + 1)
            stack.pop()
        if stack:  # the close color is forced by the innermost open
            color = stack.pop()
            rec(pos + 1)
            stack.append(color)

    rec(0)
    return counts


def test_criterion_01_walk_counts_match_exhaustive_enumeration():
    failures: list = []
    for s in (1, 2, 3):
        for n in range(8):
            words = _prefix_words(n, s)
            by_level: dict = {}
            for word, count in words.items():
                by_level.setdefault(len(word), {})[word] = count
            for m in range(n + 1):
                level = by_level.get(m, {})
                _check(
                    failures,
                    len(level) == s**m,
                    f"n={n} s={s} m={m}: {len(level)} color words, wanted {s ** m}",
                )
                common = set(level.values())
                _check(
                    failures,
                    len(common) <= 1,
                    f"n={n} s={s} m={m}: counts differ across color words",
                )
                enumerated = next(iter(common), 0)
                _check(
                    failures,
                    colored_halfwalk_count(n, m, s) == enumerated,
                    f"n={n} s={s} m={m}: half-walk count != enumeration",
                )
            # glue check: a complete walk is a prefix with open-color word w
            # joined to a suffix closing w, and the suffix count per word
            # equals the prefix count per word by reversal
            glued = sum(count**2 for count in words.values())
            _check(
                failures,
                motzkin_number(2 * n, s) == glued,
                f"n={n} s={s}: glued product {glued} != closed count",
            )
            _check(
                failures,
                full_walk_count(n, s) == glued,
                f"n={n} s={s}: half-walk glue formula != enumeration",
            )
    # direct enumeration of complete strings where the state space allows
    for s, max_len in ((1, 14), (2, 10), (3, 8)):
        for length in range(0, max_len + 1, 2):
            direct = _prefix_words(length, s).get((), 0)
            _check(
                failures,
                motzkin_number(length, s) == direct,
                f"length={length} s={s}: complete-string count != enumeration",
            )
    _report(1, "walk counts vs exhaustive enumeration (n <= 7, s <= 3)", failures)


def test_criterion_02_schmidt_spectra_match_dense_svd():
    failures: list = []
    for s in (1, 2):
        for two_n in (2, 4, 6, 8, 10, 12):
            n = two_n // 2
            singular = brute_schmidt_values(n, s)
            brute = np.sort(singular[singular > 1e-12] ** 2)[::-1]
            spectrum = schmidt_spectrum(CountTable.build(n, s))
            exact = np.sort(
                np.concatenate(
                    [
                        np.full(s**m, math.exp(spectrum.log_probability[m]))
                        for m in range(n + 1)
                    ]
                )
            )[::-1]
            _check(
                failures,
                brute.size == exact.size == schmidt_rank(n, s),
                f"2n={two_n} s={s}: rank {brute.size} vs {schmidt_rank(n, s)}",
            )
            _check(
                failures,
                brute.size == exact.size
                and float(np.max(np.abs(brute - exact))) < 1e-10,
                f"2n={two_n} s={s}: spectra differ beyond 1e-10",
            )
            brute_entropy = float(-(brute * np.log(brute)).sum())
            _check(
                failures,
                abs(brute_entropy - entropy_exact(n, s)) < 1e-10,
                f"2n={two_n} s={s}: entropy differs beyond 1e-10",
            )
    _report(2, "Schmidt spectra and entropy vs dense SVD (2n <= 12, s <= 2)", failures)


def test_criterion_03_single_color_entropy_asymptote():
    failures: list = []
    n = 10**4
    exact = entropy_exact(n, 1)
    predicted = (
        0.5 * math.log(n)
        + float(np.euler_gamma)
        - 0.5
        + 0.5 * (math.log(2.0) + math.log(math.pi) - math.log(3.0))
    )
    _check(
        failures,
        abs(exact - predicted) < 0.01,
        f"deviation {abs(exact - predicted):.3e} nats at n={n}",
    )
    _check(
        failures,
        abs(entropy_constant_bits() - 0.64466547) < 1e-6,
        f"constant {entropy_constant_bits():.9f} != 0.64466547 to 6 decimals",
    )
    _report(3, "single-color entropy constant at n = 10^4", failures)


def test_criterion_04_multi_color_square_root_scaling():
    failures: list = []
    ns = [1000, 1585, 2512, 3981, 6310, 10000]
    for s in (2, 3):
        values = [entropy_exact(n, s) for n in ns]
        slope = float(np.polyfit(np.log(ns), np.log(values), 1)[0])
        _check(
            failures,
            0.45 <= slope <= 0.55,
            f"s={s}: fitted exponent {slope:.4f} outside [0.45, 0.55]",
        )
        ratio = values[-1] / entropy_asymptotic(10000, s)
        _check(
            failures,
            abs(ratio - 1.0) < 0.05,
            f"s={s}: exact/asymptotic {ratio:.4f} off by more than 5% at n=10^4",
        )
    _report(4, "square-root entropy scaling for s in {2, 3}", failures)


def test_criterion_05_unique_ground_state():
    failures: list = []
    for s, sizes in ((1, (2, 4, 6, 8, 10)), (2, (2, 4, 6, 8))):
        for two_n in sizes:
            report = verify_frustration_free(ChainSpec(two_n=two_n, s=s))
            _check(
                failures,
                abs(report.lambda1) < 1e-10,
                f"2n={two_n} s={s}: lambda1 = {report.lambda1:.3e}",
            )
            _check(
                failures,
                report.ground_degeneracy == 1,
                f"2n={two_n} s={s}: degeneracy {report.ground_degeneracy}",
            )
            _check(
                failures,
                report.overlap_with_walk_state > 1.0 - 1e-9,
                f"2n={two_n} s={s}: overlap {report.overlap_with_walk_state}",
            )
    for two_n in (4, 6):
        spec = ChainSpec(two_n=two_n, s=1, boundary="periodic")
        values = np.linalg.eigvalsh(build_hamiltonian(spec).matrix.toarray())
        zero_modes = int((values < 1e-10).sum())
        expected = 2 * two_n + 1
        _check(
            failures,
            zero_modes == expected,
            f"periodic 2n={two_n}: {zero_modes} zero modes, wanted {expected}",
        )
    _report(5, "frustration-free unique ground state; ring degeneracy 4n+1", failures)


def test_criterion_06_gap_decay_and_variational_bounds():
    failures: list = []
    scan = gap_scan([4, 6, 8, 10, 12], 1)
    for row in scan.rows:
        _check(
            failures,
            row["gap"] > 0,
            f"2n={row['two_n']}: gap {row['gap']:.3e} not positive",
        )
    exponent = -scan.slope
    _check(
        failures,
        2.0 <= exponent <= 4.0,
        f"gap exponent {exponent:.3f} outside [2, 4]",
    )
    true_gaps = {row["two_n"]: row["gap"] for row in scan.rows}
    for two_n in (6, 8, 10):
        bound = variational_gap_bound(two_n, 1).bound
        _check(
            failures,
            bound >= true_gaps[two_n],
            f"2n={two_n}: variational bound {bound:.4e} below gap {true_gaps[two_n]:.4e}",
        )
    sizes = list(range(8, 19, 2))
    energies = [trial_energy_exact(t, 1, twist_angle(t))[1] for t in sizes]
    trial_slope = float(np.polyfit(np.log(sizes), np.log(energies), 1)[0])
    _check(
        failures,
        -2.6 <= trial_slope <= -1.6,
        f"trial-energy slope {trial_slope:.3f} outside [-2.6, -1.6]",
    )
    _report(6, "gap decay exponent, variational upper bounds, trial scaling", failures)


def test_criterion_07_dyck_walk_certificates():
    failures: list = []
    for s in (1, 2):
        for two_n in (2, 4, 6, 8):
            t = build_transition(two_n, s)
            row_defect = float(np.abs(t.matrix.sum(axis=1) - 1.0).max())
            _check(
                failures,
                row_defect < 1e-12 and t.matrix.min() >= 0.0,
                f"2n={two_n} s={s}: not stochastic to 1e-12",
            )
            flow = t.stationary[:, None] * t.matrix
            _check(
                failures,
                float(np.abs(flow - flow.T).max()) < 1e-12,
                f"2n={two_n} s={s}: detailed balance beyond 1e-12",
            )
            _check(
                failures,
                float(t.matrix.diagonal().min()) >= 0.5 - 1e-12,
                f"2n={two_n} s={s}: holding probability below 1/2",
            )
            _, heff = build_heff(two_n, s)
            heff_gap = float(np.linalg.eigvalsh(heff.toarray())[1])
            identity_dev = abs(
                heff_gap - s * (two_n - 1) * (1.0 - t.second_eigenvalue())
            )
            _check(
                failures,
                identity_dev < 1e-10,
                f"2n={two_n} s={s}: gap identity off by {identity_dev:.2e}",
            )
            tree = build_canonical_tree(two_n // 2, s)
            counts = np.bincount(tree.parent[1:], minlength=tree.basis.size)
            internal = tree.basis.level_of < two_n // 2
            _check(
                failures,
                counts[internal].min() >= s and counts[internal].max() <= 4 * s,
                f"2n={two_n} s={s}: child counts escaped [s, 4s]",
            )
            load = edge_load(tree, t)
            _check(
                failures,
                load.gap_bound <= load.gap_true + 1e-12,
                f"2n={two_n} s={s}: congestion bound exceeds the true gap",
            )
    _report(7, "Dyck walk: stochastic, reversible, lazy, certified mixing", failures)


def test_criterion_08_excursion_area_density():
    failures: list = []
    density = excursion_density()
    total, err = integrate_density(density)
    _check(failures, err < 1e-6, f"mass quadrature error {err:.2e}")
    _check(failures, abs(total - 1.0) < 1e-6, f"total mass {total!r}")
    mean, err = integrate_density(density, weight=lambda x: x)
    _check(
        failures,
        err < 1e-6 and abs(mean - 0.5 * math.sqrt(math.pi / 2.0)) < 1e-6,
        f"mean {mean!r} vs sqrt(pi/8)",
    )
    moments = excursion_moments(4)
    for k in range(1, 5):
        quad, err = integrate_density(density, weight=lambda x, k=k: x**k)
        _check(
            failures,
            err < 1e-6 and abs(moments[k] - quad) < 1e-5,
            f"moment k={k}: closed form {moments[k]!r} vs quadrature {quad!r}",
        )
    std = math.sqrt(moments[2] - moments[1] ** 2)
    _check(failures, abs(std - 0.1548144) < 1e-5, f"area std {std!r}")
    _report(8, "excursion-area density: mass, mean, std, moments", failures)


def test_criterion_09_field_shifts():
    failures: list = []
    for s in (1, 2, 3):
        for n in range(1, 8):
            for m in range(n + 1):
                strings = list(iter_matched_digit_strings(n, s, end_opens=m))
                mean = sum(
                    sum(1 for d in digits if d != 0) for digits in strings
                ) / len(strings)
                value = field_expectation_exact(n, m, s)
                _check(
                    failures,
                    abs(value - mean) < 1e-12 * max(1.0, mean),
                    f"n={n} m={m} s={s}: exact {value} vs enumeration {mean}",
                )
    for s in (1, 2, 3):
        for m in range(64):
            exact = field_expectation_exact(1000, m, s)
            asym = field_expectation_asymptotic(1000, m, s)
            _check(
                failures,
                abs(exact - asym) / exact < 0.01,
                f"n=1000 m={m} s={s}: asymptotic off by more than 1%",
            )
    eps0 = 1e-3
    for two_n in (4, 6, 8):
        check = sector_first_order_check(two_n, eps0)
        _check(
            failures,
            check.worst_deviation <= 10.0 * eps0**2,
            f"2n={two_n}: sector deviation {check.worst_deviation:.2e}",
        )
        _check(failures, check.multiplicities_ok, f"2n={two_n}: sector multiplicities")
    _report(9, "field shifts: enumeration, 1% asymptotics, sector spectra", failures)


def test_criterion_10_cli_reproducibility(tmp_path, capsys):
    failures: list = []
    runs = [
        ["entropy", "--s", "2", "--n-list", "4,64,1000"],
        ["spectrum", "--two-n", "8", "--s", "1", "--k", "2", "--seed", "42"],
        ["markov", "--two-n", "6", "--s", "1"],
        ["excursion", "--density", "--grid", "0.1:2:40"],
        ["field", "--n", "6", "--s", "2", "--eps0", "0.001"],
    ]
    for argv in runs:
        code_a = cli_main(argv)
        first = capsys.readouterr().out
        code_b = cli_main(argv)
        second = capsys.readouterr().out
        _check(
            failures,
            code_a == 0 and code_b == 0,
            f"{' '.join(argv)}: nonzero exit",
        )
        _check(
            failures,
            first == second and len(first) > 0,
            f"{' '.join(argv)}: outputs differ between identical runs",
        )
    argv = ["reproduce", "--tag", "fa_density", "--out", str(tmp_path)]
    _check(failures, cli_main(argv) == 0, "reproduce: nonzero exit")
    capsys.readouterr()
    target = tmp_path / "fa_density.csv"
    bytes_a = target.read_bytes()
    _check(failures, cli_main(argv) == 0, "reproduce rerun: nonzero exit")
    capsys.readouterr()
    _check(
        failures,
        target.read_bytes() == bytes_a,
        "reproduce: figure bytes changed between runs",
    )
    code = cli_main(["spectrum", "--two-n", "6", "--s", "1"])
    payload = json.loads(capsys.readouterr().out) if code == 0 else {}
    _check(failures, payload.get("ground_degeneracy") == 1, "spectrum payload sanity")
    _report(10, "CLI runs are byte-for-byte reproducible at a fixed seed", failures)
