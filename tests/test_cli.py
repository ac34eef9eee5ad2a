"""Command-line interface tests.

Everything runs in process through ``main(argv)`` so exit codes and
stdout/stderr routing are observable; one test runs the console-script
entry point declared in ``pyproject.toml`` in a fresh interpreter, and the
installed ``motzkinchain`` script too wherever one is on ``PATH``.
"""

import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import numpy as np
import pytest

import motzkinchain
from motzkinchain.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    FIGURE_TAGS,
    main,
    write_text_atomic,
)
from motzkinchain.excursion import excursion_density, trial_energy_exact, twist_angle
from motzkinchain.hamiltonian import ChainSpec, build_hamiltonian, sector_split
from motzkinchain.schmidt import entropy_asymptotic, entropy_exact


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_writes_csv_table(capsys):
    assert main(["entropy", "--s", "1", "--n-list", "2,3,4"]) == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["n", "s", "S_exact_nats", "S_asym_nats", "ratio"]
    assert len(rows) == 4
    first = rows[1]
    assert first[0] == "2" and first[1] == "1"
    assert float(first[2]) == pytest.approx(entropy_exact(2, 1), rel=1e-15)
    assert float(first[3]) == pytest.approx(entropy_asymptotic(2, 1), rel=1e-15)
    assert float(first[4]) == pytest.approx(float(first[2]) / float(first[3]), rel=1e-15)


def test_entropy_json_format(capsys):
    assert main(["entropy", "--s", "2", "--n-list", "5", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["n"] == 5 and payload[0]["s"] == 2
    assert payload[0]["S_exact_nats"] == pytest.approx(entropy_exact(5, 2), rel=1e-15)


def test_global_flags_work_on_either_side(capsys):
    main(["--format", "json", "entropy", "--s", "1", "--n-list", "3"])
    before = capsys.readouterr().out
    main(["entropy", "--s", "1", "--n-list", "3", "--format", "json"])
    after = capsys.readouterr().out
    assert before == after


# SHA-256 of the help text of the root parser ("") and of every subcommand,
# at 80 columns
HELP_SHA256 = {
    "": "18871f5e4549d839b660f182ea753249e4842f8cae0055119a632dfed47ce9f3",
    "entropy": "fa85a2ecc7a9d5fecece9dc4cd838e3118a5ed7864983f1a1e5c72118e5b0df4",
    "spectrum": "c6b39ce7c324111b0e66b4b4b41bf581323d4699c41e7433e85cd2416a8625a8",
    "gap": "4c963226b71a23e4674785eb38af67f70be762224ad67a04e5a8663fc06e45a0",
    "classes": "a306845c7a3eee3a93157e45a76583bb41bfb35eb0786c6c7cdbe81e3ed5c183",
    "markov": "079593aaa2c188199449a8cfdf9a58a969b5ae2f20f9ff0aca2ec17ecf484f94",
    "excursion": "e85094b1345e82bbfd47f38c838e6634a9f817be1178b71a805d76977e0078d9",
    "field": "a25bbaabb40d90c8701fe37feeeeeaee5655212a0dd40d372b8658faee933922",
    "reproduce": "791cc6d9ee2c149fed6ba87155db08dc21e225aceded3da181320945e6fbffff",
}


@pytest.mark.parametrize("command", list(HELP_SHA256), ids=lambda c: c or "root")
def test_help_text_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"] if command else ["--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[command]


def test_entropy_out_file(tmp_path, capsys):
    target = tmp_path / "entropy.csv"
    assert main(["entropy", "--s", "1", "--n-list", "2", "--out", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    text = target.read_text()
    assert text.endswith("\n")
    assert _rows(text)[0][0] == "n"
    assert [p.name for p in tmp_path.iterdir()] == ["entropy.csv"]


@pytest.mark.parametrize(
    ("s", "size", "digest"),
    [
        (1, 226, "48d745c603a128b0c49b811cb92dac779a12c9bb9a264debd81e78393d258eef"),
        (2, 229, "e3f327fa2c88f6a7096fdb156277f53ff0f122408031f65e9e0c41bce7b0fe58"),
        (3, 229, "b6071a15492e0575bb67e6370f03ab70fcbd3d386708e18e440ea7d04887a3a4"),
    ],
)
def test_entropy_bytes_are_stable(s, size, digest, capsys):
    # recorded from the ratio row of CountTable.build
    assert main(["entropy", "--s", str(s), "--n-list", "301,1999,5000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_entropy_past_the_table_limit_exits_before_any_array(capsys):
    from motzkinchain import walks

    tracemalloc.start()
    try:
        code = main(["entropy", "--s", "2", "--n-list", str(walks.TABLE_LIMIT + 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_VALIDATION
    assert "TABLE_LIMIT" in capsys.readouterr().err
    # one float row at the limit would take 24 MB
    assert peak < 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--s", "1", "--n-list", "10", "--out", "{missing}/x.csv"],
        ["reproduce", "--tag", "entropy_s1", "--out", "{missing}"],
    ],
    ids=["entropy", "reproduce"],
)
def test_out_in_a_missing_directory_exits_before_computing(argv, tmp_path, capsys, monkeypatch):
    from motzkinchain import schmidt

    def no_entropy(n, s):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(schmidt, "entropy_exact", no_entropy)
    missing = tmp_path / "missing"
    assert main([arg.format(missing=missing) for arg in argv]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out") and captured.err.count("\n") == 1
    assert not missing.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--s", "1", "--n-list", "2"],
        ["field", "--n", "3", "--s", "1", "--eps0", "0.1"],
    ],
    ids=["entropy", "field"],
)
def test_out_naming_a_directory_exits_before_computing(argv, tmp_path, capsys, monkeypatch):
    from motzkinchain import cli

    def no_work(args):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(cli, f"_cmd_{argv[0]}", no_work)
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_write_text_atomic_overwrites_in_place(tmp_path):
    path = tmp_path / "table.csv"
    write_text_atomic(path, "a,b\n1,2\n")
    write_text_atomic(path, "a,b\n3,4\n")
    text = path.read_text()
    assert text == "a,b\n3,4\n"
    assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# spectrum and gap
# ---------------------------------------------------------------------------


def test_spectrum_json_report(capsys):
    assert main(["spectrum", "--two-n", "6", "--s", "1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["two_n"] == 6 and payload["s"] == 1
    assert payload["boundary"] == "motzkin"
    assert len(payload["eigenvalues"]) == 6
    assert abs(payload["lambda1"]) < 1e-10
    assert payload["ground_degeneracy"] == 1
    assert payload["gap"] == pytest.approx(0.010704113050181405, rel=1e-9)
    assert payload["method"] == "dense"


def test_spectrum_is_deterministic_for_a_fixed_seed(capsys):
    argv = ["spectrum", "--two-n", "8", "--s", "1", "--k", "2", "--seed", "7"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["method"].startswith("lanczos")


def test_spectrum_past_every_lanczos_subspace_goes_dense(capsys):
    # k = 300 leaves no Lanczos subspace below the 512- and 518-state
    # sectors, so they are diagonalized densely
    assert main(["spectrum", "--two-n", "8", "--s", "1", "--k", "300"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "dense"
    op = build_hamiltonian(ChainSpec(two_n=8, s=1))
    sector_of, sizes = sector_split(op.matrix)
    members = np.split(np.argsort(sector_of, kind="stable"), np.cumsum(sizes)[:-1])
    expected = np.sort(
        np.concatenate([np.linalg.eigvalsh(op.matrix[m][:, m].toarray()) for m in members])
    )
    np.testing.assert_allclose(
        payload["eigenvalues"], expected[:300], rtol=0, atol=1e-9 * max(op.norm_inf(), 1.0)
    )


def test_gap_table_and_fit_note(capsys):
    assert main(["gap", "--s", "1", "--sizes", "4,6"]) == EXIT_OK
    captured = capsys.readouterr()
    rows = _rows(captured.out)
    assert rows[0] == ["two_n", "s", "lambda1", "lambda2", "gap", "residual_max"]
    assert [r[0] for r in rows[1:]] == ["4", "6"]
    assert all(float(r[4]) > 0 for r in rows[1:])
    assert "fitted exponent" in captured.err


def test_gap_note_moves_to_stdout_when_table_goes_to_file(tmp_path, capsys):
    target = tmp_path / "gap.csv"
    assert main(["gap", "--s", "1", "--sizes", "4,6", "--out", str(target)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "fitted exponent" in captured.out
    assert captured.err == ""
    assert target.exists()


def test_gap_json_includes_slope(capsys):
    assert main(["gap", "--s", "1", "--sizes", "4,6", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {row["two_n"] for row in payload["rows"]} == {4, 6}
    assert payload["slope"] < 0
    assert payload["slope_stderr"] >= 0


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gap_on_a_degenerate_ground_level_fits_nothing(boundary, fmt, capsys):
    # both chains have a degenerate ground level, so a gap is zero within
    # its residual and has no logarithm
    argv = ["gap", "--s", "1", "--sizes", "4,6,8", "--boundary", boundary, "--format", fmt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "no fitted exponent: the gap at 2n=4 is zero within its residual\n"
    if fmt == "json":
        payload = json.loads(captured.out, parse_constant=_refuse_constant)
        assert payload["slope"] is None and payload["slope_stderr"] is None
        assert [row["two_n"] for row in payload["rows"]] == [4, 6, 8]
    else:
        assert [r[0] for r in _rows(captured.out)[1:]] == ["4", "6", "8"]


# ---------------------------------------------------------------------------
# classes
# ---------------------------------------------------------------------------


def test_classes_table(capsys):
    assert main(["classes", "--two-n", "4", "--s", "1"]) == EXIT_OK
    captured = capsys.readouterr()
    rows = _rows(captured.out)
    assert rows[0] == ["class_index", "p", "q", "member_count"]
    assert len(rows) == 16
    assert sum(int(r[3]) for r in rows[1:]) == 81
    assert "15 classes on 4 sites" in captured.err


def test_classes_periodic(capsys):
    assert main(["classes", "--two-n", "4", "--s", "1", "--boundary", "periodic"]) == EXIT_OK
    captured = capsys.readouterr()
    assert f"{4 * 2 + 1} classes" in captured.err


def test_classes_bytes_are_stable(capsys):
    # recorded from the Step/Walk implementation the digit-tuple walks replaced
    argv = ["classes", "--two-n", "6", "--s", "2", "--boundary", "periodic"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out) == 15537 and out.count("\n") == 1749
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0691c493320499e0b77949435c07d26ec03fd7faf0f1e84221a878b4a671a19f"
    )


# ---------------------------------------------------------------------------
# markov
# ---------------------------------------------------------------------------


def test_markov_full_report(capsys):
    assert main(["markov", "--two-n", "6", "--s", "1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["two_n"] == 6 and payload["s"] == 1
    assert payload["dim"] == 9
    assert payload["gap_true"] == pytest.approx(1.0 - payload["lambda2"], abs=1e-15)
    assert payload["rho"] >= 1.0
    assert payload["L"] <= 6
    assert payload["certified"] is True
    assert payload["gap_bound"] <= payload["gap_true"] + 1e-12


def test_markov_bytes_are_stable(capsys):
    # recorded from the Step/Walk implementation the digit-tuple walks
    # replaced; lambda2 and gap_true re-recorded from the certified H_eff
    # eigensolve, which matches the 40-digit lambda2 0.98668690925687632156;
    # rho and gap_bound re-recorded when the load became one exact sum per way
    assert main(["markov", "--two-n", "6", "--s", "2"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "{\n"
        '  "L": 6,\n'
        '  "certified": true,\n'
        '  "dim": 51,\n'
        '  "gap_bound": 0.0008650362318840579,\n'
        '  "gap_true": 0.013313090743123701,\n'
        '  "lambda2": 0.9866869092568763,\n'
        '  "rho": 192.67015706806285,\n'
        '  "s": 2,\n'
        '  "two_n": 6\n'
        "}\n"
    )


@pytest.mark.parametrize(
    ("two_n", "s", "expected"),
    [
        (
            "6", "3",
            '  "L": 6,\n  "certified": true,\n  "dim": 157,\n'
            '  "gap_bound": 0.0005740104365533919,\n  "gap_true": 0.008602897282577793,\n'
            '  "lambda2": 0.9913971027174222,\n  "rho": 290.3547671840355,\n'
            '  "s": 3,\n  "two_n": 6\n',
        ),
        (
            "10", "1",
            '  "L": 10,\n  "certified": true,\n  "dim": 65,\n'
            '  "gap_bound": 0.00026445913393259666,\n  "gap_true": 0.022934289993125634,\n'
            '  "lambda2": 0.9770657100068744,\n  "rho": 378.13025594149923,\n'
            '  "s": 1,\n  "two_n": 10\n',
        ),
    ],
)
def test_markov_certificate_bytes_are_stable(capsys, two_n, s, expected):
    # rho and gap_bound re-recorded when the load became one exact sum per way
    assert main(["markov", "--two-n", two_n, "--s", s]) == EXIT_OK
    assert capsys.readouterr().out == "{\n" + expected + "}\n"


def test_markov_certifies_sixteen_sites(capsys):
    assert main(["markov", "--two-n", "16", "--s", "1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified"] is True and payload["L"] == 16 and payload["dim"] == 2056


def _run_fresh(*argv):
    """Run the CLI in a fresh interpreter, so ``--threads`` takes effect."""
    package_root = str(Path(motzkinchain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "motzkinchain.cli", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def test_markov_bytes_do_not_depend_on_thread_count():
    argv = ["markov", "--two-n", "10", "--s", "2", "--report", "gap"]
    one, two = (_run_fresh("--threads", threads, *argv) for threads in ("1", "2"))
    assert one.returncode == two.returncode == EXIT_OK, one.stderr + two.stderr
    assert one.stdout == two.stdout


def test_markov_gap_only(capsys):
    assert main(["markov", "--two-n", "6", "--s", "1", "--report", "gap"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "lambda2" in payload and "rho" not in payload


@pytest.mark.parametrize("report", ["gap", "edge-load", "gap,edge-load"])
def test_markov_solves_for_lambda2_once(capsys, monkeypatch, report):
    from motzkinchain.markov import TransitionMatrix

    calls = []
    original = TransitionMatrix.second_eigenvalue

    def counted(self):
        calls.append(self.dim)
        return original(self)

    monkeypatch.setattr(TransitionMatrix, "second_eigenvalue", counted)
    assert main(["markov", "--two-n", "6", "--s", "1", "--report", report]) == EXIT_OK
    assert "lambda2" in json.loads(capsys.readouterr().out)
    assert calls == [9]


def test_markov_builds_the_dyck_basis_once(capsys, monkeypatch):
    from motzkinchain import markov

    markov.dyck_basis.cache_clear()
    levels = []
    original = markov.enumerate_walks

    def counted(length, s, kind):
        if kind == "dyck" and s == 2:
            levels.append(length)
        return original(length, s, kind)

    monkeypatch.setattr(markov, "enumerate_walks", counted)
    assert main(["markov", "--two-n", "6", "--s", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["certified"] is True
    # one basis: each of the levels 0..3 enumerated once
    assert levels == [0, 2, 4, 6]


def test_markov_pair_guard_exits_before_any_basis(capsys, monkeypatch):
    from motzkinchain import markov

    calls = []

    def counted(n, s):
        calls.append((n, s))
        raise AssertionError("a Dyck basis was built")

    monkeypatch.setattr(markov, "dyck_basis", counted)
    assert main(["markov", "--two-n", "20", "--s", "1"]) == EXIT_VALIDATION
    assert "ordered pairs" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("two_n", ["7", "41", "0"])
def test_markov_parity_exits_before_any_basis(capsys, monkeypatch, two_n):
    from motzkinchain import markov

    def counted(n, s):
        raise AssertionError("a Dyck basis was built")

    monkeypatch.setattr(markov, "dyck_basis", counted)
    assert main(["markov", "--two-n", two_n, "--s", "1"]) == EXIT_VALIDATION
    assert "must be even" in capsys.readouterr().err


def test_markov_rejects_unknown_report(capsys):
    assert main(["markov", "--two-n", "6", "--s", "1", "--report", "bogus"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# excursion
# ---------------------------------------------------------------------------


def test_excursion_density_table(capsys):
    assert main(["excursion", "--density", "--grid", "0.5:1.5:5"]) == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["x", "f_A"]
    assert len(rows) == 6
    density = excursion_density()
    xs = [0.5, 0.75, 1.0, 1.25, 1.5]
    for row, x in zip(rows[1:], xs):
        assert float(row[0]) == pytest.approx(x, abs=1e-12)
        assert float(row[1]) == pytest.approx(density(x), rel=1e-12)


def test_excursion_trial_report(capsys):
    assert main(["excursion", "--trial", "--two-n", "8"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    theta = twist_angle(8)
    overlap, energy = trial_energy_exact(8, 1, theta)
    assert payload["theta_tilde"] == pytest.approx(theta, rel=1e-15)
    assert payload["overlap_sq"] == pytest.approx(abs(overlap) ** 2, rel=1e-12)
    assert payload["energy"] == pytest.approx(energy, rel=1e-12)


def test_excursion_trial_beyond_the_work_bound_exits_two(capsys):
    assert main(["excursion", "--trial", "--two-n", "14142"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_excursion_requires_exactly_one_mode(capsys):
    assert main(["excursion"]) == EXIT_VALIDATION
    capsys.readouterr()
    assert main(["excursion", "--density", "--trial"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("grid", ["1:100:3", "1:1e200:3"])
def test_excursion_density_beyond_the_series_exits_three(capsys, grid):
    assert main(["excursion", "--density", "--grid", grid]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_excursion_bad_grid(capsys):
    assert main(["excursion", "--density", "--grid", "3:1:10"]) == EXIT_VALIDATION
    assert "grid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------


def test_field_table(capsys):
    assert main(["field", "--n", "3", "--s", "1", "--eps0", "0.001"]) == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["m", "exact_expectation", "asymptotic", "delta_E"]
    assert [r[0] for r in rows[1:]] == [str(m) for m in range(7)]
    shifts = [float(r[3]) for r in rows[1:]]
    assert all(a <= b + 1e-18 for a, b in zip(shifts, shifts[1:]))
    assert shifts[-1] == pytest.approx(0.001, rel=1e-14)


def test_field_m_max_flag(capsys):
    assert main(["field", "--n", "5", "--s", "2", "--eps0", "0.01", "--m-max", "2"]) == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]


def test_field_accepts_a_shift_that_falls_across_parities(capsys):
    # at s = 10 the m = 1 sector shifts less than m = 0; each parity still grows
    assert main(["field", "--n", "5", "--s", "10", "--eps0", "0.001"]) == EXIT_OK
    shifts = [float(r[3]) for r in _rows(capsys.readouterr().out)[1:]]
    assert shifts[1] < shifts[0]
    assert all(a <= b for a, b in zip(shifts, shifts[2:]))


def test_field_bytes_are_stable(capsys):
    # recorded from the two exact count rows, whose 2,001 means each equal
    # the exact-rational pair-count mean rounded once
    assert main(["field", "--n", "1000", "--s", "2", "--eps0", "0.001"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out) == 6463
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "82b62b48e7e9460db7ab91a617396ac5a3ff20abb9ce3b684edddab9d5aa58f5"
    )


def test_field_size_error_names_the_half_length(capsys):
    # the field's size limit is on the 2n sites, so --n stops at 1000
    assert main(["field", "--n", "1001", "--s", "1", "--eps0", "0.5"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n = 1000" in captured.err


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_density_figure(tmp_path, capsys):
    argv = ["reproduce", "--tag", "fa_density", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    note = capsys.readouterr().out
    target = tmp_path / "fa_density.csv"
    assert str(target) in note
    first = target.read_text()
    assert len(_rows(first)) == 301
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert target.read_text() == first


@pytest.mark.parametrize(
    ("tag", "size", "digest"),
    [
        ("entropy_s1", 1606, "a8668f1a96266168016097f0442404cf513a26ce0038c1150c4564aef6d2dce5"),
        ("entropy_grid", 6408, "b5677d648ff7ce84427c99851ca5114ac0f1781a9d4fecc2b705e3dc0f2ad21a"),
        ("ratio", 606, "4dd66ed53a6a485138d15ae4dc0d78b6ea7e5dbaded28cab487f600849a0cb79"),
    ],
)
def test_reproduce_entropy_bytes_are_stable(tag, size, digest, tmp_path, capsys):
    # recorded from the ratio row of CountTable.build
    assert main(["reproduce", "--tag", tag, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    data = (tmp_path / f"{tag}.csv").read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_reproduce_density_bytes_are_stable(tmp_path, capsys):
    # recorded from the full-matrix zero series
    assert main(["reproduce", "--tag", "fa_density", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    data = (tmp_path / "fa_density.csv").read_bytes()
    assert len(data) == 11082
    assert hashlib.sha256(data).hexdigest() == (
        "b9be8f7ccfd6a596c8aadd10a015e2c1ce1796d56b00d6410f2cb5c9bcde4d1d"
    )


@pytest.mark.parametrize(
    ("grid", "size", "digest"),
    [
        (None, 11082, "b9be8f7ccfd6a596c8aadd10a015e2c1ce1796d56b00d6410f2cb5c9bcde4d1d"),
        ("0.001:3:2001", 78737, "5bb02ac62f18237e4dfaf003784a0c664b1ea8c92bee5afb41baeeb3c9adac0f"),
    ],
)
def test_excursion_density_bytes_are_stable(grid, size, digest, capsys):
    # recorded from the full-matrix zero series
    argv = ["excursion", "--density"] + (["--grid", grid] if grid else [])
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reproduce_rejects_unknown_tag(capsys):
    with pytest.raises(SystemExit):
        main(["reproduce", "--tag", "nonsense"])
    assert "fa_density" in "".join(FIGURE_TAGS)


# ---------------------------------------------------------------------------
# Exit codes, threads, entry point
# ---------------------------------------------------------------------------


def test_validation_failures_exit_two(capsys):
    assert main(["entropy", "--s", "0", "--n-list", "3"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error:")
    assert main(["spectrum", "--two-n", "3", "--s", "1"]) == EXIT_VALIDATION
    capsys.readouterr()
    assert main(["spectrum", "--two-n", "40", "--s", "3"]) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--two-n", "4", "--s", "1", "--eps0", "inf"],
        ["spectrum", "--two-n", "4", "--s", "1", "--eps0", "1e308"],
        ["excursion", "--trial", "--two-n", "8", "--theta", "inf"],
        ["excursion", "--trial", "--two-n", "8", "--theta", "nan"],
        ["excursion", "--density", "--grid", "0.5:inf:3"],
        ["gap", "--s", "1", "--sizes", "4,4"],
        ["entropy", "--s", str(10**400), "--n-list", "10"],
        ["field", "--n", "3", "--s", str(10**400), "--eps0", "0.001"],
    ],
)
def test_non_finite_or_degenerate_input_exits_two(capsys, argv):
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    if str(10**400) in argv:
        assert "--s" in captured.err


def test_thread_flag_sets_environment(capsys, monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert main(["--threads", "2", "entropy", "--s", "1", "--n-list", "2"]) == EXIT_OK
    assert os.environ["OMP_NUM_THREADS"] == "2"
    capsys.readouterr()
    assert main(["--threads", "0", "entropy", "--s", "1", "--n-list", "2"]) == EXIT_VALIDATION


def _declared_entry_point():
    """The ``motzkinchain`` console-script entry point.

    Read from ``[project.scripts]`` in the ``pyproject.toml`` beside
    ``tests/``; without ``tomllib`` (Python 3.10), from the installed
    package's ``console_scripts`` metadata.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        declared = entry_points(group="console_scripts", name="motzkinchain")
        if not declared:
            pytest.importorskip("tomllib")
        return next(iter(declared))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["motzkinchain"]
    return EntryPoint("motzkinchain", target, "console_scripts")


def test_console_script_entry_point(tmp_path):
    # Run the declared target the way an installer's wrapper script does,
    # so the returned exit code must reach the process status.
    point = _declared_entry_point()
    wrapper = f"import sys; from {point.module} import {point.attr}; sys.exit({point.attr}())"
    package_root = str(Path(motzkinchain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("motzkinchain")
    if installed is not None:
        commands.append([installed])

    table = ["entropy", "--s", "1", "--n-list", "2"]
    for command in commands:
        result, rejected = (
            subprocess.run(
                [*command, *args],
                capture_output=True,
                text=True,
                timeout=120,
                cwd=tmp_path,
                env=env,
            )
            for args in (table, ["--threads", "0", *table])
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == "n,s,S_exact_nats,S_asym_nats,ratio"
        assert rejected.returncode == EXIT_VALIDATION, rejected.stderr
