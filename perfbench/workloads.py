"""Workload task lists and the values each task's output is checked on.

A task is either a CLI invocation (``argv``) or a library call (``call``).
``extract`` turns the raw output (CLI text, or the returned object) into
named values; each value says how the gate compares it with the
reference recorded at the seed commit (see ``gate.py``).  Nothing here
imports ``motzkinchain`` at module scope, so the parent process stays
light; library calls import it when they run, in the child.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable


def exact(value) -> dict:
    return {"check": "exact", "value": value}


def rel(value, tol: float = 1e-12) -> dict:
    return {"check": "rel", "value": value, "tol": tol}


def eig(value: float, residual: float, threshold: float) -> dict:
    """An eigenvalue, its residual and the certification threshold it met."""
    return {"check": "residual", "value": value, "residual": residual, "threshold": threshold}


def near(value: float, tol: float) -> dict:
    return {"check": "abs", "value": value, "tol": tol}


@dataclass(frozen=True)
class Task:
    """``argv`` runs through ``cli.main``; ``call(seed)`` runs a library call.

    ``out_file`` names the file (inside the work directory) a CLI task
    writes; its text, not stdout, is what ``extract`` reads.
    """

    id: str
    extract: Callable[[object], dict]
    argv: tuple[str, ...] | None = None
    out_file: str | None = None
    call: Callable[[int], object] | None = None


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _columns(text: str, names: tuple[str, ...]) -> dict:
    rows = _rows(text)
    return {name: rel([float(row[name]) for row in rows]) for name in names}


def _threshold(**spec) -> float:
    """``lowest_spectrum``'s certification threshold, 1e-9 max(|H|_inf, 1)."""
    from motzkinchain.hamiltonian import ChainSpec, build_hamiltonian

    return 1e-9 * max(build_hamiltonian(ChainSpec(**spec)).norm_inf(), 1.0)


def _gap(text: str) -> dict:
    out = {}
    for row in _rows(text):
        key, r = row["two_n"], float(row["residual_max"])
        t = _threshold(two_n=int(key), s=int(row["s"]))
        out[f"{key}.lambda1"] = eig(float(row["lambda1"]), r, t)
        out[f"{key}.lambda2"] = eig(float(row["lambda2"]), r, t)
        out[f"{key}.gap"] = eig(float(row["gap"]), 2.0 * r, 2.0 * t)
    return out


def _spectrum(text: str) -> dict:
    report = json.loads(text)
    r = report["residual_max"]
    t = _threshold(
        two_n=report["two_n"], s=report["s"],
        boundary=report["boundary"], field_epsilon0=report["field_epsilon0"],
    )
    out = {f"eigenvalue.{i}": eig(v, r, t) for i, v in enumerate(report["eigenvalues"])}
    out["ground_degeneracy"] = exact(report["ground_degeneracy"])
    if "gap" in report:
        out["gap"] = eig(report["gap"], 2.0 * r, 2.0 * t)
    return out


def _classes(text: str) -> dict:
    rows = sorted((row["p"], row["q"], int(row["member_count"])) for row in _rows(text))
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    return {
        "count": exact(len(rows)),
        "members": exact(sum(row[2] for row in rows)),
        "sizes_by_label": exact(digest),
    }


def _markov(text: str) -> dict:
    report = json.loads(text)
    return {
        "basis_size": exact(report["dim"]),
        "L": exact(report["L"]),
        "certified": exact(report["certified"]),
        "rho": rel(report["rho"]),
        # dense non-symmetric eigvals: no residual is reported
        "lambda2": rel(report["lambda2"], 1e-10),
        "gap_true": rel(report["gap_true"], 1e-10),
        "gap_bound": rel(report["gap_bound"], 1e-10),
    }


def _markov_gap(text: str) -> dict:
    report = json.loads(text)
    return {
        "basis_size": exact(report["dim"]),
        "lambda2": rel(report["lambda2"], 1e-10),
        "gap_true": rel(report["gap_true"], 1e-10),
    }


def _trial(text: str) -> dict:
    report = json.loads(text)
    keys = ("theta_tilde", "overlap_re", "overlap_im", "overlap_sq", "energy")
    return {key: rel(report[key]) for key in keys}


def _verify(result) -> dict:
    spec, report = result
    # lambda1's residual is certified below the threshold; the report omits it
    t = _threshold(two_n=spec.two_n, s=spec.s)
    return {
        "lambda1": eig(report.lambda1, t, t),
        "ground_degeneracy": exact(report.ground_degeneracy),
        "passed": exact(report.passed),
        "overlap": rel(report.overlap_with_walk_state),
        "max_term_energy": near(report.max_term_energy, 1e-12),
    }


def _verify_call(two_n: int, s: int) -> Callable[[int], object]:
    def call(seed: int):
        from motzkinchain import hamiltonian

        spec = hamiltonian.ChainSpec(two_n=two_n, s=s)
        return spec, hamiltonian.verify_frustration_free(spec, seed=seed)

    return call


def _sector_call(two_n: int) -> Callable[[int], object]:
    def call(seed: int):
        from motzkinchain import field

        return field.sector_first_order_check(two_n)

    return call


def _sector(check) -> dict:
    return {
        "class_count": exact(check.class_count),
        "multiplicities_ok": exact(check.multiplicities_ok),
        "worst_deviation": near(check.worst_deviation, 1e-12),
        "equal_energy_spread": near(check.equal_energy_spread, 1e-12),
    }


def _variational_call(two_n: int, s: int) -> Callable[[int], object]:
    def call(seed: int):
        from motzkinchain import excursion

        return excursion.variational_gap_bound(two_n, s)

    return call


def _variational(bound) -> dict:
    return {
        "scale_factor": exact(bound.scale_factor),
        "theta_tilde": rel(bound.theta_tilde),
        "overlap_sq": rel(bound.overlap_sq),
        "energy": rel(bound.energy),
        "bound": rel(bound.bound),
    }


def cli(task_id: str, extract, *argv: str, out_file: str | None = None) -> Task:
    return Task(id=task_id, extract=extract, argv=argv, out_file=out_file)


ENTROPY_COLUMNS = ("n", "S_exact_nats", "S_asym_nats", "ratio")

# Sizes are scaled so that one pass takes a few seconds on one core; the
# doc (README.md) lists the larger probes left out and why.
WORKLOADS: dict[str, tuple[Task, ...]] = {
    # one color, few large sectors: time goes to Lanczos on the full space
    "chain_s1": (
        cli("gap s=1 2n=4,6,8", _gap, "gap", "--s", "1", "--sizes", "4,6,8"),
        Task("verify_frustration_free 2n=8 s=1", _verify, call=_verify_call(8, 1)),
        cli("classes 2n=8 s=1", _classes, "classes", "--two-n", "8", "--s", "1"),
        cli("spectrum 2n=8 s=1 k=6", _spectrum, "spectrum", "--two-n", "8", "--s", "1"),
    ),
    # two colors, thousands of tiny sectors, and the wrap-around assembly path
    "chain_s2": (
        Task("verify_frustration_free 2n=6 s=2", _verify, call=_verify_call(6, 2)),
        cli("classes 2n=6 s=2", _classes, "classes", "--two-n", "6", "--s", "2"),
        cli(
            "classes 2n=6 s=2 periodic", _classes,
            "classes", "--two-n", "6", "--s", "2", "--boundary", "periodic",
        ),
        Task("sector_first_order_check 2n=8", _sector, call=_sector_call(8)),
        cli(
            "spectrum 2n=6 s=2 periodic k=2", _spectrum,
            "spectrum", "--two-n", "6", "--s", "2", "--boundary", "periodic", "--k", "2",
        ),
    ),
    # the only workload that reaches markov: all-pairs canonical-path routing
    "dyck_certificate": (
        cli("markov 2n=6 s=3", _markov, "markov", "--two-n", "6", "--s", "3"),
        cli("markov 2n=10 s=1", _markov, "markov", "--two-n", "10", "--s", "1"),
        cli("markov 2n=6 s=2", _markov, "markov", "--two-n", "6", "--s", "2"),
        cli(
            "markov 2n=8 s=2 gap only", _markov_gap,
            "markov", "--two-n", "8", "--s", "2", "--report", "gap",
        ),
    ),
    # closed-form tables: log-space counting past EXACT_LIMIT, no Hamiltonian
    "entropy_tables": (
        cli(
            "entropy s=1", lambda t: _columns(t, ENTROPY_COLUMNS),
            "entropy", "--s", "1", "--n-list", "100,300,1000,3000,5000",
        ),
        cli(
            "entropy s=2 to file", lambda t: _columns(t, ENTROPY_COLUMNS),
            "entropy", "--s", "2", "--n-list", "100,300,1000,3000,5000",
            "--out", "{work}/entropy_s2.csv", out_file="entropy_s2.csv",
        ),
        # the excursion density f_A(x), through reproduce's tag dispatch
        cli(
            "reproduce fa_density", lambda t: _columns(t, ("x", "f_A")),
            "reproduce", "--tag", "fa_density", "--out", "{work}",
            out_file="fa_density.csv",
        ),
        *(
            cli(f"excursion trial 2n={n}", _trial, "excursion", "--trial", "--two-n", str(n))
            for n in range(8, 20, 2)
        ),
        *(
            Task(f"variational_gap_bound 2n={n}", _variational, call=_variational_call(n, 1))
            for n in (6, 8, 10)
        ),
        cli(
            "field n=1000 s=2",
            lambda t: _columns(t, ("m", "exact_expectation", "asymptotic", "delta_E")),
            "field", "--n", "1000", "--s", "2", "--eps0", "0.001",
        ),
    ),
}


def pass_order(workload: str, seed: int, pass_index: int) -> list[Task]:
    """The seed fixes the task order of every pass of a run."""
    tasks = list(WORKLOADS[workload])
    random.Random(seed * 1_000_003 + pass_index).shuffle(tasks)
    return tasks
