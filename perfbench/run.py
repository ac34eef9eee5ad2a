"""Benchmark for motzkinchain: end-to-end gates and per-layer spans.

    python3 perfbench/run.py --workload chain_s1 --seed 1 --seconds 32 --trace 0

Each pass of a workload runs in a fresh child process (``child.py``) with
BLAS/OpenMP pinned to one thread through ``cli.THREAD_VARIABLES``, as a CLI
user pays imports and cold caches on every run.  Passes repeat until
``--seconds`` is used up (at least ``MIN_PASSES``); metrics are medians
over passes.  Every task's output is checked against ``reference.json``,
recorded at the seed commit.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including
the tracing overhead (traced minus untraced median wall time).
``--workload all`` runs every workload in turn.  The last line of
stdout is one JSON object; a full record of the run goes to
``perfbench/results/``.  Exits 2 when the program cannot be found and 3
when a pass cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)

# (metric, unit, source, key): "self" and "calls" read spans named ``key``,
# "count" reads the recorder's counts, "pass" a field of the pass report.
PER_LAYER = (
    ("walks.count_table_s", "s", "self", "walks.count_table"),
    ("walks.count_table_calls", "count", "calls", "walks.count_table"),
    ("walks.enumerate_s", "s", "self", "walks.enumerate"),
    ("walks.enumerate_items", "count", "count", "walks.enumerate.items"),
    ("schmidt.entropy_s", "s", "self", "schmidt.entropy"),
    ("schmidt.entropy_calls", "count", "calls", "schmidt.entropy"),
    ("hamiltonian.build_s", "s", "self", "hamiltonian.build"),
    ("hamiltonian.build_nnz", "count", "count", "hamiltonian.build_nnz"),
    ("hamiltonian.eigsh_s", "s", "self", "hamiltonian.eigsh"),
    ("hamiltonian.eigsh_calls", "count", "calls", "hamiltonian.eigsh"),
    ("hamiltonian.matvecs", "count", "count", "hamiltonian.matvecs"),
    ("hamiltonian.ncv_max", "count", "count", "hamiltonian.ncv_max"),
    ("hamiltonian.eigensolve_s", "s", "self", "hamiltonian.eigensolve"),
    ("hamiltonian.residual_ratio_max", "ratio", "count", "hamiltonian.residual_ratio_max"),
    ("hamiltonian.frustration_s", "s", "self", "hamiltonian.frustration"),
    ("hamiltonian.projector_terms_s", "s", "self", "hamiltonian.projector_terms"),
    ("hamiltonian.classes_s", "s", "self", "hamiltonian.classes"),
    ("hamiltonian.classes_count", "count", "count", "hamiltonian.classes_count"),
    ("hamiltonian.classes_largest", "count", "count", "hamiltonian.classes_largest"),
    ("markov.basis_s", "s", "self", "markov.basis"),
    ("markov.basis_size", "count", "count", "markov.basis_size"),
    ("markov.heff_s", "s", "self", "markov.heff"),
    ("markov.transition_s", "s", "self", "markov.transition"),
    ("markov.matching_s", "s", "self", "markov.matching"),
    ("markov.tree_s", "s", "self", "markov.tree"),
    ("markov.edge_load_s", "s", "self", "markov.edge_load"),
    ("markov.routes", "count", "count", "markov.routes"),
    ("markov.second_eigenvalue_s", "s", "self", "markov.second_eigenvalue"),
    ("markov.second_eigenvalue_calls", "count", "calls", "markov.second_eigenvalue"),
    ("markov.bound_ratio", "ratio", "count", "markov.bound_ratio"),
    ("excursion.trial_s", "s", "self", "excursion.trial"),
    ("excursion.variational_s", "s", "self", "excursion.variational"),
    ("excursion.density_s", "s", "self", "excursion.density"),
    ("field.energies_s", "s", "self", "field.energies"),
    ("field.sector_check_s", "s", "self", "field.sector_check"),
    ("cli.self_s", "s", "self", "cli"),
    ("cli.calls", "count", "calls", "cli"),
    ("cli.output_bytes", "bytes", "pass", "output_bytes"),
)
EXTRA_LAYER = (("trace.overhead_s", "s"), ("cpu_s", "s"))


class HarnessError(RuntimeError):
    """A pass could not run at all, so the run has no result."""


def child_env(thread_variables: tuple[str, ...]) -> dict[str, str]:
    env = dict(os.environ)
    for name in thread_variables:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(env: dict, *args: str) -> dict:
    """One fresh child; adds ``setup_s`` (spawn to ready) and load averages."""
    load_before = os.getloadavg()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"pass {args} exceeded {CHILD_TIMEOUT_S} s") from exc
    ended = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    report["elapsed_s"] = ended - spawned
    report["loadavg_before"] = load_before
    report["loadavg_after"] = os.getloadavg()
    return report


def check_pass(report: dict, reference: dict) -> int:
    """Record each task's problems in the report; return how many failed."""
    failed = 0
    for task in report["tasks"]:
        if task["id"] not in reference:
            raise HarnessError(f"reference.json has no entry for task {task['id']!r}")
        if task["error"] is not None:
            task["problems"] = [task["error"]]
        else:
            task["problems"] = gate.check_task(task["values"], reference[task["id"]])
        failed += bool(task["problems"])
    return failed


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    totals: dict[str, dict[str, float]] = {}
    for span in report["spans"]:
        entry = totals.setdefault(span["name"], {"self": 0.0, "calls": 0})
        entry["self"] += span["self"]
        entry["calls"] += 1
    out = {}
    for metric, _, source, key in PER_LAYER:
        if source == "count":
            out[metric] = report["counts"].get(key, 0)
        elif source == "pass":
            out[metric] = report[key]
        else:
            out[metric] = totals.get(key, {}).get(source, 0)
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: int, env: dict, reference: dict):
    work = HERE / "work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # compiles bytecode and warms the file cache, so pass 0 is not special
        warm = run_child(env)
        kinds = (0, 1) if trace else (0,)
        passes: list[dict] = []
        cycles: list[float] = []
        deadline = time.monotonic() + seconds
        while len(cycles) < MIN_PASSES or time.monotonic() + statistics.median(cycles) <= deadline:
            cycle_start = time.monotonic()
            for kind in kinds:
                report = run_child(
                    env, "--workload", name, "--seed", str(seed),
                    "--pass-index", str(len(passes)), "--trace", str(kind), "--work", str(work),
                )
                report["trace"] = kind
                report["failed"] = check_pass(report, reference[name])
                for task in report["tasks"]:
                    del task["values"]  # checked; the reference holds them
                passes.append(report)
            cycles.append(time.monotonic() - cycle_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if p["trace"] == 0]
    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        traced = [p for p in passes if p["trace"] == 1]
        per_pass = [layer_metrics(p) for p in traced]
        values = {m: statistics.median(v[m] for v in per_pass) for m, *_ in PER_LAYER}
        values["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in traced
        ) - statistics.median(p["wall_s"] for p in untraced)
        values["cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
        units = {m: u for m, u, *_ in PER_LAYER} | dict(EXTRA_LAYER)
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "setup_s": statistics.median(p["setup_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "ok_share": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
    metrics = {m: {"value": values[m], "unit": units[m]} for m in values}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "versions": warm["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pin": {k: env[k] for k in sorted(env) if k.endswith("_NUM_THREADS")},
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record


def summary_lines(record: dict) -> list[str]:
    name, passes = record["workload"], record["passes"]
    lines = [
        f"{name:18s} {metric:32s} {m['value']:.6g} {m['unit']}"
        for metric, m in record["metrics"].items()
    ]
    lines.append(
        f"{name:18s} {'fail_share':32s} {record['failed'] / record['attempted']:.6g} ratio"
        f"  ({record['failed']} of {record['attempted']} tasks, {len(passes)} passes)"
    )
    for p in passes:
        for task in p["tasks"]:
            for problem in task["problems"]:
                lines.append(f"{name:18s} FAILED {task['id']}: {problem.splitlines()[-1]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "motzkinchain" / "__init__.py").is_file():
        print(f"error: no program source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from motzkinchain.cli import THREAD_VARIABLES

    with open(HERE / "reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    env = child_env(THREAD_VARIABLES)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace, env, reference)
            records.append(record)
            print("\n".join(summary_lines(record)), flush=True)
    except HarnessError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{m}": v for r in records for m, v in r["metrics"].items()
        }
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
