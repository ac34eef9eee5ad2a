"""One pass of a workload, in a fresh process, as a CLI user would pay it.

Run by ``run.py``; prints one JSON report line on stdout.  ``ready`` is the
monotonic time at which the imports are done and the first task can run,
so the parent can take set-up time as ``ready`` minus its spawn time
(``time.monotonic`` reads the same system-wide clock in both processes).
With ``--trace 1`` the probes of ``spans.py`` are installed after
``ready`` and removed before the task outputs are extracted.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _import_program() -> dict:
    import motzkinchain  # noqa: F401
    import motzkinchain.cli  # noqa: F401
    import motzkinchain.excursion  # noqa: F401
    import motzkinchain.field  # noqa: F401
    import motzkinchain.hamiltonian  # noqa: F401
    import motzkinchain.markov  # noqa: F401
    import motzkinchain.schmidt  # noqa: F401
    import motzkinchain.walks  # noqa: F401
    import networkx
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
    }


def _run_cli(task, seed: int, work: str) -> tuple[int, str, str]:
    import motzkinchain.cli

    argv = [arg.replace("{work}", work) for arg in task.argv] + ["--seed", str(seed)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = motzkinchain.cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code if isinstance(exit_.code, int) else 2
    return code, stdout.getvalue(), stderr.getvalue()


def _extract(task, output, work: str) -> tuple[dict, int]:
    """A task's checked values and the bytes its CLI output came to."""
    if task.argv is None:
        return task.extract(output), 0
    code, stdout, stderr = output
    if code != 0:
        raise RuntimeError(f"exit code {code}: {stderr.strip()[-500:]}")
    size = len(stdout.encode())
    text = stdout
    if task.out_file is not None:
        with open(os.path.join(work, task.out_file), encoding="utf-8") as handle:
            text = handle.read()
        size += len(text.encode())
    return task.extract(text), size


def run_pass(workload: str, seed: int, pass_index: int, work: str, recorder=None) -> dict:
    """Run every task once; time each, then extract and report its values."""
    import spans
    import workloads

    tasks = workloads.pass_order(workload, seed, pass_index)
    tracer = spans.Tracer(recorder) if recorder is not None else None
    raw = []
    cpu0 = time.process_time()
    if tracer is not None:
        tracer.install()
    try:
        for task in tasks:
            start = time.perf_counter()
            try:
                if task.argv is not None:
                    output = _run_cli(task, seed, work)
                else:
                    output = task.call(seed)
                error = None
            except Exception:  # a failing task is recorded, and the pass goes on
                output, error = None, traceback.format_exc(limit=4)
            raw.append((task, time.perf_counter() - start, output, error))
    finally:
        if tracer is not None:
            tracer.restore()
    cpu_s = time.process_time() - cpu0

    results = []
    output_bytes = 0
    for task, seconds, output, error in raw:
        values = None
        if error is None:
            try:
                values, size = _extract(task, output, work)
                output_bytes += size
            except Exception:  # malformed output fails the task, not the pass
                error = traceback.format_exc(limit=4)
        results.append({"id": task.id, "seconds": seconds, "error": error, "values": values})
    return {
        "wall_s": sum(r["seconds"] for r in results),
        "cpu_s": cpu_s,
        "output_bytes": output_bytes,
        "tasks": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", help="directory for files the tasks write")
    args = parser.parse_args(argv)

    versions = _import_program()
    ready = time.monotonic()
    report: dict = {"ready": ready, "versions": versions}
    if args.workload is not None:
        recorder = None
        if args.trace:
            import spans

            recorder = spans.Recorder()
        report.update(run_pass(args.workload, args.seed, args.pass_index, args.work, recorder))
        if recorder is not None:
            report["spans"] = [span.as_dict() for span in recorder.spans]
            report["counts"] = recorder.counts
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
