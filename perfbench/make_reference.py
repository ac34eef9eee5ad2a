"""Record ``reference.json``: every task's checked values at this commit.

    python3 perfbench/make_reference.py

Run once, at the commit whose outputs the gate should hold later commits
to; one untraced pass per workload at seed 0.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SOURCE))
    from motzkinchain.cli import THREAD_VARIABLES

    env = run.child_env(THREAD_VARIABLES)
    reference = {}
    work = run.HERE / "work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in run.workloads.WORKLOADS:
            report = run.run_child(
                env, "--workload", name, "--seed", "0", "--work", str(work)
            )
            errors = [t for t in report["tasks"] if t["error"] is not None]
            if errors:
                print(f"error: {name}: {errors[0]['id']}: {errors[0]['error']}", file=sys.stderr)
                return 1
            reference[name] = {t["id"]: t["values"] for t in report["tasks"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
