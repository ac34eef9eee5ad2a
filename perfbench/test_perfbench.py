"""Self-tests of the benchmark: span arithmetic, probes, gate, metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def leaf(seconds):
        clock.advance(seconds)

    def middle():
        clock.advance(1.0)
        rec.call("leaf", leaf, 2.0)
        rec.call("leaf", leaf, 3.0)
        clock.advance(0.5)

    def outer():
        rec.call("middle", middle)
        clock.advance(4.0)

    rec.call("outer", outer)
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span.name, []).append(span)
    (o,), (m,) = by_name["outer"], by_name["middle"]
    assert (o.busy, o.self_time) == (10.5, 4.0)
    assert (m.busy, m.self_time) == (6.5, 1.5)
    assert [s.self_time for s in by_name["leaf"]] == [2.0, 3.0]
    assert [s.parent for s in by_name["leaf"]] == [m.id, m.id]
    assert m.parent == o.id and o.parent is None


def test_generator_is_timed_only_while_consumed_and_consumed_once():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    produced = []

    def source():
        for item in "abc":
            clock.advance(1.0)
            produced.append(item)
            yield item

    def consumer():
        out = []
        for item in rec.iterate("gen", source()):
            clock.advance(10.0)
            out.append(item)
        return out

    assert rec.call("consumer", consumer) == ["a", "b", "c"]
    assert produced == ["a", "b", "c"]
    gen = next(s for s in rec.spans if s.name == "gen")
    host = next(s for s in rec.spans if s.name == "consumer")
    assert gen.busy == 3.0 and gen.parent == host.id
    assert host.self_time == 30.0
    assert rec.counts["gen.items"] == 3


def test_wrapped_generator_yields_the_same_walks():
    from motzkinchain import hamiltonian, walks

    original = walks.enumerate_walks
    expected = list(original(6, 2, "motzkin"))
    tracer = spans.Tracer(spans.Recorder())
    tracer.install()
    try:
        assert hamiltonian.enumerate_walks is walks.enumerate_walks is not original
        got = list(hamiltonian.enumerate_walks(6, 2, "motzkin"))
    finally:
        tracer.restore()
    assert got == expected
    assert tracer.recorder.counts["walks.enumerate.items"] == len(expected)


def _bindings_snapshot() -> dict:
    import scipy.sparse.linalg

    owners = [m for n, m in sys.modules.items() if n.startswith(spans.PACKAGE)]
    owners += [scipy.sparse.linalg]
    owners += [spans._resolve(p.owner) for p in spans.PROBES if ":" in p.owner]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_every_wrapper_is_restored_after_a_traced_pass(tmp_path, monkeypatch):
    tiny = (
        workloads.cli("gap", workloads._gap, "gap", "--s", "1", "--sizes", "4,6"),
        workloads.cli("markov", workloads._markov, "markov", "--two-n", "4", "--s", "1"),
        workloads.cli("classes", workloads._classes, "classes", "--two-n", "4", "--s", "1"),
        workloads.Task("verify", workloads._verify, call=workloads._verify_call(4, 1)),
        workloads.Task("sector", workloads._sector, call=workloads._sector_call(4)),
    )
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    child._import_program()
    before = _bindings_snapshot()
    recorder = spans.Recorder()
    report = child.run_pass("tiny", 0, 0, str(tmp_path), recorder)
    assert [t["error"] for t in report["tasks"]] == [None] * len(tiny)
    names = {span.name for span in recorder.spans}
    assert {"cli", "hamiltonian.build", "hamiltonian.classes", "markov.edge_load"} <= names
    # field calls the hamiltonian builders through its own from-imported names
    under_field = {
        s.name for s in recorder.spans
        if s.parent is not None and recorder.spans[s.parent].name == "field.sector_check"
    }
    assert {"hamiltonian.build", "hamiltonian.classes"} <= under_field
    assert recorder.counts["markov.routes"] > 0
    after = _bindings_snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


def test_failing_tasks_count_as_failures_not_missing_samples(tmp_path, monkeypatch):
    tasks = (
        # odd chain length: the CLI exits 2 with InvalidSpec
        workloads.cli("bad size", workloads._spectrum, "spectrum", "--two-n", "3", "--s", "1"),
        # output the extractor cannot parse
        workloads.cli("bad output", workloads._markov, "classes", "--two-n", "4", "--s", "1"),
        workloads.cli("ok", workloads._classes, "classes", "--two-n", "4", "--s", "1"),
    )
    monkeypatch.setitem(workloads.WORKLOADS, "failing", tasks)
    report = child.run_pass("failing", 0, 0, str(tmp_path))
    ok = next(t["values"] for t in report["tasks"] if t["id"] == "ok")
    reference = {t.id: ok for t in tasks}
    assert run.check_pass(report, reference) == 2
    problems = {t["id"]: t["problems"] for t in report["tasks"]}
    assert "exit code 2" in problems["bad size"][0]
    assert "JSONDecodeError" in problems["bad output"][0]
    assert problems["ok"] == []


def test_counting_operator_leaves_eigsh_bit_identical():
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    rng = np.random.default_rng(3)
    a = sp.random(300, 300, density=0.02, random_state=4, format="csr")
    a = (a + a.T).tocsr()
    v0 = rng.standard_normal(300)
    rec = spans.Recorder()
    plain = spla.eigsh(a, k=2, which="SA", v0=v0, ncv=20, tol=0)
    counted = spla.eigsh(spans.counting_operator(a, rec), k=2, which="SA", v0=v0, ncv=20, tol=0)
    assert np.array_equal(plain[0], counted[0])
    assert np.array_equal(plain[1], counted[1])
    assert rec.counts["hamiltonian.matvecs"] > 0


def _reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_reference_matches_itself():
    for tasks in _reference().values():
        for values in tasks.values():
            assert gate.check_task(values, values) == []


@pytest.mark.parametrize(
    "workload, task, name, perturb",
    [
        ("chain_s1", "classes 2n=8 s=1", "count", lambda v: v + 1),
        ("dyck_certificate", "markov 2n=10 s=1", "L", lambda v: v + 1),
        ("chain_s1", "gap s=1 2n=4,6,8", "8.lambda2", lambda v: v + 1e-9),
        ("entropy_tables", "entropy s=1", "S_exact_nats", lambda v: [v[0] * (1 + 1e-9)] + v[1:]),
        ("entropy_tables", "excursion trial 2n=12", "energy", lambda v: v * (1 + 1e-10)),
    ],
)
def test_gate_rejects_a_perturbed_value(workload, task, name, perturb):
    reference = _reference()[workload][task]
    got = copy.deepcopy(reference)
    got[name]["value"] = perturb(got[name]["value"])
    problems = gate.check_task(got, reference)
    assert len(problems) == 1 and problems[0].startswith(name)
    del got[name]
    assert gate.check_task(got, reference) == [f"{name}: missing"]


@pytest.mark.parametrize(
    "workload, task, name",
    [
        ("chain_s1", "gap s=1 2n=4,6,8", "8.lambda2"),
        ("chain_s1", "gap s=1 2n=4,6,8", "6.gap"),
        ("chain_s1", "spectrum 2n=8 s=1 k=6", "eigenvalue.1"),
        ("chain_s1", "verify_frustration_free 2n=8 s=1", "lambda1"),
        ("chain_s2", "spectrum 2n=6 s=2 periodic k=2", "gap"),
    ],
)
def test_gate_ignores_a_large_residual_the_result_claims(workload, task, name):
    reference = _reference()[workload][task]
    got = copy.deepcopy(reference)
    got[name]["value"] += 1e-6
    got[name]["residual"] = 1.0
    problems = gate.check_task(got, reference)
    assert len(problems) == 1 and problems[0].startswith(name)
    got[name]["value"] = reference[name]["value"] + reference[name]["threshold"] / 2
    assert gate.check_task(got, reference) == []


def test_benchmark_json_names_every_metric_the_run_prints():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [(m, u) for m, u, *_ in run.PER_LAYER] + list(run.EXTRA_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(_reference()) == set(workloads.WORKLOADS)
    for name, tasks in workloads.WORKLOADS.items():
        assert {t.id for t in tasks} == set(_reference()[name])


def test_probes_resolve_to_callables():
    child._import_program()
    for probe in spans.PROBES:
        owner = spans._resolve(probe.owner)
        assert isinstance(owner, (types.ModuleType, type))
        assert callable(getattr(owner, probe.attr))
