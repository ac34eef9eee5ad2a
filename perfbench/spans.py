"""Spans timed from outside the program.

A :class:`Recorder` keeps spans in memory: each has a name, the span open
when it started (its parent), start and end times, its busy time and the
busy time of its child spans.  A span's self time is its busy time minus
its children's.  For an ordinary call busy time is end minus start; a
generator is timed only while it is consumed, so its busy time is the sum
of the time spent inside ``next``.

:class:`Tracer` installs the probes of :data:`PROBES` by replacing every
binding that callers hold of each probed function (module attributes,
names imported with ``from ... import`` into other ``motzkinchain``
modules, class attributes) and puts every original back on
:meth:`Tracer.restore`.  The program itself is not edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "motzkinchain"


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "busy", "child")

    def __init__(self, id_: int, name: str, parent: int | None, start: float):
        self.id = id_
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.busy - self.child

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "busy": self.busy,
            "self": self.self_time,
        }


class Recorder:
    """In-memory spans plus named counts and maxima."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[Span] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def _open(self, name: str, start: float) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, start)
        self.spans.append(span)
        return span

    def _busy(self, span: Span, start: float, end: float) -> None:
        span.end = end
        span.busy += end - start
        if self._stack:
            self._stack[-1].child += end - start

    def call(self, name: str, fn: Callable, *args, **kwargs):
        start = self.clock()
        span = self._open(name, start)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self._busy(span, start, self.clock())

    def iterate(self, name: str, iterator):
        """Yield from ``iterator``, timing each step as busy time of one span."""
        span = None
        try:
            while True:
                start = self.clock()
                if span is None:
                    span = self._open(name, start)
                self._stack.append(span)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._stack.pop()
                    self._busy(span, start, self.clock())
                self.count(name + ".items")
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

Observe = Callable[[Recorder, object], None]


@dataclass(frozen=True)
class Probe:
    """One probed callable: ``owner`` is a module, or ``module:Class``.

    ``mode`` is ``"call"`` (a span per call), ``"generator"`` (a span per
    generator, timed while consumed), ``"count"`` (no span; the call is
    counted under ``name``) or ``"eigsh"`` (a call span whose operator
    counts matvecs).  ``observe`` reads counts off the result.
    """

    owner: str
    attr: str
    name: str
    mode: str = "call"
    observe: Observe | None = None


def _nnz(rec: Recorder, result) -> None:
    rec.count("hamiltonian.build_nnz", result.matrix.nnz)


def _residual_ratio(rec: Recorder, result) -> None:
    # lowest_spectrum certifies |H v - lambda v| <= 1e-9 * max(|H|_inf, 1)
    threshold = 1e-9 * max(result.norm_bound, 1.0)
    rec.maximum("hamiltonian.residual_ratio_max", float(result.residuals.max()) / threshold)


def _classes(rec: Recorder, result) -> None:
    rec.count("hamiltonian.classes_count", result.count)
    rec.maximum("hamiltonian.classes_largest", max(int(m.size) for m in result.members))


def _basis_size(rec: Recorder, result) -> None:
    rec.maximum("markov.basis_size", result.size)


def _bound_ratio(rec: Recorder, result) -> None:
    rec.maximum("markov.bound_ratio", result.gap_true / result.gap_bound)


H = f"{PACKAGE}.hamiltonian"
M = f"{PACKAGE}.markov"
E = f"{PACKAGE}.excursion"

PROBES: tuple[Probe, ...] = (
    Probe(f"{PACKAGE}.walks:CountTable", "build", "walks.count_table"),
    Probe(f"{PACKAGE}.walks", "enumerate_walks", "walks.enumerate", "generator"),
    Probe(f"{PACKAGE}.schmidt", "entropy_exact", "schmidt.entropy"),
    Probe(H, "build_hamiltonian", "hamiltonian.build", observe=_nnz),
    Probe(H, "build_move_part", "hamiltonian.build", observe=_nnz),
    Probe(H, "build_interaction_part", "hamiltonian.build", observe=_nnz),
    Probe(H, "lowest_spectrum", "hamiltonian.eigensolve", observe=_residual_ratio),
    Probe("scipy.sparse.linalg", "eigsh", "hamiltonian.eigsh", "eigsh"),
    Probe(H, "verify_frustration_free", "hamiltonian.frustration"),
    Probe(H, "iter_projector_terms", "hamiltonian.projector_terms", "generator"),
    Probe(H, "local_move_classes", "hamiltonian.classes", observe=_classes),
    Probe(M, "dyck_basis", "markov.basis", observe=_basis_size),
    Probe(M, "build_heff", "markov.heff"),
    Probe(M, "build_transition", "markov.transition"),
    Probe(M, "rounded_matching_level", "markov.matching"),
    Probe(M, "build_canonical_tree", "markov.tree"),
    Probe(M, "edge_load", "markov.edge_load", observe=_bound_ratio),
    Probe(M, "canonical_path_with_moves", "markov.routes", "count"),
    Probe(f"{M}:TransitionMatrix", "second_eigenvalue", "markov.second_eigenvalue"),
    Probe(E, "trial_energy_exact", "excursion.trial"),
    Probe(E, "variational_gap_bound", "excursion.variational"),
    Probe(E, "excursion_density", "excursion.density"),
    Probe(f"{E}:ExcursionDensity", "__call__", "excursion.density"),
    Probe(f"{PACKAGE}.field", "field_energies", "field.energies"),
    Probe(f"{PACKAGE}.field", "sector_first_order_check", "field.sector_check"),
    Probe(f"{PACKAGE}.cli", "main", "cli"),
)


def counting_operator(matrix, rec: Recorder):
    """Pass-through operator that counts matvecs and multiplies by ``matrix``."""
    from scipy.sparse.linalg import LinearOperator

    def matvec(x):
        rec.count("hamiltonian.matvecs")
        return matrix @ x

    return LinearOperator(matrix.shape, matvec=matvec, dtype=matrix.dtype)


def _eigsh_wrapper(rec: Recorder, original: Callable) -> Callable:
    @functools.wraps(original)
    def eigsh(A, k=6, *args, **kwargs):
        ncv = kwargs.get("ncv")
        if ncv is None:
            ncv = min(A.shape[0], max(2 * k + 1, 20))
        rec.maximum("hamiltonian.ncv_max", ncv)
        return rec.call("hamiltonian.eigsh", original, counting_operator(A, rec), k, *args, **kwargs)

    return eigsh


def _wrapper(rec: Recorder, probe: Probe, original: Callable) -> Callable:
    if probe.mode == "eigsh":
        return _eigsh_wrapper(rec, original)
    if probe.mode == "count":
        @functools.wraps(original)
        def counted(*args, **kwargs):
            rec.count(probe.name)
            return original(*args, **kwargs)

        return counted
    if probe.mode == "generator":
        @functools.wraps(original)
        def generator(*args, **kwargs):
            return rec.iterate(probe.name, original(*args, **kwargs))

        return generator

    @functools.wraps(original)
    def timed(*args, **kwargs):
        result = rec.call(probe.name, original, *args, **kwargs)
        if probe.observe is not None:
            probe.observe(rec, result)
        return result

    return timed


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Installs :data:`PROBES` on every binding; :meth:`restore` undoes it."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        # import every owner first: a module imported while others are
        # patched would bind a wrapper with ``from ... import`` and keep it
        owners = [_resolve(probe.owner) for probe in PROBES]
        for probe, owner in zip(PROBES, owners):
            if inspect.isclass(owner):
                raw = owner.__dict__[probe.attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrapper(self.recorder, probe, raw.__func__))
                else:
                    wrapped = _wrapper(self.recorder, probe, raw)
                self._patch(owner, probe.attr, wrapped)
                continue
            original = getattr(owner, probe.attr)
            wrapped = _wrapper(self.recorder, probe, original)
            for module, name in bindings(original, owner, probe.attr):
                self._patch(module, name, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self.patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self.patched:
            owner, name, original = self.patched.pop()
            setattr(owner, name, original)


def bindings(original, owner, attr: str) -> list[tuple[object, str]]:
    """Every place a caller can look ``original`` up at call time."""
    found = [(owner, attr)]
    for module_name, module in sorted(sys.modules.items()):
        if module is owner or not module_name.startswith(PACKAGE):
            continue
        for name, value in vars(module).items():
            if value is original:
                found.append((module, name))
    return found
