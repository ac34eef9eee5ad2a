"""Compare a task's values with the reference recorded at the seed commit.

The reference decides how each value is compared:

* ``exact``: equal (class counts, ``L``, basis sizes, degeneracies);
* ``residual``: an eigenvalue, within the reference's residual plus the
  result's own, where the result's counts for no more than the
  certification threshold recorded in the reference (a result cannot
  widen its own tolerance by reporting a large residual);
* ``rel``: within ``tol`` relative to the reference (entropies and trial
  energies use 1e-12), element by element for a list;
* ``abs``: within ``tol`` absolute, for quantities that should be zero.
"""

from __future__ import annotations


def _rel_ok(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * abs(ref)


def mismatch(name: str, ref: dict, got: dict | None) -> str | None:
    """A message when ``got`` falls outside the reference ``ref``, else None."""
    if got is None:
        return f"{name}: missing"
    check, want, value = ref["check"], ref["value"], got["value"]
    if check == "exact":
        ok = value == want
    elif check == "residual":
        ok = abs(value - want) <= min(got["residual"], ref["threshold"]) + ref["residual"]
    elif check == "rel":
        if isinstance(want, list):
            ok = len(value) == len(want) and all(
                _rel_ok(v, w, ref["tol"]) for v, w in zip(value, want)
            )
        else:
            ok = _rel_ok(value, want, ref["tol"])
    elif check == "abs":
        ok = abs(value - want) <= ref["tol"]
    else:
        raise ValueError(f"unknown check {check!r} for {name}")
    if ok:
        return None
    return f"{name}: got {value!r}, reference {want!r} ({check})"


def check_task(values: dict, reference: dict) -> list[str]:
    """Every mismatch between a task's values and its reference entry."""
    problems = []
    for name, ref in sorted(reference.items()):
        problem = mismatch(name, ref, values.get(name))
        if problem is not None:
            problems.append(problem)
    return problems
