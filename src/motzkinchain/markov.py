"""Effective dynamics on the space of colored Dyck paths.

The chain Hamiltonian, projected onto uniform superpositions of all
flat-step insertions of a Dyck path, becomes a small symmetric operator
whose matrix elements close over the Dyck paths alone: it couples two
paths only when one is the other with a peak removed.  A similarity
transform with the square root of its ground-state weights turns that
operator into a reversible stochastic matrix whose spectral gap equals
the projected gap up to a known factor.  The matrix is stored sparse on
the operator's pattern, and its second eigenvalue is read off the
operator's certified spectrum (:func:`motzkinchain.hamiltonian.lowest_spectrum`,
the package's general eigensolver).  This module builds those objects,
certifies the gap from below with canonical paths routed through a
peak-removal tree, and assembles the one-dimensional hopping chain that
governs the walk of an unmatched letter, solved through its Green's function.

The peak-removal relation is computed once per ``(n, s)``, as
``DyckBasis.removals`` of the memoized :func:`dyck_basis`; the operator's
off-diagonal entries, its peak counts and the edge load's parallel ways
all read it, and the tree and the transition share that one basis.

Levels, trees, and matchings here are indexed by the half length ``m``
of a path (a path of length ``2m`` sits at level ``m``).  Paths are walks
in the chain's digits (see :mod:`motzkinchain.walks`), and the uncolored
shapes the matchings work on are one-color walks in the same digits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np
import scipy.sparse as sp

from .errors import (
    InvalidSpec,
    MatchingInfeasible,
    NegativeEntry,
    NoConvergence,
    RouteMismatch,
    SizeExceeded,
)
from .hamiltonian import lowest_spectrum
from .walks import binomial, catalan_number, encode_walk, enumerate_walks, motzkin_number

BASIS_GUARD = 2 * 10**5
# bounds B**2 for the canonical tree, whose min-cost-flow rounding is the cost past it
PAIR_GUARD = 10**8
# bounds two_n for the surplus-letter chain by memory, a few O(n) rows and two tridiagonals
CHAIN_GUARD = 10**6

STOCHASTIC_TOL = 1e-12


# ---------------------------------------------------------------------------
# Basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyckBasis:
    """All colored Dyck paths of length ``0, 2, ..., 2n`` in canonical order.

    Canonical order is by length first, then the canonical walk order,
    which keeps basis indices stable across runs.  ``level_of[i]`` is the
    half length of ``paths[i]``.  ``removals`` is the peak-removal relation,
    a sparse ``size x size`` integer matrix whose entry ``[u, t]`` counts the
    peaks of ``paths[t]`` (an up step immediately closed by its down step)
    whose removal leaves ``paths[u]``; ``peak_count`` is its column sums.
    """

    n: int
    s: int
    paths: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]
    level_of: np.ndarray
    level_offsets: tuple[int, ...]
    removals: sp.csr_matrix
    peak_count: np.ndarray

    @property
    def size(self) -> int:
        return len(self.paths)

    def level_slice(self, m: int) -> slice:
        if not 0 <= m <= self.n:
            raise InvalidSpec(f"level {m} outside 0..{self.n}")
        return slice(self.level_offsets[m], self.level_offsets[m + 1])


def basis_size(n: int, s: int) -> int:
    """Number of colored Dyck paths of length up to ``2n``."""
    return sum(s**m * catalan_number(m) for m in range(n + 1))


def peak_positions(walk: tuple[int, ...], s: int) -> list[int]:
    """Indices ``i`` of a Dyck walk where the up step ``i`` is closed at ``i+1``."""
    return [i for i in range(len(walk) - 1) if 0 < walk[i] <= s < walk[i + 1]]


def remove_peak(walk: tuple[int, ...], i: int, s: int) -> tuple[int, ...]:
    """Drop the up/down pair at positions ``i`` and ``i+1``."""
    if i < 0 or i + 1 >= len(walk):
        raise InvalidSpec(f"no peak at position {i}")
    if not 0 < walk[i] <= s < walk[i + 1]:
        raise InvalidSpec(f"steps {i},{i + 1} of {encode_walk(walk, s)!r} are not a peak")
    return walk[:i] + walk[i + 2 :]


@lru_cache(maxsize=None)
def dyck_basis(n: int, s: int) -> DyckBasis:
    """The basis of level ``n`` with ``s`` colors, built once per process.

    Callers share the returned object, so its arrays are read-only.
    """
    if n < 0 or s < 1:
        raise InvalidSpec("need n >= 0 and s >= 1")
    total = basis_size(n, s)
    if total > BASIS_GUARD:
        raise SizeExceeded(
            f"{total} colored Dyck paths exceed the basis guard {BASIS_GUARD:.0e}"
        )
    paths: list[tuple[int, ...]] = []
    offsets = [0]
    for m in range(n + 1):
        level = list(enumerate_walks(2 * m, s, "dyck"))
        if len(level) != s**m * catalan_number(m):
            raise RuntimeError("level size disagrees with the colored Catalan count")
        paths.extend(level)
        offsets.append(len(paths))
    index = {p: i for i, p in enumerate(paths)}
    level_of = np.repeat(np.arange(n + 1, dtype=np.int64), np.diff(offsets))
    pairs = [
        (index[t[:i] + t[i + 2 :]], j) for j, t in enumerate(paths) for i in peak_positions(t, s)
    ]
    removals = sp.csr_matrix(
        (np.ones(len(pairs), dtype=np.int64), np.array(pairs, dtype=np.int64).reshape(-1, 2).T),
        shape=(total, total),
    )
    peak_count = np.asarray(removals.sum(axis=0)).ravel()
    for array in (level_of, peak_count, removals.data, removals.indices, removals.indptr):
        array.flags.writeable = False
    return DyckBasis(
        n=n,
        s=s,
        paths=tuple(paths),
        index=index,
        level_of=level_of,
        level_offsets=tuple(offsets),
        removals=removals,
        peak_count=peak_count,
    )


# ---------------------------------------------------------------------------
# Projected Hamiltonian and transition matrix
# ---------------------------------------------------------------------------


def build_heff(two_n: int, s: int) -> tuple[DyckBasis, sp.csr_matrix]:
    """Symmetric projected interaction operator on the Dyck basis.

    The diagonal entry of a level ``m`` path with ``p`` peaks is

        [ (s/2)(2n-1) binom(2n-2, 2m) + (p/2) binom(2n-1, 2m-1) ] / binom(2n, 2m)

    and the only off-diagonal entries couple paths related by one peak,
    with weight -(1/2) mult binom(2n-1, 2m+1) / sqrt(binom(2n,2m) binom(2n,2m+2))
    where ``m`` is the shorter path's level and ``mult`` the entry of
    ``basis.removals`` connecting the pair.  Both follow from averaging the
    two-site pair projectors over all flat-step placements: adjacent flat
    pairs contribute the first diagonal term, adjacently placed peaks the
    second, and a peak adjacent to a flat pair the off-diagonal one.
    """
    if two_n < 2 or two_n % 2:
        raise InvalidSpec("two_n must be even and >= 2")
    n = two_n // 2
    basis = dyck_basis(n, s)

    def per_level(top: int, shift: int) -> np.ndarray:
        return np.array([binomial(top, 2 * m + shift) for m in range(n + 1)], dtype=float)

    lv = basis.level_of
    denom = per_level(two_n, 0)[lv]
    diag = (s / 2.0) * (two_n - 1) * per_level(two_n - 2, 0)[lv] / denom
    diag += 0.5 * basis.peak_count * per_level(two_n - 1, -1)[lv] / denom
    pairs = basis.removals.tocoo()
    lu = lv[pairs.row]
    norm = np.sqrt(per_level(two_n, 0) * per_level(two_n, 2))
    weight = -0.5 * pairs.data * per_level(two_n - 1, 1)[lu] / norm[lu]
    coupling = sp.coo_matrix((weight, (pairs.row, pairs.col)), shape=pairs.shape)
    return basis, (sp.diags(diag) + coupling + coupling.T).tocsr()


def ground_weights(basis: DyckBasis) -> np.ndarray:
    """Squared ground-state amplitude of each basis path.

    A path at level ``m`` carries weight ``binom(2n, 2m) / M_{2n,s}`` where
    the normalizer is the total number of colored Motzkin strings; these
    weights sum to one and are the stationary distribution of the walk.
    """
    two_n = 2 * basis.n
    normalizer = motzkin_number(two_n, basis.s)
    per_level = [binomial(two_n, 2 * m) / normalizer for m in range(basis.n + 1)]
    return np.array(per_level, dtype=float)[basis.level_of]


@dataclass
class TransitionMatrix:
    """Reversible stochastic matrix over a Dyck basis, stored sparse on the
    pattern of the projected operator ``heff`` it was built from."""

    basis: DyckBasis
    heff: sp.csr_matrix
    matrix: sp.csr_array
    stationary: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self) -> None:
        row_defect = np.abs(self.matrix.sum(axis=1) - 1.0).max()
        if row_defect > STOCHASTIC_TOL:
            raise NegativeEntry(f"row sums deviate from 1 by {row_defect:.3e}")
        flow = self.stationary[:, None] * self.matrix
        balance = np.abs(flow - flow.T).max()
        if balance > STOCHASTIC_TOL:
            raise NegativeEntry(f"detailed balance violated by {balance:.3e}")

    def second_eigenvalue(self) -> float:
        """``1 - mu_2 / (s(2n-1))`` with ``mu_2`` the certified second-lowest
        eigenvalue of ``heff``, to which the walk is similar."""
        mu = lowest_spectrum(self.heff, k=2).eigenvalues
        return float(1.0 - mu[1] / (self.basis.s * (2 * self.basis.n - 1)))


def build_transition(two_n: int, s: int) -> TransitionMatrix:
    """Stochastic walk whose generator is the projected interaction.

    ``P = I - H_eff, conjugated by sqrt of the stationary weights, over
    s(2n-1)``, stored on ``H_eff``'s pattern (its diagonal is positive, so
    every diagonal entry is stored).  Entries of the result are
    nonnegative for this construction; any negative entry signals a
    construction bug and raises :class:`NegativeEntry`.
    """
    basis, heff = build_heff(two_n, s)
    pi = ground_weights(basis)
    scale = 1.0 / (s * (two_n - 1))
    sqrt_pi = np.sqrt(pi)
    entries = heff.tocoo()
    row, col = entries.row, entries.col
    # grouped as the dense I - scale * (H / sqrt_pi) * sqrt_pi, whose
    # entries the tests compare bit for bit
    data = (row == col) - scale * (entries.data / sqrt_pi[row]) * sqrt_pi[col]
    negative = data.min()
    if negative < -STOCHASTIC_TOL:
        raise NegativeEntry(f"transition entry {negative:.3e} below zero")
    np.clip(data, 0.0, None, out=data)
    matrix = sp.csr_array((data, (row, col)), shape=heff.shape)
    result = TransitionMatrix(basis=basis, heff=heff, matrix=matrix, stationary=pi)
    result.validate()
    return result


# ---------------------------------------------------------------------------
# Fractional matching between consecutive levels
# ---------------------------------------------------------------------------

# an uncolored Dyck shape: a one-color walk, ups 1 and downs 2
Shape = tuple[int, ...]


def _shape_of(walk: tuple[int, ...], s: int) -> Shape:
    """The uncolored shape of a colored Dyck walk."""
    return tuple(2 if digit > s else 1 for digit in walk)


def _last_return(shape: Shape) -> int:
    """Start of the final arch: the last prefix of height zero."""
    h = 0
    last = 0
    for i, letter in enumerate(shape[:-1]):
        h += 1 if letter == 1 else -1
        if h == 0:
            last = i + 1
    return last


@lru_cache(maxsize=None)
def block_split_weights(m: int) -> tuple[Fraction, ...]:
    """Weights ``u_a`` steering the level ``m`` matching between sub-blocks.

    A path of length ``2m`` splits at its last return to height zero into a
    prefix block of half length ``a`` and a final arch enclosing a block of
    half length ``m - 1 - a``.  Sending fraction ``u_a`` of the path's unit
    of matching mass into the prefix block (and the rest into the enclosed
    block) makes every level ``m-1`` path receive the same total mass
    ``C_m / C_{m-1}``.  The recurrence below is exactly that equal-mass
    condition; ``u_0 = 0`` and ``u_{m-1} = 1`` come out automatically, so
    the one-sided splits never put weight on a missing block.
    """
    if m < 1:
        raise InvalidSpec("levels start at 1")
    ratio = lambda k: Fraction(catalan_number(k), catalan_number(k - 1))
    target = ratio(m)
    u = [Fraction(0)]
    for a in range(m - 1):
        nxt = (target - (1 - u[a]) * ratio(m - 1 - a)) / ratio(a + 1)
        u.append(nxt)
    if u[-1] != 1 or any(w < 0 or w > 1 for w in u):
        raise MatchingInfeasible(f"block weights for level {m} left [0,1]: {u}")
    return tuple(u)


@lru_cache(maxsize=None)
def fractional_peak_weights(shape: Shape) -> tuple[tuple[int, Fraction], ...]:
    """Fractional matching mass each peak of ``shape`` sends one level down.

    The weights are positive, sum to one, and distribute over peaks by the
    recursive block split of :func:`block_split_weights`; the peak of the
    final arch itself carries mass only in the base case of a lone arch.
    """
    m = len(shape) // 2
    if m == 0:
        raise InvalidSpec("the empty path has no matching")
    if m == 1:
        return ((0, Fraction(1)),)
    split = _last_return(shape)
    prefix = shape[:split]
    inner = shape[split + 1 : -1]
    a = len(prefix) // 2
    u = block_split_weights(m)[a]
    out: list[tuple[int, Fraction]] = []
    if prefix and u:
        out.extend((i, u * w) for i, w in fractional_peak_weights(prefix))
    if inner and u != 1:
        offset = split + 1
        out.extend((offset + i, (1 - u) * w) for i, w in fractional_peak_weights(inner))
    return tuple(out)


def _uncolored_level(m: int) -> list[Shape]:
    return list(enumerate_walks(2 * m, 1, "dyck"))


def fractional_matching_level(m: int) -> dict[Shape, dict[Shape, Fraction]]:
    """Aggregated peak mass from each level ``m`` shape to its sub-shapes.

    Validates the two defining properties exactly in rational arithmetic:
    every row sums to one and every level ``m-1`` shape receives the same
    column total ``C_m / C_{m-1}``.
    """
    if m < 1:
        raise InvalidSpec("levels start at 1")
    rows: dict[Shape, dict[Shape, Fraction]] = {}
    column_totals: dict[Shape, Fraction] = {}
    for shape in _uncolored_level(m):
        row: dict[Shape, Fraction] = {}
        for i, weight in fractional_peak_weights(shape):
            parent = shape[:i] + shape[i + 2 :]
            row[parent] = row.get(parent, Fraction(0)) + weight
            column_totals[parent] = column_totals.get(parent, Fraction(0)) + weight
        if sum(row.values()) != 1:
            raise MatchingInfeasible(f"row mass of {shape} is not one")
        rows[shape] = row
    expected = Fraction(catalan_number(m), catalan_number(m - 1))
    parents = _uncolored_level(m - 1)
    if any(column_totals.get(p, Fraction(0)) != expected for p in parents):
        raise MatchingInfeasible(f"column totals at level {m} are unequal")
    return rows


@lru_cache(maxsize=None)
def rounded_matching_level(m: int) -> dict[Shape, tuple[Shape, int]]:
    """Integral parent choice per level ``m`` shape, rounded from the matching.

    Solves a min-cost flow that gives every shape exactly one parent while
    keeping each parent's child count between the floor and ceiling of the
    fractional column total ``C_m / C_{m-1}``; costs prefer heavy fractional
    mass.  Returns, per shape, its parent and the lowest peak index whose
    removal realizes it.
    """
    # imported here, its only use, so that importing the module stays cheap
    import networkx as nx

    rows = fractional_matching_level(m)
    shapes = list(rows)
    parents = _uncolored_level(m - 1)
    ratio = Fraction(catalan_number(m), catalan_number(m - 1))
    lo = ratio.numerator // ratio.denominator
    hi = lo if ratio == lo else lo + 1
    graph = nx.DiGraph()
    graph.add_node("source", demand=-len(shapes))
    graph.add_node("sink", demand=len(shapes) - lo * len(parents))
    for j, parent in enumerate(parents):
        graph.add_node(("col", j), demand=lo)
        graph.add_edge(("col", j), "sink", capacity=hi - lo, weight=0)
    parent_pos = {p: j for j, p in enumerate(parents)}
    for i, shape in enumerate(shapes):
        graph.add_node(("row", i))
        graph.add_edge("source", ("row", i), capacity=1, weight=0)
        for parent, mass in rows[shape].items():
            cost = -round(10**6 * mass)
            graph.add_edge(
                ("row", i), ("col", parent_pos[parent]), capacity=1, weight=cost
            )
    try:
        flow = nx.min_cost_flow(graph)
    except nx.NetworkXUnfeasible as exc:
        raise MatchingInfeasible(f"level {m} rounding has no integral point") from exc
    out: dict[Shape, tuple[Shape, int]] = {}
    for i, shape in enumerate(shapes):
        chosen = [j for j, units in flow[("row", i)].items() if units]
        if len(chosen) != 1:
            raise MatchingInfeasible(f"shape {shape} left unassigned")
        parent = parents[chosen[0][1]]
        peak = next(
            i_ for i_ in peak_positions(shape, 1) if shape[:i_] + shape[i_ + 2 :] == parent
        )
        out[shape] = (parent, peak)
    return out


# ---------------------------------------------------------------------------
# Canonical tree and routing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalTree:
    """Peak-removal ancestry over every colored Dyck path of length <= 2n.

    ``parent[i]`` is the basis index of the path one peak shorter (or -1 at
    the root) and ``parent_peak[i]`` the step index of the removed peak.
    Colors extend the uncolored assignment uniformly, so every node's child
    count is ``s`` times its shape's uncolored child count, which the
    rounding keeps within ``[1, 4]``.
    """

    basis: DyckBasis
    parent: np.ndarray
    parent_peak: np.ndarray

    def ancestors(self, i: int) -> list[int]:
        """Indices from ``i`` down to the root, inclusive."""
        chain = [i]
        while self.parent[chain[-1]] >= 0:
            chain.append(int(self.parent[chain[-1]]))
        return chain


def build_canonical_tree(n: int, s: int) -> CanonicalTree:
    """The tree over ``dyck_basis(n, s)``, the basis the transition uses.

    Checks the pair guard first, from the basis size, so that an oversize
    tree never starts its min-cost-flow rounding.
    """
    size = basis_size(n, s)
    if size**2 > PAIR_GUARD:
        raise SizeExceeded(f"{size}**2 ordered pairs exceed the guard {PAIR_GUARD:.0e}")
    basis = dyck_basis(n, s)
    parent = np.full(basis.size, -1, dtype=np.int64)
    parent_peak = np.full(basis.size, -1, dtype=np.int64)
    for m in range(1, n + 1):
        assignment = rounded_matching_level(m)
        for i in range(*basis.level_slice(m).indices(basis.size)):
            walk = basis.paths[i]
            _, peak = assignment[_shape_of(walk, s)]
            parent[i] = basis.index[remove_peak(walk, peak, s)]
            parent_peak[i] = peak
    return CanonicalTree(basis=basis, parent=parent, parent_peak=parent_peak)


def _turns(p: int, q: int) -> list[bool]:
    """Route steps from level ``p`` to level ``q``: ``True`` cuts the start remnant's
    designated peak, ``False`` inserts the goal prefix's next peak.  The deeper endpoint
    moves first (the start on a tie); once one chain is used up the other finishes alone."""
    if p >= q:
        return [True, False] * q + [True] * (p - q)
    return [False, True] * p + [False] * (q - p)


def canonical_path_with_moves(
    tree: CanonicalTree, start: int, goal: int
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Route between two basis paths through tree ancestry, with per-edge
    bookkeeping.

    Every state is an ancestor of the start followed by an ancestor of the
    goal.  The route merges the two ancestor chains in the order of
    :func:`_turns`.  Consecutive states differ by exactly one peak and the
    route has ``level(start) + level(goal)`` edges.  Each move is
    ``(a, b, peak)`` for the transition from state ``a`` to state ``b``,
    where ``peak`` is the step index of the changed peak inside the longer
    of the two states.
    """
    basis = tree.basis
    if not 0 <= start < basis.size or not 0 <= goal < basis.size:
        raise InvalidSpec("endpoints must be basis indices")
    if start == goal:
        return [start], []
    shrink = tree.ancestors(start)
    grow = tree.ancestors(goal)[::-1]
    cut = added = 0
    states = [start]
    moves: list[tuple[int, int, int]] = []
    for do_shrink in _turns(len(shrink) - 1, len(grow) - 1):
        if do_shrink:
            peak = int(tree.parent_peak[shrink[cut]])
            cut += 1
        else:
            added += 1
            peak = len(basis.paths[shrink[cut]]) + int(tree.parent_peak[grow[added]])
        state = basis.index[basis.paths[shrink[cut]] + basis.paths[grow[added]]]
        moves.append((states[-1], state, peak))
        states.append(state)
    return states, moves


@dataclass
class EdgeLoadResult:
    """Canonical-path congestion certificate for the Dyck walk.

    ``max_edge`` is the move ``(a, b, peak)`` of the way with the largest
    load ``rho``; ties go to the smallest (longer state, peak, cut) key.
    """

    dim: int
    rho: float
    max_edge: tuple[int, int, int]
    path_length_max: int
    gap_bound: float
    lambda2: float
    gap_true: float

    def certified(self) -> bool:
        return self.gap_bound <= self.gap_true + 1e-12


def _way_counts(tree: CanonicalTree) -> tuple[np.ndarray, np.ndarray]:
    """Moves ``(a, b, peak)`` of every way, by (longer state, peak, cut) key,
    and ``counts[w, p, q]``: the ordered pairs ``x != y`` at levels ``(p, q)``
    routed through way ``w``.  After ``c`` cuts and ``a`` adds a route is at
    ``X+Y``, ``X`` the ancestor of ``x`` at level ``p - c`` and ``Y`` that of
    ``y`` at level ``a``; the pairs below a split ``(X, Y)`` that cut ``X``'s
    peak or add ``Y``'s are those whose :func:`_turns` does so there.
    """
    basis = tree.basis
    n, size, level, offsets = basis.n, basis.size, basis.level_of, basis.level_offsets
    # anc[i, k]: the k-th ancestor of path i, or the root (index 0) once k passes its level
    anc = np.array([(tree.ancestors(i) + [0] * n)[: n + 1] for i in range(size)])
    below = np.zeros((size, n + 1), dtype=np.int64)  # [i, p]: descendants of i at level p
    np.add.at(below, (anc, level[:, None]), np.arange(n + 1) <= level[:, None])
    # taken[cut, lx, ly, p, q]: a route from level p to q cuts X's peak out of X+Y
    # (cut 1) or adds Y's into it (cut 0), for X and Y at levels lx and ly
    taken = np.zeros((2,) + (n + 1,) * 4, dtype=bool)
    for p, q in np.ndindex(n + 1, n + 1):
        cut = np.array(_turns(p, q), dtype=np.int64)  # lx: p less the cuts before a step
        taken[cut, p - cut.cumsum() + cut, (1 - cut).cumsum(), p, q] = True  # ly: adds after it
    # the splits X+Y of every state, by ascending key X * size + Y
    split_pairs = [(i, j) for i in range(size) for j in range(offsets[n - level[i] + 1])]
    x, y = np.array(split_pairs).T
    joined = np.array([basis.index[basis.paths[i] + basis.paths[j]] for i, j in split_pairs])
    lx, ly = level[x], level[y]
    # pairs[i, p, q]: ordered pairs x, y below split i at levels (p, q), less x = y if X, Y nest
    pairs = below[x][:, :, None] * below[y][:, None, :]
    deeper = np.where(lx >= ly, x, y)
    nested = anc[deeper, np.abs(lx - ly)] == np.where(lx >= ly, y, x)
    pairs[:, range(n + 1), range(n + 1)] -= nested[:, None] * below[deeper]
    # one row per way of a split: the cut of X's peak (flag 1), the add of Y's (flag 0)
    rows = np.concatenate([np.flatnonzero(lx > 0), np.flatnonzero(ly > 0)])
    flag = np.repeat([1, 0], [np.count_nonzero(lx > 0), np.count_nonzero(ly > 0)])
    xr, yr, longer = x[rows], y[rows], joined[rows]
    parent_split = np.where(flag, anc[xr, 1] * size + yr, xr * size + anc[yr, 1])
    shorter = joined[np.searchsorted(x * size + y, parent_split)]
    peak = np.where(flag, tree.parent_peak[xr], 2 * lx[rows] + tree.parent_peak[yr])
    moves = np.stack([np.where(flag, longer, shorter), np.where(flag, shorter, longer), peak], 1)
    key = (longer * 2 * n + peak) * 2 + flag  # 2n bounds every peak index
    order = np.argsort(key)
    rows, flag = rows[order], flag[order]
    count = pairs[rows]
    count *= taken[flag, lx[rows], ly[rows]]
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    return moves[order[first]], np.add.reduceat(count, first, axis=0)


def edge_load(tree: CanonicalTree, transition: TransitionMatrix) -> EdgeLoadResult:
    """Exact maximum edge load over all ordered endpoint pairs.

    Each directed transition between paths related by one peak may be
    realized by several distinct peaks; routing tracks which peak a path
    uses, and every such parallel way carries an equal share of the
    aggregate transition probability.  The load of a way divided by its
    probability flow bounds the relaxation: ``1 - lambda_2 >= 1/(rho L)``.

    The weight is constant on levels, so a way's load is ``sum N_pq
    fl(pi_p pi_q)`` over the route counts of :func:`_way_counts`.  One route
    per level pair is checked against :func:`canonical_path_with_moves` for
    true peak surgery and a counted way (:class:`RouteMismatch` otherwise).
    Float sums put every load within ``(n+1)**2 + 2`` ulps; the ways within
    1e-9 relative of the largest are summed exactly, rounded once and
    divided by their flow ``pi[a] * (P[a, b] / ways)``.  Ties go to the
    smallest (longer state, peak, cut) key.
    """
    basis = tree.basis
    if transition.basis is not basis:
        raise InvalidSpec("tree and transition use different bases")
    n, level, offsets = basis.n, basis.level_of, basis.level_offsets
    moves, counts = _way_counts(tree)
    counted = dict(zip(map(tuple, moves.tolist()), counts))
    for p, q in np.ndindex(n + 1, n + 1):
        start, goal = offsets[p], offsets[q] + (p == q)
        if goal == offsets[q + 1]:
            continue  # a level of one path has no pair of its own
        for a, b, peak in canonical_path_with_moves(tree, start, goal)[1]:
            # the basis is ordered by length, so the longer path of a move has the larger index
            walk = basis.paths[max(a, b)]
            rest = walk[:peak] + walk[peak + 2 :]
            surgery = peak in peak_positions(walk, basis.s) and rest == basis.paths[min(a, b)]
            if not surgery or (a, b, peak) not in counted or counted[a, b, peak][p, q] < 1:
                raise RouteMismatch(f"move {(a, b, peak)} is no counted peak removal")

    pi = transition.stationary
    weight = np.outer(pi[list(offsets[:-1])], pi[list(offsets[:-1])]).ravel()
    a, b, peak = moves.T
    ways = np.asarray(basis.removals[np.minimum(a, b), np.maximum(a, b)]).ravel()
    flow = pi[a] * (transition.matrix[a, b] / ways)
    estimate = counts.reshape(len(moves), -1) @ weight / flow
    terms = [Fraction(w) for w in weight.tolist()]
    near = np.flatnonzero(estimate >= estimate.max() * (1 - 1e-9)).tolist()
    exact = [float(sum(map(mul, counts[w].ravel().tolist(), terms))) / flow[w] for w in near]
    best = near[int(np.argmax(exact))]
    rho = float(max(exact))
    longest = int(level[-2] + level[-1])
    lambda2 = transition.second_eigenvalue()
    gap_true = 1.0 - lambda2
    gap_bound = 1.0 / (rho * longest) if rho > 0 and longest else math.inf
    return EdgeLoadResult(
        dim=basis.size,
        rho=rho,
        max_edge=(int(a[best]), int(b[best]), int(peak[best])),
        path_length_max=longest,
        gap_bound=gap_bound,
        lambda2=lambda2,
        gap_true=gap_true,
    )


def level_fraction(two_n: int, s: int, w: int) -> float:
    """Share of colored Motzkin strings whose letters form a level ``w`` path."""
    return (
        s**w
        * catalan_number(w)
        * binomial(two_n, 2 * w)
        / motzkin_number(two_n, s)
    )


def level_weight_ratio(w: int) -> float:
    """How closely ``(4s)^w`` times a path's stationary weight tracks the level share.

    A single level ``w`` path has stationary weight ``binom(2n,2w)/M_{2n,s}``
    and the whole level holds ``s^w C_w`` such paths, so the ratio

        (4s)^w (path weight) / (sqrt(pi) w^{3/2} level share)

    equals ``4^w / (C_w sqrt(pi) w^{3/2})`` independently of the chain length
    and tends to one as the Catalan asymptotic takes hold.
    """
    if w < 1:
        raise InvalidSpec("need w >= 1")
    return 4.0**w / (catalan_number(w) * math.sqrt(math.pi) * w**1.5)


# ---------------------------------------------------------------------------
# Hopping chain of one unmatched letter
# ---------------------------------------------------------------------------


@dataclass
class UnbalancedChain:
    """Position-space chain felt by a single surplus letter.

    ``matrix`` is the full operator including the left-edge penalty;
    ``hopping`` is the penalty-free sum of rank-one hopping terms, which
    annihilates ``ground``.  ``alpha_sq[j]`` and ``beta_sq[j]`` are the
    walk rates up and down off site ``j+1`` (0-based storage of 1-based
    sites).
    """

    two_n: int
    s: int
    matrix: sp.csr_matrix
    hopping: sp.csr_matrix
    ground: np.ndarray
    alpha_sq: np.ndarray
    beta_sq: np.ndarray
    lambda1: float


def build_unbalanced_chain(two_n: int, s: int) -> UnbalancedChain:
    """Assemble the surplus-letter chain from one row of Motzkin-number ratios.

    Site ``j`` hops to ``j+1`` with squared amplitude ``1/(2s r_{2n-j})`` and back with
    ``1/(2s r_j)``; ``r_k = M_k/M_{k-1}`` runs forward, stably, from ``r_1 = 1`` through
    ``(k+2) M_k = (2k+1) M_{k-1} + 3(k-1) M_{k-2}``.  The pairs' rank-one terms annihilate
    ``psi_j = sqrt(M_{j-1} M_{2n-j})``, built in logs from ``sqrt(r_j/r_{2n-j})``; the
    ``|1><1|`` penalty lifts it to ``lambda1``.  With ``c_k = alpha_k psi_k**2`` and ``R(m) =
    1/psi_0**2 + sum_{k<m} 1/c_k``, ``matrix``'s inverse is ``psi_i psi_j R(min(i, j))``: each
    entry a positive sum good to about ``(2n+4) u`` relative, applied by two cumulative sums.
    Power iteration from ``psi`` closes its Collatz-Wielandt bracket on ``1/lambda1`` to 16
    epsilons relative; ``lambda1`` is its midpoint.  Rates exceed ``1/(6s)``; s past 1.1e153,
    where two neighbors' product could leave the normal floats, is refused.
    """
    if two_n < 2 or two_n % 2:
        raise InvalidSpec("two_n must be even and >= 2")
    if s < 1:
        raise InvalidSpec("need s >= 1")
    if s > 1.0 / (6.0 * math.sqrt(sys.float_info.min)):
        raise InvalidSpec("color count s exceeds the float range of the rate products")
    if two_n > CHAIN_GUARD:
        raise SizeExceeded(f"two_n={two_n} exceeds the surplus-chain guard {CHAIN_GUARD}")
    ratio = np.ones(two_n)  # ratio[k] = M_k / M_{k-1} for k >= 1
    for k in range(2, two_n):
        ratio[k] = ((2 * k + 1) + 3 * (k - 1) / ratio[k - 1]) / (k + 2)
    alpha_sq = 1.0 / (2.0 * s * ratio[:0:-1])
    beta_sq = 1.0 / (2.0 * s * ratio[1:])
    log_ground = np.cumsum(np.append(0.0, 0.5 * np.log(ratio[1:] / ratio[:0:-1])))
    ground = np.exp(log_ground - log_ground.max())
    ground /= np.linalg.norm(ground)
    off = -np.sqrt(alpha_sq * beta_sq)
    diag = np.append(alpha_sq, 0.0) + np.append(0.0, beta_sq)
    hopping = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    matrix = hopping + sp.csr_matrix(([1.0], ([0], [0])), shape=hopping.shape)
    steps = 1.0 / np.append(ground[0] ** 2, alpha_sq * ground[:-1] ** 2)  # R(m) - R(m-1)
    x = ground
    for _ in range(100):
        image = ground * np.cumsum(steps * np.cumsum((ground * x)[::-1])[::-1])
        quotient = image / x
        lo, hi = quotient.min(), quotient.max()
        if hi - lo <= 16 * sys.float_info.epsilon * hi:
            break
        x = image / hi
    else:
        raise NoConvergence(f"1/lambda1 bracket [{lo:.17g}, {hi:.17g}] still open", hi - lo)
    return UnbalancedChain(
        two_n=two_n, s=s, matrix=matrix, hopping=hopping, ground=ground, alpha_sq=alpha_sq,
        beta_sq=beta_sq, lambda1=float(0.5 / lo + 0.5 / hi),
    )
