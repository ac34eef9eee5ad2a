"""Dyck-path random walk tests.

Structural claims (stochasticity, reversibility, matching feasibility,
tree shape, routing validity) are checked exactly or to 1e-12.  Spectral
quantities are compared against dense diagonalization, the congestion
certificate's route counts exactly and its load bit for bit against a
pair-by-pair edge load, and its load at frozen reference sizes.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import motzkinchain
from conftest import exact_surplus_chain, traced_peak
from motzkinchain import markov
from motzkinchain.errors import InvalidSpec, RouteMismatch, SizeExceeded
from motzkinchain.hamiltonian import ChainSpec, build_hamiltonian, walk_to_index
from motzkinchain.markov import (
    block_split_weights,
    build_canonical_tree,
    build_heff,
    build_transition,
    build_unbalanced_chain,
    basis_size,
    canonical_path_with_moves,
    dyck_basis,
    edge_load,
    fractional_matching_level,
    ground_weights,
    level_fraction,
    level_weight_ratio,
    peak_positions,
    remove_peak,
    rounded_matching_level,
)
from motzkinchain.errors import MatchingInfeasible
from motzkinchain.walks import catalan_number, motzkin_number


# ---------------------------------------------------------------------------
# Oracles: path surgery, the chain embedding, the peak-removal relation and
# routes rebuilt path by path
# ---------------------------------------------------------------------------


def insert_peak(walk, i, color, s):
    """Insert an up/down pair of the given color before position ``i``."""
    if i < 0 or i > len(walk):
        raise InvalidSpec(f"insertion point {i} outside walk")
    return walk[:i] + (color, s + color) + walk[i:]


def embed_uniform(path, two_n):
    """Uniform superposition over all flat-step insertions of a Dyck path.

    Returns the amplitude of every length ``two_n`` string whose letter
    subsequence equals ``path``; each carries ``1/sqrt(binom(2n, 2m))``.
    The images of distinct paths use disjoint strings, so the embedding
    is an isometry.
    """
    two_m = len(path)
    if two_m > two_n:
        raise InvalidSpec(f"path of length {two_m} does not fit in {two_n} sites")
    if 0 in path:
        raise InvalidSpec("only flat-free paths can be embedded")
    amplitude = 1.0 / math.sqrt(math.comb(two_n, two_m))
    out = {}
    for positions in combinations(range(two_n), two_m):
        steps = [0] * two_n
        for letter, pos in zip(path, positions):
            steps[pos] = letter
        out[tuple(steps)] = amplitude
    return out


def heff_kernel_vector(basis):
    """The unit vector with amplitude ``sqrt(binom(2n,2m)/M_{2n,s})`` per path."""
    return np.sqrt(ground_weights(basis))


def dense_transition(two_n, s):
    """The walk built as a dense array, entry by entry as the sparse one."""
    basis, heff = build_heff(two_n, s)
    pi = ground_weights(basis)
    scale = 1.0 / (s * (two_n - 1))
    sqrt_pi = np.sqrt(pi)
    matrix = np.eye(basis.size) - scale * (heff.toarray() / sqrt_pi[:, None]) * sqrt_pi[None, :]
    np.clip(matrix, 0.0, None, out=matrix)
    return matrix


def dense_second_eigenvalue(transition):
    """Second largest real part among all eigenvalues of the dense walk."""
    return float(np.sort(np.linalg.eigvals(transition.matrix.toarray()).real)[-2])


def canonical_path(tree, start, goal):
    """The states of the canonical route, without the move bookkeeping."""
    states, _ = canonical_path_with_moves(tree, start, goal)
    return states


def peak_removal_oracle(basis):
    """How many distinct peak removals connect each (shorter, longer) pair."""
    table = {}
    for t_idx, walk in enumerate(basis.paths):
        for i in peak_positions(walk, basis.s):
            u_idx = basis.index[walk[:i] + walk[i + 2 :]]
            key = (u_idx, t_idx)
            table[key] = table.get(key, 0) + 1
    return table


def route_oracle(tree, start, goal):
    """The canonical route walked state by state on the path strings.

    Alternates between cutting the designated peak of the shrinking start
    remnant and inserting the next peak of the growing goal prefix, the
    longer endpoint first, and looks every state up by its string.
    """
    basis = tree.basis
    if start == goal:
        return [start], []
    shrink_chain = [basis.paths[j] for j in tree.ancestors(start)]
    grow_ancestry = tree.ancestors(goal)[::-1]
    grow_chain = [basis.paths[j] for j in grow_ancestry]
    grow_peaks = [int(tree.parent_peak[j]) for j in grow_ancestry]
    remnant = shrink_chain[0]
    shrink_pos = grow_pos = 0
    prefix = grow_chain[0]
    states = [start]
    moves = []
    turn_shrink = basis.level_of[start] >= basis.level_of[goal]
    while shrink_pos < len(shrink_chain) - 1 or grow_pos < len(grow_chain) - 1:
        can_shrink = shrink_pos < len(shrink_chain) - 1
        can_grow = grow_pos < len(grow_chain) - 1
        do_shrink = can_shrink if turn_shrink else not can_grow
        a_idx = states[-1]
        if do_shrink:
            longer_peak = int(tree.parent_peak[basis.index[remnant]])
            shrink_pos += 1
            remnant = shrink_chain[shrink_pos]
        else:
            grow_pos += 1
            prefix = grow_chain[grow_pos]
            longer_peak = len(remnant) + grow_peaks[grow_pos]
        b_idx = basis.index[remnant + prefix]
        states.append(b_idx)
        moves.append((a_idx, b_idx, longer_peak))
        turn_shrink = not turn_shrink
    return states, moves


def edge_load_oracle(tree, transition):
    """The edge load routed one ordered pair at a time.

    Counts, per way ``(a, b, peak)``, the pairs at each level pair whose
    route takes it, then sums every way's load exactly, rounds it once and
    divides it by the way's flow; ties for the largest value go to the
    smallest (longer state, peak, cut) key.  Returns the counts and
    ``(rho, max_edge, path_length_max, gap_bound)``.
    """
    basis = tree.basis
    n, level = basis.n, basis.level_of
    counts = {}
    longest = 0
    for x in range(basis.size):
        for y in range(basis.size):
            if x == y:
                continue
            _, moves = canonical_path_with_moves(tree, x, y)
            longest = max(longest, len(moves))
            for move in moves:
                counts.setdefault(move, np.zeros((n + 1, n + 1), dtype=np.int64))
                counts[move][level[x], level[y]] += 1
    pi = transition.stationary
    per_level = pi[list(basis.level_offsets[:-1])]
    weight = {
        (p, q): Fraction(float(per_level[p] * per_level[q]))
        for p in range(n + 1)
        for q in range(n + 1)
    }
    values = {}
    for (a, b, peak), count in counts.items():
        ways = basis.removals[min(a, b), max(a, b)]
        flow = pi[a] * (transition.matrix[a, b] / ways)
        load = sum(int(count[p, q]) * w for (p, q), w in weight.items())
        values[(max(a, b), peak, int(a > b))] = (float(load) / flow, (a, b, peak))
    rho = max(value for value, _ in values.values())
    best = min(key for key, (value, _) in values.items() if value == rho)
    return counts, (rho, values[best][1], longest, 1.0 / (rho * longest))


# ---------------------------------------------------------------------------
# Basis
# ---------------------------------------------------------------------------


def test_basis_size_is_colored_catalan_sum():
    for n in range(6):
        for s in (1, 2, 3):
            expected = sum(s**m * catalan_number(m) for m in range(n + 1))
            assert basis_size(n, s) == expected


def test_dyck_basis_layout():
    basis = dyck_basis(3, 2)
    assert basis.size == 1 + 2 + 8 + 40
    assert basis.paths[0] == ()
    for m in range(4):
        sl = basis.level_slice(m)
        assert all(len(p) == 2 * m for p in basis.paths[sl])
        assert all(int(basis.level_of[i]) == m for i in range(*sl.indices(basis.size)))
    for i, p in enumerate(basis.paths):
        assert basis.index[p] == i
        assert basis.peak_count[i] == len(peak_positions(p, 2))


@pytest.mark.parametrize(("n", "s"), [(0, 1), (1, 2), (3, 1), (3, 2), (3, 3), (5, 1)])
def test_removals_match_peak_removal_oracle(n, s):
    basis = dyck_basis(n, s)
    removals = basis.removals
    assert removals.shape == (basis.size, basis.size)
    assert np.issubdtype(removals.dtype, np.integer)
    got = {key: int(count) for key, count in removals.todok().items()}
    assert got == peak_removal_oracle(basis)
    np.testing.assert_array_equal(basis.peak_count, np.asarray(removals.sum(axis=0)).ravel())


def test_dyck_basis_is_built_once_and_read_only():
    basis = dyck_basis(3, 2)
    assert dyck_basis(3, 2) is basis
    assert build_transition(6, 2).basis is build_canonical_tree(3, 2).basis is basis
    assert build_heff(6, 2)[0] is basis
    for array in (basis.level_of, basis.peak_count, basis.removals.data):
        with pytest.raises(ValueError):
            array[0] = 7


def test_dyck_basis_guard_and_validation():
    with pytest.raises(InvalidSpec):
        dyck_basis(2, 0)
    with pytest.raises(SizeExceeded):
        dyck_basis(12, 2)


def test_peak_surgery_round_trip():
    walk = (1, 1, 2, 2, 1, 2)  # u1 u1 d1 d1 u1 d1
    peaks = peak_positions(walk, 1)
    assert peaks == [1, 4]
    for i in peaks:
        shorter = remove_peak(walk, i, 1)
        assert len(shorter) == 4
        assert insert_peak(shorter, i, 1, 1) == walk
    with pytest.raises(InvalidSpec):
        remove_peak(walk, 0, 1)
    with pytest.raises(InvalidSpec):
        insert_peak(walk, 99, 1, 1)


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def test_embed_empty_path_is_flat_string():
    image = embed_uniform((), 2)
    assert image == {(0, 0): 1.0}


def test_embed_single_arch_spreads_uniformly():
    image = embed_uniform((1, 2), 4)
    assert len(image) == 6
    for walk, amp in image.items():
        assert amp == pytest.approx(1.0 / math.sqrt(6.0))
        letters = [letter for letter in walk if letter != 0]
        assert letters == [1, 2]


def test_embedding_is_an_isometry():
    basis = dyck_basis(3, 2)
    images = [embed_uniform(p, 6) for p in basis.paths]
    for i, a in enumerate(images):
        for j, b in enumerate(images):
            overlap = sum(amp * b.get(w, 0.0) for w, amp in a.items())
            assert overlap == pytest.approx(float(i == j), abs=1e-13)


# ---------------------------------------------------------------------------
# Projected operator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("two_n", "s"), [(4, 1), (4, 2)])
def test_projected_operator_matches_explicit_projection(two_n, s):
    """Entrywise check of the closed-form entries against V.T @ H @ V."""
    basis, heff = build_heff(two_n, s)
    spec = ChainSpec(two_n=two_n, s=s, boundary="motzkin")
    H = build_hamiltonian(spec).matrix
    V = np.zeros((spec.dim, basis.size))
    for col, path in enumerate(basis.paths):
        for walk, amp in embed_uniform(path, two_n).items():
            V[walk_to_index(walk, s), col] = amp
    projected = V.T @ (H @ V)
    np.testing.assert_allclose(heff.toarray(), projected, atol=1e-12)


@pytest.mark.parametrize(("two_n", "s"), [(6, 1), (6, 2)])
def test_projected_operator_kernel_and_diagonal_cap(two_n, s):
    basis, heff = build_heff(two_n, s)
    kernel = heff_kernel_vector(basis)
    assert np.abs(heff @ kernel).max() < 1e-12
    diag = heff.diagonal()
    assert diag.max() <= (two_n - 1) * s / 2 + 1e-12
    values = np.linalg.eigvalsh(heff.toarray())
    assert abs(values[0]) < 1e-12
    assert values[1] > 0


def test_projected_operator_validation():
    with pytest.raises(InvalidSpec):
        build_heff(5, 1)
    with pytest.raises(SizeExceeded):
        build_heff(40, 3)


def test_ground_weights_are_level_binomials():
    basis = dyck_basis(3, 1)
    weights = ground_weights(basis)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    total = motzkin_number(6, 1)
    for i in range(basis.size):
        m = int(basis.level_of[i])
        assert weights[i] == pytest.approx(math.comb(6, 2 * m) / total, rel=1e-14)


# ---------------------------------------------------------------------------
# Transition matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("two_n", "s"), [(4, 1), (6, 1), (6, 2), (8, 2)])
def test_transition_is_stochastic_and_reversible(two_n, s):
    t = build_transition(two_n, s)
    t.validate()
    assert t.matrix.min() >= 0.0
    np.testing.assert_allclose(t.matrix.sum(axis=1), 1.0, atol=1e-12)
    flow = t.stationary[:, None] * t.matrix
    assert np.abs(flow - flow.T).max() < 1e-12
    np.testing.assert_allclose(t.stationary, ground_weights(t.basis), atol=1e-15)


@pytest.mark.parametrize(("two_n", "s"), [(4, 1), (6, 1), (8, 1), (6, 2), (8, 2)])
def test_holding_probability_at_least_half(two_n, s):
    t = build_transition(two_n, s)
    assert t.matrix.diagonal().min() >= 0.5 - 1e-12


def test_offdiagonal_support_is_single_peak_surgery():
    t = build_transition(6, 2)
    basis = t.basis
    related = set()
    for i, walk in enumerate(basis.paths):
        for pk in peak_positions(walk, basis.s):
            j = basis.index[remove_peak(walk, pk, basis.s)]
            related.add((i, j))
            related.add((j, i))
    for a in range(basis.size):
        for b in range(basis.size):
            if a != b and t.matrix[a, b] != 0.0:
                assert (a, b) in related


@pytest.mark.parametrize("s", [1, 2])
def test_move_probability_floors(s):
    # every allowed peak insertion keeps probability at least 1/(16 n^3),
    # every removal at least 1/(8 n^2); frozen minima at this size are
    # 0.006667/0.033333 for one color and 0.003333/0.016667 for two
    two_n = 6
    n = 3
    t = build_transition(two_n, s)
    basis = t.basis
    insertions = []
    removals = []
    for a in range(basis.size):
        for b in range(basis.size):
            if a == b or t.matrix[a, b] == 0.0:
                continue
            if basis.level_of[b] == basis.level_of[a] + 1:
                insertions.append(t.matrix[a, b])
            else:
                removals.append(t.matrix[a, b])
    assert min(insertions) >= 1.0 / (16 * n**3)
    assert min(removals) >= 1.0 / (8 * n**2)


@pytest.mark.parametrize(("two_n", "s"), [(6, 1), (6, 2)])
def test_walk_gap_identity(two_n, s):
    # lambda_2 of the projected operator equals s(2n-1)(1 - lambda_2(P))
    _, heff = build_heff(two_n, s)
    values = np.linalg.eigvalsh(heff.toarray())
    t = build_transition(two_n, s)
    assert values[1] == pytest.approx(s * (two_n - 1) * (1.0 - t.second_eigenvalue()), abs=1e-10)


# one to four colors, 2 to 275 paths
TRANSITION_SIZES = [
    (2, 1), (4, 1), (6, 1), (8, 1), (10, 1), (12, 1), (4, 2), (6, 2), (8, 2), (6, 3), (4, 4)
]


@pytest.mark.parametrize(("two_n", "s"), TRANSITION_SIZES)
def test_sparse_transition_equals_dense_construction(two_n, s):
    t = build_transition(two_n, s)
    assert t.matrix.nnz == t.heff.nnz
    assert np.array_equal(t.matrix.toarray(), dense_transition(two_n, s))


# every size with at most 2,100 paths, for one to four colors
ORACLE_SIZES = [
    (two_n, s)
    for s in (1, 2, 3, 4)
    for two_n in range(2, 18, 2)
    if basis_size(two_n // 2, s) <= 2100
]


@pytest.mark.parametrize(("two_n", "s"), ORACLE_SIZES)
def test_second_eigenvalue_matches_dense_eigvals(two_n, s):
    t = build_transition(two_n, s)
    assert abs(t.second_eigenvalue() - dense_second_eigenvalue(t)) <= 1e-12


@pytest.mark.parametrize(
    ("two_n", "s", "reference"),
    [
        # lambda2 of the dense walk in 40-digit arithmetic, to 20 digits
        (6, 2, "0.98668690925687632156"),
        (10, 1, "0.97706571000687440077"),
        (4, 4, "0.98149931213317630541"),
        (8, 1, "0.96092241857756352095"),
    ],
)
def test_second_eigenvalue_matches_high_precision_reference(two_n, s, reference):
    error = Fraction(build_transition(two_n, s).second_eigenvalue()) - Fraction(reference)
    assert abs(error) <= 2.3e-16


# ---------------------------------------------------------------------------
# Fractional and rounded matchings
# ---------------------------------------------------------------------------


def test_block_split_weights_interpolate():
    assert block_split_weights(2) == (Fraction(0), Fraction(1))
    for m in (3, 4, 5):
        u = block_split_weights(m)
        assert len(u) == m
        assert u[0] == 0 and u[-1] == 1
        assert all(0 <= w <= 1 for w in u)
    with pytest.raises(InvalidSpec):
        block_split_weights(0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_fractional_matching_is_doubly_balanced(m):
    rows = fractional_matching_level(m)
    assert len(rows) == catalan_number(m)
    column: dict = {}
    for shape, row in rows.items():
        assert sum(row.values()) == 1
        for parent, mass in row.items():
            assert mass > 0
            assert len(parent) == len(shape) - 2
            column[parent] = column.get(parent, Fraction(0)) + mass
    expected = Fraction(catalan_number(m), catalan_number(m - 1))
    assert set(column.values()) == {expected}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_rounded_matching_respects_quotas(m):
    assignment = rounded_matching_level(m)
    assert len(assignment) == catalan_number(m)
    ratio = Fraction(catalan_number(m), catalan_number(m - 1))
    lo = ratio.numerator // ratio.denominator
    hi = lo if ratio == lo else lo + 1
    counts: dict = {}
    for shape, (parent, peak) in assignment.items():
        assert shape[:peak] + shape[peak + 2 :] == parent
        assert shape[peak] == 1 and shape[peak + 1] == 2
        counts[parent] = counts.get(parent, 0) + 1
    assert len(counts) == catalan_number(m - 1)
    assert all(lo <= c <= hi for c in counts.values())
    assert 1 <= lo and hi <= 4


# ---------------------------------------------------------------------------
# Canonical tree and routing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("n", "s"), [(3, 1), (4, 1), (3, 2), (4, 3)])
def test_canonical_tree_structure(n, s):
    tree = build_canonical_tree(n, s)
    basis = tree.basis
    assert tree.parent[0] == -1
    for i in range(1, basis.size):
        p = int(tree.parent[i])
        pk = int(tree.parent_peak[i])
        assert basis.paths[p] == remove_peak(basis.paths[i], pk, s)
    counts = np.bincount(tree.parent[1:], minlength=basis.size)
    assert counts[0] == s  # the root holds every single-arch path
    internal = basis.level_of < n
    assert counts[internal].min() >= s
    assert counts[internal].max() <= 4 * s
    assert (counts[~internal] == 0).all()


def test_canonical_path_endpoints_and_degenerate_case():
    tree = build_canonical_tree(3, 1)
    assert canonical_path(tree, 5, 5) == [5]
    route = canonical_path(tree, 1, 2)
    assert route[0] == 1 and route[-1] == 2
    with pytest.raises(InvalidSpec):
        canonical_path(tree, 0, 10**6)


def test_routes_move_one_peak_at_a_time():
    n, s = 4, 1
    tree = build_canonical_tree(n, s)
    basis = tree.basis
    for a in range(basis.size):
        for b in range(basis.size):
            states, moves = canonical_path_with_moves(tree, a, b)
            assert len(states) == len(moves) + 1
            assert len(moves) <= 2 * n
            assert len(moves) <= int(basis.level_of[a] + basis.level_of[b])
            for (x, y, peak), (sx, sy) in zip(moves, zip(states, states[1:])):
                assert (x, y) == (sx, sy)
                wx, wy = basis.paths[x], basis.paths[y]
                longer, shorter = (wx, wy) if len(wx) > len(wy) else (wy, wx)
                assert remove_peak(longer, peak, s) == shorter


@pytest.mark.parametrize(("n", "s"), [(3, 1), (4, 2), (3, 3), (5, 1)])
def test_routes_match_state_by_state_oracle(n, s):
    tree = build_canonical_tree(n, s)
    for a in range(tree.basis.size):
        for b in range(tree.basis.size):
            assert canonical_path_with_moves(tree, a, b) == route_oracle(tree, a, b)


def test_longer_endpoint_moves_first():
    tree = build_canonical_tree(4, 2)
    basis = tree.basis
    deep = [i for i in range(basis.size) if basis.level_of[i] == 4]
    start, goal = deep[0], deep[-1]
    states, moves = canonical_path_with_moves(tree, start, goal)
    assert len(moves) == 8
    levels = [int(basis.level_of[i]) for i in states]
    assert levels[1] == levels[0] - 1  # equal levels: the start shrinks first
    assert max(levels) == 4 and min(levels) >= 0


# ---------------------------------------------------------------------------
# Congestion certificate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("two_n", "s"), [(4, 1), (6, 1), (4, 2), (6, 2)])
def test_edge_load_certifies_the_gap(two_n, s):
    tree = build_canonical_tree(two_n // 2, s)
    t = build_transition(two_n, s)
    result = edge_load(tree, t)
    assert result.rho >= 1.0
    assert result.path_length_max <= two_n
    assert result.gap_bound == pytest.approx(
        1.0 / (result.rho * result.path_length_max), rel=1e-12
    )
    assert result.certified()
    assert result.gap_bound <= result.gap_true + 1e-12


# every size with at most 300 paths, for one to four colors
EDGE_LOAD_ORACLE_SIZES = [
    (two_n, s)
    for s in (1, 2, 3, 4)
    for two_n in range(2, 18, 2)
    if basis_size(two_n // 2, s) <= 300
]


@pytest.mark.parametrize(("two_n", "s"), EDGE_LOAD_ORACLE_SIZES)
def test_edge_load_equals_pair_by_pair_oracle(two_n, s):
    tree = build_canonical_tree(two_n // 2, s)
    t = build_transition(two_n, s)
    counts, expected = edge_load_oracle(tree, t)
    moves, got = markov._way_counts(tree)
    # ways come in (longer state, peak, cut) order
    key = lambda move: (max(move[:2]), move[2], move[0] > move[1])
    assert sorted(counts, key=key) == [tuple(move) for move in moves.tolist()]
    for move, count in zip(moves.tolist(), got):
        assert np.array_equal(count, counts[tuple(move)])
    result = edge_load(tree, t)
    assert (result.rho, result.max_edge, result.path_length_max, result.gap_bound) == expected


@pytest.mark.parametrize(
    ("two_n", "s"), [(two_n, 1) for two_n in range(2, 18, 2)] + [(8, 2), (6, 3)]
)
def test_way_counts_conserve_route_steps(two_n, s):
    # every ordered pair x != y at levels (p, q) takes p + q steps, and a
    # level holds c_p = s**p C_p paths
    n = two_n // 2
    _, counts = markov._way_counts(build_canonical_tree(n, s))
    size = [s**p * catalan_number(p) for p in range(n + 1)]
    expected = [
        [(p + q) * size[p] * (size[q] - (p == q)) for q in range(n + 1)] for p in range(n + 1)
    ]
    assert counts.sum(axis=0).tolist() == expected


def test_edge_load_at_fourteen_sites_keeps_the_routed_value():
    # 957.2852960675141 was the load summed route by route in float
    result = edge_load(build_canonical_tree(7, 1), build_transition(14, 1))
    assert result.rho == pytest.approx(957.2852960675141, rel=1e-13)
    assert result.certified() and result.path_length_max == 14


def test_edge_load_ties_go_to_the_smallest_key():
    # four colors tie many ways exactly; the smallest (longer state, peak,
    # cut) key among them is reported
    result = edge_load(build_canonical_tree(2, 4), build_transition(4, 4))
    assert result.max_edge == (6, 2, 0)
    assert result.rho == 90.94736842105262


def test_edge_load_route_check_fails_cleanly():
    tree = build_canonical_tree(3, 2)
    t = build_transition(6, 2)
    peaks = tree.parent_peak.copy()
    # the first deepest path starts a checked route; one step past its
    # designated peak is a down step, so no peak starts there
    peaks[tree.basis.level_offsets[3]] += 1
    with pytest.raises(RouteMismatch):
        edge_load(replace(tree, parent_peak=peaks), t)
    assert edge_load(tree, t).certified()


def test_edge_load_memory_peak():
    # the route counts of 792 ways over 5 x 5 level pairs; 1.8 MiB measured
    tree = build_canonical_tree(4, 2)
    t = build_transition(8, 2)
    edge_load(tree, t)
    tracemalloc.start()
    try:
        edge_load(tree, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_edge_load_frozen_reference():
    # frozen from a full run at two_n=8 with two colors
    tree = build_canonical_tree(4, 2)
    t = build_transition(8, 2)
    result = edge_load(tree, t)
    assert result.dim == 275
    assert result.path_length_max == 8
    assert result.rho == pytest.approx(486.26619071904986, rel=1e-9)
    assert result.gap_bound == pytest.approx(0.00025706084935734567, rel=1e-9)
    assert result.lambda2 == pytest.approx(0.9939812328763029, rel=1e-9)
    assert result.gap_true == pytest.approx(0.0060187671236970886, rel=1e-9)


def test_edge_load_rejects_mismatched_inputs():
    tree = build_canonical_tree(2, 1)
    t = build_transition(6, 1)
    with pytest.raises(InvalidSpec):
        edge_load(tree, t)


def test_edge_load_requires_the_shared_basis():
    # an equal copy of the basis is a different basis: the tree and the
    # transition must read one peak-removal relation
    t = build_transition(4, 1)
    tree = build_canonical_tree(2, 1)
    copy = replace(tree, basis=replace(tree.basis))
    assert copy.basis.paths == t.basis.paths
    with pytest.raises(InvalidSpec):
        edge_load(copy, t)
    assert edge_load(tree, t).certified()


# ---------------------------------------------------------------------------
# Level weights
# ---------------------------------------------------------------------------


def test_level_fractions_sum_to_one():
    for two_n, s in [(8, 1), (8, 2), (6, 3)]:
        total = sum(level_fraction(two_n, s, w) for w in range(two_n // 2 + 1))
        assert total == pytest.approx(1.0, rel=1e-14)


def test_level_weight_ratio_tends_to_one():
    assert abs(level_weight_ratio(20) - 1.0) < 0.1
    assert abs(level_weight_ratio(40) - 1.0) < abs(level_weight_ratio(20) - 1.0)
    with pytest.raises(InvalidSpec):
        level_weight_ratio(0)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_level_weight_ratio_is_the_weight_over_share_identity(s):
    # (4s)^w (one path's stationary weight) / (sqrt(pi) w^{3/2} level share)
    two_n = 8
    basis = dyck_basis(two_n // 2, s)
    weights = ground_weights(basis)
    for w in range(1, two_n // 2 + 1):
        path_weight = weights[basis.level_slice(w)][0]
        share = level_fraction(two_n, s, w)
        ratio = (4 * s) ** w * path_weight / (math.sqrt(math.pi) * w**1.5 * share)
        assert ratio == pytest.approx(level_weight_ratio(w), rel=1e-13)


def test_importing_markov_and_solving_the_walk_leaves_networkx_unloaded():
    # only the level matchings need networkx; the transition and its gap do not
    package_root = str(Path(motzkinchain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from motzkinchain.markov import build_transition\n"
        "build_transition(8, 1).second_eigenvalue()\n"
        "print('networkx' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


# ---------------------------------------------------------------------------
# Surplus-letter hopping chain
# ---------------------------------------------------------------------------


def test_unbalanced_chain_ground_state_and_rates():
    chain = build_unbalanced_chain(10, 1)
    assert np.abs(chain.hopping @ chain.ground).max() < 1e-12
    assert np.linalg.norm(chain.ground) == pytest.approx(1.0, rel=1e-14)
    assert chain.alpha_sq.min() >= 1.0 / 6.0
    assert chain.alpha_sq.max() <= 0.5
    assert chain.beta_sq.min() >= 1.0 / 6.0
    assert chain.beta_sq.max() <= 0.5
    assert chain.pi_first == pytest.approx(chain.ground[0] ** 2, rel=1e-14)
    assert (chain.matrix - chain.hopping)[0, 0] == pytest.approx(1.0)


def test_unbalanced_chain_rates_scale_with_colors():
    one = build_unbalanced_chain(10, 1)
    two = build_unbalanced_chain(10, 2)
    np.testing.assert_allclose(two.alpha_sq, one.alpha_sq / 2.0, rtol=1e-14)
    np.testing.assert_allclose(two.beta_sq, one.beta_sq / 2.0, rtol=1e-14)


def test_unbalanced_chain_lowest_energy():
    chain = build_unbalanced_chain(10, 1)
    # frozen from dense diagonalization of the 10-site chain
    assert chain.lambda1 == pytest.approx(0.004010771321646968, rel=1e-12)
    assert chain.lambda1 > 0


def test_unbalanced_chain_energy_decays_polynomially():
    sizes = list(range(8, 41, 2))
    values = [build_unbalanced_chain(two_n, 1).lambda1 for two_n in sizes]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))
    slope = np.polyfit(np.log(sizes), np.log(values), 1)[0]
    assert slope == pytest.approx(-2.542594415196172, rel=1e-9)
    assert -5.0 < slope < 0.0


def test_unbalanced_chain_validation():
    with pytest.raises(InvalidSpec):
        build_unbalanced_chain(7, 1)
    with pytest.raises(InvalidSpec):
        build_unbalanced_chain(10, 0)


@pytest.mark.parametrize("s", [1, 2, 7])
@pytest.mark.parametrize("two_n", [2, 4, 10, 40, 120])
def test_unbalanced_chain_matches_the_exact_integer_construction(two_n, s):
    chain = build_unbalanced_chain(two_n, s)
    alpha_sq, beta_sq, hopping, ground = exact_surplus_chain(two_n, s)
    assert np.all(np.abs(chain.alpha_sq - alpha_sq) <= 4 * np.spacing(alpha_sq))
    assert np.all(np.abs(chain.beta_sq - beta_sq) <= 4 * np.spacing(beta_sq))
    assert np.abs(chain.ground - ground).max() <= 1e-14
    assert np.abs(chain.hopping - hopping).max() <= 1e-15


@pytest.mark.parametrize("two_n, s", [(700, 1), (2000, 1), (200, 1000)])
def test_unbalanced_chain_stays_finite_past_the_float_range_of_the_counts(two_n, s):
    # M_{2n} passes the float range near 2n = 646; s**n did at (200, 1000)
    chain = build_unbalanced_chain(two_n, s)
    assert np.isfinite(chain.ground).all()
    assert np.linalg.norm(chain.ground) == pytest.approx(1.0, rel=1e-14)
    assert chain.pi_first == chain.ground[0] ** 2
    assert np.abs(chain.hopping @ chain.ground).max() <= 1e-12
    for rates in (chain.alpha_sq, chain.beta_sq):
        assert rates.min() >= 1.0 / (6 * s)
        assert rates.max() <= 1.0 / (2 * s)
    assert chain.lambda1 > 0


def test_unbalanced_chain_refuses_a_color_count_past_the_float_range():
    # at 10**308 2s overflowed to inf and every rate to zero; from 2e153 on
    # two neighboring rates multiply below the normal floats
    tracemalloc.start()
    try:
        for s in (10**400, 10**308, 2 * 10**153):
            with pytest.raises(InvalidSpec, match="float range"):
                build_unbalanced_chain(10, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**10


def test_unbalanced_chain_keeps_its_rate_products_normal_up_to_the_bound():
    # s * lambda1 settles as s grows; where the products went subnormal it
    # drifted, to 0.00392 at s = 1e160 and 0.193 at 1e200 (0.004053 here)
    chain = build_unbalanced_chain(10, 10**153)
    assert (chain.alpha_sq * chain.beta_sq).min() >= sys.float_info.min
    settled = build_unbalanced_chain(10, 10**100).lambda1 * 1e100
    assert chain.lambda1 * 1e153 == pytest.approx(settled, rel=1e-12)


@pytest.mark.parametrize("two_n", [2, 10, 600])
def test_unbalanced_chain_stores_its_tridiagonals_sparse(two_n):
    chain = build_unbalanced_chain(two_n, 1)
    for operator in (chain.hopping, chain.matrix):
        assert sp.issparse(operator) and operator.format == "csr"
        assert operator.shape == (two_n, two_n)
        assert operator.nnz == 3 * two_n - 2


def test_unbalanced_chain_peaks_under_two_megabytes_at_600_sites():
    # the two dense 600 x 600 matrices alone took 5.8 MB
    assert traced_peak(lambda: build_unbalanced_chain(600, 1)) < 2 * 2**20


def test_unbalanced_chain_refuses_past_its_guard_before_building_anything():
    # one rate row at the guard would take 32 kB, one dense matrix 128 MB
    for two_n in (markov.CHAIN_GUARD + 2, 10**7):
        tracemalloc.start()
        try:
            with pytest.raises(SizeExceeded):
                build_unbalanced_chain(two_n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**10
