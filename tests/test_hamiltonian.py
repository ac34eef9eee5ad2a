"""Projector chain tests.

The central oracle rebuilds the whole operator from scratch with dense
Kronecker products over explicit unit vectors, then compares entrywise
against the sparse assembly.  Spectral statements are checked with dense
diagonalization at small sizes and certified iterative solves above.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    all_digit_strings,
    digit_table_symmetry_maps,
    digits_form_walk,
    heights_of_digits,
    scan_digits,
    traced_peak,
)
from motzkinchain import hamiltonian
from motzkinchain.errors import InvalidSpec, NoConvergence, SizeExceeded
from motzkinchain.hamiltonian import (
    _FAMILIES,
    ChainSpec,
    _block,
    boundary_diagonal,
    build_hamiltonian,
    build_interaction_part,
    build_move_part,
    field_diagonal,
    gap_scan,
    iter_projector_terms,
    local_move_classes,
    lowest_spectrum,
    motzkin_indices,
    sector_split,
    state_vector,
    verify_frustration_free,
    walk_to_index,
)
from motzkinchain.walks import enumerate_walks


# ---------------------------------------------------------------------------
# Dense oracle assembly
# ---------------------------------------------------------------------------


def _unit(d, index):
    v = np.zeros(d)
    v[index] = 1.0
    return v


def _oracle_pair_block(s):
    """Two-site energy: move projectors plus crossed-color penalties.

    Site letters are digits: 0 flat, k an open letter of color k, s+k the
    matching close letter.
    """
    d = 2 * s + 1
    block = np.zeros((d * d, d * d))
    for k in range(1, s + 1):
        moves = [
            (np.kron(_unit(d, 0), _unit(d, s + k)) - np.kron(_unit(d, s + k), _unit(d, 0))),
            (np.kron(_unit(d, 0), _unit(d, k)) - np.kron(_unit(d, k), _unit(d, 0))),
            (np.kron(_unit(d, 0), _unit(d, 0)) - np.kron(_unit(d, k), _unit(d, s + k))),
        ]
        for v in moves:
            v = v / np.linalg.norm(v)
            block += np.outer(v, v)
    for j in range(1, s + 1):
        for k in range(1, s + 1):
            if j != k:
                v = np.kron(_unit(d, j), _unit(d, s + k))
                block += np.outer(v, v)
    return block


def _embed(two_site, j, two_n, d):
    return np.kron(
        np.kron(np.eye(d ** (j - 1)), two_site), np.eye(d ** (two_n - j - 1))
    )


def _oracle_hamiltonian(two_n, s, boundary):
    d = 2 * s + 1
    dim = d**two_n
    block = _oracle_pair_block(s)
    H = np.zeros((dim, dim))
    for j in range(1, two_n):
        H += _embed(block, j, two_n, d)
    if boundary == "periodic":
        middle = np.eye(d ** (two_n - 2))
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    for e in range(d):
                        weight = block[a * d + b, c * d + e]
                        if weight == 0.0:
                            continue
                        # wrap block acts on (last site, first site)
                        left = np.zeros((d, d))
                        left[b, e] = 1.0
                        right = np.zeros((d, d))
                        right[a, c] = 1.0
                        H += weight * np.kron(np.kron(left, middle), right)
    elif boundary == "motzkin":
        first = np.zeros((d, d))
        last = np.zeros((d, d))
        for k in range(1, s + 1):
            first[s + k, s + k] = 1.0
            last[k, k] = 1.0
        H += np.kron(first, np.eye(d ** (two_n - 1)))
        H += np.kron(np.eye(d ** (two_n - 1)), last)
    return H


@pytest.mark.parametrize(
    ("two_n", "s", "boundary"),
    [
        (4, 1, "motzkin"),
        (4, 1, "open"),
        (4, 1, "periodic"),
        (2, 1, "periodic"),  # the wrap pair is the bulk pair reversed
        (4, 2, "motzkin"),
        (4, 2, "open"),
        (4, 2, "periodic"),
        (2, 3, "motzkin"),
    ],
)
def test_assembly_matches_dense_oracle(two_n, s, boundary):
    spec = ChainSpec(two_n=two_n, s=s, boundary=boundary)
    built = build_hamiltonian(spec).matrix.toarray()
    oracle = _oracle_hamiltonian(two_n, s, boundary)
    np.testing.assert_allclose(built, oracle, atol=1e-14)


@pytest.mark.parametrize("boundary", ["motzkin", "open", "periodic"])
@pytest.mark.parametrize("s", [1, 2])
def test_terms_and_parts_sum_to_hamiltonian(s, boundary):
    spec = ChainSpec(two_n=4, s=s, boundary=boundary)
    full = build_hamiltonian(spec).matrix.toarray()
    terms = list(iter_projector_terms(spec))
    np.testing.assert_allclose(sum(term.toarray() for _, term in terms), full, atol=1e-14)
    parts = build_move_part(spec).matrix.toarray() + build_interaction_part(spec).matrix.toarray()
    for label, term in terms:
        if label.endswith(":cross") or label == "boundary":
            parts += term.toarray()
    np.testing.assert_allclose(parts, full, atol=1e-14)


def test_projector_term_labels_on_two_color_ring():
    spec = ChainSpec(two_n=4, s=2, boundary="periodic")
    names = [
        "shift-right-1", "shift-left-1", "create-pair-1",
        "shift-right-2", "shift-left-2", "create-pair-2",
        "cross",
    ]
    pairs = ["pair(1,2)", "pair(2,3)", "pair(3,4)", "wrap"]
    labels = [label for label, _ in iter_projector_terms(spec)]
    assert labels == [f"{pair}:{name}" for pair in pairs for name in names]


def test_field_term_adds_scaled_diagonal():
    spec = ChainSpec(two_n=4, s=1, boundary="open", field_epsilon0=0.25)
    bare = ChainSpec(two_n=4, s=1, boundary="open")
    with_field = build_hamiltonian(spec).matrix.toarray()
    expected = build_hamiltonian(bare).matrix.toarray() + np.diag(
        0.25 / 4 * field_diagonal(4, 1)
    )
    np.testing.assert_allclose(with_field, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


def test_chain_spec_validation():
    with pytest.raises(InvalidSpec):
        ChainSpec(two_n=3, s=1)
    with pytest.raises(InvalidSpec):
        ChainSpec(two_n=4, s=0)
    with pytest.raises(InvalidSpec):
        ChainSpec(two_n=4, s=1, boundary="wall")
    with pytest.raises(InvalidSpec):
        ChainSpec(two_n=4, s=1, field_epsilon0=-0.1)


@pytest.mark.parametrize("eps0", [1.0, 1e308, math.inf, math.nan])
def test_chain_spec_field_lies_in_unit_interval(eps0):
    # the range field_energies enforces; a huge field overflowed the diagonal
    with pytest.raises(InvalidSpec):
        ChainSpec(two_n=4, s=1, field_epsilon0=eps0)
    assert ChainSpec(two_n=4, s=1, field_epsilon0=0.999).field_epsilon0 == 0.999


def test_dimension_guard():
    with pytest.raises(SizeExceeded):
        ChainSpec(two_n=40, s=3).check_size()


# ---------------------------------------------------------------------------
# Local blocks
# ---------------------------------------------------------------------------


def pair_block(s: int) -> np.ndarray:
    """Dense ``d**2 x d**2`` two-site energy block: every local term."""
    return _block(s, _FAMILIES).toarray()


def move_block(s: int, families: str = "all") -> np.ndarray:
    """Two-site block restricted to chosen move families.

    ``families`` is ``"all"``, ``"shift"`` (letter-flat exchanges only), or
    ``"pair"`` (creation and annihilation of a colored pair only).
    """
    if families not in ("all", "shift", "pair"):
        raise InvalidSpec(f"unknown family selector {families!r}")
    return _block(s, ("shift", "pair") if families == "all" else (families,)).toarray()


@pytest.mark.parametrize(("s", "rank"), [(1, 3), (2, 8), (3, 15)])
def test_pair_block_rank_is_s_times_s_plus_two(s, rank):
    block = pair_block(s)
    assert np.linalg.matrix_rank(block, tol=1e-10) == rank == s * (s + 2)


@pytest.mark.parametrize("s", [1, 2, 3, 10])
def test_local_terms_store_only_their_nonzero_entries(s):
    d = 2 * s + 1
    terms = hamiltonian._local_terms(s)
    assert len(terms) == 3 * s + (s > 1)
    for name, _, block in terms:
        assert block.shape == (d * d, d * d)
        assert block.nnz == (s * (s - 1) if name == "cross" else 4)
        assert np.all(block.data != 0)


def test_move_block_family_split():
    for s in (1, 2):
        full = move_block(s, families="all")
        parts = move_block(s, families="shift") + move_block(s, families="pair")
        np.testing.assert_allclose(full, parts, atol=1e-15)
    with pytest.raises(InvalidSpec):
        move_block(1, families="bulk")


# ---------------------------------------------------------------------------
# Ground states
# ---------------------------------------------------------------------------


def test_two_site_two_color_null_space():
    spec = ChainSpec(two_n=2, s=2, boundary="motzkin")
    H = build_hamiltonian(spec).matrix.toarray()
    assert H.shape == (25, 25)
    values, vectors = np.linalg.eigh(H)
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[1] > 1e-8
    expected = np.zeros(25)
    for idx in (0, 1 * 5 + 3, 2 * 5 + 4):  # 00, open1 close1, open2 close2
        expected[idx] = 1.0 / math.sqrt(3.0)
    assert abs(vectors[:, 0] @ expected) == pytest.approx(1.0, abs=1e-12)


def test_state_vector_smallest_chains():
    v = state_vector(2, 1)
    expected = np.zeros(9)
    expected[0] = expected[1 * 3 + 2] = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(v, expected, atol=1e-15)
    v4 = state_vector(4, 1)
    nonzero = v4[np.abs(v4) > 0]
    assert nonzero.size == 9
    np.testing.assert_allclose(nonzero, 1.0 / 3.0, atol=1e-15)
    assert np.linalg.norm(v4) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize(("two_n", "s"), [(2, 1), (4, 1), (6, 1), (2, 2), (4, 2)])
def test_walk_state_is_annihilated(two_n, s):
    spec = ChainSpec(two_n=two_n, s=s, boundary="motzkin")
    H = build_hamiltonian(spec)
    psi = state_vector(two_n, s)
    assert np.max(np.abs(H.matrix @ psi)) < 1e-12


def test_walk_to_index_is_base_d_value():
    for s in (1, 2):
        for walk in enumerate_walks(4, s, kind="motzkin"):
            value = 0
            for d in walk:
                value = value * (2 * s + 1) + d
            assert walk_to_index(walk, s) == value
    with pytest.raises(InvalidSpec):
        walk_to_index((1, 5), 2)  # a down step of color 3


def restrict_to_indices(op, indices):
    """Dense restriction of an operator to a basis-index subset."""
    return np.asarray(op.matrix[indices][:, indices].todense())


def test_motzkin_indices_enumerate_walk_configs():
    for s in (1, 2):
        idx = motzkin_indices(4, s)
        assert len(idx) == len(set(idx.tolist()))
        expected = sorted(
            i
            for i, digits in enumerate(all_digit_strings(4, s))
            if digits_form_walk(digits, s)
        )
        assert sorted(idx.tolist()) == expected


def test_restricted_operator_keeps_uniform_ground_state():
    spec = ChainSpec(two_n=6, s=1, boundary="motzkin")
    H = build_hamiltonian(spec)
    idx = motzkin_indices(6, 1)
    small = restrict_to_indices(H, idx)
    values, vectors = np.linalg.eigh(small)
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    uniform = np.full(len(idx), 1.0 / math.sqrt(len(idx)))
    assert abs(vectors[:, 0] @ uniform) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def test_smallest_chain_spectrum():
    spec = ChainSpec(two_n=4, s=1, boundary="motzkin")
    result = lowest_spectrum(build_hamiltonian(spec))
    assert abs(result.lambda1) < 1e-10
    assert result.ground_degeneracy == 1
    assert result.method == "dense"


def test_move_part_alone_is_degenerate():
    spec = ChainSpec(two_n=4, s=1, boundary="motzkin")
    result = lowest_spectrum(build_move_part(spec), k=4)
    assert abs(result.lambda1) < 1e-10
    assert result.ground_degeneracy > 1


def test_identity_spectrum():
    eye = sp.identity(9, format="csr")
    result = lowest_spectrum(eye, k=3)
    np.testing.assert_allclose(result.eigenvalues, [1.0, 1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("two_n", [4, 6])
def test_move_part_first_excitation_closed_form(two_n):
    # frozen observation: the lowest nonzero level of the move part alone
    # equals 1 - cos(pi / two_n) at every size checked
    spec = ChainSpec(two_n=two_n, s=1, boundary="motzkin")
    values = np.linalg.eigvalsh(build_move_part(spec).matrix.toarray())
    first_nonzero = values[values > 1e-10][0]
    assert first_nonzero == pytest.approx(1.0 - math.cos(math.pi / two_n), abs=1e-10)


def test_six_site_gap_frozen_value():
    # frozen from dense diagonalization of the 729-dim operator
    spec = ChainSpec(two_n=6, s=1, boundary="motzkin")
    result = lowest_spectrum(build_hamiltonian(spec))
    assert result.gap == pytest.approx(0.010704113050181405, rel=1e-9)


def test_iterative_solver_certifies_and_finds_walk_state():
    # 6561-dimensional: above the dense cutoff, so the Lanczos path runs
    spec = ChainSpec(two_n=8, s=1, boundary="motzkin")
    H = build_hamiltonian(spec)
    result = lowest_spectrum(H, k=2)
    assert result.method != "dense"
    assert abs(result.lambda1) < 1e-10
    assert result.ground_degeneracy == 1
    assert result.residuals.max() <= 1e-9 * H.norm_inf()
    report = verify_frustration_free(spec)
    assert report.passed
    assert report.overlap_with_walk_state > 1.0 - 1e-9


def test_scaled_interaction_never_raises_the_gap():
    # H dominates the deformed operator with interaction scaled down, and
    # both share the zero mode, so every eigenvalue is ordered
    spec = ChainSpec(two_n=6, s=1, boundary="motzkin")
    full = build_hamiltonian(spec).matrix.toarray()
    move = build_move_part(spec).matrix.toarray()
    rest = full - move
    gap_full = np.linalg.eigvalsh(full)[1]
    for eps in (0.1, 0.5):
        deformed = move + eps * rest
        values = np.linalg.eigvalsh(deformed)
        assert abs(values[0]) < 1e-10
        assert gap_full >= values[1] - 1e-12


def test_gap_scan_schema_and_trend():
    result = gap_scan([4, 6, 8], 1)
    assert [row["two_n"] for row in result.rows] == [4, 6, 8]
    for row in result.rows:
        assert set(row) == {"two_n", "s", "lambda1", "lambda2", "gap", "max_residual"}
        assert row["gap"] > 0
        assert abs(row["lambda1"]) < 1e-10
    assert result.slope < -1.0
    assert result.stderr >= 0.0
    with pytest.raises(InvalidSpec):
        gap_scan([4], 1)


def _threshold(op):
    return 1e-9 * max(op.norm_inf(), 1.0)


ORACLE_SPECS = [
    *(
        ChainSpec(two_n=two_n, s=1, boundary=boundary)
        for two_n in (4, 6)
        for boundary in ("motzkin", "open", "periodic")
    ),
    ChainSpec(two_n=4, s=1, boundary="open", field_epsilon0=0.3),
    ChainSpec(two_n=6, s=1, boundary="open", field_epsilon0=1e-3),
    ChainSpec(two_n=6, s=1, boundary="periodic", field_epsilon0=0.5),
    ChainSpec(two_n=4, s=2, boundary="motzkin"),
    ChainSpec(two_n=4, s=2, boundary="open"),
    ChainSpec(two_n=4, s=2, boundary="periodic"),
]


@pytest.mark.parametrize("cutoff", [None, 40])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_sector_spectrum_matches_full_dense_oracle(spec, cutoff, monkeypatch):
    # cutoff 40 sends the 2n=6 s=1 sectors (up to 76 states) and the 49-state
    # sector of the 2n=4 s=2 ring through Lanczos
    if cutoff is not None:
        monkeypatch.setattr(hamiltonian, "_DENSE_CUTOFF", cutoff)
    op = build_hamiltonian(spec)
    dense = op.matrix.toarray()
    expected = np.linalg.eigvalsh(dense)
    for k in (1, 2, 12):
        result = lowest_spectrum(op, k=k)
        np.testing.assert_allclose(result.eigenvalues, expected[:k], rtol=0, atol=1e-10)
        assert result.ground_degeneracy == int(np.sum(expected[:k] <= expected[0] + 1e-8))
        # the orbit route against the plain route, which solves every sector
        plain = lowest_spectrum(op.matrix, k=k)
        assert result.sectors_solved < result.sector_lowest.size == plain.sectors_solved
        np.testing.assert_allclose(
            result.eigenvalues, plain.eigenvalues, rtol=0, atol=_threshold(op)
        )
        assert result.ground_degeneracy == plain.ground_degeneracy
        vectors = result.vectors
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(
            dense @ vectors, vectors * result.eigenvalues, atol=1e-9 * op.norm_inf()
        )
    largest = hamiltonian.sector_split(op.matrix)[1].max()
    assert result.method.startswith("lanczos") == (cutoff is not None and largest > cutoff)


def test_stored_zero_entries_couple_nothing():
    # states 0 and 1 store a zero coupling between them
    matrix = sp.csr_matrix(
        ([2.0, 0.0, 0.0, 1.0, 3.0], [0, 1, 0, 1, 2], [0, 2, 4, 5]), shape=(3, 3)
    )
    _, sizes = hamiltonian.sector_split(matrix)
    assert sizes.tolist() == [1, 1, 1]
    result = lowest_spectrum(matrix, k=3)
    np.testing.assert_allclose(result.eigenvalues, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(np.abs(result.vectors), np.eye(3)[:, [1, 0, 2]])


def test_open_chain_zero_modes_dense_oracle():
    # every one of the 28 move classes at 2n=6 carries one zero mode
    op = build_hamiltonian(ChainSpec(two_n=6, s=1, boundary="open"))
    result = lowest_spectrum(op, k=30)
    expected = np.linalg.eigvalsh(op.matrix.toarray())[:30]
    assert int(np.sum(expected < 1e-10)) == 28
    assert int(np.sum(np.abs(result.eigenvalues) < 1e-10)) == 28
    assert result.ground_degeneracy == 28
    np.testing.assert_allclose(result.eigenvalues, expected, rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 42])
def test_open_chain_ground_pair_at_every_seed(seed):
    # the two lowest zero modes lie in different sectors; one Lanczos run on
    # the whole space found only one of them at these seeds, and 0.0108584
    op = build_hamiltonian(ChainSpec(two_n=8, s=1, boundary="open"))
    result = lowest_spectrum(op, k=2, seed=seed)
    np.testing.assert_allclose(result.eigenvalues, [0.0, 0.0], atol=1e-10)
    assert result.ground_degeneracy == 2
    assert result.method.startswith("lanczos")


# ---------------------------------------------------------------------------
# Sector orbits: the mirror and the color transpositions
# ---------------------------------------------------------------------------


MAP_SPECS = [
    ChainSpec(two_n=two_n, s=s, boundary=boundary, field_epsilon0=eps)
    for two_n, s in ((4, 1), (6, 1), (8, 1), (4, 2), (6, 2), (4, 3))
    for boundary in ("motzkin", "open", "periodic")
    for eps in (0.0, 0.3)
]


@pytest.mark.parametrize("spec", MAP_SPECS, ids=str)
def test_symmetry_maps_commute_with_the_operator(spec):
    op = build_hamiltonian(spec)
    matrix = op.matrix
    maps = hamiltonian._symmetry_maps(spec)
    assert len(maps) == spec.s
    defects = []
    for p in maps:
        assert p.dtype == np.int32
        assert np.array_equal(np.sort(p), np.arange(spec.dim))
        # (P H P^T)[i, j] = H[p[i], p[j]]; the inf-norm bounds the spectral norm
        delta = abs(matrix[p][:, p] - matrix)
        defects.append(float(delta.sum(axis=1).max()) if delta.nnz else 0.0)
    assert max(defects) <= 1e-3 * _threshold(op)
    # a transposition permutes equal entries; the mirror reverses the order
    # in which site pairs are summed, which moves last bits from s = 2 on
    assert defects[1:] == [0.0] * (spec.s - 1)
    if spec.s == 1:
        assert defects == [0.0]


@pytest.mark.parametrize("spec", MAP_SPECS, ids=str)
def test_symmetry_maps_equal_the_digit_table_construction(spec):
    maps = hamiltonian._symmetry_maps(spec)
    expected = digit_table_symmetry_maps(spec.two_n, spec.s)
    assert len(maps) == len(expected)
    for p, q in zip(maps, expected):
        assert p.dtype == q.dtype == np.int32
        assert np.array_equal(p, q)


def test_mirror_and_transposition_digits():
    spec = ChainSpec(two_n=4, s=2)
    mirror, swap = hamiltonian._symmetry_maps(spec)
    # digits 0 flat, 1-2 left colors, 3-4 right colors; site 1 first
    config = walk_to_index((1, 0, 2, 4), 2)
    assert mirror[config] == walk_to_index((2, 4, 0, 3), 2)
    assert swap[config] == walk_to_index((2, 0, 1, 3), 2)


@pytest.mark.parametrize("cutoff", [None, 40])
def test_two_color_orbit_spectrum_matches_plain_route_and_dense(cutoff, monkeypatch):
    # 15,625 states: too many for one dense matrix, so the dense oracle
    # diagonalizes each sector block
    if cutoff is not None:
        monkeypatch.setattr(hamiltonian, "_DENSE_CUTOFF", cutoff)
    op = build_hamiltonian(ChainSpec(two_n=6, s=2))
    threshold = _threshold(op)
    sector_of, sizes = hamiltonian.sector_split(op.matrix)
    members = np.split(np.argsort(sector_of, kind="stable"), np.cumsum(sizes)[:-1])
    expected = np.sort(
        np.concatenate([np.linalg.eigvalsh(op.matrix[m][:, m].toarray()) for m in members])
    )
    for k in (1, 2, 12):
        result = lowest_spectrum(op, k=k)
        plain = lowest_spectrum(op.matrix, k=k)
        np.testing.assert_allclose(result.eigenvalues, plain.eigenvalues, rtol=0, atol=threshold)
        np.testing.assert_allclose(result.eigenvalues, expected[:k], rtol=0, atol=threshold)
        assert result.ground_degeneracy == plain.ground_degeneracy == 1
        vectors = result.vectors
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(k), rtol=0, atol=1e-12)
        residuals = np.linalg.norm(op.matrix @ vectors - vectors * result.eigenvalues, axis=0)
        assert residuals.max() <= threshold


def test_representative_sectors_keep_their_lanczos_bits(monkeypatch):
    # every sector the orbit route solves is solved exactly as the plain
    # route solves it: same block, same start vector, same subspace
    solved = []
    lanczos = hamiltonian._lanczos

    def recording(block, k, v0, threshold):
        values, vectors, ncv = lanczos(block, k, v0, threshold)
        solved.append(values.tobytes())
        return values, vectors, ncv

    monkeypatch.setattr(hamiltonian, "_lanczos", recording)
    op = build_hamiltonian(ChainSpec(two_n=8, s=1))
    lowest_spectrum(op.matrix, k=6)
    plain, solved[:] = list(solved), []
    lowest_spectrum(op, k=6)
    assert len(solved) == 3 < len(plain) == 5
    assert set(solved) <= set(plain)


def test_dense_representatives_are_bit_identical_to_the_plain_route():
    op = build_hamiltonian(ChainSpec(two_n=4, s=2, boundary="periodic"))
    everything = lowest_spectrum(op.matrix, k=op.dim).eigenvalues
    orbit = lowest_spectrum(op, k=op.dim).eigenvalues
    assert set(orbit.tolist()) <= set(everything.tolist())


@pytest.mark.parametrize(
    "spec, solved, count",
    [
        (ChainSpec(two_n=8, s=1), 25, 45),
        (ChainSpec(two_n=6, s=2, boundary="periodic"), 456, 1748),
        (ChainSpec(two_n=6, s=2), 700, 2703),
    ],
    ids=str,
)
def test_sectors_solved_is_the_orbit_count(spec, solved, count):
    op = build_hamiltonian(spec)
    result = lowest_spectrum(op, k=2)
    assert (result.sectors_solved, result.sector_lowest.size) == (solved, count)
    plain = lowest_spectrum(op.matrix, k=2)
    assert plain.sectors_solved == plain.sector_lowest.size == count


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec(two_n=6, s=1, boundary="open", field_epsilon0=1e-3),
        ChainSpec(two_n=8, s=1, boundary="open", field_epsilon0=1e-3),
        *(
            ChainSpec(two_n=two_n, s=2, boundary=boundary)
            for two_n in (4, 6)
            for boundary in ("motzkin", "periodic")
        ),
        ChainSpec(two_n=4, s=3, boundary="open"),
    ],
    ids=str,
)
def test_sector_lowest_matches_dense_sector_minima(spec):
    op = build_hamiltonian(spec)
    result = lowest_spectrum(op, k=2)
    sector_of, sizes = sector_split(op.matrix)
    order = np.argsort(sector_of, kind="stable")
    permuted = op.matrix[order][:, order].tocsr()
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    minima = [
        np.linalg.eigvalsh(permuted[lo:hi, lo:hi].toarray())[0]
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    # image sectors take their representative's level, so every sector counts
    assert result.sectors_solved < sizes.size
    np.testing.assert_allclose(result.sector_lowest, minima, rtol=0, atol=1e-12)


def test_a_sector_level_off_its_vector_raises(monkeypatch):
    dense_stack = hamiltonian._dense_stack
    shifted = []

    def shift_first(*args):
        values, vectors = dense_stack(*args)
        if not shifted:
            values = values.copy()
            values[0, 0] += 1e-6
            shifted.append(True)
        return values, vectors

    monkeypatch.setattr(hamiltonian, "_dense_stack", shift_first)
    # the first stack holds the frozen one-state sectors, none of them the
    # ground state, so only the per-sector certificate sees the shift
    with pytest.raises(NoConvergence) as failure:
        lowest_spectrum(build_hamiltonian(ChainSpec(two_n=6, s=1)), k=1)
    assert failure.value.best_residual == pytest.approx(1e-6, rel=1e-6)


def test_mirror_carries_the_second_column_onto_the_third():
    spec = ChainSpec(two_n=8, s=1)
    result = lowest_spectrum(build_hamiltonian(spec), k=3)
    (mirror,) = hamiltonian._symmetry_maps(spec)
    assert result.eigenvalues[1] == result.eigenvalues[2]
    assert np.array_equal(result.vectors[mirror, 2], result.vectors[:, 1])


@pytest.mark.parametrize(
    "spec", [ChainSpec(two_n=4, s=3), ChainSpec(two_n=6, s=2, boundary="periodic")], ids=str
)
def test_every_moved_column_is_another_column_through_one_map(spec):
    op = build_hamiltonian(spec)
    vectors = lowest_spectrum(op, k=6).vectors
    sector_of, _ = sector_split(op.matrix)
    maps = hamiltonian._symmetry_maps(spec)
    for c in range(6):
        (sector,) = np.unique(sector_of[vectors[:, c] != 0])
        members = np.flatnonzero(sector_of == sector)
        if all(np.array_equal(np.sort(p[members]), members) for p in maps):
            continue  # every map fixes this sector, so no other column is its image
        assert any(
            np.array_equal(vectors[p, c], vectors[:, other])
            for other in range(6)
            if other != c
            for p in maps
        )


@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec(two_n=8, s=1),
        ChainSpec(two_n=4, s=3),
        ChainSpec(two_n=6, s=2, boundary="periodic"),
        ChainSpec(two_n=6, s=2, boundary="open", field_epsilon0=1e-3),
    ],
    ids=str,
)
def test_origin_maps_each_image_sector_onto_its_representative(spec):
    op = build_hamiltonian(spec)
    sector_of, sizes = sector_split(op.matrix)
    maps = hamiltonian._symmetry_maps(spec)
    representative, origin = hamiltonian._sector_orbits(op.matrix, sector_of, maps, 1e-12)
    assert origin.dtype == np.int32
    assert np.array_equal(sector_of[origin], representative[sector_of])
    solved = representative[sector_of] == sector_of
    assert np.array_equal(origin[solved], np.flatnonzero(solved))
    for sector in np.flatnonzero(representative != np.arange(sizes.size)):
        image = origin[sector_of == sector]
        assert np.array_equal(np.sort(image), np.flatnonzero(sector_of == representative[sector]))


def test_lanczos_retries_never_shrink_the_subspace(monkeypatch):
    op = build_hamiltonian(ChainSpec(two_n=8, s=1))
    sector_of, sizes = sector_split(op.matrix)
    members = np.flatnonzero(sector_of == np.flatnonzero(sizes == 512)[0])
    block = op.matrix[members][:, members]
    start = np.ones(512) / math.sqrt(512)
    eigsh, subspaces = hamiltonian.spla.eigsh, []

    def recording(*args, ncv, **kwargs):
        subspaces.append(ncv)
        return eigsh(*args, ncv=ncv, **kwargs)

    monkeypatch.setattr(hamiltonian.spla, "eigsh", recording)
    # a zero threshold certifies nothing, so every subspace is tried in turn
    for k, tried in ((5, [40, 80, 160]), (30, [61, 80, 160]), (100, [201])):
        subspaces.clear()
        with pytest.raises(NoConvergence):
            hamiltonian._lanczos(block, k, start, threshold=0.0)
        assert subspaces == tried


def test_a_map_that_is_no_symmetry_raises(monkeypatch):
    spec = ChainSpec(two_n=6, s=1)
    op = build_hamiltonian(spec)
    rng = np.random.default_rng(0)
    shuffled = rng.permutation(spec.dim).astype(np.int32)
    monkeypatch.setattr(hamiltonian, "_symmetry_maps", lambda spec: [shuffled])
    with pytest.raises(InvalidSpec):
        lowest_spectrum(op, k=2)
    # a swap of two states of one sector keeps every sector whole, so only
    # the operator check can refuse it
    sector_of, _ = hamiltonian.sector_split(op.matrix)
    a, b = np.flatnonzero(sector_of == sector_of[0])[:2]
    swap = np.arange(spec.dim, dtype=np.int32)
    swap[[a, b]] = [b, a]
    monkeypatch.setattr(hamiltonian, "_symmetry_maps", lambda spec: [swap])
    with pytest.raises(InvalidSpec, match="misses the operator"):
        lowest_spectrum(op, k=2)


# ---------------------------------------------------------------------------
# Move classes
# ---------------------------------------------------------------------------


def _union_find_classes(two_n, s, periodic):
    """Union-find closure of the local moves, one configuration at a time.

    Returns ``class_id``, ``members`` and ``labels`` numbered by smallest
    member; the label is read off the reduced word of that member.
    """
    d = 2 * s + 1
    dim = d**two_n
    parent = np.arange(dim, dtype=np.int64)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # per-pair moves expressed on the two local digits
    swaps = []
    for k in range(1, s + 1):
        swaps.append((0 * d + s + k, (s + k) * d + 0))
        swaps.append((0 * d + k, k * d + 0))
        swaps.append((0 * d + 0, k * d + s + k))
    pair_positions = list(range(1, two_n)) + ([two_n] if periodic else [])
    for j in pair_positions:
        if j < two_n:
            hi = d ** (two_n - j)
            lo = d ** (two_n - j - 1)
            for config in range(dim):
                a = (config // hi) % d
                b = (config // lo) % d
                local = a * d + b
                base = config - a * hi - b * lo
                for x, y in swaps:
                    if local == x:
                        union(config, base + (y // d) * hi + (y % d) * lo)
                    elif local == y:
                        union(config, base + (x // d) * hi + (x % d) * lo)
        else:
            hi = d ** (two_n - 1)
            for config in range(dim):
                a = config % d               # site 2n
                b = config // hi             # site 1
                local = a * d + b
                base = config - a - b * hi
                for x, y in swaps:
                    if local == x:
                        union(config, base + (y // d) + (y % d) * hi)
                    elif local == y:
                        union(config, base + (x // d) + (x % d) * hi)
    roots = np.array([find(int(x)) for x in range(dim)], dtype=np.int64)
    unique_roots, class_id = np.unique(roots, return_inverse=True)
    members = [np.flatnonzero(class_id == c) for c in range(unique_roots.size)]
    labels = []
    for rep in unique_roots:
        word = []
        for site in range(1, two_n + 1):
            digit = (int(rep) // d ** (two_n - site)) % d
            if digit == 0:
                continue
            if digit > s and word and word[-1] == digit - s:
                word.pop()
            else:
                word.append(digit)
        p = 0
        while p < len(word) and word[p] > s:
            p += 1
        rights_then_lefts = all(1 <= digit <= s for digit in word[p:])
        labels.append((p, len(word) - p) if rights_then_lefts else None)
    return class_id, members, labels


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize(("two_n", "s"), [(2, 1), (4, 1), (6, 1), (2, 2), (4, 2), (6, 2)])
def test_move_classes_match_union_find_oracle(two_n, s, periodic):
    class_id, members, labels = _union_find_classes(two_n, s, periodic)
    classes = local_move_classes(two_n, s, periodic=periodic)
    np.testing.assert_array_equal(classes.class_id, class_id)
    assert len(classes.members) == len(members)
    for got, want in zip(classes.members, members):
        np.testing.assert_array_equal(got, want)
    assert classes.labels == labels


def test_two_site_class_of_flat_string():
    classes = local_move_classes(2, 1)
    flat_class = classes.class_id[0]
    members = classes.members[flat_class]
    assert sorted(members.tolist()) == [0, 1 * 3 + 2]  # "00" and the matched pair


def test_walk_class_is_exactly_the_walk_set():
    for s in (1, 2):
        classes = local_move_classes(4, s)
        walk_ids = {
            i
            for i, digits in enumerate(all_digit_strings(4, s))
            if digits_form_walk(digits, s)
        }
        zero_class = classes.class_id[0]
        assert set(classes.members[zero_class].tolist()) == walk_ids
        assert classes.labels[zero_class] == (0, 0)


@pytest.mark.parametrize("two_n", [4, 6])
def test_open_class_count_single_color(two_n):
    # frozen from direct orbit computation: (two_n + 1) * (n + 1) classes
    n = two_n // 2
    classes = local_move_classes(two_n, 1)
    assert classes.count == (two_n + 1) * (n + 1)


def test_class_labels_match_excess_scan():
    # single color: the label is (unmatched closes, unmatched opens)
    classes = local_move_classes(4, 1)
    for i, digits in enumerate(all_digit_strings(4, 1)):
        p = 0
        h = 0
        for d in digits:
            if d == 1:
                h += 1
            elif d == 2:
                if h:
                    h -= 1
                else:
                    p += 1
        assert classes.labels[classes.class_id[i]] == (p, h)


def test_crossed_pair_is_frozen_singleton():
    classes = local_move_classes(2, 2)
    crossed = 1 * 5 + 4  # open color 1 followed by close color 2
    cid = classes.class_id[crossed]
    assert classes.members[cid].tolist() == [crossed]
    assert classes.labels[cid] is None


def test_open_ground_space_is_spanned_by_class_states():
    spec = ChainSpec(two_n=4, s=1, boundary="open")
    H = build_hamiltonian(spec).matrix.toarray()
    values = np.linalg.eigvalsh(H)
    classes = local_move_classes(4, 1)
    zero_modes = int((values < 1e-10).sum())
    assert zero_modes == classes.count == 15
    for members in classes.members:
        vec = np.zeros(81)
        vec[members] = 1.0 / math.sqrt(len(members))
        assert np.max(np.abs(H @ vec)) < 1e-12


def test_periodic_ground_degeneracy_smallest_chain():
    spec = ChainSpec(two_n=4, s=1, boundary="periodic")
    H = build_hamiltonian(spec).matrix.toarray()
    values = np.linalg.eigvalsh(H)
    assert int((values < 1e-10).sum()) == 4 * 2 + 1  # 4n + 1 at n = 2


def _reduce_by_rewriting(digits, s):
    """Nonzero letters, with adjacent same-color open-close pairs deleted
    one at a time until none is left."""
    word = [digit for digit in digits if digit]
    while True:
        for i in range(len(word) - 1):
            if word[i] <= s and word[i + 1] == word[i] + s:
                del word[i:i + 2]
                break
        else:
            return tuple(word)


@pytest.mark.parametrize(
    ("two_n", "s"), [(2, 1), (4, 1), (6, 1), (8, 1), (2, 2), (4, 2), (6, 2), (2, 3), (4, 3)]
)
def test_smallest_member_is_flats_then_its_reduced_word(two_n, s):
    strings = list(all_digit_strings(two_n, s))
    open_classes = local_move_classes(two_n, s)
    ring = local_move_classes(two_n, s, periodic=True)
    for classes in (open_classes, ring):
        for members in classes.members:
            smallest = strings[members[0]]
            word = _reduce_by_rewriting(smallest, s)
            assert smallest == (0,) * (two_n - len(word)) + word
            # with no unmatched close, the word is the stack of unmatched opens
            closed = all(digit <= s for digit in word)
            assert scan_digits(smallest, s) == (list(word) if closed else None)
    for members in open_classes.members:
        # the moves keep the word, and a ring class is a union of open ones
        assert {_reduce_by_rewriting(strings[m], s) for m in members} == {
            _reduce_by_rewriting(strings[members[0]], s)
        }
        assert np.unique(ring.class_id[members]).size == 1


# ---------------------------------------------------------------------------
# Diagonals
# ---------------------------------------------------------------------------


DIAGONAL_SIZES = ((4, 1), (4, 2), (6, 2), (2, 100))


def test_boundary_diagonal_counts_edge_letters():
    for two_n, s in DIAGONAL_SIZES:
        diag = boundary_diagonal(two_n, s)
        assert diag.dtype == np.float64
        expected = [
            float(digits[0] > s) + float(1 <= digits[-1] <= s)
            for digits in all_digit_strings(two_n, s)
        ]
        assert diag.tolist() == expected


@pytest.mark.parametrize("s", [63, 64, 100])
def test_digits_hold_every_letter(s):
    d = 2 * s + 1
    configs = np.arange(d * d)
    expected = (configs // d > s).astype(float) + ((configs % d >= 1) & (configs % d <= s))
    np.testing.assert_array_equal(boundary_diagonal(2, s), expected)
    letters = (configs // d > 0).astype(float) + (configs % d > 0)
    np.testing.assert_array_equal(field_diagonal(2, s), letters)
    maps = hamiltonian._symmetry_maps(ChainSpec(two_n=2, s=s))
    for p, q in zip(maps, digit_table_symmetry_maps(2, s), strict=True):
        assert np.array_equal(p, q)


def test_field_diagonal_counts_letters():
    for two_n, s in DIAGONAL_SIZES:
        diag = field_diagonal(two_n, s)
        assert diag.dtype == np.float64
        expected = [float(sum(map(bool, digits))) for digits in all_digit_strings(two_n, s)]
        assert diag.tolist() == expected


@pytest.mark.parametrize(("two_n", "s"), [(12, 1), (8, 2)])
def test_per_state_tables_peak_within_three_float_vectors(two_n, s):
    # the digit-table construction peaked at 11.9 to 28.4 MB here, against
    # a limit of 12.8 MB at 2n=12 s=1 and 9.4 MB at 2n=8 s=2
    limit = 3 * (2 * s + 1) ** two_n * 8
    spec = ChainSpec(two_n=two_n, s=s)
    assert traced_peak(lambda: hamiltonian._symmetry_maps(spec)) <= limit
    assert traced_peak(lambda: field_diagonal(two_n, s)) <= limit
    assert traced_peak(lambda: boundary_diagonal(two_n, s)) <= limit


# ---------------------------------------------------------------------------
# Frustration report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("two_n", "s"), [(2, 1), (4, 1), (2, 2), (4, 2)])
def test_frustration_free_small_chains(two_n, s):
    report = verify_frustration_free(ChainSpec(two_n=two_n, s=s, boundary="motzkin"))
    assert report.passed
    assert report.max_term_energy <= 1e-12
    assert report.ground_degeneracy == 1


def test_perturbed_state_has_positive_energy():
    spec = ChainSpec(two_n=4, s=1, boundary="motzkin")
    H = build_hamiltonian(spec).matrix
    rng = np.random.default_rng(3)
    psi = state_vector(4, 1) + 1e-3 * rng.standard_normal(81)
    psi /= np.linalg.norm(psi)
    assert psi @ (H @ psi) > 1e-8


def test_frustration_check_rejects_other_boundaries():
    with pytest.raises(InvalidSpec):
        verify_frustration_free(ChainSpec(two_n=4, s=1, boundary="open"))
