"""Frustration-free chain Hamiltonian whose ground state is the uniform
superposition of colored Motzkin walks.

Sites carry ``d = 2s + 1`` states: one flat letter, ``s`` left letters, and
``s`` right letters.  A basis configuration is the base-``d`` integer whose
most significant digit is site 1; digit ``0`` is flat, digits ``1..s`` are
the left colors, digits ``s+1..2s`` the right colors.

The energy is a sum of local projectors.  On each neighboring pair the three
move families project onto antisymmetrized combinations

    |0 r>  - |r 0>,     |0 l> - |l 0>,     |0 0> - |l r>   (per color),

cross-color ``|l^k r^i>`` pairs are penalized directly for ``k != i``, and
the Motzkin boundary penalizes a right letter on site 1 or a left letter on
the last site.  Open and periodic variants drop the boundary term; a weak
external field adds ``(eps0 / two_n)`` times the non-flat letter count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import InvalidSpec, NoConvergence, SizeExceeded
from .walks import enumerate_walks

DIMENSION_GUARD = 2 * 10**7
DEGENERACY_TOL = 1e-8
DEFAULT_SEED = 42

BOUNDARIES = ("motzkin", "open", "periodic")


@dataclass(frozen=True)
class ChainSpec:
    """Parameters selecting one chain Hamiltonian."""

    two_n: int
    s: int
    boundary: str = "motzkin"
    field_epsilon0: float = 0.0

    def __post_init__(self):
        if self.two_n < 2 or self.two_n % 2:
            raise InvalidSpec("two_n must be an even integer >= 2")
        if self.s < 1:
            raise InvalidSpec("color count s must be >= 1")
        if self.boundary not in BOUNDARIES:
            raise InvalidSpec(f"boundary must be one of {BOUNDARIES}")
        if not 0.0 <= self.field_epsilon0 < 1.0:
            raise InvalidSpec("field_epsilon0 must lie in [0, 1)")

    @property
    def d(self) -> int:
        return 2 * self.s + 1

    @property
    def dim(self) -> int:
        return self.d**self.two_n

    def check_size(self) -> None:
        if self.dim > DIMENSION_GUARD:
            raise SizeExceeded(
                f"dimension {self.d}**{self.two_n} exceeds the guard {DIMENSION_GUARD:.0e}"
            )


@dataclass
class SparseOperator:
    """A real symmetric operator with its assembly metadata.

    ``spec`` is set on a full chain Hamiltonian; :func:`lowest_spectrum`
    reads it to map sectors onto each other (:func:`_symmetry_maps`).
    """

    matrix: sp.csr_matrix
    name: str
    spec: ChainSpec | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm_inf(self) -> float:
        """Max absolute row sum; upper-bounds the spectral norm."""
        return float(np.max(np.abs(self.matrix).sum(axis=1))) if self.matrix.nnz else 0.0

    def symmetry_defect(self) -> float:
        delta = self.matrix - self.matrix.T
        return float(np.max(np.abs(delta.data))) if delta.nnz else 0.0


# ---------------------------------------------------------------------------
# Local terms and assembly
# ---------------------------------------------------------------------------

_FAMILIES = ("shift", "pair", "cross")


def _local_terms(s: int) -> list[tuple[str, str, np.ndarray]]:
    """Every two-site term once, as ``(name, family, d**2 x d**2 block)``.

    A block's row and column index is ``d * (first digit) + second digit``.
    Per color ``k`` come the letter-flat shifts ``shift-right-k`` and
    ``shift-left-k`` (family ``shift``) and ``create-pair-k`` (family
    ``pair``), each the projector onto the antisymmetrized pair of local
    configurations it exchanges; then, when ``s > 1``, ``cross`` (family
    ``cross``) penalizes every ``|l^k r^i>`` with ``k != i``.  No two blocks
    share a nonzero entry.
    """
    d = 2 * s + 1
    terms = []
    for k in range(1, s + 1):
        for name, family, a, b in (
            (f"shift-right-{k}", "shift", 0 * d + s + k, (s + k) * d + 0),
            (f"shift-left-{k}", "shift", 0 * d + k, k * d + 0),
            (f"create-pair-{k}", "pair", 0, k * d + s + k),
        ):
            vec = np.zeros(d * d)
            vec[a] = 1.0 / math.sqrt(2.0)
            vec[b] = -1.0 / math.sqrt(2.0)
            terms.append((name, family, np.outer(vec, vec)))
    if s > 1:
        crossed = [k * d + s + i for k in range(1, s + 1) for i in range(1, s + 1) if i != k]
        cross = np.zeros((d * d, d * d))
        cross[crossed, crossed] = 1.0
        terms.append(("cross", "cross", cross))
    return terms


def _block(s: int, families: Sequence[str]) -> np.ndarray:
    """Sum of the two-site blocks of the chosen families."""
    d = 2 * s + 1
    block = np.zeros((d * d, d * d))
    for _, family, term in _local_terms(s):
        if family in families:
            block += term
    return block


def _site_digits(dim: int, site: int, two_n: int, d: int) -> np.ndarray:
    """Digit of every configuration at a 1-based site."""
    stride = d ** (two_n - site)
    return (np.arange(dim, dtype=np.int64) // stride) % d


def _site_pairs(spec: ChainSpec) -> list[tuple[str, int, int]]:
    """Every ordered pair of 1-based sites a two-site term acts on, labeled:
    ``pair(j,j+1)`` in the bulk, and ``wrap`` = (site 2n, site 1) on a ring."""
    pairs = [(f"pair({j},{j + 1})", j, j + 1) for j in range(1, spec.two_n)]
    if spec.boundary == "periodic":
        pairs.append(("wrap", spec.two_n, 1))
    return pairs


def _place(block: np.ndarray, first: int, second: int, two_n: int, d: int) -> sp.csr_matrix:
    """Put a two-site block on the 1-based sites ``(first, second)``.

    Every configuration whose digits on both sites are flat is a base; the
    block entry ``(r, c)`` couples ``base + r`` to ``base + c``, each local
    index spread back onto the two sites by its place value.
    """
    dim = d**two_n
    first_place, second_place = d ** (two_n - first), d ** (two_n - second)
    # the bases: every configuration of the other sites, with a flat digit
    # inserted at the lower place value and then at the higher one.  Indices
    # are int32, which every dimension under DIMENSION_GUARD fits: scipy
    # narrows wider ones on construction, which doubled the placement time.
    bases = np.arange(d ** (two_n - 2), dtype=np.int32)
    for place in sorted((first_place, second_place)):
        bases = (bases // place) * (place * d) + bases % place
    r, c = np.nonzero(block)
    rows = ((r // d) * first_place + (r % d) * second_place).astype(np.int32)[:, None] + bases
    cols = ((c // d) * first_place + (c % d) * second_place).astype(np.int32)[:, None] + bases
    vals = np.repeat(block[r, c], bases.size)
    return sp.csr_matrix((vals, (rows.ravel(), cols.ravel())), shape=(dim, dim))


def _assemble(spec: ChainSpec, families: Sequence[str]) -> sp.csr_matrix:
    """The chosen families' blocks on every site pair, summed pair by pair.

    One CSR per site pair, added in turn: a single concatenation of all the
    triplets measured slower to convert at 2n=12. The left-to-right order is
    kept for bit-stability: a pairwise sum is faster but moves the last bits.
    """
    spec.check_size()
    block = _block(spec.s, families)
    total = sp.csr_matrix((spec.dim, spec.dim))
    for _, first, second in _site_pairs(spec):
        total = total + _place(block, first, second, spec.two_n, spec.d)
    return total


def boundary_diagonal(two_n: int, s: int) -> np.ndarray:
    """Penalty vector: right letter on site 1 plus left letter on site 2n."""
    d = 2 * s + 1
    dim = d**two_n
    first = _site_digits(dim, 1, two_n, d)
    last = _site_digits(dim, two_n, two_n, d)
    return ((first > s).astype(float)) + (((last >= 1) & (last <= s)).astype(float))


def field_diagonal(two_n: int, s: int) -> np.ndarray:
    """Non-flat letter count of every configuration."""
    d = 2 * s + 1
    dim = d**two_n
    out = np.zeros(dim)
    for site in range(1, two_n + 1):
        out += (_site_digits(dim, site, two_n, d) > 0).astype(float)
    return out


def build_hamiltonian(spec: ChainSpec) -> SparseOperator:
    """Assemble the full chain Hamiltonian for ``spec`` as a CSR matrix."""
    total = _assemble(spec, _FAMILIES)
    if spec.boundary == "motzkin":
        total += sp.diags(boundary_diagonal(spec.two_n, spec.s))
    if spec.field_epsilon0 > 0.0:
        total += sp.diags(
            (spec.field_epsilon0 / spec.two_n) * field_diagonal(spec.two_n, spec.s)
        )
    op = SparseOperator(matrix=total.tocsr(), name=f"H[{spec.boundary}]", spec=spec)
    defect = op.symmetry_defect()
    if defect > 1e-14:
        raise InvalidSpec(f"assembled operator lost symmetry (defect {defect:g})")
    return op


def build_move_part(spec: ChainSpec) -> SparseOperator:
    """Only the letter-flat exchange projectors, on every site pair."""
    return SparseOperator(matrix=_assemble(spec, ("shift",)), name="H[move]")


def build_interaction_part(spec: ChainSpec) -> SparseOperator:
    """Only the pair creation/annihilation projectors, on every site pair."""
    return SparseOperator(matrix=_assemble(spec, ("pair",)), name="H[interaction]")


def iter_projector_terms(spec: ChainSpec) -> Iterator[tuple[str, sp.csr_matrix]]:
    """Yield every individual projector term of the Hamiltonian."""
    spec.check_size()
    for label, first, second in _site_pairs(spec):
        for name, _, block in _local_terms(spec.s):
            yield f"{label}:{name}", _place(block, first, second, spec.two_n, spec.d)
    if spec.boundary == "motzkin":
        yield "boundary", sp.diags(boundary_diagonal(spec.two_n, spec.s)).tocsr()


# ---------------------------------------------------------------------------
# Ground state
# ---------------------------------------------------------------------------


def walk_to_index(walk: Sequence[int], s: int) -> int:
    """Map a walk to its basis configuration: its digits read in base ``d``,
    site 1 most significant."""
    d = 2 * s + 1
    idx = 0
    for digit in walk:
        if digit >= d:
            raise InvalidSpec(f"walk uses color {digit - s} > s = {s}")
        idx = idx * d + digit
    return idx


def motzkin_indices(two_n: int, s: int) -> np.ndarray:
    """Sorted basis indices of all colored Motzkin configurations."""
    idx = [walk_to_index(w, s) for w in enumerate_walks(two_n, s, "motzkin")]
    return np.array(sorted(idx), dtype=np.int64)


def state_vector(two_n: int, s: int) -> np.ndarray:
    """Normalized uniform superposition over colored Motzkin configurations."""
    spec = ChainSpec(two_n=two_n, s=s)
    spec.check_size()
    idx = motzkin_indices(two_n, s)
    vec = np.zeros(spec.dim)
    vec[idx] = 1.0 / math.sqrt(len(idx))
    return vec


# ---------------------------------------------------------------------------
# Eigensolving
# ---------------------------------------------------------------------------


@dataclass
class SpectrumResult:
    """Lowest eigenpairs, ascending; column ``i`` of ``vectors`` is the
    certified eigenvector of ``eigenvalues[i]``."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    ground_degeneracy: int
    norm_bound: float
    method: str
    vectors: np.ndarray
    sector_count: int
    sectors_solved: int

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def gap(self) -> float:
        if self.eigenvalues.size < 2:
            raise InvalidSpec("need at least two eigenvalues for a gap")
        return float(self.eigenvalues[1] - self.eigenvalues[0])


def sector_split(matrix: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """The sectors a symmetric operator never couples: the connected
    components of its off-diagonal nonzero pattern.

    Returns the sector of every basis state and the size of every sector.
    Sectors are numbered in order of their smallest member.  A stored zero
    couples nothing, so only nonzero entries are edges.
    """
    count, sector_of = csgraph.connected_components(matrix != 0, directed=False)
    return sector_of, np.bincount(sector_of, minlength=count)


def _relabel(two_n: int, d: int, letters: np.ndarray, reverse: bool) -> np.ndarray:
    """Index of every configuration after each digit ``c`` becomes
    ``letters[c]`` and, when ``reverse``, the sites are read backwards."""
    rest = np.arange(d**two_n, dtype=np.int32)
    out = np.zeros_like(rest)
    for place in range(two_n):  # place 0 is the last site
        digit = rest % d
        rest //= d
        out += letters[digit] * np.int32(d ** (two_n - 1 - place if reverse else place))
    return out


def _symmetry_maps(spec: ChainSpec) -> list[np.ndarray]:
    """Index maps ``p`` of the chain with ``H[p[i], p[j]] == H[i, j]``.

    The mirror reverses the string and swaps each color's left and right
    letter: it exchanges ``shift-right-k`` with ``shift-left-k`` and the two
    boundary penalties, and keeps ``create-pair-k``, ``cross``, the wrap
    pair and the field.  For ``s >= 2`` the transposition of colors ``c``
    and ``c + 1`` relabels the letters only, and every term treats the
    colors alike.
    """
    s, d = spec.s, spec.d
    letters = np.arange(d, dtype=np.int32)
    mirror = np.concatenate(([0], letters[s + 1:], letters[1:s + 1]))
    maps = [_relabel(spec.two_n, d, mirror, reverse=True)]
    for c in range(1, s):
        swap = letters.copy()
        swap[[c, c + 1, s + c, s + c + 1]] = [c + 1, c, s + c + 1, s + c]
        maps.append(_relabel(spec.two_n, d, swap, reverse=False))
    return maps


def _sector_orbits(
    matrix: sp.csr_matrix, sector_of: np.ndarray, maps: Sequence[np.ndarray], tolerance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the sectors under index maps that commute with ``matrix``.

    Each map must carry whole sectors onto sectors and satisfy
    ``|P H P^T - H|_inf <= tolerance``, else :class:`InvalidSpec`.  The
    representative of an orbit is its lowest-numbered sector.  Returns per
    sector its representative, the sector it is reached from and the map
    that reaches it: ``maps[via[b]]`` carries the members of ``source[b]``
    onto those of ``b``.  A representative is its own source, with
    ``via`` -1.
    """
    count = int(sector_of.max()) + 1
    first = np.flatnonzero(np.diff(np.maximum.accumulate(sector_of), prepend=-1))
    images = []
    for p in maps:
        image = sector_of[p[first]]
        if np.any(sector_of[p] != image[sector_of]):
            raise InvalidSpec("a symmetry map splits a sector")
        delta = matrix[p][:, p] - matrix
        defect = float(np.max(abs(delta).sum(axis=1))) if delta.nnz else 0.0
        if defect > tolerance:
            raise InvalidSpec(f"a symmetry map misses the operator by {defect:.3e}")
        images.append(image)
    edges = np.concatenate(images)
    graph = sp.csr_matrix(
        (np.ones(edges.size), (np.tile(np.arange(count), len(maps)), edges)),
        shape=(count, count),
    )
    _, orbit = csgraph.connected_components(graph, directed=False)
    representative = np.unique(orbit, return_index=True)[1][orbit]
    source = np.arange(count)
    via = np.full(count, -1)
    known = representative == source
    while not known.all():
        for g, image in enumerate(images):
            fresh = np.flatnonzero(known & ~known[image])
            source[image[fresh]] = fresh
            via[image[fresh]] = g
            known[image[fresh]] = True
    return representative, source, via


def _carry(
    states: np.ndarray,
    sector: int,
    source: np.ndarray,
    via: np.ndarray,
    maps: Sequence[np.ndarray],
) -> np.ndarray:
    """The members of ``sector`` that the maps of :func:`_sector_orbits`
    carry ``states``, the members of its representative, onto, in order."""
    steps = []
    while via[sector] >= 0:
        steps.append(via[sector])
        sector = source[sector]
    for g in reversed(steps):
        states = maps[g][states]
    return states


# Sectors up to this size are diagonalized densely, larger ones by Lanczos.
# Measured per chain sector at k = 2 and 6 on one BLAS thread: dense is
# faster up to 392 states, the two tie at 504, and Lanczos wins from 512 on.
_DENSE_CUTOFF = 500
# Dense sectors of one size are diagonalized in stacks of at most this many
# matrix entries (512 KB of float64), or one sector when it is larger; bigger
# stacks raised peak memory and saved no time.
_STACK_ENTRIES = 1 << 16
# Above this size a dense sector computes only its lowest eigenpairs; below
# it the per-call cost of that routine exceeds the work it saves.
_SMALL_SECTOR = 32


def _dense_stack(permuted: sp.csr_matrix, first: int, m: int, count: int, want: int):
    """Lowest ``want`` eigenpairs of the ``count`` consecutive ``m``-state
    sectors whose rows start at ``first``, diagonalized as one stack."""
    indptr = permuted.indptr[first:first + count * m + 1]
    rows = np.repeat(np.arange(count * m), np.diff(indptr))
    cols = permuted.indices[indptr[0]:indptr[-1]] - first
    stack = np.zeros((count, m, m))
    stack[rows // m, rows % m, cols % m] = permuted.data[indptr[0]:indptr[-1]]
    if m <= _SMALL_SECTOR:
        values, vectors = np.linalg.eigh(stack)
        return values[:, :want], vectors[:, :, :want]
    values, vectors = zip(*(sla.eigh(block, subset_by_index=(0, want - 1)) for block in stack))
    return np.stack(values), np.stack(vectors)


def _lanczos(block: sp.csr_matrix, k: int, v0: np.ndarray, threshold: float):
    """Seeded Lanczos with growing subspace until every residual certifies."""
    dim = block.shape[0]
    last_error: Exception | None = None
    for ncv in (max(2 * k + 1, 40), 80, 160):
        if ncv >= dim:
            break
        try:
            values, vectors = spla.eigsh(
                block, k=k, which="SA", v0=v0, ncv=ncv, maxiter=40000, tol=0
            )
        except spla.ArpackNoConvergence as err:
            last_error = err
            continue
        worst = float(np.linalg.norm(block @ vectors - vectors * values, axis=0).max())
        if worst <= threshold:
            return values, vectors, ncv
        last_error = NoConvergence(f"residual {worst:.3e} above {threshold:.3e}", worst)
    best = getattr(last_error, "best_residual", None)
    raise NoConvergence(f"eigensolve failed for {dim}-dim sector: {last_error}", best)


def lowest_spectrum(
    op: SparseOperator | sp.spmatrix | np.ndarray,
    k: int = 2,
    seed: int = DEFAULT_SEED,
) -> SpectrumResult:
    """The ``k`` smallest eigenvalues with certified residuals.

    The operator is split once into the sectors its off-diagonal pattern
    never couples (:func:`sector_split`) and permuted so that sectors of
    equal size sit next to each other.  Sectors up to ``_DENSE_CUTOFF``
    states are diagonalized densely, in stacks of equal size, so all the
    one-state sectors take a single call.  Larger ones use Lanczos with
    growing subspace sizes, started from the seeded random vector
    restricted to the sector.

    A chain Hamiltonian from :func:`build_hamiltonian` (an operator that
    carries its ``spec``) has index maps that commute with it
    (:func:`_symmetry_maps`); only the lowest-numbered sector of each orbit
    of those maps is solved.  Every other sector of the orbit takes its
    representative's eigenvalues, and the representative's vectors pushed
    through the maps.  A map that misses the operator by more than
    ``1e-3`` of the certification threshold raises :class:`InvalidSpec`;
    by Weyl's inequality that miss bounds the error of each copied value.

    The ``k`` lowest sector eigenpairs are embedded in the full space and
    each must satisfy ``|H v - lambda v| <= 1e-9 * max(|H|_inf, 1)``
    against the full operator, else :class:`NoConvergence` is raised with
    the best residual seen.  ``method`` is ``"dense"`` when every solved
    sector was solved densely, else ``"lanczos(ncv=N)"`` with the largest
    subspace used.
    """
    matrix = op.matrix if isinstance(op, SparseOperator) else sp.csr_matrix(op)
    dim = matrix.shape[0]
    if k < 1:
        raise InvalidSpec("k must be >= 1")
    k = min(k, dim)
    norm = float(np.max(np.abs(matrix).sum(axis=1))) if matrix.nnz else 0.0
    threshold = 1e-9 * max(norm, 1.0)

    sector_of, sector_sizes = sector_split(matrix)
    sector_count = sector_sizes.size
    maps = _symmetry_maps(op.spec) if isinstance(op, SparseOperator) and op.spec else []
    if maps:
        representative, source, via = _sector_orbits(matrix, sector_of, maps, 1e-3 * threshold)
    else:
        representative = source = np.arange(sector_count)
        via = np.full(sector_count, -1)
    solved = via < 0
    # states by sector size, then sector, then index
    order = np.lexsort((sector_of, sector_sizes[sector_of]))
    v0 = np.random.default_rng(seed).standard_normal(dim)[order]
    if not solved.all():
        # drop the image sectors; each representative keeps its rows' order
        keep = solved[sector_of[order]]
        order, v0 = order[keep], v0[keep]
    permuted = matrix[order][:, order].tocsr()
    permuted.sum_duplicates()
    permuted.eliminate_zeros()
    # pieces: (first row, sector size, values (g, want), vectors (g, m, want))
    pieces = []
    ncv_max = 0
    sizes, counts = np.unique(sector_sizes[solved], return_counts=True)
    firsts = np.concatenate(([0], np.cumsum(sizes * counts)))
    for m, count, first in zip(sizes.tolist(), counts.tolist(), firsts.tolist()):
        want = min(k, m)
        if m <= _DENSE_CUTOFF or want >= m - 1:
            step = max(1, _STACK_ENTRIES // (m * m))
            for lo in range(first, first + count * m, step * m):
                g = min(step, (first + count * m - lo) // m)
                pieces.append((lo, m, *_dense_stack(permuted, lo, m, g, want)))
            continue
        for lo in range(first, first + count * m, m):
            start = v0[lo:lo + m] / np.linalg.norm(v0[lo:lo + m])
            values, vectors, ncv = _lanczos(permuted[lo:lo + m, lo:lo + m], want, start, threshold)
            pieces.append((lo, m, values[None, :], vectors[None]))
            ncv_max = max(ncv_max, ncv)

    lengths = [piece[2].size for piece in pieces]
    candidates = np.concatenate([piece[2].ravel() for piece in pieces])
    owner = np.repeat(np.arange(len(pieces)), lengths)
    offset = np.cumsum([0] + lengths)
    vectors = np.zeros((dim, k))
    chosen = []
    for flat in np.argsort(candidates, kind="stable"):
        lo, m, piece_values, piece_vectors = pieces[owner[flat]]
        i, j = divmod(int(flat - offset[owner[flat]]), piece_values.shape[1])
        states = order[lo + i * m:lo + (i + 1) * m]
        # a solved eigenpair serves every sector of its orbit, itself first
        orbit = np.flatnonzero(representative == sector_of[states[0]])
        for sector in orbit[:k - len(chosen)]:
            image = _carry(states, sector, source, via, maps)
            vectors[image, len(chosen)] = piece_vectors[i, :, j]
            chosen.append(flat)
        if len(chosen) == k:
            break
    values = candidates[chosen]
    residuals = np.linalg.norm(matrix @ vectors - vectors * values, axis=0)
    if np.any(residuals > threshold):
        raise NoConvergence(
            f"residual {residuals.max():.3e} above {threshold:.3e}",
            best_residual=float(residuals.max()),
        )
    return SpectrumResult(
        eigenvalues=values,
        residuals=residuals,
        ground_degeneracy=int(np.sum(values <= values[0] + DEGENERACY_TOL)),
        norm_bound=norm,
        method=f"lanczos(ncv={ncv_max})" if ncv_max else "dense",
        vectors=vectors,
        sector_count=sector_count,
        sectors_solved=int(solved.sum()),
    )


@dataclass
class GapScanResult:
    rows: list[dict]
    slope: float | None
    stderr: float | None
    zero_gap_at: int | None = None


def gap_scan(
    sizes: Sequence[int],
    s: int,
    boundary: str = "motzkin",
    seed: int = DEFAULT_SEED,
) -> GapScanResult:
    """Gap versus size, with the least-squares exponent of ``gap ~ n**(-nu)``.

    ``slope`` is the fitted coefficient of ``ln(gap)`` against ``ln(n)`` with
    ``n = two_n / 2``; ``stderr`` is its standard error.  Both are None when a
    gap is zero within twice the certification threshold (the degenerate
    ground level of open and periodic chains); ``zero_gap_at`` names its size.
    """
    if len(set(sizes)) < 2:
        raise InvalidSpec("gap scans need at least two distinct sizes")
    rows = []
    zero_gap_at = None
    for two_n in sizes:
        spec = ChainSpec(two_n=two_n, s=s, boundary=boundary)
        result = lowest_spectrum(build_hamiltonian(spec), k=2, seed=seed)
        rows.append(
            {
                "two_n": two_n,
                "s": s,
                "lambda1": float(result.eigenvalues[0]),
                "lambda2": float(result.eigenvalues[1]),
                "gap": result.gap,
                "max_residual": float(result.residuals.max()),
            }
        )
        if zero_gap_at is None and result.gap <= 2e-9 * max(result.norm_bound, 1.0):
            zero_gap_at = two_n
    if zero_gap_at is not None:
        return GapScanResult(rows=rows, slope=None, stderr=None, zero_gap_at=zero_gap_at)
    x = np.log([row["two_n"] / 2.0 for row in rows])
    y = np.log([row["gap"] for row in rows])
    if len(rows) > 2:
        coeffs, cov = np.polyfit(x, y, 1, cov=True)
        stderr = float(math.sqrt(cov[0, 0]))
    else:
        # two points determine the line exactly; no residual to scale by
        coeffs = np.polyfit(x, y, 1)
        stderr = 0.0
    return GapScanResult(rows=rows, slope=float(coeffs[0]), stderr=stderr)


# ---------------------------------------------------------------------------
# Local move classes
# ---------------------------------------------------------------------------


@dataclass
class MoveClasses:
    """Partition of all configurations under the local moves."""

    two_n: int
    s: int
    class_id: np.ndarray
    members: list[np.ndarray]
    labels: list[tuple[int, int] | None]

    @property
    def count(self) -> int:
        return len(self.members)


def _reduced_word(digits: Sequence[int], s: int) -> tuple[int, ...]:
    """Drop flats and cancel adjacent same-color up-down pairs."""
    out: list[int] = []
    for digit in digits:
        if digit == 0:
            continue
        if digit > s and out and out[-1] == digit - s:
            out.pop()
        else:
            out.append(digit)
    return tuple(out)


def _word_label(word: Sequence[int], s: int) -> tuple[int, int] | None:
    """(right-excess, left-excess) when the word is rights then lefts."""
    p = 0
    while p < len(word) and word[p] > s:
        p += 1
    if all(1 <= digit <= s for digit in word[p:]):
        return (p, len(word) - p)
    return None


def local_move_classes(two_n: int, s: int, periodic: bool = False) -> MoveClasses:
    """Closure of the letter-flat and pair-creation moves.

    Only the moves have off-diagonal entries in the open (or periodic) chain
    Hamiltonian, so the classes are its sectors, labeled by the reduced word
    of their smallest member.
    """
    spec = ChainSpec(two_n=two_n, s=s, boundary="periodic" if periodic else "open")
    class_id, sizes = sector_split(build_hamiltonian(spec).matrix)
    members = np.split(np.argsort(class_id, kind="stable"), np.cumsum(sizes)[:-1])
    labels = [_word_label(reduced_word_of_config(int(m[0]), two_n, s), s) for m in members]
    return MoveClasses(two_n=two_n, s=s, class_id=class_id, members=members, labels=labels)


def reduced_word_of_config(config: int, two_n: int, s: int) -> tuple[int, ...]:
    d = 2 * s + 1
    digits = [(config // d ** (two_n - site)) % d for site in range(1, two_n + 1)]
    return _reduced_word(digits, s)


# ---------------------------------------------------------------------------
# Frustration-freeness report
# ---------------------------------------------------------------------------


@dataclass
class FrustrationReport:
    lambda1: float
    ground_degeneracy: int
    max_term_energy: float
    overlap_with_walk_state: float
    passed: bool
    term_energies: dict = field(default_factory=dict)


def verify_frustration_free(spec: ChainSpec, seed: int = DEFAULT_SEED) -> FrustrationReport:
    """Check that the walk superposition is annihilated term by term and is
    the unique ground state at zero energy."""
    if spec.boundary != "motzkin" or spec.field_epsilon0:
        raise InvalidSpec("frustration-freeness is checked for the bare motzkin chain")
    psi = state_vector(spec.two_n, spec.s)
    term_energies = {}
    for label, term in iter_projector_terms(spec):
        term_energies[label] = float(psi @ (term @ psi))
    result = lowest_spectrum(build_hamiltonian(spec), k=2, seed=seed)
    ground = result.vectors[:, 0]
    overlap = abs(float(ground @ psi))
    max_term = max(abs(v) for v in term_energies.values())
    passed = (
        abs(result.lambda1) <= 1e-10
        and result.ground_degeneracy == 1
        and max_term <= 1e-12
        and overlap > 1.0 - 1e-9
    )
    return FrustrationReport(
        lambda1=result.lambda1,
        ground_degeneracy=result.ground_degeneracy,
        max_term_energy=max_term,
        overlap_with_walk_state=overlap,
        passed=passed,
        term_energies=term_energies,
    )
