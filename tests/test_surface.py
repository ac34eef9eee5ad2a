"""The public surface of ``src/``: no public name without a use or a claim.

Every public function, class and method of ``src/motzkinchain`` must be
named somewhere else in ``src/`` or in ``perfbench/``: a call, an
attribute, an import, or the string a benchmark probe looks up.  A name
that nothing uses stays only when it carries a claim of the source paper,
listed in ``PAPER_CLAIMS`` with the test that checks it.  Anything else is
code to delete.
"""

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "motzkinchain"

# public name -> (the paper claim it carries, the test that checks it)
PAPER_CLAIMS = {
    "excursion.excursion_moments": (
        "moments of the Brownian excursion area from the rational recursion",
        "test_excursion.py::test_moments_match_quadrature",
    ),
    "excursion.moment_asymptotic": (
        "large-order growth 3 sqrt(2) k (k/12e)^{k/2} of the area moments",
        "test_excursion.py::test_high_order_moment_growth_law",
    ),
    "excursion.rectangle_level_pair": (
        "the rectangle bound on the area density's Fourier transform",
        "test_excursion.py::test_rectangle_pair_straddles_the_mode",
    ),
    "excursion.RectanglePair.satisfied": (
        "the transform stays below the rectangle bound at frequency 1/std",
        "test_excursion.py::test_rectangle_pair_straddles_the_mode",
    ),
    "field.product_ground_state": (
        "a product state is a zero mode of the boundary-free one-color chain",
        "test_field.py::test_product_state_is_annihilated_without_boundaries",
    ),
    "field.product_state_norm_factor": (
        "the norm (1 + a^2 + a^-2)^n of that product state",
        "test_field.py::test_product_state_norm_factor_matches_direct_product",
    ),
    "markov.level_fraction": (
        "share of Motzkin strings whose letters form a level-w Dyck path",
        "test_markov.py::test_level_fractions_sum_to_one",
    ),
    "markov.level_weight_ratio": (
        "one path's stationary weight against the level share, via the Catalan asymptotic",
        "test_markov.py::test_level_weight_ratio_is_the_weight_over_share_identity",
    ),
    "markov.build_unbalanced_chain": (
        "the hopping chain of one unmatched letter and its ground state",
        "test_markov.py::test_unbalanced_chain_ground_state_and_rates",
    ),
    "schmidt.alpha_peak": (
        "the Schmidt weight peaks near alpha sqrt(n)",
        "test_schmidt.py::test_weight_peak_near_predicted_height",
    ),
    "schmidt.schmidt_spectrum": (
        "Schmidt values M(n,m,s)^2/N with multiplicity s^m",
        "test_schmidt.py::test_spectrum_matches_brute_svd",
    ),
    "schmidt.SchmidtSpectrum.log_weight": (
        "the multiplicity-weighted Schmidt values sum to one",
        "test_schmidt.py::test_spectrum_normalizes",
    ),
    "schmidt.entropy_constant_bits": (
        "the n-independent part of the one-color entropy",
        "test_schmidt.py::test_constant_in_bits",
    ),
    "schmidt.saddle_point": (
        "saddle-point location of the pair-count sum inside M(n,m,s)",
        "test_schmidt.py::test_saddle_point_tracks_term_argmax",
    ),
    "schmidt.halfwalk_term_argmax": (
        "the largest summand of M(n,m,s), which the saddle point approximates",
        "test_schmidt.py::test_saddle_point_tracks_term_argmax",
    ),
    "schmidt.expected_mid_height": (
        "mean midpoint height 2 sqrt(2/(3 pi)) sqrt(n) of a one-color walk",
        "test_schmidt.py::test_expected_mid_height_ratio_converges",
    ),
    "walks.colored_halfwalk_count": (
        "the pair-count sum M(n,m,s) = sum_i C(n,2i+m) ballot(2i+m,m) s^i",
        "test_walks.py::test_colored_halfwalk_count_matches_enumeration",
    ),
    "walks.full_walk_count": (
        "a walk glues from two half-walks: sum_m s^m M(n,m,s)^2",
        "test_walks.py::test_full_walk_count_glues_to_motzkin_number",
    ),
    "walks.dyck_area_total": (
        "total area under positive excursions, (3^(L+1) + (-1)^L)/4",
        "test_walks.py::test_area_total_matches_enumeration",
    ),
}


def _names(tree: ast.AST) -> Counter:
    """Every identifier a piece of code refers to, with multiplicity."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found[node.value] += 1
    return found


def _public(tree: ast.Module, module: str):
    """``(qualified name, node)`` of every public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item


@lru_cache(maxsize=None)
def _surface() -> dict[str, bool]:
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = Counter()
    for tree in modules.values():
        referenced += _names(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        referenced += _names(ast.parse(path.read_text()))
    public = {}
    for module, tree in modules.items():
        for name, node in _public(tree, module):
            short = name.rpartition(".")[2]
            # a name used only inside its own body (recursion, a class naming
            # itself) has no caller
            public[name] = referenced[short] > _names(node)[short]
    return public


def test_every_public_name_is_used_or_carries_a_claim():
    unused = sorted(name for name, used in _surface().items() if not used)
    assert [name for name in unused if name not in PAPER_CLAIMS] == []


@pytest.mark.parametrize("name", sorted(PAPER_CLAIMS))
def test_every_claim_names_a_public_name_and_an_existing_test(name):
    assert name in _surface()
    claim, test_id = PAPER_CLAIMS[name]
    assert claim
    file_name, _, test_name = test_id.partition("::")
    tree = ast.parse((ROOT / "tests" / file_name).read_text())
    assert test_name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
