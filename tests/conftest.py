"""Shared brute-force oracles for the test suite.

Everything here works on plain digit tuples with its own stack scans, so
the expected values it produces do not depend on the library code under
test.  The one exception, ``exact_entropy_and_mean_height``, reads the
library's exact integer rows (``walks.halfwalk_row``, itself checked against
``halfwalk_table`` here) and takes their logs in ``decimal``.  The
digit-table oracles work on whole index arrays, by repeated division.
Digit convention, shared with the library's walks: 0 is a flat site, 1..s
are open letters by color, s+1..2s are the matching close letters.
"""

import decimal
import math
import tracemalloc
from itertools import product

import numpy as np

from motzkinchain import walks


def all_digit_strings(length, s):
    """Every string over the (2s+1)-letter alphabet, in digit form."""
    return product(range(2 * s + 1), repeat=length)


def scan_digits(digits, s):
    """Stack of unmatched open colors, or None on a mismatched close.

    A close letter must meet an open letter of its own color on top of
    the stack; flats never touch the stack.
    """
    stack = []
    for d in digits:
        if d == 0:
            continue
        if d <= s:
            stack.append(d)
        else:
            if not stack or stack[-1] != d - s:
                return None
            stack.pop()
    return stack


def digits_form_walk(digits, s):
    """True when the string is a complete properly matched walk."""
    stack = scan_digits(digits, s)
    return stack is not None and not stack


def is_dyck(digits, s):
    """True for a complete properly matched walk with no flat sites."""
    return 0 not in digits and digits_form_walk(digits, s)


def iter_matched_digit_strings(length, s, end_opens=0):
    """Depth-first enumeration of properly matched digit strings.

    Yields every string whose scan never fails and whose final stack
    holds exactly ``end_opens`` open letters (0 gives complete walks).
    Prunes impossible prefixes, so the cost tracks the yield count
    rather than the full (2s+1)**length space.
    """
    stack = []
    prefix = []

    def rec(remaining):
        depth = len(stack)
        if remaining == 0:
            if depth == end_opens:
                yield tuple(prefix)
            return
        if depth - remaining > end_opens or depth + remaining < end_opens:
            return
        for d in range(2 * s + 1):
            if s < d and (not stack or stack[-1] != d - s):
                continue
            if 1 <= d <= s:
                stack.append(d)
            elif d > s:
                stack.pop()
            prefix.append(d)
            yield from rec(remaining - 1)
            prefix.pop()
            if 1 <= d <= s:
                stack.pop()
            elif d > s:
                stack.append(d - s)

    yield from rec(length)


def heights_of_digits(digits, s):
    """Running open-letter count after each position."""
    h = 0
    out = []
    for d in digits:
        if 1 <= d <= s:
            h += 1
        elif d > s:
            h -= 1
        out.append(h)
    return out


def halfwalk_table(max_length, s):
    """DP table ``T[L][h]`` of colored prefix counts, heights ``0..max_length``.

    Read off the final step of the prefix, the transfer recurrence is

        T[L][h] = T[L-1][h] + T[L-1][h-1] + s * T[L-1][h+1]

    (flat, fresh unmatched up, and a down completing a colored pair); the
    colors of the open up steps are not counted.
    """
    table = [[0] * (max_length + 2) for _ in range(max_length + 1)]
    table[0][0] = 1
    for L in range(1, max_length + 1):
        prev = table[L - 1]
        row = table[L]
        for h in range(L + 1):
            val = prev[h] + s * prev[h + 1]
            if h:
                val += prev[h - 1]
            row[h] = val
    return [row[: L + 1] for L, row in enumerate(table)]


def exact_entropy_and_mean_height(n, s):
    """The middle-cut entropy ``-sum_m s**m p_m ln p_m`` and the mean midpoint
    height ``sum_m m s**m p_m``, as 45-digit decimals.

    The weights ``s**m M(n, m, s)**2`` are exact integers.  A row more than 200
    bits below the heaviest, judged by bit length before squaring, is skipped
    (each such row weighs below 2**-197 of the total); the rest are cut to
    about 170 bits by one common shift before the logs are taken.
    """
    row = walks.halfwalk_row(n, s)
    log2_s = math.log2(s)
    bits = [m * log2_s + 2 * count.bit_length() for m, count in enumerate(row)]
    top = max(bits)
    shift = max(0, int(top) - 170)
    weights = {
        m: (s**m * count * count) >> shift
        for m, count in enumerate(row)
        if bits[m] > top - 200
    }
    with decimal.localcontext(decimal.Context(prec=45)):
        total = decimal.Decimal(sum(weights.values()))
        ln_s = decimal.Decimal(s).ln()
        entropy = mean = decimal.Decimal(0)
        for m, weight in weights.items():
            if weight:
                share = weight / total
                entropy -= share * (share.ln() - m * ln_s)
                mean += m * share
        return +entropy, +mean


def exact_surplus_chain(two_n, s):
    """Rates, hopping operator and ground state of the surplus-letter chain
    from exact Motzkin integers: each rate is one correctly rounded integer
    quotient, the hopping part a sum of rank-one terms, and the ground state
    ``sqrt(M_{j-1} M_{2n-j})`` taken from the integer products.  Exact only
    while those products fit a float (``two_n`` up to about 600).
    """
    counts = [walks.motzkin_number(k, 1) for k in range(two_n)]
    alpha_sq = np.array(
        [counts[two_n - j - 1] / (2 * s * counts[two_n - j]) for j in range(1, two_n)]
    )
    beta_sq = np.array([counts[j - 1] / (2 * s * counts[j]) for j in range(1, two_n)])
    hopping = np.zeros((two_n, two_n))
    for j in range(two_n - 1):
        vec = np.zeros(two_n)
        vec[j] = math.sqrt(alpha_sq[j])
        vec[j + 1] = -math.sqrt(beta_sq[j])
        hopping += np.outer(vec, vec)
    ground = np.array(
        [math.sqrt(counts[j - 1] * counts[two_n - j]) for j in range(1, two_n + 1)]
    )
    return alpha_sq, beta_sq, hopping, ground / np.linalg.norm(ground)


def digit_table(configs, two_n, d):
    """Base-``d`` digits of each configuration, by repeated division: row
    ``j`` is site ``j + 1``, the most significant digit.  int16 holds every
    digit ``2s`` that the dimension guard admits."""
    digits = np.empty((two_n, len(configs)), dtype=np.int16)
    rest = np.asarray(configs)
    for row in range(two_n - 1, -1, -1):
        rest, digits[row] = np.divmod(rest, d)
    return digits


def digit_table_symmetry_maps(two_n, s):
    """The chain's mirror and color-transposition index maps, each config's
    digits relabeled and read back in base ``d``: the mirror reads the
    sites in reverse and swaps each color's left and right letter, the
    transposition of colors ``c`` and ``c + 1`` swaps their letters only."""
    d = 2 * s + 1
    digits = digit_table(np.arange(d**two_n, dtype=np.int32), two_n, d)
    letters = np.arange(d, dtype=np.int32)

    def relabel(rows, table):
        out = np.zeros(digits.shape[1], dtype=np.int32)
        for row in rows:
            out *= d
            out += table[row]
        return out

    mirror = np.concatenate((letters[:1], letters[s + 1:], letters[1:s + 1]))
    maps = [relabel(digits[::-1], mirror)]
    for c in range(1, s):
        swap = letters.copy()
        swap[[c, c + 1, s + c, s + c + 1]] = [c + 1, c, s + c + 1, s + c]
        maps.append(relabel(digits, swap))
    return maps


def traced_peak(call):
    """Peak bytes that tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
