"""The quadratic dual of the skew ring and its graded Lie algebra: dual
relation space, low-degree dimensions of the enveloping algebra, graded Lie
dimensions via the Poincare-Birkhoff-Witt identity, and the inverse-Hilbert
cross-check.

The skew ring is presented on odd three-index generators; its full quadratic
relation space R (inside the tensor square) consists of the supersymmetry
relators a(x)b + b(x)a and a(x)a together with lifts of the shared-edge and
5-term families.  The dual algebra is an ordinary (even) quadratic algebra on
the dual generators whose relation space is the annihilator of R under the
slotwise pairing; it equals the span of the explicit commutator families
(checked by pairing and rank, ``dual_span_matches_explicit``), which are the
rows actually used for dimension counts because they are homogeneous for the
partition grading by connected components of the letter multiset.

Word-space dimensions run per connected block by exact elimination over Q,
so every reported dimension, and the inverse-Hilbert ``match``, is an
equality over Q.  ``promoted_degrees`` in that report is always empty; it is
kept for the stored reports.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import comb

from .lambda_alg import Presentation
from .linalg import FieldEchelon, field_rank
from .series import assemble_reachable, odd_square_product_poly


def _triples(labels) -> list[tuple]:
    return list(combinations(tuple(labels), 3))


def primal_relation_rows(n: int) -> list[dict[int, int]]:
    """The relation space R of the skew ring on n-1 labels inside the tensor
    square (word (a,b) -> column a*D + b)."""
    labels = tuple(range(1, n))
    triples = _triples(labels)
    D = len(triples)
    rows: list[dict[int, int]] = []
    for a in range(D):
        rows.append({a * D + a: 1})
        for b in range(a + 1, D):
            rows.append({a * D + b: 1, b * D + a: 1})
    pres = Presentation("tri", labels)
    for r in pres.relations():
        row: dict[int, int] = {}
        for mono, c in r.terms.items():
            a, b = mono  # exterior monomial a < b, lifted to the word (a, b)
            row[a * D + b] = row.get(a * D + b, 0) + int(c)
        if row:
            rows.append(row)
    return rows


def explicit_dual_rows(labels) -> list[dict[int, int]]:
    """The displayed relation families of the dual algebra on the label set:
    [g_B, g_pqi + g_pqj + g_pqk] over five distinct indices and [g_B, g_C]
    over six, as rows over words (a, b) -> a*D + b."""
    labels = tuple(sorted(labels))
    triples = _triples(labels)
    index = {t: i for i, t in enumerate(triples)}
    D = len(triples)
    rows = []

    def comm(a: tuple, b: tuple, row: dict, sign: int) -> None:
        ia, ib = index[a], index[b]
        row[ia * D + ib] = row.get(ia * D + ib, 0) + sign
        row[ib * D + ia] = row.get(ib * D + ia, 0) - sign

    from .skewpoly import perm_sign

    for ijk in triples:
        rest = [x for x in labels if x not in ijk]
        for pq in combinations(rest, 2):
            row: dict[int, int] = {}
            for x in ijk:
                # the term is written g_{p q x}; sort with the antisymmetric sign
                comm(ijk, tuple(sorted(pq + (x,))), row, perm_sign(pq + (x,)))
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
        for pqr in combinations(rest, 3):
            row = {}
            comm(ijk, pqr, row, 1)
            rows.append({c: v for c, v in row.items() if v})
    return rows


def dual_span_matches_explicit(n: int) -> bool:
    """R-annihilator == span of the explicit families, over Q.

    Lemma.  The words are orthonormal under the slotwise pairing, so the
    annihilator of R has dimension D^2 - rank R over Q.  Explicit rows
    that all pair to 0 with R span a subspace of it, equal to it exactly
    when their rank is D^2 - rank R.
    """
    primal = primal_relation_rows(n)
    explicit = explicit_dual_rows(tuple(range(1, n)))
    meeting: dict[int, list[tuple[int, int]]] = {}  # word -> (R row, value)
    for i, row in enumerate(primal):
        for c, v in row.items():
            meeting.setdefault(c, []).append((i, v))
    for row in explicit:
        pairing: dict[int, int] = {}
        for c, v in row.items():
            for i, w in meeting.get(c, ()):
                pairing[i] = pairing.get(i, 0) + v * w
        if any(pairing.values()):
            return False
    return field_rank(explicit) == comb(n - 1, 3) ** 2 - field_rank(primal)


# ---------------------------------------------------------------------------
# blocked word-space dimensions


def _connected_letter_sets(masks: list[int], m: int, most: int) -> set:
    """The sets of at most ``most`` letters (indices into ``masks``, the
    label bit masks of the triples) that are connected and cover all m
    labels, grown letter by letter from the letters holding label 1: each
    added letter meets the union so far, so it brings at most two new
    labels."""
    full = (1 << m) - 1
    found = set()
    seen = set()
    stack = [(frozenset([g]), mask) for g, mask in enumerate(masks) if mask & 1]
    while stack:
        letters, cover = stack.pop()
        if letters in seen:
            continue
        seen.add(letters)
        if cover == full:
            found.add(letters)
        left = most - len(letters)
        if not left or bin(full & ~cover).count("1") > 2 * left:
            continue
        for g, mask in enumerate(masks):
            if mask & cover and g not in letters:
                stack.append((letters | {g}, cover | mask))
    return found


def _dual_block(m: int, d: int) -> tuple[list[tuple], list[dict]]:
    """Words and relation rows of the connected block (m, d), 2d + 1 >= m.

    The words are the distinct orderings of the connected, spanning letter
    multisets, in decreasing order: the rank does not depend on the column
    order, and this one eliminates faster at seven labels.  A row
    u (x) r (x) w meets the block only where a word of the block has a
    term (a, b) of r right after u, so the rows are the distinct
    (relation, position, u, w) read off the adjacent letter pairs of the
    block's words, in the order of relation, position, u and w: the order
    of a loop over every placement."""
    labels = tuple(range(1, m + 1))
    triples = _triples(labels)
    D = len(triples)
    masks = [sum(1 << (v - 1) for v in t) for t in triples]
    words = set()
    for letters in _connected_letter_sets(masks, m, d):
        for multiset in combinations_with_replacement(sorted(letters), d):
            if len(set(multiset)) == len(letters):
                words.update(permutations(multiset))
    words = sorted(words, reverse=True)
    index = {w: i for i, w in enumerate(words)}
    rel_pairs = [[(divmod(c, D), v) for c, v in r.items()]
                 for r in explicit_dual_rows(labels)]
    containing: dict[tuple, list[int]] = {}
    for k, pairs in enumerate(rel_pairs):
        for ab, _ in pairs:
            containing.setdefault(ab, []).append(k)
    keys = set()
    for word in words:
        for i in range(d - 1):
            for k in containing.get(word[i:i + 2], ()):
                keys.add((k, i, word[:i], word[i + 2:]))
    rows = []
    for k, i, u, w in sorted(keys):
        row: dict[int, int] = {}
        outside = 0
        for (a, b), v in rel_pairs[k]:
            col = index.get(u + (a, b) + w)
            if col is None:
                outside += 1
                continue
            nv = row.get(col, 0) + v
            if nv:
                row[col] = nv
            else:
                row.pop(col, None)
        if outside and row:
            raise AssertionError("relation row straddles a block")
        if row:
            rows.append(row)
    return words, rows


@lru_cache(maxsize=None)
def dual_block_dimension(m: int, d: int) -> int:
    """dim over Q of the connected block of the dual algebra: words of length
    d in the triples of {1..m} whose letter union spans {1..m} in one
    component, modulo the ideal slice of the explicit relation families.
    d connected letters cover at most 2d + 1 labels, so the block is empty
    beyond that; otherwise ``_dual_block`` builds it from its words."""
    if m == 3:
        return 1 if d >= 0 else 0
    if m < 3 or d < 1 or 2 * d + 1 < m:
        return 0
    words, rows = _dual_block(m, d)
    ech = FieldEchelon()
    for row in rows:
        ech.add(row)
    return len(words) - ech.rank


def un_dimension(n: int, d: int) -> int:
    """dim over Q of the degree-d piece of the dual algebra on n-1 labels,
    assembled over the partition grading from connected blocks."""
    if d < 0:
        return 0
    if d == 0:
        return 1
    if d > 3 and n > 6:
        raise ValueError("degree bound exceeded (d <= 3, or d <= 4 for n <= 6)")
    if d > 4:
        raise ValueError("degree bound exceeded")
    return assemble_reachable(n - 1, d, dual_block_dimension)


# ---------------------------------------------------------------------------
# inverse Hilbert series and the graded Lie dimensions


def inverse_hilbert_coefficients(n: int, up_to: int) -> list[int]:
    """Coefficients of 1/P_n(-t) through degree up_to."""
    poly = odd_square_product_poly(n - 1)  # P_n in label count n-1
    # invert sum poly[d] (-t)^d ... i.e. q(t) = sum poly[d] (-1)^d t^d
    q = [poly.get(dd, 0) * (-1) ** dd for dd in range(up_to + 1)]
    inv = [0] * (up_to + 1)
    inv[0] = 1
    for k in range(1, up_to + 1):
        inv[k] = -sum(q[j] * inv[k - j] for j in range(1, min(k, len(q) - 1) + 1))
    return inv


def ln_dimension_from_pbw(n: int, up_to_degree: int,
                          u_dims: list[int] | None = None) -> list[int]:
    """Graded Lie dimensions l_d from prod_d (1 - t^d)^(-l_d) = U(t),
    solved degree by degree in integers; a negative l_d raises
    ArithmeticError."""
    if u_dims is None:
        u_dims = [un_dimension(n, d) for d in range(up_to_degree + 1)]
    l: list[int] = []
    for d in range(1, up_to_degree + 1):
        # expand prod_{d' < d} (1-t^d')^(-l_{d'}) through degree d, in ints:
        # the coefficient of x^k in (1-x)^(-l) is C(l+k-1, k)
        series = [1] + [0] * d
        for dd, ld in enumerate(l, start=1):
            factor = [1] + [0] * d
            for k in range(1, d // dd + 1):
                factor[dd * k] = comb(ld + k - 1, k)
            series = [sum(series[i] * factor[j - i] for i in range(j + 1))
                      for j in range(d + 1)]
        gap = u_dims[d] - series[d]
        if gap < 0:
            raise ArithmeticError(f"inconsistent Lie dimension at degree {d}: {gap}")
        l.append(gap)
    return l


def koszul_numerator_check(n: int, up_to_degree: int) -> dict:
    """Computed dual dimensions against 1/P_n(-t), exact over Q, so
    ``match`` is an equality over Q.  ``promoted_degrees`` is always empty;
    it is kept for the stored reports."""
    expected = inverse_hilbert_coefficients(n, up_to_degree)
    dims = [un_dimension(n, d) for d in range(up_to_degree + 1)]
    return {"n": n, "dims": dims, "expected": expected,
            "match": dims == expected, "promoted_degrees": []}
