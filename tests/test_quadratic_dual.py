from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from forestalg import quadratic_dual
from forestalg.linalg import FieldEchelon, kernel_basis_fast, same_rational_span
from forestalg.quadratic_dual import (dual_block_dimension,
                                      dual_span_matches_explicit,
                                      explicit_dual_rows,
                                      inverse_hilbert_coefficients,
                                      koszul_numerator_check,
                                      ln_dimension_from_pbw,
                                      primal_relation_rows, un_dimension)


def annihilator_rows(n: int) -> list[dict[int, int]]:
    """Oracle: an integer basis of the annihilator of R under the slotwise
    pairing, the integer kernel of the relation rows read from the
    transposed rows (one per word column) by ``kernel_basis_fast``."""
    D = comb(n - 1, 3)
    columns: list[dict[int, int]] = [{} for _ in range(D * D)]
    for i, row in enumerate(primal_relation_rows(n)):
        for c, v in row.items():
            columns[c][i] = v
    return kernel_basis_fast(columns)


def test_span_matches_explicit():
    for n in (4, 5, 6, 7):
        # the integer-kernel oracle, compared by the Q span certificate
        oracle = same_rational_span(annihilator_rows(n),
                                    explicit_dual_rows(tuple(range(1, n))))
        assert dual_span_matches_explicit(n) == oracle
        assert oracle


def test_span_match_fails_on_a_flipped_entry(monkeypatch):
    # flipping the sign of any one entry of any one explicit row breaks
    # its pairing with R (a commutator row turns symmetric in two words)
    real = explicit_dual_rows(tuple(range(1, 6)))
    for k, row in enumerate(real):
        for c in row:
            flipped = real[:k] + [{**row, c: -row[c]}] + real[k + 1:]
            monkeypatch.setattr(quadratic_dual, "explicit_dual_rows",
                                lambda labels: flipped)
            assert not dual_span_matches_explicit(6)
    monkeypatch.undo()
    assert dual_span_matches_explicit(6)


def test_no_integer_kernel_in_the_dual():
    assert not hasattr(quadratic_dual, "kernel_basis_fast")
    assert not hasattr(quadratic_dual, "same_rational_span")
    assert not hasattr(quadratic_dual, "annihilator_rows")


def duality_dimension_identity(n: int) -> bool:
    """dim R + dim R-perp accounts for the whole tensor square."""
    D = comb(n - 1, 3)
    r_rank = FieldEchelon()
    r_rank.extend(primal_relation_rows(n))
    perp = annihilator_rows(n)
    return r_rank.rank + len(perp) == D * D


def test_duality_dimension_identity():
    for n in (4, 5, 6, 7):
        assert duality_dimension_identity(n)


def test_one_generator_case():
    # a single generator: the dual is a polynomial ring in one variable
    assert [un_dimension(4, d) for d in range(5)] == [1, 1, 1, 1, 1]
    assert ln_dimension_from_pbw(4, 3) == [1, 0, 0]


def test_dimensions_small():
    assert [un_dimension(5, d) for d in range(4)] == [1, 4, 16, 64]
    assert un_dimension(6, 2) == 91
    # degree one always matches the generator count
    from math import comb
    for n in (5, 6, 7, 8, 9):
        assert un_dimension(n, 1) == comb(n - 1, 3)


def test_block_dimensions():
    assert dual_block_dimension(3, 2) == 1
    assert dual_block_dimension(4, 2) == 12
    assert dual_block_dimension(4, 3) == 60
    assert dual_block_dimension(5, 2) == 21
    for m, d in ((5, 2), (6, 3), (7, 3)):
        assert dual_block_dimension(m, d) == _fraction_block_dimension(m, d)


def _filtered_words(m: int, d: int) -> list[tuple]:
    """Oracle: every length-d word in the triples of {1..m} whose letters
    form one component covering {1..m}, filtered from all words in
    ``product`` order."""
    labels = set(range(1, m + 1))
    triples = list(combinations(sorted(labels), 3))

    def in_block(word) -> bool:
        letters = [set(triples[g]) for g in word]
        if set().union(*letters) != labels:
            return False
        reached = letters.pop()
        while letters:
            touching = [s for s in letters if s & reached]
            if not touching:
                return False
            for s in touching:
                reached |= s
                letters.remove(s)
        return True

    return [w for w in product(range(len(triples)), repeat=d) if in_block(w)]


def _filtered_dual_block(m: int, d: int) -> tuple[list, list]:
    """Oracle: the words of the block (m, d), in decreasing order, and, in
    loop order over relation, position, u and w, every placement u + r + w
    of an explicit relation r with a word in the block, as a row over the
    words."""
    D = comb(m, 3)
    words = _filtered_words(m, d)[::-1]
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for rel in explicit_dual_rows(tuple(range(1, m + 1))):
        pairs = [(divmod(c, D), v) for c, v in rel.items()]
        for i in range(d - 1):
            for u, w in product(product(range(D), repeat=i),
                                product(range(D), repeat=d - 2 - i)):
                row: dict[int, int] = {}
                for (a, b), v in pairs:
                    col = index.get(u + (a, b) + w)
                    if col is not None:
                        row[col] = row.get(col, 0) + v
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    return words, rows


def test_dual_block_matches_the_filtered_words():
    # the words built from connected letter sets and the rows read off
    # their letter pairs are the filtered words and rows, in the same order
    for m in range(3, 8):
        for d in range(1, 4):
            words, rows = _filtered_dual_block(m, d)
            if 2 * d + 1 < m:
                assert not words and dual_block_dimension(m, d) == 0
            else:
                assert quadratic_dual._dual_block(m, d) == (words, rows)


def test_dual_block_dimension_does_not_depend_on_the_word_order():
    # the block eliminated over its words in increasing order, the order
    # the words had before they were put in decreasing order
    for m, d in ((5, 3), (6, 3), (7, 3)):
        words, rows = quadratic_dual._dual_block(m, d)
        increasing = {w: i for i, w in enumerate(sorted(words))}
        ech = FieldEchelon()
        for row in rows:
            ech.add({increasing[words[c]]: v for c, v in row.items()})
        assert dual_block_dimension(m, d) == len(words) - ech.rank


def _fraction_block_dimension(m: int, d: int) -> int:
    """The connected block (m, d) of the dual algebra by Gaussian elimination
    over Fraction: length-d words in the triples of {1..m} whose letters
    form one component covering {1..m}, modulo every placement u + r + w of
    an explicit relation r whose words lie in the block."""
    labels = tuple(range(1, m + 1))
    D = comb(m, 3)
    words = set(_filtered_words(m, d))
    rows = []
    for rel in explicit_dual_rows(labels):
        pairs = [(divmod(c, D), Fraction(v)) for c, v in rel.items()]
        for i in range(d - 1):
            for u, w in product(product(range(D), repeat=i),
                                product(range(D), repeat=d - 2 - i)):
                row: dict[tuple, Fraction] = {}
                for (a, b), v in pairs:
                    word = u + (a, b) + w
                    row[word] = row.get(word, 0) + v
                row = {k: v for k, v in row.items() if v}
                if row.keys() & words:
                    assert row.keys() <= words  # rows never straddle blocks
                    rows.append(row)
    pivots: dict[tuple, dict] = {}
    for row in sorted(rows, key=len):  # short rows first keeps fill-in low
        while row:
            lead = max(row)
            if lead not in pivots:
                pivots[lead] = {k: v / row[lead] for k, v in row.items()}
                break
            c = row[lead]
            for k, v in pivots[lead].items():
                nv = row.get(k, 0) - c * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(words) - len(pivots)


def test_inverse_hilbert():
    assert inverse_hilbert_coefficients(5, 3) == [1, 4, 16, 64]
    assert inverse_hilbert_coefficients(4, 4) == [1, 1, 1, 1, 1]
    assert inverse_hilbert_coefficients(6, 2) == [1, 10, 91]


def test_pbw_examples():
    assert ln_dimension_from_pbw(5, 2) == [4, 6]
    assert ln_dimension_from_pbw(6, 1) == [10]
    l7 = ln_dimension_from_pbw(7, 3)
    assert all(v >= 0 for v in l7)


def test_pbw_rejects_a_negative_gap():
    # l_1 = 4, and (1 - t)^(-4) already has 10 in degree 2
    assert ln_dimension_from_pbw(5, 2, [1, 4, 10]) == [4, 0]
    with pytest.raises(ArithmeticError, match="degree 2: -5"):
        ln_dimension_from_pbw(5, 2, [1, 4, 5])


def test_koszul_check():
    for n in (4, 5, 6):
        rep = koszul_numerator_check(n, 3)
        assert rep["match"] and not rep["promoted_degrees"]
    # exact over Q: no degree is ever recomputed
    for n in (7, 8):
        rep = koszul_numerator_check(n, 3)
        assert rep["match"] and rep["promoted_degrees"] == []


def test_degree_bounds():
    with pytest.raises(ValueError):
        un_dimension(7, 4)
    assert un_dimension(6, 4) == inverse_hilbert_coefficients(6, 4)[4]
