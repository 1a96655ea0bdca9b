from fractions import Fraction
from itertools import combinations, product

import pytest

from forestalg.quadratic_dual import (dual_block_dimension,
                                      dual_span_matches_explicit,
                                      duality_dimension_identity,
                                      explicit_dual_rows,
                                      inverse_hilbert_coefficients,
                                      koszul_numerator_check,
                                      ln_dimension_from_pbw, un_dimension)


def test_span_matches_explicit():
    for n in (4, 5, 6, 7):
        assert dual_span_matches_explicit(n)


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


def _fraction_block_dimension(m: int, d: int) -> int:
    """The connected block (m, d) of the dual algebra by Gaussian elimination
    over Fraction: length-d words in the triples of {1..m} whose letters
    form one component covering {1..m}, modulo every placement u + r + w of
    an explicit relation r whose words lie in the block."""
    labels = tuple(range(1, m + 1))
    triples = list(combinations(labels, 3))
    D = len(triples)

    def in_block(word) -> bool:
        letters = [set(triples[g]) for g in word]
        if set().union(*letters) != set(labels):
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

    words = {w for w in product(range(D), repeat=d) if in_block(w)}
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
