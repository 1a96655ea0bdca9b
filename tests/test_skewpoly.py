import random
from fractions import Fraction
from itertools import permutations

import pytest

from forestalg import lambda_alg
from forestalg.lambda_alg import Presentation
from forestalg.linalg import smith_divisors
from forestalg.rings import QQ, ZZ
from forestalg.skewpoly import (GeneratorUniverse, SkewPoly, ideal_slice,
                                mul_monomials, perm_sign, poly_from_json_terms,
                                slice_rows)
from skewpoly_oracle import Poly, partial_derivation, term


def _rand_poly(rng, universe, max_terms=3, max_deg=2):
    p = Poly.zero()
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, max_deg)
        gids = rng.sample(range(len(universe)), d)
        mono = Poly.one().scale(rng.randint(-3, 3))
        for g in gids:
            mono = mono * Poly.generator(g)
        p = p + mono
    return p


def test_generator_normalization():
    u = GeneratorUniverse(range(1, 6), 3)
    gid, sign = u.gen_id((1, 3, 2))
    assert sign == -1 and u.label_tuple(gid) == (1, 2, 3)
    assert u.gen_id((1, 1, 2)) is None
    sym = GeneratorUniverse(range(1, 6), 3, symmetric=True)
    assert sym.gen_id((3, 1, 2))[1] == 1


@pytest.mark.parametrize("symmetric", [False, True])
def test_gen_id_memo_gives_the_checked_answer(symmetric):
    u = GeneratorUniverse(range(1, 7), 3, symmetric=symmetric)
    for _ in ("cold", "warm"):
        for t in u.tuples:
            for idx in permutations(t):
                want = 1 if symmetric else perm_sign(idx)
                assert u.gen_id(idx) == (u.index[t], want)
                assert u.gen_id(list(idx)) == (u.index[t], want)
    assert len(u._oriented) == 6 * len(u.tuples)
    # after warm-up, bad tuples still raise or vanish, and are never stored
    for _ in range(2):
        with pytest.raises(ValueError, match="has 2 indices, expected 3"):
            u.gen_id((1, 2))
        with pytest.raises(ValueError, match="has 4 indices, expected 3"):
            u.gen_id((1, 2, 3, 4))
        with pytest.raises(ValueError, match="label outside"):
            u.gen_id((1, 2, 7))
        assert u.gen_id((1, 2, 1)) is None
        assert u.gen_id((3, 3, 3)) is None
    assert len(u._oriented) == 6 * len(u.tuples)


def _generator_product(universe, word):
    """Oracle: the word as the product of its generators' SkewPolys; a
    repeated index ends the product."""
    acc = Poly.one()
    for idx in word:
        got = universe.gen_id(idx)
        if got is None:
            return Poly.zero()
        acc = acc * Poly.generator(*got)
    return acc


@pytest.mark.parametrize("variant", ["quad", "tri", "twisted"])
def test_universe_monomial_matches_the_generator_product(variant):
    _check_monomials_against_the_generator_product(
        Presentation(variant, range(1, 8)).universe)


@pytest.mark.parametrize("variant", ["quad", "tri", "twisted"])
def test_warm_universe_monomial_matches_the_generator_product(variant):
    universe = Presentation(variant, range(1, 8)).universe
    for t in universe.tuples:  # every oriented tuple in the gen_id memo
        for idx in permutations(t):
            universe.gen_id(idx)
    _check_monomials_against_the_generator_product(universe)


def _check_monomials_against_the_generator_product(universe):
    rng = random.Random(7)
    arity = universe.arity
    kinds = {"repeated generator": 0, "repeated index": 0, "nonzero": 0}
    for _ in range(400):
        # unsorted index tuples, so orientation and merge signs both occur
        word = [tuple(rng.sample(range(1, 8), arity))
                for _ in range(rng.randint(0, 4))]
        roll = rng.random()
        if word and roll < 0.2:
            word.insert(rng.randint(0, len(word)),
                        tuple(rng.sample(rng.choice(word), arity)))
        elif word and roll < 0.4:
            idx = list(rng.choice(word))
            idx[rng.randrange(arity)] = idx[rng.randrange(arity)]
            if len(set(idx)) < arity:
                word.insert(rng.randint(0, len(word)), tuple(idx))
        got = universe.monomial(word)
        want = _generator_product(universe, word)
        repeated = any(len(set(idx)) < arity for idx in word)
        if got is None:
            assert not want, word
            kinds["repeated index" if repeated else "repeated generator"] += 1
        else:
            mono, sign = got
            assert list(mono) == sorted(set(mono)) and len(mono) == len(word)
            assert want == SkewPoly({mono: sign}), word
            kinds["nonzero"] += 1
        # a bad label after a repeated generator is still checked; after a
        # repeated index it is not
        bad = (0,) + tuple(range(1, arity))
        if repeated:
            assert universe.monomial(word + [bad]) is None
        else:
            with pytest.raises(ValueError, match="label outside"):
                universe.monomial(word + [bad])
    assert all(count >= 20 for count in kinds.values()), kinds


def test_product_examples():
    p = Presentation("tri", range(1, 6))
    nu123 = term(p, (1, 2, 3))
    nu145 = term(p, (1, 4, 5))
    assert not (nu123 * nu123)            # odd square
    a = nu123 * nu145
    b = nu145 * nu123
    assert list(a.terms.values()) == [1]  # sorted product, sign +1
    assert b == a.scale(-1)               # one transposition of odd factors


def test_supercommutativity_and_associativity_random():
    rng = random.Random(11)
    p = Presentation("tri", range(1, 6))
    for _ in range(30):
        a = _rand_poly(rng, p.universe)
        b = _rand_poly(rng, p.universe)
        c = _rand_poly(rng, p.universe)
        assert (a * b) * c == a * (b * c)
        for da in a.degrees() or {0}:
            for db in b.degrees() or {0}:
                ah = a.homogeneous_part(da)
                bh = b.homogeneous_part(db)
                assert ah * bh == (bh * ah).scale((-1) ** (da * db))


def test_partial_derivation():
    p = Presentation("tri", range(1, 7))
    x = term(p, (1, 2, 3))
    y = term(p, (1, 4, 5))
    gx = x.terms and next(iter(x.terms))[0]
    gy = next(iter(y.terms))[0]
    assert partial_derivation(x, gx) == Poly.one()
    assert partial_derivation(term(p, (2, 3, 4)), gx) == Poly.zero()
    # derivation rule d(ab) = d(a) b + (-1)^deg(a) a d(b)
    rng = random.Random(3)
    for _ in range(25):
        a = _rand_poly(rng, p.universe)
        b = _rand_poly(rng, p.universe)
        g = rng.randrange(len(p.universe))
        lhs = partial_derivation(a * b, g)
        rhs = Poly.zero()
        for d in a.degrees() or {0}:
            ah = a.homogeneous_part(d)
            rhs = rhs + partial_derivation(ah, g) * b \
                + ah.scale((-1) ** d) * partial_derivation(b, g)
        assert lhs == rhs


def test_quotient_dimension_examples():
    for labels, degree, want in ((4, 1, 4), (5, 2, 9), (6, 2, 64)):
        p = Presentation("tri", range(1, labels + 1))
        sl = ideal_slice(p.relations(), degree, p.universe)
        assert sl.quotient_dimension() == want


def test_integer_relations_give_integer_rational_slice():
    # the relations have coefficients +-1, so the Q echelon never leaves int
    p = Presentation("tri", range(1, 7))
    sl = ideal_slice(p.relations(), 2, p.universe)
    assert sl.quotient_dimension() == 64
    assert all(type(v) is int
               for row in sl.echelon.pivots.values() for v in row.values())
    x = p.monomial([(1, 2, 3), (3, 4, 5)], coeff=3, ring=QQ)
    assert sl.reduce(x) == ideal_slice(_as_fractions(p.relations()),
                                       2, p.universe).reduce(x)


def _as_fractions(relations):
    """The same relations with every coefficient a Fraction."""
    return [SkewPoly({m: Fraction(c) for m, c in r.terms.items()})
            for r in relations]


def test_smith_refuses_a_non_integral_relation():
    """Relations are taken as they are: integral Fractions keep the unit-pivot
    certificate and Smith's answer, and a 1/2 coefficient clears the
    certificate and is a ValueError from Smith's entry check."""
    p = Presentation("tri", range(1, 6))
    rels = p.relations()
    as_fractions = ideal_slice(_as_fractions(rels), 2, p.universe)
    assert as_fractions.echelon.unit_pivots
    assert as_fractions.quotient_dimension() == 9
    want = smith_divisors(list(slice_rows(rels, 2, p.universe)[1]))
    assert smith_divisors(list(slice_rows(_as_fractions(rels), 2,
                                          p.universe)[1])) == want
    half = SkewPoly({m: Fraction(c, 2) for m, c in rels[-1].terms.items()})
    halved = ideal_slice(rels[:-1] + [half], 2, p.universe)
    assert halved.quotient_dimension() == 9
    assert not halved.echelon.unit_pivots
    _, rows = slice_rows([half], 2, p.universe)  # rows are built as they are
    with pytest.raises(ValueError, match="not an integer"):
        smith_divisors(list(rows))


def test_empty_relations_slice():
    p = Presentation("tri", range(1, 5))
    sl = ideal_slice([], 2, p.universe)
    assert sl.rank == 0 and sl.quotient_dimension() == len(sl.columns)


def test_reduce_projection_properties():
    p = Presentation("tri", range(1, 7))
    rels = p.relations()
    sl = ideal_slice(rels, 2, p.universe)
    for r in rels:
        assert not sl.reduce(r).terms           # relations reduce to zero
    rng = random.Random(9)
    for _ in range(20):
        x = Poly.zero()
        for _ in range(3):
            m = tuple(sorted(rng.sample(range(len(p.universe)), 2)))
            x = x + SkewPoly({m: Fraction(rng.randint(-3, 3))})
        nf = sl.reduce(x)
        assert sl.reduce(nf) == nf              # idempotent
        assert not sl.reduce(x - nf).terms      # difference in the slice


def test_gf2_and_integer_slices_agree_on_free_quotients():
    # the full degree-2 tri slice on five labels: the Q echelon's unit
    # pivots and Smith both say free, with the same rank
    p = Presentation("tri", range(1, 6))
    rels = p.relations()
    sl = ideal_slice(rels, 2, p.universe)
    columns, rows = slice_rows(rels, 2, p.universe)
    rank, div = smith_divisors(list(rows))
    assert sl.quotient_dimension() == len(columns) - rank == 9
    assert sl.echelon.unit_pivots and set(div) == {1}


def _block_slice(variant, size, relations=None):
    """(Q slice, Smith (rank, divisors)) of the tree block on 1..size, from
    the same rows."""
    p = Presentation(variant, range(1, size + 1))
    columns, products = lambda_alg._tree_block(p)
    relations = p.relations() if relations is None else relations
    sl = ideal_slice(relations, size // 2, p.universe, columns, products)
    _, rows = slice_rows(relations, size // 2, p.universe, columns, products)
    return sl, smith_divisors(list(rows))


@pytest.mark.parametrize("variant", ["tri", "twisted"])
@pytest.mark.parametrize("size", [3, 5, 7])
def test_unit_pivots_agree_with_smith_on_tree_blocks(variant, size):
    sl, (rank, div) = _block_slice(variant, size)
    assert sl.echelon.unit_pivots
    assert sl.rank == rank and set(div) <= {1}
    assert lambda_alg.block_dimension(variant, size, size // 2) == (
        sl.quotient_dimension(), True)


def test_doubled_relations_keep_the_dimension_but_lose_the_certificate():
    # negative control: 2r for every relation r spans the same space over
    # Q, but the quotient over Z has 2-torsion, and the lead-2 pivots say
    # undecided
    p = Presentation("tri", range(1, 6))
    doubled = [SkewPoly({m: 2 * c for m, c in r.terms.items()})
               for r in p.relations()]
    sl, (rank, div) = _block_slice("tri", 5, doubled)
    assert sl.quotient_dimension() == 9
    assert not sl.echelon.unit_pivots
    assert sl.rank == rank and set(div) == {2}


def test_json_round_trip():
    p = Presentation("tri", range(1, 6))
    x = p.monomial([(1, 2, 3), (1, 4, 5)], coeff=3) + term(p, (2, 3, 4)).scale(-2)
    data = x.to_json_terms(p.universe)
    back = poly_from_json_terms(ZZ, p.universe, data)
    assert back == x


def _product_from_json_terms(universe, data):
    """Oracle: each term as the product of its generators' SkewPolys."""
    acc = Poly.zero()
    for item in data:
        coeff = Fraction(item.get("numerator", 1), item.get("denominator", 1))
        mono = Poly.one().scale(coeff)
        for idx in item["monomial"]:
            got = universe.gen_id(tuple(idx))
            if got is None:
                mono = Poly.zero()
                break
            mono = mono * Poly.generator(*got)
        acc = acc + mono
    return acc


@pytest.mark.parametrize("variant", ["tri", "twisted"])
def test_json_terms_match_the_product_builder(variant):
    rng = random.Random(11)
    universe = Presentation(variant, range(1, 7)).universe
    for ring in (ZZ, QQ):
        for _ in range(300):
            data = []
            for _ in range(rng.randint(0, 4)):
                mono = [rng.sample(range(1, 7), 3)
                        for _ in range(rng.randint(0, 3))]
                if mono and rng.random() < 0.15:  # a repeated generator
                    mono.append(rng.sample(mono[0], 3))
                term = {"monomial": mono,
                        "numerator": rng.choice((0, -3, -1, 1, 2, 5))}
                if ring is QQ:
                    term["denominator"] = rng.choice((1, 2, 3, -4))
                data.append(term)
            got = poly_from_json_terms(ring, universe, data)
            assert got == _product_from_json_terms(universe, data), data
    # both orders of one generator: the product vanishes
    for ring in (ZZ, QQ):
        data = [{"monomial": [[1, 2, 3], [3, 2, 1]]}, {"monomial": []}]
        assert poly_from_json_terms(ring, universe, data) == Poly.one()


def test_json_terms_validation_order():
    universe = Presentation("tri", range(1, 6)).universe
    # a repeated generator does not stop the checks of the indices after it
    with pytest.raises(ValueError, match="label outside"):
        poly_from_json_terms(QQ, universe,
                             [{"monomial": [[1, 2, 3], [3, 2, 1], [1, 2, 9]]}])
    with pytest.raises(ValueError, match="has 2 indices"):
        poly_from_json_terms(ZZ, universe,
                             [{"monomial": [[1, 2, 3], [2, 1, 3], [4, 5]]}])
    # a repeated index ends the term before the next generator is checked
    for ring in (ZZ, QQ):
        assert not poly_from_json_terms(
            ring, universe, [{"monomial": [[1, 1, 2], [1, 2, 9]]}])
    with pytest.raises(ValueError, match="non-integral"):
        poly_from_json_terms(ZZ, universe, [{"monomial": [], "denominator": 2}])


def test_json_coefficients_stay_ints_when_integral():
    universe = Presentation("tri", range(1, 6)).universe
    for ring in (ZZ, QQ):
        for idx, num, den in (([1, 2, 3], 4, 2), ([1, 3, 2], 6, -3)):
            got = poly_from_json_terms(ring, universe, [
                {"monomial": [idx], "numerator": num, "denominator": den}])
            assert got.terms == {(0,): 2} and type(got.terms[(0,)]) is int
    with pytest.raises(ValueError, match="non-integral"):
        poly_from_json_terms(ZZ, universe, [
            {"monomial": [[1, 2, 3]], "numerator": 1, "denominator": 2}])
    half = poly_from_json_terms(QQ, universe, [
        {"monomial": [[1, 3, 2]], "numerator": 1, "denominator": 2}])
    assert half.terms == {(0,): Fraction(-1, 2)}


def test_json_parser_builds_one_fraction_per_non_integral_term(monkeypatch):
    from forestalg import skewpoly

    built = []

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    monkeypatch.setattr(skewpoly, "Fraction", Counted)
    universe = Presentation("tri", range(1, 6)).universe
    data = [{"monomial": [[1, 2, 3]], "numerator": 3},
            {"monomial": [[1, 4, 5]], "numerator": 8, "denominator": -4},
            {"monomial": [[2, 4, 5]], "numerator": 1, "denominator": 3},
            {"monomial": [[1, 2, 3], [3, 4, 5]], "numerator": -5,
             "denominator": 2},
            {"monomial": []}]
    got = poly_from_json_terms(QQ, universe, data)
    assert len(built) == 2
    assert got == _product_from_json_terms(universe, data)


def test_monomial_merge_sign():
    assert mul_monomials((0, 2), (1,)) == ((0, 1, 2), -1)
    assert mul_monomials((0,), (0,)) is None
    assert mul_monomials((), (4, 5)) == ((4, 5), 1)
