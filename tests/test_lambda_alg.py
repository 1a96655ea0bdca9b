import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, gcd
from pathlib import Path

import pytest

from forestalg import forests, lambda_alg
from forestalg.lambda_alg import (Presentation, basic_forest_complex_homology,
                                  block_dimension,
                                  expected_euler_characteristic,
                                  forest_normal_form, hilbert_polynomial,
                                  partition_component_dims, quad_to_tri,
                                  quad_tri_span_match, whitney_differential)
from forestalg.linalg import FieldEchelon, smith_divisors
from forestalg.rings import QQ
from forestalg.skewpoly import SkewPoly, ideal_slice, mul_monomials
from skewpoly_oracle import Poly, term


def _relations_over_all_words(variant, labels):
    """Oracle: every relation family generated over every ordering of its
    word, deduplicated up to content and sign in generation order."""
    p = Presentation(variant, labels)

    def t(indices):
        return term(p, indices)
    out, seen = [], set()

    def push(rel):
        if not rel:
            return
        g = 0
        for c in rel.terms.values():
            g = gcd(g, abs(c))
        sign = 1 if rel.terms[min(rel.terms)] > 0 else -1
        terms = {m: sign * c // g for m, c in rel.terms.items()}
        key = tuple(sorted(terms.items()))
        if key not in seen:
            seen.add(key)
            out.append(terms)

    if variant == "quad":
        for five in combinations(labels, 5):
            rel = Poly.zero()
            for s in range(5):
                rel = rel + t((five[s:] + five[:s])[:4])
            push(rel)
        for base in combinations(labels, 3):
            rest = [x for x in labels if x not in base]
            for l, m in combinations(rest, 2):
                push(t(base + (l,)) * t(base + (m,)))
        for six in combinations(labels, 6):
            for i, j, k, l, m, q in permutations(six):
                push(t((i, j, k, l)) * t((l, m, q, i))
                     + t((k, l, m, q)) * t((q, i, j, k))
                     + t((m, q, i, j)) * t((j, k, l, m)))
        return out
    for pair in combinations(labels, 2):
        rest = [x for x in labels if x not in pair]
        for k, l in combinations(rest, 2):
            push(t(pair + (k,)) * t(pair + (l,)))
    for five in combinations(labels, 5):
        for i, j, k, l, m in permutations(five):
            push(t((i, j, k)) * t((k, l, m)) + t((j, k, l)) * t((l, m, i))
                 + t((k, l, m)) * t((m, i, j)) + t((l, m, i)) * t((i, j, k))
                 + t((m, i, j)) * t((j, k, l)))
    return out


def test_relation_families():
    # five labels: one linear relation per 5-subset, the shared-3-subset
    # family, no six-index family
    quad5 = Presentation("quad", range(1, 6))
    lin = quad5.linear_relations()
    quads = quad5.quadratic_relations()
    assert len(lin) == 1 and all(len(r.terms) == 5 for r in lin)
    assert len(quads) == 10 and all(len(r.terms) == 1 for r in quads)
    # three labels for the tri presentation: one generator, no relations
    tri4 = Presentation("tri", range(1, 4))
    assert len(tri4.universe) == 1 and not tri4.relations()
    assert hilbert_polynomial(tri4) == [1, 1]
    # two labels, twisted: no generators at all
    tw2 = Presentation("twisted", range(1, 3))
    assert len(tw2.universe) == 0
    assert hilbert_polynomial(tw2) == [1]
    # one word per rotation orbit gives the same relations, in the same
    # order and with the same terms, as every ordering of every word
    for variant in ("quad", "tri", "twisted"):
        for n in range(5, 9):
            labels = tuple(range(1, n + 1))
            got = Presentation(variant, labels).relations()
            assert all(type(c) is int for r in got for c in r.terms.values())
            assert ([list(r.terms.items()) for r in got]
                    == [list(t.items()) for t in
                        _relations_over_all_words(variant, labels)])


def test_relation_family_label_equivariance():
    import itertools
    tri = Presentation("tri", range(1, 6))
    keys = set()
    for r in tri.relations():
        keys.add(frozenset(r.terms.items()))
    for perm in itertools.permutations(range(1, 6)):
        sigma = {i + 1: p for i, p in enumerate(perm)}
        for r in tri.relations():
            moved = Poly.zero()
            for mono, c in r.terms.items():
                img = Poly.one().scale(c)
                for gid in mono:
                    tup = tri.universe.label_tuple(gid)
                    img = img * term(tri, tuple(sigma[x] for x in tup))
                moved = moved + img
            key = frozenset(moved.terms.items())
            neg = frozenset(moved.scale(-1).terms.items())
            assert key in keys or neg in keys


def test_hilbert_polynomials_small():
    assert hilbert_polynomial(Presentation("tri", range(1, 3))) == [1]
    assert hilbert_polynomial(Presentation("tri", range(1, 5))) == [1, 4]
    assert hilbert_polynomial(Presentation("tri", range(1, 6))) == [1, 10, 9]
    assert hilbert_polynomial(Presentation("tri", range(1, 7))) == [1, 20, 64]
    assert hilbert_polynomial(Presentation("quad", range(1, 6))) == [1, 4]
    assert hilbert_polynomial(Presentation("quad", range(1, 7))) == [1, 10, 9]
    assert hilbert_polynomial(Presentation("twisted", range(1, 7))) == [1, 20, 64]


def test_blocked_matches_unblocked():
    # the blocked route equals a direct full-slice computation for six labels
    tri = Presentation("tri", range(1, 7))
    rels = tri.relations()
    for d, want in ((1, 20), (2, 64), (3, 0)):
        sl = ideal_slice(rels, d, tri.universe)
        assert sl.quotient_dimension() == want


def test_block_dimension_values():
    assert block_dimension("tri", 3, 1) == (1, True)
    assert block_dimension("tri", 5, 2) == (9, True)
    assert block_dimension("tri", 7, 3) == (225, True)
    assert block_dimension("tri", 4, 2) == (0, True)
    assert block_dimension("tri", 6, 3) == (0, True)
    assert block_dimension("twisted", 5, 2) == (9, True)


def _basic_tree_monomials(p):
    return {p.universe.monomial(sorted(tree))[0]
            for tree in forests.basic_trees(p.labels)}


def _filtered_block(p, edges):
    """Oracle: the connected block on all of p's labels by filtering the
    whole ring: every degree-`edges` monomial whose triangle graph is one
    component covering the labels, the non-basic ones first and then the
    basic trees, each part in monomial order; and every relation times
    every multiplier, in that loop order, kept when a term lands in the
    block."""
    universe = p.universe
    connected = [m for m in universe.monomials(edges) if len(
        forests.partition_of_edges([universe.label_tuple(g) for g in m],
                                   universe.labels)) == 1]
    basic = _basic_tree_monomials(p)
    columns = ([m for m in connected if m not in basic]
               + [m for m in connected if m in basic])
    inside = set(columns)
    products = []
    for i, r in enumerate(p.relations()):
        for mult in universe.monomials(edges - r.degree()):
            prods = [mul_monomials(mult, m) for m in r.terms]
            if any(pr is not None and pr[0] in inside for pr in prods):
                products.append((i, mult))
    return columns, products


@pytest.mark.parametrize("variant", ["tri", "twisted"])
def test_tree_block_matches_the_filtered_ring(variant):
    # the triangle-tree columns and the column-driven rows are the filtered
    # columns and rows, in the same order
    for size in (3, 5, 7):
        p = Presentation(variant, range(1, size + 1))
        assert lambda_alg._tree_block(p) == _filtered_block(p, size // 2)


def _free_columns(p, columns, products):
    sl = ideal_slice(p.relations(), len(columns[0]), p.universe, columns,
                     products)
    free = {m for m, c in sl.col_of.items() if c not in sl.echelon.pivots}
    return sl, free


@pytest.mark.parametrize("variant", ["tri", "twisted"])
@pytest.mark.parametrize("size", [3, 5, 7])
def test_tree_block_frees_exactly_the_basic_trees(variant, size):
    # with the basic trees last, the free columns are the basic trees, the
    # pivots lead with +-1, and the dimension and certificate are those of
    # an elimination over the columns in plain increasing order
    p = Presentation(variant, range(1, size + 1))
    columns, products = lambda_alg._tree_block(p)
    basic = _basic_tree_monomials(p)
    sl, free = _free_columns(p, columns, products)
    assert free == basic and sl.echelon.unit_pivots
    oracle, _ = _free_columns(p, sorted(columns), products)
    assert block_dimension(variant, size, size // 2) == (
        oracle.quotient_dimension(), oracle.echelon.unit_pivots) == (
        len(basic), True)


@pytest.mark.parametrize("variant", ["tri", "twisted"])
def test_a_basic_tree_moved_first_is_not_free(variant):
    # negative control: the column order decides which columns are free;
    # a basic tree put before the others leads a pivot row
    p = Presentation(variant, range(1, 6))
    columns, products = lambda_alg._tree_block(p)
    moved = columns[-1]
    _, free = _free_columns(p, [moved] + columns[:-1], products)
    _, kept = _free_columns(p, columns, products)
    assert moved in kept and moved not in free and len(free) == len(kept)


def test_triangle_tree_count():
    for k in (1, 2, 3, 4):
        trees = forests.triangle_trees(range(1, 2 * k + 2))
        assert len(set(trees)) == len(trees)
        assert len(trees) == (2 * k + 1) ** (k - 1) * lambda_alg.double_factorial(2 * k - 1)
    assert forests.triangle_trees(range(4)) == []


def test_block_slice_rejects_a_straddling_row():
    # drop one column of the (5, 2) block: some row now has a term on
    # either side of the columns
    p = Presentation("tri", range(1, 6))
    columns, products = lambda_alg._tree_block(p)
    assert ideal_slice(p.relations(), 2, p.universe, columns,
                       products).quotient_dimension() == 9
    with pytest.raises(AssertionError, match="straddles"):
        ideal_slice(p.relations(), 2, p.universe, columns[1:], products)


def _connected_spanning_edge_sets(size, edges):
    """Oracle: every set of `edges` triples on range(size) whose triangle
    graph is connected and covers every label, by enumeration."""
    triples = list(combinations(range(size), 3))
    for chosen in combinations(triples, edges):
        if (len(set().union(*chosen)) == size and
                len(forests.partition_of_edges(chosen, range(size))) == 1):
            yield chosen


def _is_loose_cycle(chosen):
    """k triples on 2k labels, each meeting exactly two others in one label,
    the meetings forming one cycle."""
    k = len(chosen)
    if len(set().union(*chosen)) != 2 * k:
        return False
    meets = {i: [j for j in range(k) if j != i
                 and len(set(chosen[i]) & set(chosen[j])) == 1] for i in range(k)}
    if any(len(v) != 2 for v in meets.values()):
        return False
    seen, stack = {0}, [0]
    while stack:
        for j in meets[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == k


def test_loose_cycle_lemma_against_enumeration():
    # every cyclic block with size <= 7 and edges <= 4, edge set by edge
    # set: each connected spanning edge set has two triples sharing two
    # labels or contains a loose cycle C_k with 3 <= k <= min(edges,
    # size // 2), and the rewrite closure of all its forms kills every form
    linear_cyclic = 0
    for size in range(3, 8):
        for edges in range(1, 5):
            if 2 * edges <= size - 1:
                continue  # forests, or no connected spanning graph
            forms = set()
            for chosen in _connected_spanning_edge_sets(size, edges):
                forms.add(lambda_alg._first_occurrence_form(chosen))
                if lambda_alg._immediate_zero(chosen):
                    continue
                linear_cyclic += 1
                assert any(_is_loose_cycle(sub)
                           for k in range(3, min(edges, size // 2) + 1)
                           for sub in combinations(chosen, k)), chosen
            lambda_alg._close_and_mark(sorted(forms))
            assert all(lambda_alg._killed_classes.get(f) for f in forms)
            assert block_dimension("tri", size, edges) == (0, True)
    assert linear_cyclic == 2250


def test_first_cyclic_blocks_of_ten_labels(monkeypatch):
    # certified by C_3 and C_4 alone: 2k <= 9 leaves no room for C_5
    seeds = []
    close = lambda_alg._close_and_mark
    monkeypatch.setattr(lambda_alg, "_close_and_mark",
                        lambda classes: seeds.extend(classes) or close(classes))
    for edges in (5, 6):
        lambda_alg._assert_cyclic_block_dies(9, edges)
        assert block_dimension("tri", 9, edges) == (0, True)
    assert sorted(set(seeds)) == [lambda_alg._first_occurrence_form(
        [(i, (i + 1) % k, k + i) for i in range(k)]) for k in (3, 4)]


def _rational_span_match(n):
    """Oracle: the substituted quad rows and the tri rows each eliminated
    over Q (the quad side runs on Fractions once a pivot lead is not +-1),
    then compared by FieldEchelon.same_span."""
    quad = Presentation("quad", range(1, n + 1))
    tri = Presentation("tri", range(1, n))
    left, right = FieldEchelon(), FieldEchelon()
    for r in quad.quadratic_relations():
        left.add(dict(quad_to_tri(r, n).terms))
    for r in tri.relations():
        right.add(dict(r.terms))
    return left.same_span(right)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_quad_tri_span_match_against_rational_elimination(n):
    assert _rational_span_match(n)
    assert quad_tri_span_match(n)
    # the substitution kills every linear relation, as the rank check implies
    quad = Presentation("quad", range(1, n + 1))
    assert not any(quad_to_tri(r, n) for r in quad.linear_relations())


@pytest.mark.parametrize("n", range(4, 10))
def test_linear_certificate_against_smith_divisors(n):
    # oracle: the Smith divisors of the quad linear relations, built with
    # every family; C(n-1, 4) divisors, all 1, exactly when phi kills them
    quad = Presentation("quad", range(1, n + 1))
    rows = [{g[0]: c for g, c in r.terms.items()}
            for r in quad.linear_relations()]
    rank = comb(n - 1, 4)
    free = smith_divisors(rows) == (rank, [1] * rank)
    assert free == lambda_alg._quad_linear_data(n)[1]
    assert free


@pytest.mark.parametrize("spoil", [lambda img: {},
                                   lambda img: {t: 2 * c for t, c in img.items()}],
                         ids=["rank-short", "non-unit"])
def test_quad_tri_span_match_needs_unimodular_full_rank(monkeypatch, spoil):
    # zeroing one generator's image (a rank-short quotient) or doubling it (a
    # non-unit divisor) breaks a 5-term relation; the span match must refuse
    n = 6
    subst, certified = lambda_alg._quad_linear_data(n)
    assert certified
    universe = Presentation("quad", range(1, n + 1)).universe
    try:
        for gid in range(len(universe.tuples)):
            spoiled = {**subst, gid: spoil(subst[gid])}
            verdict = lambda_alg._kills_linear_relations(universe, spoiled)
            assert not verdict
            monkeypatch.setattr(lambda_alg, "_quad_linear_data",
                                lambda k: (spoiled, verdict))
            quad_tri_span_match.cache_clear()
            assert not quad_tri_span_match(n)
    finally:
        monkeypatch.undo()
        quad_tri_span_match.cache_clear()
    assert quad_tri_span_match(n)


def test_spoiled_substitution_fails_the_linear_certificate(monkeypatch):
    # negating the image of any one generator breaks a 5-term relation
    # through it, and the span match reads the certificate
    n = 6
    subst, certified = lambda_alg._quad_linear_data(n)
    assert certified
    universe = Presentation("quad", range(1, n + 1)).universe
    try:
        for gid in range(len(universe.tuples)):
            spoiled = {**subst, gid: {t: -c for t, c in subst[gid].items()}}
            verdict = lambda_alg._kills_linear_relations(universe, spoiled)
            assert not verdict
            monkeypatch.setattr(lambda_alg, "_quad_linear_data",
                                lambda k: (spoiled, verdict))
            quad_tri_span_match.cache_clear()
            assert not quad_tri_span_match(n)
    finally:
        monkeypatch.undo()
        quad_tri_span_match.cache_clear()
    assert quad_tri_span_match(n)


def tri_to_quad(x: SkewPoly, tri: Presentation, quad: Presentation) -> SkewPoly:
    """Three-index generator (i,j,k) on labels {1..n-1} maps to the four-index
    generator (i,j,k,n)."""
    out = Poly.zero()
    for m, c in x.terms.items():
        acc = Poly.one().scale(c)
        for gid in m:
            acc = acc * term(quad, tri.universe.label_tuple(gid) + (quad.n,))
        out = out + acc
    return out


def test_quad_tri_isomorphism_roundtrip():
    n = 6
    quad = Presentation("quad", range(1, n + 1))
    tri = Presentation("tri", range(1, n))
    assert quad_tri_span_match(n)
    # generator with the top label maps straight across
    x = term(tri, (1, 2, 3))
    fwd = tri_to_quad(x, tri, quad)
    assert fwd == term(quad, (1, 2, 3, n))
    assert quad_to_tri(fwd, n) == x
    # a generator without the top label: the 5-term relation rewrites it,
    # and the roundtrip is the identity modulo the relations
    y = term(quad, (1, 2, 3, 4))
    back = quad_to_tri(y, n)
    again = tri_to_quad(back, quad=quad, tri=tri)
    sl = ideal_slice(quad.relations(), 1, quad.universe)
    assert not sl.reduce(y - again).terms
    assert quad_to_tri(Poly.zero(), n) == Poly.zero()


def test_normal_form_examples():
    p = Presentation("tri", range(1, 6))
    # a basic monomial is its own normal form
    x = p.monomial([(1, 2, 3), (3, 4, 5)])
    nf = forest_normal_form(x, p)
    assert len(nf) == 1
    ((g, c),) = nf.items()
    assert g.sorted_edges == ((1, 2, 3), (3, 4, 5)) and c == 1
    # a monomial with a cycle dies
    y = p.monomial([(2, 3, 4), (2, 4, 5)])
    assert forest_normal_form(y, p) == {}
    # a non-basic tree becomes an explicit combination
    z = p.monomial([(1, 4, 5), (2, 3, 5)])
    nf = forest_normal_form(z, p)
    assert nf and all(forests.is_basic(g) for g in nf)


@lru_cache(maxsize=None)
def _two_echelon_basis(variant, labels, degree):
    """The oracle's data: the basic forests in increasing monomial order, the
    degree slice with its columns in natural (increasing) order, and the
    echelon of the rows [b_k | e_k], b_k the k-th basic monomial's residue
    in that slice and e_k a unit column past every slice column."""
    p = Presentation(variant, labels)
    sl = ideal_slice(p.relations(), degree, p.universe)
    basics = sorted((p.universe.monomial(f.sorted_edges)[0], f)
                    for f in forests.enumerate_basic_forests(labels, degree))
    offset = len(sl.columns)
    solver = FieldEchelon()
    for k, (m, _) in enumerate(basics):
        solver.add({**sl.echelon.reduce({sl.col_of[m]: 1}), offset + k: 1})
    assert all(lead < offset for lead in solver.pivots)  # independent
    return [f for _, f in basics], sl, solver, offset


def _two_echelon_normal_form(x, p):
    """Oracle: the earlier query path.  The rational element is reduced in a
    natural-order slice's echelon, then [v | 0] is reduced against the
    [b_k | e_k] echelon; no cleared denominators, no memo."""
    if not x:
        return {}
    if not x.is_homogeneous():
        out = {}
        for d in sorted(x.degrees()):
            out.update(_two_echelon_normal_form(x.homogeneous_part(d), p))
        return out
    if x.degree() == 0:
        return {forests.TriangleGraph.make(p.labels, []): x.terms[()]}
    basics, sl, solver, offset = _two_echelon_basis(p.variant, p.labels,
                                                    x.degree())
    target = sl.echelon.reduce({sl.col_of[m]: Fraction(c)
                                for m, c in x.terms.items()})
    residue = solver.reduce({c: Fraction(v) for c, v in target.items()})
    assert all(c >= offset for c in residue)
    return {f: -residue[offset + k]
            for k, f in enumerate(basics) if offset + k in residue}


def _random_element(rng, p, degrees):
    """A rational element with up to four terms of the given degrees; most
    monomials take triples that pairwise share at most one label (a shared
    pair kills the product), with indices in random order."""
    x = Poly.zero()
    for _ in range(rng.randint(1, 4)):
        d = rng.choice(degrees)
        mono = []
        while len(mono) < d:
            t = rng.sample(p.labels, 3)
            if rng.random() < 0.1 or all(len(set(t) & set(u)) <= 1 for u in mono):
                mono.append(t)
        coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)),
                         rng.choice((1, 1, 2, 3, 4)))
        x = x + p.monomial(mono, coeff, ring=QQ)
    return x


def _random_elements(seed, count):
    rng = random.Random(seed)
    out = []
    for variant in ("tri", "twisted"):
        for n in (5, 6, 7):
            p = Presentation(variant, range(1, n + 1))
            for degrees in ((1,), (2,), (3,), (0, 1, 2, 3)):
                out.extend((p, _random_element(rng, p, degrees))
                           for _ in range(count))
    return out


def test_normal_form_matches_the_two_echelon_oracle():
    cases = _random_elements(18, 10)  # 240 elements
    assert len(cases) >= 200
    lambda_alg._certified_basis.cache_clear()
    answers = [forest_normal_form(x, p) for p, x in cases]
    assert answers == [_two_echelon_normal_form(x, p) for p, x in cases]
    # warm: every monomial's coordinates now come from the memo
    assert [forest_normal_form(x, p) for p, x in cases] == answers
    assert sum(1 for nf in answers if nf) >= 150
    assert any(c.denominator > 1 for nf in answers for c in nf.values())
    # integer elements take the same path with D = 1
    for p, x in cases[::7]:
        z = SkewPoly({m: c.numerator for m, c in x.terms.items()})
        assert forest_normal_form(z, p) == _two_echelon_normal_form(z, p)


def test_normal_form_is_linear():
    rng = random.Random(7)
    cases = _random_elements(19, 3)
    for (p, x), (q, y) in zip(cases, cases[1:]):
        if p is not q:
            continue
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        nx, ny = forest_normal_form(x, p), forest_normal_form(y, p)
        want = {f: a * nx.get(f, 0) + b * ny.get(f, 0) for f in {*nx, *ny}}
        got = forest_normal_form(x.scale(a) + y.scale(b), p)
        assert got == {f: c for f, c in want.items() if c}


def test_normal_form_does_not_depend_on_query_order():
    cases = _random_elements(20, 5)
    forward = [forest_normal_form(x, p) for p, x in cases]
    p = cases[-1][0]
    assert lambda_alg._certified_basis(p.variant, p.labels, 3)[2]
    lambda_alg._certified_basis.cache_clear()
    # the per-monomial memo went with the cache entry that holds it
    assert lambda_alg._certified_basis(p.variant, p.labels, 3)[2] == {}
    backward = [forest_normal_form(x, p) for p, x in reversed(cases)]
    assert backward[::-1] == forward


def test_memo_entry_filled_inside_a_sum_answers_alone():
    p = Presentation("tri", range(1, 8))
    lambda_alg._certified_basis.cache_clear()
    x = (Poly() + p.monomial([(1, 4, 5), (2, 3, 5)], Fraction(2, 3), ring=QQ)
         + p.monomial([(1, 2, 3), (3, 4, 5)], -1, ring=QQ)
         + p.monomial([(2, 3, 4), (2, 4, 5)], 5, ring=QQ)   # a cycle: zero
         + p.monomial([(6, 1, 2), (7, 3, 5)], Fraction(1, 4), ring=QQ))
    assert forest_normal_form(x, p) == _two_echelon_normal_form(x, p)
    memo = lambda_alg._certified_basis(p.variant, p.labels, 2)[2]
    assert set(memo) == set(x.terms)
    assert () in memo.values()  # the cycle's entry is stored, and empty
    for m in x.terms:
        alone = SkewPoly({m: Fraction(1)})
        assert forest_normal_form(alone, p) == _two_echelon_normal_form(alone, p)
    assert set(memo) == set(x.terms)


def test_normal_form_outside_the_span_raises_and_stores_nothing(monkeypatch):
    """With one basic forest dropped, its monomial is a free slice column
    outside the claimed basis: the certificate fails on every query, and no
    cache entry (so no memo) is stored."""
    p = Presentation("twisted", range(1, 7))
    x = p.monomial([(1, 4, 5), (2, 3, 5)], ring=QQ)
    caches = (lambda_alg._basic_forests, lambda_alg._degree_slice,
              lambda_alg._certified_basis)
    real = forests.enumerate_basic_forests
    monkeypatch.setattr(forests, "enumerate_basic_forests",
                        lambda labels, e: real(labels, e)[1:])
    for cache in caches:
        cache.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(AssertionError,
                               match="free slice columns are not the basic"):
                forest_normal_form(x, p)
            assert lambda_alg._certified_basis.cache_info().currsize == 0
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()
    assert forest_normal_form(x, p) == _two_echelon_normal_form(x, p)


@pytest.mark.parametrize("variant", ["tri", "twisted"])
def test_free_slice_columns_are_the_basic_monomials(variant):
    for n in (5, 6, 7):
        p = Presentation(variant, range(1, n + 1))
        for d in range((n - 1) // 2 + 1):
            sl = lambda_alg.degree_slice(p, d)
            basics = sorted(p.universe.monomial(f.sorted_edges)[0]
                            for f in forests.enumerate_basic_forests(p.labels, d))
            free = [m for m, c in sl.col_of.items()
                    if c not in sl.echelon.pivots]
            assert free == basics == sl.columns[len(sl.columns) - len(basics):]
            natural = _two_echelon_basis(variant, p.labels, d)[1]
            assert sl.quotient_dimension() == natural.quotient_dimension()


def test_degree_slice_refuses_quad():
    with pytest.raises(ValueError, match="3-index variants"):
        lambda_alg.degree_slice(Presentation("quad", range(1, 6)), 1)


def test_normal_form_worker_reproduces_the_smoke_digest():
    """The benchmark's smoke normal-form run (the worker arguments that
    recorded perfbench/expected/normal-form-smoke.sha256) answers every
    query, passes its membership check and gives the stored digest."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               FORESTALG_JOBS="1")
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "nf_worker.py"),
         "--labels", "5", "--degrees", "2", "--seed", "1", "--batch", "20",
         "--queries", "20"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["queries"] == 20 and summary["failed"] == 0
    want = root / "perfbench" / "expected" / "normal-form-smoke.sha256"
    assert summary["digest"] == want.read_text().strip()


def _reduce_report(n, variant, nf):
    return {"n": n, "variant": variant, "normal_form": [
        {"monomial": [list(e) for e in g.sorted_edges],
         "numerator": nf[g].numerator, "denominator": nf[g].denominator}
        for g in sorted(nf, key=lambda g: g.sorted_edges)]}


@pytest.mark.parametrize("variant", ["tri", "twisted"])
@pytest.mark.parametrize("element", [
    [{"monomial": [[1, 4, 5], [2, 3, 5]], "numerator": 3, "denominator": 4}],
    [{"monomial": [[5, 1, 4], [2, 3, 5]], "numerator": -2, "denominator": 3},
     {"monomial": [[1, 2, 6]], "numerator": 1, "denominator": 6},
     {"monomial": [], "numerator": 5, "denominator": 2},
     {"monomial": [[1, 2, 3], [3, 4, 5], [5, 6, 1]], "denominator": 5}],
    [{"monomial": []}],
    [{"monomial": [[1, 2, 3], [3, 2, 1]]}, {"monomial": [[2, 4, 6]]}],
    [{"monomial": [[2, 4, 6]], "numerator": 0}],
])
def test_reduce_reports_the_oracle_normal_form(capsys, variant, element):
    from forestalg.cli import main
    from forestalg.skewpoly import poly_from_json_terms

    p = Presentation(variant, range(1, 7))
    x = poly_from_json_terms(QQ, p.universe, element)
    want = _reduce_report(7, variant, _two_echelon_normal_form(x, p))
    assert main(["reduce", "--n", "7", "--variant", variant,
                 "--element", json.dumps(element)]) == 0
    assert json.loads(capsys.readouterr().out) == want


@pytest.mark.parametrize("variant", ["tri", "twisted"])
def test_coefficient_type_does_not_change_answers(capsys, variant):
    """One element written with int coefficients and again with Fraction
    coefficients: equal elements, equal slice residues and normal forms,
    and byte-identical reduce reports (the Fraction writing has denominator
    2).  Every element has a degree-0 term."""
    from forestalg.cli import main

    rng = random.Random(23)
    for n in (5, 6, 7):
        p = Presentation(variant, range(1, n + 1))
        for _ in range(4):
            shape = _random_element(rng, p, (1, 2, 3))
            ints = SkewPoly({m: rng.choice((-3, -1, 1, 2, 5))
                             for m in [(), *shape.terms]})
            fracs = SkewPoly({m: Fraction(c) for m, c in ints.terms.items()})
            assert ints == fracs
            assert all(type(c) is int for c in ints.terms.values())
            assert all(type(c) is Fraction for c in fracs.terms.values())
            for d in ints.degrees() - {0}:
                sl = lambda_alg.degree_slice(p, d)
                assert (sl.reduce(ints.homogeneous_part(d))
                        == sl.reduce(fracs.homogeneous_part(d)))
            assert forest_normal_form(ints, p) == forest_normal_form(fracs, p)
            written = ints.to_json_terms(p.universe)
            doubled = [{**t, "numerator": 2 * t["numerator"], "denominator": 2}
                       for t in written]
            reports = []
            for data in (written, doubled):
                assert main(["reduce", "--n", str(n + 1), "--variant", variant,
                             "--element", json.dumps(data)]) == 0
                reports.append(capsys.readouterr().out)
            assert reports[0] == reports[1]
            assert json.loads(reports[0])["normal_form"]  # degree 0 at least


@pytest.mark.parametrize("element", [
    [{"monomial": [[1, 2, 3], [3, 2, 1], [1, 2, 9]]}],
    [{"monomial": [[1, 2, 3]], "numerator": 1, "denominator": 0}],
    [{"monomial": [[1, 2, 7]]}],
])
def test_reduce_rejects_bad_probes(capsys, element):
    from forestalg.cli import main

    for variant in ("tri", "twisted"):
        assert main(["reduce", "--n", "7", "--variant", variant,
                     "--element", json.dumps(element)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_whitney_differential():
    tw = Presentation("twisted", range(1, 6))
    one_factor = term(tw, (1, 2, 3))
    assert whitney_differential(one_factor, tw) == Poly.one()
    x = tw.monomial([(1, 2, 3), (1, 4, 5)])
    d = whitney_differential(x, tw)
    assert d == term(tw, (1, 4, 5)) - term(tw, (1, 2, 3))
    with pytest.raises(ValueError):
        whitney_differential(x, Presentation("tri", range(1, 6)))


def test_whitney_differential_squares_to_zero():
    tw = Presentation("twisted", range(1, 8))
    rng = random.Random(6)
    fs = forests.enumerate_basic_forests(tw.labels, 3)
    for F in rng.sample(fs, 20):
        gids = tuple(sorted(tw.universe.gen_id(e)[0] for e in F.sorted_edges))
        x = SkewPoly({gids: 1})
        dd = whitney_differential(whitney_differential(x, tw), tw)
        assert not dd


def test_basic_forest_complex():
    # odd label count: contractible (all reduced homology vanishes)
    for m in (3, 5, 7):
        ranks = basic_forest_complex_homology(range(1, m + 1))
        assert all(v == 0 for v in ranks.values())
    # even label count: concentrated in the top degree with the poset rank
    from forestalg.poset_homology import OddPartitionPoset, reduced_homology
    for m in (4, 6):
        ranks = basic_forest_complex_homology(range(1, m + 1))
        top = (m - 2) // 2
        hom = {d: h for d, h, _ in reduced_homology(OddPartitionPoset(m))}
        assert ranks[top] == hom[top]
        assert all(v == 0 for e, v in ranks.items() if e != top)


def test_partition_component_dims():
    tw5 = Presentation("twisted", range(1, 6))
    dims = partition_component_dims(tw5)
    whole = tuple([tuple(range(1, 6))])
    assert dims[whole]["dimension"] == 9
    assert all(len(p) % 2 == 1 for part in dims for p in part)
    tw4 = Presentation("twisted", range(1, 5))
    dims4 = partition_component_dims(tw4)
    assert tuple([tuple(range(1, 5))]) not in dims4   # even part: dimension 0


def test_euler_characteristic():
    assert expected_euler_characteristic(3) == 1
    assert expected_euler_characteristic(5) == -3
    assert expected_euler_characteristic(7) == 45
    assert expected_euler_characteristic(9) == -1575
    for n in (4, 6, 8, 10):
        assert expected_euler_characteristic(n) == 0
    from forestalg.series import odd_square_product_poly
    for n in range(3, 10):
        poly = odd_square_product_poly(n - 1)
        value = sum(c * (-1) ** d for d, c in poly.items())
        assert value == expected_euler_characteristic(n)


def test_build_relations_api():
    p = Presentation("quad", range(1, 6))
    rels = p.relations()
    assert all(r.is_homogeneous() for r in rels)
