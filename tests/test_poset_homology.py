import random
from itertools import permutations

import pytest

from forestalg import clear_caches, poset_homology
from forestalg.forests import (TriangleGraph, basic_trees, forest_mu_key,
                               tree_statistics)
from forestalg.poset_homology import (TOP, OddPartitionPoset, _all_chains,
                                      _coarsenings, _critical_chains,
                                      _saturated_chains, _smith_homology,
                                      homology_of_bounded,
                                      interval_homology_by_sizes,
                                      keystone_cochain, make_partition,
                                      odd_partitions, reduced_homology,
                                      refines, tree_to_cycle, verify_egf_ranks,
                                      whitney_homology)


def test_poset_construction():
    assert len(OddPartitionPoset(3).elements) == 2
    assert len(OddPartitionPoset(4).elements) == 5     # singletons + 4 coarser
    assert len(OddPartitionPoset(5).elements) == 12
    p = OddPartitionPoset(5)
    assert p.top == ((1, 2, 3, 4, 5),)
    assert OddPartitionPoset(4).top is None
    assert p.rank(p.bottom) == 0 and p.rank(p.top) == 2


def test_refinement_and_covers():
    p = OddPartitionPoset(5)
    a = make_partition([(1, 2, 3), (4,), (5,)])
    assert refines(p.bottom, a) and refines(a, p.top)
    assert not refines(a, make_partition([(1, 2, 4), (3,), (5,)]))
    assert p.covers(p.bottom, a) and p.covers(a, p.top)
    assert not p.covers(p.bottom, p.top)


def test_reduced_homology_small():
    assert reduced_homology(OddPartitionPoset(1)) == [(0, 1, [])]
    assert reduced_homology(OddPartitionPoset(2)) == [(0, 1, [])]
    assert reduced_homology(OddPartitionPoset(3)) == [(1, 1, [])]
    assert reduced_homology(OddPartitionPoset(4)) == [(1, 3, [])]
    assert reduced_homology(OddPartitionPoset(5)) == [(2, 9, [])]
    assert reduced_homology(OddPartitionPoset(6)) == [(2, 45, [])]


def test_egf_report():
    rep = verify_egf_ranks(7)
    assert all(v["ok"] for v in rep.values())
    assert [rep[n]["rank"] for n in range(2, 8)] == [1, 1, 3, 9, 45, 225]


def test_interval_homology_multiplicative():
    # ranks multiply across parts (product posets)
    h33 = interval_homology_by_sizes((3, 3))
    assert [(d, h) for d, h, _ in h33 if h] == [(2, 1)]
    h53 = interval_homology_by_sizes((3, 5))
    assert [(d, h) for d, h, _ in h53 if h] == [(3, 9)]
    h551 = interval_homology_by_sizes((1, 5, 5))
    assert [(d, h) for d, h, _ in h551 if h] == [(4, 81)]
    x = make_partition([(1, 2, 3), (4, 5, 6)])
    assert interval_homology_by_sizes(
        tuple(sorted(len(part) for part in x))) == h33


def test_whitney_small():
    w5 = whitney_homology(5)
    assert w5["dims"] == {0: 1, 1: 10, 2: 9}
    assert w5["exact"]
    w3 = whitney_homology(3)
    assert w3["dims"] == {0: 1, 1: 1} and w3["exact"]
    w6 = whitney_homology(6)
    assert w6["dims"] == {0: 1, 1: 20, 2: 64, 3: 45} and w6["exact"]


def test_whitney_dims_match_skew_ring():
    # the Whitney group dimensions reproduce the twisted ring's Hilbert
    # coefficients (with the poset homology on top)
    from forestalg.lambda_alg import Presentation, hilbert_polynomial
    for n in (5, 6, 7):
        w = whitney_homology(n)
        dims = hilbert_polynomial(Presentation("twisted", range(1, n + 1)))
        for r, c in enumerate(dims):
            assert w["dims"][r] == c


def test_tree_to_cycle_basics():
    p3 = OddPartitionPoset(3)
    t = TriangleGraph.make([1, 2, 3], [(1, 2, 3)])
    cyc = tree_to_cycle(t, p3)
    assert cyc == {(): 1}
    p5 = OddPartitionPoset(5)
    t2 = TriangleGraph.make(range(1, 6), [(1, 2, 3), (3, 4, 5)])
    cyc2 = tree_to_cycle(t2, p5)
    assert len(cyc2) == 2
    assert sorted(cyc2.values()) == [-1, 1]
    with pytest.raises(ValueError):
        tree_to_cycle(TriangleGraph.make(range(1, 6), [(1, 2, 3)]), p5)


def test_five_term_image_cancels():
    # the cyclic five-term combination maps to zero on the chain level;
    # each term carries its antisymmetric normalization sign
    from forestalg.lambda_alg import Presentation
    pres = Presentation("tri", range(1, 6))
    p5 = OddPartitionPoset(5)
    word = (1, 2, 3, 4, 5)
    relation = {}
    for s in range(5):
        w = word[s:] + word[:s]
        term = pres.monomial([w[:3], w[2:5]])
        for mono, c in term.terms.items():
            relation[mono] = relation.get(mono, 0) + c
    total = {}
    for mono, coeff in relation.items():
        edges = [pres.universe.label_tuple(g) for g in mono]
        t = TriangleGraph.make(range(1, 6), edges)
        for chain, c in tree_to_cycle(t, p5).items():
            total[chain] = total.get(chain, 0) + coeff * c
    assert relation and all(v == 0 for v in total.values())


@pytest.mark.parametrize("n", [5, 7])
def test_keystone_cochain_triangular(n):
    poset = OddPartitionPoset(n)
    labels = tuple(range(1, n + 1))
    trees = [TriangleGraph.make(labels, es) for es in basic_trees(labels)]
    trees.sort(key=forest_mu_key)
    cochains = [keystone_cochain(t, poset) for t in trees]
    cycles = [tree_to_cycle(t, poset) for t in trees]
    for i, t in enumerate(trees):
        for j in range(len(trees)):
            coeff = cycles[j].get(cochains[i], 0)
            if j == i:
                assert coeff in (1, -1)
            elif j < i:
                assert coeff == 0


def test_odd_partitions_enumeration():
    parts = odd_partitions(range(1, 5))
    assert len(parts) == 5
    assert all(all(len(p) % 2 == 1 for p in pi) for pi in parts)


def test_interval_concentration():
    # every interval below a rank-r element (label budget <= 8) has free
    # homology concentrated in degree r
    for total in range(1, 9):
        for sizes in _odd_multisets(total):
            hom = interval_homology_by_sizes(tuple(sorted(sizes)))
            r = sum((s - 1) // 2 for s in sizes)
            assert all(not tor for _, _, tor in hom)
            nonzero = [(d, h) for d, h, _ in hom if h]
            assert len(nonzero) == 1 and nonzero[0][0] == r
            assert nonzero[0][1] > 0


def _odd_multisets(total):
    """Multisets of odd sizes summing to total, largest first."""
    def rec(mx, left):
        if left == 0:
            yield ()
            return
        start = min(mx, left)
        if start % 2 == 0:
            start -= 1
        for s in range(start, 0, -2):
            for rest in rec(s, left - s):
                yield (s,) + rest
    return rec(total, total)


def _all_chains_by_scan(interior, rankf):
    """The all-pairs construction of the order complex: above[i] lists every
    j after i in (rank, index) order with higher rank and i refining j."""
    order = sorted(range(len(interior)), key=lambda i: (rankf(interior[i]), i))
    above = {i: [] for i in range(len(interior))}
    for pos, i in enumerate(order):
        ri = rankf(interior[i])
        for j in order[pos + 1:]:
            if rankf(interior[j]) > ri and refines(interior[i], interior[j]):
                above[i].append(j)
    groups = {0: [()]}

    def extend(chain):
        groups.setdefault(len(chain), []).append(chain)
        for j in above[chain[-1]]:
            extend(chain + (j,))

    for i in order:
        extend((i,))
    return groups


def _interval_by_filter(sizes):
    """Interior and rank function of [bottom, top] for top with parts of the
    given sizes, by filtering all odd partitions of its labels."""
    parts, offset = [], 0
    for s in sorted(sizes):
        parts.append(tuple(range(offset + 1, offset + s + 1)))
        offset += s
    labels = tuple(range(1, offset + 1))
    top = make_partition(parts)
    bottom = make_partition([(v,) for v in labels])
    interior = [p for p in odd_partitions(labels)
                if p != bottom and p != top and refines(p, top)]
    return interior, lambda p: (offset - len(p)) // 2


def test_coarsenings_match_refinement():
    for n in range(1, 8):
        elements = odd_partitions(range(1, n + 1))
        for p in elements:
            got = list(_coarsenings(p))
            assert len(got) == len(set(got))
            assert set(got) == {q for q in elements if q != p and refines(p, q)}


@pytest.mark.parametrize("n", range(1, 9))
def test_chains_match_pair_scan(n):
    poset = OddPartitionPoset(n)
    interior = [p for p in poset.elements
                if p != poset.bottom and p != poset.top]
    assert _all_chains(interior, poset.rank) == _all_chains_by_scan(
        interior, poset.rank)


def test_interval_chains_match_pair_scan():
    # the product construction lists the interval interior in filter order,
    # so every chain group is unchanged, and the cached interval homology
    # agrees with the Smith form of the boundary matrices
    for total in range(1, 9):
        for sizes in _odd_multisets(total):
            interior, rankf = _interval_by_filter(sizes)
            groups = _all_chains_by_scan(interior, rankf)
            assert _all_chains(interior, rankf) == groups
            if any(s > 1 for s in sizes):
                assert interval_homology_by_sizes(tuple(sorted(sizes))) == \
                    _smith_homology(groups)


@pytest.mark.parametrize("n", range(1, 9))
def test_morse_matches_smith(n):
    # the n-label poset and every interval with n labels: the critical
    # chains have one length, so homology_of_bounded answers from the
    # matching, and that answer is the Smith form's
    poset = OddPartitionPoset(n)
    cases = [([p for p in poset.elements
               if p != poset.bottom and p != poset.top], poset.rank)]
    cases += [_interval_by_filter(sizes) for sizes in _odd_multisets(n)
              if any(s > 1 for s in sizes)]
    for interior, rankf in cases:
        groups = _all_chains(interior, rankf)
        assert len({len(c) for c in _critical_chains(groups)}) == 1
        assert homology_of_bounded(interior, rankf) == _smith_homology(groups)


def test_two_critical_lengths_fall_back_to_smith(monkeypatch):
    # the crown a, b < c, d and an isolated e: the order complex is a circle
    # and a point, with reduced homology Z in dimensions 0 and 1, which the
    # chain-length grading puts in degrees 2 and 3
    a, b, e, c, d = range(5)
    crown = {0: [()], 1: [(a,), (b,), (e,), (c,), (d,)],
             2: [(a, c), (a, d), (b, c), (b, d)]}
    assert sorted(_critical_chains(crown)) == [(b, d), (e,)]
    assert _smith_homology(crown) == [(2, 1, []), (3, 1, [])]
    monkeypatch.setattr(poset_homology, "_all_chains",
                        lambda interior, rankf: crown)
    assert homology_of_bounded(list("abecd"), None) == [(2, 1, []), (3, 1, [])]


@pytest.mark.parametrize("n", range(2, 8))
def test_saturated_chains_match_refinement(n):
    poset = OddPartitionPoset(n)
    R = poset.max_rank
    by_rank = {r: [] for r in range(R + 1)}
    for p in poset.elements:
        by_rank[poset.rank(p)].append(p)
    if poset.top is None:
        by_rank[R] = [TOP]
    chains = {0: [()]}
    for r in range(1, R + 1):
        chains[r] = [chain + (x,) for chain in chains[r - 1]
                     for x in by_rank[r]
                     if x is TOP or refines(chain[-1] if chain
                                            else poset.bottom, x)]
    assert _saturated_chains(poset) == chains


def test_hot_paths_do_not_scan_pairs(monkeypatch):
    def refuse(p, q):
        raise AssertionError("refines called on a hot path")

    clear_caches()
    monkeypatch.setattr(poset_homology, "refines", refuse)
    try:
        assert reduced_homology(OddPartitionPoset(7)) == [(3, 225, [])]
        assert whitney_homology(6)["exact"]
        assert [(d, h) for d, h, _ in interval_homology_by_sizes((3, 5))
                if h] == [(3, 9)]
    finally:
        clear_caches()
