import random
from itertools import combinations
from math import factorial

import pytest

from forestalg import clear_caches, forests
from forestalg.forests import (NotBasicError, TernaryForest, TriangleGraph,
                               basic_trees, canonical_ternary_forest,
                               components, count_basic_forests,
                               enumerate_basic_forests, forest_mu_key,
                               is_basic, is_forest, keystone_insertion_order,
                               merge_ternary_forest, pairing,
                               partition_of_edges, tree_statistics)


def test_components_examples():
    g = TriangleGraph.make(range(1, 6), [(1, 2, 3)])
    assert components(g) == ((1, 2, 3), (4,), (5,))
    empty = TriangleGraph.make(range(1, 4), [])
    assert components(empty) == ((1,), (2,), (3,))


def test_display_example_fixture():
    # the seven-triangle display graph on letters i..x: components of sizes
    # 11 and 5 (direct traversal), and basic in the alphabetic order
    edges = [("t", "l", "q"), ("p", "v", "n"), ("q", "i", "k"),
             ("k", "n", "w"), ("w", "s", "x"), ("m", "j", "r"), ("r", "o", "u")]
    letters = sorted({v for e in edges for v in e})
    assert len(letters) == 16
    g = TriangleGraph.make(letters, edges)
    parts = components(g)
    sizes = sorted(len(p) for p in parts)
    assert sizes == [5, 11]
    assert ("j", "m", "o", "r", "u") in parts
    assert is_basic(g)


def test_is_forest_examples():
    assert is_forest(TriangleGraph.make(range(1, 4), [(1, 2, 3)]))
    assert not is_forest(TriangleGraph.make(range(1, 5), [(1, 2, 3), (1, 2, 4)]))
    assert not is_forest(
        TriangleGraph.make(range(1, 7), [(1, 2, 3), (3, 4, 5), (1, 5, 6)]))


def test_is_basic_examples():
    g = TriangleGraph.make(range(1, 6), [(1, 3, 4)])
    assert is_basic(g) is True     # 1 and 3 are the two smallest of {1,3,4}
    g2 = TriangleGraph.make(range(1, 6), [(1, 2, 5), (3, 4, 5)])
    assert is_basic(g2) is True
    g3 = TriangleGraph.make(range(1, 6), [(1, 4, 5), (2, 3, 5)])
    assert is_basic(g3) is False   # 1 and 2 share no triangle


def test_is_basic_matches_enumeration():
    # every edge set of at most (n - 1) // 2 triangles on n <= 7 labels,
    # cycles included, is basic exactly when the enumeration lists it
    for n in range(1, 8):
        labels = tuple(range(1, n + 1))
        triples = list(combinations(labels, 3))
        for e in range((n - 1) // 2 + 1):
            basic = set(enumerate_basic_forests(labels, e))
            for es in combinations(triples, e):
                g = TriangleGraph.make(labels, es)
                assert is_basic(g) is (g in basic), es


def test_enumeration_counts():
    assert count_basic_forests(range(1, 6), 2) == 9
    assert count_basic_forests(range(1, 7), 1) == 20
    assert count_basic_forests(range(1, 4), 1) == 1
    assert count_basic_forests(range(1, 8), 3) == 225
    assert len(basic_trees((1, 2, 3, 4, 5))) == 9


def test_enumeration_matches_egf():
    from forestalg.series import basic_forest_egf
    P = basic_forest_egf(8)
    for n in range(1, 9):
        for e in range(0, n // 2 + 1):
            want = int(P.coefficient(n, e) * factorial(n))
            assert count_basic_forests(range(1, n + 1), e) == want


def test_tree_count_recursion():
    # b(n+2) = sum over k and ordered even tripartitions of products, the
    # finite-convolution form of the counting differential equation
    def b(n):
        return len(basic_trees(tuple(range(1, n + 1))))

    for n in (1, 3, 5):
        total = 0
        rest = tuple(range(3, n + 3))
        for k in rest:
            others = tuple(x for x in rest if x != k)
            for asz in range(0, len(others) + 1, 2):
                for a_set in combinations(others, asz):
                    left = tuple(x for x in others if x not in a_set)
                    for bsz in range(0, len(left) + 1, 2):
                        for b_set in combinations(left, bsz):
                            total += (b(asz + 1) * b(bsz + 1)
                                      * b(len(left) - bsz + 1))
        assert total == b(n + 2)


def test_tree_statistics_examples():
    rank, stepchild, keystone, mu = tree_statistics((1, 2, 3), [(1, 2, 3)])
    assert (rank, stepchild, keystone, mu) == (1, (3,), (1, 2, 3), (1,))
    rank, stepchild, keystone, mu = tree_statistics(
        (1, 2, 3, 4, 5), [(1, 2, 5), (3, 4, 5)])
    assert rank == 1 and stepchild == (3, 4, 5)
    assert keystone == (3, 4, 5) and mu == (1, 1)
    # single-vertex stepchild forces keystone = root
    rank, stepchild, keystone, mu = tree_statistics(
        (1, 2, 3, 4, 5), [(1, 2, 3), (1, 4, 5)])
    assert stepchild == (3,) and keystone == (1, 2, 3)
    with pytest.raises(NotBasicError):
        tree_statistics((1, 2, 3, 4, 5), [(1, 4, 5), (2, 3, 5)])
    # the root's three sides are {1}, {2}, {3}, but removing it leaves four
    # components: 4 lies on no side, so this is no tree
    with pytest.raises(NotBasicError):
        tree_statistics((1, 2, 3, 4), [(1, 2, 3)])


def test_keystone_minimality_lemma():
    # removing the keystone of a basic tree and completing to any other
    # basic tree strictly increases the composition (trees on <= 7 vertices)
    for n in (3, 5, 7):
        labels = tuple(range(1, n + 1))
        trees = basic_trees(labels)
        for es in trees:
            _, _, keystone, mu = tree_statistics(labels, tuple(sorted(es)))
            rest = es - {keystone}
            for cand in combinations(labels, 3):
                cand = tuple(cand)
                if cand in rest:
                    continue
                new = rest | {cand}
                g = TriangleGraph.make(labels, new)
                if len(components(g)) != 1:
                    continue
                if not is_basic(g):
                    continue
                _, _, _, mu2 = tree_statistics(labels, tuple(sorted(new)))
                if new == es:
                    assert mu2 == mu
                else:
                    assert mu2 > mu


def test_pairing_examples():
    G = TernaryForest.make([("n", 1, 2, 3)])
    F = TriangleGraph.make([1, 2, 3], [(1, 2, 3)])
    assert pairing(G, F) == 1
    G2 = TernaryForest.make([("n", ("n", 1, 2, 3), 4, 5)])
    F2 = TriangleGraph.make(range(1, 6), [(1, 2, 3), (3, 4, 5)])
    assert pairing(G2, F2) == 1
    # incompatible partition
    F3 = TriangleGraph.make(range(1, 6), [(1, 2, 3)])
    G3 = TernaryForest.make([("n", 1, 2, 4)])
    with pytest.raises(ValueError):
        pairing(G3, F3)  # label sets differ
    G4 = TernaryForest.make([("n", 1, 2, 4), ("n", 3, 5, 6)])
    F4 = TriangleGraph.make(range(1, 7), [(1, 2, 3), (4, 5, 6)])
    assert pairing(G4, F4) == 0


def test_pairing_values_pm1():
    labels = tuple(range(1, 8))
    rng = random.Random(4)
    fs = enumerate_basic_forests(labels, 3)
    for F in rng.sample(fs, 30):
        G = canonical_ternary_forest(F)
        for F2 in rng.sample(fs, 10):
            assert pairing(G, F2) in (-1, 0, 1)
        assert pairing(G, F) in (-1, 1)


def test_orderings_give_distinct_chains():
    # in a forest, distinct triangle orderings induce distinct partition
    # chains, so the chain-level sign is trivially well defined
    from itertools import permutations
    labels = tuple(range(1, 8))
    rng = random.Random(8)
    for F in rng.sample(enumerate_basic_forests(labels, 3), 25):
        edges = F.sorted_edges
        seen = {}
        for perm in permutations(range(len(edges))):
            chain = tuple(
                partition_of_edges([edges[i] for i in perm[:k]], labels)
                for k in range(1, len(edges) + 1))
            assert chain not in seen
            seen[chain] = perm


def test_pairing_respects_products():
    # forests with matching component partitions pair as +- the product of
    # the per-component pairings
    labels = tuple(range(1, 8))
    rng = random.Random(2)
    fs = [f for f in enumerate_basic_forests(labels, 2)
          if len([p for p in components(f) if len(p) > 1]) == 2]
    assert fs
    for F in rng.sample(fs, 15):
        G = canonical_ternary_forest(F)
        v = pairing(G, F)
        parts = [p for p in components(F) if len(p) > 1]
        prod = 1
        for part in parts:
            sub_edges = [e for e in F.sorted_edges if set(e) <= set(part)]
            subF = TriangleGraph.make(part, sub_edges)
            subG = TernaryForest.make(
                [t for t in G.trees if set(_leaves(t)) <= set(part)])
            prod *= pairing(subG, subF)
        assert abs(v) == abs(prod) == 1


def _leaves(t):
    from forestalg.forests import tree_leaves
    return tree_leaves(t)


def test_canonical_ternary_forest_examples():
    F = TriangleGraph.make([1, 2, 3], [(1, 2, 3)])
    assert canonical_ternary_forest(F).trees == (("n", 1, 2, 3),)
    with pytest.raises(NotBasicError):
        canonical_ternary_forest(
            TriangleGraph.make(range(1, 6), [(1, 4, 5), (2, 3, 5)]))


def test_nine_by_nine_unit_triangular():
    bf = enumerate_basic_forests(range(1, 6), 2)
    bf.sort(key=forest_mu_key)
    assert len(bf) == 9
    for i, F in enumerate(bf):
        G = canonical_ternary_forest(F)
        for j, F2 in enumerate(bf):
            v = pairing(G, F2)
            if j < i:
                assert v == 0
            if j == i:
                assert v in (1, -1)


def test_merge_forest_rejects_cycles():
    with pytest.raises(ValueError):
        merge_ternary_forest(range(1, 5), [(1, 2, 3), (1, 2, 4)])


def test_keystone_order_realizes_canonical_partner():
    labels = tuple(range(1, 8))
    rng = random.Random(12)
    for F in rng.sample(enumerate_basic_forests(labels, 3), 20):
        order = keystone_insertion_order(F)
        assert sorted(order) == list(F.sorted_edges)
        G = merge_ternary_forest(labels, order)
        assert G == canonical_ternary_forest(F)


def _tripartitions_even_by_masks(items):
    """Ordered even tripartitions of items, walking all 3^n bin masks."""
    n = len(items)
    if n % 2:
        return
    for mask in range(3 ** n):
        bins = ([], [], [])
        m = mask
        for x in items:
            bins[m % 3].append(x)
            m //= 3
        if all(len(b) % 2 == 0 for b in bins):
            yield tuple(tuple(b) for b in bins)


def _basic_trees_unmemoized(vertex_set):
    """The recursion of basic_trees without any memo."""
    vs = tuple(sorted(vertex_set))
    n = len(vs)
    if n % 2 == 0:
        return []
    if n == 1:
        return [frozenset()]
    a, b = vs[0], vs[1]
    rest = vs[2:]
    out = []
    for k in rest:
        others = tuple(v for v in rest if v != k)
        for p1, p2, p3 in _tripartitions_even_by_masks(others):
            for t1 in _basic_trees_unmemoized((a,) + p1):
                for t2 in _basic_trees_unmemoized((b,) + p2):
                    for t3 in _basic_trees_unmemoized((k,) + p3):
                        out.append(t1 | t2 | t3 | {tuple(sorted((a, b, k)))})
    return out


def test_basic_trees_memo_keeps_order():
    # every component enumerate_basic_forests meets on nine labels is an odd
    # subset of them; the memoized lists agree entry for entry
    clear_caches()
    labels = tuple(range(1, 10))
    for size in range(1, 10, 2):
        for comp in combinations(labels, size):
            assert basic_trees(comp) == _basic_trees_unmemoized(comp)
    for n in range(0, 9):
        items = tuple(range(10, 10 + n))
        assert list(forests._tripartitions_even(items)) == list(
            _tripartitions_even_by_masks(items))
    fresh = basic_trees(labels)
    fresh.clear()
    assert len(basic_trees(labels)) == 11025
    assert forests._basic_trees.cache_info().currsize
    assert forests._even_tripartition_patterns.cache_info().currsize
    clear_caches()
    assert forests._basic_trees.cache_info().currsize == 0
    assert forests._even_tripartition_patterns.cache_info().currsize == 0
