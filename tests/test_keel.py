import random
from collections import Counter

import pytest

from forestalg import keel
from forestalg.keel import (KeelRing, _grevlex_key, assembled_hbeta_dims, beta,
                            beta_twisted, betti_upper_bound,
                            bockstein_cohomology, canonical_count_report,
                            d_from_pi, hbeta_connected_block, pi_from_d)
from forestalg.linalg import BitEchelon
from forestalg.series import keel_betti_polynomial


def fs(*xs):
    return frozenset(xs)


def test_canonical_monomials_examples():
    r4 = KeelRing(4)
    assert len(r4.canonical_monomials(1)) == 5
    deg2 = r4.canonical_monomials(2)
    assert len(deg2) == 1
    ((sid, e),) = deg2[0]
    assert r4.supports[sid] == fs(1, 2, 3, 4) and e == 2
    assert KeelRing(2).canonical_monomials(1) == []


def _canonical_by_search(ring):
    """Every monomial of degree <= n-2 over the supports that passes
    is_canonical, sorted; a prefix with an overlapping pair is not extended
    (laminarity fails for every monomial it divides)."""
    out = []

    def grow(start, room, prefix):
        if ring.condition1_violation(prefix) is not None:
            return
        if ring.is_canonical(prefix):
            out.append(prefix)
        for sid in range(start, len(ring.supports)):
            for e in range(1, room + 1):
                grow(sid + 1, room - e, prefix + ((sid, e),))

    grow(0, ring.n - 2, ())
    return sorted(out)


def test_canonical_enumeration_matches_search():
    for n, size in ((4, 7), (5, 34), (6, 213)):
        ring = KeelRing(n)
        got = ring.canonical_monomials()
        assert len(got) == size
        assert got == _canonical_by_search(ring)


def test_canonical_enumeration_rejects_duplicates():
    class Doubled(KeelRing):
        def _disjoint_families(self, avail, proper=False):
            for family in super()._disjoint_families(avail, proper):
                yield family
                if avail == self.labels:
                    yield family

    with pytest.raises(AssertionError, match="duplicate canonical monomial"):
        Doubled(4).canonical_monomials()


def test_duplicate_below_the_top_is_caught():
    # a family of labels 2..n (label 1 uncovered) is a proper family of the
    # full set, so doubling it doubles a monomial and its full-set extensions
    class Doubled(KeelRing):
        def _disjoint_families(self, avail, proper=False):
            for family in super()._disjoint_families(avail, proper):
                yield family
                if avail == self.labels[1:]:
                    yield family

    for n in (4, 5):
        ring = Doubled(n)
        with pytest.raises(AssertionError,
                           match="duplicate canonical monomial"):
            ring.canonical_monomials()
        assert not ring._anchored_cache


def test_connected_block_matches_partition_grading():
    for n in range(3, 8):
        ring = KeelRing(n)
        whole = (ring.labels,)
        for degree in (None, 1, n - 2):
            assert ring.connected_block(degree) == [
                m for m in ring.canonical_monomials(degree)
                if m and ring.partition_grading(m) == whole]


def test_counts_match_ode():
    for n in range(2, 8):
        assert canonical_count_report(n)["match"]


def test_counts_are_the_degree_tally():
    # the enumeration is the oracle for the recursion on label-set size
    for n in range(2, 10):
        ring = KeelRing(n)
        counts = keel.canonical_counts(n)
        assert ring._canonical_cache is None  # counted without listing
        tally = Counter(ring.degree(m) for m in ring.canonical_monomials())
        assert canonical_count_report(n)["counts"] == counts == tally
        assert keel.canonical_counts(n) == counts
        assert list(counts) == sorted(counts)
        assert not ring._anchored_cache


def test_family_counts_depend_only_on_size():
    # the relabelling lemma, on label tuples that are not an initial segment
    ring = KeelRing(8)
    for avail in ((2, 4, 5, 7), (1, 3, 4, 6, 8), (2, 3, 5, 6, 7, 8)):
        for proper in (False, True):
            walked = Counter((deg, c, k) for _, deg, c, k
                             in ring._disjoint_families(avail, proper))
            assert walked == dict(keel.families(len(avail), proper))
        anchored = Counter(deg for _, deg in ring._anchored(avail))
        assert anchored == dict(keel.anchored(len(avail)))


def test_counts_build_no_ring(monkeypatch):
    def no_ring(n):
        raise AssertionError("the counts built a KeelRing")

    monkeypatch.setattr(keel, "KeelRing", no_ring)
    for n in range(10, 17):
        assert canonical_count_report(n)["match"]


def test_monomial_size_two_is_zero():
    r = KeelRing(5)
    assert r.monomial({fs(1, 2): 1}) is None
    assert r.monomial({fs(1, 2, 3): 0}) == ()


def test_groebner_examples():
    r5 = KeelRing(5)
    # P_S^(|S|-1) = 0
    m = r5.monomial({fs(1, 2, 3): 2})
    assert r5.reduce({m: 1}) == {}
    m45 = r5.monomial({fs(1, 2, 3, 4): 3})
    assert r5.reduce({m45: 1}) == {}
    # (bw): P_(S+i) P_S = P_(S+i)^2
    a = r5.monomial({fs(1, 2, 3, 4): 1, fs(1, 2, 3): 1})
    b = r5.monomial({fs(1, 2, 3, 4): 2})
    assert r5.reduce({a: 1, b: -1}) == {}
    # the overlap rewrite from the spec example
    x = r5.monomial({fs(1, 2, 3): 1, fs(3, 4, 5): 1})
    red = r5.reduce({x: 1})
    top = fs(1, 2, 3, 4, 5)
    want = {
        r5.monomial({fs(1, 2, 3): 1, top: 1}): 1,
        r5.monomial({fs(3, 4, 5): 1, top: 1}): 1,
        r5.monomial({top: 2}): -1,
    }
    assert red == want


def test_all_relation_families_reduce_to_zero():
    # (hrt), (bw), (bbw), (sot), (dxd) instances, times random monomials
    rng = random.Random(17)
    r = KeelRing(6)
    basis = r.canonical_monomials()

    def times(mono, extra):
        agg = dict(mono)
        for sid, e in extra:
            agg[sid] = agg.get(sid, 0) + e
        return tuple(sorted(agg.items()))

    def check_zero(poly):
        for _ in range(3):
            mult = rng.choice(basis)
            shifted = {times(m, mult): c for m, c in poly.items()}
            assert r.reduce(shifted) == {}

    # (hrt) for an overlapping pair
    S, T = fs(1, 2, 3), fs(3, 4, 5)
    U = S | T
    check_zero({
        r.monomial({S: 1, T: 1}): 1,
        r.monomial({S: 1, U: 1}): -1,
        r.monomial({T: 1, U: 1}): -1,
        r.monomial({U: 2}): 1,
    })
    # (bbw): P_(S u T)^(|S|+1) = P_(S u T)^|S| P_T for disjoint S, T
    S2, T2 = fs(1, 2), fs(3, 4, 5)
    U2 = S2 | T2
    check_zero({
        r.monomial({U2: 3}): 1,
        r.monomial({U2: 2, T2: 1}): -1,
    })
    # (sot)
    check_zero({r.monomial({fs(1, 2, 3, 4): 3}): 1})
    # (dxd) with k = 2: S0 = {6}, S1 = {1,2,3}, S2 = {4,5} is too small, use
    # S1 = {1,2,3}, S2 = {4,5,6}, S0 = empty inside S = {1..6}
    S = fs(1, 2, 3, 4, 5, 6)
    S1, T1 = fs(1, 2, 3), fs(4, 5, 6)
    e = 0 + 2 - 1
    poly = {}
    for A, sign in (((S1, T1), 1), ((S1,), -1), ((T1,), -1), ((), 1)):
        mono = {S: e + 2 - len(A)}
        for part in A:
            mono[part] = 1
        key = r.monomial(mono)
        poly[key] = poly.get(key, 0) + sign
    check_zero(poly)


def test_reduce_linear_and_idempotent():
    rng = random.Random(23)
    r = KeelRing(6)
    basis = r.canonical_monomials()
    for _ in range(10):
        m1, m2 = rng.choice(basis), rng.choice(basis)
        agg = {}
        for sid, e in list(m1) + list(m2):
            agg[sid] = agg.get(sid, 0) + e
        prod = tuple(sorted(agg.items()))
        nf = r.reduce({prod: 1})
        again = {}
        for m, c in nf.items():
            for m2_, c2 in r.reduce({m: 1}).items():
                again[m2_] = again.get(m2_, 0) + c * c2
        assert {k: v for k, v in again.items() if v} == nf


def _grevlex_less(a, b) -> bool:
    """Oracle: the pairwise grevlex comparison, walking both monomials from
    their largest support id."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return da < db
    # rightmost (largest sid) differing exponent: larger exponent loses
    ia, ib = len(a) - 1, len(b) - 1
    while ia >= 0 or ib >= 0:
        sa = a[ia][0] if ia >= 0 else -1
        sb = b[ib][0] if ib >= 0 else -1
        if sa == sb:
            ea, eb = a[ia][1], b[ib][1]
            if ea != eb:
                return ea > eb
            ia -= 1
            ib -= 1
        elif sa > sb:
            return True  # a has an entry in a later variable: a smaller
        else:
            return False
    return False


def test_grevlex_key_matches_pairwise_order():
    rng = random.Random(29)
    r = KeelRing(6)
    monos = list(r.canonical_monomials())
    for _ in range(150):
        sids = rng.sample(range(len(r.supports)), rng.randint(1, 4))
        monos.append(tuple(sorted((sid, rng.randint(1, 3)) for sid in sids)))
    keys = [_grevlex_key(m) for m in monos]
    for a, ka in zip(monos, keys):
        for b, kb in zip(monos, keys):
            assert (ka < kb) == _grevlex_less(a, b)


def test_beta_examples():
    r = KeelRing(5)
    # degree-one triples are beta-closed
    assert beta(r, {r.monomial({fs(1, 2, 3): 1}): 1}) == {}
    assert beta(r, {(): 1}) == {}
    # beta of a four-index class equals the overlapping product
    lhs = beta(r, {r.monomial({fs(1, 2, 3, 4): 1}): 1})
    rhs = r.reduce({r.monomial({fs(1, 2, 3): 1, fs(2, 3, 4): 1}): 1}, mod2=True)
    assert lhs == rhs != {}


def test_hbeta_blocks():
    assert hbeta_connected_block(3) == ((1, 1),)
    assert hbeta_connected_block(4) == ()
    assert hbeta_connected_block(5) == ((2, 9),)
    assert hbeta_connected_block(6) == ()


def test_bockstein_dims_match_mod2():
    from forestalg.series import odd_square_product_poly
    for n in range(2, 7):
        got = bockstein_cohomology(n)
        formula = odd_square_product_poly(n)
        assert got == {d: c for d, c in formula.items() if c}


def test_bockstein_block_multiplicative():
    # a two-part block computed directly matches the tensor product rule
    r = KeelRing(6)
    part = ((1, 2, 3), (4, 5, 6))
    block = [m for m in r.canonical_monomials()
             if m and r.partition_grading(m) == part]
    layers = {}
    for m in block:
        layers.setdefault(r.degree(m), []).append(m)
    index = {d: {m: i for i, m in enumerate(sorted(ms))}
             for d, ms in layers.items()}
    ranks = {}
    for d, ms in layers.items():
        ech = BitEchelon()
        for m in sorted(ms):
            row = 0
            for mm, c in beta(r, {m: 1}).items():
                if c % 2:
                    row |= 1 << index[d + 1][mm]
            ech.add(row)
        ranks[d] = ech.rank
    dims = {d: len(layers[d]) - ranks.get(d, 0) - ranks.get(d - 1, 0)
            for d in layers}
    dims = {d: v for d, v in dims.items() if v}
    assert dims == {2: 1}       # degree 1+1, dimension 1*1


def test_twisted_bockstein():
    assert bockstein_cohomology(3, twisted=True) == {}
    assert bockstein_cohomology(5, twisted=True) == {}
    assert sum(bockstein_cohomology(4, twisted=True).values()) == 3
    assert sum(bockstein_cohomology(6, twisted=True).values()) == 45


def test_betti_upper_bound():
    rep4 = betti_upper_bound(4)
    assert rep4["equal"] and rep4["hbeta"] == {0: 1, 1: 4}
    rep6 = betti_upper_bound(6)
    assert rep6["equal"] and rep6["hbeta"] == {0: 1, 1: 20, 2: 64}
    rep2 = betti_upper_bound(2)
    assert rep2["equal"] and rep2["hbeta"] == {0: 1}


def test_partition_grading():
    r = KeelRing(6)
    m = r.monomial({fs(1, 2, 3): 1, fs(3, 4, 5): 1})
    assert r.partition_grading(m) == ((1, 2, 3, 4, 5), (6,))
    m2 = r.monomial({fs(1, 2, 3): 1, fs(4, 5, 6): 1})
    assert r.partition_grading(m2) == ((1, 2, 3), (4, 5, 6))
    assert r.partition_grading(()) == tuple((i,) for i in range(1, 7))
    # canonical monomials never produce size-2 parts
    for m in r.canonical_monomials():
        assert all(len(p) != 2 for p in r.partition_grading(m))


def test_change_of_basis():
    n = 4
    # size-two supports vanish after the round trip through the ring
    x = pi_from_d(n, {fs(1, 2): 1})
    assert x  # nonzero as a formal sum
    # round trip D -> Pi -> D is the identity (Moebius inversion)
    rng = random.Random(31)
    subsets = [fs(*s) for s in [(1, 2), (1, 3), (2, 3, 4), (1, 2, 3), (1, 2, 3, 4)]]
    vec = {s: rng.randint(-3, 3) for s in subsets}
    back = d_from_pi(n, pi_from_d(n, vec))
    assert back == {s: c for s, c in vec.items() if c}
    # degree-one dimension in the inclusion-sum basis
    assert len(KeelRing(4).canonical_monomials(1)) == 2 ** 4 - 6 - 4 - 1
    with pytest.raises(ValueError):
        pi_from_d(4, {fs(0, 1): 1})


def test_keel_betti_vs_counts():
    for n in (5, 6):
        counts = {}
        r = KeelRing(n)
        for m in r.canonical_monomials():
            counts[r.degree(m)] = counts.get(r.degree(m), 0) + 1
        assert counts == {k: v for k, v in keel_betti_polynomial(n).items() if v}
