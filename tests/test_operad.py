import random
from functools import lru_cache
from unittest.mock import patch

import pytest

from forestalg import acceptance, clear_caches, lambda_alg, operad
from forestalg.forests import (TernaryForest, TriangleGraph,
                               canonical_ternary_forest,
                               enumerate_basic_forests, forest_mu_key,
                               pairing, pairing_support)
from forestalg.lambda_alg import Presentation
from forestalg.operad import (CooperadMap, FiniteMap, coassociativity_check,
                              delta_f, eta_f, eta_split_roundtrip,
                              evaluate_tree, jacobi_10term_check,
                              random_composable_pair,
                              relations_map_to_relations, tau_compose,
                              triangular_pairing_certificate)
from forestalg.skewpoly import SkewPoly, ideal_slice
from skewpoly_oracle import Poly, term


F1 = FiniteMap.make({1: 101, 2: 101, 3: 101, 4: 101, 5: 102}, target=(101, 102))


def test_finite_map():
    assert F1.fiber(101) == (1, 2, 3, 4)
    g = FiniteMap.make({101: 201, 102: 201}, target=(201,))
    assert F1.compose(g).fiber(201) == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        FiniteMap.make({1: 5}, target=(4,))


def test_delta_examples():
    quad5 = Presentation("quad", range(1, 6))
    img = delta_f(F1, term(quad5, (1, 2, 3, 4)), "quad")
    # single surviving fiber term: the generator (1,2,3,4) of the fiber slot
    cm = CooperadMap(F1, "quad")
    slot = cm.slots[1]
    gid, _ = slot.universe.gen_id((1, 2, 3, 4))
    assert img == {((), (gid,), ()): 1}
    # a 3+1 split survives as the fiber generator with the attach point
    img2 = delta_f(F1, term(quad5, (1, 2, 3, 5)), "quad")
    gid2, _ = slot.universe.gen_id((1, 2, 3, 101))
    assert img2 == {((), (gid2,), ()): 1}
    # a 2+2 split dies
    assert delta_f(F1, term(quad5, (1, 2, 4, 5) if False else (1, 4, 5, 2)), "quad") \
        == delta_f(F1, term(quad5, (1, 2, 4, 5)), "quad")
    g22 = FiniteMap.make({1: 101, 2: 101, 3: 102, 4: 102}, target=(101, 102))
    quad4 = Presentation("quad", range(1, 5))
    assert delta_f(g22, term(quad4, (1, 2, 3, 4)), "quad") == {}


def test_delta_identity_map_counit():
    f = FiniteMap.make({i: 100 + i for i in range(1, 6)},
                       target=tuple(range(101, 106)))
    quad5 = Presentation("quad", range(1, 6))
    img = delta_f(f, term(quad5, (1, 2, 3, 4)), "quad")
    # all fibers are singletons: only the outer term survives, relabeled
    assert len(img) == 1
    (key, c), = img.items()
    assert c == 1 and key[0] and all(not k for k in key[1:])


def test_delta_algebra_homomorphism():
    rng = random.Random(5)
    quad = Presentation("quad", range(1, 7))
    f = FiniteMap.make({1: 101, 2: 101, 3: 101, 4: 102, 5: 102, 6: 102},
                       target=(101, 102))
    cm = CooperadMap(f, "quad")

    def tensor_mul(t1, t2):
        out = {}
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                sign = 1
                # Koszul: count crossings of odd slot entries
                for i in range(len(k1)):
                    for j in range(i):
                        sign *= (-1) ** (len(k1[i]) * len(k2[j]))
                from forestalg.skewpoly import mul_monomials
                key = []
                dead = False
                for a, b in zip(k1, k2):
                    prod = mul_monomials(a, b)
                    if prod is None:
                        dead = True
                        break
                    m, s = prod
                    key.append(m)
                    sign *= s
                if dead:
                    continue
                key = tuple(key)
                v = out.get(key, 0) + sign * c1 * c2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return out

    for _ in range(20):
        gids = rng.sample(range(len(quad.universe)), 2)
        x = Poly.generator(gids[0])
        y = Poly.generator(gids[1])
        assert cm.apply(x * y) == tensor_mul(cm.apply(x), cm.apply(y))


def test_relation_preservation():
    for flavor in ("quad", "tri"):
        assert relations_map_to_relations(F1, flavor)
        f2 = FiniteMap.make({1: 101, 2: 101, 3: 102, 4: 102, 5: 103, 6: 103},
                            target=(101, 102, 103))
        assert relations_map_to_relations(f2, flavor)


@lru_cache(maxsize=None)
def _oracle_slice(variant: str, labels: tuple, degree: int):
    p = Presentation(variant, labels)
    return ideal_slice(p.relations(), degree, p.universe)


def _zero_oracle(cm: CooperadMap, tensor: dict) -> bool:
    """tensor_is_zero_in_quotient as first written: each slot monomial is
    reduced in a Q slice of its own quad or tri relations, with no
    change of presentation."""
    acc = {}
    for key, coeff in tensor.items():
        stack = [((), coeff)]
        for pres, mono in zip(cm.slots, key):
            if mono:
                sl = _oracle_slice(pres.variant, pres.labels, len(mono))
                exp = sl.reduce(SkewPoly({mono: 1})).terms.items()
            else:
                exp = [((), 1)]
            stack = [(k + (m,), c * c2) for k, c in stack for m, c2 in exp]
        for k, c in stack:
            v = acc.get(k, 0) + c
            if v:
                acc[k] = v
            else:
                acc.pop(k, None)
    return not acc


@lru_cache(maxsize=None)
def _criterion_9_maps() -> tuple:
    """The (map, flavor) pairs of criterion 9's relation preservation, in
    call order, recorded from a run of the criterion."""
    calls = []

    def record(f, flavor="quad"):
        calls.append((f, flavor))
        return True

    with patch.object(operad, "relations_map_to_relations", record):
        acceptance.criterion_9_operad()
    assert len(calls) == 24
    return tuple(calls)


def _relation_image_keys(cm: CooperadMap) -> list:
    return sorted({key for r in cm.source.relations() for key in cm.apply(r)})


def test_slot_zero_test_matches_slice_oracle():
    nonzero = 0
    for f, flavor in _criterion_9_maps():
        cm = CooperadMap(f, flavor)
        for key in _relation_image_keys(cm):
            got = cm.tensor_is_zero_in_quotient({key: 1})
            assert got == _zero_oracle(cm, {key: 1}), (f, flavor, key)
            nonzero += not got
    assert nonzero  # the comparison is not vacuous


@pytest.mark.parametrize("flavor", ["quad", "tri"])
def test_nonzero_tensors_are_not_zero(flavor):
    f = FiniteMap.make({1: 101, 2: 101, 3: 101, 4: 101, 5: 101, 6: 102},
                       target=(101, 102))
    cm = CooperadMap(f, flavor)
    # a relation image less one of its keys that is nonzero on its own
    dropped = 0
    for r in cm.source.relations():
        image = cm.apply(r)
        for key in sorted(image):
            if not _zero_oracle(cm, {key: 1}):
                rest = {k: c for k, c in image.items() if k != key}
                assert not cm.tensor_is_zero_in_quotient(rest)
                assert not _zero_oracle(cm, rest)
                dropped += 1
                break
    assert dropped
    # a lone basic-forest monomial in the first fibre slot
    top = (101,) if flavor == "quad" else ()
    gid, _ = cm.slots[1].universe.gen_id((1, 2, 3) + top)
    lone = {((), (gid,), ()): 1}
    assert not cm.tensor_is_zero_in_quotient(lone)
    assert not _zero_oracle(cm, lone)


def test_quad_slots_require_the_span_match(monkeypatch):
    # the spans match trivially below five labels, with no quadratic relations
    monkeypatch.setattr(lambda_alg, "quad_tri_span_match", lambda n: n < 5)
    cm = CooperadMap(F1, "quad")  # its first fibre slot has 5 labels
    with pytest.raises(AssertionError, match="spans differ on 5 labels"):
        cm.tensor_is_zero_in_quotient({((), (0,), ()): 1})
    with pytest.raises(AssertionError):
        relations_map_to_relations(F1, "quad")
    # slots of at most four labels and tri slots need no span match
    small = FiniteMap.make({1: 101, 2: 101, 3: 102, 4: 102}, target=(101, 102))
    assert relations_map_to_relations(small, "quad")
    assert relations_map_to_relations(F1, "tri")


def test_relation_preservation_is_independent_of_order_and_caches():
    maps = _criterion_9_maps()
    want = []
    for f, flavor in maps:
        cm = CooperadMap(f, flavor)
        want.append(all(_zero_oracle(cm, cm.apply(r))
                        for r in cm.source.relations()))
    clear_caches()
    forward = [relations_map_to_relations(f, flavor) for f, flavor in maps]
    backward = [relations_map_to_relations(f, flavor)
                for f, flavor in reversed(maps)]
    assert forward == backward[::-1] == want


def test_coassociativity_fixed_and_singleton_fibers():
    f = FiniteMap.make({1: 101, 2: 101, 3: 102, 4: 102, 5: 102, 6: 103},
                       target=(101, 102, 103))
    g = FiniteMap.make({101: 201, 102: 201, 103: 202}, target=(201, 202))
    assert coassociativity_check(f, g)
    # singleton fibers reduce to relabeling
    f_id = FiniteMap.make({i: 100 + i for i in range(1, 6)},
                          target=tuple(range(101, 106)))
    g2 = FiniteMap.make({t: 201 for t in range(101, 106)}, target=(201,))
    assert coassociativity_check(f_id, g2)


def _coassociativity_oracle(f: FiniteMap, g: FiniteMap) -> bool:
    """coassociativity_check as first written: every Delta_(f_u) map and
    every g-fiber is rebuilt for each source generator."""
    S, T, U = f.source, f.target, g.target
    gf = f.compose(g)
    cm_f = CooperadMap(f, "quad")
    cm_g = CooperadMap(g, "quad")
    cm_gf = CooperadMap(gf, "quad")
    slot_u = {u: 1 + i for i, u in enumerate(U)}
    slot_t = {t: 1 + len(U) + i for i, t in enumerate(T)}
    nslots = 1 + len(U) + len(T)

    def add(out, k, c):
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)

    def lhs(x):
        out = {}
        for key, coeff in cm_f.apply(x).items():
            for key2, c2 in cm_g.apply(SkewPoly({key[0]: 1})).items():
                full = [()] * nslots
                full[0] = key2[0]
                for i, u in enumerate(U):
                    full[slot_u[u]] = key2[1 + i]
                for i, t in enumerate(T):
                    full[slot_t[t]] = key[1 + i]
                add(out, tuple(full), coeff * c2)
        return out

    def rhs(x):
        out = {}
        f_u_maps = {}
        for u in U:
            mapping = {s: f.mapping[s] for s in gf.fiber(u)}
            mapping[u] = u
            f_u_maps[u] = CooperadMap(
                FiniteMap.make(mapping, target=g.fiber(u) + (u,)), "quad")
        for key, coeff in cm_gf.apply(x).items():
            partial = [(key[0], {}, coeff)]
            for i, u in enumerate(U):
                cm_u = f_u_maps[u]
                new_partial = []
                for outer, fibers, c in partial:
                    for key2, c2 in cm_u.apply(SkewPoly({key[1 + i]: 1})).items():
                        fb = dict(fibers)
                        fb[("u", u)] = key2[0]
                        for t in g.fiber(u):
                            fb[("t", t)] = key2[cm_u.slot_of_target[t]]
                        if key2[cm_u.slot_of_target[u]]:
                            continue
                        new_partial.append((outer, fb, c * c2))
                partial = new_partial
            for outer, fibers, c in partial:
                full = [()] * nslots
                full[0] = outer
                for u in U:
                    full[slot_u[u]] = fibers.get(("u", u), ())
                for t in T:
                    full[slot_t[t]] = fibers.get(("t", t), ())
                add(out, tuple(full), c)
        return out

    src = Presentation("quad", S)
    return all(lhs(x) == rhs(x) for x in
               (SkewPoly({(gid,): 1}) for gid in range(len(src.universe))))


@pytest.mark.parametrize("seed", [1, 2026])
def test_coassociativity_matches_oracle(seed):
    rng = random.Random(seed)
    pairs = [random_composable_pair(rng) for _ in range(100)]
    assert ([coassociativity_check(f, g) for f, g in pairs]
            == [_coassociativity_oracle(f, g) for f, g in pairs])


def test_coassociativity_fails_on_a_flipped_fiber_map(monkeypatch):
    f = FiniteMap.make({1: 101, 2: 101, 3: 102, 4: 102, 5: 102, 6: 103},
                       target=(101, 102, 103))
    g = FiniteMap.make({101: 201, 102: 201, 103: 202}, target=(201, 202))
    apply = CooperadMap.apply

    def flipped(self, x):
        # negate Delta_(f_u) for u = 201 only
        out = apply(self, x)
        if self.f.target == (101, 102, 201):
            return {k: -c for k, c in out.items()}
        return out

    monkeypatch.setattr(CooperadMap, "apply", flipped)
    assert not coassociativity_check(f, g)
    assert not _coassociativity_oracle(f, g)


def test_eta_examples_and_splitting():
    tri = Presentation("tri", range(1, 6))
    img = eta_f(F1, term(tri, (1, 2, 3)))
    cm = CooperadMap(F1, "tri")
    gid, _ = cm.slots[1].universe.gen_id((1, 2, 3))
    assert img == {((gid,), ()): 1}
    two = FiniteMap.make({1: 101, 2: 101, 3: 102, 4: 102, 5: 102},
                         target=(101, 102))
    assert eta_f(two, term(tri, (1, 2, 3))) == {}
    # splitting round trips on random fiber tensors of basic monomials
    rng = random.Random(14)
    f = FiniteMap.make({1: 101, 2: 101, 3: 101, 4: 102, 5: 102, 6: 102,
                        7: 102, 8: 102}, target=(101, 102))
    pres_a = Presentation("tri", f.fiber(101))
    pres_b = Presentation("tri", f.fiber(102))
    for _ in range(10):
        ga = pres_a.universe.gen_id((1, 2, 3))[0]
        forest_b = rng.choice(enumerate_basic_forests(f.fiber(102), 2))
        gb = tuple(sorted(pres_b.universe.gen_id(e)[0]
                          for e in forest_b.sorted_edges))
        assert eta_split_roundtrip(f, {101: (ga,), 102: gb})


def test_tau_examples():
    G = TernaryForest.make([("n", 1, 2, 3)])
    tri3 = Presentation("tri", [1, 2, 3])
    assert tau_compose(G, term(tri3, (1, 2, 3)), [1, 2, 3]) == 1
    assert tau_compose(G, Poly.one(), [1, 2, 3]) == 0
    # two components evaluate as a signed product
    G2 = TernaryForest.make([("n", 1, 2, 3), ("n", 4, 5, 6)])
    tri6 = Presentation("tri", range(1, 7))
    x = tri6.monomial([(1, 2, 3), (4, 5, 6)])
    assert tau_compose(G2, x, range(1, 7)) in (1, -1)
    # incompatible partition
    y = tri6.monomial([(1, 2, 4), (3, 5, 6)])
    assert tau_compose(G2, y, range(1, 7)) == 0


def test_tau_agrees_with_pairing():
    rng = random.Random(21)
    labels = tuple(range(1, 8))
    pres = Presentation("tri", labels)
    for e in (1, 2, 3):
        fs = enumerate_basic_forests(labels, e)
        for F in rng.sample(fs, min(12, len(fs))):
            G = canonical_ternary_forest(F)
            for F2 in rng.sample(fs, min(8, len(fs))):
                gids = tuple(sorted(pres.universe.gen_id(ed)[0]
                                    for ed in F2.sorted_edges))
                assert pairing(G, F2) == tau_compose(
                    G, SkewPoly({gids: 1}), labels)


def test_tau_superantisymmetry():
    # swapping two children of a node rescales every evaluation by
    # (-1)^(1 + product of the children's internal-node parities)
    labels = tuple(range(1, 8))
    pres = Presentation("tri", labels)
    base = ("n", ("n", 1, 2, 3), ("n", 4, 5, 6), 7)
    swapped = ("n", ("n", 4, 5, 6), ("n", 1, 2, 3), 7)
    sign = (-1) ** (1 + 1 * 1)  # both children have one internal node
    fs = enumerate_basic_forests(labels, 3)
    rng = random.Random(9)
    hits = 0
    for F in rng.sample(fs, 60):
        gids = tuple(sorted(pres.universe.gen_id(e)[0] for e in F.sorted_edges))
        x = SkewPoly({gids: 1})
        a = evaluate_tree(base, x, labels)
        b = evaluate_tree(swapped, x, labels)
        assert b == sign * a
        hits += a != 0
    assert hits  # the comparison was not vacuous
    # leaf swap: degree-zero children, sign -1
    base2 = ("n", ("n", 1, 2, 3), 4, 5)
    swapped2 = ("n", ("n", 1, 2, 3), 5, 4)
    labels5 = tuple(range(1, 6))
    pres5 = Presentation("tri", labels5)
    for F in enumerate_basic_forests(labels5, 2):
        gids = tuple(sorted(pres5.universe.gen_id(e)[0] for e in F.sorted_edges))
        x = SkewPoly({gids: 1})
        assert evaluate_tree(swapped2, x, labels5) == -evaluate_tree(base2, x, labels5)


def test_evaluate_tree_rejects_supports_that_do_not_partition():
    labels = (1, 2, 3, 4)
    x = term(Presentation("tri", labels), (1, 2, 3))
    with pytest.raises(ValueError):
        evaluate_tree(("n", 1, 2, 3), x, labels)  # label 4 is missed
    with pytest.raises(ValueError):
        evaluate_tree(("n", 1, 2, ("n", 2, 3, 4)), x, labels)  # 2 twice
    with pytest.raises(ValueError):
        tau_compose(TernaryForest.make([("n", 1, 2, 3)]), x, labels)


def test_tau_leibniz():
    # tau(w, x, y*z) = tau(w, x, y)*z + (-1)^(|y||z|) tau(w, x, z)*y
    labels = tuple(range(1, 9))
    pres = Presentation("tri", labels)
    ty = ("n", 3, 4, 5)
    tz = ("n", 6, 7, 8)
    lhs_tree = ("n", 1, 2, TernaryForest.make([ty, tz]))
    rhs1 = TernaryForest.make([("n", 1, 2, ty), tz])
    rhs2 = TernaryForest.make([("n", 1, 2, tz), ty])
    sign = (-1) ** (1 * 1)
    fs = enumerate_basic_forests(labels, 3)
    hits = 0
    for F in fs:
        gids = tuple(sorted(pres.universe.gen_id(e)[0] for e in F.sorted_edges))
        x = SkewPoly({gids: 1})
        lhs = evaluate_tree(lhs_tree, x, labels)
        rhs = tau_compose(rhs1, x, labels) + sign * tau_compose(rhs2, x, labels)
        assert lhs == rhs
        hits += lhs != 0 or rhs != 0
    assert hits


def test_jacobi():
    rep = jacobi_10term_check()
    assert rep["rank"] == 9
    assert rep["alternating_sum_zero"]
    assert rep["kernel_dim"] == 1
    assert rep["kernel_vector_in_span"]


@lru_cache(maxsize=None)
def _pairing_matrices(n: int) -> dict:
    """{e: (basic forests in forest_mu_key order, the full matrix of
    pairing(partner i, forest j))}: the N^2 oracle."""
    labels = tuple(range(1, n))
    out = {}
    for e in range(1, len(labels) // 2 + 1):
        fs = sorted(enumerate_basic_forests(labels, e), key=forest_mu_key)
        if fs:
            partners = [canonical_ternary_forest(F) for F in fs]
            out[e] = fs, [[pairing(G, F) for F in fs] for G in partners]
    return out


def _certificate_oracle(n: int) -> dict:
    report = {"n": n, "degrees": {}, "triangular": True}
    for e, (fs, mat) in _pairing_matrices(n).items():
        ok = all(mat[i][i] in (1, -1) and not any(mat[i][:i])
                 for i in range(len(fs)))
        report["degrees"][e] = {"size": len(fs), "unit_diagonal_triangular": ok}
        if e <= 2 and len(fs) <= 16:
            report["degrees"][e]["matrix"] = mat
        report["triangular"] = report["triangular"] and ok
    return report


@pytest.mark.parametrize("n", range(2, 9))
def test_certificate_matches_oracle(n):
    assert triangular_pairing_certificate(n) == _certificate_oracle(n)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_pairing_support_is_the_nonzero_set(n):
    for fs, mat in _pairing_matrices(n).values():
        position = {F.edges: j for j, F in enumerate(fs)}
        for F, row in zip(fs, mat):
            support = list(pairing_support(canonical_ternary_forest(F)))
            assert len(set(support)) == len(support)
            found = {position[edges] for edges in support if edges in position}
            assert found == {j for j, v in enumerate(row) if v}
            assert all(row[j] in (1, -1) for j in found)


def test_certificate_fails_in_reversed_order(monkeypatch):
    class Reversed:
        def __init__(self, F):
            self.key = forest_mu_key(F)

        def __lt__(self, other):
            return other.key < self.key

    monkeypatch.setattr(operad, "forest_mu_key", Reversed)
    rep = triangular_pairing_certificate(6)
    assert rep["triangular"] is False
    assert rep["degrees"][2]["unit_diagonal_triangular"] is False


@pytest.mark.parametrize("n", [5, 6, 7])
def test_triangular_certificates(n):
    rep = triangular_pairing_certificate(n)
    assert rep["triangular"]
    if n == 5:
        assert rep["degrees"][1]["size"] == 4
