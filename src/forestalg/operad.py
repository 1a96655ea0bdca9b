"""The cyclic cooperad structure maps on the skew rings, their duals (the
odd ternary operation and the commutative product), the 10-term Jacobi
verification, and the triangular pairing certificate behind the basis theorem.

All operadic computation happens through evaluation: a ternary forest is a
recipe for composing the ternary operation (internal nodes) and the product
(components), and its value on a quotient-algebra element is computed by
expanding the coproduct along the corresponding label map with explicit
Koszul bookkeeping (slot order: outer factor first, then fibers by sorted
representative).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations

from .forests import (TernaryForest, _eval_sign, canonical_ternary_forest,
                      enumerate_basic_forests, forest_mu_key, pairing,
                      pairing_support, tree_internal_nodes, tree_leaves)
from . import lambda_alg
from .lambda_alg import Presentation, forest_normal_form, quad_to_tri
from .skewpoly import SkewPoly, mul_monomials, perm_sign


@dataclass(frozen=True)
class FiniteMap:
    """A total map between finite label sets, with computable fibers."""

    source: tuple
    target: tuple
    assignment: tuple  # tuple of (source label, target label) pairs

    @classmethod
    def make(cls, mapping: dict, target=None) -> "FiniteMap":
        src = tuple(sorted(mapping))
        tgt = tuple(sorted(set(mapping.values()) if target is None else set(target)))
        if set(mapping.values()) - set(tgt):
            raise ValueError("assignment leaves the target")
        return cls(src, tgt, tuple(sorted(mapping.items())))

    @cached_property
    def mapping(self) -> dict:
        return dict(self.assignment)

    def fiber(self, t) -> tuple:
        mp = self.mapping
        return tuple(s for s in self.source if mp[s] == t)

    def compose(self, g: "FiniteMap") -> "FiniteMap":
        """g after self (self: S->T, g: T->U)."""
        mp = self.mapping
        gm = g.mapping
        return FiniteMap.make({s: gm[mp[s]] for s in self.source}, g.target)


class CooperadMap:
    """The coproduct along f for one flavor of the ring.

    Slot 0 is the outer algebra; slot i >= 1 is the fiber algebra of the i-th
    target label in sorted order.  quad flavor: outer on the target labels,
    fibers on fiber + {t}; tri flavor: outer on the target labels, fibers on
    the bare fibers.  Images of monomials are single pure tensors up to sign,
    accumulated distributively for sums.
    """

    def __init__(self, f: FiniteMap, flavor: str):
        if flavor not in ("quad", "tri"):
            raise ValueError("flavor must be quad or tri")
        self.f = f
        self.flavor = flavor
        self.source = Presentation(flavor, f.source)
        tgt = f.target
        if flavor == "quad":
            self.slots = [Presentation("quad", tgt)]
            for t in tgt:
                fiber = f.fiber(t)
                if t in fiber:
                    # the attach point collides with a marked point; the slot
                    # is forced trivial (this only arises for the singleton
                    # fibers of the cyclic composition maps)
                    if len(fiber) + 1 >= 4:
                        raise ValueError(
                            "attach-point collision on a nontrivial fiber; "
                            "relabel the maps to disjoint namespaces")
                    self.slots.append(Presentation("quad", ()))
                else:
                    self.slots.append(Presentation("quad", fiber + (t,)))
        else:
            self.slots = [Presentation("tri", tgt)]
            for t in tgt:
                self.slots.append(Presentation("tri", f.fiber(t)))
        self.slot_of_target = {t: i + 1 for i, t in enumerate(tgt)}
        self.slot_labels = [set(p.universe.labels) for p in self.slots]

    def _generator_image(self, gid: int) -> list[tuple[int, int, int]]:
        """[(slot, slot gid, sign)] for one source generator."""
        tup = self.source.universe.label_tuple(gid)
        mp = self.f.mapping
        out = []
        if self.flavor == "quad":
            image = tuple(mp[x] for x in tup)
            if len(set(image)) == len(image):
                g2 = self.slots[0].universe.gen_id(image)
                if g2 is not None:
                    out.append((0, g2[0], g2[1]))
            # a target outside the image would give (t, t, t, t)
            for t in sorted(set(image)):
                slot = self.slot_of_target[t]
                ht = tuple(x if mp[x] == t else t for x in tup)
                if (len(set(ht)) == len(ht)
                        and set(ht) <= self.slot_labels[slot]):
                    g2 = self.slots[slot].universe.gen_id(ht)
                    if g2 is not None:
                        out.append((slot, g2[0], g2[1]))
        else:
            image = tuple(mp[x] for x in tup)
            k = len(set(image))
            if k == 3:
                g2 = self.slots[0].universe.gen_id(image)
                out.append((0, g2[0], g2[1]))
            elif k == 1:
                slot = self.slot_of_target[image[0]]
                g2 = self.slots[slot].universe.gen_id(tup)
                out.append((slot, g2[0], g2[1]))
        return out

    def apply(self, x: SkewPoly) -> dict[tuple, object]:
        """Image as {tuple of slot monomials: coefficient}."""
        nslots = len(self.slots)
        out: dict[tuple, object] = {}
        for mono, coeff in x.terms.items():
            terms = [(((),) * nslots, 1)]  # (slot monomials, sign)
            for gid in mono:
                images = self._generator_image(gid)
                new_terms = []
                for key, s in terms:
                    for slot, g2, sign in images:
                        prod = mul_monomials(key[slot], (g2,))
                        if prod is None:
                            continue
                        m2, s2 = prod
                        # Koszul: move the new odd generator past the later slots
                        if sum(map(len, key[slot + 1:])) & 1:
                            s2 = -s2
                        key2 = key[:slot] + (m2,) + key[slot + 1:]
                        new_terms.append((key2, s * sign * s2))
                terms = new_terms
                if not terms:
                    break
            for key, s in terms:
                v = out.get(key, 0) + coeff * s
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return out

    def tensor_is_zero_in_quotient(self, tensor: dict[tuple, object]) -> bool:
        """Expand every slot entry in basic-forest coordinates and check that
        the whole sum cancels.

        Relabelling a slot's k labels to 1..k in order keeps every generator
        id and sign, so a slot's gid tuple is already its monomial on 1..k.
        A tri slot goes straight to ``forest_normal_form`` on tri 1..k; a
        quad slot first maps through ``quad_to_tri(x, k)`` onto tri on
        1..k-1 (the substitution depends on k alone).

        Lemma.  The substitution phi of ``quad_to_tri`` maps the free quad
        exterior algebra onto the free tri one, and its kernel is the ideal
        of the linear relations (``quad_tri_span_match(k)`` first checks
        that phi kills them all, and by the lemma of
        ``lambda_alg._quad_linear_data`` their lattice is then ker phi in
        degree 1).  For k >= 5, ``quad_tri_span_match(k)`` also says
        that phi maps the quad quadratic relations onto the span of the tri
        relations.  So phi(I_quad) = I_tri, and x lies in I_quad exactly when
        phi(x) lies in I_tri.  Each slot's coordinate map is thus an
        isomorphism of its quotient onto the basic-forest span, and so is
        their tensor product: the tensor is zero in the quotient exactly
        when its coordinates cancel.  The maps preserve degree, so no Koszul
        bookkeeping arises.
        """
        quad = self.flavor == "quad"
        if quad:
            for k in sorted({pres.n for pres in self.slots}):
                if not lambda_alg.quad_tri_span_match(k):
                    raise AssertionError(f"quad/tri spans differ on {k} labels")
        tri = [Presentation("tri", range(1, pres.n if quad else pres.n + 1))
               for pres in self.slots]
        acc: dict[tuple, object] = {}
        for key, coeff in tensor.items():
            stack = [((), coeff)]
            for pres, p, mono in zip(self.slots, tri, key):
                x = SkewPoly({mono: 1})
                if quad:
                    x = quad_to_tri(x, pres.n)
                nf = forest_normal_form(x, p).items()
                stack = [(fs + (f,), c * c2) for fs, c in stack for f, c2 in nf]
            for fs, c in stack:
                v = acc.get(fs, 0) + c
                if v:
                    acc[fs] = v
                else:
                    acc.pop(fs, None)
        return not acc


@lru_cache(maxsize=None)
def _cooperad_map(f: FiniteMap, flavor: str) -> CooperadMap:
    """One CooperadMap per (map, flavor), shared by every evaluation."""
    return CooperadMap(f, flavor)


def delta_f(f: FiniteMap, x: SkewPoly, flavor: str = "quad") -> dict:
    return CooperadMap(f, flavor).apply(x)


def relations_map_to_relations(f: FiniteMap, flavor: str = "quad") -> bool:
    """Every defining relation of the source maps into the relation ideal of
    the slotwise tensor product."""
    cm = CooperadMap(f, flavor)
    for r in cm.source.relations():
        if not cm.tensor_is_zero_in_quotient(cm.apply(r)):
            return False
    return True


def random_composable_pair(rng) -> tuple[FiniteMap, FiniteMap]:
    """A random composable pair f: {1..s} -> T, g: T -> U with 4 <= s <= 7,
    |T| <= 3 and |U| <= 2, drawn from the ``random.Random`` rng in a fixed
    order (a seed gives the same pairs everywhere)."""
    ns = rng.randint(4, 7)
    nt = rng.randint(1, 3)
    nu = rng.randint(1, 2)
    fmap = {i + 1: 100 + rng.randint(1, nt) for i in range(ns)}
    tgt = tuple(100 + i for i in range(1, nt + 1))
    gmap = {t: 200 + rng.randint(1, nu) for t in tgt}
    utgt = tuple(200 + i for i in range(1, nu + 1))
    return FiniteMap.make(fmap, tgt), FiniteMap.make(gmap, utgt)


def coassociativity_check(f: FiniteMap, g: FiniteMap) -> bool:
    """(Delta_g tensor 1) Delta_f == (1 tensor product of Delta_(f_u)) after
    Delta_(g o f), on every four-index generator, with slots aligned as
    (outer, g-fibers by target label, f-fibers by middle label)."""
    if set(f.target) & set(g.target) or set(f.source) & set(g.target):
        raise ValueError("label sets must be disjoint for slot bookkeeping")
    S, T, U = f.source, f.target, g.target
    gf = f.compose(g)
    cm_f = CooperadMap(f, "quad")
    cm_g = CooperadMap(g, "quad")
    cm_gf = CooperadMap(gf, "quad")
    # final slot layout: outer U, then one slot per u (g-fiber + u), then one
    # slot per t (f-fiber + t)
    slot_u = {u: 1 + i for i, u in enumerate(U)}
    slot_t = {t: 1 + len(U) + i for i, t in enumerate(T)}
    nslots = 1 + len(U) + len(T)
    # Delta_(f_u) for each u, with its slots placed in the final layout
    f_u_maps = []
    for u in U:
        g_fiber = g.fiber(u)
        mapping = {s: f.mapping[s] for s in gf.fiber(u)}
        mapping[u] = u
        cm_u = CooperadMap(FiniteMap.make(mapping, target=g_fiber + (u,)),
                           "quad")
        places = [(slot_u[u], 0)] + [(slot_t[t], cm_u.slot_of_target[t])
                                     for t in g_fiber]
        f_u_maps.append((cm_u, places, cm_u.slot_of_target[u]))

    def lhs(x: SkewPoly) -> dict:
        out: dict[tuple, object] = {}
        for key, coeff in cm_f.apply(x).items():
            outer = key[0]  # monomial in Lambda<T>, degree <= 1 here
            inner = cm_g.apply(SkewPoly({outer: 1}))
            for key2, c2 in inner.items():
                k = key2 + key[1:]
                v = out.get(k, 0) + coeff * c2
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        return out

    def rhs(x: SkewPoly) -> dict:
        out: dict[tuple, object] = {}
        for key, coeff in cm_gf.apply(x).items():
            # apply Delta_(f_u) to each u-slot (entries have degree <= 1, so
            # at most one slot is nontrivial and no Koszul signs arise)
            partial = [([key[0]] + [()] * (nslots - 1), coeff)]
            for entry, (cm_u, places, own) in zip(key[1:], f_u_maps):
                # the fiber over u itself is the trivial algebra
                images = [(key2, c2) for key2, c2
                          in cm_u.apply(SkewPoly({entry: 1})).items()
                          if not key2[own]]
                new_partial = []
                for full, c in partial:
                    for key2, c2 in images:
                        full2 = list(full)
                        for slot, i in places:
                            full2[slot] = key2[i]
                        new_partial.append((full2, c * c2))
                partial = new_partial
            for full, c in partial:
                k = tuple(full)
                v = out.get(k, 0) + c
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        return out

    src = Presentation("quad", S)
    for gid in range(len(src.universe)):
        x = SkewPoly({(gid,): 1})
        if lhs(x) != rhs(x):
            return False
    return True


# ---------------------------------------------------------------------------
# eta and its splitting


def eta_f(f: FiniteMap, x: SkewPoly) -> dict:
    """Delta_f (tri flavor) followed by killing the outer augmentation ideal:
    keep only tensors whose outer slot is scalar."""
    cm = CooperadMap(f, "tri")
    out = {}
    for key, c in cm.apply(x).items():
        if not key[0]:
            out[key[1:]] = c
    return out


def eta_splitting(f: FiniteMap, fiber_monomials: dict) -> SkewPoly:
    """The section: include each fiber monomial into the source algebra and
    multiply in slot order."""
    return Presentation("tri", f.source).monomial(
        [Presentation("tri", f.fiber(t)).universe.label_tuple(gid)
         for t in f.target for gid in fiber_monomials.get(t, ())])


def eta_split_roundtrip(f: FiniteMap, fiber_monomials: dict) -> bool:
    """eta_f after the splitting is the identity on the given pure tensor."""
    x = eta_splitting(f, fiber_monomials)
    img = eta_f(f, x)
    want_key = tuple(tuple(fiber_monomials.get(t, ())) for t in f.target)
    return img == {want_key: 1}


# ---------------------------------------------------------------------------
# evaluation of forest functionals (the dual operad)


def _child_support(child) -> tuple:
    if isinstance(child, TernaryForest):
        return child.support
    return tree_leaves(child)


def _child_degree(child) -> int:
    if isinstance(child, TernaryForest):
        return child.internal_nodes
    return tree_internal_nodes(child)


def evaluate_tree(child, x: SkewPoly, labels: tuple):
    """Value of a (generalized) ternary-tree functional on x in the tri ring
    on the given labels; children may be labels, nodes, or whole forests
    (forests encode products fed into one input)."""
    if isinstance(child, TernaryForest):
        return evaluate_forest(child, x, labels)
    if not (isinstance(child, tuple) and child and child[0] == "n"):
        # a leaf: the algebra is trivial, take the scalar coefficient
        return x.terms.get((), 0)
    children = child[1:]
    supports = [_child_support(c) for c in children]
    return _evaluate_slots(children, supports, x, labels, outer="tau")


def evaluate_forest(G: TernaryForest, x: SkewPoly, labels: tuple):
    supports = [_child_support(t) for t in G.trees]
    return _evaluate_slots(list(G.trees), supports, x, labels, outer="pt")


def _evaluate_slots(children, supports, x: SkewPoly, labels: tuple, outer: str):
    """Expand the tri coproduct along the map sending each label to its
    child's index (1-based), pair slot 0 with tau (the top generator) or with
    the point class (1), and recurse into the fibers: slot i+1 holds child
    i's sorted support."""
    mapping = {v: i + 1 for i, sup in enumerate(supports) for v in sup}
    if len(mapping) != sum(map(len, supports)) or set(mapping) != set(labels):
        raise ValueError("children supports must partition the labels")
    top = tuple(range(1, len(children) + 1))
    cm = _cooperad_map(FiniteMap.make(mapping, top), "tri")
    outer_key = (cm.slots[0].universe.gen_id(top)[0],) if outer == "tau" else ()
    degrees = [len(outer_key)] + [_child_degree(c) for c in children]
    total = 0
    for key, coeff in cm.apply(x).items():
        if key[0] != outer_key or [len(m) for m in key[1:]] != degrees[1:]:
            continue
        value = coeff * _eval_sign(degrees)
        for c, sup, mono in zip(children, supports, key[1:]):
            v = evaluate_tree(c, SkewPoly({mono: 1}), sup)
            if not v:
                value = 0
                break
            value *= v
        total += value
    return total


def tau_compose(G: TernaryForest, x: SkewPoly, labels) -> object:
    """The composed-functional value of the ternary forest on an element of
    the tri ring on the given labels."""
    return evaluate_forest(G, x, tuple(sorted(labels)))


# ---------------------------------------------------------------------------
# the 10-term Jacobi identity


def jacobi_10term_check() -> dict:
    """Functionals tau(tau(a,b,c),d,e) over the 10 inner triples, evaluated on
    the 9-dimensional degree-2 piece on five labels: rank 9, the signed
    alternating sum vanishes, and the kernel is one-dimensional, spanned by
    the alternator's coefficient pattern."""
    from .linalg import field_rank

    labels = (1, 2, 3, 4, 5)
    pres = Presentation("tri", labels)
    basis = sorted(pres.universe.monomial(f.sorted_edges)[0]
                   for f in enumerate_basic_forests(labels, 2))

    def functional_tree(word):
        a, b, c, d, e = word
        return ("n", ("n", a, b, c), d, e)

    def row_of(tree):
        out = {}
        for i, m in enumerate(basis):
            v = evaluate_tree(tree, SkewPoly({m: 1}), labels)
            if v:
                out[i] = v
        return out

    triples = list(combinations(labels, 3))
    rows = {}
    for B in triples:
        rest = tuple(x for x in labels if x not in B)
        rows[B] = row_of(functional_tree(B + rest))
    rank = field_rank(list(rows.values()))

    # the alternating sum over all input orderings, folded onto the 10 rows
    alt: dict[int, object] = {}
    fold: dict[tuple, int] = {}
    for word in permutations(labels):
        sgn = perm_sign(word)
        tree = functional_tree(word)
        r = row_of(tree)
        for k, v in r.items():
            nv = alt.get(k, 0) + sgn * v
            if nv:
                alt[k] = nv
            else:
                alt.pop(k, None)
        # record the fold coefficient against the canonical row of its triple
        B = tuple(sorted(word[:3]))
        base = rows[B]
        if r and base:
            k0 = min(r)
            ratio = r[k0] // base[k0] if base.get(k0) else 0
            fold[B] = fold.get(B, 0) + sgn * ratio
    kernel_dim = 10 - rank
    kernel_vector_ok = False
    if any(fold.values()):
        combo: dict[int, object] = {}
        for B, c in fold.items():
            for k, v in rows[B].items():
                nv = combo.get(k, 0) + c * v
                if nv:
                    combo[k] = nv
                else:
                    combo.pop(k, None)
        kernel_vector_ok = not combo
    return {"rank": rank, "alternating_sum_zero": not alt,
            "kernel_dim": kernel_dim, "fold": {str(k): v for k, v in sorted(fold.items())},
            "kernel_vector_in_span": kernel_vector_ok}


# ---------------------------------------------------------------------------
# the triangular pairing certificate


def triangular_pairing_certificate(n: int) -> dict:
    """Order the basic forests of the tri presentation on n-1 labels by their
    partition and composition key; pair each with the canonical ternary forest
    of its partner.  The matrix must be upper triangular with a +-1 diagonal,
    which makes it a change of basis witnessing split injectivity.

    Row i is read from its partner's support (``forests.pairing_support``):
    ``pairing`` runs only on the basic forests in it, and every other entry
    is 0 by the lemma stated there."""
    labels = tuple(range(1, n))
    report = {"n": n, "degrees": {}, "triangular": True}
    for e in range(1, len(labels) // 2 + 1):
        fs = enumerate_basic_forests(labels, e)
        if not fs:
            continue
        fs.sort(key=forest_mu_key)
        position = {F.edges: j for j, F in enumerate(fs)}
        rows = []
        ok = True
        for i, F in enumerate(fs):
            G = canonical_ternary_forest(F)
            found = map(position.get, pairing_support(G))
            row = {j: pairing(G, fs[j]) for j in found if j is not None}
            if row.get(i) not in (1, -1) or any(row[j] for j in row if j < i):
                ok = False
            rows.append(row)
        report["degrees"][e] = {"size": len(fs), "unit_diagonal_triangular": ok}
        if e <= 2 and len(fs) <= 16:
            report["degrees"][e]["matrix"] = [
                [row.get(j, 0) for j in range(len(fs))] for row in rows]
        report["triangular"] = report["triangular"] and ok
    return report
