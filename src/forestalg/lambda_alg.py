"""The skew-commutative rings with forest monomial bases, in their three
presentations: four-index antisymmetric generators ("quad"), three-index
antisymmetric generators ("tri"), and three-index symmetric generators
("twisted").

Degreewise quotient dimensions are computed through the partition grading:
every relation is homogeneous for the grading by connected components of the
monomial's triangle graph, so each ideal slice splits into blocks indexed by
set partitions and only connected blocks (cached per size and relabeled) need
actual linear algebra.  A tree block is built from its own columns, the
triangle trees on its labels, and only the rows that meet them
(``_tree_block``); a block with a cycle is zero by the loose-cycle lemma of
``_assert_cyclic_block_dies``.  The quad presentation has linear relations;
those are eliminated first by a substitution onto the tri generators, which
is certified to kill every one of them, so the lattice they span is its
kernel, a direct summand (``_quad_linear_data``).  Its quadratic relations
are then compared against the tri presentation's span: equality over Q,
proved by containment in the tri span and equal rank, both by exact
elimination over Q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd, lcm

from . import forests
from .forests import TriangleGraph
from .linalg import same_rational_span
from .poset_homology import _boundary
from .rings import ZZ, integral
from .series import assemble_reachable, odd_square_product_poly
from .skewpoly import GeneratorUniverse, SkewPoly, ideal_slice, mul_monomials


VARIANTS = ("quad", "tri", "twisted")


class Presentation:
    """One of the three presentations, on an explicit label set.

    quad: generators on 4-subsets, antisymmetric; 5-term linear relations,
    the shared-3-subset quadratic family, and the 6-index 3-term family.
    tri/twisted: generators on 3-subsets (antisymmetric resp. symmetric);
    shared-edge products vanish plus the cyclic 5-term quadratic family.
    """

    def __init__(self, variant: str, labels):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.labels = tuple(sorted(labels))
        arity = 4 if variant == "quad" else 3
        self.universe = GeneratorUniverse(self.labels, arity,
                                          symmetric=(variant == "twisted"))

    @property
    def n(self) -> int:
        """Label count; the quad presentation on n labels matches the tri
        presentation on n-1 labels."""
        return len(self.labels)

    def monomial(self, index_tuples, coeff=1, ring=ZZ) -> SkewPoly:
        """coeff times the product of the generators on index_tuples, in
        order (zero when it vanishes); under ``ZZ`` a non-integral coeff is
        a ValueError."""
        if ring == ZZ:
            coeff = integral(coeff)
        got = self.universe.monomial(index_tuples)
        if got is None:
            return SkewPoly()
        mono, sign = got
        return SkewPoly({mono: sign * coeff})

    # -- relations ---------------------------------------------------------

    def relations(self) -> list[SkewPoly]:
        return _relations_cached(self.variant, self.labels)

    def linear_relations(self) -> list[SkewPoly]:
        return [r for r in self.relations() if r.degree() == 1]

    def quadratic_relations(self) -> list[SkewPoly]:
        return [r for r in self.relations() if r.degree() == 2]


@lru_cache(maxsize=None)
def _relations_cached(variant: str, labels: tuple) -> list[SkewPoly]:
    """Each relation family as its words: a relation is the sum of the
    signed monomials of its words (``GeneratorUniverse.monomial``), divided
    by its content and by the sign of its leading term.  Relations are kept
    once each, in generation order."""
    monomial = Presentation(variant, labels).universe.monomial
    seen = set()
    out: list[SkewPoly] = []

    def push(*words):
        terms: dict[tuple, int] = {}
        for word in words:
            got = monomial(word)
            if got is not None:
                m, sign = got
                v = terms.get(m, 0) + sign
                if v:
                    terms[m] = v
                else:
                    terms.pop(m, None)
        if not terms:
            return
        g = gcd(*terms.values())
        if terms[min(terms)] < 0:
            g = -g
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
        key = frozenset(terms.items())
        if key not in seen:
            seen.add(key)
            out.append(SkewPoly(terms))

    if variant == "quad":
        for five in combinations(labels, 5):
            push(*(((five[s:] + five[:s])[:4],) for s in range(5)))
        for base in combinations(labels, 3):
            rest = [x for x in labels if x not in base]
            for l, m in combinations(rest, 2):
                push((base + (l,), base + (m,)))
        for six in combinations(labels, 6):
            for i, j, k, l, m, q in permutations(six):
                # the relation is invariant under rotating the word by two
                # places: keep the rotation that comes first in this order
                if i < k and i < m:
                    push(((i, j, k, l), (l, m, q, i)),
                         ((k, l, m, q), (q, i, j, k)),
                         ((m, q, i, j), (j, k, l, m)))
        return out

    # tri / twisted: shared-edge vanishing plus the cyclic 5-term family
    for pair in combinations(labels, 2):
        rest = [x for x in labels if x not in pair]
        for k, l in combinations(rest, 2):
            push((pair + (k,), pair + (l,)))
    for five in combinations(labels, 5):
        # the relation is invariant under rotating the word by one place:
        # keep the rotation starting at the smallest label, the first one
        # in permutation order
        i = five[0]
        for j, k, l, m in permutations(five[1:]):
            push(((i, j, k), (k, l, m)), ((j, k, l), (l, m, i)),
                 ((k, l, m), (m, i, j)), ((l, m, i), (i, j, k)),
                 ((m, i, j), (j, k, l)))
    return out


# ---------------------------------------------------------------------------
# connected blocks of the partition grading


def _tree_block(p: Presentation):
    """Columns and rows of the tree block on all of p's labels (an odd
    number s = 2e+1 of them, in degree e).

    The columns are the triangle trees on the labels, as increasing gid
    tuples: the non-basic trees in increasing order, then the basic trees
    (``forests.basic_trees``) in increasing order.  The rank does not
    depend on the column order, and putting the basic trees last keeps
    every pivot off them, as in ``_degree_slice``: by the lemma of
    ``_certified_basis``, when the basic trees form a quotient basis they
    are exactly the free columns.  A row m * r meets the block only where m
    times a term t of r is a column T, so t lies in T and m = T - t: the
    rows are the distinct (relation index, T - t) over every column T and
    every term t inside it, in the order of the full slice (relation by
    relation, multipliers increasing)."""
    index = p.universe.index

    def gids(trees):
        return {tuple(sorted(index[e] for e in tree)) for tree in trees}

    basic = gids(forests.basic_trees(p.labels))
    columns = (sorted(gids(forests.triangle_trees(p.labels)) - basic)
               + sorted(basic))
    relations = p.relations()
    containing: dict[tuple, list[int]] = {}
    for i, r in enumerate(relations):
        for t in r.terms:
            containing.setdefault(t, []).append(i)
    degrees = sorted({len(t) for t in containing})
    products = set()
    for col in columns:
        for d in degrees:
            for t in combinations(col, d):
                if t in containing:
                    mult = tuple(g for g in col if g not in t)
                    products.update((i, mult) for i in containing[t])
    return columns, sorted(products)


@lru_cache(maxsize=None)
def block_dimension(variant: str, size: int, edges: int) -> tuple[int, bool]:
    """(quotient dimension, free over Z) of the connected block: monomials
    whose triangle graph spans {1..size} in one component, with the given
    edge count.

    Tree-type blocks (odd size, edges = (size-1)/2) are eliminated once over
    Q, on the triangle-tree columns and the rows ``_tree_block`` reads off
    them, the same rows in the same order as a filter over the whole degree
    slice would keep; the echelon's ``unit_pivots`` certifies freeness
    (False: undecided).  The columns put the basic trees last.  The rank,
    and so the dimension, does not depend on the column order; by the
    lemma of ``_certified_basis`` the basic trees are then exactly the
    free columns, so every pivot lies on a non-basic tree.  Which pivots
    lead with +-1 does depend on the order; in this order they all do on
    the tri blocks through nine labels and the twisted ones through
    seven.  Every other connected block consists of cyclic monomials only
    (incidence count), and those vanish over Z by the loose-cycle
    certificate below, whose rewrites have coefficients +-1.
    Blocks inside a larger label set have the same dimension by relabeling
    (the relation families are stable under label bijections).
    """
    if variant == "quad":
        raise ValueError("partition blocks exist for 3-index variants only")
    if size < 3 or edges < 1:
        # a single vertex: dimension 1 at 0 edges, nothing else
        return (1 if (size == 1 and edges == 0) else 0), True
    if 2 * edges < size - 1:
        # no connected spanning graphs at all: a connected incidence graph
        # on size + edges vertices needs 3 * edges >= size + edges - 1
        return 0, True
    if 2 * edges == size - 1:
        p = Presentation(variant, range(1, size + 1))
        columns, products = _tree_block(p)
        sl = ideal_slice(p.relations(), edges, p.universe, columns, products)
        return sl.quotient_dimension(), sl.echelon.unit_pivots
    # cyclic block: 2 * edges > size - 1, so every monomial's incidence
    # graph has a cycle, and the loose-cycle certificate makes it zero
    _assert_cyclic_block_dies(size, edges)
    return 0, True


# ---------------------------------------------------------------------------
# the cycle-killing certificate


def _first_occurrence_form(edge_list) -> tuple:
    """Deterministic relabeling by first occurrence in the sorted edge list.

    Not a true canonical form under isomorphism, only a dedup key; using a
    coarser key would merely repeat work, never change answers.
    """
    edges = sorted(tuple(sorted(e)) for e in edge_list)
    relabel: dict = {}
    for e in edges:
        for v in e:
            if v not in relabel:
                relabel[v] = len(relabel)
    return tuple(sorted(tuple(sorted(relabel[v] for v in e)) for e in edges))


def _immediate_zero(edges: tuple) -> bool:
    """Repeated factor, or two factors sharing two vertices (a relation)."""
    if len(set(edges)) != len(edges):
        return True
    return any(len(set(e1) & set(e2)) >= 2 for e1, e2 in combinations(edges, 2))


def _rewrite_children(edges: tuple):
    """Rewrite options: for each pair of factors sharing exactly one vertex
    and each orientation of the 5-term relation word containing their product,
    the four replacement monomial classes.  The monomial dies if for SOME
    option ALL four replacements die."""
    out = []
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            e1, e2 = edges[a], edges[b]
            shared = set(e1) & set(e2)
            if len(shared) != 1:
                continue
            k = shared.pop()
            p1, q1 = sorted(set(e1) - {k})
            p2, q2 = sorted(set(e2) - {k})
            rest = tuple(e for idx, e in enumerate(edges) if idx not in (a, b))
            words = set()
            for i, j in ((p1, q1), (q1, p1)):
                for l, m in ((p2, q2), (q2, p2)):
                    words.add((i, j, k, l, m))
                    words.add((l, m, k, i, j))
            for i, j, k2, l, m in sorted(words):
                children = []
                for t1, t2 in (((j, k2, l), (l, m, i)), ((k2, l, m), (m, i, j)),
                               ((l, m, i), (i, j, k2)), ((m, i, j), (j, k2, l))):
                    child = _first_occurrence_form(
                        rest + (tuple(sorted(t1)), tuple(sorted(t2))))
                    children.append(child)
                out.append(tuple(children))
    return out


_killed_classes: dict[tuple, bool] = {}


def _close_and_mark(seed_classes) -> None:
    """Least fixed point of the killing rule over the rewrite closure of the
    seeds.  The closure is finite: rewrites never add vertices or edges."""
    universe = set()
    stack = [c for c in seed_classes if c not in _killed_classes]
    children_of: dict[tuple, list] = {}
    while stack:
        cls = stack.pop()
        if cls in universe or cls in _killed_classes:
            continue
        universe.add(cls)
        if _immediate_zero(cls):
            _killed_classes[cls] = True
            continue
        kids = _rewrite_children(cls)
        children_of[cls] = kids
        for group in kids:
            for ch in group:
                if ch not in universe and ch not in _killed_classes:
                    stack.append(ch)
    changed = True
    while changed:
        changed = False
        for cls, kids in children_of.items():
            if _killed_classes.get(cls):
                continue
            for group in kids:
                if all(_killed_classes.get(ch, False) or _immediate_zero(ch)
                       for ch in group):
                    _killed_classes[cls] = True
                    changed = True
                    break


def _assert_cyclic_block_dies(size: int, edges: int) -> None:
    """Every monomial of the connected block (size, edges), 2 * edges >
    size - 1, is zero: certified through the loose cycles C_k, the k triples
    {v_i, v_(i+1), x_i} (indices mod k) on 2k labels, for
    3 <= k <= min(edges, size // 2), which suffice by this lemma.  Each C_k
    is closed once; ``_killed_classes`` keeps the result.

    Such a monomial has two factors sharing two labels (zero by the
    shared-edge relation, ``_immediate_zero``) or contains a copy of C_k.
    Proof, with cycles in the sense of Berge, *Hypergraphs*, ch. 1: the
    incidence graph of labels and factors is connected, with size + edges
    vertices and 3 * edges > size + edges - 1 edges, so it has a cycle:
    distinct labels v_1..v_k and factors E_1..E_k with v_i, v_(i+1) in E_i.
    Take k minimal; k = 2 is two factors sharing two labels.  Otherwise
    E_i meets E_(i+1) in v_(i+1) alone; let x_i be the third label of E_i.
    If x_i = v_j (j not i, i+1), E_i is a chord and closes the arcs
    v_(i+1)..v_j and v_j..v_i into cycles of lengths j - i and
    k - (j - i) + 1.  If x_i = x_j (j not i+-1, which would share two
    labels), the arcs through x_i give cycles of lengths j - i + 1 and
    k - (j - i) + 1.  All are shorter than k, so the k factors lie on 2k
    distinct labels: a copy of C_k, with k <= edges and 2k <= size.

    The ideal is two-sided and label-local (relations on a subset of the
    labels are relations on all of them, and the families are stable under
    label bijections), so C_k being zero on its own 2k labels kills every
    monomial that contains a copy of it.  A C_k that does not rewrite to
    zero would falsify the spanning theorem and raises loudly.
    """
    for k in range(3, min(edges, size // 2) + 1):
        form = _first_occurrence_form(
            [(i, (i + 1) % k, k + i) for i in range(k)])
        _close_and_mark([form])
        if not _killed_classes.get(form, False):
            raise AssertionError(f"loose cycle C_{k} did not rewrite to zero")


def assembled_dimension(variant: str, n_labels: int, degree: int) -> int:
    """Degree-d quotient dimension on n labels, assembled over the partition
    grading from cached connected-block dimensions; blocks that cannot reach
    degree d are not computed (``series.assemble_reachable``)."""
    return assemble_reachable(
        n_labels, degree, lambda s, e: block_dimension(variant, s, e)[0])


# ---------------------------------------------------------------------------
# quad presentation: linear elimination and span comparison


@lru_cache(maxsize=None)
def _quad_linear_data(n: int):
    """(substitution, certified): the substitution phi maps each quad
    generator id to a dict {tri gid: coeff}, its image in the 3-index
    generators on 1..n-1; ``certified`` says that phi kills the 5-term
    linear relation of every five-subset of {1..n}.

    A generator through n drops n.  Any other, (a, b, c, d), is solved from
    the relation of {a, b, c, d, n}: minus the images of the other four
    generators of that relation, each through n.

    Lemma.  The C(n-1, 4) relations through n each hold exactly one
    generator without n, with coefficient +-1, so their lattice L0 is a
    direct summand, complementing the generators with n.  phi sends those
    one-to-one onto the tri generators, up to sign, and kills L0 by
    construction, so ker phi = L0.  If the full linear lattice L also lies in ker phi, then
    L = L0 = ker phi, and the quotient is free on C(n-1, 3) generators.
    """
    quad = Presentation("quad", range(1, n + 1))
    tri = Presentation("tri", range(1, n))
    subst: dict[int, dict[int, int]] = {}
    for gid, tup in enumerate(quad.universe.tuples):
        if n in tup:
            tri_gid, sign = tri.universe.gen_id(tuple(x for x in tup if x != n))
            subst[gid] = {tri_gid: sign}
    for gid, tup in enumerate(quad.universe.tuples):
        if n in tup:
            continue
        a, b, c, d = tup
        expr: dict[int, int] = {}
        for w in ((b, c, d, n), (c, d, n, a), (d, n, a, b), (n, a, b, c)):
            g2, sign = quad.universe.gen_id(w)
            for tg, s2 in subst[g2].items():
                expr[tg] = expr.get(tg, 0) - sign * s2
        subst[gid] = {tg: v for tg, v in expr.items() if v}
    return subst, _kills_linear_relations(quad.universe, subst)


def _kills_linear_relations(universe: GeneratorUniverse, subst: dict) -> bool:
    """Whether ``subst`` maps the 5-term relation (the five rotations, cut
    to four indices) of every five-subset of the quad labels to 0."""
    for five in combinations(universe.labels, 5):
        image: dict[int, int] = {}
        for s in range(5):
            gid, sign = universe.gen_id((five[s:] + five[:s])[:4])
            for tg, c in subst[gid].items():
                image[tg] = image.get(tg, 0) + sign * c
        if any(image.values()):
            return False
    return True


@lru_cache(maxsize=None)
def quad_tri_span_match(n: int) -> bool:
    """The linear certificate of ``_quad_linear_data`` holds, and the
    substituted quad quadratic relations and the tri relations span the
    same degree-2 subspace over Q (``linalg.same_rational_span``); by the
    certificate's lemma this transports every dimension between the
    presentations."""
    if not _quad_linear_data(n)[1]:
        return False
    if n < 5:
        return True  # no quadratic relations on either side below five labels
    quad = Presentation("quad", range(1, n + 1))
    tri = Presentation("tri", range(1, n))
    return same_rational_span(
        [quad_to_tri(r, n).terms for r in quad.quadratic_relations()],
        [r.terms for r in tri.relations()])


# ---------------------------------------------------------------------------
# Hilbert polynomials and invariants


def hilbert_polynomial(p: Presentation) -> list[int]:
    """Quotient dimensions by degree, as a coefficient list.

    tri/twisted run on the partition-blocked slices; quad eliminates its
    linear relations first (degree 1 directly, higher degrees through the
    verified span match with the tri presentation).  The product formula
    bounds the degrees computed; callers compare the dimensions with it.
    """
    if p.variant == "quad":
        if p.n < 3:
            raise ValueError("quad presentation needs at least 3 labels")
        if not quad_tri_span_match(p.n):
            raise AssertionError("quad/tri presentations not certified to match")
        # degree 1 is free on the tri generators (``_quad_linear_data``)
        variant, m = "tri", p.n - 1
        dims = [1, len(Presentation(variant, range(1, p.n)).universe)]
    else:
        variant, m, dims = p.variant, p.n, []
    dims += [assembled_dimension(variant, m, d)
             for d in range(len(dims), max(odd_square_product_poly(m)) + 2)]
    while dims and dims[-1] == 0:
        dims.pop()
    return dims


def double_factorial(k: int) -> int:
    if k <= 0:
        return 1
    out = 1
    while k > 0:
        out *= k
        k -= 2
    return out


def expected_euler_characteristic(n: int) -> int:
    """0 for even n; (-1)^((n+1)/2) (n-2)!! (n-4)!! for odd n (the quad
    presentation on n labels)."""
    if n % 2 == 0:
        return 0
    return (-1) ** ((n + 1) // 2) * double_factorial(n - 2) * double_factorial(n - 4)


# ---------------------------------------------------------------------------
# isomorphism between the quad and tri presentations


def quad_to_tri(x: SkewPoly, n: int) -> SkewPoly:
    """Rewrite x, in the quad generators on labels {1..n}, in the
    three-index generators on labels {1..n-1}: a generator containing the
    top label n drops it, and any other is solved from its 5-term linear
    relation through n (``_quad_linear_data``)."""
    subst, _ = _quad_linear_data(n)
    out: dict[tuple, object] = {}
    for mono, c in x.terms.items():
        terms = {(): c}
        for gid in mono:
            expanded: dict[tuple, object] = {}
            for m, v in terms.items():
                for tg, s in subst[gid].items():
                    prod = mul_monomials(m, (tg,))
                    if prod is not None:
                        key, sign = prod
                        expanded[key] = expanded.get(key, 0) + sign * s * v
            terms = expanded
        for m, v in terms.items():
            out[m] = out.get(m, 0) + v
    return SkewPoly(out)


# ---------------------------------------------------------------------------
# certified forest normal forms


@lru_cache(maxsize=None)
def _basic_forests(variant: str, labels: tuple, degree: int) -> dict:
    """{monomial: basic forest} over the basic forests of this degree, in
    increasing monomial order."""
    universe = Presentation(variant, labels).universe
    return dict(sorted((universe.monomial(f.sorted_edges)[0], f)
                       for f in forests.enumerate_basic_forests(labels, degree)))


@lru_cache(maxsize=None)
def _degree_slice(variant: str, labels: tuple, degree: int):
    if variant == "quad":
        raise ValueError("degree slices apply to 3-index variants")
    p = Presentation(variant, labels)
    basics = _basic_forests(variant, labels, degree)
    columns = [m for m in p.universe.monomials(degree) if m not in basics]
    return ideal_slice(p.relations(), degree, p.universe, columns + [*basics])


def degree_slice(p: Presentation, degree: int):
    """The degree slice over Q of the relation ideal of p (cached), for
    3-index variants only.  Its columns are the other monomials in
    increasing order, then the basic-forest monomials in increasing order."""
    return _degree_slice(p.variant, p.labels, degree)


@lru_cache(maxsize=None)
def _certified_basis(variant: str, labels: tuple, degree: int):
    """Certify that the basic-forest monomials B are a quotient basis in this
    degree: B is exactly the set of free (non-pivot) columns of the degree
    slice, whose columns put B last.

    Lemma.  ``FieldEchelon`` leads each pivot row at its smallest column,
    so the smallest column of a nonzero vector of the row space is a pivot
    column, and a residue lies on the free columns.  Every monomial is
    congruent to its residue, and the free columns number the quotient
    dimension, so they always form a quotient basis.  With B last:
    - if B is a quotient basis, each earlier column c is congruent to a
      combination of B, all later than c, so the ideal holds a vector whose
      smallest column is c, and c is a pivot column;
    - a column of B is a pivot column only if its pivot row, which lies on B
      alone, is a dependence of B modulo the ideal.
    So the free columns are B exactly when B is a quotient basis, and then
    a monomial's slice residue is its coordinates over B.

    Returns ({basic monomial: forest}, slice, the per-monomial memo of
    ``forest_normal_form``, empty until queries fill it)."""
    basics = _basic_forests(variant, labels, degree)
    sl = _degree_slice(variant, labels, degree)
    pivots = sl.echelon.pivots
    if {m for m, c in sl.col_of.items() if c not in pivots} != basics.keys():
        raise AssertionError(
            f"free slice columns are not the basic monomials ({variant}, "
            f"{len(labels)} labels, degree {degree}: {len(basics)} basic, "
            f"quotient dimension {sl.quotient_dimension()})")
    return basics, sl, {}


def forest_normal_form(x: SkewPoly, p: Presentation) -> dict[TriangleGraph, object]:
    """Coordinates of x over the certified basic-forest monomial basis.

    The basic monomials are the free columns of the degree slice, so the
    slice residue of x is its coordinates.  Reduction is linear: the
    coordinates of x are the sum over its monomials m of c_m times the
    residue of m alone.  Each monomial's residue is exact and depends only on
    m and the certified basis, so it is computed once, on first use, and
    kept in a memo that lives in the ``_certified_basis`` cache entry of its
    degree (cleared with it, and bounded by the slice's column count); an
    answer does not depend on which queries came before.  With D the lcm of
    x's coefficient denominators, the integer coefficients D c_m weight the
    sum, which is divided by D once at the end.
    """
    if p.variant == "quad":
        raise ValueError("forest normal forms apply to 3-index variants")
    if not x:
        return {}
    if not x.is_homogeneous():
        out: dict = {}
        for d in sorted(x.degrees()):
            out.update(forest_normal_form(x.homogeneous_part(d), p))
        return out
    d = x.degree()
    if d == 0:
        return {TriangleGraph.make(p.labels, []): x.terms[()]}
    basics, sl, memo = _certified_basis(p.variant, p.labels, d)
    den = lcm(*(c.denominator for c in x.terms.values()))
    acc: dict[int, object] = {}
    for m, c in x.terms.items():
        pairs = memo.get(m)
        if pairs is None:
            pairs = memo[m] = tuple(
                sl.echelon.reduce({sl.col_of[m]: 1}).items())
        a = c.numerator * (den // c.denominator)
        for k, w in pairs:
            acc[k] = acc.get(k, 0) + a * w
    out = {}
    for k, v in sorted(acc.items()):
        if v:
            if den != 1 or type(v) is not int:
                v = Fraction(v, den)  # built once; an int when integral
                if v.denominator == 1:
                    v = v.numerator
            out[basics[sl.columns[k]]] = v
    return out


# ---------------------------------------------------------------------------
# the Whitney differential on forest monomials


def whitney_differential(x: SkewPoly, p: Presentation) -> SkewPoly:
    """Alternating factor-removal differential on forest monomials:
    d(g_1 ... g_l) = sum_i (-1)^(i-1) g_1 ... g_i-hat ... g_l."""
    if p.variant != "twisted":
        raise ValueError("the Whitney differential lives on the twisted variant")
    return SkewPoly(_boundary(x.terms))


def basic_forest_complex_homology(labels) -> dict[int, int]:
    """Ranks of the homology of (basic forests, Whitney differential),
    including the empty forest in degree 0."""
    labels = tuple(sorted(labels))
    p = Presentation("twisted", labels)
    max_e = (len(labels) - 1) // 2 if len(labels) % 2 else (len(labels) - 2) // 2
    bases: list[list] = []
    index: list[dict] = []
    for e in range(max_e + 1):
        monos = list(_basic_forests(p.variant, labels, e))
        bases.append(monos)
        index.append({m: i for i, m in enumerate(monos)})
    boundaries: dict[int, list[dict]] = {}
    for e in range(1, max_e + 1):
        rows = []
        for m in bases[e]:
            img = whitney_differential(SkewPoly({m: 1}), p)
            nf = forest_normal_form(img, p)
            rows.append({index[e - 1][p.universe.monomial(f.sorted_edges)[0]]: c
                         for f, c in nf.items()})
        boundaries[e] = rows
    ranks = {}
    from .linalg import field_rank
    rk = {e: field_rank(boundaries[e]) for e in boundaries}
    for e in range(max_e + 1):
        dim = len(bases[e])
        ranks[e] = dim - rk.get(e, 0) - rk.get(e + 1, 0)
    return ranks


# ---------------------------------------------------------------------------
# partition-graded dimensions


def partition_component_dims(p: Presentation) -> dict:
    """Per-partition dimensions of the basic-forest basis, with the block
    product cross-check: parts of even size force zero, and a partition's
    dimension is the product over parts of the connected-block dimensions."""
    if p.variant == "quad":
        raise ValueError("partition grading lives on 3-index variants")
    by_partition: dict[tuple, list] = {}
    max_e = len(p.labels) // 2
    for e in range(0, max_e + 1):
        for f in forests.enumerate_basic_forests(p.labels, e):
            by_partition.setdefault(forests.components(f), []).append(f)
    out = {}
    for part, fs in sorted(by_partition.items()):
        prod = 1
        for block in part:
            s = len(block)
            if s == 1:
                continue
            e = (s - 1) // 2 if s % 2 else None
            if e is None:
                prod = 0
                break
            prod *= block_dimension(p.variant, s, e)[0]
        if len(fs) != prod:
            raise AssertionError(f"partition {part}: {len(fs)} basic forests, "
                                 f"block product {prod}")
        out[part] = {"dimension": prod, "basis": fs}
    return out
