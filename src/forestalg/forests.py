"""Triangle graphs and forests, the basic-forest basis machinery, ternary
forests, and the signed pairing between the two.

A triangle graph is a 3-uniform hypergraph; a monomial in 3-index generators
has one edge per factor.  Ternary forests (rooted trees, internal nodes with
exactly 3 children, leaves labeled by the vertex set) encode iterated
compositions of the odd ternary homology operation.  The basis theorem rests
on three decompositions, each written once here:

- the root split (``_root_split``): a basic tree is a point, or its two
  smallest vertices a < b share exactly one triangle {a, b, k}, whose removal
  leaves three basic trees holding a, b and k.  ``is_basic`` and
  ``tree_statistics`` recurse on it; the side at k is the stepchild, whose
  chain gives a tree's rank, composition and keystone;
- the keystone walk (``TriangleGraph.keystone_walk``): remove the keystone
  of the first component with an edge until none is left.  Its stage data
  order the basic forests (``forest_mu_key``), and its removals reversed are
  the insertion order of the canonical ternary partner
  (``keystone_insertion_order``);
- the pairing recursion (``_pair_children``): a forest's trees side by side,
  or a node's three children under one root generator.  In the
  ``forest_mu_key`` order, the pairing of basic forests with their canonical
  partners is unit upper triangular, which certifies the bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product

from .skewpoly import perm_sign


Edge = tuple  # sorted 3-tuple of labels
Tree = object  # ternary tree: leaf label, or ('n', child, child, child)


def _canon_edge(e) -> Edge:
    t = tuple(sorted(e))
    if len(t) != 3 or len(set(t)) != 3:
        raise ValueError(f"edge {e!r} is not a 3-set")
    return t


@dataclass(frozen=True)
class TriangleGraph:
    """Vertex set plus a set of 3-element edges (both canonically sorted)."""

    vertices: tuple
    edges: frozenset

    @classmethod
    def make(cls, vertices, edges) -> "TriangleGraph":
        vs = tuple(sorted(set(vertices)))
        es = frozenset(_canon_edge(e) for e in edges)
        vset = set(vs)
        for e in es:
            if not set(e) <= vset:
                raise ValueError(f"edge {e} not inside vertex set")
        return cls(vs, es)

    @property
    def sorted_edges(self) -> tuple:
        return tuple(sorted(self.edges))

    def to_json(self) -> list:
        return [list(e) for e in self.sorted_edges]

    @cached_property
    def keystone_walk(self) -> tuple:
        """The keystone-removal history of a basic forest, walked once per
        graph: for each stage, the components in order of their minimum,
        their compositions, and the keystone of the first component that has
        an edge, which the next stage removes (None at the last stage, where
        no edge is left).  Each stage's components are checked basic by
        ``tree_statistics``."""
        edges = list(self.sorted_edges)
        stages = []
        while True:
            parts = tuple(_union_find_components(self.vertices, edges))
            keystone = None
            mus = []
            for p in parts:
                _, _, ks, mu = tree_statistics(p, _edges_in(p, edges))
                mus.append(mu)
                if keystone is None:
                    keystone = ks
            stages.append((parts, tuple(mus), keystone))
            if keystone is None:
                return tuple(stages)
            edges.remove(keystone)


def _union_find_components(vertices, edges) -> list[tuple]:
    """Connected components of the hypergraph.  A part lists its vertices in
    the order of ``vertices`` and the parts come in the order of their first
    vertex, so sorted vertices give sorted parts ordered by their minimum."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        a = find(e[0])
        for v in e[1:]:
            b = find(v)
            if b != a:
                parent[b] = a
    groups: dict = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    return [tuple(g) for g in groups.values()]


def components(g: TriangleGraph) -> tuple:
    """Connected components as a partition: parts sorted, ordered by minimum."""
    return tuple(_union_find_components(g.vertices, g.edges))


def partition_of_edges(edges, vertices) -> tuple:
    return tuple(_union_find_components(
        sorted(vertices), [_canon_edge(e) for e in edges]))


def is_forest(g: TriangleGraph) -> bool:
    """No cycles, per the incidence-graph count: #components == |V| - 2|E|."""
    return len(components(g)) == len(g.vertices) - 2 * len(g.edges)


def _edges_in(part: tuple, edges) -> tuple:
    """The edges of a graph that lie in one of its components."""
    return tuple(e for e in edges if e[0] in part)


def _root_split(vertices: tuple, edges: tuple):
    """(root, sides) for a graph on sorted vertices with sorted edges, or
    None.  The root is the one triangle {a, b, k} through the two smallest
    vertices a < b; removing it must leave exactly three components, holding
    a, b and k.  ``sides`` lists them as (vertices, edges) in that order:
    components come ordered by their least vertex, so a's is first, b's is
    second exactly when b is its least vertex, and k's is third."""
    a, b = vertices[0], vertices[1]
    through = [e for e in edges if a in e and b in e]
    if len(through) != 1:
        return None
    root = through[0]
    k = next(v for v in root if v != a and v != b)
    rest = tuple(e for e in edges if e != root)
    parts = _union_find_components(vertices, rest)
    if len(parts) != 3 or parts[1][0] != b or k not in parts[2]:
        return None
    return root, tuple((p, _edges_in(p, rest)) for p in parts)


def _is_basic_tree(vertices: tuple, edges: tuple) -> bool:
    """Whether the graph is a basic tree: a point, or a root split whose
    three sides are basic trees.  Such a graph is a tree, since its sides are
    trees on 2|E_i| + 1 vertices each, joined by the root."""
    if not edges:
        return len(vertices) == 1
    split = _root_split(vertices, edges)
    return split is not None and all(_is_basic_tree(*side) for side in split[1])


def is_basic(g: TriangleGraph) -> bool:
    """Whether every component of g is a basic tree."""
    edges = g.sorted_edges
    return all(_is_basic_tree(p, _edges_in(p, edges)) for p in components(g))


# ---------------------------------------------------------------------------
# enumeration


def basic_trees(vertex_set) -> list[frozenset]:
    """All basic triangle trees spanning exactly this vertex set (edge sets)."""
    return list(_basic_trees(tuple(sorted(vertex_set))))


@lru_cache(maxsize=None)
def _basic_trees(vs: tuple) -> tuple:
    """basic_trees on a sorted vertex tuple, kept per process."""
    n = len(vs)
    if n % 2 == 0:
        return ()
    if n == 1:
        return (frozenset(),)
    a, b = vs[0], vs[1]
    rest = vs[2:]
    out = []
    for k in rest:
        others = tuple(v for v in rest if v != k)
        for p1, p2, p3 in _tripartitions_even(others):
            for t1 in _basic_trees((a,) + p1):
                for t2 in _basic_trees((b,) + p2):
                    for t3 in _basic_trees(tuple(sorted((k,) + p3))):
                        out.append(t1 | t2 | t3 | {tuple(sorted((a, b, k)))})
    return tuple(out)


def triangle_trees(vertex_set) -> list[frozenset]:
    """All triangle trees (3-uniform hypertrees) spanning exactly this vertex
    set, as edge sets: (2k+1)^(k-1) (2k-1)!! of them on 2k+1 vertices.

    A tree on (r, x, ...) is built once, from its edge {r, a, b} at r whose
    side holds x: removing that edge leaves trees on three odd parts rooted
    at r, a and b, and x is not in r's part."""
    memo: dict[tuple, list] = {}

    def rec(vs: tuple) -> list[frozenset]:
        if len(vs) == 1:
            return [frozenset()]
        if vs in memo:
            return memo[vs]
        r, x = vs[0], vs[1]
        out = []
        for a, b in combinations(vs[1:], 2):
            others = tuple(v for v in vs[1:] if v != a and v != b)
            for pr, pa, pb in _tripartitions_even(others):
                if x in pr:
                    continue
                for tr in rec((r,) + pr):
                    for ta in rec((a,) + pa):
                        for tb in rec((b,) + pb):
                            out.append(tr | ta | tb | {tuple(sorted((r, a, b)))})
        memo[vs] = out
        return out

    vs = tuple(sorted(vertex_set))
    return rec(vs) if len(vs) % 2 else []


def _tripartitions_even(items: tuple):
    """Ordered partitions of items into three (possibly empty) even-size parts."""
    for pattern in _even_tripartition_patterns(len(items)):
        yield tuple(tuple(items[i] for i in part) for part in pattern)


@lru_cache(maxsize=None)
def _even_tripartition_patterns(n: int) -> tuple:
    """_tripartitions_even of range(n): the assignments of n indices to three
    bins (index i to bin mask // 3**i % 3), in mask order, that leave every
    bin even."""
    if n % 2:
        return ()
    out = []
    for mask in range(3 ** n):
        bins = ([], [], [])
        m = mask
        for i in range(n):
            bins[m % 3].append(i)
            m //= 3
        if all(len(b) % 2 == 0 for b in bins):
            out.append(tuple(tuple(b) for b in bins))
    return tuple(out)


def enumerate_basic_forests(labels, num_edges: int) -> list[TriangleGraph]:
    """All basic forests on the label set with the given number of edges."""
    labels = tuple(sorted(set(labels)))

    def rec(remaining: tuple, edges_left: int):
        if not remaining:
            if edges_left == 0:
                yield frozenset()
            return
        first = remaining[0]
        rest = remaining[1:]
        for j in range(0, edges_left + 1):
            size = 2 * j + 1
            if size > len(remaining):
                break
            for extra in combinations(rest, size - 1):
                comp = (first,) + extra
                comp_set = set(comp)
                rem2 = tuple(v for v in rest if v not in comp_set)
                for tree in _basic_trees(comp):
                    for tail in rec(rem2, edges_left - j):
                        yield tree | tail

    return [TriangleGraph.make(labels, es) for es in rec(labels, num_edges)]


def count_basic_forests(labels, num_edges: int) -> int:
    return len(enumerate_basic_forests(labels, num_edges))


# ---------------------------------------------------------------------------
# tree statistics: root, stepchild, rank, keystone, composition


class NotBasicError(ValueError):
    pass


def tree_statistics(comp_vertices, comp_edges):
    """(rank, stepchild support, keystone triangle, composition) of a basic tree."""
    vertices = tuple(sorted(comp_vertices))
    edges = tuple(sorted(_canon_edge(e) for e in comp_edges))
    if not _is_basic_tree(vertices, edges):
        raise NotBasicError(f"tree on {vertices} is not basic")
    return _stepchild_statistics(vertices, edges)


def _stepchild_statistics(vertices: tuple, edges: tuple):
    """tree_statistics of a tree already known to be basic, down the chain
    of stepchildren (the sides at k)."""
    if not edges:
        return 0, vertices, None, ()
    root, (_, _, (sc_vs, sc_es)) = _root_split(vertices, edges)
    rank = (len(vertices) - len(sc_vs)) // 2
    _, _, sc_keystone, sc_mu = _stepchild_statistics(sc_vs, sc_es)
    keystone = root if len(sc_vs) == 1 else sc_keystone
    return rank, sc_vs, keystone, (rank,) + sc_mu


def forest_mu_key(g: TriangleGraph):
    """Sort key for the triangular pairing: the (partition, compositions)
    stage data of the whole keystone-removal history.

    Parts are ordered by their minimum; pairing vanishes across distinct
    partitions, the first stage is the composition order of the basis
    theorem, and the later stages break composition ties the same way the
    greedy reconstruction of a tree from its keystone chain does.
    """
    return tuple((parts, mus) for parts, mus, _ in g.keystone_walk)


# ---------------------------------------------------------------------------
# ternary forests


def tree_leaves(t: Tree) -> tuple:
    if isinstance(t, tuple) and t and t[0] == "n":
        out = []
        for c in t[1:]:
            out.extend(tree_leaves(c))
        return tuple(sorted(out))
    return (t,)


def tree_internal_nodes(t: Tree) -> int:
    if isinstance(t, tuple) and t and t[0] == "n":
        return 1 + sum(tree_internal_nodes(c) for c in t[1:])
    return 0


@dataclass(frozen=True)
class TernaryForest:
    """Components sorted by minimal leaf; children keep their merge order."""

    trees: tuple

    @classmethod
    def make(cls, trees) -> "TernaryForest":
        return cls(tuple(sorted(trees, key=lambda t: tree_leaves(t)[0])))

    @property
    def support(self) -> tuple:
        out = []
        for t in self.trees:
            out.extend(tree_leaves(t))
        return tuple(sorted(out))

    @property
    def internal_nodes(self) -> int:
        return sum(tree_internal_nodes(t) for t in self.trees)

    def to_json(self):
        def conv(t):
            if isinstance(t, tuple) and t and t[0] == "n":
                return [conv(c) for c in t[1:]]
            return t
        return [conv(t) for t in self.trees]


def merge_ternary_forest(labels, triangle_sequence) -> TernaryForest:
    """Ternary forest of the partition chain built by inserting triangles in
    the given order; each insertion merges three current parts, children
    ordered by the triangle's sorted vertices."""
    labels = tuple(sorted(labels))
    part_of = {v: v for v in labels}
    trees: dict = {v: v for v in labels}

    def find(v):
        while part_of[v] != v:
            part_of[v] = part_of[part_of[v]]
            v = part_of[v]
        return v

    for tri in triangle_sequence:
        a, b, c = sorted(tri)
        ra, rb, rc = find(a), find(b), find(c)
        if len({ra, rb, rc}) != 3:
            raise ValueError(f"triangle {tri} does not join three distinct parts")
        node = ("n", trees[ra], trees[rb], trees[rc])
        for r in (rb, rc):
            part_of[r] = ra
        trees[ra] = node
    roots = {find(v) for v in labels}
    return TernaryForest.make([trees[r] for r in sorted(roots)])


# ---------------------------------------------------------------------------
# the signed pairing


def _eval_sign(degrees) -> int:
    """Koszul sign for pairing a tensor of functionals with a tensor of
    elements slotwise: (-1)^(sum_{i<j} d_i d_j)."""
    total = 0
    for i in range(len(degrees)):
        for j in range(i + 1, len(degrees)):
            total += degrees[i] * degrees[j]
    return -1 if total & 1 else 1


def _pair_children(children: tuple, triangles, outer: int) -> int:
    """Sign of the pairing of a triangle sequence with trees side by side:
    a forest's trees (outer 0), or the three children of one node (outer 1),
    where exactly one triangle, the node's root generator, meets all three
    fibres.  Every other triangle lies inside one tree, and each tree gets
    as many triangles as it has internal nodes, else the value is 0.  The
    sign is the Koszul one, with slot order (outer factor, then the trees in
    order); at a node it also carries the permutation taking the sorted root
    to the fibres of its vertices."""
    supports = [set(tree_leaves(c)) for c in children]
    slots = []
    roots = []
    sub = [[] for _ in children]
    for tri in triangles:
        t = set(tri)
        inside = next((i for i, s in enumerate(supports) if t <= s), None)
        if inside is not None:
            slots.append(inside + 1)
            sub[inside].append(tri)
        elif outer and all(t & s for s in supports):
            slots.append(0)
            roots.append(tri)
        else:
            return 0  # a triangle across two fibres (or two trees) vanishes
    if len(roots) != outer:
        return 0  # no root generator, or an odd square
    if any(len(s) != tree_internal_nodes(c) for c, s in zip(children, sub)):
        return 0
    sign = perm_sign(slots) * _eval_sign([outer] + [len(s) for s in sub])
    if outer:
        sign *= perm_sign([next(i for i, s in enumerate(supports) if v in s)
                           for v in roots[0]])
    for c, s in zip(children, sub):
        if s:  # c is a node with len(s) internal nodes
            sign *= _pair_children(c[1:], s, 1)
            if not sign:
                return 0
    return sign


def pairing(G: TernaryForest, F: TriangleGraph) -> int:
    """Evaluation of the iterated ternary operation G on the forest monomial F
    (triangles in their written, i.e. sorted, order): -1, 0 or +1.

    Nonzero exactly when some insertion order of F's triangles produces the
    partition chain whose merge forest is G; the sign convention is the Koszul
    one, with slot order (outer factor, then fibers by component order).
    """
    if G.support != F.vertices:
        raise ValueError("label-set mismatch")
    if not is_forest(F):
        raise ValueError("pairing needs a forest monomial")
    return _pair_children(G.trees, F.sorted_edges, 0)


def pairing_support(G: TernaryForest):
    """The edge sets F with pairing(G, F) != 0, read off ``_pair_children``:
    F's triangles go one to each internal node of G, each taking one vertex
    from each of the node's three child leaf sets, and the value is then
    +-1.  A triangle's node is the least common ancestor of its vertices, so
    distinct picks give distinct edge sets, with no repeated triangle."""
    nodes = []
    stack = list(G.trees)
    while stack:
        t = stack.pop()
        if isinstance(t, tuple) and t and t[0] == "n":
            nodes.append(list(product(*map(tree_leaves, t[1:]))))
            stack.extend(t[1:])
    for pick in product(*nodes):
        yield frozenset(tuple(sorted(tri)) for tri in pick)


# ---------------------------------------------------------------------------
# canonical ternary forest of a basic forest


def keystone_insertion_order(F: TriangleGraph) -> tuple:
    """Triangle order whose merge forest is the canonical partner of F:
    repeatedly remove the keystone of the component holding the smallest
    vertex among components that still have an edge."""
    return tuple(ks for _, _, ks in reversed(F.keystone_walk[:-1]))


def canonical_ternary_forest(F: TriangleGraph) -> TernaryForest:
    order = keystone_insertion_order(F)
    return merge_ternary_forest(F.vertices, order)
