"""Triangle graphs and forests, the basic-forest basis machinery, ternary
forests, and the signed pairing between the two.

A triangle graph is a 3-uniform hypergraph; a monomial in 3-index generators
has one edge per factor.  Basic forests (every component's two smallest
vertices share a triangle, recursively) index the monomial bases everywhere in
this package.  Ternary forests (rooted trees, internal nodes with exactly 3
children, leaves labeled by the vertex set) encode iterated compositions of
the odd ternary homology operation; the pairing between the two kinds of
forests is what certifies the bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

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


def _union_find_components(vertices, edges):
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
    return [tuple(sorted(g)) for g in groups.values()]


def components(g: TriangleGraph) -> tuple:
    """Connected components as a partition: parts sorted, ordered by minimum."""
    parts = _union_find_components(g.vertices, g.edges)
    return tuple(sorted(parts, key=lambda p: p[0]))


def partition_of_edges(edges, vertices) -> tuple:
    parts = _union_find_components(vertices, [_canon_edge(e) for e in edges])
    return tuple(sorted(parts, key=lambda p: p[0]))


def is_forest(g: TriangleGraph) -> bool:
    """No cycles, per the incidence-graph count: #components == |V| - 2|E|."""
    return len(components(g)) == len(g.vertices) - 2 * len(g.edges)


def _split_edges_by_part(parts, edges):
    where = {}
    for i, p in enumerate(parts):
        for v in p:
            where[v] = i
    out = [[] for _ in parts]
    for e in edges:
        out[where[e[0]]].append(e)
    return [tuple(sorted(es)) for es in out]


def _basic_certificate(comp_vertices: tuple, comp_edges: tuple):
    """Certificate for one connected component, or None if not basic.

    Certificate: vertex label for a point, else (root_triangle, cert_a,
    cert_b, cert_k) following the recursive definition.
    """
    if not comp_edges:
        return comp_vertices[0] if len(comp_vertices) == 1 else None
    a, b = comp_vertices[0], comp_vertices[1]
    root = None
    for e in comp_edges:
        if a in e and b in e:
            if root is not None:
                return None  # two triangles through {a,b}: a cycle
            root = e
    if root is None:
        return None
    k = next(v for v in root if v != a and v != b)
    rest = tuple(e for e in comp_edges if e != root)
    parts = _union_find_components(comp_vertices, rest)
    if len(parts) != 3:
        return None
    by_part = _split_edges_by_part(parts, rest)
    cert = {}
    for p, es in zip(parts, by_part):
        sub = _basic_certificate(p, es)
        if sub is None:
            return None
        for anchor in (a, b, k):
            if anchor in p:
                cert[anchor] = (p, es, sub)
    return (root, cert[a][2], cert[b][2], cert[k][2])


def is_basic(g: TriangleGraph):
    """(verdict, certificate): per-component recursive root decomposition."""
    if not is_forest(g):
        return False, None
    parts = components(g)
    by_part = _split_edges_by_part(parts, g.sorted_edges)
    certs = []
    for p, es in zip(parts, by_part):
        c = _basic_certificate(p, es)
        if c is None:
            return False, None
        certs.append(c)
    return True, tuple(certs)


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


def _root_and_split(comp_vertices, comp_edges):
    a, b = comp_vertices[0], comp_vertices[1]
    root = next((e for e in comp_edges if a in e and b in e), None)
    if root is None:
        raise NotBasicError("two smallest vertices share no triangle")
    k = next(v for v in root if v != a and v != b)
    rest = tuple(e for e in comp_edges if e != root)
    parts = _union_find_components(comp_vertices, rest)
    by_part = _split_edges_by_part(parts, rest)
    out = {}
    for p, es in zip(parts, by_part):
        for anchor in (a, b, k):
            if anchor in p:
                out[anchor] = (p, es)
    if len(out) != 3:
        raise NotBasicError("root removal did not split into three parts")
    return root, k, out


def tree_statistics(comp_vertices, comp_edges):
    """(rank, stepchild support, keystone triangle, composition) of a basic tree."""
    comp_vertices = tuple(sorted(comp_vertices))
    comp_edges = tuple(sorted(_canon_edge(e) for e in comp_edges))
    if _basic_certificate(comp_vertices, comp_edges) is None:
        raise NotBasicError(f"tree on {comp_vertices} is not basic")
    if not comp_edges:
        return 0, comp_vertices, None, ()
    root, k, split = _root_and_split(comp_vertices, comp_edges)
    sc_vs, sc_es = split[k]
    rank = (len(comp_vertices) - len(sc_vs)) // 2
    _, _, sc_keystone, sc_mu = tree_statistics(sc_vs, sc_es)
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
    stages = []
    vertices = g.vertices
    edges = set(g.sorted_edges)
    while True:
        parts = []
        keystone = None
        for p, es in _stage_components(vertices, edges):
            _, _, ks, mu = tree_statistics(p, es)
            parts.append((p, mu))
            if keystone is None and ks is not None:
                keystone = ks
        stages.append((tuple(x[0] for x in parts), tuple(x[1] for x in parts)))
        if keystone is None:
            break
        edges.remove(keystone)
    return tuple(stages)


def _stage_components(vertices, edges):
    parts = _union_find_components(vertices, tuple(edges))
    parts = sorted(parts, key=lambda p: p[0])
    by_part = _split_edges_by_part(parts, tuple(sorted(edges)))
    return list(zip(parts, by_part))


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


def _pair_tree(tree: Tree, triangles: tuple) -> int:
    if not (isinstance(tree, tuple) and tree and tree[0] == "n"):
        return 1 if not triangles else 0
    children = tree[1:]
    supports = [set(tree_leaves(c)) for c in children]
    slots = []
    root_positions = []
    sub = ([], [], [])
    for pos, tri in enumerate(triangles):
        hits = [i for i, s in enumerate(supports) if set(tri) & s]
        inside = [i for i, s in enumerate(supports) if set(tri) <= s]
        if inside:
            slots.append(inside[0] + 1)
            sub[inside[0]].append(tri)
        elif len(hits) == 3:
            slots.append(0)
            root_positions.append(pos)
        else:
            return 0  # triangle meets exactly two fibers: image vanishes
    if len(root_positions) != 1:
        return 0  # no root generator, or an odd square
    for i, c in enumerate(children):
        if len(sub[i]) != tree_internal_nodes(c):
            return 0
    root = triangles[root_positions[0]]
    fiber_of = []
    for v in root:  # root is sorted; fiber indices form a permutation of 0,1,2
        fiber_of.append(next(i for i, s in enumerate(supports) if v in s))
    sign = perm_sign(slots) * perm_sign(fiber_of)
    for i, c in enumerate(children):
        r = _pair_tree(c, tuple(sub[i]))
        if r == 0:
            return 0
        sign *= r
    sign *= _eval_sign([1] + [len(s) for s in sub])
    return sign


def pairing(G: TernaryForest, F: TriangleGraph) -> int:
    """Evaluation of the iterated ternary operation G on the forest monomial F
    (triangles in their written, i.e. sorted, order): -1, 0 or +1.

    Nonzero exactly when some insertion order of F's triangles produces the
    partition chain whose merge forest is G; the sign convention is the Koszul
    one, with slot order (outer factor, then fibers by component order).
    """
    if tuple(sorted(G.support)) != g_vertices(F):
        raise ValueError("label-set mismatch")
    if not is_forest(F):
        raise ValueError("pairing needs a forest monomial")
    return pairing_on_sequence(G, F.sorted_edges)


def g_vertices(F: TriangleGraph) -> tuple:
    return tuple(sorted(F.vertices))


def pairing_on_sequence(G: TernaryForest, triangles: tuple) -> int:
    """Pairing against a monomial written as an explicit triangle sequence."""
    supports = [set(tree_leaves(t)) for t in G.trees]
    slots = []
    sub = [[] for _ in G.trees]
    for tri in triangles:
        inside = [i for i, s in enumerate(supports) if set(tri) <= s]
        if not inside:
            return 0
        slots.append(inside[0] + 1)
        sub[inside[0]].append(tri)
    for i, t in enumerate(G.trees):
        if len(sub[i]) != tree_internal_nodes(t):
            return 0
    sign = perm_sign(slots)
    for i, t in enumerate(G.trees):
        r = _pair_tree(t, tuple(sub[i]))
        if r == 0:
            return 0
        sign *= r
    sign *= _eval_sign([0] + [len(s) for s in sub])
    return sign


# ---------------------------------------------------------------------------
# canonical ternary forest of a basic forest


def keystone_insertion_order(F: TriangleGraph) -> tuple:
    """Triangle order whose merge forest is the canonical partner of F:
    repeatedly remove the keystone of the component holding the smallest
    vertex among components that still have an edge."""
    verdict, _ = is_basic(F)
    if not verdict:
        raise NotBasicError("canonical ternary forest needs a basic forest")
    vertices = F.vertices
    edges = set(F.sorted_edges)
    removal = []
    while edges:
        parts = _union_find_components(vertices, tuple(edges))
        parts = sorted(parts, key=lambda p: p[0])
        by_part = _split_edges_by_part(parts, tuple(sorted(edges)))
        for p, es in zip(parts, by_part):
            if es:
                _, _, keystone, _ = tree_statistics(p, es)
                removal.append(keystone)
                edges.remove(keystone)
                break
    return tuple(reversed(removal))


def canonical_ternary_forest(F: TriangleGraph) -> TernaryForest:
    order = keystone_insertion_order(F)
    return merge_ternary_forest(F.vertices, order)
