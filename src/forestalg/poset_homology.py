"""The poset of odd set partitions: reduced homology of the (shifted) chain
complex, Whitney homology with its exact sequence, and the alternating-sum map
from triangle trees to cycles.

Chains are (bottom < x_1 < ... < x_r < top) with r interior elements, graded
in degree r+1; the differential drops interior elements with alternating
signs.  When the poset lacks a top element one is adjoined (shifting degrees
by one).  Interval homology caches by the multiset of part sizes, since an
interval below a partition is a product of smaller odd-partition posets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

from .forests import TriangleGraph, keystone_insertion_order, partition_of_edges
from .linalg import kernel_basis_fast, smith_divisors
from .skewpoly import perm_sign


Partition = tuple  # tuple of sorted tuples, ordered by minimum


def make_partition(parts) -> Partition:
    return tuple(sorted((tuple(sorted(p)) for p in parts), key=lambda p: p[0]))


def odd_partitions(labels) -> list[Partition]:
    """All partitions of the label set with every part of odd size."""
    labels = tuple(sorted(labels))

    def rec(remaining: tuple):
        if not remaining:
            yield ()
            return
        first = remaining[0]
        rest = remaining[1:]
        for k in range(0, len(rest) + 1, 2):
            for extra in combinations(rest, k):
                part = (first,) + extra
                chosen = set(extra)
                left = tuple(x for x in rest if x not in chosen)
                for tail in rec(left):
                    yield (part,) + tail

    return [make_partition(p) for p in rec(labels)]


def refines(p: Partition, q: Partition) -> bool:
    """p <= q in refinement order: every part of p lies inside a part of q."""
    where = {}
    for i, part in enumerate(q):
        for v in part:
            where[v] = i
    for part in p:
        i = where[part[0]]
        if any(where[v] != i for v in part[1:]):
            return False
    return True


class OddPartitionPoset:
    """All odd partitions of {1..n} under refinement, bottom = singletons.

    A top element exists exactly when n is odd (the one-part partition);
    homology routines adjoin one otherwise.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.labels = tuple(range(1, n + 1))
        self.elements = sorted(odd_partitions(self.labels),
                               key=lambda p: (-len(p), p))
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.bottom = make_partition([(v,) for v in self.labels])
        self.top = make_partition([self.labels]) if n % 2 == 1 else None

    def rank(self, p: Partition) -> int:
        return (self.n - len(p)) // 2

    @property
    def max_rank(self) -> int:
        """Rank of the top element, counting an adjoined one."""
        if self.top is not None:
            return self.rank(self.top)
        return max(self.rank(p) for p in self.elements) + 1

    def covers(self, p: Partition, q: Partition) -> bool:
        return self.rank(q) == self.rank(p) + 1 and refines(p, q)


# ---------------------------------------------------------------------------
# chain complexes of bounded posets


@lru_cache(maxsize=None)
def _index_groupings(k: int) -> tuple:
    """The odd partitions of range(k) other than the singletons: the ways to
    merge the parts of a k-part odd partition into a strictly coarser one."""
    return tuple(g for g in odd_partitions(range(k)) if len(g) < k)


def _coarsenings(p: Partition):
    """The strict odd coarsenings of p.  Merging an odd number of odd parts
    keeps every block odd, and each coarsening arises from exactly one
    grouping of p's parts; groups come ordered by their least index, and p's
    parts by their least label, so the merged parts are in partition order."""
    for grouping in _index_groupings(len(p)):
        yield tuple(p[g[0]] if len(g) == 1
                    else tuple(sorted(v for i in g for v in p[i]))
                    for g in grouping)


def _all_chains(interior, rankf) -> dict[int, list[tuple]]:
    """Strictly increasing interior chains (as index tuples), by length."""
    key = [(rankf(p), i) for i, p in enumerate(interior)]
    where = {p: i for i, p in enumerate(interior)}
    order = sorted(range(len(interior)), key=key.__getitem__)
    above = [sorted((where[q] for q in _coarsenings(p) if q in where),
                    key=key.__getitem__)
             for p in interior]
    groups: dict[int, list[tuple]] = {0: [()]}

    def extend(chain: tuple):
        r = len(chain)
        groups.setdefault(r, []).append(chain)
        for j in above[chain[-1]]:
            extend(chain + (j,))

    for i in order:
        extend((i,))
    return groups


def _boundary(chain_sum: dict[tuple, int], drop: int | None = None) -> dict[tuple, int]:
    """The alternating face map on a sum {chain: coefficient}: entry i of
    each chain is dropped with the sign (-1)^i, for every i, or for the i
    below ``drop`` only.  Terms that cancel are left out."""
    out: dict[tuple, int] = {}
    for chain, coeff in chain_sum.items():
        for i in range(len(chain) if drop is None else drop):
            face = chain[:i] + chain[i + 1:]
            v = out.get(face, 0) + (-coeff if i & 1 else coeff)
            if v:
                out[face] = v
            else:
                out.pop(face, None)
    return out


def _boundary_rows(chains: list[tuple], lower: dict[tuple, int]) -> list[dict]:
    """Rows of the differential on chains of one length; ``lower`` indexes
    the chains one element shorter."""
    return [{lower[face]: v for face, v in _boundary({chain: 1}).items()}
            for chain in chains]


def _smith_homology(groups: dict[int, list[tuple]]) -> list[tuple[int, int, list[int]]]:
    """Homology of the chain groups from the Smith form of each boundary
    matrix, built and dropped one degree at a time: the general path, and
    the test oracle of the element matchings."""
    ranks: dict[int, int] = {}
    divisors: dict[int, list[int]] = {}
    for r in sorted(groups):
        if r:
            lower = {c: i for i, c in enumerate(groups[r - 1])}
            ranks[r], divisors[r] = smith_divisors(
                _boundary_rows(groups[r], lower))
    out = []
    for r in range(0, max(groups) + 1):
        dim = len(groups.get(r, []))
        h = dim - ranks.get(r, 0) - ranks.get(r + 1, 0)
        tor = [d for d in divisors.get(r + 1, []) if d != 1]
        if h or tor:
            out.append((r + 1, h, tor))
    return out


def _critical_chains(groups: dict[int, list[tuple]]) -> set[tuple]:
    """The chains that iterated element matchings leave unmatched.

    The elements are walked in the order of the one-element chains, which
    ``_all_chains`` lists in (rank, index) order, a linear extension; each
    chain lists its elements from the bottom up, so in walk order too.  At
    element x, every still-unmatched chain c containing x is paired with c
    minus x when that face is unmatched too; the empty chain takes part.
    Within one step the pairs are disjoint, since c -> c minus x is
    injective on the chains containing x, so the order in which they are
    visited does not matter.  A chain waits at its next element in walk
    order until it is matched or has none left.
    """
    unmatched = set().union(*groups.values())
    waiting: dict[int, list[tuple]] = {c[0]: [] for c in groups.get(1, [])}
    for cs in groups.values():
        for c in cs:
            if c:
                waiting[c[0]].append(c)
    for (x,) in groups.get(1, []):
        for c in waiting.pop(x):
            if c in unmatched:
                k = c.index(x)
                face = c[:k] + c[k + 1:]
                if face in unmatched:
                    unmatched.remove(c)
                    unmatched.remove(face)
                elif k + 1 < len(c):
                    waiting[c[k + 1]].append(c)
    return unmatched


def homology_of_bounded(interior, rankf) -> list[tuple[int, int, list[int]]]:
    """(degree, rank, torsion divisors) for the chain complex of a bounded
    poset with the given interior elements; degree r+1 holds chains with r
    interior elements.  Entries appear only where rank or torsion is
    nonzero.

    The chains, the empty one included, are the faces of the augmented order
    complex, whose homology is the reduced homology of the poset.
    ``_critical_chains`` matches them by iterated element matchings: for
    elements x_1, ..., x_m taken in turn, step i pairs each face s without
    x_i that is still unmatched with s + x_i when that face is unmatched
    too.  Element-matching lemma (Jonsson, Simplicial Complexes of Graphs,
    LNM 1928, 2008): the union of these matchings is acyclic.  Every
    incidence in the order complex is +1 or -1: dropping different
    elements gives different faces.  So every matched pair is invertible
    over Z, and discrete Morse theory (Forman, Adv. Math. 134, 1998) gives a
    chain complex over Z, homotopy equivalent to this one, with one
    generator per critical chain in that chain's degree.  When all critical
    chains have one length r, that Morse complex lives in the single degree
    r+1, so its differential vanishes for degree reasons: the homology is
    free of rank the number of critical chains, concentrated in degree r+1.
    The empty ``torsion`` field of that answer is read off this proof, not
    off a Smith form, and no boundary matrix is built.  When the critical
    chains fall in two or more lengths the Morse differential may be
    nonzero, and the homology comes from ``_smith_homology`` on the same
    chain groups.
    """
    groups = _all_chains(interior, rankf)
    critical = _critical_chains(groups)
    lengths = {len(c) for c in critical}
    if not critical:
        return []
    if len(lengths) > 1:
        return _smith_homology(groups)
    (r,) = lengths
    return [(r + 1, len(critical), [])]


def reduced_homology(poset: OddPartitionPoset) -> list[tuple[int, int, list[int]]]:
    """Shifted reduced homology; degrees shift down by one when the top had
    to be adjoined, matching the convention for topless posets."""
    if poset.top == poset.bottom:
        return [(0, 1, [])]
    interior = [p for p in poset.elements
                if p != poset.bottom and p != poset.top]
    result = homology_of_bounded(interior, poset.rank)
    if poset.top is None:
        result = [(deg - 1, h, tor) for deg, h, tor in result]
    return result


@lru_cache(maxsize=None)
def interval_homology_by_sizes(sizes: tuple) -> list[tuple[int, int, list[int]]]:
    """Homology of [bottom, x] for x with parts of the given odd sizes;
    isomorphic intervals share this cache through relabeling."""
    labels = []
    parts = []
    offset = 0
    for s in sorted(sizes):
        part = tuple(range(offset + 1, offset + s + 1))
        parts.append(part)
        labels.extend(part)
        offset += s
    top = make_partition(parts)
    n = len(labels)
    bottom = make_partition([(v,) for v in labels])
    if top == bottom:
        return [(0, 1, [])]
    # [bottom, top] is the product of the odd-partition posets of top's
    # parts; the parts hold consecutive labels, so joining one partition of
    # each lists the interval in odd_partitions(labels) order
    interior = [p for p in (sum(factors, ())
                            for factors in product(*map(odd_partitions, parts)))
                if p != bottom and p != top]
    return homology_of_bounded(interior, lambda p: (n - len(p)) // 2)


def _egf_expected(n: int) -> tuple[int, int]:
    """(forced degree, expected top rank): n!ác[u^n] of arcsin(u) for odd n,
    of 1 - sqrt(1 - u^2) for even n."""
    if n % 2 == 1:
        m = (n - 1) // 2
        c = Fraction(factorial(2 * m), 4 ** m * factorial(m) ** 2 * (2 * m + 1))
        return m, int(c * factorial(n))
    # f = 1 - sqrt(1-u^2) satisfies f = (u^2 + f^2)/2; solve degreewise
    coeff: dict[int, Fraction] = {}
    for k in range(2, n + 1, 2):
        square = sum((coeff.get(a, Fraction(0)) * coeff.get(k - a, Fraction(0))
                      for a in range(2, k - 1)), Fraction(0))
        coeff[k] = (Fraction(1) if k == 2 else Fraction(0)) / 2 + square / 2
    return (n - 2) // 2, int(coeff[n] * factorial(n))


def egf_rank_row(n: int) -> dict:
    """Homology concentration and rank of the n-label poset against the
    generating functions."""
    hom = reduced_homology(OddPartitionPoset(n))
    nonzero = [(d, h) for d, h, _ in hom if h]
    torsion = [t for _, _, ts in hom for t in ts]
    forced_degree, expected = _egf_expected(n)
    ok = nonzero == [(forced_degree, expected)] and not torsion
    return {"rank": nonzero[0][1] if nonzero else 0,
            "degree": nonzero[0][0] if nonzero else None,
            "expected_rank": expected, "expected_degree": forced_degree,
            "torsion": torsion, "ok": ok}


def verify_egf_ranks(max_n: int) -> dict:
    """``egf_rank_row`` for every n from 2 to max_n."""
    return {n: egf_rank_row(n) for n in range(2, max_n + 1)}


# ---------------------------------------------------------------------------
# Whitney homology


class _TopMark:
    """Stand-in for an adjoined top element (compares above everything)."""

    __repr__ = lambda self: "TOP"


TOP = _TopMark()


def _saturated_chains(poset: OddPartitionPoset) -> dict[int, list[tuple]]:
    """Saturated chains (x_1, ..., x_r) from the bottom, grouped by length r,
    with x_R the adjoined TOP when the poset has no top.  A cover merges
    three parts, and an adjoined top covers everything of rank R - 1; covers
    are taken in element order."""
    R = poset.max_rank
    covers: dict = {}

    def covers_of(p: Partition) -> list:
        if p not in covers:
            merges = (q for q in _coarsenings(p) if len(q) == len(p) - 2)
            covers[p] = sorted(merges, key=poset.index.__getitem__)
        return covers[p]

    chains: dict[int, list[tuple]] = {0: [()]}
    for r in range(1, R + 1):
        if r == R and poset.top is None:
            chains[r] = [chain + (TOP,) for chain in chains[r - 1]]
        else:
            chains[r] = [chain + (x,) for chain in chains[r - 1]
                         for x in covers_of(chain[-1] if chain else poset.bottom)]
    return chains


def _image_equals_kernel(rows: list[dict],
                         image: list[dict]) -> tuple[int, bool]:
    """(rank of I, whether I = K), for the lattice I spanned by ``image``
    and the kernel lattice K of e_i -> rows[i]; the caller has checked that
    I lies in K.

    K is saturated: Z^N/K embeds in the target of an integer map, so it is
    torsion-free.  Then I = K exactly when rank I = rank K and every Smith
    divisor of I is 1.  If so, K/I is finitely generated of rank 0, hence
    finite, and it lies in Z^N/I, which unit divisors make torsion-free, so
    K/I = 0.  Conversely, I = K makes Z^N/I torsion-free.  Only the rank of
    K is needed, from the Smith rank of ``rows``.
    """
    rank, divisors = smith_divisors(image)
    kernel_rank = len(rows) - smith_divisors(rows)[0]
    return rank, rank == kernel_rank and all(d == 1 for d in divisors)


def whitney_homology(n: int) -> dict:
    """Whitney groups W_r (top-degree interval cycles at each rank-r element,
    the adjoined top included for even n) with the top-dropping connecting
    maps.  Verifies the differential squares to zero on cycle bases and that
    the sequence 0 -> W_R -> ... -> W_1 -> W_0 -> 0 is exact over Z: at each
    spot r the image lattice I of the connecting map equals the kernel
    lattice K of (delta_r, project_r) on the chain module (at r = 0, the
    zero map on W_0 = Z).  Every image vector is checked to be a cycle that
    ``project`` kills, so I lies in K, and ``_image_equals_kernel`` proves
    I = K from rank I = rank K and unit Smith divisors of I, because K, a
    kernel, is saturated.  The first sequence is at n = 2; n = 1 has no
    nontrivial one.

    Each interval's cycle count is checked against
    ``interval_homology_by_sizes``, which reads it off
    ``homology_of_bounded``: when the interval's critical chains under the
    element matchings all have one length, its homology is free of rank
    their number in that single degree, by the Morse argument given there,
    and the empty torsion it reports is that proof's, not a Smith form's.
    Otherwise the count comes from the Smith form of the interval's
    boundary matrices."""
    if n < 2:
        raise ValueError("n must be >= 2")
    poset = OddPartitionPoset(n)
    R = poset.max_rank
    chains = _saturated_chains(poset)
    chain_index = {r: {c: i for i, c in enumerate(cs)} for r, cs in chains.items()}

    def interval_boundary_rows(r: int) -> tuple[list[dict], int]:
        """Rows of the blockwise interval differential on chains of length r
        (drop interior elements; columns = once-gapped chains, per top)."""
        gap_index: dict[tuple, int] = {}
        rows = [{gap_index.setdefault(face, len(gap_index)): v
                 for face, v in _boundary({chain: 1}, r - 1).items()}
                for chain in chains[r]]
        return rows, len(gap_index)

    # W_r bases as integer vectors over chains[r]
    w_basis: dict[int, list[dict]] = {0: [{0: 1}]}
    w_count_by_top: dict[int, dict] = {0: {str(poset.bottom): 1}}
    delta_rows: dict[int, list[dict]] = {}
    delta_cols: dict[int, int] = {}
    for r in range(1, R + 1):
        rows, ncols = interval_boundary_rows(r)
        delta_rows[r] = rows
        delta_cols[r] = ncols
        grouped: dict = {}
        for ci, chain in enumerate(chains[r]):
            grouped.setdefault(chain[-1], []).append(ci)
        basis: list[dict] = []
        counts: dict = {}
        for x in sorted(grouped, key=str):
            cis = grouped[x]
            kernel = kernel_basis_fast([rows[ci] for ci in cis])
            if x is not TOP:
                cached = interval_homology_by_sizes(tuple(sorted(len(p) for p in x)))
                want = sum(h for d, h, _ in cached if d == r)
                if len(kernel) != want:
                    raise AssertionError(
                        f"interval cycle count {len(kernel)} != cached homology {want}")
            counts[str(x)] = len(kernel)
            for vec in kernel:
                basis.append({cis[i]: v for i, v in vec.items()})
        w_basis[r] = basis
        w_count_by_top[r] = counts

    def project(vec: dict, r: int) -> dict[int, int]:
        """Drop the top element of each chain, with the sign (-1)^(r-1)."""
        sign = (-1) ** ((r - 1) & 1)
        lower = chain_index[r - 1]
        out: dict[int, int] = {}
        for ci, v in vec.items():
            col = lower[chains[r][ci][:-1]]
            nv = out.get(col, 0) + sign * v
            if nv:
                out[col] = nv
            else:
                out.pop(col, None)
        return out

    # images of the connecting maps, at chain level; each image is a cycle,
    # and the square of the differential vanishes on every basis cycle
    images: dict[int, list[dict]] = {}
    for r in range(1, R + 1):
        images[r] = [project(vec, r) for vec in w_basis[r]]
        if r >= 2:
            for img in images[r]:
                acc: dict[int, int] = {}
                for ci, v in img.items():
                    for col, w in delta_rows[r - 1][ci].items():
                        nv = acc.get(col, 0) + v * w
                        if nv:
                            acc[col] = nv
                        else:
                            acc.pop(col, None)
                if acc:
                    raise AssertionError("connecting image left the cycle space")
                if project(img, r - 1):
                    raise AssertionError("Whitney differential does not square to zero")

    # exactness: kernel lattice of (delta, project) equals the image lattice
    dims = {r: len(w_basis[r]) for r in range(R + 1)}
    ranks: dict[int, int] = {}
    lattice_equal: dict[int, bool] = {}
    for r in range(0, R + 1):
        if r == 0:
            stacked = [{}]  # W_0 = Z maps to zero: K is all of it
        else:
            # kernel of (delta_r, project_r) stacked: cycles killed by the
            # connecting map, as a sublattice of the chain module
            ncols_delta = delta_cols[r]
            stacked = []
            for ci in range(len(chains[r])):
                row = dict(delta_rows[r][ci])
                col = chain_index[r - 1][chains[r][ci][:-1]]
                row[ncols_delta + col] = 1
                stacked.append(row)
        ranks[r + 1], lattice_equal[r] = _image_equals_kernel(
            stacked, images.get(r + 1, []))

    exact = all(lattice_equal.values())
    return {"n": n, "dims": dims,
            "connecting_ranks": {r: ranks[r] for r in sorted(ranks) if r <= R},
            "lattice_equal": lattice_equal, "exact": exact,
            "cycles_by_top": w_count_by_top}


# ---------------------------------------------------------------------------
# trees to cycles


def tree_to_cycle(T: TriangleGraph, poset: OddPartitionPoset) -> dict[tuple, int]:
    """Alternating sum, over the insertion orders of the tree's triangles, of
    the chains of component partitions; returns {interior chain: coefficient}
    and asserts the result is a cycle."""
    edges = T.sorted_edges
    if tuple(sorted(T.vertices)) != poset.labels:
        raise ValueError("tree must span the poset's label set")
    parts_all = partition_of_edges(edges, poset.labels)
    if len(parts_all) != 1:
        raise ValueError("tree-to-cycle needs a connected spanning tree")
    e = len(edges)
    result: dict[tuple, int] = {}
    for perm in permutations(range(e)):
        sign = perm_sign(perm)
        chain = []
        for k in range(1, e):
            pi = partition_of_edges([edges[perm[i]] for i in range(k)], poset.labels)
            chain.append(pi)
        key = tuple(chain)
        v = result.get(key, 0) + sign
        if v:
            result[key] = v
        else:
            result.pop(key, None)
    if _boundary(result):
        raise AssertionError("tree image is not a cycle")
    return result


def keystone_cochain(T: TriangleGraph, poset: OddPartitionPoset) -> tuple:
    """The elementary cochain (maximal chain) of the keystone insertion order."""
    order = keystone_insertion_order(T)
    chain = []
    for k in range(1, len(order)):
        chain.append(partition_of_edges(order[:k], poset.labels))
    return tuple(chain)
