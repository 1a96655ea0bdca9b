"""The divisor-class ring of the complex (n+1)-point moduli space in the
inclusion-sum generators, its canonical (laminar, exponent-bounded) monomial
basis with grevlex rewriting, the mod-2 reduction, and the Bockstein
differential with its (plain and twisted) cohomology.

Generators are indexed by subsets S of {1..n} with |S| >= 3 (size-2 classes
vanish); a monomial is canonical when its support family is laminar
(condition 1) and each exponent respects the keyhole bound (condition 2).
The two rewriting rules are the overlap relation

    P_S P_T = P_S P_{S u T} + P_T P_{S u T} - P_{S u T}^2

and the exponent-bound relation P_S^e prod_i (P_{S_i} - P_S) = 0 with
e = |S_0| + k - 1; both replace a monomial by strictly grevlex-smaller ones
(variable order: by (|S|, sorted elements), extending inclusion).

A monomial is a flat tuple of (support id, exponent) pairs sorted by id.  The
canonical basis is enumerated without rewriting: the supports of a laminar
family split into its maximal supports, each the outermost set of a
component.  A family inside a label set is built from its smallest label,
which is either uncovered or the smallest label of exactly one component,
and each component is its outermost exponent on top of a family strictly
inside it.  Components are concatenated as tuples and each monomial is sorted
once.  Since every laminar family has exactly one such decomposition, no
monomial is produced twice; the enumeration asserts it instead of
deduplicating.

The label set itself is walked once (the one-walk lemma).  A canonical
monomial either has no support equal to the full label set {1..n}, and then
its family is a proper family of disjoint components (c of them, covering k
labels), or its outermost support is the full set, and then it is such a
proper family times P_{1..n}^d with 1 <= d < c - 1 + n - k (the keyhole bound
of the full set, whose maximal inner supports are the c components).  So each
proper family yields itself and its full-set extensions.  Appending the full
set's pair (top, d) keeps the tuple sorted: supports are listed by size and the
full set is the only one of size n, so its id is the largest.

The per-degree counts need no list (the relabelling lemma).  The families
inside a sorted label tuple, and the anchored families of a support, are
built from the order of its labels alone, so the order-preserving bijection
onto {1..s} matches those inside any s labels one for one, keeping degree,
component count and labels covered.  Their numbers therefore depend on s
only: `families(s, proper)` and `anchored(t)` count them by recursion on s,
where the choice of a component's t - 1 labels besides the smallest among
the s - 1 others becomes the multiplicity C(s - 1, t - 1), and
`canonical_counts(n)` applies the one-walk rule to the proper families of
{1..n}.  The enumeration is the test oracle for these counts.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice
from math import comb
from operator import eq
from types import MappingProxyType

from .forests import _union_find_components
from .linalg import BitEchelon
from .series import (assemble_partitions, keel_betti_polynomial,
                     odd_square_product_poly)


Monomial = tuple  # sorted tuple of (support_id, exponent), exponent > 0


def _grevlex_key(m: Monomial) -> tuple:
    """Sort key of the grevlex order: degree first, then the rightmost
    (largest support id) differing entry, where a later variable or a larger
    exponent there makes the monomial smaller."""
    return (sum(e for _, e in m), tuple((-sid, -e) for sid, e in reversed(m)))


class KeelRing:
    """Presentation data for one n: interned supports and rewrite machinery."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.labels = tuple(range(1, n + 1))
        self.supports: list[frozenset] = []
        for size in range(3, n + 1):
            for combo in combinations(self.labels, size):
                self.supports.append(frozenset(combo))
        self.sup_index = {s: i for i, s in enumerate(self.supports)}
        self._reduce_cache: dict[Monomial, dict[Monomial, int]] = {}
        # scratch space of one enumeration, emptied when it returns
        self._anchored_cache: dict[tuple, list] = {}
        self._canonical_cache: list[Monomial] | None = None
        self.rewrite_step_limit = 200_000

    def monomial(self, sets_with_exps) -> Monomial | None:
        """Monomial from {set: exp}; None encodes zero (a size-2 support)."""
        items = []
        for s, e in sets_with_exps.items():
            fs = frozenset(s)
            if e < 0:
                raise ValueError("negative exponent")
            if e == 0:
                continue
            if len(fs) == 2:
                return None
            items.append((self.sup_index[fs], e))
        return tuple(sorted(items))

    def degree(self, m: Monomial) -> int:
        return sum(e for _, e in m)

    def monomial_str(self, m: Monomial) -> str:
        return " ".join(
            f"P{sorted(self.supports[sid])}^{e}" if e > 1 else f"P{sorted(self.supports[sid])}"
            for sid, e in m) or "1"

    # -- canonical-form tests ----------------------------------------------

    def condition1_violation(self, m: Monomial):
        """An overlapping, non-nested support pair (innermost first), or None."""
        best = None
        for (i1, _), (i2, _) in combinations(m, 2):
            s, t = self.supports[i1], self.supports[i2]
            inter = s & t
            if inter and inter != s and inter != t:
                key = (min(len(s), len(t)), max(len(s), len(t)), i1, i2)
                if best is None or key < best[0]:
                    best = (key, i1, i2)
        return None if best is None else (best[1], best[2])

    def _maximal_inner(self, m: Monomial, sid: int) -> list[int]:
        s = self.supports[sid]
        inner = [i for i, _ in m if i != sid and self.supports[i] < s]
        maximal = []
        for i in inner:
            if not any(self.supports[i] < self.supports[j] for j in inner if j != i):
                maximal.append(i)
        return maximal

    def condition2_violation(self, m: Monomial):
        """(sid, maximal inner sids) for the smallest bound-violating support,
        assuming condition 1 holds; None if canonical."""
        for sid, e in m:
            inner = self._maximal_inner(m, sid)
            bound = len(inner) - 1 + len(self.supports[sid]) \
                - sum(len(self.supports[i]) for i in inner)
            if e >= bound:
                return sid, inner
        return None

    def is_canonical(self, m: Monomial) -> bool:
        return (self.condition1_violation(m) is None
                and self.condition2_violation(m) is None)

    # -- rewriting -----------------------------------------------------------

    def _mono_mul(self, m: Monomial, sid: int, k: int = 1) -> Monomial:
        out = dict(m)
        out[sid] = out.get(sid, 0) + k
        return tuple(sorted((i, e) for i, e in out.items() if e))

    def _mono_div(self, m: Monomial, sid: int, k: int = 1) -> Monomial:
        out = dict(m)
        if out.get(sid, 0) < k:
            raise ValueError("monomial not divisible")
        out[sid] -= k
        return tuple(sorted((i, e) for i, e in out.items() if e))

    def _rewrite_once(self, m: Monomial) -> dict[Monomial, int]:
        """One relation application to a non-canonical monomial; the result is
        supported on strictly grevlex-smaller monomials (asserted)."""
        v1 = self.condition1_violation(m)
        if v1 is not None:
            i1, i2 = v1
            u = self.supports[i1] | self.supports[i2]
            iu = self.sup_index[u]
            base = self._mono_div(self._mono_div(m, i1), i2)
            out: dict[Monomial, int] = {}
            for sid, coeff in ((i1, 1), (i2, 1)):
                mm = self._mono_mul(self._mono_mul(base, sid), iu)
                out[mm] = out.get(mm, 0) + coeff
            mm = self._mono_mul(base, iu, 2)
            out[mm] = out.get(mm, 0) - 1
            result = out
        else:
            v2 = self.condition2_violation(m)
            if v2 is None:
                raise ValueError("monomial already canonical")
            sid, inner = v2
            s = self.supports[sid]
            kk = len(inner)
            e = (len(s) - sum(len(self.supports[i]) for i in inner)) + kk - 1
            # P_s^e * prod_i (P_{S_i} - P_s) = 0; the A = full term is leading
            base = self._mono_div(m, sid, e)
            for i in inner:
                base = self._mono_div(base, i)
            out = {}
            for r in range(kk):  # subsets A of the inner set, A != full
                for A in combinations(range(kk), r):
                    sign = -((-1) ** ((kk - r) & 1))
                    mm = self._mono_mul(base, sid, e + kk - r)
                    for ai in A:
                        mm = self._mono_mul(mm, inner[ai])
                    out[mm] = out.get(mm, 0) + sign
            result = {k2: v for k2, v in out.items() if v}
        key = _grevlex_key(m)
        for mm in result:
            if not _grevlex_key(mm) < key:
                raise AssertionError("rewrite failed to decrease grevlex order")
        return result

    def reduce_monomial(self, m: Monomial) -> dict[Monomial, int]:
        """Integer normal form of a monomial on canonical monomials (cached)."""
        cached = self._reduce_cache.get(m)
        if cached is not None:
            return cached
        steps = 0
        work: dict[Monomial, int] = {m: 1}
        done: dict[Monomial, int] = {}
        while work:
            steps += 1
            if steps > self.rewrite_step_limit:
                raise RuntimeError("rewriting exceeded the step limit")
            mm = max(work, key=_grevlex_key)
            coeff = work.pop(mm)
            cached = self._reduce_cache.get(mm)
            if cached is not None:
                for k2, v in cached.items():
                    nv = done.get(k2, 0) + coeff * v
                    if nv:
                        done[k2] = nv
                    else:
                        done.pop(k2, None)
                continue
            if self.is_canonical(mm):
                nv = done.get(mm, 0) + coeff
                if nv:
                    done[mm] = nv
                else:
                    done.pop(mm, None)
                continue
            for k2, v in self._rewrite_once(mm).items():
                nv = work.get(k2, 0) + coeff * v
                if nv:
                    work[k2] = nv
                else:
                    work.pop(k2, None)
        self._reduce_cache[m] = done
        return done

    def reduce(self, poly: dict[Monomial, int], mod2: bool = False) -> dict[Monomial, int]:
        out: dict[Monomial, int] = {}
        for m, c in poly.items():
            for k2, v in self.reduce_monomial(m).items():
                nv = out.get(k2, 0) + c * v
                if nv:
                    out[k2] = nv
                else:
                    out.pop(k2, None)
        if mod2:
            out = {k2: 1 for k2, v in out.items() if v % 2}
        return out

    # -- canonical monomial enumeration -------------------------------------

    def canonical_monomials(self, degree: int | None = None) -> list[Monomial]:
        if self._canonical_cache is None:
            self._canonical_cache = self._enumerate_canonical()
        monomials = self._canonical_cache
        if degree is None:
            return list(monomials)
        return [m for m in monomials if self.degree(m) == degree]

    def _anchored(self, support: tuple) -> list[tuple[tuple, int]]:
        """Canonical families whose outermost set is exactly `support`, as
        (items, degree).  `items` is an unsorted tuple of (sid, exponent)
        pairs ending in the pair of `support` itself: the inner supports form
        a disjoint family of proper components inside `support` (c of them,
        covering k labels), and the keyhole bound allows the exponents
        1 <= d < c - 1 + |support| - k on `support`.  This is the one-walk
        lemma for `support` in place of the full label set; the full set
        itself is never anchored, since `_enumerate_canonical` extends its
        proper families directly.  The module function `anchored` counts
        these families by degree.  Cached for the current enumeration
        only."""
        cached = self._anchored_cache.get(support)
        if cached is not None:
            return cached
        sid = self.sup_index[frozenset(support)]
        tails = [((sid, d),) for d in range(len(support))]
        out = []
        for items, deg, count, covered in self._disjoint_families(support, True):
            for d in range(1, count - 1 + len(support) - covered):
                out.append((items + tails[d], deg + d))
        self._anchored_cache[support] = out
        return out

    def _disjoint_families(self, avail: tuple, proper: bool = False):
        """Families of disjoint anchored components inside the sorted label
        tuple `avail`, as (items, degree, component count, labels covered),
        `items` being the components' (sid, exponent) pairs joined by `+`.
        With `proper`, the single component `avail` itself is excluded.

        The smallest label of `avail` is either left uncovered or is the
        smallest label of exactly one component; the rest of the family lies
        in the labels left over.  So every laminar family is produced once,
        split into its maximal supports, each anchored at its smallest
        label."""
        if len(avail) < 3:
            yield (), 0, 0, 0
            return
        a = avail[0]
        rest = avail[1:]
        yield from self._disjoint_families(rest)
        for size in range(3, len(avail) + 1 - proper):
            for extra in combinations(rest, size - 1):
                anchored = self._anchored((a,) + extra)
                left = tuple(x for x in rest if x not in extra)
                for items, d, count, covered in self._disjoint_families(left):
                    for citems, cdeg in anchored:
                        yield citems + items, d + cdeg, count + 1, covered + size

    def _enumerate_canonical(self) -> list[Monomial]:
        """All canonical monomials, sorted.

        One walk over the proper families of the full label set: each is a
        monomial, and so is each of its full-set extensions m + ((top, d),),
        1 <= d < c - 1 + n - k, already sorted because the full set has the
        largest support id (module docstring).  A duplicate would sit next
        to its twin after the sort, and raises, so the list holds each
        canonical monomial once; its degree tally is the test oracle of
        `canonical_counts`."""
        n = self.n
        top = self.sup_index.get(frozenset(self.labels))
        tails = [((top, d),) for d in range(n)]  # shared by all extensions
        out = []
        try:
            for items, _, c, k in self._disjoint_families(self.labels, True):
                m = tuple(sorted(items))
                out.append(m)
                for d in range(1, c - 1 + n - k):
                    out.append(m + tails[d])
        finally:
            self._anchored_cache.clear()
        out.sort()
        if any(map(eq, out, islice(out, 1, None))):
            raise AssertionError("duplicate canonical monomial")
        return out

    # -- gradings ------------------------------------------------------------

    def partition_grading(self, m: Monomial) -> tuple:
        """Components of the support union: parts sorted, by minimum."""
        edges = [tuple(sorted(self.supports[sid])) for sid, _ in m]
        return tuple(_union_find_components(self.labels, edges))

    def connected_block(self, degree: int | None = None) -> list[Monomial]:
        """Canonical monomials whose support union spans all labels in one
        component.  The components of a laminar family are its maximal
        supports, so these are the monomials whose largest support (the last
        pair) is the full label set."""
        top = self.sup_index.get(frozenset(self.labels))
        return [m for m in self.canonical_monomials(degree)
                if m and m[-1][0] == top]


# ---------------------------------------------------------------------------
# canonical monomial counts by label-set size (the relabelling lemma)


@lru_cache(maxsize=None)
def families(s: int, proper: bool = False) -> MappingProxyType:
    """{(degree, components c, labels covered k): number} of the families
    that `KeelRing._disjoint_families` yields inside any s sorted labels:
    the smallest label is uncovered, or the smallest of one anchored
    component of t labels whose other t - 1 are chosen among the s - 1
    others, the rest of the family lying in the s - t labels left over.
    Read-only, since the cache hands the same mapping to every caller."""
    if s < 3:
        return MappingProxyType({(0, 0, 0): 1})
    out = dict(families(s - 1))
    for t in range(3, s + 1 - proper):
        ways, component = comb(s - 1, t - 1), anchored(t)
        for (deg, c, k), num in families(s - t).items():
            for adeg, anum in component.items():
                key = (deg + adeg, c + 1, k + t)
                out[key] = out.get(key, 0) + ways * num * anum
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def anchored(t: int) -> MappingProxyType:
    """{degree: number} of the anchored families of a t-label support
    (`KeelRing._anchored`): a proper family (c components covering k
    labels) times the support's class to the power d, with the keyhole
    bound 1 <= d < c - 1 + t - k.  Read-only like `families`."""
    out: dict[int, int] = {}
    for (deg, c, k), num in families(t, True).items():
        for d in range(1, c - 1 + t - k):
            out[deg + d] = out.get(deg + d, 0) + num
    return MappingProxyType(out)


def canonical_counts(n: int) -> dict[int, int]:
    """Number of canonical monomials on n labels per degree, by increasing
    degree, by the one-walk rule: each proper family of {1..n} counts at its
    own degree and its full-set extensions are the anchored families of the
    full set."""
    if n < 2:
        raise ValueError("need n >= 2")
    counts = dict(anchored(n))
    for (deg, _, _), num in families(n, True).items():
        counts[deg] = counts.get(deg, 0) + num
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# change of generators on the degree-1 part


def _minus_superset_sum(n: int, coords: dict, w: int) -> dict:
    """{S: c} -> -sum_S c sum_{S subset T} w^(|T|-|S|) T, over supports
    inside {1..n} of sizes 2..n."""
    labels = frozenset(range(1, n + 1))
    out: dict[frozenset, int] = {}
    for s, c in coords.items():
        s = frozenset(s)
        if 0 in s:
            raise ValueError("indices must avoid the distinguished point 0")
        if not (2 <= len(s) <= n and s <= labels):
            raise ValueError(f"bad support {sorted(s)}")
        rest = sorted(labels - s)
        for k in range(len(rest) + 1):
            sc = c * w ** k
            for extra in combinations(rest, k):
                t = s | frozenset(extra)
                v = out.get(t, 0) - sc
                if v:
                    out[t] = v
                else:
                    out.pop(t, None)
    return out


def pi_from_d(n: int, d_coords: dict[frozenset, int]) -> dict[frozenset, int]:
    """Degree-1 change of basis: D_S = -sum_{S subset T} (-1)^(|T|-|S|) P_T,
    applied linearly to {S: coeff} (supports inside {1..n}, sizes 2..n)."""
    return _minus_superset_sum(n, d_coords, -1)


def d_from_pi(n: int, pi_coords: dict[frozenset, int]) -> dict[frozenset, int]:
    """Inverse change of basis: P_S = -sum_{S subset T} D_T."""
    return _minus_superset_sum(n, pi_coords, 1)


# ---------------------------------------------------------------------------
# the Bockstein differential


def beta(ring: KeelRing, poly: dict[Monomial, int]) -> dict[Monomial, int]:
    """beta(v) = sum_S P_S^2 d/dP_S v over F_2, reduced to canonical form."""
    image: dict[Monomial, int] = {}
    for m, c in poly.items():
        if c % 2 == 0:
            continue
        for sid, e in m:
            if e % 2 == 0:
                continue  # exponent derivative kills even powers mod 2
            mm = ring._mono_mul(m, sid)
            image[mm] = image.get(mm, 0) ^ 1
    return ring.reduce(image, mod2=True)


def beta_twisted(ring: KeelRing, poly: dict[Monomial, int]) -> dict[Monomial, int]:
    """beta'(v) = beta(v) + P_{1..n} v over F_2; the multiplication term
    vanishes when the full label set has size two (its class is zero)."""
    out = dict(beta(ring, poly))
    top = ring.sup_index.get(frozenset(ring.labels))
    if top is None:
        return out
    shifted: dict[Monomial, int] = {}
    for m, c in poly.items():
        if c % 2 == 0:
            continue
        mm = ring._mono_mul(m, top)
        shifted[mm] = shifted.get(mm, 0) ^ 1
    for m, c in ring.reduce(shifted, mod2=True).items():
        v = (out.get(m, 0) + c) % 2
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _differential_dims(ring: KeelRing, monomials, apply_d) -> dict[int, int]:
    """dim ker/im per degree for a degree-+1 differential over F_2 on the
    span of the given monomials."""
    layers: dict[int, list[Monomial]] = {}
    for mono in sorted(monomials):
        layers.setdefault(ring.degree(mono), []).append(mono)
    index = {d: {m: i for i, m in enumerate(ms)} for d, ms in layers.items()}
    ranks: dict[int, int] = {}
    for d in sorted(layers):
        ech = BitEchelon()
        target = index.get(d + 1, {})
        for m in layers[d]:
            img = apply_d({m: 1})
            row = 0
            for mm, c in img.items():
                if c % 2:
                    row |= 1 << target[mm]
            ech.add(row)
        ranks[d] = ech.rank
    out = {}
    for d in sorted(layers):
        out[d] = len(layers[d]) - ranks.get(d, 0) - ranks.get(d - 1, 0)
    return out


@lru_cache(maxsize=None)
def hbeta_connected_block(m: int) -> tuple:
    """H_beta dimensions by degree on the connected block of {1..m}:
    ((degree, dim), ...); zero for even m, one-dimensional in degree
    (m-1)/2 for odd m (the certified computation, not the assertion)."""
    ring = KeelRing(m)
    dims = _differential_dims(ring, ring.connected_block(),
                              lambda p: beta(ring, p))
    return tuple(sorted((d, v) for d, v in dims.items() if v))


def assembled_hbeta_dims(n: int) -> dict[int, int]:
    """H_beta dimensions of the full mod-2 ring on n labels, assembled over
    the partition grading (tensor product over parts, convolving degrees)."""
    return assemble_partitions(
        n, {s: dict(hbeta_connected_block(s)) for s in range(3, n + 1)})


def bockstein_cohomology(n: int, twisted: bool = False) -> dict[int, int]:
    """Dimensions of the Bockstein cohomology per cohomological degree.

    Plain: assembled over partition blocks.  Twisted: computed on the full
    canonical basis (the extra top-multiplication term is not
    partition-homogeneous)."""
    if not twisted:
        return assembled_hbeta_dims(n)
    ring = KeelRing(n)
    dims = _differential_dims(ring, ring.canonical_monomials(),
                              lambda p: beta_twisted(ring, p))
    return {d: v for d, v in sorted(dims.items()) if v}


def betti_upper_bound(n: int) -> dict:
    """The certified coefficientwise bound: H_beta dims of the mod-2 ring on
    n labels bound the real (n+1)-point Betti numbers, and equal the skew
    algebra's Hilbert coefficients (the main dimension mechanism)."""
    dims = assembled_hbeta_dims(n)
    formula = odd_square_product_poly(n)
    return {"n": n, "hbeta": dims, "formula": dict(sorted(formula.items())),
            "equal": dims == {d: c for d, c in formula.items() if c}}


def canonical_count_report(n: int) -> dict:
    """Canonical monomial counts per degree against the ODE coefficients;
    the counts come from the recursion on label-set size, no ring is
    built."""
    counts = canonical_counts(n)
    expected = keel_betti_polynomial(n)
    return {"n": n, "counts": counts,
            "expected": dict(sorted(expected.items())),
            "match": counts == {k: v for k, v in expected.items() if v}}
