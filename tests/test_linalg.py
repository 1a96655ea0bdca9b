import heapq
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestalg import poset_homology
from forestalg.acceptance import _doubles_and_members
from forestalg.linalg import (BitEchelon, FieldEchelon, field_rank,
                              kernel_basis_fast, same_rational_span,
                              smith_divisors)

P = 2 ** 31 - 1  # a large prime: rows scaled by it are zero modulo P


def _dense(rows, ncols):
    return [[r.get(c, 0) for c in range(ncols)] for r in rows]


def test_field_echelon_rank_and_reduce():
    rows = [{0: 1, 1: 2}, {1: 1, 2: 1}, {0: 1, 1: 3, 2: 1}]
    assert field_rank(rows) == 2
    ech = FieldEchelon()
    ech.extend(rows)
    assert ech.contains({0: 2, 1: 4})
    assert not ech.contains({2: 1})


def test_unit_pivot_certificate():
    def certified(rows):
        ech = FieldEchelon()
        ech.extend(rows)
        return ech.unit_pivots

    assert certified([{0: 1, 1: 2}, {0: -1, 1: -3, 2: 5}, {1: 2, 2: -10}])
    assert certified([{0: Fraction(-1), 1: Fraction(4, 2)}])
    assert not certified([{0: 1, 1: Fraction(1, 2)}])  # lead 1, entry 1/2
    # a non-integral row clears it even when it reduces to zero
    assert not certified([{0: 1, 1: 1}, {0: Fraction(1, 2), 1: Fraction(1, 2)}])
    assert not certified([{0: 1, 1: 1}, {0: 1, 1: 3}])  # reduces to lead 2
    assert smith_divisors([{0: 1, 1: 1}, {0: 1, 1: 3}]) == (2, [1, 2])
    # it is sufficient, not necessary: the row (2, 1) is primitive, so its
    # quotient is free, but its lead is 2; False means undecided
    assert not certified([{0: 2, 1: 1}])
    assert smith_divisors([{0: 2, 1: 1}]) == (1, [1])


def test_field_echelon_same_span():
    a = FieldEchelon()
    a.extend([{0: 1, 1: 1}, {1: 1, 2: 1}])
    b = FieldEchelon()
    b.extend([{0: 1, 2: -1}, {0: 1, 1: 2, 2: 1}])
    assert a.same_span(b)


def test_same_rational_span_certificate():
    right = [{0: 1}, {1: 1}]
    assert same_rational_span([{0: 1, 1: 1}, {0: 1, 1: -1}], right)
    # a row outside the right span
    assert not same_rational_span([{0: 1}, {2: 1}], right)
    # contained, but of lower rank over Q
    assert not same_rational_span([{0: 1, 1: 1}], right)
    # ranks that drop modulo P: only an exact comparison decides these
    assert same_rational_span([{0: P}], [{0: 1}])
    assert same_rational_span([{0: 1, 1: 1}, {0: 1, 1: 1 + P}], right)
    assert not same_rational_span([{0: P}], right)
    assert not same_rational_span([{0: 1, 1: 1}, {0: 1, 1: 1 + P}],
                                  right + [{2: 1}])


def test_same_rational_span_on_relation_rows():
    from forestalg.lambda_alg import Presentation
    tri = Presentation("tri", range(1, 7))
    right = [r.terms for r in tri.relations()]
    assert same_rational_span(right[::-1], right)
    # every row scaled by P: zero modulo P, the same span over Q
    assert same_rational_span([{c: P * v for c, v in r.items()}
                               for r in right], right)
    # a degree-2 monomial outside the relation span
    forest = tri.monomial([(1, 2, 3), (3, 4, 5)]).terms
    assert not same_rational_span(right + [forest], right)


def bit_rank(rows) -> int:
    ech = BitEchelon()
    ech.extend(rows)
    return ech.rank


def test_bit_echelon():
    ech = BitEchelon()
    assert ech.add(0b011)
    assert ech.add(0b110)
    assert not ech.add(0b101)  # the sum of the first two
    assert ech.rank == 2
    assert ech.contains(0b101) and ech.contains(0)
    assert not ech.contains(0b100)
    assert ech.rank == 2  # contains leaves the echelon alone
    assert bit_rank([0b1, 0b10, 0b11]) == 2


# ---------------------------------------------------------------------------
# Hermite form: the integer lattice oracle


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _row_sub(a: dict, b: dict, q: int) -> dict:
    out = dict(a)
    for c, v in b.items():
        nv = out.get(c, 0) - q * v
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    return out


def _row_comb(a: dict, x: int, b: dict, y: int) -> dict:
    out = {}
    for c, v in a.items():
        nv = x * v
        if nv:
            out[c] = nv
    for c, v in b.items():
        nv = out.get(c, 0) + y * v
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    return out


class HermiteEchelon:
    """Sparse integer row echelon with gcd pivots (row-style Hermite form).

    Supports exact membership tests of integer vectors in the row lattice.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: dict) -> None:
        row = {c: int(v) for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                if row[c] < 0:
                    row = {k: -v for k, v in row.items()}
                self.pivots[c] = row
                return
            a, b = piv[c], row[c]
            if b % a == 0:
                row = _row_sub(row, piv, b // a)
                continue
            g, x, y = _xgcd(a, b)
            new_piv = _row_comb(piv, x, row, y)
            new_row = _row_comb(piv, -(b // g), row, a // g)
            self.pivots[c] = new_piv
            row = new_row

    def extend(self, rows) -> None:
        for r in rows:
            self.add(dict(r))

    def reduce(self, row: dict) -> dict:
        """Normal form of an integer vector modulo the row lattice."""
        row = {c: int(v) for c, v in row.items() if v}
        heap = sorted(row)
        seen = set()
        while heap:
            c = heapq.heappop(heap)
            if c in seen:
                continue
            seen.add(c)
            v = row.get(c)
            if not v:
                continue
            piv = self.pivots.get(c)
            if piv is None:
                continue
            q = v // piv[c]
            if q:
                for c2, w in piv.items():
                    fresh = c2 not in row
                    nv = row.get(c2, 0) - q * w
                    if nv:
                        row[c2] = nv
                        if fresh and c2 not in seen:
                            heapq.heappush(heap, c2)
                    else:
                        row.pop(c2, None)
        return row

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


def test_hermite_membership():
    ech = HermiteEchelon()
    ech.extend([{0: 2, 1: 1}, {1: 2}])
    assert ech.contains({0: 2, 1: 3})
    assert ech.contains({0: 4, 1: 2})
    assert not ech.contains({0: 1})          # not in the lattice
    assert not ech.contains({1: 1})


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


def _determinantal_divisors(rows, ncols):
    """Smith divisors as quotients of the gcds of k x k minors (small only)."""
    m = _dense(rows, ncols)
    out, prev = [], 1
    for k in range(1, min(len(m), ncols) + 1):
        g = 0
        for ri in combinations(range(len(m)), k):
            for ci in combinations(range(ncols), k):
                g = gcd(g, _det([[m[r][c] for c in ci] for r in ri]))
        if not g:
            break
        out.append(g // prev)
        prev = g
    return out


def test_smith_divisors_known_matrix():
    rows = [{0: 12, 1: 6, 2: 4, 3: 8},
            {0: 3, 1: 9, 2: 6, 3: 12},
            {0: 2, 1: 16, 2: 14, 3: 28},
            {0: 20, 1: 10, 2: 10, 3: 20}]
    rank, divisors = smith_divisors(rows)
    assert rank == 3
    assert divisors == [1, 10, 30]
    # unit pivots mixed with entries 2, 3 and 4: the non-unit remainder still
    # goes through the divisibility fix-up, the units are only counted
    for rows, want in [
            ([{0: 1, 1: 2, 2: 4}, {1: 2, 3: 1}, {2: 3}, {3: 4, 4: -1},
              {4: 1, 1: 6}], [1, 1, 1, 1, 6]),
            ([{0: 2}, {1: 3}, {2: 4}, {3: 1}], [1, 1, 2, 12]),
            ([{0: 1, 1: 2}, {1: 4, 2: 2}, {2: 6, 0: 3}, {3: -1, 1: 2},
              {1: 2, 2: 4}], [1, 1, 2, 6]),
            ([{0: 4, 1: 2}, {0: 2, 1: 4, 2: 1}, {2: 3, 3: 3}, {3: 2}],
             [1, 1, 2, 36]),
            # the smallest entry 2 is alone in its column but not in its
            # row: a column operation must reduce the 3 before 2 is a divisor
            ([{0: 2, 2: 3}, {2: 2}], [1, 4]),
            ([{2: 2}, {0: 2, 2: 3}], [1, 4]),
            ([{1: 2, 0: 3}, {0: 2}], [1, 4])]:
        assert smith_divisors(rows) == (len(want), want)
        assert _determinantal_divisors(rows, 5) == want
    # a long unit diagonal around the same 2, 3, 4 block
    rows = [{i: 1} for i in range(500)] + [{500: 2}, {501: 3}, {502: 4},
                                           {500: 1, 503: 1}]
    assert smith_divisors(rows) == (504, [1] * 502 + [2, 12])


def test_integer_kernels_reject_non_integral_entries():
    # an entry that is not an integer is refused, not truncated
    for bad in (Fraction(1, 2), 2.7, float("inf")):
        with pytest.raises(ValueError):
            smith_divisors([{0: bad}])
        with pytest.raises(ValueError):
            kernel_basis_fast([{0: 1}, {0: bad}])
    # integral values of other types are the integers they equal
    assert smith_divisors([{0: Fraction(4, 2)}, {1: 3.0}]) == (2, [1, 6])


def test_smith_divisors_identity_like():
    rank, divisors = smith_divisors([{0: 1, 5: 7}, {1: -1}, {2: 1, 0: 3}])
    assert rank == 3
    assert divisors == [1, 1, 1]


def kernel_basis_ZZ(rows: list[dict]) -> list[dict]:
    """Oracle: basis of the integer kernel lattice of e_i -> rows[i], by
    leading-column unimodular row reduction of [M | I]; the transforms of rows
    whose M-part vanishes form a lattice basis of the kernel."""
    pivots: dict[int, tuple[dict, dict]] = {}
    kernel: list[dict] = []
    for i, r in enumerate(rows):
        v = {c: int(x) for c, x in r.items() if x}
        w = {i: 1}
        placed = False
        while v:
            c = min(v)
            entry = pivots.get(c)
            if entry is None:
                pivots[c] = (v, w)
                placed = True
                break
            pv, pw = entry
            a, b = pv[c], v[c]
            if b % a == 0:
                q = b // a
                v = _row_sub(v, pv, q)
                w = _row_sub(w, pw, q)
                continue
            g, x, y = _xgcd(a, b)
            pivots[c] = (_row_comb(pv, x, v, y), _row_comb(pw, x, w, y))
            v, w = _row_comb(pv, -(b // g), v, a // g), _row_comb(pw, -(b // g), w, a // g)
        if not placed and not v:
            kernel.append(w)
    return kernel


def test_kernel_basis_matches_rank():
    rng = random.Random(7)
    for _ in range(12):
        rows = [{c: rng.randint(-2, 2) for c in rng.sample(range(6), 3)}
                for _ in range(7)]
        rows = [{c: v for c, v in r.items() if v} for r in rows]
        k1 = kernel_basis_ZZ(rows)
        k2 = kernel_basis_fast(rows)
        assert len(k1) == len(k2) == 7 - field_rank(rows)
        for vec in k1 + k2:
            acc = {}
            for i, v in vec.items():
                for c, w in rows[i].items():
                    acc[c] = acc.get(c, 0) + v * w
            assert all(x == 0 for x in acc.values())


def test_kernel_lattice_saturated():
    # rows = [2, 0], [0, 1]: kernel of e0 -> (2,), e1 -> (1,): the lattice
    # {(a, b): 2a + b = 0} has basis (1, -2), not (2, -4)
    rows = [{0: 2}, {0: 1}]
    for ker in (kernel_basis_ZZ(rows), kernel_basis_fast(rows)):
        assert len(ker) == 1
        vec = ker[0]
        from math import gcd
        g = 0
        for v in vec.values():
            g = gcd(g, abs(v))
        assert g == 1


class _FractionEchelon:
    """Reference Q echelon: every entry a Fraction, pivot leads scaled to 1,
    pivot columns eliminated in increasing order."""

    def __init__(self):
        self.pivots = {}
        self.nonunit_leads = 0

    def reduce(self, row):
        row = {c: Fraction(v) for c, v in row.items() if v}
        for c in sorted(self.pivots):  # pivot tails only touch larger columns
            v = row.get(c)
            if v:
                for c2, w in self.pivots[c].items():
                    row[c2] = row.get(c2, Fraction(0)) - v * w
                row = {k: x for k, x in row.items() if x}
        return row

    def add(self, row):
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        if abs(row[lead]) != 1:
            self.nonunit_leads += 1
        self.pivots[lead] = {c: v / row[lead] for c, v in row.items()}
        return True


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_entries = st.integers(-4, 4) | _fractions


@st.composite
def _q_rows(draw):
    """A sparse row whose lead is often 2, 3 or -1 (non-unit and negative
    pivots), with integer or Fraction entries."""
    lead = draw(st.integers(0, 6))
    row = draw(st.dictionaries(st.integers(lead + 1, 8), _entries, max_size=4))
    row[lead] = draw(st.sampled_from([1, -1, 2, 3, Fraction(3, 2)])
                     | _fractions.filter(bool))
    return row


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_q_rows(), min_size=1, max_size=8),
       queries=st.lists(st.dictionaries(st.integers(0, 8), _entries,
                                        max_size=5), max_size=4))
def test_field_echelon_matches_fraction_elimination(rows, queries):
    copies = [dict(r) for r in rows]
    ech, ref = FieldEchelon(), _FractionEchelon()
    for r in rows:
        assert ech.add(r) == ref.add(r)
    assert rows == copies  # callers' rows are never modified
    assert ech.rank == len(ref.pivots)
    assert ech.pivots == ref.pivots  # same pivot rows, compared as rationals
    for q in queries + rows:
        residue = ech.reduce(q)
        assert residue == ref.reduce(q)
        assert ech.contains(q) == (not residue)
    if all(type(v) is int for r in rows for v in r.values()) \
            and not ref.nonunit_leads:
        # +-1 leads and integer input: no Fraction is ever made
        assert all(type(v) is int for r in ech.pivots.values() for v in r.values())
        for q in queries:
            if all(type(x) is int for x in q.values()):
                assert all(type(v) is int for v in ech.reduce(q).values())
    same = FieldEchelon()
    same.extend(rows[::-1] + [{c: 2 * v for c, v in rows[0].items()}])
    assert ech.same_span(same) and same.same_span(ech)
    fewer = FieldEchelon()
    fewer.extend(rows[:-1])
    shorter = _FractionEchelon()
    for r in rows[:-1]:
        shorter.add(r)
    assert ech.same_span(fewer) == (len(shorter.pivots) == len(ref.pivots))


def _combination(coeffs, rows) -> dict:
    out = {}
    for a, row in zip(coeffs, rows):
        for c, v in row.items():
            out[c] = out.get(c, 0) + a * v
    return {c: v for c, v in out.items() if v}


def _ref_rank(rows) -> int:
    ref = _FractionEchelon()
    for r in rows:
        ref.add(r)
    return len(ref.pivots)


_span_entries = st.integers(-2, 2) | st.sampled_from([P, -P])
_span_rows = st.lists(st.dictionaries(st.integers(0, 4), _span_entries,
                                      max_size=4), max_size=5)


@settings(max_examples=150, deadline=None)
@given(left=_span_rows, data=st.data())
def test_span_certificates_match_rank_oracle(left, data):
    # the right rows are integer combinations of the left rows plus a few
    # drawn rows, so equal, nested and unrelated spans all occur
    combos = data.draw(st.lists(st.lists(_span_entries, min_size=len(left),
                                         max_size=len(left)), max_size=5))
    right = [_combination(c, left) for c in combos]
    right += data.draw(st.lists(st.dictionaries(st.integers(0, 4), _span_entries,
                                                max_size=4), max_size=2))
    want = _ref_rank(left) == _ref_rank(right) == _ref_rank(left + right)
    assert same_rational_span(left, right) == want
    left_q, right_q = FieldEchelon(), FieldEchelon()
    left_q.extend(left)
    right_q.extend(right)
    assert left_q.same_span(right_q) == right_q.same_span(left_q) == want


def test_span_certificates_reject_equal_rank_different_spans():
    assert not same_rational_span([{0: 1}], [{1: 1}])
    left, right = FieldEchelon(), FieldEchelon()
    left.add({0: 1})
    right.add({1: 1})
    assert not left.same_span(right) and not right.same_span(left)


@st.composite
def _z_matrices(draw):
    """Sparse integer rows with entries in -3..3 (zeros and empty rows
    included); a drawn tail of rows is scaled by 2 or 3, so unit-free blocks
    reach the gcd phase of the elimination."""
    rows = draw(st.lists(st.dictionaries(st.integers(0, 6), st.integers(-3, 3),
                                         max_size=4), max_size=9))
    tail = draw(st.integers(0, len(rows)))
    scale = draw(st.sampled_from([1, 2, 3]))
    return [r if i < tail else {c: scale * v for c, v in r.items()}
            for i, r in enumerate(rows)]


def _lattice(vectors) -> HermiteEchelon:
    ech = HermiteEchelon()
    ech.extend(vectors)
    return ech


@settings(max_examples=200, deadline=None)
@given(rows=_z_matrices(), data=st.data())
def test_elimination_ranks_kernels_and_invariance(rows, data):
    rank, divisors = smith_divisors(rows)
    assert len(divisors) == rank and all(d > 0 for d in divisors)
    assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
    assert rank == _lattice(rows).rank == field_rank(rows)
    fast, oracle = kernel_basis_fast(rows), kernel_basis_ZZ(rows)
    assert rank == len(rows) - len(fast)
    for vec in fast:
        image = {}
        for i, v in vec.items():
            for c, w in rows[i].items():
                image[c] = image.get(c, 0) + v * w
        assert not any(image.values())
    # the same lattice: each basis lies in the other's Hermite form
    assert all(_lattice(oracle).contains(v) for v in fast)
    assert all(_lattice(fast).contains(v) for v in oracle)
    order = data.draw(st.permutations(range(len(rows))))
    cols = data.draw(st.permutations(range(7)))
    permuted = [{cols[c]: v for c, v in rows[i].items()} for i in order]
    assert smith_divisors(permuted) == (rank, divisors)


# ---------------------------------------------------------------------------
# integer lattice certificates from Smith divisors, against the Hermite oracle


def _lattices_equal(a: list[dict], b: list[dict]) -> bool:
    """Equal rank and containment both ways, by Hermite forms."""
    ha, hb = _lattice(a), _lattice(b)
    return (ha.rank == hb.rank and all(ha.contains(v) for v in b)
            and all(hb.contains(v) for v in a))


def _doubled(rows: list[dict]) -> list[dict]:
    return [{c: 2 * v for c, v in r.items()} for r in rows]


def test_whitney_exactness_matches_hermite_oracle(monkeypatch):
    certificate = poset_homology._image_equals_kernel
    spots = []

    def record(rows, image):
        spots.append((rows, image))
        return certificate(rows, image)

    monkeypatch.setattr(poset_homology, "_image_equals_kernel", record)
    for n in range(2, 7):
        spots.clear()
        report = poset_homology.whitney_homology(n)
        assert len(spots) == len(report["lattice_equal"])
        for r, (rows, image) in enumerate(spots):
            assert report["lattice_equal"][r] == _lattices_equal(
                kernel_basis_ZZ(rows), image)
            if image:
                # an image scaled by 2 keeps its rank and loses saturation
                assert certificate(rows, _doubled(image)) == (
                    report["connecting_ranks"][r + 1], False)


def test_saturation_check_rejects_a_doubled_image():
    # e0 -> 1, e1 -> -1: the kernel lattice is spanned by (1, 1)
    rows = [{0: 1}, {0: -1}]
    check = poset_homology._image_equals_kernel
    assert check(rows, [{0: 1, 1: 1}]) == (1, True)
    assert check(rows, [{0: 2, 1: 2}]) == (1, False)
    assert check(rows, []) == (0, False)
    # the zero map on Z, as at spot 0 of the Whitney sequence
    assert check([{}], [{0: 1}]) == (1, True)
    assert check([{}], [{0: 3}]) == (1, False)


@st.composite
def _divisor_lattices(draw):
    """(basis rows, scales, lattice rows, targets): k rows of a random
    unimodular 5 x 5 matrix, each scaled by 1, 2 or 3, plus integer
    combinations of them; the targets are combinations of the basis rows,
    and sometimes a row outside their span."""
    size = 5
    unimodular = [{i: 1} for i in range(size)]
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                           st.integers(0, size - 1),
                                           st.integers(-2, 2)), max_size=8)):
        if i != j:
            unimodular[i] = _combination([1, k], [unimodular[i], unimodular[j]])
    k = draw(st.integers(1, size))
    basis = unimodular[:k]
    scales = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=k, max_size=k))
    lattice = [{c: s * v for c, v in b.items()} for s, b in zip(scales, basis)]
    coefficient_lists = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    lattice += [_combination(c, lattice)
                for c in draw(st.lists(coefficient_lists, max_size=3))]
    targets = [_combination(c, basis)
               for c in draw(st.lists(coefficient_lists, min_size=1, max_size=3))]
    if k < size and draw(st.booleans()):
        targets.append(unimodular[k])
    return scales, lattice, targets


@settings(max_examples=150, deadline=None)
@given(case=_divisor_lattices())
def test_mod2_membership_matches_hermite_oracle(case):
    scales, lattice, targets = case
    oracle = _lattice(lattice)
    doubled_want = all(oracle.contains(v) for v in _doubled(targets))
    doubled, plain = _doubles_and_members(lattice, targets)
    assert doubled == doubled_want
    # the divisors of the lattice are the scales
    if doubled_want and 3 not in scales:
        assert plain == any(oracle.contains(t) for t in targets)
    else:
        assert plain is None


def test_mod2_membership_undecided_cases():
    assert _doubles_and_members([{0: 2}], [{0: 1}]) == (True, False)
    assert _doubles_and_members([{0: 2}, {1: 1}], [{1: 3}]) == (True, True)
    # 2t in L, but the divisor 3 leaves t undecided
    assert _doubles_and_members([{0: 3}], [{0: 3}]) == (True, None)
    # 2t outside L
    assert _doubles_and_members([{0: 1, 1: 1}], [{0: 1}]) == (False, None)
