"""Exact sparse linear algebra over Q, Z and F_2.

Rows are sparse dicts {column_index: value} with integer column indices;
callers intern their column labels (``FieldEchelon`` also takes any totally
ordered keys, such as the monomial tuples of one degree).  There are three
kernels:

- ``FieldEchelon``, over Q, behind every ideal slice (whose residues are
  the coordinates over a certified basis), every field rank, the span
  certificate ``same_rational_span`` and freeness by unit pivots;
- ``_eliminate``, the unit-first unimodular elimination behind the Smith
  divisors (``poset_homology``'s homology and Whitney ranks, and
  ``acceptance``'s six-index membership) and the integer kernels
  (``poset_homology``'s Whitney kernels); the other facts over Z
  (lattice equality, membership), where no substitution or unit-pivot
  certificate applies, are read off Smith divisors;
- ``BitEchelon``, rows packed as ints, for the F_2 ranks of the Bockstein
  and the mod-2 step of an integer membership certificate.

They favor predictable pivoting (deterministic output) and unit pivots (the
boundary matrices here are overwhelmingly {0, +-1}).

Exact elimination over Q is integer-first: an entry is a Python ``int`` until
a division by a pivot lead other than +-1 makes it a ``Fraction``, and the
values are the same rationals either way.  Relations with +-1 coefficients
therefore never leave integer arithmetic, and a ``Fraction`` appears only
where a value really is rational.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

from .rings import integral


# ---------------------------------------------------------------------------
# field echelon over Q


def _rational(v):
    """Exact value of v as an int when integral, else as a Fraction."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class FieldEchelon:
    """Incremental row echelon over Q, leading column minimal.

    Pivot rows are normalized to leading coefficient 1.  ``reduce`` returns
    the unique normal form modulo the row space (single increasing-column
    pass; pivot tails only touch larger columns).

    An entry is an ``int`` as long as it is integral and every pivot it met
    had lead +-1 (a -1 lead is normalized by negating the row).  Only
    normalizing a pivot row by a lead other than +-1 makes ``Fraction``
    entries (integral quotients stay ``int``); they spread to the rows reduced
    against that pivot.  Ranks, pivot columns and residues are the same
    rational values as an all-``Fraction`` elimination.

    ``unit_pivots`` stays True while every row given to ``add`` is integral
    and every pivot leads with +-1.  Lemma: then Z^N modulo the lattice L
    of the added rows is free (every elementary divisor is 1).  With unit
    leads every reduction multiplier is an entry of an integral row, so by
    induction the pivots are integral, each lies in L, and each row is an
    integer combination of pivots: they span L.  With the unit vectors of
    the free columns, ordered by lead, they form a unit upper-triangular
    basis of Z^N that contains a basis of L.  So only the leads and the
    input entries need checking.
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}
        self.unit_pivots = True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        row = {c: _rational(v) for c, v in row.items() if v}
        pivots = self.pivots
        heap = [c for c in row if c in pivots]
        heapq.heapify(heap)
        last = None
        while heap:
            c = heapq.heappop(heap)
            if c == last:
                continue  # pushed twice; columns pop in increasing order
            last = c
            v = row.get(c)
            if not v:
                continue
            for c2, w in pivots[c].items():
                fresh = c2 not in row
                nv = row.get(c2, 0) - v * w
                if nv:
                    row[c2] = nv
                    if fresh and c2 in pivots:
                        heapq.heappush(heap, c2)
                else:
                    row.pop(c2, None)
        return row

    def add(self, row: dict) -> bool:
        """Reduce and insert; True iff the rank grew."""
        # a sum of ints is an int; one Fraction among them makes it a Fraction
        if self.unit_pivots and type(sum(row.values())) is not int:
            self.unit_pivots = all(Fraction(v).denominator == 1
                                   for v in row.values())
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        lv = row[lead]
        if lv == -1:
            row = {c: -v for c, v in row.items()}
        elif lv != 1:
            self.unit_pivots = False
            row = {c: _rational(Fraction(v) / lv) for c, v in row.items()}
        self.pivots[lead] = row
        return True

    def extend(self, rows) -> None:
        for r in rows:
            self.add(r)

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def same_span(self, other: "FieldEchelon") -> bool:
        """Equal rank and every pivot row of ``other`` in this row space;
        over a field, inclusion and equal dimension give equality.  Only
        ``other``'s pivots are reduced, so the echelon with Fraction pivots
        goes second."""
        return (self.rank == other.rank
                and all(self.contains(r) for r in other.pivots.values()))


def field_rank(rows) -> int:
    """Rank over Q."""
    ech = FieldEchelon()
    ech.extend(rows)
    return ech.rank


def same_rational_span(left: list[dict], right: list[dict]) -> bool:
    """Whether the rows ``left`` and ``right`` span the same space over Q.

    - r = rank(right), from the Q echelon of the right rows;
    - left rows enter a second Q echelon until its rank reaches r;
    - every later left row reduces to zero against the right echelon;
    - the pivots of the second echelon lie in the right span, and its rank
      is r (``same_span``).

    Then span(left) lies in span(right) and has dimension r, so the spans
    are equal.  Only the first left rows are eliminated among themselves;
    the rest are reduced against the right echelon, which stays in ``int``
    when, as for relation rows, its leads are +-1.
    """
    right_q = FieldEchelon()
    right_q.extend(right)
    left_q = FieldEchelon()
    for row in left:
        if left_q.rank < right_q.rank:
            left_q.add(row)
        elif not right_q.contains(row):
            return False
    return right_q.same_span(left_q)


# ---------------------------------------------------------------------------
# F_2 bitmask echelon


class BitEchelon:
    """Echelon over F_2 with rows packed as ints (bit i = column i)."""

    def __init__(self):
        self.pivots: dict[int, int] = {}  # leading bit position -> row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: int) -> bool:
        while row:
            lead = (row & -row).bit_length() - 1
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = row
                return True
            row ^= piv
        return False

    def extend(self, rows) -> None:
        for r in rows:
            self.add(r)

    def contains(self, row: int) -> bool:
        while row:
            piv = self.pivots.get((row & -row).bit_length() - 1)
            if piv is None:
                return False
            row ^= piv
        return True


# ---------------------------------------------------------------------------
# Smith normal form (elementary divisors) and integer kernels


class _SparseMat:
    """Mutable sparse matrix with a column index, for elimination; an entry
    that is not an integer is a ValueError."""

    def __init__(self, rows):
        self.rows: dict[int, dict[int, int]] = {}
        self.col_rows: dict[int, set[int]] = {}
        for i, r in enumerate(rows):
            rr = {c: integral(v) for c, v in r.items() if v}
            if rr:
                self.rows[i] = rr
                for c in rr:
                    self.col_rows.setdefault(c, set()).add(i)

    def delete_row(self, rid: int) -> None:
        for c in self.rows[rid]:
            s = self.col_rows.get(c)
            if s is not None:
                s.discard(rid)
                if not s:
                    del self.col_rows[c]
        del self.rows[rid]

    def row_sub(self, rid: int, src: dict, factor: int) -> None:
        """rows[rid] -= factor * src, maintaining the column index."""
        row = self.rows[rid]
        for c2, w in src.items():
            nv = row.get(c2, 0) - factor * w
            if nv:
                if c2 not in row:
                    self.col_rows.setdefault(c2, set()).add(rid)
                row[c2] = nv
            else:
                if c2 in row:
                    del row[c2]
                    s = self.col_rows.get(c2)
                    if s is not None:
                        s.discard(rid)
                        if not s:
                            del self.col_rows[c2]
        if not row:
            self.delete_row(rid)


def _eliminate(rows, track: bool = False) -> tuple[list[int], list[dict]]:
    """Unimodular sparse elimination of the integer matrix given by rows.

    Unit pivots go first (sparsest row holding a +-1, breaking ties toward the
    thinnest column); the rare unit-free remainder is handled by gcd reduction
    inside the column, then the row, of the minimal entry.  Row and column
    operations are both unimodular, and column operations leave the kernel of
    e_i -> rows[i] alone.  Returns the diagonal of pivots taken, in order,
    and, when ``track`` is set, a basis of that kernel lattice: the transforms
    on [M | I] of the rows whose M-part hits zero (otherwise an empty list).
    """
    mat = _SparseMat(rows)
    diagonal: list[int] = []
    transforms: dict[int, dict[int, int]] = {}
    kernel: list[dict] = []
    if track:
        for i in range(len(rows)):
            if i in mat.rows:
                transforms[i] = {i: 1}
            else:
                kernel.append({i: 1})  # empty image row

    # size buckets over rows that contain a unit entry (the common case)
    unit_buckets: dict[int, dict[int, None]] = {}
    bucket_of: dict[int, int] = {}

    def file_row(rid: int) -> None:
        old = bucket_of.pop(rid, None)
        if old is not None:
            b = unit_buckets.get(old)
            if b is not None:
                b.pop(rid, None)
                if not b:
                    del unit_buckets[old]
        row = mat.rows.get(rid)
        if row is not None and any(v == 1 or v == -1 for v in row.values()):
            unit_buckets.setdefault(len(row), {})[rid] = None
            bucket_of[rid] = len(row)

    def clear_column(rid: int, c: int, column: list[int]) -> None:
        """Subtract multiples of row rid from the other rows of column c."""
        piv = mat.rows[rid]
        pt = transforms.get(rid)
        pv = piv[c]
        for other in column:
            if other == rid or other not in mat.rows:
                continue
            q = mat.rows[other][c] // pv
            if not q:
                continue
            mat.row_sub(other, piv, q)
            file_row(other)
            if track:
                t = transforms[other]
                for k, v in pt.items():
                    nv = t.get(k, 0) - q * v
                    if nv:
                        t[k] = nv
                    else:
                        t.pop(k, None)
                if other not in mat.rows:
                    kernel.append(transforms.pop(other))

    for rid in mat.rows:
        file_row(rid)

    while mat.rows:
        if unit_buckets:
            rid = next(iter(unit_buckets[min(unit_buckets)]))
            row = mat.rows[rid]
            c = min((cc for cc, v in row.items() if v == 1 or v == -1),
                    key=lambda cc: (len(mat.col_rows[cc]), cc))
            column = sorted(mat.col_rows[c])
        else:
            # no unit entry left: gcd-reduce the column, then the row, of the
            # smallest entry until that entry is alone in both
            rid, c = min(((r, cc) for r, row in mat.rows.items() for cc in row),
                         key=lambda rc: (abs(mat.rows[rc[0]][rc[1]]), rc))
            column = sorted(mat.col_rows[c])
            if len(column) > 1:
                clear_column(rid, c, column)
                continue
            row = mat.rows[rid]
            if len(row) > 1:
                # c is alone in its column, so each column operation
                # col_k -= q * col_c changes this row only
                pv = row[c]
                mat.row_sub(rid, {k: v // pv * pv for k, v in row.items()
                                  if k != c}, 1)
                if len(row) > 1:
                    file_row(rid)
                    continue
        clear_column(rid, c, column)
        diagonal.append(abs(mat.rows[rid][c]))
        mat.delete_row(rid)
        file_row(rid)
        transforms.pop(rid, None)  # pivot row: not a kernel element
    return diagonal, kernel


def smith_divisors(rows) -> tuple[int, list[int]]:
    """(rank, elementary divisors) of the integer matrix given by sparse rows.

    Row and column operations of the elimination are both unimodular, so its
    diagonal determines the cokernel; it is normalized to the Smith
    divisibility chain here.
    """
    diagonal, _ = _eliminate(rows)
    rank = len(diagonal)
    # a unit divides everything, so only the non-unit entries need the
    # pairwise fix-up into a divisibility chain
    divisors = sorted(d for d in diagonal if d != 1)
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            if b % a:
                g = gcd(a, b)
                divisors[i], divisors[j] = g, a * b // g
        divisors.sort()
    return rank, [1] * (rank - len(divisors)) + divisors


def kernel_basis_fast(rows: list[dict]) -> list[dict]:
    """Basis of the integer kernel lattice of e_i -> rows[i], from the same
    unit-first elimination run with transform tracking."""
    return _eliminate(rows, track=True)[1]

