"""Sparse skew-commutative polynomials on odd degree-1 generators.

Generators are indexed by sorted label tuples (triples or quadruples) and are
odd: they anticommute and square to zero, so monomials are strictly increasing
tuples of generator ids and products carry the sign of the sorting
permutation.  ``GeneratorUniverse.monomial`` is the one place where a word of
index tuples becomes a signed monomial; the JSON parser, the presentations'
monomials and relation families, and the forest bases all build theirs
through it.  An element is its coefficient dict, each coefficient an int or
a Fraction; the package builds elements from words and never multiplies two
of them.  Ideal slices realize a homogeneous ideal degree by degree as a
row space: echelonized over Q, whose unit pivots certify freeness over Z,
or handed as rows to Smith over Z.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .linalg import FieldEchelon
from .rings import ZZ


def perm_sign(seq) -> int:
    """(-1)^(number of strict inversions i < j, seq[j] < seq[i]); for
    distinct entries, the sign of the permutation sorting seq.  Equal
    entries count as no inversion."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[j] < seq[i]:
                sign = -sign
    return sign


class GeneratorUniverse:
    """All arity-subsets of a label set, as odd generators.

    ``symmetric`` controls index normalization: antisymmetric generators pick
    up the sorting permutation's sign, symmetric ones do not.  Either way the
    generators are odd algebra elements.
    """

    def __init__(self, labels, arity: int, symmetric: bool = False):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        self.labels = tuple(sorted(labels))
        self.arity = arity
        self.symmetric = symmetric
        self.tuples: list[tuple] = list(combinations(self.labels, arity))
        self.index: dict[tuple, int] = {t: i for i, t in enumerate(self.tuples)}
        self._oriented: dict[tuple, tuple[int, int]] = {}  # see gen_id

    def __len__(self) -> int:
        return len(self.tuples)

    def gen_id(self, indices) -> tuple[int, int] | None:
        """(generator id, sign) for possibly unsorted indices; None if
        repeated.  ValueError for the wrong number of indices or a label
        outside the universe.

        Each validated index tuple's answer is kept in this universe's
        ``_oriented`` memo, filled on first use; it depends only on the
        tuple, so answers do not depend on the order of calls.  Tuples that
        raise or give None are never stored, so they are checked afresh,
        in the same order, every time."""
        tup = tuple(indices)
        got = self._oriented.get(tup)
        if got is not None:
            return got
        if len(tup) != self.arity:
            raise ValueError(f"generator {list(tup)} has {len(tup)} indices, "
                             f"expected {self.arity}")
        if len(set(tup)) != len(tup):
            return None
        s = tuple(sorted(tup))
        gid = self.index.get(s)
        if gid is None:
            raise ValueError(f"generator {list(tup)} has a label outside "
                             f"{list(self.labels)}")
        sign = 1 if self.symmetric else perm_sign(tup)
        got = self._oriented[tup] = (gid, sign)
        return got

    def monomial(self, index_tuples) -> tuple[tuple[int, ...], int] | None:
        """(increasing gid tuple, sign) of the product of the generators on
        index_tuples, in order; None if the product is zero.

        The sign is the product of the generators' orientation signs and
        the merge signs.  ``gen_id`` checks each tuple in turn: a repeated
        index ends the product, while a repeated generator makes it vanish
        but the tuples after it are still checked."""
        mono, sign = (), 1
        for idx in index_tuples:
            got = self.gen_id(idx)
            if got is None:
                return None
            if mono is not None:
                gid, gsign = got
                prod = mul_monomials(mono, (gid,))
                if prod is None:
                    mono = None
                else:
                    mono, sign = prod[0], sign * gsign * prod[1]
        return None if mono is None else (mono, sign)

    def label_tuple(self, gid: int) -> tuple:
        return self.tuples[gid]

    def monomials(self, degree: int):
        """All strictly increasing gid tuples of the given length."""
        return combinations(range(len(self.tuples)), degree)


def mul_monomials(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge sorted gid tuples; (monomial, sign) or None on a repeated gid."""
    if not a:
        return b, 1
    if not b:
        return a, 1
    out = []
    i = j = 0
    inversions = 0
    la = len(a)
    while i < la and j < len(b):
        x, y = a[i], b[j]
        if x == y:
            return None
        if x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            inversions += la - i
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), (-1) ** (inversions & 1)


class SkewPoly:
    """Sparse element: {monomial gid-tuple: coefficient}, zero coefficients
    dropped.  A coefficient is an int or a Fraction, and its type is its
    ring; equality is equality of values, so an int and a Fraction of the
    same value give equal elements."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        items = sorted(self.terms.items())[:6]
        body = " + ".join(f"{c}*m{list(m)}" for m, c in items)
        return f"SkewPoly({body or '0'}{' ...' if len(self.terms) > 6 else ''})"

    def degrees(self) -> set[int]:
        return {len(m) for m in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous element (0 for the zero element)."""
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        return degs.pop() if degs else 0

    def homogeneous_part(self, d: int) -> "SkewPoly":
        return SkewPoly({m: c for m, c in self.terms.items() if len(m) == d})

    def to_json_terms(self, universe: GeneratorUniverse) -> list:
        out = []
        for m in sorted(self.terms):
            c = self.terms[m]
            num, den = (c.numerator, c.denominator) if isinstance(c, Fraction) else (int(c), 1)
            out.append({"monomial": [list(universe.label_tuple(g)) for g in m],
                        "numerator": num, "denominator": den})
        return out


def _check_json_term(item) -> None:
    """ValueError unless item is {"monomial": [[label, ...], ...]} with
    optional integer "numerator" and nonzero integer "denominator"."""
    if not isinstance(item, dict):
        raise ValueError(f"term {item!r} is not an object")
    mono = item.get("monomial")
    if not (isinstance(mono, list) and all(
            isinstance(idx, list) and all(type(x) is int for x in idx)
            for idx in mono)):
        raise ValueError(f"monomial {mono!r} is not a list of index lists")
    num, den = item.get("numerator", 1), item.get("denominator", 1)
    if type(num) is not int or type(den) is not int:
        raise ValueError(f"coefficient {num!r}/{den!r} is not a ratio of integers")
    if den == 0:
        raise ValueError("zero denominator")


def poly_from_json_terms(ring, universe: GeneratorUniverse, data) -> SkewPoly:
    """Element from a JSON term list (the format of ``to_json_terms``);
    ValueError on a malformed list, and under ``ZZ`` on a non-integral
    coefficient.  A term's coefficient is an int when its denominator
    divides its numerator, and otherwise one Fraction.  Each term's monomial
    and sign come from ``universe.monomial``, with its validation order."""
    if not isinstance(data, list):
        raise ValueError("element must be a list of terms")
    acc: dict[tuple, object] = {}
    for item in data:
        _check_json_term(item)
        num, den = item.get("numerator", 1), item.get("denominator", 1)
        whole = num % den == 0
        if not whole and ring == ZZ:
            raise ValueError("non-integral coefficient for integral ring")
        got = universe.monomial(item["monomial"])
        if got is not None:
            mono, sign = got
            c = sign * num // den if whole else Fraction(sign * num, den)
            v = acc.get(mono)
            v = c if v is None else v + c
            if v:
                acc[mono] = v
            else:
                acc.pop(mono, None)
    return SkewPoly(acc)


# ---------------------------------------------------------------------------
# degreewise ideal slices


class IdealSlice:
    """Echelonized degree-d component over Q of the ideal spanned by
    homogeneous relations: span{m * r} over monomial multipliers m of
    complementary degree, as a field echelon (whose ``unit_pivots``
    certify that the quotient of the same rows over Z is free)."""

    def __init__(self, degree: int, columns: list[tuple], echelon: FieldEchelon):
        self.degree = degree
        self.columns = columns
        self.col_of = {m: i for i, m in enumerate(columns)}
        self.echelon = echelon

    @property
    def rank(self) -> int:
        return self.echelon.rank

    def quotient_dimension(self) -> int:
        return len(self.columns) - self.rank

    def reduce(self, p: SkewPoly) -> SkewPoly:
        """Normal form of p modulo the slice (leading-monomial elimination)."""
        if not p:
            return p
        if p.degree() != self.degree:
            raise ValueError(f"degree {p.degree()} element in degree {self.degree} slice")
        row = self.echelon.reduce({self.col_of[m]: c for m, c in p.terms.items()})
        return SkewPoly({self.columns[c]: v for c, v in row.items()})


def slice_rows(relations: list[SkewPoly], degree: int,
               universe: GeneratorUniverse, columns=None, products=None):
    """(columns, rows) of the degree-d slice of the two-sided ideal; ``rows``
    yields the sparse rows over ``columns`` one at a time.

    Rows are built from the relations' coefficients with plain arithmetic,
    so integer relations give integer rows, as Smith needs (it refuses any
    other entry).  ``products`` lists the rows as (index into relations,
    multiplier monomial) pairs, in the order they are yielded; by default
    every relation times every multiplier of complementary degree, relation
    by relation.  ``columns`` is an ordered list of monomials, and column i
    is its i-th entry, so the list sets the elimination order of a slice
    (the smallest index leads); it need not be increasing.  It may be the
    full slice in another order, or restrict to a partition block: rows with
    no term in the list are skipped, and a row with terms on both sides
    raises (relations here are partition-homogeneous).  Both default to the
    full slice, with columns in increasing order.
    """
    for r in relations:
        if not r.is_homogeneous():
            raise ValueError("inhomogeneous relation")

    block = columns is not None
    if not block:
        columns = list(universe.monomials(degree))
    if products is None:
        products = ((i, mult) for i, r in enumerate(relations)
                    if r and r.degree() <= degree
                    for mult in universe.monomials(degree - r.degree()))
    col_of = {m: i for i, m in enumerate(columns)}

    def rows():
        for i, mult in products:
            # distinct relation monomials stay distinct after multiplying by
            # one monomial, so every product is a separate term of the row
            row_terms = {}
            for m, c in relations[i].terms.items():
                prod = mul_monomials(mult, m)
                if prod is not None:
                    mono, sign = prod
                    row_terms[mono] = c if sign == 1 else -c
            if not row_terms:
                continue
            if block:
                inside = [m in col_of for m in row_terms]
                if not any(inside):
                    continue
                if not all(inside):
                    raise AssertionError("row straddles the block columns")
            yield {col_of[m]: c for m, c in row_terms.items()}

    return columns, rows()


def ideal_slice(relations: list[SkewPoly], degree: int,
                universe: GeneratorUniverse, columns=None,
                products=None) -> IdealSlice:
    """The degree-d slice of the two-sided ideal, echelonized over Q.
    Coefficients are ints or Fractions; ``columns`` and ``products`` are as in
    ``slice_rows``, whose rows enter the echelon one at a time.  The order
    of ``columns`` is the elimination order: each pivot leads at its
    earliest column, and a residue lies on the free (non-pivot) columns."""
    columns, rows = slice_rows(relations, degree, universe, columns, products)
    echelon = FieldEchelon()
    for row in rows:
        echelon.add(row)
    return IdealSlice(degree, columns, echelon)
