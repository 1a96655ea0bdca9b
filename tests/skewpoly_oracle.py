"""Element arithmetic for the tests: the oracle the package's word-built
elements are checked against.

``Poly`` is a ``SkewPoly`` with sums, differences, scalar multiples and the
signed product of odd generators, plus the unit and the generators.  The
right operand (and the left one of a sum) may be a plain ``SkewPoly``;
results are ``Poly``.  Coefficient arithmetic is Python's own, on ints and
Fractions.
"""

from forestalg.skewpoly import SkewPoly, mul_monomials


def _put(out: dict, m, v) -> None:
    v = out.get(m, 0) + v
    if v:
        out[m] = v
    else:
        out.pop(m, None)


class Poly(SkewPoly):
    __slots__ = ()

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls({(): 1})

    @classmethod
    def generator(cls, gid: int, coeff=1) -> "Poly":
        return cls({(gid,): coeff})

    def homogeneous_part(self, d: int) -> "Poly":
        return Poly(super().homogeneous_part(d).terms)

    def __add__(self, other: SkewPoly) -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            _put(out, m, c)
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other: SkewPoly) -> "Poly":
        return self + Poly(other.terms).scale(-1)

    def scale(self, c) -> "Poly":
        return Poly({m: v * c for m, v in self.terms.items()})

    def __mul__(self, other: SkewPoly) -> "Poly":
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                prod = mul_monomials(ma, mb)
                if prod is not None:
                    m, sign = prod
                    _put(out, m, sign * ca * cb)
        return Poly(out)


def term(pres, indices, coeff=1) -> Poly:
    """coeff times the generator on one (possibly unsorted) index tuple of
    the presentation, with its orientation sign; zero on a repeated index."""
    got = pres.universe.gen_id(indices)
    if got is None:
        return Poly()
    gid, sign = got
    return Poly.generator(gid, sign * coeff)


def partial_derivation(p: SkewPoly, gid: int) -> Poly:
    """Signed superderivation d/d(gid): remove the generator with the sign
    (-1)^(its position); satisfies d(ab) = d(a) b + (-1)^deg(a) a d(b)."""
    out: dict = {}
    for m, c in p.terms.items():
        if gid in m:
            pos = m.index(gid)
            _put(out, m[:pos] + m[pos + 1:], c if pos % 2 == 0 else -c)
    return Poly(out)
