"""Truncated bivariate series with exact rational coefficients.

Series live in Q[[u, t]] truncated at a fixed u-order; t-exponents are kept in
full (every operation used here produces finitely many).  These are the
exponential generating functions that cross-check every dimension count in the
package: the arcsin-type series for forest bases, the quadratic ODE for the
divisor-class ring, and the functional equation for its monomial count.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


class SeriesDomainError(ValueError):
    """Operation applied outside its domain (e.g. exp of a unit)."""


class TruncatedSeries:
    """Sparse bivariate series: {(u_exp, t_exp): Fraction}, u_exp <= max_u."""

    __slots__ = ("max_u", "coeffs")

    def __init__(self, max_u: int, coeffs=None):
        if max_u < 0:
            raise ValueError("max_u must be >= 0")
        self.max_u = max_u
        clean: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if i < 0 or j < 0:
                    raise ValueError("negative exponent")
                if i > max_u:
                    continue
                c = Fraction(c)
                if c:
                    clean[(i, j)] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, max_u: int) -> "TruncatedSeries":
        return cls(max_u)

    @classmethod
    def one(cls, max_u: int) -> "TruncatedSeries":
        return cls(max_u, {(0, 0): Fraction(1)})

    @classmethod
    def u(cls, max_u: int) -> "TruncatedSeries":
        return cls(max_u, {(1, 0): Fraction(1)})

    @classmethod
    def t(cls, max_u: int) -> "TruncatedSeries":
        return cls(max_u, {(0, 1): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def coefficient(self, u_exp: int, t_exp: int) -> Fraction:
        return self.coeffs.get((u_exp, t_exp), Fraction(0))

    def u_coefficient(self, u_exp: int) -> dict[int, Fraction]:
        """The coefficient of u^u_exp as a polynomial in t: {t_exp: c}."""
        return {j: c for (i, j), c in self.coeffs.items() if i == u_exp}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.max_u == other.max_u and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.max_u, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        terms = sorted(self.coeffs.items())[:8]
        body = " + ".join(f"{c}*u^{i}*t^{j}" for (i, j), c in terms)
        more = "" if len(self.coeffs) <= 8 else " + ..."
        return f"TruncatedSeries(max_u={self.max_u}; {body or '0'}{more})"

    # -- arithmetic --------------------------------------------------------

    def _merge(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            v = out.get(key, Fraction(0)) + sign * c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return TruncatedSeries(min(self.max_u, other.max_u), out)

    def __add__(self, other):
        return self._merge(self._coerce(other), 1)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self._merge(self._coerce(other), -1)

    def __neg__(self):
        return self.scale(-1)

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return other
        return TruncatedSeries(self.max_u, {(0, 0): Fraction(other)})

    def scale(self, c) -> "TruncatedSeries":
        c = Fraction(c)
        return TruncatedSeries(self.max_u, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        max_u = min(self.max_u, other.max_u)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.coeffs.items():
            if i1 > max_u:
                continue
            for (i2, j2), c2 in other.coeffs.items():
                i = i1 + i2
                if i > max_u:
                    continue
                key = (i, j1 + j2)
                v = out.get(key, Fraction(0)) + c1 * c2
                if v:
                    out[key] = v
                else:
                    del out[key]
        return TruncatedSeries(max_u, out)

    def __rmul__(self, other):
        return self.scale(other)

    def truncated(self, new_max_u: int) -> "TruncatedSeries":
        return TruncatedSeries(new_max_u, {k: v for k, v in self.coeffs.items()
                                           if k[0] <= new_max_u})

    def diff_u(self) -> "TruncatedSeries":
        out = {}
        for (i, j), c in self.coeffs.items():
            if i:
                out[(i - 1, j)] = c * i
        return TruncatedSeries(self.max_u, out)

    def _u_free_part(self):
        return {j: c for (i, j), c in self.coeffs.items() if i == 0}

    # -- transcendental (within Q[[u,t]]) ------------------------------------

    def exp(self) -> "TruncatedSeries":
        """exp of a series with no u-free part."""
        if self._u_free_part():
            raise SeriesDomainError("exp needs zero constant term (no u-free part)")
        result = TruncatedSeries.one(self.max_u)
        term = TruncatedSeries.one(self.max_u)
        for k in range(1, self.max_u + 1):
            term = term * self
            if term.is_zero():
                break
            result = result + term.scale(Fraction(1, factorial(k)))
        return result

    def log(self) -> "TruncatedSeries":
        """log of a series with u-free part exactly 1."""
        if self._u_free_part() != {0: Fraction(1)}:
            raise SeriesDomainError("log needs unit constant term 1 (no other u-free terms)")
        x = self - TruncatedSeries.one(self.max_u)
        result = TruncatedSeries.zero(self.max_u)
        power = TruncatedSeries.one(self.max_u)
        for k in range(1, self.max_u + 1):
            power = power * x
            if power.is_zero():
                break
            result = result + power.scale(Fraction((-1) ** (k + 1), k))
        return result

    def pow_t(self) -> "TruncatedSeries":
        """B^t := exp(t*log(B)); needs unit constant term."""
        tlog = TruncatedSeries.t(self.max_u) * self.log()
        return tlog.exp()

    # -- serialization -------------------------------------------------------

    def to_json_terms(self) -> list[dict]:
        out = []
        for (i, j) in sorted(self.coeffs):
            c = self.coeffs[(i, j)]
            out.append({"u": i, "t": j,
                        "numerator": c.numerator, "denominator": c.denominator})
        return out


def arcsin_series(max_order: int) -> TruncatedSeries:
    """arcsin(u*sqrt(t))/sqrt(t) = sum ((2m)!/(4^m (m!)^2 (2m+1))) t^m u^(2m+1).

    The square roots cancel: only t^m pairs with u^(2m+1), so all coefficients
    are rational.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    coeffs = {}
    m = 0
    while 2 * m + 1 <= max_order:
        c = Fraction(factorial(2 * m), 4 ** m * factorial(m) ** 2 * (2 * m + 1))
        coeffs[(2 * m + 1, m)] = c
        m += 1
    return TruncatedSeries(max_order, coeffs)


def basic_forest_egf(max_order: int) -> TruncatedSeries:
    """exp(arcsin(u*sqrt(t))/sqrt(t)): n!*[t^k u^n] counts degree-k basic forests."""
    return arcsin_series(max_order).exp()


def odd_square_product_poly(m: int) -> dict[int, int]:
    """Coefficients of prod_{0 <= k < (m-2)/2} (1 + (m-2-2k)^2 t) as {deg: int}.

    This is the Hilbert series of the degree-1-generated skew algebras on m
    labels; the empty product (m <= 2) is 1.
    """
    poly = {0: 1}
    k = 0
    while 2 * k < m - 2:
        sq = (m - 2 - 2 * k) ** 2
        nxt = dict(poly)
        for d, c in poly.items():
            nxt[d + 1] = nxt.get(d + 1, 0) + sq * c
        poly = nxt
        k += 1
    return poly


def assemble_partitions(n: int, blocks) -> dict[int, int]:
    """Graded dimension of the tensor product over the parts of every set
    partition of {1..n}: n! [u^n] exp(u + sum_s B_s(t) u^s / s!).

    ``blocks`` maps a part size s >= 2 to the graded dimension {degree: dim}
    of the connected block on s labels; a singleton part is the unit (1 in
    degree 0), and a size left out has no block.  The recurrence is on the
    part holding label m: a_m = a_{m-1} + sum_s C(m-1, s-1) B_s a_{m-s}.
    Returns {degree: dim} with the zero dimensions left out, by degree.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a: list[dict[int, int]] = [{0: 1}]
    for m in range(1, n + 1):
        cur = dict(a[m - 1])
        for s, poly in blocks.items():
            if s > m:
                continue
            c = comb(m - 1, s - 1)
            for d1, v1 in poly.items():
                for d2, v2 in a[m - s].items():
                    cur[d1 + d2] = cur.get(d1 + d2, 0) + c * v1 * v2
        a.append({d: v for d, v in cur.items() if v})
    return dict(sorted(a[n].items()))


def assemble_reachable(n: int, degree: int, block) -> int:
    """The degree-``degree`` dimension of ``assemble_partitions`` on n labels,
    with the connected block on s labels in degree e read from block(s, e)
    only where it can reach that degree.  A connected block needs
    2e + 1 >= s, as e connected 3-sets cover at most 2e + 1 labels; a
    block below the asked degree contributes only next to a second
    non-singleton part, which needs three more labels."""
    blocks = {s: {e: block(s, e) for e in range(max(1, s // 2), degree + 1)
                  if e == degree or s + 3 <= n}
              for s in range(3, n + 1)}
    return assemble_partitions(n, blocks).get(degree, 0)


def solve_keel_ode(max_order: int) -> TruncatedSeries:
    """Unique A(u,t) with lowest term u^2/2 solving A_u = u + (1+t)A + t*A*A_u.

    n!*[t^k u^n] A = dim H^{2k} of the complex (n+1)-point moduli space; the
    order-by-order iteration is explicit because A*A_u at u^n only involves
    coefficients of A up to u^n.
    """
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    # p[n] = coefficient of u^n as {t_exp: Fraction}
    p: list[dict[int, Fraction]] = [dict() for _ in range(max_order + 1)]

    def poly_add(a, b, factor=Fraction(1)):
        for j, c in b.items():
            v = a.get(j, Fraction(0)) + factor * c
            if v:
                a[j] = v
            else:
                a.pop(j, None)

    def poly_mul(a, b):
        out: dict[int, Fraction] = {}
        for j1, c1 in a.items():
            for j2, c2 in b.items():
                key = j1 + j2
                v = out.get(key, Fraction(0)) + c1 * c2
                if v:
                    out[key] = v
                else:
                    del out[key]
        return out

    for n in range(1, max_order):
        # rhs_n = [u^n](u + (1+t)A + t*A*A_u), then p[n+1] = rhs_n/(n+1)
        rhs: dict[int, Fraction] = {}
        if n == 1:
            rhs[0] = Fraction(1)
        # (1+t) * p[n]
        poly_add(rhs, p[n])
        poly_add(rhs, {j + 1: c for j, c in p[n].items()})
        # t * sum_{i+j=n, i>=2, j>=1} p[i] * (j+1) p[j+1]
        conv: dict[int, Fraction] = {}
        for i in range(2, n):
            j = n - i
            term = poly_mul(p[i], {k: (j + 1) * c for k, c in p[j + 1].items()})
            poly_add(conv, term)
        poly_add(rhs, {j + 1: c for j, c in conv.items()})
        p[n + 1] = {j: c / (n + 1) for j, c in rhs.items()}

    coeffs = {}
    for n in range(2, max_order + 1):
        for j, c in p[n].items():
            coeffs[(n, j)] = c
    return TruncatedSeries(max_order, coeffs)


def keel_betti_polynomial(n: int, max_order: int | None = None) -> dict[int, int]:
    """n!*[u^n] of the ODE solution: {k: dim H^{2k}} for the (n+1)-point space."""
    if n < 2:
        return {0: 1}
    A = solve_keel_ode(max(n, max_order or 2))
    out = {}
    for j, c in A.u_coefficient(n).items():
        v = c * factorial(n)
        if v.denominator != 1:
            raise ArithmeticError("non-integral Betti number from ODE")
        out[j] = int(v)
    return out


def verify_functional_equation_B(max_order: int) -> bool:
    """Residual check of B^t = 1 + t u + t^2 (B - 1 - u) with B = A + 1 + u."""
    if max_order < 2:
        return True  # nothing to check below the first nontrivial order
    A = solve_keel_ode(max_order)
    B = A + TruncatedSeries.one(max_order) + TruncatedSeries.u(max_order)
    lhs = B.pow_t()
    t = TruncatedSeries.t(max_order)
    rhs = TruncatedSeries.one(max_order) + t * TruncatedSeries.u(max_order) \
        + t * t * A
    return (lhs - rhs).is_zero()


def verify_arcsin_ode(max_order: int) -> bool:
    """g = arcsin(u sqrt t)/sqrt t satisfies g_uu = t*u*g_u^3 (substituted form
    of h'' = u h'^3)."""
    g = arcsin_series(max_order)
    gu = g.diff_u()
    guu = gu.diff_u()
    rhs = TruncatedSeries.t(max_order) * TruncatedSeries.u(max_order) * gu * gu * gu
    # g is exact through u^max_order, so both sides are exact through max_order-2
    return (guu - rhs).truncated(max_order - 2).is_zero()


def verify_connected_monomial_equation(max_order: int) -> bool:
    """C = log B satisfies C = u + sum_{m>=3} (sum_{l=1}^{m-2} t^l) C^m / m!."""
    A = solve_keel_ode(max_order)
    B = A + TruncatedSeries.one(max_order) + TruncatedSeries.u(max_order)
    C = B.log()
    rhs = TruncatedSeries.u(max_order)
    power = C * C  # C^2
    for m in range(3, max_order + 1):
        power = power * C
        if power.is_zero():
            break
        tsum = TruncatedSeries(max_order,
                               {(0, l): Fraction(1) for l in range(1, m - 1)})
        rhs = rhs + tsum * power.scale(Fraction(1, factorial(m)))
    return (C - rhs).is_zero()
