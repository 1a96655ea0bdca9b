import random
from fractions import Fraction
from math import factorial

import pytest

from forestalg.series import (SeriesDomainError, TruncatedSeries, arcsin_series,
                              assemble_partitions, basic_forest_egf, keel_betti_polynomial,
                              odd_square_product_poly,
                              solve_keel_ode, verify_arcsin_ode,
                              verify_connected_monomial_equation,
                              verify_functional_equation_B)


def test_arcsin_coefficients():
    s = arcsin_series(9)
    assert s.coefficient(1, 0) == 1
    assert s.coefficient(3, 1) == Fraction(1, 6)
    assert s.coefficient(5, 2) == Fraction(3, 40)
    # only odd u powers paired with (u-1)/2 t powers
    assert all(i % 2 == 1 and j == (i - 1) // 2 for (i, j) in s.coeffs)


def test_exp_basics():
    z = TruncatedSeries.zero(6)
    assert z.exp() == TruncatedSeries.one(6)
    u = TruncatedSeries.u(6)
    assert u.exp().coefficient(3, 0) == Fraction(1, 6)
    with pytest.raises(SeriesDomainError):
        TruncatedSeries.one(6).exp()


def test_exp_arcsin_counts_basic_forests():
    # 4! * coefficient of u^4 t^1 equals the count of one-edge basic forests
    # on four labels
    from forestalg.forests import count_basic_forests
    P = basic_forest_egf(6)
    assert int(P.coefficient(4, 1) * factorial(4)) == count_basic_forests(range(1, 5), 1)


def test_egf_matches_product_formula():
    P = basic_forest_egf(9)
    for n in range(10):
        row = {j: c * factorial(n) for (i, j), c in P.coeffs.items() if i == n}
        formula = {d: Fraction(c) for d, c in odd_square_product_poly(n).items()}
        assert row == formula


def test_keel_ode_low_orders():
    assert keel_betti_polynomial(2) == {0: 1}
    assert keel_betti_polynomial(3) == {0: 1, 1: 1}
    assert keel_betti_polynomial(4) == {0: 1, 1: 5, 2: 1}
    # 5 = 2^4 - C(4,2) - 4 - 1
    assert 5 == 2 ** 4 - 6 - 4 - 1


def test_functional_equation():
    assert verify_functional_equation_B(1)
    assert verify_functional_equation_B(4)
    assert verify_functional_equation_B(8)


def test_arcsin_ode_and_connected_equation():
    assert verify_arcsin_ode(12)
    assert verify_connected_monomial_equation(8)


def test_mul_commutative_associative_random():
    rng = random.Random(5)

    def rand_series():
        coeffs = {}
        for _ in range(6):
            coeffs[(rng.randint(0, 5), rng.randint(0, 3))] = Fraction(
                rng.randint(-4, 4), rng.randint(1, 5))
        return TruncatedSeries(8, coeffs)

    for _ in range(20):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_compose_and_diff():
    s = arcsin_series(8)
    # d/du arcsin(u sqrt t)/sqrt t has constant term 1
    assert s.diff_u().coefficient(0, 0) == 1


def test_json_terms():
    s = arcsin_series(3)
    assert s.to_json_terms() == [
        {"u": 1, "t": 0, "numerator": 1, "denominator": 1},
        {"u": 3, "t": 1, "numerator": 1, "denominator": 6},
    ]


def test_log_pow_t_roundtrip():
    A = solve_keel_ode(6)
    B = A + TruncatedSeries.one(6) + TruncatedSeries.u(6)
    assert B.log().exp() == B
    with pytest.raises(SeriesDomainError):
        A.log()


def _set_partitions(labels):
    if not labels:
        yield []
        return
    first, rest = labels[0], labels[1:]
    for part in _set_partitions(rest):
        yield [(first,)] + part
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1:]


def test_assemble_partitions_matches_enumeration():
    rng = random.Random(11)
    for n in range(8):
        partitions = list(_set_partitions(tuple(range(1, n + 1))))
        for _ in range(6):
            # absent sizes, empty blocks, zero dimensions, degree-0 entries
            blocks = {}
            for s in range(2, n + 1):
                kind = rng.randrange(4)
                if kind == 1:
                    blocks[s] = {}
                elif kind == 2:
                    blocks[s] = {rng.randint(0, 3): 0}
                elif kind == 3:
                    blocks[s] = {rng.randint(0, 4): rng.randint(-2, 5)
                                 for _ in range(rng.randint(1, 3))}
            want = {}
            for part in partitions:
                prod = {0: 1}
                for block in part:
                    poly = {0: 1} if len(block) == 1 else blocks.get(len(block), {})
                    nxt = {}
                    for d1, v1 in prod.items():
                        for d2, v2 in poly.items():
                            nxt[d1 + d2] = nxt.get(d1 + d2, 0) + v1 * v2
                    prod = nxt
                for d, v in prod.items():
                    want[d] = want.get(d, 0) + v
            want = {d: v for d, v in sorted(want.items()) if v}
            got = assemble_partitions(n, blocks)
            assert got == want and list(got) == list(want)
    assert len(list(_set_partitions(tuple(range(7))))) == 877  # Bell(7)
    with pytest.raises(ValueError):
        assemble_partitions(-1, {})
