from fractions import Fraction

import pytest

from forestalg.lambda_alg import Presentation
from forestalg.rings import QQ, ZZ, integral
from forestalg.skewpoly import poly_from_json_terms


def test_integers_refuse_non_integral_values():
    for bad in (Fraction(1, 2), Fraction(-3, 2), 2.7, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            integral(bad)
    for good, want in ((Fraction(6, 2), 3), (-4, -4), (5.0, 5)):
        got = integral(good)
        assert got == want and type(got) is int
    pres = Presentation("tri", range(1, 6))
    universe = pres.universe
    with pytest.raises(ValueError, match="non-integral"):
        poly_from_json_terms(ZZ, universe, [{"monomial": [[1, 2, 3]],
                                             "numerator": 3, "denominator": 2}])
    assert poly_from_json_terms(
        ZZ, universe, [{"monomial": [[1, 2, 3]], "numerator": 6,
                        "denominator": 2}]).terms == {(0,): 3}
    with pytest.raises(ValueError):
        pres.monomial([(1, 2, 3)], coeff=Fraction(1, 2))
    with pytest.raises(ValueError):
        pres.monomial([(1, 2, 3)], coeff=2.5)
    assert pres.monomial([(1, 2, 3)], coeff=Fraction(6, 2)).terms == {(0,): 3}
    # the rationals take the same values as they are
    half = pres.monomial([(1, 2, 3)], coeff=Fraction(1, 2), ring=QQ)
    assert half.terms == {(0,): Fraction(1, 2)}
