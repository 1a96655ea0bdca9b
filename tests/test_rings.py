from fractions import Fraction

import pytest

from forestalg.rings import QQ, ZZ, CoefficientRing


def test_tags_and_identity():
    assert CoefficientRing("Z") is ZZ
    assert CoefficientRing("Q") is QQ
    with pytest.raises(ValueError):
        CoefficientRing("GF3")


def test_normalization():
    assert QQ.normalize(3) == Fraction(3)
    assert ZZ.normalize(Fraction(4)) == 4


def test_integers_refuse_non_integral_values():
    from forestalg.skewpoly import SkewPoly
    for bad in (Fraction(1, 2), Fraction(-3, 2), 2.7):
        with pytest.raises(ValueError):
            ZZ.normalize(bad)
    with pytest.raises(ValueError):
        SkewPoly(ZZ, {(0,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        SkewPoly(QQ, {(0,): Fraction(3, 2)}).convert(ZZ)
    assert SkewPoly(QQ, {(0,): Fraction(6, 2)}).convert(ZZ).terms == {(0,): 3}


def test_arithmetic():
    assert ZZ.add(2, -5) == -3 and ZZ.mul(-2, 3) == -6
    assert QQ.add(Fraction(1, 2), 1) == Fraction(3, 2)
    assert QQ.mul(Fraction(2, 3), 3) == 2
    assert type(QQ.mul(2, 3)) is Fraction
