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


def test_arithmetic():
    assert ZZ.add(2, -5) == -3 and ZZ.mul(-2, 3) == -6
    assert QQ.add(Fraction(1, 2), 1) == Fraction(3, 2)
    assert QQ.mul(Fraction(2, 3), 3) == 2
    assert type(QQ.mul(2, 3)) is Fraction
