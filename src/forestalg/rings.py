"""Exact coefficient rings: the integers and the rationals.

Coefficients are plain Python ints or Fractions; a ring object only
normalizes, adds and multiplies.
"""

from __future__ import annotations

from fractions import Fraction


class RingMismatchError(ValueError):
    """Raised when elements of different coefficient rings are combined."""


def integral(c) -> int:
    """c as an int; ValueError unless c is an integer (an integral Fraction
    passes, 1/2 or 2.7 does not)."""
    if type(c) is int:
        return c
    try:
        i = int(c)
    except (OverflowError, ValueError):  # inf, nan
        raise ValueError(f"{c!r} is not an integer") from None
    if i != c:
        raise ValueError(f"{c!r} is not an integer")
    return i


class CoefficientRing:
    """Z or Q, identified by tag."""

    __slots__ = ("tag",)

    _INSTANCES: dict[str, "CoefficientRing"] = {}

    def __new__(cls, tag: str) -> "CoefficientRing":
        if tag not in ("Z", "Q"):
            raise ValueError(f"unknown coefficient ring tag {tag!r}")
        inst = cls._INSTANCES.get(tag)
        if inst is None:
            inst = object.__new__(cls)
            object.__setattr__(inst, "tag", tag)
            cls._INSTANCES[tag] = inst
        return inst

    def __repr__(self) -> str:
        return f"CoefficientRing({self.tag})"

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CoefficientRing is immutable")

    def normalize(self, c):
        """Canonical representative; may return 0.  ValueError for a value
        outside the ring, such as 1/2 over Z."""
        if self.tag == "Z":
            return integral(c)
        if isinstance(c, Fraction):
            return c
        return Fraction(c)

    def add(self, a, b):
        return self.normalize(a + b)

    def mul(self, a, b):
        return self.normalize(a * b)


ZZ = CoefficientRing("Z")
QQ = CoefficientRing("Q")
