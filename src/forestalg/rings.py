"""Exact coefficients: plain Python ints and Fractions.

A coefficient says which ring it lies in: an int is an integer, and a
Fraction a rational (an integral Fraction equals the int of its value, so
the two compare and hash alike).  Arithmetic on coefficients is Python's own.

``integral`` is the check on a value that comes from outside, such as a
caller's coefficient, a parsed term or a Smith entry.  ``ZZ`` and ``QQ`` name
the two rings where an entry point takes one, and mean exactly one thing:
under ``ZZ`` a non-integral coefficient is a ValueError.
"""

from __future__ import annotations

ZZ = "Z"
QQ = "Q"


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
