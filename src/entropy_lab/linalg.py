"""Exact cardinalities, exact rationals, and the gcd kernel.

Everything here runs in arbitrary-precision arithmetic; no floating point
appears anywhere. ``_as_fraction`` admits the exact inputs (a float raises
``TypeError``) of elements, matrix rows and cyclic rationals, ``xgcd`` is the
elimination step of the subgroup accumulators in :mod:`entropy_lab.groups`,
:class:`Cardinality` sizes groups and quotients, and :func:`digits` writes
any of their integers out in full. The accumulators build canonical
subgroup bases themselves; the independent Hermite-form reference they are
tested against lives with the tests, in ``tests/hermite.py``.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "Cardinality",
    "INFINITE",
    "digits",
    "xgcd",
]


def digits(n: int) -> str:
    """The decimal digits of ``n``: ``str`` up to 4,215 digits, inside the interpreter's limit, ``Decimal`` past it."""
    return str(n) if n.bit_length() <= 14000 else str(Decimal(n))


class Cardinality:
    """The size of a group or quotient: a positive integer, or infinite.

    >>> Cardinality.finite(8).value
    8
    >>> INFINITE.is_finite
    False
    >>> Cardinality.finite(2) * Cardinality.finite(3)
    Finite(6)
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | None):
        if value is not None:
            value = operator.index(value)
            if value < 1:
                raise ValueError("finite cardinality must be >= 1")
        self._value = value

    @classmethod
    def finite(cls, value: int) -> "Cardinality":
        return cls(value)

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> int:
        if self._value is None:
            raise ValueError("infinite cardinality has no integer value")
        return self._value

    def __mul__(self, other: "Cardinality") -> "Cardinality":
        if not isinstance(other, Cardinality):
            return NotImplemented
        if self._value is None or other._value is None:
            return INFINITE
        return Cardinality(self._value * other._value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cardinality) and self._value == other._value

    def __hash__(self) -> int:
        return hash(("Cardinality", self._value))

    def __repr__(self) -> str:
        return "Infinite" if self._value is None else f"Finite({digits(self._value)})"


INFINITE = Cardinality(None)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns ``(g, x, y)`` with ``g = a*x + b*y`` and ``g >= 0``.

    ``x`` is the inverse of ``a / g`` modulo ``|b| / g`` (0 when that is 1),
    so ``a*x - g`` is a multiple of ``b`` and ``y`` is exact.
    """
    if not b:
        return abs(a), -1 if a < 0 else 1, 0
    g = math.gcd(a, b)
    x = pow(a // g, -1, abs(b) // g)
    return g, x, (g - a * x) // b


def _as_fraction(v) -> Fraction:
    """``v`` as an exact ``Fraction``; a float, which is not exact, raises ``TypeError``."""
    if isinstance(v, float):
        raise TypeError(f"floating point value {v!r} is not allowed; use Fraction or str")
    return Fraction(v)
