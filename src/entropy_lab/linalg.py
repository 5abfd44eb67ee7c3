"""Exact rational matrices, cardinalities, and the gcd kernel.

Everything here runs in arbitrary-precision arithmetic: matrices hold
:class:`fractions.Fraction` entries and no floating point appears anywhere.
:class:`RatMatrix` is the input type of ``MatrixEndo``, ``xgcd`` is the
elimination step of the subgroup accumulators in :mod:`entropy_lab.groups`,
:class:`Cardinality` sizes groups and quotients, and :func:`digits` writes
any of their integers out in full. The accumulators build canonical
subgroup bases themselves; the independent Hermite-form reference they are
tested against lives with the tests, in ``tests/hermite.py``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "Cardinality",
    "INFINITE",
    "RatMatrix",
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


@dataclass(frozen=True, slots=True, repr=False)
class RatMatrix:
    """Immutable dense matrix over the rationals (``Fraction`` entries)."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        rows, cols = operator.index(self.rows), operator.index(self.cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        ents = tuple(_as_fraction(e) for e in self.entries)
        if len(ents) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ents)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ents)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum((ri[t] * other.entries[t * other.cols + j] for t in range(self.cols)), Fraction(0)))
        return RatMatrix(self.rows, other.cols, out)

    def __repr__(self) -> str:
        return f"RatMatrix({[[str(e) for e in r] for r in self.to_rows()]!r})"
