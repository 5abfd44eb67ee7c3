"""Endomorphisms of the ambient groups and their iterated powers.

Rational ambients take square rational matrices acting on column vectors.
Torsion ambients take shift stencils: a finite list of ``(offset, coeff)``
taps, acting coordinate-wise by ``e_i -> sum_j coeff_j * e_(i + offset_j)``
with any term whose target index would be negative dropped (the boundary rule
for every stencil in this package).

A power of a matrix map applies the matrix power, computed once per
:class:`EndoPower`. So does a power of a one-sided stencil, one whose offsets
are all ``>= 0`` or all ``<= 0``: along every path of taps the partial sums of
the offsets are monotone, so a term lands at a negative index after ``k``
steps exactly when it would be dropped at some step on the way, and ``f^k`` is
multiplication by ``q(s)^k`` in ``Z/m[s]`` (or ``Z/m[1/s]``) with the boundary
rule applied once. A stencil with offsets of both signs is iterated: with taps
``(-1, 1), (1, 1)`` mod 3, ``f^2(e_0) = e_0 + e_2``, while ``q(s)^2`` would
give ``2e_0 + e_2``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable

from .errors import AmbientMismatchError
from .groups import Ambient, Element, FgSubgroup, Rational, TorsionSum, subgroup
from .linalg import RatMatrix

__all__ = [
    "Endo",
    "MatrixEndo",
    "StencilEndo",
    "EndoPower",
    "apply",
    "image",
    "power",
    "right_shift",
    "left_shift",
    "identity_endo",
    "multiplication",
]


class Endo:
    """Base class for endomorphisms of an ambient group."""

    __slots__ = ("ambient",)

    def __init__(self, ambient: Ambient):
        object.__setattr__(self, "ambient", ambient)

    def __setattr__(self, name, value):
        raise AttributeError("endomorphisms are immutable")

    def apply_once(self, x: Element) -> Element:
        raise NotImplementedError


class MatrixEndo(Endo):
    """Left multiplication by a square rational matrix on Q^rank.

    At construction the matrix is also stored as an integer matrix
    ``numerators`` over one common denominator ``den``. An application
    clears the vector to one denominator, runs on Python ints and builds one
    ``Fraction`` per coordinate.
    """

    __slots__ = ("matrix", "numerators", "den")

    def __init__(self, ambient: Rational, matrix: RatMatrix):
        if not isinstance(ambient, Rational):
            raise AmbientMismatchError("MatrixEndo requires a rational ambient")
        if matrix.rows != ambient.rank or matrix.cols != ambient.rank:
            raise ValueError(f"matrix must be {ambient.rank}x{ambient.rank}")
        super().__init__(ambient)
        den = math.lcm(*(e.denominator for e in matrix.entries))
        numerators = tuple(
            tuple(e.numerator * (den // e.denominator) for e in matrix.row(i)) for i in range(matrix.rows)
        )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "den", den)

    def apply_once(self, x: Element) -> Element:
        if x.ambient != self.ambient:
            raise AmbientMismatchError(f"{x.ambient!r} vs {self.ambient!r}")
        d = math.lcm(*(f.denominator for f in x.data))
        xs = [f.numerator * (d // f.denominator) for f in x.data]
        den = self.den * d
        return Element(self.ambient, tuple(Fraction(sum(map(operator.mul, row, xs)), den) for row in self.numerators))

    def __repr__(self) -> str:
        return f"MatrixEndo({self.ambient!r}, {self.matrix!r})"


def _int_matmul(a: tuple, b: tuple) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


def _matrix_power(f: MatrixEndo, k: int) -> MatrixEndo:
    """The map of the ``k``-th power of ``f``'s matrix, by repeated squaring over the ints."""
    den = f.den**k
    result, square = None, f.numerators
    while True:
        if k & 1:
            result = square if result is None else _int_matmul(result, square)
        k >>= 1
        if not k:
            break
        square = _int_matmul(square, square)
    n = f.ambient.rank
    return MatrixEndo(f.ambient, RatMatrix(n, n, [Fraction(e, den) for row in result for e in row]))


def _poly_mul(a: dict[int, int], b: dict[int, int], m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = (out.get(i + j, 0) + x * y) % m
    return {i: c for i, c in out.items() if c}


def _stencil_power(f: StencilEndo, k: int) -> StencilEndo:
    """The stencil ``q(s)^k`` mod ``m`` of a one-sided ``f``, by repeated squaring.

    Its taps may be empty (taps ``(0, 2), (1, 2)`` mod 4 square to zero), which
    the public constructor rejects, so the result is built without it.
    """
    m = f.ambient.modulus
    result, square = {0: 1}, dict(f.taps)
    while True:
        if k & 1:
            result = _poly_mul(result, square, m)
        k >>= 1
        if not k:
            break
        square = _poly_mul(square, square, m)
    step = object.__new__(StencilEndo)
    Endo.__init__(step, f.ambient)
    object.__setattr__(step, "taps", tuple(sorted(result.items())))
    return step


class StencilEndo(Endo):
    """A finite-tap shift stencil on a torsion sum.

    Taps are ``(offset, coeff)`` pairs, at least one, with distinct offsets
    and coefficients nonzero mod the ambient modulus; a ``ValueError`` names
    the tap that breaks a rule (``taps[1].offset: duplicate offset 1``).
    Terms that would land at a negative coordinate index are dropped.
    """

    __slots__ = ("taps",)

    def __init__(self, ambient: TorsionSum, taps: Iterable[tuple[int, int]]):
        if not isinstance(ambient, TorsionSum):
            raise AmbientMismatchError("StencilEndo requires a torsion ambient")
        m = ambient.modulus
        norm: list[tuple[int, int]] = []
        seen: set[int] = set()
        for i, (off, coeff) in enumerate(taps):
            off = operator.index(off)
            coeff = operator.index(coeff) % m
            if off in seen:
                raise ValueError(f"taps[{i}].offset: duplicate offset {off}")
            seen.add(off)
            if coeff == 0:
                raise ValueError(f"taps[{i}].coeff: coefficient is zero mod {m}")
            norm.append((off, coeff))
        if not norm:
            raise ValueError("taps: a stencil needs at least one tap")
        super().__init__(ambient)
        object.__setattr__(self, "taps", tuple(sorted(norm)))

    def apply_once(self, x: Element) -> Element:
        if x.ambient != self.ambient:
            raise AmbientMismatchError(f"{x.ambient!r} vs {self.ambient!r}")
        m = self.ambient.modulus
        out: dict[int, int] = {}
        for i, r in x.data:
            for off, c in self.taps:
                j = i + off
                if j < 0:
                    continue
                t = (out.get(j, 0) + c * r) % m
                if t:
                    out[j] = t
                else:
                    out.pop(j, None)
        return Element(self.ambient, tuple(sorted(out.items())))

    def __repr__(self) -> str:
        return f"StencilEndo({self.ambient!r}, taps={self.taps!r})"


class EndoPower:
    """A positive iterated power of an endomorphism.

    A matrix map is applied as its matrix power and a one-sided stencil as
    the stencil ``q(s)^exponent`` mod ``m``, each computed once here; a
    stencil with offsets of both signs is applied ``exponent`` times.
    """

    __slots__ = ("base", "exponent", "_step", "_times")

    def __init__(self, base: Endo, exponent: int):
        exponent = operator.index(exponent)
        if exponent < 1:
            raise ValueError("exponent must be >= 1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)
        step, times = base, exponent
        if exponent > 1 and isinstance(base, MatrixEndo):
            step, times = _matrix_power(base, exponent), 1
        elif exponent > 1 and isinstance(base, StencilEndo) and base.taps[0][0] * base.taps[-1][0] >= 0:
            # the taps are sorted: every offset is >= 0 or every offset is <= 0
            step, times = _stencil_power(base, exponent), 1
        object.__setattr__(self, "_step", step)
        object.__setattr__(self, "_times", times)

    def __setattr__(self, name, value):
        raise AttributeError("EndoPower is immutable")

    @property
    def ambient(self) -> Ambient:
        return self.base.ambient

    def apply(self, x: Element) -> Element:
        step = self._step
        for _ in range(self._times):
            x = step.apply_once(x)
        return x

    def image(self, h: FgSubgroup) -> FgSubgroup:
        if h.ambient != self.ambient:
            raise AmbientMismatchError(f"{h.ambient!r} vs {self.ambient!r}")
        return subgroup(self.ambient, [self.apply(g) for g in h.generators()])

    def __repr__(self) -> str:
        return f"EndoPower({self.base!r}, {self.exponent})"


def power(f: Endo | EndoPower, k: int) -> EndoPower:
    """The k-th iterate of ``f`` (k >= 1)."""
    if isinstance(f, EndoPower):
        return EndoPower(f.base, f.exponent * operator.index(k))
    return EndoPower(f, k)


def apply(f: Endo | EndoPower, x: Element) -> Element:
    """Apply ``f`` (or its declared power) to an element."""
    return power(f, 1).apply(x) if isinstance(f, Endo) else f.apply(x)


def image(f: Endo | EndoPower, h: FgSubgroup) -> FgSubgroup:
    """Image of a finitely generated subgroup (generator-wise)."""
    return power(f, 1).image(h) if isinstance(f, Endo) else f.image(h)


def right_shift(ambient: TorsionSum) -> StencilEndo:
    """e_i -> e_(i+1)."""
    return StencilEndo(ambient, [(1, 1)])


def left_shift(ambient: TorsionSum) -> StencilEndo:
    """e_i -> e_(i-1), with e_0 discarded."""
    return StencilEndo(ambient, [(-1, 1)])


def identity_endo(ambient: Ambient) -> Endo:
    if isinstance(ambient, TorsionSum):
        return StencilEndo(ambient, [(0, 1)])
    return MatrixEndo(ambient, RatMatrix.identity(ambient.rank))


def multiplication(ambient: Rational, ratio) -> MatrixEndo:
    """Scalar multiplication by a rational number on Q^rank."""
    if isinstance(ratio, float):
        raise TypeError("use Fraction or str for exact ratios")
    q = Fraction(ratio)
    n = ambient.rank
    return MatrixEndo(ambient, RatMatrix(n, n, [q if i == j else Fraction(0) for i in range(n) for j in range(n)]))
