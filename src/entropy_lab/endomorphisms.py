"""Endomorphisms of the ambient groups and their iterated powers.

Rational ambients take square rational matrices acting on column vectors.
Torsion ambients take shift stencils: a finite list of ``(offset, coeff)``
taps, acting coordinate-wise by ``e_i -> sum_j coeff_j * e_(i + offset_j)``
with any term whose target index would be negative dropped (the boundary rule
for every stencil in this package).

A rational map is given by its rows of exact rationals and kept once, as an
integer matrix over one denominator. A power of a matrix map applies the
matrix power, and so does a power of a one-sided stencil, one whose offsets
are all ``>= 0`` or all ``<= 0``: along every path of taps the
partial sums of the offsets are monotone, so a term lands at a negative index
after ``k`` steps exactly when it would be dropped at some step on the way,
and ``f^k`` is multiplication by ``q(s)^k`` in ``Z/m[s]`` (or ``Z/m[1/s]``)
with the boundary rule applied once. One square-and-multiply routine composes
either, once per :class:`EndoPower`, into a map of the base's own class. A
stencil with offsets of both signs is iterated: with taps ``(-1, 1), (1, 1)``
mod 3, ``f^2(e_0) = e_0 + e_2``, while ``q(s)^2`` would give ``2e_0 + e_2``.

Both kinds of map step packed vectors (:func:`~entropy_lab.groups._packed`)
by their ``_kernel``. A stencil's is :func:`_stencil_kernel`, on
``(first coordinate, residues)``: one big-int product per chunk of taps,
then every field reduced mod ``m`` at once. A matrix's is
:meth:`MatrixEndo._kernel`, on ``(den, numerators)``: ``rank²`` int
multiply-adds and one gcd, with no ``Fraction`` built. :meth:`EndoPower.apply`
packs and unpacks around the kernel, and a trajectory walk stays packed. The
dict loop of :meth:`StencilEndo.apply_once` is the definition that the oracle
iterates, apart from the engine's kernel.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable

from .errors import AmbientMismatchError
from .groups import Ambient, Element, FgSubgroup, Rational, TorsionSum, _packed, _residues, _unpacked, subgroup
from .linalg import _as_fraction

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
        return EndoPower(self, 1).apply(x)


class MatrixEndo(Endo):
    """Left multiplication by a square rational matrix on Q^rank.

    The matrix is given as ``rank`` rows of ``rank`` exact rationals (a float
    raises ``TypeError``, a ragged or non-square matrix ``ValueError``) and
    kept only as an integer matrix ``numerators`` over one common
    denominator ``den``. Its step,
    :meth:`_kernel`, runs on a packed vector ``(d, xs)`` on Python ints
    alone; :meth:`apply_once` packs and unpacks around it.
    """

    __slots__ = ("numerators", "den")

    def __init__(self, ambient: Rational, rows: Iterable[Iterable]):
        if not isinstance(ambient, Rational):
            raise AmbientMismatchError("MatrixEndo requires a rational ambient")
        rows = [[_as_fraction(e) for e in row] for row in rows]
        if len(rows) != ambient.rank or any(len(row) != ambient.rank for row in rows):
            raise ValueError(f"matrix must be {ambient.rank}x{ambient.rank}")
        super().__init__(ambient)
        den = math.lcm(*(e.denominator for row in rows for e in row))
        numerators = tuple(tuple(e.numerator * (den // e.denominator) for e in row) for row in rows)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "den", den)

    def _kernel(self, v: tuple) -> tuple:
        """The packed step ``(d, xs) -> (d * den, numerators @ xs)``, divided by its gcd so it stays reduced."""
        d, xs = v
        out = [sum(map(operator.mul, row, xs)) for row in self.numerators]
        d *= self.den
        g = math.gcd(d, *out)
        return (d, out) if g == 1 else (d // g, [e // g for e in out])

    def __repr__(self) -> str:
        return f"MatrixEndo({self.ambient!r}, numerators={self.numerators!r}, den={self.den})"


def _int_matmul(a: tuple, b: tuple) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


def _poly_mul(a: dict[int, int], b: dict[int, int], m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = (out.get(i + j, 0) + x * y) % m
    return {i: c for i, c in out.items() if c}


def _by_squaring(x, k: int, mul):
    """``x`` multiplied by itself ``k`` times under ``mul``, by square-and-multiply."""
    result = None
    while True:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if not k:
            return result
        x = mul(x, x)


def _built(like: Endo, **slots) -> Endo:
    """A map of ``like``'s class on its ambient with these slots, past the validating constructor.

    A composed stencil power may have no taps (taps ``(0, 2), (1, 2)`` mod 4
    square to zero), which the constructor rejects; its kernel is the zero map.
    """
    step = object.__new__(type(like))
    Endo.__init__(step, like.ambient)
    for name, value in slots.items():
        object.__setattr__(step, name, value)
    return step


def _stencil_kernel(taps: tuple, m: int):
    """The packed step of the stencil with these sorted taps mod ``m``: ``(first, residues) -> (first, residues)``.

    A Kronecker product: the vector is one int with a field per coordinate,
    and each chunk of taps one int, tap ``(off, c)`` at field ``off - lo`` for
    the least offset ``lo``, so the product's field ``i`` is coordinate
    ``first + lo + i``, unreduced. Byte fields (``m <= 16``) take
    ``(256 - m) // (m - 1)^2`` taps per chunk, so a reduced field plus a
    chunk's products never carries; ``bytes.translate`` with a table of
    ``i % m`` reduces them after each chunk. Past that, every tap goes in one
    chunk of fields wide enough for all, each reduced by its own ``% m``.
    Fields below coordinate 0 are dropped (the boundary rule), then leading
    and trailing zeros.
    """
    if not taps:
        return lambda v: (0, b"")
    lo, span = taps[0][0], taps[-1][0] - taps[0][0]
    room = (256 - m) // (m - 1) ** 2
    if room > 0:
        table = bytes(i % m for i in range(256))
        head, *rest = [sum(c << 8 * (off - lo) for off, c in taps[i : i + room]) for i in range(0, len(taps), room)]

        def step(v):
            first, buf = v
            n = len(buf) + span
            x = int.from_bytes(buf, "little")
            out = (x * head).to_bytes(n, "little").translate(table)
            for chunk in rest:
                out = (int.from_bytes(out, "little") + x * chunk).to_bytes(n, "little").translate(table)
            first += lo
            if first < 0:
                out, first = out[-first:], 0
            body = out.lstrip(b"\0")
            return first + len(out) - len(body), body.rstrip(b"\0")

        return step
    width = ((len(taps) * (m - 1) ** 2).bit_length() + 7) // 8
    t = sum(c << 8 * width * (off - lo) for off, c in taps)
    residues = _residues(m)

    def wide_step(v):
        first, buf = v
        n = (len(buf) + span) * width
        x = int.from_bytes(b"".join(r.to_bytes(width, "little") for r in buf), "little")
        out = (x * t).to_bytes(n, "little")
        res = [int.from_bytes(out[i : i + width], "little") % m for i in range(max(0, -first - lo) * width, n, width)]
        lead = next((i for i, r in enumerate(res) if r), len(res))
        while len(res) > lead and not res[-1]:
            res.pop()
        return max(first + lo, 0) + lead, residues(res[lead:])

    return wide_step


class StencilEndo(Endo):
    """A finite-tap shift stencil on a torsion sum.

    Taps are ``(offset, coeff)`` pairs, at least one, with distinct offsets
    and coefficients nonzero mod the ambient modulus; a ``ValueError`` names
    the tap that breaks a rule (``taps[1].offset: duplicate offset 1``).
    Terms that would land at a negative coordinate index are dropped.

    The engine applies it only by ``_kernel``, its packed step, built once
    per map; :meth:`apply_once` is the definition that the oracle iterates.
    """

    __slots__ = ("taps", "_kernel")

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
        object.__setattr__(self, "_kernel", _stencil_kernel(self.taps, m))

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
    stencil with offsets of both signs runs its kernel ``exponent`` times.
    :meth:`apply` runs the kernel on the packed element.
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
            numerators = _by_squaring(base.numerators, exponent, _int_matmul)
            step, times = _built(base, numerators=numerators, den=base.den**exponent), 1
        elif exponent > 1 and isinstance(base, StencilEndo) and base.taps[0][0] * base.taps[-1][0] >= 0:
            # the taps are sorted: every offset is >= 0 or every offset is <= 0
            m = base.ambient.modulus
            taps = tuple(sorted(_by_squaring(dict(base.taps), exponent, functools.partial(_poly_mul, m=m)).items()))
            step, times = _built(base, taps=taps, _kernel=_stencil_kernel(taps, m)), 1
        object.__setattr__(self, "_step", step)
        object.__setattr__(self, "_times", times)

    def __setattr__(self, name, value):
        raise AttributeError("EndoPower is immutable")

    @property
    def ambient(self) -> Ambient:
        return self.base.ambient

    def apply(self, x: Element) -> Element:
        if x.ambient != self.ambient:
            raise AmbientMismatchError(f"{x.ambient!r} vs {self.ambient!r}")
        return _unpacked(x.ambient, self._apply_packed(_packed(x)))

    def _apply_packed(self, v: tuple) -> tuple:
        """The power on a packed vector, as a packed vector."""
        kernel = self._step._kernel
        for _ in range(self._times):
            v = kernel(v)
        return v

    def __repr__(self) -> str:
        return f"EndoPower({self.base!r}, {self.exponent})"


def power(f: Endo | EndoPower, k: int) -> EndoPower:
    """The k-th iterate of ``f`` (k >= 1); the first power of an :class:`EndoPower` is itself."""
    k = operator.index(k)
    if not isinstance(f, EndoPower):
        return EndoPower(f, k)
    return f if k == 1 else EndoPower(f.base, f.exponent * k)


def apply(f: Endo | EndoPower, x: Element) -> Element:
    """Apply ``f`` (or its declared power) to an element."""
    return power(f, 1).apply(x)


def image(f: Endo | EndoPower, h: FgSubgroup) -> FgSubgroup:
    """Image of a finitely generated subgroup (generator-wise)."""
    if h.ambient != f.ambient:
        raise AmbientMismatchError(f"{h.ambient!r} vs {f.ambient!r}")
    f = power(f, 1)
    return subgroup(f.ambient, [f.apply(g) for g in h.generators()])


def right_shift(ambient: TorsionSum) -> StencilEndo:
    """e_i -> e_(i+1)."""
    return StencilEndo(ambient, [(1, 1)])


def left_shift(ambient: TorsionSum) -> StencilEndo:
    """e_i -> e_(i-1), with e_0 discarded."""
    return StencilEndo(ambient, [(-1, 1)])


def multiplication(ambient: Rational, ratio) -> MatrixEndo:
    """Scalar multiplication by a rational number on Q^rank."""
    q = _as_fraction(ratio)
    n = ambient.rank
    return MatrixEndo(ambient, [[q if i == j else 0 for j in range(n)] for i in range(n)])
