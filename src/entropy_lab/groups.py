"""Ambient Abelian groups, their elements, and finitely generated subgroups.

Two ambient families are supported:

* ``Rational(rank)``: the column group Q^rank,
* ``TorsionSum(modulus)``: the direct sum of countably many copies of
  Z/modulus, with finitely supported coordinates.

A finitely generated subgroup is stored in a canonical form, so structural
equality of :class:`FgSubgroup` values is subgroup equality. Both ambients
use one form: the Hermite basis of an integer row lattice, one ``(j, row)``
pair per stored row, sorted by pivot column ``j``, each row read from
column ``j`` on, with positive pivots and every entry right of a pivot in
``[0, pivot of that column)``:

* rational: the lattice of numerators over a minimal common denominator
  ``den`` (``gcd`` of all basis entries and ``den`` is 1); each row runs to
  the last coordinate,
* torsion: the integer lift (generators joined with ``modulus * e_j``
  relations); only rows whose pivot is a proper divisor of the modulus are
  stored, trailing zeros trimmed. Every other column's row is the implicit
  ``modulus * e_j``, so the form's size does not depend on how far the
  support lies from coordinate 0.

Subgroups are built by accumulators that absorb one generator at a time
into ``{pivot column: row}`` dicts of that shape, rows trimmed, through
one elimination loop over ``Z/m``, :func:`_eliminate`, with ``m = 0`` for Z
(Storjohann and Mulders, "Fast algorithms for linear algebra modulo N",
ESA 1998), and reduce with the one :func:`_hermite_reduce`. The torsion one
keeps every entry in ``[0, modulus)`` and reduces once, when it freezes the
canonical form. A trajectory walk that grows to the right keys its torsion
rows by their last column instead, so each new vector usually becomes a
row at once; freezing re-absorbs those rows left-keyed first. The rational
one reduces after every absorb that changes its rows, so its rows are the
canonical basis, padded to the last coordinate when it freezes.

Both ambients walk packed. :func:`_packed` gives an element in the format
that the maps step and the accumulators absorb: a torsion vector is
``(first coordinate, residues)``, a rational one ``(den, numerators)`` with
``gcd(den, *numerators) == 1``. A walk stays in that format from the seed's
generators to the accumulator, so ``Fraction`` values appear only at parse,
in :meth:`FgSubgroup.generators` and in reports.

Every absorb returns the index it added to its subgroup: the product of
the pivot changes it made, or 0 when the rank grew. Membership and
inclusion absorb into a copy of the larger subgroup's accumulator and ask
whether each absorb added 1; orders and quotient indices are :func:`_index`
of a run of absorbs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import AmbientMismatchError, ContainmentError
from .linalg import INFINITE, Cardinality, _as_fraction, xgcd

__all__ = [
    "Ambient",
    "Rational",
    "TorsionSum",
    "Element",
    "FgSubgroup",
    "subgroup",
    "sum",
    "contains",
    "is_subgroup_of",
    "quotient_index",
    "subgroup_order",
]


class Ambient:
    """Base class for the two ambient group families."""

    __slots__ = ()

    def element(self, data) -> "Element":
        raise NotImplementedError

    def zero(self) -> "Element":
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Rational(Ambient):
    """The rational vector group Q^rank."""

    rank: int

    def __post_init__(self):
        if operator.index(self.rank) < 1:
            raise ValueError("rank must be >= 1")

    def element(self, values: Iterable) -> "Element":
        vec = tuple(_as_fraction(v) for v in values)
        if len(vec) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(vec)}")
        return Element(self, vec)

    def zero(self) -> "Element":
        return Element(self, (Fraction(0),) * self.rank)

    def basis_element(self, i: int) -> "Element":
        if not 0 <= i < self.rank:
            raise ValueError(f"coordinate {i} out of range for rank {self.rank}")
        return Element(self, tuple(Fraction(1 if j == i else 0) for j in range(self.rank)))


@dataclass(frozen=True, slots=True)
class TorsionSum(Ambient):
    """The direct sum of countably many copies of Z/modulus."""

    modulus: int

    def __post_init__(self):
        if operator.index(self.modulus) < 2:
            raise ValueError("modulus must be >= 2")

    def element(self, entries) -> "Element":
        if hasattr(entries, "items"):
            items = entries.items()
        else:
            items = entries
        acc: dict[int, int] = {}
        for i, r in items:
            i = operator.index(i)
            if i < 0:
                raise ValueError(f"coordinate index {i} is negative")
            acc[i] = (acc.get(i, 0) + operator.index(r)) % self.modulus
        pairs = tuple(sorted((i, r) for i, r in acc.items() if r))
        return Element(self, pairs)

    def zero(self) -> "Element":
        return Element(self, ())

    def basis_element(self, i: int) -> "Element":
        i = operator.index(i)
        if i < 0:
            raise ValueError("coordinate index must be >= 0")
        return Element(self, ((i, 1),))


@dataclass(frozen=True, slots=True, repr=False)
class Element:
    """An element of an ambient group.

    Rational payload: a tuple of ``Fraction`` of length ``rank``. Torsion
    payload: a sorted tuple of ``(index, residue)`` pairs with residues in
    ``[1, modulus)``; absent coordinates are zero.
    """

    ambient: Ambient
    data: tuple

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        amb = self.ambient
        if amb != other.ambient:
            raise AmbientMismatchError(f"{amb!r} vs {other.ambient!r}")
        if isinstance(amb, TorsionSum):
            acc = dict(self.data)
            for i, r in other.data:
                t = (acc.get(i, 0) + r) % amb.modulus
                if t:
                    acc[i] = t
                else:
                    acc.pop(i, None)
            return Element(amb, tuple(sorted(acc.items())))
        return Element(amb, tuple(a + b for a, b in zip(self.data, other.data)))

    def __repr__(self) -> str:
        if isinstance(self.ambient, TorsionSum):
            body = " + ".join(f"{r}*e{i}" if r != 1 else f"e{i}" for i, r in self.data) or "0"
            return f"<{body} mod {self.ambient.modulus}>"
        return f"<({', '.join(str(v) for v in self.data)})>"


@dataclass(frozen=True, slots=True, repr=False)
class FgSubgroup:
    """A finitely generated subgroup of an ambient group, in canonical form.

    ``basis`` is ``((j, (pivot, e_(j+1), ...)), ...)``, one pair per Hermite
    row, sorted by pivot column ``j``. A rational row runs to the last
    coordinate and is read over ``den``. A torsion row is a lift row whose
    pivot is a proper divisor of the modulus, trailing zeros trimmed; ``den``
    is 1.
    """

    ambient: Ambient
    basis: tuple
    den: int

    @property
    def support_window(self) -> int:
        """Number of leading coordinates the subgroup touches (torsion only)."""
        if not isinstance(self.ambient, TorsionSum):
            raise ValueError("support_window is defined for torsion ambients only")
        return max((j + len(row) for j, row in self.basis), default=0)

    def generators(self) -> list[Element]:
        """Canonical generators as ambient elements, one per basis row."""
        amb = self.ambient
        if isinstance(amb, TorsionSum):
            return [Element(amb, tuple((j + k, e) for k, e in enumerate(row) if e)) for j, row in self.basis]
        zero = Fraction(0)
        return [Element(amb, (zero,) * j + tuple(Fraction(e, self.den) for e in row)) for j, row in self.basis]

    def __repr__(self) -> str:
        if isinstance(self.ambient, TorsionSum):
            return f"FgSubgroup({self.ambient!r}, window={self.support_window}, basis={self.basis!r})"
        return f"FgSubgroup({self.ambient!r}, den={self.den}, basis={self.basis!r})"


def _hermite_reduce(rows: dict[int, list[int]], m: int) -> None:
    """Bring every entry right of a pivot into ``[0, pivot of its column)`` and trim each row, in place.

    ``rows`` maps a pivot column ``j`` to its row from column ``j`` on. A
    column with no stored row has the implicit pivot ``m``, a torsion lift's
    ``m * e_j``, which touches only that one entry; over Z (``m = 0``) it has
    no pivot and its entries stay. Each row is read left to right: reducing
    by the row of column ``c`` changes only columns from ``c`` on, so an
    entry once reduced stays reduced.
    """
    for i, ri in rows.items():
        k = 1
        while k < len(ri):
            e = ri[k]
            if e:
                rt = rows.get(i + k)
                if rt is not None:
                    if not 0 <= e < rt[0]:
                        q = e // rt[0]
                        if len(rt) > len(ri) - k:
                            ri.extend([0] * (len(rt) - len(ri) + k))
                        end = k + len(rt)
                        ri[k:end] = [a - q * b for a, b in zip(ri[k:end], rt)]
                elif m:
                    ri[k] = e % m
            k += 1
        _trimmed(ri)


def _trimmed(row: list[int]) -> list[int]:
    while row and not row[-1]:
        row.pop()
    return row


def _eliminate(rows: dict[int, list[int]], vec: list[int], lo: int, m: int) -> int:
    """Absorb a vector, entry ``vec[k]`` at key ``lo + k``, into trimmed ``rows`` over ``Z/m``; return the index added.

    A key with no row has the implicit row ``m * e_j``; over Z (``m = 0``)
    it is 0, so the vector's rest is stored, sign-normalised, and the index
    is 0. The loop consumes ``vec`` and replaces stored rows, never changing
    one in place; only its ``% m`` reductions depend on the ring.
    """
    index = 1
    k = 0
    while True:
        n = len(vec)
        while k < n and not vec[k]:
            k += 1
        if k == n:
            return index
        j = lo + k
        b = vec[k]
        row = rows.get(j)
        if row is None:
            if b == 1:  # the rest of the vector is the row
                rows[j] = _trimmed(vec[k:])
                return index * m
            # eliminate against the implicit row m * e_j: the new pivot y * b is g (mod m)
            g, _, y = xgcd(m, b)
            rows[j] = _trimmed([y * e % m for e in vec[k:]] if m else [y * e for e in vec[k:]])
            f = m // g
            index *= f
            if g == 1 or not f:  # what is left, f times the rest, is 0
                return index
            vec = [f * e % m for e in vec[k + 1 :]]
            lo, k = j + 1, 0
            continue
        a = row[0]
        end = k + len(row)
        if end > n:
            vec.extend([0] * (end - n))
        if b % a == 0:  # the entry at j drops to 0
            q = b // a
            if m:
                vec[k:end] = [(v - q * r) % m for v, r in zip(vec[k:end], row)]
            else:
                vec[k:end] = [v - q * r for v, r in zip(vec[k:end], row)]
        else:  # the pivot drops to g, which divides a < m over Z/m, and the entry at j to 0
            g, xc, yc = xgcd(a, b)
            ag, bg = a // g, b // g
            rest = vec[k:]
            row = row + [0] * (len(rest) - len(row))  # a > 1: a list row, never a stored buffer
            if m:
                rows[j] = _trimmed([(xc * r + yc * v) % m for r, v in zip(row, rest)])
                vec[k:] = [(ag * v - bg * r) % m for r, v in zip(row, rest)]
            else:
                rows[j] = _trimmed([xc * r + yc * v for r, v in zip(row, rest)])
                vec[k:] = [ag * v - bg * r for r, v in zip(row, rest)]
            index *= ag
        k += 1


def _residues(m: int) -> type:
    """What holds a packed vector's residues mod ``m``: ``bytes``, one per coordinate, up to 256; a list past that."""
    return bytes if m <= 256 else list


def _packed(x: Element) -> tuple:
    """``x`` as a walk steps and absorbs it.

    Torsion: ``(first coordinate, residues)``, zeros stripped at both ends;
    zero is ``(0, b"")``. Rational: ``(den, numerators)`` over the least
    common denominator, so ``gcd(den, *numerators) == 1``; zero is
    ``(1, [0, ...])``.
    """
    if isinstance(x.ambient, Rational):
        den = math.lcm(*(f.denominator for f in x.data))
        return den, [f.numerator * (den // f.denominator) for f in x.data]
    pairs = x.data
    if not pairs:
        return 0, b""
    first = pairs[0][0]
    vec = [0] * (pairs[-1][0] - first + 1)
    for i, r in pairs:
        vec[i - first] = r
    return first, _residues(x.ambient.modulus)(vec)


def _unpacked(ambient: Ambient, v: tuple) -> Element:
    """The element of a packed vector: the inverse of :func:`_packed`."""
    if isinstance(ambient, Rational):
        den, nums = v
        return Element(ambient, tuple(Fraction(e, den) for e in nums))
    first, buf = v
    return Element(ambient, tuple((first + k, r) for k, r in enumerate(buf) if r))


class _TorsionAcc:
    """Growable echelon basis of a torsion subgroup's integer lift, over ``Z/m``.

    The lift is the lattice of integer vectors whose residues lie in the
    subgroup, so it contains every ``m * e_j``. Its triangular basis has one
    row per column; ``rows`` holds only the rows whose pivot is a proper
    divisor of ``m``, trailing zeros trimmed, and every other column carries
    an implicit ``m * e_j`` row. Left-keyed, a row is keyed by its first
    nonzero column ``j`` and read from ``j`` rightwards, as in the canonical
    form. Right-keyed, it is keyed by ``-c`` for its last nonzero column
    ``c`` and read from ``c`` leftwards: a walk that grows to the right from
    a fixed left end then makes most new ``f^n(g)`` a row at once, instead
    of reducing it against nearly every stored row. :func:`_eliminate`
    runs on keys for both sides (the Storjohann--Mulders argument holds with
    the columns reversed), and ``to_subgroup`` re-absorbs right-keyed rows
    left-keyed before the Hermite reduction.

    :meth:`absorb_packed` eliminates a packed vector from key ``first``, or
    its reversed residues from key ``-last`` when right-keyed. A vector led
    by a 1 at a key with no row is stored as its buffer, with no list built;
    the loop replaces stored rows and never changes one in place.

    Every stored entry lies in ``[0, m)``. Reducing mod ``m`` is sound
    because ``m * e_t`` lies in the lift and every pivot divides ``m``.
    An absorb returns the index it added to the subgroup: the product of
    ``m // g`` for each new row of pivot ``g`` (it replaces an implicit
    row of pivot ``m``) and ``a // g`` for each pivot that drops from ``a``
    to ``g``. The index is the same on either side.
    """

    __slots__ = ("modulus", "right", "rows")

    def __init__(self, modulus: int, right: bool = False):
        self.modulus = modulus
        self.right = right
        self.rows: dict[int, list[int]] = {}

    @classmethod
    def from_subgroup(cls, h: "FgSubgroup", right: bool = False) -> "_TorsionAcc":
        acc = cls(h.ambient.modulus, right)
        if right:
            for v in h.basis:  # each canonical row is a packed vector
                acc.absorb_packed(v)
        else:
            acc.rows = {j: list(row) for j, row in h.basis}
        return acc

    def absorb(self, x: Element) -> int:
        return self.absorb_packed(_packed(x))

    def absorb_packed(self, v: tuple) -> int:
        """Absorb the packed vector ``(first, residues)``; return the index added."""
        lo, buf = v
        if not buf:
            return 1
        if self.right:
            lo, buf = 1 - lo - len(buf), buf[::-1]
        if buf[0] == 1 and lo not in self.rows:  # the vector is the row
            self.rows[lo] = buf
            return self.modulus
        return _eliminate(self.rows, list(buf), lo, self.modulus)

    def to_subgroup(self, ambient: TorsionSum) -> FgSubgroup:
        rows = self.rows
        if self.right:
            left = _TorsionAcc(self.modulus)
            # lowest last column first: each row meets only rows left of its last column
            for j, row in sorted(rows.items(), reverse=True):
                left.absorb_packed((1 - j - len(row), row[::-1]))
            rows = left.rows
        rows = {j: list(r) for j, r in rows.items()}
        _hermite_reduce(rows, self.modulus)
        return FgSubgroup(ambient, tuple((j, tuple(rows[j])) for j in sorted(rows)), 1)


class _RationalAcc:
    """Growable Hermite basis of a rational subgroup.

    The subgroup is ``L / den`` for an integer row lattice ``L``. It absorbs
    packed vectors ``(d, numerators)`` (:func:`_packed`) as a matrix step
    hands them over, with no ``Fraction`` built: ``den`` becomes
    ``lcm(den, d)`` and ``L`` is rescaled to it, so ``den`` only ever grows by
    integer factors. Since ``gcd(d, *numerators) == 1``, ``d`` is the lcm of
    the vector's reduced denominators. :func:`_eliminate` absorbs at
    ``m = 0`` into ``rows``, which maps a pivot column ``j`` to that row from
    column ``j`` on, trimmed; only :meth:`to_subgroup` pads it to the last
    coordinate. ``rows`` is kept in Hermite form after every absorb: pivots
    are positive, and each entry right of a pivot lies in
    ``[0, pivot of that column)`` (Domich, Kannan and Trotter 1987; Cohen,
    GTM 138, section 2.4). That form is unique, and ``den`` is the lcm of the
    absorbed entries' reduced denominators, the minimal common one: for each
    prime ``p`` dividing it, some cleared entry is prime to ``p``. So
    ``rows`` over ``den`` is the canonical form itself. Rescaling keeps the
    form, since it multiplies each pivot and the entries right of it alike,
    and adds no index: the subgroup is the same. An absorb returns the
    product of ``a // g`` over the pivots that drop from ``a`` to ``g``, or 0
    when it adds a row, since the rank, and so the index, grew.
    """

    __slots__ = ("dim", "den", "rows")

    def __init__(self, dim: int):
        self.dim = dim
        self.den = 1
        self.rows: dict[int, list[int]] = {}

    @classmethod
    def from_subgroup(cls, h: "FgSubgroup") -> "_RationalAcc":
        acc = cls(h.ambient.rank)
        acc.den = h.den
        acc.rows = {j: _trimmed(list(row)) for j, row in h.basis}
        return acc

    def absorb(self, x: Element) -> int:
        return self.absorb_packed(_packed(x))

    def absorb_packed(self, v: tuple) -> int:
        """Absorb the packed vector ``(d, numerators)``, ``gcd(d, *numerators) == 1``; return the index added."""
        d, nums = v
        target = math.lcm(self.den, d)
        if target != self.den:
            factor = target // self.den
            for row in self.rows.values():
                row[:] = [e * factor for e in row]
            self.den = target
        factor = target // d
        index = _eliminate(self.rows, [e * factor for e in nums], 0, 0)
        if index != 1:  # the rows changed
            _hermite_reduce(self.rows, 0)
        return index

    def to_subgroup(self, ambient: Rational) -> FgSubgroup:
        rows = self.rows  # each padded back to the last coordinate
        return FgSubgroup(ambient, tuple((j, tuple(rows[j]) + (0,) * (self.dim - j - len(rows[j]))) for j in sorted(rows)), self.den)


def _accumulator_from(h: FgSubgroup, right: bool = False):
    if isinstance(h.ambient, TorsionSum):
        return _TorsionAcc.from_subgroup(h, right)
    return _RationalAcc.from_subgroup(h)


def _index(gains: Iterable[int]) -> Cardinality:
    """The index a run of absorbs added: the product of the indices they returned, infinite if one was 0."""
    index = math.prod(gains)
    return Cardinality.finite(index) if index else INFINITE


def subgroup(ambient: Ambient, gens: Iterable[Element]) -> FgSubgroup:
    """Canonical subgroup generated by ``gens`` inside ``ambient``."""
    acc = _accumulator_from(FgSubgroup(ambient, (), 1))
    for g in gens:
        if not isinstance(g, Element):
            raise TypeError(f"expected Element, got {type(g).__name__}")
        if g.ambient != ambient:
            raise AmbientMismatchError(f"generator from {g.ambient!r} in {ambient!r}")
        acc.absorb(g)
    return acc.to_subgroup(ambient)


def sum(h: FgSubgroup, k: FgSubgroup) -> FgSubgroup:
    """Smallest subgroup containing both ``h`` and ``k``."""
    if h.ambient != k.ambient:
        raise AmbientMismatchError(f"{h.ambient!r} vs {k.ambient!r}")
    acc = _accumulator_from(h)
    for g in k.generators():
        acc.absorb(g)
    return acc.to_subgroup(h.ambient)


def contains(h: FgSubgroup, x: Element) -> bool:
    """Membership of an ambient element in ``h``."""
    if h.ambient != x.ambient:
        raise AmbientMismatchError(f"{h.ambient!r} vs {x.ambient!r}")
    return _accumulator_from(h).absorb(x) == 1


def is_subgroup_of(h: FgSubgroup, k: FgSubgroup) -> bool:
    """True iff every canonical generator of ``h`` lies in ``k``."""
    if h.ambient != k.ambient:
        raise AmbientMismatchError(f"{h.ambient!r} vs {k.ambient!r}")
    acc = _accumulator_from(k)
    return all(acc.absorb(g) == 1 for g in h.generators())


def subgroup_order(h: FgSubgroup) -> Cardinality:
    """Number of elements of ``h``: its index over the zero subgroup."""
    return quotient_index(h, FgSubgroup(h.ambient, (), 1))


def quotient_index(k: FgSubgroup, h: FgSubgroup) -> Cardinality:
    """Index ``|K/H|`` for ``h`` a subgroup of ``k`` (checked): what ``k``'s generators add to ``h``."""
    if k.ambient != h.ambient:
        raise AmbientMismatchError(f"{k.ambient!r} vs {h.ambient!r}")
    if not is_subgroup_of(h, k):
        raise ContainmentError("quotient_index requires h to be a subgroup of k")
    acc = _accumulator_from(h)
    return _index(acc.absorb(g) for g in k.generators())
