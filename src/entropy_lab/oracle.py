"""Brute-force cross-checks, independent of the normal-form machinery.

Three counting routes live here:

* row spans on the CRT components of ``m``. A subgroup ``S`` of the sum of
  copies of ``Z/m`` is the direct sum of its images mod the components
  ``q = p^a`` of ``m``, since each component's idempotent is an integer and
  so maps ``S`` into itself; hence ``|S| = prod |S mod q|``. Every
  component walks its own vectors: ``H``'s generators packed mod ``q``
  once, bits in one int for ``q = 2`` and a residue field per coordinate
  otherwise, stepped by the map's taps read mod ``q``. :class:`_Span`
  counts each image from the leads of its rows over ``Z/q``;
* element enumeration by coset closure, :func:`adjoin`, the brute-force
  reference of :func:`index_by_enumeration`. Each element is one int,
  coordinate ``i`` the ``w``-bit field at bit ``i*w`` of :func:`_field_width`:
  a sum of two residues stays below the field's top (guard) bit, and it
  reached ``m`` exactly when adding ``2^(w-1) - m`` sets the guard bit, so
  an int addition and a masked correction add mod ``m`` in every field;
* cyclic subgroups of Q, where the sum of ``g Z`` and ``g' Z`` has the closed
  form ``gcd(p*q', p'*q) / (q*q')`` for ``g = p/q`` and ``g' = p'/q'``, and
  ``T_n`` follows by Horner's rule, ``T_(n+1) = H + f(T_n)``.

None of these touches Hermite forms, lattice indices, a map's kernel or
``apply_once``, the engine's accumulators or its closed forms, so agreement
with the main engine is a meaningful check rather than a tautology. The
CRT components come from trial division below ``2^16``; a cofactor it
leaves is spanned whole, and split by a gcd where two leads' gcds do not
divide each other. :func:`verify_trace` compares a growth trace's indices
with them as ints, index by index.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterable, Iterator

from .endomorphisms import EndoPower
from .entropy import GrowthTrace
from .errors import (
    AmbientMismatchError,
    ContainmentError,
    EnumerationCapError,
    OracleMismatchError,
    RationalAmbientError,
)
from .groups import Element, FgSubgroup, Rational, TorsionSum
from .linalg import Cardinality, _as_fraction, _split_off

__all__ = [
    "DEFAULT_CAP",
    "ElementSet",
    "CyclicRational",
    "adjoin",
    "enumerate_subgroup",
    "index_by_enumeration",
    "cyclic_sum",
    "cyclic_from_subgroup",
    "verify_trace",
]

DEFAULT_CAP = 4096


def _components(m: int) -> list[int]:
    """The CRT components ``p^a`` of ``m`` with ``p < 2^16``, by trial division, then the cofactor they leave."""
    out, p = [], 2
    while p * p <= m and p < 1 << 16:
        if m % p == 0:
            q, m = _split_off(m, p)
            out.append(q)
        p += 1
    return out + [m] if m > 1 else out


@dataclass(frozen=True)
class ElementSet:
    """Explicit elements of a (finite) subgroup, one packed int each; ``capped`` marks a truncated closure."""

    ambient: TorsionSum
    packed: frozenset[int]
    capped: bool

    @property
    def elements(self) -> frozenset[Element]:
        return frozenset(_decode(self.ambient, code, _field_width(self.ambient.modulus)) for code in self.packed)


def _field_width(m: int) -> int:
    """Bits per coordinate: room for the sum of two residues below ``m``, then a guard bit."""
    return (2 * m - 1).bit_length() + 1


def _pack(x: Element, q: int, w: int) -> tuple[int, int]:
    """``x`` read mod ``q`` as a vector ``(lo, v)``: coordinate ``lo + i`` in the ``w``-bit field ``i`` of ``v``."""
    lo = x.data[0][0] if x.data else 0
    return lo, sum((r % q) << ((i - lo) * w) for i, r in x.data)


def _masks(m: int, w: int, fields: int) -> tuple[int, int]:
    """``top``, the guard bit of each of ``fields`` fields, and ``lift``, ``2^(w-1) - m`` in each."""
    unit = ((1 << fields * w) - 1) // ((1 << w) - 1)
    return unit << (w - 1), unit * ((1 << (w - 1)) - m)


def _decode(ambient: TorsionSum, code: int, w: int) -> Element:
    field = (1 << w) - 1
    pairs = ((i, (code >> (i * w)) & field) for i in range(-(-code.bit_length() // w)))
    return Element(ambient, tuple((i, r) for i, r in pairs if r))


@dataclass(frozen=True)
class CyclicRational:
    """The cyclic subgroup ``g Z`` of Q for a non-negative generator ``g``."""

    generator: Fraction

    def __post_init__(self):
        object.__setattr__(self, "generator", abs(_as_fraction(self.generator)))


def adjoin(s: ElementSet, gens: Iterable[Element], cap: int = DEFAULT_CAP) -> ElementSet:
    """The elements of ``S + <gens>``, where ``s`` holds a subgroup ``S``.

    Coset closure, one generator ``g`` at a time: while ``c*g`` is not in the
    current subgroup, the coset ``S + c*g`` is new and disjoint from the
    ones before it. A generator already in ``S`` costs one lookup. Once the
    closure would pass ``cap`` elements the result is ``capped`` and holds
    ``cap`` of them (more only if ``s`` itself does); a capped ``s`` is
    returned as it is.
    """
    cap = operator.index(cap)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if isinstance(s.ambient, Rational):
        raise RationalAmbientError("cannot enumerate subgroups of a rational ambient")
    gens = list(gens)
    for g in gens:
        if g.ambient != s.ambient:
            raise AmbientMismatchError(f"{g.ambient!r} vs {s.ambient!r}")
    if s.capped:
        return s
    m = s.ambient.modulus
    w = _field_width(m)
    guard = w - 1
    base = s.packed
    for lo, v in (_pack(g, m, w) for g in gens):
        code = v << (lo * w)
        if code in base:
            continue
        # a translate x + c*g needs reducing only where c*g, which lies inside
        # g's support, meets x: past g's fields it is x's, already reduced
        top, lift = _masks(m, w, -(-code.bit_length() // w))
        cosets: list[int] = []
        step = code
        while step not in base:
            room = cap - len(base) - len(cosets)
            part = base if len(base) <= room else islice(base, max(0, room))
            cosets += [(t := x + step) - (((t + lift) & top) >> guard) * m for x in part]
            if part is not base:
                return ElementSet(ambient=s.ambient, packed=base.union(cosets), capped=True)
            step += code
            step -= (((step + lift) & top) >> guard) * m
        base = base.union(cosets)
    return s if base is s.packed else ElementSet(ambient=s.ambient, packed=base, capped=False)


def enumerate_subgroup(h: FgSubgroup, cap: int = DEFAULT_CAP) -> ElementSet:
    """All elements of ``h``: the coset closure of ``{0}`` under its generators."""
    return adjoin(ElementSet(ambient=h.ambient, packed=frozenset({0}), capped=False), h.generators(), cap)


def index_by_enumeration(
    k: FgSubgroup | ElementSet, h: FgSubgroup | ElementSet, cap: int = DEFAULT_CAP
) -> Cardinality:
    """``|K| / |H|`` by counting elements; requires both closures to fit in ``cap``.

    Either side may be given already enumerated, so a caller that compares
    many ``K`` against one ``H`` counts ``H`` once, and a caller that grows
    ``K`` with :func:`adjoin` does not count it again.
    """
    if k.ambient != h.ambient:
        raise AmbientMismatchError(f"{k.ambient!r} vs {h.ambient!r}")
    big = k if isinstance(k, ElementSet) else enumerate_subgroup(k, cap)
    if big.capped:
        raise EnumerationCapError(f"closure of k exceeded cap {cap}")
    small = h if isinstance(h, ElementSet) else enumerate_subgroup(h, cap)
    if small.capped:
        raise EnumerationCapError(f"closure of h exceeded cap {cap}")
    if not small.packed <= big.packed:
        raise ContainmentError("h is not contained in k")
    q, rem = divmod(len(big.packed), len(small.packed))
    if rem:
        raise ContainmentError("|H| does not divide |K|")
    return Cardinality.finite(q)


def cyclic_sum(a: CyclicRational, b: CyclicRational) -> CyclicRational:
    """Generator of ``a + b``: ``gcd(p*q', p'*q) / (q*q')``."""
    g, gp = a.generator, b.generator
    p, q = g.numerator, g.denominator
    pp, qp = gp.numerator, gp.denominator
    return CyclicRational(Fraction(math.gcd(p * qp, pp * q), q * qp))


def cyclic_from_subgroup(h: FgSubgroup) -> CyclicRational:
    """View a subgroup of Q (rank-1 rational ambient) as a cyclic group."""
    if not isinstance(h.ambient, Rational) or h.ambient.rank != 1:
        raise RationalAmbientError("cyclic view requires the rank-1 rational ambient")
    if not h.basis:
        return CyclicRational(Fraction(0))
    return CyclicRational(Fraction(h.basis[0][1][0], h.den))


def _plus_multiple(v: int, row: int, c: int, q: int, w: int, top: int, lift: int) -> int:
    """``v + c*row`` mod ``q`` in every ``w``-bit field, by doubling and adding, with :func:`_masks` over their fields."""
    guard = w - 1
    while True:
        if c & 1:
            t = v + row
            v = t - (((t + lift) & top) >> guard) * q
        c >>= 1
        if not c:
            return v
        t = row + row
        row = t - (((t + lift) & top) >> guard) * q


def _stepper(taps: tuple[tuple[int, int], ...], q: int, w: int):
    """The stencil with these sorted taps read mod ``q``, as a step ``(lo, v) -> (lo, v)`` on ``w``-bit fields.

    Reduction mod ``q`` commutes with a stencil of integer taps, so this is
    ``apply_once`` read mod ``q``: tap ``(off, c)`` adds ``c`` times ``v``
    moved ``off - least`` fields, at ``lo + least`` for the least offset.
    With one-bit fields (``q = 2``) a tap is a shift and an XOR; otherwise
    fields have a guard bit and a tap is :func:`_plus_multiple`. Fields below
    coordinate 0 are dropped (the boundary rule).
    """
    taps = [(off, c % q) for off, c in taps if c % q]
    if not taps:
        return lambda x: (0, 0)
    least = taps[0][0]
    shifts = [((off - least) * w, c) for off, c in taps]

    def step(x: tuple[int, int]) -> tuple[int, int]:
        lo, v = x
        out = 0
        if w == 1:
            for s, _ in shifts:
                out ^= v << s
        else:
            top, lift = _masks(q, w, -(-(v.bit_length() + shifts[-1][0]) // w))
            for s, c in shifts:
                out = _plus_multiple(out, v << s, c, q, w, top, lift)
        lo += least
        if lo < 0:
            out, lo = out >> (-lo * w), 0
        return lo, out

    return step


class _Span:
    """Row span over ``Z/q`` of vectors read mod ``q``, grown one vector at a time; ``order`` is its number of elements.

    ``rows`` maps a pivot to its row: a vector's highest nonzero coordinate
    with ``high``, else its lowest, where its residue is its lead. A vector
    is reduced by the row at its pivot until it is zero or its pivot is
    free. A walk that grows to the right brings a new highest coordinate at
    every step, so keyed by it each new vector is usually a row at once. A
    vector is ``(lo, v)`` in ``_w``-bit fields, as :func:`_pack` makes it,
    so a row takes room for its support only. For ``q = 2`` a field is one
    bit and a reduction one XOR; otherwise a field has a guard bit, as in
    :func:`adjoin`, and ``v + c*row`` takes ``O(log c)`` packed additions.

    Leads need not be units (a Howell basis: Howell, Linear and Multilinear
    Algebra 19, 1986). A row with lead ``b`` and ``g = gcd(b, q)`` clears a
    lead ``a`` that ``g`` divides, by ``c = -(a/g) * (b/g)^-1 mod q/g``,
    which is ``-a * b^-1`` for a prime. Any other ``a`` evicts the row, to
    be absorbed again after the vector. A vector stored with ``g > 1`` is
    followed by ``(q/g) * v``, which has lost its lead; then each element is
    one sum of ``t * row`` over the rows, ``0 <= t < q / gcd(lead, q)``, and
    ``order`` is the product of those bounds: ``p`` to the sum of the layer
    ranks for a prime power. Where ``q`` is not a prime power two leads'
    gcds may not divide each other: :meth:`absorb` then returns False, with
    ``split`` the quotient of one by their gcd, and the span counts no
    further.
    """

    __slots__ = ("q", "high", "rows", "order", "split", "_w")

    def __init__(self, q: int, high: bool):
        self.q, self.high, self.rows, self.order, self.split = q, high, {}, 1, 1
        self._w = 1 if q == 2 else _field_width(q)

    def absorb(self, x: tuple[int, int]) -> bool:
        q, w, rows, field = self.q, self._w, self.rows, (1 << self._w) - 1
        pending = [x]
        while pending:
            lo, v = pending.pop()
            while v:
                low = ((v & -v).bit_length() - 1) // w
                v, lo = v >> (low * w), lo + low
                lead = lo + (v.bit_length() - 1) // w if self.high else lo
                row = rows.get(lead)
                if row is None:
                    rows[lead] = (lo, v)
                    g = math.gcd((v >> ((lead - lo) * w)) & field, q)
                    self.order *= q // g
                    if g == 1:
                        break
                    top, lift = _masks(q, w, -(-v.bit_length() // w))
                    v = _plus_multiple(0, v, q // g, q, w, top, lift)
                    continue
                row_lo, row = row
                if q != 2:
                    a, b = (v >> ((lead - lo) * w)) & field, (row >> ((lead - row_lo) * w)) & field
                    g = math.gcd(b, q)
                    if a % g:
                        if g % math.gcd(a, q):
                            self.split = g // math.gcd(g, a)
                            return False
                        del rows[lead]
                        self.order //= q // g
                        pending.append((row_lo, row))
                        continue
                if row_lo < lo:
                    v, lo = v << ((lo - row_lo) * w), row_lo
                else:
                    row <<= (row_lo - lo) * w
                if q == 2:
                    v ^= row
                else:
                    top, lift = _masks(q, w, -(-max(v.bit_length(), row.bit_length()) // w))
                    v = _plus_multiple(v, row, -(a // g) * pow(b // g, -1, q // g) % q, q, w, top, lift)
        return True


def _orders(f: EndoPower, h: FgSubgroup, q: int, cap: int) -> Iterator[int]:
    """``|T_n|`` mod ``q`` for ``n = 1, 2, ...``, up to the first ``T_n`` past ``cap`` rows.

    ``T_n`` spans ``f^i`` of ``H``'s generators for ``i < n``, packed once
    and stepped by the base map's taps, by :func:`_stepper`, ``exponent``
    times: the definition of the power, not the engine's kernel that
    ``f.apply`` runs. The span is pivoted on the highest coordinate when a
    tap with a unit coefficient mod ``q`` moves right. Where it cannot count
    ``T_n``, ``q`` splits into two coprime parts by its ``split``, each
    spanned from ``T_1``, and their orders go on from ``T_n``.
    """
    span = _Span(q, any(off > 0 and math.gcd(c, q) == 1 for off, c in f.base.taps))
    step = _stepper(f.base.taps, q, span._w)
    vectors = [x for x in (_pack(g, q, span._w) for g in h.generators()) if x[1]]
    for n in count():
        for x in vectors:
            if not span.absorb(x):
                parts = (_orders(f, h, part, cap) for part in _split_off(q, span.split))
                yield from islice(map(math.prod, zip(*parts)), n, None)
                return
            if len(span.rows) > cap:
                return
        yield span.order
        for _ in range(f.exponent):
            vectors = [y for y in map(step, vectors) if y[1]]


def _torsion_indices(f: EndoPower, h: FgSubgroup, components: list[int], cap: int) -> Iterator[int]:
    """``|T_n / H|``: the product of the orders of ``T_n`` on the CRT components of ``m``, over that of ``H = T_1``.

    The indices end at the first ``T_n`` with a component past ``cap`` rows.
    None of the engine's maps, subgroups or accumulators is run.
    """
    h_order = 0
    for order in map(math.prod, zip(*(_orders(f, h, q, cap) for q in components))):
        h_order = h_order or order
        yield order // h_order


def _cyclic_indices(f: EndoPower, h: FgSubgroup) -> Iterator[int]:
    """``|T_n / H|`` in Q by Horner's rule, ``T_(n+1) = H + f(T_n)``, on ints.

    With ``H = g Z``, ``T_n`` holds ``g`` and is ``(g/q) Z`` for the index
    ``q``. For the scalar ``a/b`` read off the integer matrix of ``f``'s
    base, not off its apply, the gcd formula of :func:`cyclic_sum` gives
    ``g Z + (a*g/(b*q)) Z = (g/q') Z`` with ``q' = b*q / gcd(b*q, a)``.
    """
    a, b = f.base.numerators[0][0] ** f.exponent, f.base.den**f.exponent
    q = 1
    while True:
        yield q if h.basis else 1
        q *= b
        q //= math.gcd(q, a)


def verify_trace(trace: GrowthTrace, cap: int = DEFAULT_CAP) -> dict:
    """Re-derive every index ``|T_n / H|`` of a growth trace by an independent route.

    ``f`` and ``H`` are the trace's own map and subgroup. Torsion: row spans
    on the CRT components of ``m``, skipping every ``n`` from the first
    ``T_n`` with a component past ``cap`` rows on, since ``T_n`` only grows.
    Rank-1 rational: the cyclic gcd formula by Horner's rule. Higher ranks:
    all skipped. No ``T_n`` past the trace's length is built, and the indices
    past the end of the oracle's sequence count as skipped. The record is ``{"checked", "skipped"}``,
    with a ``"reason"`` (``"cap"`` or ``"rational rank >= 2"``) when
    ``skipped > 0``. A disagreement raises
    :class:`~entropy_lab.errors.OracleMismatchError` naming its ``n``.
    """
    cap = operator.index(cap)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    f, h = trace.endo, trace.subgroup
    if isinstance(h.ambient, TorsionSum):
        source, reason = "row spans", "cap"
        oracle_indices = _torsion_indices(f, h, _components(h.ambient.modulus), cap)
    elif h.ambient.rank == 1:
        source, reason, oracle_indices = "cyclic oracle", None, _cyclic_indices(f, h)
    else:
        source, reason, oracle_indices = None, "rational rank >= 2", iter(())
    checked = 0
    for n, (idx, by_oracle) in enumerate(zip(trace.index_values(), oracle_indices), 1):
        if by_oracle != idx:
            idx, by_oracle = Cardinality.finite(idx), Cardinality.finite(by_oracle)
            raise OracleMismatchError(f"growth index at n={n}: engine {idx!r}, {source} {by_oracle!r}")
        checked += 1
    record: dict = {"checked": checked, "skipped": trace.max_n - checked}
    if record["skipped"]:
        record["reason"] = reason
    return record
