"""Brute-force cross-checks, independent of the normal-form machinery.

Two oracles live here:

* element enumeration of finite torsion subgroups by coset closure, giving
  subgroup orders and quotient indices by literal counting. ``adjoin`` grows
  a subgroup ``S`` by one generator ``g`` at a time: the cosets ``S + c*g``
  for ``c = 0, 1, ...`` up to the first ``c*g`` in ``S`` are disjoint, so
  every element is built exactly once and no element needs a membership
  test. A caller that follows an increasing chain of subgroups grows one
  set along it instead of enumerating each member afresh. Each element is
  one int, coordinate ``i`` the ``w``-bit field at bit ``i*w`` with
  ``w = (2m-1).bit_length() + 1``: a sum of two residues stays below the
  field's top (guard) bit, and it reached ``m`` exactly when adding
  ``2^(w-1) - m`` sets the guard bit, so an int addition and a masked
  correction add mod ``m`` in every field at once;
* cyclic subgroups of Q, where the sum of ``g Z`` and ``g' Z`` has the closed
  form ``gcd(p*q', p'*q) / (q*q')`` for ``g = p/q`` and ``g' = p'/q'``.

Neither path touches Hermite forms or lattice indices, so agreement with the
main engine is a meaningful check rather than a tautology.
:func:`verify_trace` compares a growth trace with them index by index.
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
from .linalg import Cardinality

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


def _encode(g: Element, w: int) -> int:
    return sum(r << (i * w) for i, r in g.data)


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
        if isinstance(self.generator, float):
            raise TypeError("use Fraction for exact generators")
        object.__setattr__(self, "generator", abs(Fraction(self.generator)))


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
    m, base = s.ambient.modulus, s.packed
    w = _field_width(m)
    guard = w - 1
    for code in [_encode(g, w) for g in gens]:
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
    if base is s.packed:
        return s
    return ElementSet(ambient=s.ambient, packed=base, capped=False)


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


def _enumerated_indices(f: EndoPower, h: FgSubgroup, cap: int) -> Iterator[Cardinality]:
    """``|T_n / H|`` by counting, up to the first ``T_n`` past ``cap`` elements.

    ``T_n`` is ``T_(n-1)`` with ``f^(n-1)`` of ``H``'s generators adjoined:
    one growing element set, and none of the engine's subgroups is read.
    Each step applies ``f``'s base map ``exponent`` times, the definition of
    the power, rather than the composed map that ``f.apply`` runs.
    """
    step = f.base.apply_once
    gens = h.generators()
    h_elements = t_n = enumerate_subgroup(h, cap)
    while not t_n.capped:
        yield index_by_enumeration(t_n, h_elements, cap)
        for _ in range(f.exponent):
            gens = [step(g) for g in gens]
        t_n = adjoin(t_n, gens, cap)


def _cyclic_indices(f: EndoPower, h: FgSubgroup) -> Iterator[Cardinality]:
    """``|T_n / H|`` in Q by the gcd formula of :func:`cyclic_sum`, on ints.

    ``T_n`` is ``(p/q) H``, where the reduced pair ``p/q`` generates
    ``Z + (a/b) Z + ... + (a/b)^(n-1) Z`` and ``a/b`` is read off the integer
    matrix of ``f``'s base, not off its apply.
    """
    a, b = f.base.numerators[0][0] ** f.exponent, f.base.den**f.exponent
    p, q, term_a, term_b = 1, 1, 1, 1
    for n in count(1):
        if p != 1:
            raise OracleMismatchError(f"cyclic index at n={n} is not an integer")
        yield Cardinality.finite(q if h.basis else 1)
        term_a, term_b = term_a * a, term_b * b
        p, q = math.gcd(p * term_b, term_a * q), q * term_b
        g = math.gcd(p, q)
        p, q = p // g, q // g


def verify_trace(trace: GrowthTrace, cap: int = DEFAULT_CAP) -> dict[str, int]:
    """Re-derive every index ``|T_n / H|`` of a growth trace by an independent route.

    ``f`` and ``H`` are the trace's own map and subgroup. Torsion: element
    counting, skipping every ``n`` from the first ``T_n`` past ``cap``
    elements on, since ``T_n`` only grows. Rank-1 rational: the cyclic gcd
    formula. Higher ranks: all skipped. No ``T_n`` past the trace's length is
    built, and the indices past the end of the oracle's sequence count as
    skipped. A disagreement raises
    :class:`~entropy_lab.errors.OracleMismatchError` naming its ``n``.
    """
    f, h = trace.endo, trace.subgroup
    if isinstance(h.ambient, TorsionSum):
        source, oracle_indices = "enumeration", _enumerated_indices(f, h, cap)
    elif h.ambient.rank == 1:
        source, oracle_indices = "cyclic oracle", _cyclic_indices(f, h)
    else:
        source, oracle_indices = None, iter(())
    checked = 0
    for n, (idx, by_oracle) in enumerate(zip(trace.indices, oracle_indices), 1):
        if by_oracle != idx:
            raise OracleMismatchError(f"growth index at n={n}: engine {idx!r}, {source} {by_oracle!r}")
        checked += 1
    return {"checked": checked, "skipped": len(trace.indices) - checked}
