"""Brute-force cross-checks, independent of the normal-form machinery.

Two oracles live here:

* element enumeration of finite torsion subgroups by coset closure, giving
  subgroup orders and quotient indices by literal counting. ``adjoin`` grows
  a subgroup ``S`` by one generator ``g`` at a time: the cosets ``S + c*g``
  for ``c = 0, 1, ...`` up to the first ``c*g`` in ``S`` are disjoint, so
  every element is built exactly once and no element needs a membership
  test. A caller that follows an increasing chain of subgroups grows one
  set along it instead of enumerating each member afresh;
* cyclic subgroups of Q, where the sum of ``g Z`` and ``g' Z`` has the closed
  form ``gcd(p*q', p'*q) / (q*q')`` for ``g = p/q`` and ``g' = p'/q'``.

Neither path touches Hermite forms or lattice indices, so agreement with the
main engine is a meaningful check rather than a tautology.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable

from .errors import AmbientMismatchError, ContainmentError, EnumerationCapError, RationalAmbientError
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
]

DEFAULT_CAP = 4096


@dataclass(frozen=True)
class ElementSet:
    """Explicit elements of a (finite) subgroup; ``capped`` marks a truncated closure."""

    ambient: TorsionSum
    elements: frozenset[Element]
    capped: bool


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
    base = s.elements
    for g in gens:
        if g in base:
            continue
        cosets: list[Element] = []
        step = g
        while step not in base:
            room = cap - len(base) - len(cosets)
            if len(base) > room:
                cosets.extend(islice((x + step for x in base), max(0, room)))
                return ElementSet(ambient=s.ambient, elements=base.union(cosets), capped=True)
            cosets.extend(x + step for x in base)
            step = step + g
        base = base.union(cosets)
    if base is s.elements:
        return s
    return ElementSet(ambient=s.ambient, elements=base, capped=False)


def enumerate_subgroup(h: FgSubgroup, cap: int = DEFAULT_CAP) -> ElementSet:
    """All elements of ``h``: the coset closure of ``{0}`` under its generators."""
    zero = ElementSet(ambient=h.ambient, elements=frozenset({h.ambient.zero()}), capped=False)
    return adjoin(zero, h.generators(), cap)


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
    if not small.elements <= big.elements:
        raise ContainmentError("h is not contained in k")
    q, rem = divmod(len(big.elements), len(small.elements))
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
    return CyclicRational(Fraction(h.basis[0][0], h.den))
