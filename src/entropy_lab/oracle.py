"""Brute-force cross-checks, independent of the normal-form machinery.

Two oracles live here:

* breadth-first element enumeration of finite torsion subgroups, giving
  subgroup orders and quotient indices by literal counting;
* cyclic subgroups of Q, where the sum of ``g Z`` and ``g' Z`` has the closed
  form ``gcd(p*q', p'*q) / (q*q')`` for ``g = p/q`` and ``g' = p'/q'``.

Neither path touches Hermite forms or lattice indices, so agreement with the
main engine is a meaningful check rather than a tautology.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContainmentError, EnumerationCapError, RationalAmbientError
from .groups import Element, FgSubgroup, Rational, TorsionSum
from .linalg import Cardinality

__all__ = [
    "DEFAULT_CAP",
    "ElementSet",
    "CyclicRational",
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


def enumerate_subgroup(h: FgSubgroup, cap: int = DEFAULT_CAP) -> ElementSet:
    """All elements of ``h`` by breadth-first closure under generator addition."""
    cap = operator.index(cap)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if isinstance(h.ambient, Rational):
        raise RationalAmbientError("cannot enumerate subgroups of a rational ambient")
    gens = h.generators()
    zero = h.ambient.zero()
    seen: set[Element] = {zero}
    queue: deque[Element] = deque([zero])
    capped = False
    while queue:
        x = queue.popleft()
        for g in gens:
            y = x + g
            if y not in seen:
                if len(seen) >= cap:
                    capped = True
                    queue.clear()
                    break
                seen.add(y)
                queue.append(y)
    return ElementSet(ambient=h.ambient, elements=frozenset(seen), capped=capped)


def index_by_enumeration(k: FgSubgroup, h: FgSubgroup | ElementSet, cap: int = DEFAULT_CAP) -> Cardinality:
    """``|K| / |H|`` by counting elements; requires the closure to fit in ``cap``.

    ``h`` may be given already enumerated, so a caller that compares many
    ``K`` against one ``H`` counts ``H`` once.
    """
    big = enumerate_subgroup(k, cap)
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
