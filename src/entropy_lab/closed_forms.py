"""Closed forms for the entropy of a map on the trajectory of an inert subgroup.

A closed form ``c`` is the limit of the increments ``|T_(n+1) / T_n|`` of
the trajectory of ``H``, so the entropy there is ``log c``. Both proofs
below end in the same argument. ``g`` maps ``T_n / T_(n-1)`` onto
``T_(n+1) / T_n``, so the increments form a divisor chain, constant from
some step on at the value whose log is the limit of ``log |T_n / H| / n``:
``c``. So ``c`` divides every increment, and once one increment equals
``c`` every later one does too. That is why a walk may stop there.

Rational maps. For a rational map ``g`` on ``Q^r`` and an inert ``H``,
``c`` is the lcm of the denominators of the monic characteristic
polynomial of ``g`` on ``V = Q·H``. This is the intrinsic Yuzvinski formula
(Dikranjan, Giordano Bruno, Salce and Virili, "Intrinsic algebraic
entropy", J. Pure Appl. Algebra 219 (2015) 2933-2961). ``H`` is inert, so
``g(H) ⊆ H + g(H)``, a finite extension of ``H``, lies in ``V`` and
``g(V) ⊆ V``. Every ``T_n`` is then a lattice in ``V`` containing ``H``, and
the formula gives the limit of ``log |T_n / H| / n`` as ``log c``.

Stencils. A subgroup ``S`` of the sum of copies of ``Z/m`` is the direct sum
of its images on the CRT components ``Z/p^a`` of ``m``, since each
component's idempotent is an integer and commutes with ``g``. So
``|T_n / H|`` is the product of the components' indices, each component's
increments form a divisor chain of their own, and ``c`` is the product of
the components' limits. Let ``b`` be the largest offset of ``g``'s base
whose coefficient is a unit mod ``p``, and ``k`` the power.

* No such offset, or ``b <= 0``: the component is bounded and contributes 1.
  Write the base as ``u + v``, with ``u`` the taps of offset ``<= 0`` and
  ``v`` the others, whose coefficients are multiples of ``p``. Any word in
  ``u`` and ``v`` with ``a`` letters ``v`` is 0 mod ``p^a``, and ``u`` moves
  no coordinate up, so every ``T_n`` lies on the coordinates below the
  support of ``H`` plus ``(a - 1)`` times the largest offset: a finite group.
* ``a = 1``: the component contributes ``p^r``. Over ``F_p`` the base moves
  the top coordinate of every nonzero vector up by exactly ``b`` (its top
  tap is a unit, the ones above it are 0, and the boundary rule never drops
  a term above coordinate 0), so ``x``, acting as ``g``, moves it up by
  exactly ``B = k·b``. Division by ``g(e_(t-B))`` then writes every vector
  in the basis ``e_0 … e_(B-1)``, so ``F_p[s]`` is a free ``F_p[x]``-module
  of rank ``B``. The boundary rule is part of ``g``, so offsets of both
  signs need no special case. ``M = F_p[x]·H`` is a submodule of a free
  module over a PID, so it is free, of some rank ``r``. ``T_n`` is
  ``F_p[x]_(<n)·H``: ``r`` generators of ``H`` independent over ``F_p[x]``
  give ``dim T_n >= r·n``, and writing ``H`` in a basis of ``M`` with
  polynomials of degree ``<= D`` gives ``dim T_n <= r·(n + D)``. So
  ``dim T_n = r·n + O(1)``, and the increments, a divisor chain of powers of
  ``p``, end at ``p^r``.
* ``a >= 2`` (or a cofactor that trial division does not split): no proof
  yet, and the component adds nothing to ``c``.

CRT then covers squarefree ``m``. :func:`stencil_c` finds ``r`` as the number
of residues mod ``B`` of the top coordinates in ``M``: vectors whose top
coordinates differ mod ``B`` are independent over ``F_p[x]`` (their images
under polynomials in ``x`` never cancel at the top), and reducing each
generator of ``H`` by ``F_p[x]``-multiples of stored vectors (Mulders and
Storjohann's weak Popov form) leaves one stored vector per such residue.

Where some component has no proof, ``c`` is the product over the proved
ones: it still divides every increment, and an increment equal to it is
the limit, since each unproved component then adds 1 and keeps adding 1.
"""

from __future__ import annotations

import math
import operator
from typing import Optional

from .endomorphisms import EndoPower, _int_matmul
from .errors import InternalInvariantViolation
from .groups import FgSubgroup

__all__ = ["rational_c", "stencil_c"]

# a cofactor with no prime factor below this is not split
_TRIAL_LIMIT = 1 << 16


def rational_c(g: EndoPower, h: FgSubgroup) -> int:
    """``c`` of the rational map ``g`` on the Q-span of an inert ``h``: its entropy there is ``log c``.

    ``h.basis`` is in echelon form, so a vector of ``V = Q·h`` is solved
    against it by forward substitution on the pivot columns. The
    restriction of ``g``, whose composed matrix ``g.matrix`` is integer
    ``numerators`` over ``den``, is cleared to an integer matrix
    ``z / scale`` and its characteristic polynomial found by an integer
    Faddeev--LeVerrier.
    """
    basis, (numerators, den) = h.basis, g.matrix
    d = len(basis)
    pivots = [j for j, _ in basis]
    vecs = [[0] * j + list(row) for j, row in basis]
    # column i of y is g(b_i) at the pivot columns, times den
    y = [[sum(map(operator.mul, numerators[p], b)) for b in vecs] for p in pivots]
    # g(b_i) = sum_k z[k][i] / (delta * den) b_k: the triangular system at the pivot columns, times delta
    delta = math.prod(b[p] for b, p in zip(vecs, pivots))
    z = [[0] * d for _ in range(d)]
    for i in range(d):
        for k, p in enumerate(pivots):
            z[k][i] = (delta * y[k][i] - sum(vecs[l][p] * z[l][i] for l in range(k))) // vecs[k][p]
    scale = delta * den
    common = math.gcd(scale, *(e for row in z for e in row))
    scale //= common
    z = [[e // common for e in row] for row in z]
    # det(x - z) = x^d + a_1 x^(d-1) + ... + a_d, with a_k = -tr(z m_k) / k exact for m_1 = 1,
    # m_(k+1) = z m_k + a_k; the restriction z / scale has the coefficients a_k / scale^k
    c, m = 1, [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        zm = _int_matmul(z, m)
        a = -sum(zm[i][i] for i in range(d)) // k
        c = math.lcm(c, scale**k // math.gcd(a, scale**k))
        m = [[e + a * (i == j) for j, e in enumerate(row)] for i, row in enumerate(zm)]
    return c


def _crt_components(m: int) -> list[tuple[int, int]]:
    """``(q, p)`` per CRT component ``q = p^a`` of ``m``, by trial division.

    A cofactor with no prime factor below ``2^16`` is ``(q, 0)``: it is not
    known to be a prime power.
    """
    out, rest, p = [], m, 2
    while p * p <= rest:
        if p >= _TRIAL_LIMIT:
            return out + [(rest, 0)]
        q = 1
        while rest % p == 0:
            rest, q = rest // p, q * p
        if q > 1:
            out.append((q, p))
        p += 1
    return out + [(rest, rest)] if rest > 1 else out


def stencil_c(g: EndoPower, h: FgSubgroup) -> tuple[int, Optional[str]]:
    """``(c, reason)`` for the stencil power ``g`` on the trajectory of ``h``.

    ``c`` is the product of the proved components' limits, and ``reason`` is
    None when every component is proved, else it names the first that is
    not. See the module docstring for the proof.
    """
    c, reason = 1, None
    for q, p in _crt_components(g.ambient.modulus):
        b = max((off for off, coeff in g.base.taps if coeff % (p or q)), default=0)
        if b <= 0:
            continue
        if q != p:
            reason = reason or f"no proof for the component Z/{q}"
            continue
        c *= p ** _rank(g, h, p, g.exponent * b)
    return c, reason


def _rank(g: EndoPower, h: FgSubgroup, p: int, big_b: int) -> int:
    """Rank over ``F_p(x)`` of ``h``'s generators mod ``p``, ``x`` acting as ``g``, which moves a top coordinate up by ``big_b``.

    One row per residue mod ``big_b`` of a top coordinate: a generator is
    reduced at its top by the row of its residue, brought up to it by
    ``g``, and swapped with that row when the row's top is higher. A vector
    is a list of residues from coordinate 0. A row is brought up by ``g``
    read mod ``p`` (reduction mod ``p`` commutes with integer taps), then
    trimmed of the top zeros that a tap above ``b`` vanishing mod ``p`` leaves.
    """
    rows: dict[int, list[int]] = {}
    for j, row in h.basis:
        v = [0] * j + [e % p for e in row]
        while len(rows) < big_b:
            while v and not v[-1]:
                v.pop()
            if not v:
                break
            top = len(v) - 1
            w = rows.setdefault(top % big_b, v)
            if w is v:
                break
            if len(w) > len(v):
                rows[top % big_b], v, w = v, w, v
            while 0 < len(w) < len(v):
                first, buf = g._apply_packed((0, w))
                w = [0] * first + [e % p for e in buf]
                while w and not w[-1]:
                    w.pop()
            if len(w) != len(v):
                raise InternalInvariantViolation(f"a step mod {p} does not move the top coordinate by {big_b}")
            q = v[-1] * pow(w[-1], -1, p) % p
            v = [(a - q * e) % p for a, e in zip(v, w)]
    return len(rows)
