"""Closed forms for the entropy of a map on the trajectory of an inert subgroup.

A closed form ``c`` is the limit of the increments ``|T_(n+1) / T_n|`` of
the trajectory of ``H``, so the entropy there is ``log c``. ``g`` maps
``T_n / T_(n-1)`` onto ``T_(n+1) / T_n``, so the increments form a divisor
chain, constant from some step on at ``c``, whose log is the limit of
``log |T_n / H| / n``: ``c`` divides every increment, and once one equals
``c`` every later one does too. That is why a walk may stop there.

Rational maps. For a rational map ``g`` on ``Q^r`` and an inert ``H``,
``c`` is the lcm of the denominators of the monic characteristic
polynomial of ``g`` on ``V = Q·H``. This is the intrinsic Yuzvinski formula
(Dikranjan, Giordano Bruno, Salce and Virili, "Intrinsic algebraic
entropy", J. Pure Appl. Algebra 219 (2015) 2933-2961). ``H`` is inert, so
``g(H) ⊆ H + g(H)``, a finite extension of ``H``, lies in ``V`` and
``g(V) ⊆ V``. Every ``T_n`` is then a lattice in ``V`` containing ``H``, and
the formula gives the limit of ``log |T_n / H| / n`` as ``log c``. Newton's
identities give the polynomial from the power sums ``tr(z^k)``, ``k <= d``,
of the restriction, read off about ``2 sqrt(d)`` matrix products.

Stencils. A subgroup of ``F``, the sum of copies of ``Z/m``, is the direct
sum of its images on the CRT components ``Z/p^a`` of ``m``, whose
idempotents are integers and commute with ``g``, so ``c`` is the product of
the components' limits. On ``Z/p^a`` let ``b`` be the largest offset of the
base with a unit coefficient, ``d`` its largest offset and ``B = k·b`` for
the power ``k``. With no such offset, or ``b <= 0``, the component is
bounded: a word of taps with ``a`` taps of positive offset is 0 mod
``p^a``, and the others move no coordinate up, so ``T_n`` lies below the
top of ``H`` plus ``(a - 1)·d``, and the component contributes 1.
Otherwise it contributes ``p^(r_0 + ... + r_(a-1))``. Over ``F_p`` the base
moves the top coordinate of a nonzero vector up by exactly ``b`` (the
boundary rule drops no term above 0), so ``x``, acting as ``g``, makes
``F_p[s]`` a free ``F_p[x]``-module with basis ``e_0 … e_(B-1)``. Layer
``i`` of a subgroup ``S`` is ``{w mod p : p^i w in S}``, isomorphic to
``(S ∩ p^i F) / (S ∩ p^(i+1) F)``, so ``log_p |S|``, the length of ``S``
(Northcott and Reufel 1965; Salce, Vámos and Virili 2013), is the sum of
the layers' dimensions. ``g`` commutes with ``p``, so layer ``i`` of
``M = (Z/p^a)[x]·H`` is an ``F_p[x]``-submodule of ``F_p[s]``: free, of
some rank ``r_i``. Layer ``i`` of ``T_n`` has dimension ``r_i·n + O(1)``.
Above: a word of ``k·j`` taps, ``l`` of them above ``b``, has a coefficient
divisible by ``p^l`` and moves a coordinate up by at most
``k·j·b + l·(d - b)``, so ``T_n`` lies below the top of ``H`` plus
``(n - 1)·B + (a - 1)·(d - b)``; a basis of layer ``i`` of ``M`` in weak
Popov form (Mulders and Storjohann 2003) has tops with distinct residues
mod ``B``, so the layer's vectors below that span ``r_i·n + O(1)``. Below:
``p^i`` times lifts of that basis lie in some ``T_D``, and their images
under ``x^j``, ``j < n``, in ``T_(n+D)``. So ``log_p |T_n / H|`` is
``n·(r_0 + ... + r_(a-1)) + O(1)``, and the increments end at ``p`` to the sum.

:func:`stencil_c` factors nothing. By dynamic evaluation (the D5 principle,
Della Dora, Dicrescenzo and Duval 1985) it works over ``Z/q``, from
``q = m``, as over a prime power, and splits ``q`` into coprime parts by a
gcd wherever an element it classifies is neither a unit nor nilpotent, so
that every component of a part takes the same branch. A vector's pivot is
a coordinate ``t`` and a layer ``e``, a divisor of ``q``, that ``g`` moves
to ``t + B`` and keeps: where every tap above ``b`` is 0 mod ``q``, the top
coordinate and the gcd of its entry with ``q``; else the gcd ``e`` of ``q``
and all entries, and the highest ``t`` whose entry over ``e`` is a unit mod
``q / e``, those above it being nilpotent over ``e``. There is one row per
layer and residue mod ``B`` of ``t``. A vector is reduced by a row of its
residue with a layer that divides its own and ``t`` not above it, brought
up by ``g``, until it is zero or a new row. A new row covers the rows of
its residue with a multiple of its layer and a higher ``t``, reduced
again; with each other, whose layer must divide its own or be a multiple,
it forms the S-vector that clears the lead of the two brought to the
higher ``t`` and layer; with the top pivot, ``q / e`` times it has lost its
lead. These are reduced too: Buchberger's algorithm over ``F_p[π, x]``,
``π`` for ``p``, so every vector of ``M`` reduces to 0 by the rows. With
the layered pivot, layer ``i`` of ``M`` then has a top of residue ``ρ``
exactly when ``ρ`` has a row of layer ``p^j``, ``j <= i``, and ``r_i``
counts those residues (distinct ones are independent over ``F_p[x]``, and
the count above allows no more): ``c`` is the product of ``q / e_ρ``,
``e_ρ`` the lowest layer of ``ρ``. With the top pivot, so is the growth of
the vectors of ``M`` with top below ``T``, the product of their leads'
ideals at each coordinate; they hold ``T_n`` for ``T`` past ``nB`` plus a
constant and lie in ``T_(T/B + D)``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator

from .endomorphisms import EndoPower
from .errors import InternalInvariantViolation
from .groups import FgSubgroup, _residues
from .linalg import _split_off

__all__ = ["rational_c", "stencil_c"]


def rational_c(g: EndoPower, h: FgSubgroup) -> int:
    """``c`` of the rational map ``g`` on the Q-span of an inert ``h``: its entropy there is ``log c``.

    ``g = f^k`` is the matrix ``A^k``, integer ``numerators`` over ``den``,
    composed here from ``f``'s by square-and-multiply. It must be the
    power's own: ``h`` need only be inert under ``f^k``, so ``V = Q·h`` is
    invariant under ``A^k`` but maybe not under ``A``. ``h.basis`` is in
    echelon form, so a vector of ``V`` is solved against it by forward
    substitution on the pivot columns. The restriction of ``A^k`` is
    cleared to an integer matrix ``z / scale``. The characteristic
    polynomial of ``z`` comes from its power sums by Newton's identities
    (:func:`_charpoly`), and its ``a_k / scale^k`` are those of the
    restriction.
    """
    f = g.base
    basis, numerators, den = h.basis, _by_squaring(f.numerators, g.exponent, _int_matmul), f.den**g.exponent
    pivots = [j for j, _ in basis]
    vecs = [[0] * j + list(row) for j, row in basis]
    # at[k]: each basis vector's entry at pivot k, 0 past the k-th
    at = [[b[p] for b in vecs] for p in pivots]
    # g(b_i) = sum_k z[k][i] / (delta * den) b_k: the triangular system at the pivot columns, times delta
    delta = math.prod(row[k] for k, row in enumerate(at))
    cols = []
    for b in vecs:
        col: list[int] = []
        for p, row in zip(pivots, at):
            image = delta * sum(map(operator.mul, numerators[p], b))
            col.append((image - sum(map(operator.mul, row, col))) // row[len(col)])
        cols.append(col)
    scale = delta * den
    common = math.gcd(scale, *(e for col in cols for e in col))
    scale //= common
    coeffs = _charpoly([[e // common for e in row] for row in zip(*cols)])
    return math.lcm(*(scale**k // math.gcd(a, scale**k) for k, a in enumerate(coeffs[1:], 1)))


def _int_matmul(a: tuple, b: tuple) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


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


def _charpoly(z: list[list[int]]) -> list[int]:
    """``1, a_1, ..., a_d``, with ``det(x - z) = x^d + a_1 x^(d-1) + ... + a_d``, for a square integer ``z``.

    By Newton's identities, ``k a_k = -(p_k + a_1 p_(k-1) + ... + a_(k-1) p_1)``
    exactly over Z. The power sum ``p_(i + js) = tr(z^i z^(js))`` is one dot
    product of a baby step ``z^i``, ``i <= s = isqrt(d)``, with a giant step
    transposed (Paterson and Stockmeyer's baby steps and giant steps).
    """
    d = len(z)
    babies = [z]
    while len(babies) < math.isqrt(d):
        babies.append(_int_matmul(babies[-1], z))
    flat = [list(itertools.chain.from_iterable(m)) for m in babies]
    sums = [sum(m[i][i] for i in range(d)) for m in babies]
    giant = babies[-1]
    while len(sums) < d:
        cols = list(itertools.chain.from_iterable(zip(*giant)))
        sums += [sum(map(operator.mul, b, cols)) for b in flat[: d - len(sums)]]
        if len(sums) < d:
            giant = _int_matmul(giant, babies[-1])
    coeffs = [1]
    for k in range(1, d + 1):
        coeffs.append(-sum(map(operator.mul, coeffs, reversed(sums[:k]))) // k)
    return coeffs


class _Split(ArithmeticError):
    """Raised with an element of ``Z/q`` that is neither a unit nor nilpotent: it splits ``q``."""


def _is_unit(x: int, q: int) -> bool:
    """True for a unit mod ``q``, False for a nilpotent (``q`` divides ``x^a``, ``2^a <= q``), else a split."""
    if math.gcd(x, q) > 1 and pow(x, q.bit_length(), q):
        raise _Split(x)
    return math.gcd(x, q) == 1


def _trimmed(lo: int, v: list[int]) -> tuple[int, list[int]]:
    """The vector ``(lo, v)`` with its zeros at both ends stripped."""
    if v and v[0] and v[-1]:
        return lo, v
    start = next((i for i, r in enumerate(v) if r), len(v))
    return lo + start, v[start : len(v) - next((i for i, r in enumerate(reversed(v)) if r), 0)]


def _minus(x: tuple, c: int, y: tuple, q: int) -> tuple:
    """``x - c*y`` mod ``q`` for vectors ``(lo, residues)``."""
    (xl, xv), (yl, yv) = x, y
    lo = min(xl, yl) if xv else yl
    out = [0] * (max(xl + len(xv), yl + len(yv)) - lo)
    out[xl - lo : xl - lo + len(xv)] = xv
    i, j = yl - lo, yl - lo + len(yv)
    out[i:j] = [(a - c * e) % q for a, e in zip(out[i:j], yv)]
    return _trimmed(lo, out)


def stencil_c(g: EndoPower, h: FgSubgroup) -> int:
    """``c`` of the stencil power ``g`` on the trajectory of ``h``: the product of :func:`_part_c` over ``m``'s parts."""
    c, parts = 1, [g.ambient.modulus]
    while parts:
        q = parts.pop()
        try:
            c *= _part_c(g, h, q)
        except _Split as split:
            parts += _split_off(q, split.args[0])
    return c


def _part_c(g: EndoPower, h: FgSubgroup, q: int) -> int:
    """``c`` on the part ``Z/q`` of ``m``: ``q / e`` per residue mod ``B`` of the rows' pivots, ``e`` its lowest layer.

    ``rows`` maps a residue to rows ``[t, e, ups]``, ``ups[n]`` the row
    brought up ``n`` times. Vectors leave a heap (at first ``H``'s sorted
    basis) lowest end first, so rows are found bottom up, few covered later.
    """
    b = max((off for off, coeff in g.base.taps if _is_unit(coeff, q)), default=0)
    layered, big_b = any(coeff % q for off, coeff in g.base.taps if off > b), g.exponent * b
    if big_b <= 0:
        return 1
    todo = sorted((x[0] + len(x[1]), i, x) for i, x in enumerate(_trimmed(j, [r % q for r in row]) for j, row in h.basis))
    kind, rows, order, units = _residues(g.ambient.modulus), {}, itertools.count(len(todo)), 0

    def push(x):
        heapq.heappush(todo, (x[0] + len(x[1]), next(order), x))

    def pivot(x):
        lo, v = x
        if not layered:
            return lo + len(v) - 1, math.gcd(v[-1], q)
        e = math.gcd(q, *v)
        t = next((i for i in range(len(v) - 1, -1, -1) if math.gcd(v[i], q) == e), -1)
        # the entries above t over e are nilpotent mod q / e exactly when their gcd with it is
        if t < 0 or _is_unit(math.gcd(q, *v[t + 1 :]) // e, q // e):
            raise _Split(next(r // e for r in v[t + 1 :] if pow(r // e, q.bit_length(), q // e)))
        return lo + t, e

    def cleared(x, t, e, row):
        """``x``, with pivot ``(t, e)``, less the multiple of ``row`` brought up to ``t`` that clears its lead."""
        ups = row[2]
        while len(ups) <= (t - row[0]) // big_b:
            lo, v = g._apply_packed((ups[-1][0], kind(ups[-1][1])))
            ups.append(_trimmed(lo, [r % q for r in v]))
        w = ups[(t - row[0]) // big_b]
        if pivot(w) != (t, row[1]):
            raise InternalInvariantViolation(f"g does not move a pivot up by {big_b} and keep its layer")
        lead = w[1][t - w[0]] // row[1]
        return _minus(x, x[1][t - x[0]] // e * pow(lead, -1, q // e) * (e // row[1]), w, q)

    while todo:
        x = heapq.heappop(todo)[2]
        while x[1]:
            t, e = pivot(x)
            same = rows.setdefault(t % big_b, [])
            for row in same:
                if row[0] <= t and e % row[1] == 0:
                    x = cleared(x, t, e, row)
                    break
            else:
                break
        if not x[1]:
            continue
        # a residue's first row of layer 1: once every residue has one, c is q^B, the most it can be
        units += e == 1 and not any(r[1] == 1 for r in same)
        if units == big_b:
            return q**big_b
        new, kept = [t, e, [x]], []
        for row in same:
            if row[1] % e == 0 and row[0] >= t:  # covered
                push(row[2][0])
                continue
            if e % row[1] and row[1] % e:
                raise _Split(row[1] // math.gcd(row[1], e))
            low, high = (row, new) if e % row[1] == 0 else (new, row)
            push(cleared(_minus((0, []), -(high[1] // low[1]), low[2][0], q), low[0], high[1], high))
            kept.append(row)
        rows[t % big_b] = kept + [new]
        if e > 1 and not layered:  # with the layered pivot it is 0
            push(_minus((0, []), -(q // e), x, q))
    return math.prod(q // min(r[1] for r in same) for same in rows.values() if same)
