"""Closed forms for the entropy of a map on the trajectory of an inert subgroup.

For a rational map ``g`` on ``Q^r`` and an inert ``H``, the entropy is
``log c``, where ``c`` is the lcm of the denominators of the monic
characteristic polynomial of ``g`` on ``V = Q·H``. This is the intrinsic
Yuzvinski formula (Dikranjan, Giordano Bruno, Salce and Virili, "Intrinsic
algebraic entropy", J. Pure Appl. Algebra 219 (2015) 2933-2961).

Why a walk may stop at ``c``: ``H`` is inert, so ``g(H) ⊆ H + g(H)``, a
finite extension of ``H``, lies in ``V`` and ``g(V) ⊆ V``. Every partial
trajectory ``T_n`` is then a lattice in ``V`` containing ``H``, and the
entropy of ``g`` on ``V`` is the limit of ``log |T_n / H| / n``, which the
formula gives as ``log c``. The increments ``|T_(n+1) / T_n|`` form a
divisor chain (``g`` maps ``T_n / T_(n-1)`` onto ``T_(n+1) / T_n``), so
they are constant from some step on, at the value whose log is that limit:
``c``. So ``c`` divides every increment, and once one increment equals
``c`` every later one does too.
"""

from __future__ import annotations

import math
import operator

from .endomorphisms import EndoPower, _int_matmul
from .groups import FgSubgroup

__all__ = ["rational_c"]


def rational_c(g: EndoPower, h: FgSubgroup) -> int:
    """``c`` of the rational map ``g`` on the Q-span of an inert ``h``: its entropy there is ``log c``.

    ``h.basis`` is in echelon form, so a vector of ``V = Q·h`` is solved
    against it by forward substitution on the pivot columns. The
    restriction of ``g``, the integer ``numerators`` of its composed step
    over ``den``, is cleared to an integer matrix ``z / scale`` and its
    characteristic polynomial found by an integer Faddeev--LeVerrier.
    """
    basis, step = h.basis, g._step
    d = len(basis)
    pivots = [j for j, _ in basis]
    vecs = [[0] * j + list(row) for j, row in basis]
    # column i of y is g(b_i) at the pivot columns, times den
    y = [[sum(map(operator.mul, step.numerators[p], b)) for b in vecs] for p in pivots]
    # g(b_i) = sum_k z[k][i] / (delta * den) b_k: the triangular system at the pivot columns, times delta
    delta = math.prod(b[p] for b, p in zip(vecs, pivots))
    z = [[0] * d for _ in range(d)]
    for i in range(d):
        for k, p in enumerate(pivots):
            z[k][i] = (delta * y[k][i] - sum(vecs[l][p] * z[l][i] for l in range(k))) // vecs[k][p]
    scale = delta * step.den
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
