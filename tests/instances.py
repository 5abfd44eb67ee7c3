"""Seeded randomized instance pools shared across test modules.

The acceptance suite quantifies several criteria over one common pool, so
the pool is built once per process from a fixed seed. Torsion instances use
banded stencil maps; rational instances use small exact matrices. Every
instance in the identity pool is rejection-sampled so that its level-``m``
partial trajectory is inert: that is the hypothesis of the power-entropy
construction the pool exists to exercise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from entropy_lab import (
    Element,
    Endo,
    FgSubgroup,
    MatrixEndo,
    Rational,
    StencilEndo,
    TorsionSum,
    inert_certificate,
    partial_trajectory,
    subgroup,
)

SEED = 20260816


@dataclass(frozen=True)
class IdentityInstance:
    """One randomized draw for the power-trajectory identity."""

    f: Endo
    fgen: FgSubgroup
    k: int
    m: int
    n: int


def random_torsion_endo(rng: random.Random, ambient: TorsionSum) -> StencilEndo:
    taps = []
    offsets = rng.sample([-2, -1, 0, 1, 2], k=rng.randint(1, 3))
    for off in offsets:
        coeff = rng.randint(1, ambient.modulus - 1)
        taps.append((off, coeff))
    return StencilEndo(ambient, taps)


def random_torsion_subgroup(rng: random.Random, ambient: TorsionSum, width: int = 4) -> FgSubgroup:
    gens = []
    for _ in range(rng.randint(1, 2)):
        support = rng.sample(range(width), k=rng.randint(1, 2))
        gens.append(
            ambient.element({i: rng.randint(1, ambient.modulus - 1) for i in support})
        )
    return subgroup(ambient, gens)


def random_rational_endo(rng: random.Random, ambient: Rational) -> MatrixEndo:
    n = ambient.rank
    entries = [
        Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n * n)
    ]
    return MatrixEndo(ambient, [entries[i : i + n] for i in range(0, n * n, n)])


def random_rational_subgroup(rng: random.Random, ambient: Rational) -> FgSubgroup:
    n = ambient.rank
    gens = []
    for _ in range(rng.randint(1, 2)):
        vec = [Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(n)]
        gens.append(ambient.element(vec))
    return subgroup(ambient, gens)


def scaled(x: Element, c: int) -> Element:
    """``c * x``, coordinate by coordinate, through the ambient's own element constructor."""
    if isinstance(x.ambient, TorsionSum):
        return x.ambient.element({i: r * c for i, r in x.data})
    return x.ambient.element(v * c for v in x.data)


def companion(coeffs: list[int]) -> MatrixEndo:
    """Companion map of ``sum coeffs[i] x^i``: ``e_i -> e_(i+1)``, last column ``-a_i / a_d``."""
    d = len(coeffs) - 1
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d - 1):
        rows[i + 1][i] = Fraction(1)
    for i in range(d):
        rows[i][d - 1] = Fraction(-coeffs[i], coeffs[-1])
    return MatrixEndo(Rational(d), rows)


def _draw_identity_instance(rng: random.Random, torsion: bool) -> IdentityInstance:
    if torsion:
        ambient = TorsionSum(rng.choice((2, 3, 4, 5, 6)))
        f: Endo = random_torsion_endo(rng, ambient)
        fgen = random_torsion_subgroup(rng, ambient)
    else:
        ambient = Rational(rng.choice((1, 2, 3)))
        f = random_rational_endo(rng, ambient)
        fgen = random_rational_subgroup(rng, ambient)
    return IdentityInstance(
        f=f, fgen=fgen, k=rng.randint(1, 4), m=rng.randint(1, 3), n=rng.randint(1, 4)
    )


def _level_is_inert(inst: IdentityInstance) -> bool:
    level = partial_trajectory(inst.f, inst.fgen, inst.m)
    return inert_certificate(inst.f, level).verdict


_identity_pool: list[IdentityInstance] | None = None


def identity_pool() -> list[IdentityInstance]:
    """>= 100 draws, both ambient families, level-m trajectory inert in each."""
    global _identity_pool
    if _identity_pool is None:
        rng = random.Random(SEED)
        pool: list[IdentityInstance] = []
        for torsion in (True, False):
            kept = 0
            while kept < 60:
                inst = _draw_identity_instance(rng, torsion)
                if not inst.fgen.basis or not _level_is_inert(inst):
                    continue
                pool.append(inst)
                kept += 1
        _identity_pool = pool
    return _identity_pool


_invariance_pool: list[tuple[Endo, FgSubgroup, int]] | None = None


def invariance_pool() -> list[tuple[Endo, FgSubgroup, int]]:
    """>= 50 draws of (f, inert h, k) for the trajectory-invariance check."""
    global _invariance_pool
    if _invariance_pool is None:
        rng = random.Random(SEED + 1)
        pool: list[tuple[Endo, FgSubgroup, int]] = []
        while len(pool) < 30:
            ambient = TorsionSum(rng.choice((2, 3, 4, 5, 6)))
            f: Endo = random_torsion_endo(rng, ambient)
            h = random_torsion_subgroup(rng, ambient)
            if not h.basis:
                continue
            pool.append((f, h, rng.randint(1, 4)))
        while len(pool) < 55:
            ambient = Rational(rng.choice((1, 2)))
            f = random_rational_endo(rng, ambient)
            h = random_rational_subgroup(rng, ambient)
            if not h.basis or not inert_certificate(f, h).verdict:
                continue
            pool.append((f, h, rng.randint(1, 4)))
        _invariance_pool = pool
    return _invariance_pool
