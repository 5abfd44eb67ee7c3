"""The rational accumulator against Hermite-reduced rows and a from-scratch Hermite form."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from entropy_lab import groups, linalg
from entropy_lab.endomorphisms import MatrixEndo, power
from entropy_lab.entropy import (
    EntropyOptions,
    ExactLog,
    entropy_on_trajectory,
    growth_trace,
    inert_certificate,
    partial_trajectory,
)
from entropy_lab.groups import Rational, subgroup
from entropy_lab.linalg import INFINITE

import hermite
import instances


def _assert_hermite_reduced(acc) -> None:
    # rows are trimmed: each ends at its last nonzero entry, and an entry past a row's end is 0
    for c, row in acc.rows.items():
        assert len(row) <= acc.dim - c and row[-1] != 0
        assert row[0] > 0
        assert all(c - j >= len(above) or 0 <= above[c - j] < row[0] for j, above in acc.rows.items() if j < c)


# -- bounded entries at a long horizon -----------------------------------------


# Companions seeded at e_0 and the leading coefficient of each polynomial,
# which the intrinsic Yuzvinski formula gives as the entropy on the
# trajectory. The first two took about 27 s each at max_n=256 while entries
# above the pivots were never reduced.
COMPANIONS = [
    ([-1, -3, 4, -3, 6], 6),  # 6x^4 - 3x^3 + 4x^2 - 3x - 1
    ([1, -2, -6, 0, 2], 2),  # 2x^4 - 6x^2 - 2x + 1
    ([-2, -12, 5, 4], 4),  # 4x^3 + 5x^2 - 12x - 2
]


@pytest.mark.parametrize("coeffs, leading", COMPANIONS, ids=lambda v: str(v))
def test_rows_stay_hermite_reduced(coeffs, leading):
    f = instances.companion(coeffs)
    amb = f.ambient
    h = subgroup(amb, [amb.basis_element(0)])
    acc = groups._accumulator_from(h)
    gens = h.generators()
    for _ in range(2, 257):
        gens = [f.apply_once(g) for g in gens]
        for g in gens:
            acc.absorb(g)
            _assert_hermite_reduced(acc)
    assert len(acc.rows) == amb.rank
    assert entropy_on_trajectory(f, h, EntropyOptions(max_n=256)) == ExactLog(leading)


# -- every absorb returns the index it added -----------------------------------


@pytest.mark.parametrize("coeffs", [c for c, _ in COMPANIONS], ids=str)
def test_every_absorb_of_a_walk_returns_the_reference_index(coeffs):
    f = instances.companion(coeffs)
    amb = f.ambient
    acc = groups._RationalAcc(amb.rank)
    vectors = []
    x = amb.element([1, 2] + [0] * (amb.rank - 2))
    for _ in range(64):
        assert groups._index([acc.absorb(x)]) == _reference_index(vectors, vectors + [x])
        vectors.append(x)
        x = f.apply_once(x)


# -- differential: accumulator versus Hermite form of the cleared generators ---


def _cleared(vectors, den: int) -> list[list[int]]:
    return [[int(v * den) for v in x.data] for x in vectors]


def _hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    if not rows:
        return []
    hermite.hermite_rows(rows, len(rows[0]))
    return [r for r in rows if any(r)]


def _common_den(vectors) -> int:
    return math.lcm(1, *(v.denominator for x in vectors for v in x.data))


def _reference_index(inner, outer):
    """``|<outer> / <inner>|`` for ``inner`` a subset of ``outer``, both over one denominator."""
    den = _common_den(outer)
    small = _hnf_rows(_cleared(inner, den))
    big = _hnf_rows(_cleared(outer, den))
    if len(big) > len(small):
        return INFINITE
    num = math.prod(r[next(c for c, e in enumerate(r) if e)] for r in small)
    q, rem = divmod(num, math.prod(r[next(c for c, e in enumerate(r) if e)] for r in big))
    assert rem == 0
    return linalg.Cardinality.finite(q)


_entry = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))


@st.composite
def rational_cases(draw):
    dim = draw(st.integers(1, 4))
    amb = Rational(dim)
    row = st.lists(_entry, min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=dim, max_size=dim))
    vector = row.map(amb.element)
    seeds = draw(st.lists(vector, min_size=1, max_size=dim + 1))
    others = draw(st.lists(vector, min_size=1, max_size=2))
    k = draw(st.integers(1, 2))
    n = draw(st.integers(2, 6))
    return amb, power(MatrixEndo(amb, rows), k), seeds, others, n


@seed(20261018)
@settings(max_examples=80, deadline=None)
@given(rational_cases())
def test_accumulator_matches_hermite_form_of_cleared_generators(case):
    amb, f, seeds, others, n = case
    h = subgroup(amb, seeds)
    assert (h.basis, h.den) == hermite.subgroup_form(amb, seeds)
    both = groups.sum(h, subgroup(amb, others))
    assert (both.basis, both.den) == hermite.subgroup_form(amb, seeds + others)
    assert groups.quotient_index(both, h) == _reference_index(seeds, seeds + others)
    if not inert_certificate(f, h).verdict:
        return
    vectors = list(seeds)
    layer = list(seeds)
    expected = []
    for _ in range(n - 1):
        layer = [f.apply(x) for x in layer]
        expected.append(_reference_index(vectors, vectors + layer))
        vectors += layer
    assert list(growth_trace(f, h, n).increments) == expected


def test_rows_start_at_their_pivot_and_round_trip_through_the_canonical_form():
    amb = Rational(3)
    acc = groups._RationalAcc(amb.rank)
    acc.absorb(amb.element([0, 2, 4]))
    h = acc.to_subgroup(amb)
    assert h.basis == ((1, (2, 4)),)
    assert h == subgroup(amb, [amb.element([0, 2, 4])])
    back = groups._RationalAcc.from_subgroup(h)
    assert (back.den, back.rows) == (acc.den, acc.rows)


# -- the canonical denominator is minimal ---------------------------------------


def test_canonical_den_is_the_lcm_of_the_generator_denominators():
    # the orbit vectors come from the map, not from a canonical form, so their
    # reduced denominators are an independent account of the minimal den
    draws = [(i.f, i.fgen) for i in instances.identity_pool()] + [(f, h) for f, h, _ in instances.invariance_pool()]
    checked = 0
    for f, h in draws:
        amb = h.ambient
        if not isinstance(amb, Rational):
            continue
        f, layer = power(f, 1), h.generators()
        gens = list(layer)
        for n in range(1, 6):
            t = subgroup(amb, gens)
            assert t == partial_trajectory(f, h, n)
            assert math.gcd(t.den, *(e for _, row in t.basis for e in row)) == 1
            assert t.den == _common_den(gens)
            layer = [f.apply(x) for x in layer]
            gens += layer
            checked += 1
    assert checked >= 5 * 80


# -- comparing two accumulators by their canonical forms -------------------------


def _absorbed(dim: int, vectors):
    acc = groups._RationalAcc(dim)
    for x in vectors:
        acc.absorb(x)
    return acc


def _same_agrees_with_canonical_equality(amb, a, b) -> bool:
    """Whether ``a`` and ``b`` generate one subgroup, by the canonical forms of their accumulators.

    Each form must be the Hermite reference of its generators, and the two must
    be equal exactly when those references are.
    """
    forms = [_absorbed(amb.rank, x).to_subgroup(amb) for x in (a, b)]
    references = [hermite.subgroup_form(amb, x) for x in (a, b)]
    assert [(h.basis, h.den) for h in forms] == references
    assert (forms[0] == forms[1]) is (references[0] == references[1])
    return forms[0] == forms[1]


@seed(20261019)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_same_agrees_with_canonical_equality(data):
    dim = data.draw(st.integers(1, 4))
    amb = Rational(dim)
    vector = st.lists(_entry, min_size=dim, max_size=dim).map(amb.element)
    gens = data.draw(st.lists(vector, min_size=1, max_size=dim + 1))
    # equal by construction: the generators in another order, with sums of them
    pairs = data.draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), st.integers(0, len(gens) - 1)), max_size=3))
    other = data.draw(st.permutations(gens)) + [gens[i] + gens[j] for i, j in pairs]
    assert _same_agrees_with_canonical_equality(amb, gens, other)
    # one coordinate negated keeps the denominator and the rank; the subgroup may change
    t = data.draw(st.integers(0, dim - 1))
    flipped = [amb.element([-v if i == t else v for i, v in enumerate(x.data)]) for x in gens]
    _same_agrees_with_canonical_equality(amb, gens, flipped)
    _same_agrees_with_canonical_equality(amb, gens, data.draw(st.lists(vector, max_size=dim + 1)))


def test_same_compares_the_denominator():
    # <(1, 0)> and <(1/2, 0)> have equal rows over their own denominators
    amb = Rational(2)
    assert not _same_agrees_with_canonical_equality(amb, [amb.element([1, 0])], [amb.element([Fraction(1, 2), 0])])


# -- the shared elimination loop at m = 0 ------------------------------------------


@seed(20261020)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_elimination_over_z_is_order_free_and_returns_0_exactly_when_the_rank_grows(data):
    # integer vectors, negative leading entries included, absorbed in two orders into the loop _TorsionAcc runs mod m
    dim = data.draw(st.integers(1, 5))
    amb = Rational(dim)
    vector = st.lists(st.integers(-20, 20), min_size=dim, max_size=dim).map(amb.element)
    gens = data.draw(st.lists(vector, min_size=1, max_size=8))
    accs = []
    for order in (gens, data.draw(st.permutations(gens))):
        acc = groups._RationalAcc(dim)
        for x in order:
            rank = len(acc.rows)
            assert (acc.absorb(x) == 0) is (len(acc.rows) > rank)
            _assert_hermite_reduced(acc)
        accs.append(acc)
    a, b = accs
    h = a.to_subgroup(amb)
    assert h == b.to_subgroup(amb)
    assert (h.basis, h.den) == hermite.subgroup_form(amb, gens)
