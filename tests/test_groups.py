from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from entropy_lab import (
    INFINITE,
    Cardinality,
    NotInertError,
    Rational,
    TorsionSum,
    contains,
    growth_trace,
    image,
    inert_certificate,
    is_subgroup_of,
    power,
    quotient_index,
    subgroup,
    subgroup_order,
    subgroup_sum,
)
from entropy_lab import oracle
from entropy_lab.errors import AmbientMismatchError, ContainmentError

import hermite
from hermite import IntMatrix
from instances import identity_pool, invariance_pool, scaled

from test_linalg import cofactor_det

Q = Rational(1)
Z2 = TorsionSum(2)

FIN = Cardinality.finite


def zee(value) -> "FgSubgroup":  # noqa: F821 - alias for readability
    return subgroup(Q, [Q.element([value])])


# -- ambients and elements ---------------------------------------------------


def test_ambient_validation():
    with pytest.raises(ValueError):
        Rational(0)
    with pytest.raises(ValueError):
        TorsionSum(1)


def test_element_construction_and_reduction():
    x = Z2.element({0: 3, 2: 2, 5: 0})
    assert x.data == ((0, 1),)
    with pytest.raises(ValueError):
        Z2.element({-1: 1})
    with pytest.raises(TypeError):
        Q.element([0.5])
    y = Q.element([Fraction(3, 2)])
    assert y.data == (Fraction(3, 2),)


def test_element_arithmetic():
    a = Z2.element({0: 1, 1: 1})
    b = Z2.element({1: 1, 2: 1})
    assert (a + b).data == ((0, 1), (2, 1))
    assert a + a == Z2.zero()  # order 2
    with pytest.raises(AmbientMismatchError):
        a + Q.element([1])


# -- subgroup construction ---------------------------------------------------


def test_torsion_singleton_support():
    h = subgroup(Z2, [Z2.basis_element(0)])
    assert h.basis == ((0, (1,)),)
    assert h.support_window == 1
    assert subgroup_order(h) == FIN(2)
    # membership: exactly {0, e0}
    assert contains(h, Z2.zero())
    assert contains(h, Z2.basis_element(0))
    assert not contains(h, Z2.basis_element(1))


def test_rational_empty_generators_is_zero():
    z = subgroup(Q, [])
    assert z.basis == ()
    assert z.den == 1
    assert subgroup_order(z) == FIN(1)


def test_rational_two_generator_cyclic():
    h = subgroup(Q, [Q.element([1]), Q.element([Fraction(3, 2)])])
    # gcd-of-numerators / lcm-of-denominators oracle for cyclic subgroups
    want = oracle.cyclic_sum(oracle.CyclicRational(Fraction(1)), oracle.CyclicRational(Fraction(3, 2)))
    assert want.generator == Fraction(1, 2)
    assert h.basis == ((0, (1,)),)
    assert h.den == 2
    assert oracle.cyclic_from_subgroup(h).generator == Fraction(1, 2)


def test_subgroup_rejects_foreign_elements():
    with pytest.raises(AmbientMismatchError):
        subgroup(Q, [Z2.basis_element(0)])


def test_torsion_window_is_not_part_of_equality():
    a = subgroup(Z2, [Z2.element({0: 1})])
    b = subgroup(Z2, [Z2.element({0: 1}), Z2.element({5: 2})])  # 2*e5 = 0
    assert b == a
    assert b.support_window == a.support_window == 1


# -- sum -----------------------------------------------------------------------


def test_sum_idempotent():
    h = subgroup(Z2, [Z2.element({0: 1, 3: 1})])
    assert subgroup_sum(h, h) == h


def test_sum_of_axes_gives_two_coordinates():
    h = subgroup(Z2, [Z2.basis_element(0)])
    k = subgroup(Z2, [Z2.basis_element(1)])
    hk = subgroup_sum(h, k)
    assert hk.basis == ((0, (1,)), (1, (1,)))
    assert subgroup_order(hk) == FIN(4)


def test_sum_cyclic_rationals():
    got = subgroup_sum(zee(1), zee(Fraction(3, 2)))
    assert got == zee(Fraction(1, 2))
    want = oracle.cyclic_sum(oracle.CyclicRational(Fraction(1)), oracle.CyclicRational(Fraction(3, 2)))
    assert oracle.cyclic_from_subgroup(got).generator == want.generator


# -- membership and containment ----------------------------------------------


def test_contains_zero_subgroup():
    z = subgroup(Z2, [])
    assert contains(z, Z2.zero())
    assert not contains(z, Z2.basis_element(0))


def test_contains_misses_far_coordinate():
    h = subgroup(Z2, [Z2.basis_element(0)])
    assert not contains(h, Z2.basis_element(1))


def test_contains_half_integers():
    h = zee(Fraction(1, 2))
    assert contains(h, Q.element([Fraction(3, 2)]))
    assert not contains(h, Q.element([Fraction(1, 3)]))


def test_is_subgroup_of_reflexive_and_examples():
    h = subgroup(Z2, [Z2.basis_element(0)])
    hp = subgroup(Z2, [Z2.basis_element(0), Z2.basis_element(1)])
    assert is_subgroup_of(h, h)
    assert is_subgroup_of(h, hp)
    assert not is_subgroup_of(hp, h)
    assert not is_subgroup_of(zee(1), zee(Fraction(3, 2)))
    assert is_subgroup_of(zee(Fraction(3, 2)), zee(Fraction(1, 2)))


# -- quotient_index and order ---------------------------------------------------


def test_quotient_index_reflexive():
    h = subgroup(Z2, [Z2.element({0: 1, 1: 1})])
    assert quotient_index(h, h) == FIN(1)


def test_quotient_index_quarter_integers():
    assert quotient_index(zee(Fraction(1, 4)), zee(1)) == FIN(4)
    # cosets of Z inside (1/4)Z: 0, 1/4, 1/2, 3/4
    reps = {Fraction(i, 4) % 1 for i in range(8)}
    assert len(reps) == 4


def test_quotient_index_requires_containment():
    with pytest.raises(ContainmentError):
        quotient_index(zee(1), zee(Fraction(1, 2)))


def test_quotient_index_zero_denominator_cases():
    z = subgroup(Q, [])
    assert quotient_index(z, z) == FIN(1)
    assert quotient_index(zee(1), z) == INFINITE


def test_order_examples():
    assert subgroup_order(subgroup(Q, [])) == FIN(1)
    hp = subgroup(Z2, [Z2.basis_element(0), Z2.basis_element(1)])
    assert subgroup_order(hp) == FIN(4)
    assert len(oracle.enumerate_subgroup(hp).elements) == 4
    assert subgroup_order(zee(1)) == INFINITE


# -- quotient_index against coset counting ------------------------------------


def coset_count(rows):
    """|Z^n / L| for a full-rank lattice L, by counting, no normal forms.

    det(L) * Z^n lies in L, so the quotient is the quotient of (Z/D)^n by
    the image of L's basis, D = |det|. The image is enumerated literally.
    """
    n = len(rows)
    d = abs(cofactor_det(rows))
    assert d != 0, "full-rank input required"
    image = set()

    def rec(i, acc):
        if i == n:
            image.add(tuple(x % d for x in acc))
            return
        for c in range(d):
            rec(i + 1, [a + c * b for a, b in zip(acc, rows[i])])

    rec(0, [0] * n)
    total = d**n
    assert total % len(image) == 0
    return total // len(image)


def lattice(rows, den):
    """The subgroup of Q^n generated by the integer rows divided by ``den``."""
    amb = Rational(len(rows[0]))
    return subgroup(amb, [amb.element([Fraction(e, den) for e in row]) for row in rows])


def test_quotient_index_equal_lattices():
    k = lattice([[3, 1], [0, 2]], 5)
    assert quotient_index(k, k) == FIN(1)


def test_quotient_index_doubling():
    eye = [[1, 0], [0, 1]]
    assert quotient_index(lattice(eye, 3), lattice([[2, 0], [0, 2]], 3)) == FIN(4)
    assert coset_count([[2, 0], [0, 2]]) == 4
    # the same doubling with the two denominators apart: (1/6)Z^2 over (1/3)Z^2
    k, h = lattice(eye, 6), lattice(eye, 3)
    assert (k.den, h.den) == (6, 3)
    assert quotient_index(k, h) == FIN(4)


def test_quotient_index_rank_drop_is_infinite():
    k, h = lattice([[1, 0], [0, 1]], 4), lattice([[1, 0]], 2)
    assert (k.den, h.den) == (4, 2)
    assert quotient_index(k, h) == INFINITE


def test_quotient_index_rejects_non_containment():
    with pytest.raises(ContainmentError):
        quotient_index(lattice([[2, 0], [0, 3]], 1), lattice([[1, 0], [0, 3]], 1))


lattice_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def nested_lattice_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    sup_ents = draw(st.lists(lattice_entries, min_size=n * n, max_size=n * n))
    sup = IntMatrix(n, n, sup_ents)
    if cofactor_det(sup.to_rows()) == 0:
        return None
    mult_ents = draw(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=n * n, max_size=n * n)
    )
    c = IntMatrix(n, n, mult_ents)
    if cofactor_det(c.to_rows()) == 0:
        return None
    return c @ sup, sup, c


@given(nested_lattice_pairs(), st.integers(min_value=1, max_value=5))
def test_quotient_index_matches_coset_enumeration(pair, d):
    if pair is None:
        return
    sub, sup, c = pair
    n = sup.rows
    # a prime t that divides not every entry of sup makes k.den exceed h.den
    t = next(p for p in (2, 3, 5) if any(e % p for e in sup.entries))
    h = lattice(sub.to_rows(), d)
    k = lattice(sup.to_rows(), d * t)
    assert h.den != k.den
    # [sup/(d t) : C.sup/d] = [sup : t C.sup] = [sup : t sup] [Z^n : C.Z^n],
    # the last one counted without normal forms
    assert quotient_index(k, h) == FIN(t**n * coset_count(c.to_rows()))


@given(
    nested_lattice_pairs(),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=9, max_size=9),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_quotient_index_multiplicative_on_chains(pair, more, s, t):
    if pair is None:
        return
    mid, top, _ = pair
    n = top.rows
    d = IntMatrix(n, n, more[: n * n])
    if cofactor_det(d.to_rows()) == 0:
        return
    # bottom inside mid/s inside top/(s t), each over its own denominator
    low = lattice((d @ mid).to_rows(), 1)
    middle = lattice(mid.to_rows(), s)
    high = lattice(top.to_rows(), s * t)
    assert quotient_index(high, low) == quotient_index(middle, low) * quotient_index(high, middle)


# -- randomized properties -------------------------------------------------------

torsion_ambients = st.sampled_from([TorsionSum(2), TorsionSum(3), TorsionSum(4), TorsionSum(6)])


@st.composite
def torsion_subgroups(draw, ambient=None):
    amb = ambient or draw(torsion_ambients)
    n_gens = draw(st.integers(min_value=0, max_value=3))
    gens = []
    for _ in range(n_gens):
        support = draw(
            st.dictionaries(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=1, max_value=amb.modulus - 1),
                max_size=3,
            )
        )
        gens.append(amb.element(support))
    return subgroup(amb, gens)


@st.composite
def rational_subgroups(draw, rank=2):
    amb = Rational(rank)
    n_gens = draw(st.integers(min_value=0, max_value=3))
    gens = []
    for _ in range(n_gens):
        vec = [
            Fraction(draw(st.integers(min_value=-4, max_value=4)), draw(st.sampled_from([1, 2, 3])))
            for _ in range(rank)
        ]
        gens.append(amb.element(vec))
    return subgroup(amb, gens)


@given(torsion_subgroups())
def test_torsion_canonicalization_idempotent(h):
    assert subgroup(h.ambient, h.generators()) == h


@given(rational_subgroups())
def test_rational_canonicalization_idempotent(h):
    assert subgroup(h.ambient, h.generators()) == h


@given(torsion_subgroups(), torsion_subgroups())
def test_sum_is_least_upper_bound_torsion(h, k):
    if h.ambient != k.ambient:
        return
    s = subgroup_sum(h, k)
    assert is_subgroup_of(h, s) and is_subgroup_of(k, s)
    # least: s is generated by h and k, so any test generator of s lies in
    # any subgroup containing both; spot-check via the generators themselves
    for g in s.generators():
        assert contains(s, g)
    assert subgroup_sum(s, h) == s


@given(rational_subgroups(), rational_subgroups())
def test_sum_is_least_upper_bound_rational(h, k):
    s = subgroup_sum(h, k)
    assert is_subgroup_of(h, s) and is_subgroup_of(k, s)
    assert subgroup_sum(s, k) == s


@given(torsion_subgroups())
def test_torsion_order_matches_enumeration(h):
    order = subgroup_order(h)
    assert order.is_finite
    counted = oracle.enumerate_subgroup(h, cap=8192)
    assert not counted.capped
    assert len(counted.elements) == order.value


@given(torsion_subgroups(), torsion_subgroups())
def test_torsion_index_matches_enumeration(h, k):
    if h.ambient != k.ambient:
        return
    big = subgroup_sum(h, k)
    got = quotient_index(big, h)
    want = oracle.index_by_enumeration(big, h, cap=8192)
    assert got == want


@given(torsion_subgroups(), torsion_subgroups(), torsion_subgroups())
def test_torsion_index_multiplicative(a, b, c):
    if not (a.ambient == b.ambient == c.ambient):
        return
    mid = subgroup_sum(a, b)
    top = subgroup_sum(mid, c)
    whole = quotient_index(top, a)
    assert whole == quotient_index(top, mid) * quotient_index(mid, a)


@given(rational_subgroups(), rational_subgroups(), rational_subgroups())
def test_rational_index_multiplicative_when_finite(a, b, c):
    mid = subgroup_sum(a, b)
    top = subgroup_sum(mid, c)
    whole = quotient_index(top, a)
    lower = quotient_index(mid, a)
    upper = quotient_index(top, mid)
    if lower.is_finite and upper.is_finite:
        assert whole == lower * upper
    else:
        assert whole == INFINITE


@given(torsion_subgroups())
def test_generators_reduced_and_in_subgroup(h):
    for g in h.generators():
        assert contains(h, g)
        assert all(0 < r < h.ambient.modulus for _, r in g.data)


# -- differential: accumulator routes against enumeration and the Hermite reference --


@st.composite
def membership_cases(draw):
    """(h, k, x) in one ambient.

    ``h`` is generated by multiples ``s*g`` of drawn elements ``g``, and ``x``
    and ``k`` are mostly combinations of the ``g``: a coefficient that ``s``
    does not divide leaves ``x`` outside ``h`` but only refines a pivot.
    """
    if draw(st.booleans()):
        amb = TorsionSum(draw(st.integers(min_value=2, max_value=12)))

        def element():
            support = st.dictionaries(
                st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=amb.modulus - 1), max_size=4
            )
            return amb.element(draw(support))

    else:
        amb = Rational(draw(st.integers(min_value=1, max_value=3)))

        def element():
            return amb.element(
                Fraction(draw(st.integers(min_value=-6, max_value=6)), draw(st.sampled_from([1, 2, 3, 4])))
                for _ in range(amb.rank)
            )

    # at most three generators keep a torsion subgroup under 12**3 elements
    gens = [element() for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    h = subgroup(amb, [scaled(g, draw(st.integers(min_value=1, max_value=4))) for g in gens])

    def combination():
        x = amb.zero()
        for g in gens:
            x = x + scaled(g, draw(st.integers(min_value=-3, max_value=3)))
        return x + element() if draw(st.booleans()) else x

    k = subgroup(amb, [combination() for _ in range(draw(st.integers(min_value=0, max_value=3)))])
    return h, k, combination()


def _hermite_rows(rows: list[list[int]]) -> list[list[int]]:
    hnf, _ = hermite.hermite_form(IntMatrix.from_rows(rows))
    return [r for r in hnf.to_rows() if any(r)]


@seed(20261018)
@settings(max_examples=200)
@given(membership_cases())
def test_membership_order_and_inclusion_match_independent_references(case):
    h, k, x = case
    if isinstance(h.ambient, TorsionSum):
        h_elements = oracle.enumerate_subgroup(h).elements
        k_elements = oracle.enumerate_subgroup(k).elements
        assert contains(h, x) == (x in h_elements)
        assert subgroup_order(h) == FIN(len(h_elements))
        assert subgroup_order(k) == FIN(len(k_elements))
        assert is_subgroup_of(k, h) == (k_elements <= h_elements)
        assert is_subgroup_of(h, k) == (h_elements <= k_elements)
    else:
        scaled = [v * h.den for v in x.data]
        dense = [[0] * j + list(r) for j, r in h.basis]
        want = all(v.denominator == 1 for v in scaled) and (
            hermite.sparse_view(_hermite_rows(dense + [[int(v) for v in scaled]])) == h.basis
        )
        assert contains(h, x) == want
        assert subgroup_order(h) == (INFINITE if h.basis else FIN(1))
        assert is_subgroup_of(k, h) == all(contains(h, g) for g in k.generators())


def test_inert_defect_is_the_first_growth_increment_on_the_pools():
    cases = [(f, h) for f, h, _ in invariance_pool()]
    for inst in identity_pool():
        cases.append((inst.f, inst.fgen))
        cases.append((power(inst.f, inst.k), inst.fgen))
    for f, h in cases:
        defect = inert_certificate(f, h).defect
        # the route through canonical forms: |(H + f(H)) / H|
        assert defect == quotient_index(subgroup_sum(h, image(f, h)), h)
        if defect.is_finite:
            assert defect == growth_trace(f, h, 2).increments[0]
        else:
            with pytest.raises(NotInertError):
                growth_trace(f, h, 2)
