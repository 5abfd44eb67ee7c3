import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from entropy_lab import (
    MatrixEndo,
    Rational,
    StencilEndo,
    TorsionSum,
    apply,
    entropy_power_on_trajectory,
    groups,
    image,
    left_shift,
    multiplication,
    partial_trajectory,
    power,
    right_shift,
    subgroup,
    subgroup_sum,
)
from entropy_lab.entropy import ExactLog
from entropy_lab.errors import AmbientMismatchError

from instances import random_rational_endo

Z2 = TorsionSum(2)
Q = Rational(1)


# -- apply -----------------------------------------------------------------


def test_identity_stencil_fixes_everything():
    ident = StencilEndo(Z2, [(0, 1)])
    x = Z2.element({0: 1, 3: 1})
    assert apply(ident, x) == x


def test_right_shift_moves_basis():
    beta = right_shift(Z2)
    assert apply(beta, Z2.basis_element(0)) == Z2.basis_element(1)


def test_double_shift_via_power():
    beta = right_shift(Z2)
    assert apply(power(beta, 2), Z2.basis_element(0)) == Z2.basis_element(2)


def test_left_shift_discards_coordinate_zero():
    lam = left_shift(Z2)
    assert apply(lam, Z2.basis_element(0)) == Z2.zero()
    assert apply(lam, Z2.basis_element(3)) == Z2.basis_element(2)


def test_matrix_endo_applies_fractions():
    f = multiplication(Q, Fraction(3, 2))
    assert apply(f, Q.element([2])).data == (Fraction(3),)
    assert apply(f, Q.element([Fraction(1, 3)])).data == (Fraction(1, 2),)


def test_apply_rejects_foreign_ambient():
    beta = right_shift(Z2)
    with pytest.raises(AmbientMismatchError):
        apply(beta, Q.element([1]))


# -- image -----------------------------------------------------------------


def test_image_under_identity():
    h = subgroup(Z2, [Z2.element({0: 1, 1: 1})])
    assert image(StencilEndo(Z2, [(0, 1)]), h) == h


def test_image_of_singleton_under_shift():
    beta = right_shift(Z2)
    h = subgroup(Z2, [Z2.basis_element(0)])
    assert image(beta, h) == subgroup(Z2, [Z2.basis_element(1)])


def test_image_of_integers_under_multiplication():
    f = multiplication(Q, Fraction(3, 2))
    h = subgroup(Q, [Q.element([1])])
    got = image(f, h)
    assert got == subgroup(Q, [Q.element([Fraction(3, 2)])])
    assert got.basis == ((0, (3,)),) and got.den == 2


def test_image_rejects_foreign_ambient():
    with pytest.raises(AmbientMismatchError):
        image(right_shift(Z2), subgroup(Q, [Q.element([1])]))


# -- power -----------------------------------------------------------------


def test_power_one_is_the_map_itself():
    beta = right_shift(Z2)
    p = power(beta, 1)
    for i in range(5):
        x = Z2.basis_element(i)
        assert apply(p, x) == apply(beta, x)


def test_power_validates_exponent():
    with pytest.raises(ValueError):
        power(right_shift(Z2), 0)


def test_power_of_power_composes_exponents():
    beta = right_shift(Z2)
    p = power(power(beta, 2), 3)
    assert p.exponent == 6
    assert apply(p, Z2.basis_element(0)) == Z2.basis_element(6)


def test_first_power_of_a_power_is_itself():
    p = power(right_shift(Z2), 3)
    assert power(p, 1) is p
    with pytest.raises(ValueError):
        power(p, 0)


def test_multiplication_cubed():
    f = multiplication(Q, Fraction(3, 2))
    assert apply(power(f, 3), Q.element([1])).data == (Fraction(27, 8),)


# -- matrix maps over one common denominator ---------------------------------

F = Fraction
# mixed denominators, negative entries and a zero row
MIXED = [
    [F(1, 2), F(-3, 4), F(0), F(5)],
    [F(0), F(0), F(0), F(0)],
    [F(-7, 3), F(1), F(2, 9), F(-1, 6)],
    [F(4), F(-5, 2), F(1, 12), F(-1)],
]
Q4 = Rational(4)
VECTORS = [
    Q4.element([F(1), F(0), F(0), F(0)]),
    Q4.element([F(-2, 3), F(5, 4), F(0), F(7)]),
    Q4.element([F(0), F(0), F(0), F(0)]),
    Q4.element([F(11, 6), F(-1, 10), F(3, 8), F(-9, 14)]),
]


def _product(a, b):
    """The Fraction matrix product of two lists of rows: the reference the integer kernels are compared against."""
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def _column_product(m, x):
    return tuple(row[0] for row in _product(m, [[v] for v in x.data]))


@pytest.mark.parametrize("x", VECTORS, ids=range(len(VECTORS)))
def test_matrix_apply_once_matches_fraction_product(x):
    f = MatrixEndo(Q4, MIXED)
    assert f.den == 36
    assert f.apply_once(x).data == _column_product(MIXED, x)


@pytest.mark.parametrize("k", [*range(1, 9), 64])
def test_matrix_power_matches_iterated_apply(k):
    f = MatrixEndo(Q4, MIXED)
    for x in VECTORS:
        want = x
        for _ in range(k):
            want = f.apply_once(want)
        assert power(f, k).apply(x) == want


@pytest.mark.parametrize("k", [2, 3, 8])
def test_composed_matrix_power_is_the_fraction_product(k):
    want = MIXED
    for _ in range(k - 1):
        want = _product(want, MIXED)
    p = power(MatrixEndo(Q4, MIXED), k)
    for x in VECTORS:
        assert p.apply(x).data == _column_product(want, x)


def test_matrix_power_of_power_composes_exponents():
    f = MatrixEndo(Q4, MIXED)
    p = power(power(f, 2), 3)
    assert p.exponent == 6
    for x in VECTORS:
        assert p.apply(x) == power(f, 6).apply(x) == apply(power(f, 3), apply(power(f, 3), x))


@st.composite
def rational_powers_and_vectors(draw):
    """A seeded random matrix map of rank 1-4, an exponent up to 8, and a vector that may be zero."""
    amb = Rational(draw(st.integers(min_value=1, max_value=4)))
    f = random_rational_endo(random.Random(draw(st.integers(min_value=0, max_value=2**32))), amb)
    entry = st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from([1, 2, 3, 4, 6, 35]))
    x = draw(st.just(amb.zero()) | st.lists(entry, min_size=amb.rank, max_size=amb.rank).map(amb.element))
    return f, draw(st.integers(min_value=1, max_value=8)), x


@seed(17)
@settings(max_examples=200, deadline=None)
@given(rational_powers_and_vectors())
def test_packed_matrix_step_matches_the_iterated_fraction_product(case):
    f, k, x = case
    matrix = [[Fraction(e, f.den) for e in row] for row in f.numerators]
    want = x
    for _ in range(k):
        want = f.ambient.element(_column_product(matrix, want))
    den, nums = power(f, k)._apply_packed(groups._packed(x))
    assert math.gcd(den, *nums) == 1
    assert groups._unpacked(f.ambient, (den, nums)) == want


def test_a_walk_keeps_the_packed_denominator_least():
    # diag(1/2, 1/3) from e_0: f^n(e_0) = e_0 / 2^n; a step without the gcd would carry the denominator 6^n
    q2 = Rational(2)
    f = power(MatrixEndo(q2, [[F(1, 2), F(0)], [F(0), F(1, 3)]]), 1)
    v = groups._packed(q2.basis_element(0))
    for n in range(1, 257):
        v = f._apply_packed(v)
        assert v == (2**n, [1, 0])
    assert partial_trajectory(f, subgroup(q2, [q2.basis_element(0)]), 257).den == 2**256


# -- stencil powers ------------------------------------------------------------


@st.composite
def one_sided_stencils_and_elements(draw):
    """A stencil with offsets all in ``0..3`` or all in ``-3..0``, and an element it acts on."""
    m = draw(st.sampled_from([4, 8, 9]) | st.integers(min_value=2, max_value=12))
    amb = TorsionSum(m)
    sign = draw(st.sampled_from([1, -1]))
    offsets = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3, unique=True))
    f = StencilEndo(amb, [(sign * o, draw(st.integers(min_value=1, max_value=m - 1))) for o in offsets])
    residues = st.integers(min_value=0, max_value=m - 1)
    coords = st.dictionaries(st.integers(min_value=0, max_value=8), residues, max_size=4)
    return f, amb.element(draw(coords))


def _iterated(f, k, x):
    for _ in range(k):
        x = f.apply_once(x)
    return x


@seed(8)
@given(one_sided_stencils_and_elements(), st.integers(min_value=1, max_value=16))
def test_one_sided_stencil_power_matches_iterated_apply(case, k):
    f, x = case
    assert power(f, k).apply(x) == _iterated(f, k, x)


@seed(8)
@given(
    one_sided_stencils_and_elements(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_one_sided_stencil_power_of_power_matches_iterated_apply(case, a, b):
    f, x = case
    assert power(power(f, a), b).apply(x) == _iterated(f, a * b, x)


def test_mixed_sign_stencil_power_keeps_the_boundary_at_every_step():
    # f(e_0) = e_1 drops its e_(-1) term, so f^2(e_0) = e_0 + e_2; q(s)^2 = s^-2 + 2 + s^2 gives 2e_0 + e_2
    z3 = TorsionSum(3)
    f = StencilEndo(z3, [(-1, 1), (1, 1)])
    assert power(f, 2).apply(z3.basis_element(0)) == z3.element({0: 1, 2: 1})


def test_nilpotent_stencil_power_is_the_zero_map():
    # (2 + 2s)^2 = 4(1 + s)^2 = 0 mod 4
    z4 = TorsionSum(4)
    f = StencilEndo(z4, [(0, 2), (1, 2)])
    assert all(power(f, k).apply(z4.element({0: 1, 3: 3})) == z4.zero() for k in (2, 3, 7))
    assert entropy_power_on_trajectory(f, 2, subgroup(z4, [z4.basis_element(0)])) == ExactLog(1)


# -- the packed kernel ----------------------------------------------------------

# byte fields up to 16, wider fields past it; 256 is the last modulus whose residues pack one per byte
PACKED_MODULI = [*range(2, 21), 256, 257, 2**61 - 1]
NILPOTENT = StencilEndo(TorsionSum(4), [(0, 2), (1, 2)])  # (2 + 2s)^2 = 0 mod 4


@st.composite
def stencil_powers_and_vectors(draw):
    """A stencil with offsets in ``-3..3``, an exponent up to 16, and a vector near or far from coordinate 0.

    Coefficients and residues lean to ``m - 1``, whose products fill a field
    the most. A support near 0 under a negative offset runs off the left end.
    """
    m = draw(st.sampled_from(PACKED_MODULI))
    amb = TorsionSum(m)
    units = st.sampled_from([1, m - 1]) | st.integers(min_value=1, max_value=m - 1)
    offsets = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4, unique=True))
    f = StencilEndo(amb, [(o, draw(units)) for o in offsets])
    start = draw(st.sampled_from([0, 1, 2, 7, 1000, 10**6]))
    coords = draw(st.dictionaries(st.integers(min_value=0, max_value=12), units | st.just(0), max_size=6))
    return f, draw(st.integers(min_value=1, max_value=16)), amb.element({start + i: r for i, r in coords.items()})


@seed(16)
@settings(max_examples=300, deadline=None)
@given(stencil_powers_and_vectors())
@example((NILPOTENT, 2, TorsionSum(4).element({0: 1, 3: 3})))
@example((NILPOTENT, 3, TorsionSum(4).zero()))
@example((StencilEndo(TorsionSum(257), [(-3, 256), (2, 1)]), 5, TorsionSum(257).element({1: 256, 4: 1})))
def test_packed_step_matches_iterated_apply_once(case):
    f, k, x = case
    p = power(f, k)
    first, buf = p._apply_packed(groups._packed(x))
    assert first >= 0 and (not buf or (buf[0] and buf[-1]))
    assert groups._unpacked(f.ambient, (first, buf)) == _iterated(f, k, x) == p.apply(x)


@pytest.mark.parametrize("m", [*range(2, 18), 256, 257])
def test_packed_step_with_every_field_at_its_largest(m):
    # coefficients and residues m - 1 on every coordinate and tap: a field then
    # holds a reduced residue plus a whole chunk of (m - 1)^2 products; enough
    # taps and coordinates to fill a second chunk of byte fields
    amb = TorsionSum(m)
    count = 2 * 256 // (m - 1) ** 2 + 8
    f = StencilEndo(amb, [(o, m - 1) for o in range(-3, count)])
    x = amb.element({i: m - 1 for i in range(count)})
    assert f._kernel(groups._packed(x)) == groups._packed(f.apply_once(x))
    assert power(f, 1).apply(x) == f.apply_once(x)


def test_power_with_no_taps_has_the_zero_kernel():
    # (2 + 2s)^2 = 0 mod 4: the square sends every vector to zero, near coordinate 0 and far from it
    z4 = TorsionSum(4)
    p = power(NILPOTENT, 2)
    far = z4.element({10**6 + i: 3 for i in range(300)})
    for x in [z4.zero(), z4.basis_element(0), z4.element({3: 1, 4: 2, 5: 3}), far]:
        assert p.apply(x) == z4.zero()


# -- construction validation ---------------------------------------------------


def test_stencil_rejects_bad_taps():
    with pytest.raises(ValueError):
        StencilEndo(Z2, [])
    with pytest.raises(ValueError):
        StencilEndo(Z2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        StencilEndo(Z2, [(1, 2)])  # zero mod 2
    with pytest.raises(AmbientMismatchError):
        StencilEndo(Q, [(0, 1)])


@pytest.mark.parametrize(
    "rows", [[[1, 0], [0]], [[1], [0]], [[1, 0, 0], [0, 1, 0]], []], ids=["ragged", "narrow", "wide", "empty"]
)
def test_matrix_endo_rejects_rows_that_are_not_square(rows):
    with pytest.raises(ValueError, match=r"^matrix must be 2x2$"):
        MatrixEndo(Rational(2), rows)


def test_matrix_endo_rejects_bad_shape():
    with pytest.raises(ValueError):
        MatrixEndo(Rational(2), [[Fraction(1), Fraction(0)]])
    with pytest.raises(AmbientMismatchError):
        MatrixEndo(Z2, [[Fraction(1)]])
    with pytest.raises(TypeError):
        multiplication(Q, 1.5)


def test_multiplication_rejects_a_torsion_ambient():
    with pytest.raises(AmbientMismatchError):
        multiplication(Z2, 3)


def test_matrix_endo_rejects_float_entries():
    with pytest.raises(TypeError, match="floating point value 0.5"):
        MatrixEndo(Q, [[0.5]])
    with pytest.raises(TypeError):
        MatrixEndo(Rational(2), [[1, 0], [0, 1.0]])
    assert MatrixEndo(Q, [["1/2"]]).numerators == MatrixEndo(Q, [[Fraction(1, 2)]]).numerators == ((1,),)


# -- algebraic laws -----------------------------------------------------------

torsion_elements = st.dictionaries(
    st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=5), max_size=3
).map(lambda d: TorsionSum(6).element({i: r % 6 for i, r in d.items() if r % 6}))


@st.composite
def stencils_mod_6(draw):
    amb = TorsionSum(6)
    n_taps = draw(st.integers(min_value=1, max_value=3))
    offsets = draw(
        st.lists(
            st.integers(min_value=-2, max_value=2), min_size=n_taps, max_size=n_taps, unique=True
        )
    )
    return StencilEndo(amb, [(o, draw(st.integers(min_value=1, max_value=5))) for o in offsets])


@given(stencils_mod_6(), torsion_elements, torsion_elements)
def test_additivity(f, x, y):
    assert apply(f, x + y) == apply(f, x) + apply(f, y)


@given(stencils_mod_6(), torsion_elements, torsion_elements)
def test_image_commutes_with_sum(f, x, y):
    amb = TorsionSum(6)
    h = subgroup(amb, [x])
    k = subgroup(amb, [y])
    assert image(f, subgroup_sum(h, k)) == subgroup_sum(image(f, h), image(f, k))


@given(
    stencils_mod_6(),
    torsion_elements,
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_power_addition_law(f, x, a, b):
    via_sum = apply(power(f, a + b), x)
    chained = apply(power(f, a), apply(power(f, b), x))
    assert via_sum == chained
