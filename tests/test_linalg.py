import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from entropy_lab.linalg import INFINITE, Cardinality, _as_fraction, digits, xgcd
from hermite import IntMatrix, hermite_form


# -- independent oracles -----------------------------------------------------


def cofactor_det(rows):
    """Textbook cofactor expansion; the reference for exact determinants."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def is_canonical_echelon(m: IntMatrix) -> bool:
    rows = m.to_rows()
    pivots = []
    for row in rows:
        nz = [j for j, v in enumerate(row) if v != 0]
        if not nz:
            pivots.append(None)
            continue
        if any(p is None for p in pivots):
            return False  # nonzero row below a zero row
        j = nz[0]
        if row[j] <= 0:
            return False
        if pivots and pivots[-1] is not None and j <= pivots[-1]:
            return False
        pivots.append(j)
    for r, j in enumerate(pivots):
        if j is None:
            continue
        for above in range(r):
            if not 0 <= rows[above][j] < rows[r][j]:
                return False
    return True


# -- strategies ----------------------------------------------------------------

small_entries = st.integers(min_value=-6, max_value=6)


def int_matrices(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(small_entries, min_size=r * c, max_size=r * c).map(
                lambda ents: IntMatrix(r, c, ents)
            )
        )
    )


def square_matrices(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.lists(small_entries, min_size=n * n, max_size=n * n).map(
            lambda ents: IntMatrix(n, n, ents)
        )
    )


# -- Cardinality ----------------------------------------------------------------


def test_cardinality_basics():
    four = Cardinality.finite(4)
    assert four.is_finite and four.value == 4
    assert not INFINITE.is_finite
    assert four * Cardinality.finite(3) == Cardinality.finite(12)
    assert four * INFINITE == INFINITE
    assert INFINITE * INFINITE == INFINITE
    assert repr(four) == "Finite(4)"
    assert repr(INFINITE) == "Infinite"
    with pytest.raises(ValueError):
        Cardinality.finite(0)
    with pytest.raises(ValueError):
        INFINITE.value


def test_a_cardinality_past_the_interpreters_digit_limit_has_a_repr():
    # str() refuses ints of more than 4300 digits, and error messages carry this repr
    big = 7**6000
    text = repr(Cardinality.finite(big))
    assert text.startswith("Finite(") and text.endswith(")")
    assert Decimal(text[len("Finite(") : -1]) == big
    assert digits(big) == text[len("Finite(") : -1]
    assert digits(12) == "12"
    for n in (2**14000 - 1, 2**14000):  # the last int str() writes, and the first Decimal does
        assert Decimal(digits(n)) == n


def test_xgcd_is_a_bezout_identity_on_zero_negative_and_long_arguments():
    rng = random.Random(7)
    long = [rng.randrange(10**99, 10**100) for _ in range(4)]
    values = [0, 1, -1, 6, -4, 7, 12, -18] + long + [-v for v in long] + [long[0] * 6, -long[1] * 35]
    for a in values:
        for b in values:
            g, x, y = xgcd(a, b)
            assert a * x + b * y == g == math.gcd(a, b) >= 0, (a, b)


# -- hermite_form ----------------------------------------------------------------


def test_hnf_identity_fixed():
    eye = IntMatrix.identity(2)
    h, u = hermite_form(eye)
    assert h == eye
    assert u == eye


def test_hnf_positive_diagonal_fixed():
    m = IntMatrix.from_rows([[2, 0], [0, 2]])
    h, u = hermite_form(m)
    assert h == m
    assert u == IntMatrix.identity(2)


def test_hnf_dense_example():
    m = IntMatrix.from_rows([[4, 6], [6, 4]])
    h, u = hermite_form(m)
    assert u @ m == h
    assert abs(cofactor_det(u.to_rows())) == 1
    assert abs(cofactor_det(h.to_rows())) == 20
    assert abs(cofactor_det(m.to_rows())) == 20
    assert is_canonical_echelon(h)


def test_hnf_zero_and_empty():
    z = IntMatrix.zeros(2, 3)
    h, u = hermite_form(z)
    assert h == z and u == IntMatrix.identity(2)
    e = IntMatrix(0, 3, [])
    h, u = hermite_form(e)
    assert h.rows == 0 and h.cols == 3


@given(int_matrices())
def test_hnf_reconstruction_and_shape(m):
    h, u = hermite_form(m)
    assert u @ m == h
    assert abs(cofactor_det(u.to_rows())) == 1
    assert is_canonical_echelon(h)


@given(square_matrices())
def test_hnf_preserves_abs_det(m):
    h, _ = hermite_form(m)
    assert abs(cofactor_det(h.to_rows())) == abs(cofactor_det(m.to_rows()))


@given(int_matrices(3))
def test_hnf_is_canonical_under_row_scrambling(m):
    h1, _ = hermite_form(m)
    rows = m.to_rows()
    random.Random(7).shuffle(rows)
    rows.append([0] * m.cols)
    h2, _ = hermite_form(IntMatrix.from_rows(rows))
    nz1 = [r for r in h1.to_rows() if any(r)]
    nz2 = [r for r in h2.to_rows() if any(r)]
    assert nz1 == nz2


# -- matrix plumbing ---------------------------------------------------------------


def test_int_matrix_rejects_floats_and_mutation():
    with pytest.raises(TypeError):
        IntMatrix(1, 1, [1.5])
    m = IntMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3


def test_matmul_shape_check():
    a = IntMatrix.identity(2)
    b = IntMatrix.zeros(3, 2)
    with pytest.raises(ValueError):
        a @ b


def test_a_fraction_is_taken_as_it_is_and_a_float_still_raises():
    q = Fraction(-7, 3)
    assert _as_fraction(q) is q
    assert _as_fraction(5) == Fraction(5) and _as_fraction("-7/3") == q
    with pytest.raises(TypeError, match="floating point value 0.5"):
        _as_fraction(0.5)
