"""``closed_forms._charpoly`` against two routes that share nothing with it.

The first is ``det(x - z)`` itself: a determinant by ``Fraction`` elimination
at the ``d + 1`` points ``x = 0 … d``, and the one polynomial of degree
``d`` through them by Lagrange interpolation. The second is the integer
Faddeev--LeVerrier loop that ``rational_c`` ran before power sums replaced
it: ``d`` full matrix products, each coefficient ``a_k = -tr(z m_k) / k``.
"""

from fractions import Fraction

from hypothesis import given, seed, settings, strategies as st

from entropy_lab.closed_forms import _charpoly

# -- the references -------------------------------------------------------------


def _faddeev_leverrier(z: list[list[int]]) -> list[int]:
    # det(x - z) = x^d + a_1 x^(d-1) + ... + a_d, with a_k = -tr(z m_k) / k exact for m_1 = 1,
    # m_(k+1) = z m_k + a_k
    d = len(z)
    coeffs, m = [1], [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        zm = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in z]
        a = -sum(zm[i][i] for i in range(d)) // k
        coeffs.append(a)
        m = [[e + a * (i == j) for j, e in enumerate(row)] for i, row in enumerate(zm)]
    return coeffs


def _det(rows: list[list[Fraction]]) -> Fraction:
    rows, det = [list(row) for row in rows], Fraction(1)
    for i in range(len(rows)):
        p = next((r for r in range(i, len(rows)) if rows[r][i]), None)
        if p is None:
            return Fraction(0)
        if p != i:
            rows[i], rows[p], det = rows[p], rows[i], -det
        det *= rows[i][i]
        for r in range(i + 1, len(rows)):
            if rows[r][i]:
                f = rows[r][i] / rows[i][i]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    return det


def _interpolated(z: list[list[int]]) -> list[Fraction]:
    """The coefficients of ``det(x - z)``, highest degree first, through its values at ``x = 0 … d``."""
    d = len(z)
    points = range(d + 1)
    values = [_det([[Fraction(x * (i == j) - e) for j, e in enumerate(row)] for i, row in enumerate(z)]) for x in points]
    coeffs = [Fraction(0)] * (d + 1)  # lowest degree first
    for x, value in zip(points, values):
        basis, denom = [Fraction(1)], 1  # prod over the other points y of (t - y), lowest degree first
        for y in points:
            if y != x:
                basis = [(basis[k - 1] if k else 0) - y * (basis[k] if k < len(basis) else 0) for k in range(len(basis) + 1)]
                denom *= x - y
        for k, b in enumerate(basis):
            coeffs[k] += value * b / denom
    return coeffs[::-1]


def _check(z: list[list[int]]) -> list[int]:
    coeffs = _charpoly(z)
    assert coeffs == _faddeev_leverrier(z) == _interpolated(z)
    assert all(type(a) is int for a in coeffs)
    return coeffs


# -- the tests -------------------------------------------------------------------


@st.composite
def square_matrices(draw):
    d = draw(st.integers(0, 8))
    return [draw(st.lists(st.integers(-50, 50), min_size=d, max_size=d)) for _ in range(d)]


@seed(20261035)
@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_the_characteristic_polynomial_equals_the_determinant_and_faddeev_leverrier(z):
    _check(z)


def test_the_characteristic_polynomial_of_the_empty_matrix_is_one():
    assert _check([]) == [1]


def test_a_scalar_matrix_has_a_binomial_characteristic_polynomial():
    # det(x - 3) over Q^4 is (x - 3)^4
    assert _check([[3 * (i == j) for j in range(4)] for i in range(4)]) == [1, -12, 54, -108, 81]


def test_a_nilpotent_matrix_has_characteristic_polynomial_x_to_the_d():
    z = [[(j - i) * (j > i) for j in range(6)] for i in range(6)]
    assert _check(z) == [1, 0, 0, 0, 0, 0, 0]


def test_a_singular_matrix_has_no_constant_term():
    # the third row is the sum of the first two: x (x^2 - 15 x - 6)
    assert _check([[1, 2, 3], [4, 5, 6], [5, 7, 9]]) == [1, -15, -6, 0]


def test_the_rank_40_cycle_cleared_of_its_denominator():
    # 2 (e_i -> e_(i+1), e_39 -> e_0/2): det(x - z) = x^40 - 2^40 / 2
    d = 40
    z = [[2 * (i == j + 1) + ((i, j) == (0, d - 1)) for j in range(d)] for i in range(d)]
    assert _check(z) == [1] + [0] * (d - 1) + [-(2**39)]
