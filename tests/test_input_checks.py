"""Each public input check raises its own exception type with its own message.

One row per check that no other test reaches: the call, the exception type
and the exact message.
"""

import re

import pytest

from entropy_lab import (
    ExactLog,
    Rational,
    StencilEndo,
    TorsionSum,
    contains,
    growth_trace,
    is_subgroup_of,
    log_law_report,
    quotient_index,
    right_shift,
    subgroup,
    subgroup_sum,
    trajectory_entropy,
    trajectory_identity_check,
    trajectory_invariance_report,
)
from entropy_lab.errors import AmbientMismatchError, ContainmentError, EnumerationCapError
from entropy_lab.oracle import ElementSet, adjoin, enumerate_subgroup, index_by_enumeration

Z2, Z3, Z4, Q2 = TorsionSum(2), TorsionSum(3), TorsionSum(4), Rational(2)
SHIFT = right_shift(Z2)
H2 = subgroup(Z2, [Z2.basis_element(0)])
H3 = subgroup(Z3, [Z3.basis_element(0)])
H4 = subgroup(Z4, [Z4.basis_element(0)])
MISMATCH = f"{Z2!r} vs {Z3!r}"


def _not_a_subgroup():
    """``H4``'s four elements and ``e_1``: five elements, which no subgroup of ``Z/4`` holding ``H4`` has."""
    extra = enumerate_subgroup(subgroup(Z4, [Z4.basis_element(1)])).packed - {0}
    return ElementSet(Z4, enumerate_subgroup(H4).packed | {min(extra)}, False)


CHECKS = [
    ("scale", lambda: ExactLog(2).scale(-1), ValueError, "scale factor must be >= 0"),
    ("growth-max-n", lambda: growth_trace(SHIFT, H2, 0), ValueError, "max_n must be >= 1"),
    ("trajectory-entropy-k", lambda: trajectory_entropy(SHIFT, 0, H2), ValueError, "k must be >= 1"),
    ("identity-k", lambda: trajectory_identity_check(SHIFT, 0, 1, H2, 1), ValueError, "k, m, n must all be >= 1"),
    ("invariance-k", lambda: trajectory_invariance_report(SHIFT, H2, 0), ValueError, "trajectory length must be >= 1"),
    ("log-law-k", lambda: log_law_report(SHIFT, 0, H2), ValueError, "k must be >= 1"),
    ("rational-element", lambda: Q2.element([1]), ValueError, "expected 2 coordinates, got 1"),
    ("rational-basis", lambda: Q2.basis_element(2), ValueError, "coordinate 2 out of range for rank 2"),
    ("torsion-basis", lambda: Z2.basis_element(-1), ValueError, "coordinate index must be >= 0"),
    ("subgroup-generator", lambda: subgroup(Z2, [1]), TypeError, "expected Element, got int"),
    ("sum", lambda: subgroup_sum(H2, H3), AmbientMismatchError, MISMATCH),
    ("contains", lambda: contains(H2, Z3.basis_element(0)), AmbientMismatchError, MISMATCH),
    ("is-subgroup-of", lambda: is_subgroup_of(H2, H3), AmbientMismatchError, MISMATCH),
    ("quotient-index", lambda: quotient_index(H2, H3), AmbientMismatchError, MISMATCH),
    ("apply-once", lambda: StencilEndo(Z2, [(1, 1)]).apply_once(Z3.basis_element(0)), AmbientMismatchError,
     f"{Z3!r} vs {Z2!r}"),
    ("adjoin-cap", lambda: adjoin(enumerate_subgroup(H2), [], cap=0), ValueError, "cap must be >= 1"),
    ("capped-h", lambda: index_by_enumeration(enumerate_subgroup(H4), H4, cap=2), EnumerationCapError,
     "closure of h exceeded cap 2"),
    ("not-a-subgroup", lambda: index_by_enumeration(_not_a_subgroup(), H4), ContainmentError,
     "|H| does not divide |K|"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_an_input_check_raises_its_type_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
