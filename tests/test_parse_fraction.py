"""``cli._parse_fraction`` against the two-regex parse it replaced.

The reference below looks for exponent notation, then matches the whole
string, then hands it to ``Fraction``'s own parser. The parse under test
matches once against one compiled pattern and builds the ``Fraction`` from
two ints. Each must give the same value, or the same ``ScenarioError`` text.
"""

import re
from fractions import Fraction

import pytest

from entropy_lab.cli import _fail, _parse_fraction
from entropy_lab.errors import ScenarioError


def _two_regex_fraction(value, path: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        _fail(path, "expected an exact value: integer or string like \"3/2\"")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if re.search(r"[0-9][eE]", value):
            _fail(path, "exponent notation is not allowed; write an integer or a string like \"3/2\"")
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
            _fail(path, f"not a rational number: Invalid literal for Fraction: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            _fail(path, f"not a rational number: {e}")
    _fail(path, f"expected an integer or string, got {type(value).__name__}")


def _outcome(parse, value):
    try:
        return parse(value, "endomorphism.entries[0][0]")
    except ScenarioError as e:
        return f"ScenarioError: {e}"


# 5,000 digits: past the interpreter's 4,300-digit limit, where int() raises
BIG = "7" * 5000

VALUES = [
    "+3/6", "-0", "0/7", "1/0", "-4/0", "+5/0", "3/-2", "1e4", "1.5e3", "1E4", "", "/", "3/", "1_000",
    " 3/2 ", "3/2\n", "١٢", "³", BIG, f"1/{BIG}", f"{BIG}/{BIG}", f"-{BIG}", "12/18", "-7",
    0, -3, 10**40, 1.5, 2.0, True, False, None, [1],
]  # fmt: skip


@pytest.mark.parametrize("value", VALUES, ids=[repr(v)[:16] for v in VALUES])
def test_the_parse_gives_the_value_or_the_message_of_the_two_regex_parse(value):
    new, old = _outcome(_parse_fraction, value), _outcome(_two_regex_fraction, value)
    assert type(new) is type(old) and new == old
