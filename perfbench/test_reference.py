"""Hand-worked cases for the benchmark's reference checks.

    python3 -m pytest perfbench/test_reference.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402


@pytest.mark.parametrize("m", [2, 3, 6, 10])
def test_right_shift_index_is_m_to_the_n_minus_1(m):
    got = reference.torsion_indices_wrt(m, [(1, 1)], 1, [{0: 1}], 8)
    assert got == [m ** (n - 1) for n in range(1, 9)]


def test_shift_square_counterexample_indices():
    # the square of the shift: H = <e0> grows by 2 a step, Hp = <e0, e1> by 4
    assert reference.torsion_indices_wrt(2, [(1, 1)], 2, [{0: 1}], 8) == [2 ** (n - 1) for n in range(1, 9)]
    assert reference.torsion_indices_wrt(2, [(1, 1)], 2, [{0: 1}, {1: 1}], 8) == [
        2 ** (2 * n - 2) for n in range(1, 9)
    ]


def test_trajectory_stride_matches_power():
    # T_(1 + k(n-1))(shift, <e0>) / <e0> has index m^(k(n-1))
    assert reference.torsion_indices(5, [(1, 1)], [{0: 1}], 3, 1, 5) == [5 ** (3 * i) for i in range(5)]


def test_stencil_mod_6_splits_over_2_and_3():
    # f = 1 + x + x^2 on the trajectory of e0: rank grows by one a step mod 2 and mod 3
    got = reference.torsion_indices_wrt(6, [(0, 1), (1, 1), (2, 1)], 1, [{0: 1}], 6)
    assert got == [6 ** (n - 1) for n in range(1, 7)]
    # 3 * (1 + x) kills everything mod 3: only the mod-2 part grows
    got = reference.torsion_indices_wrt(6, [(0, 3), (1, 3)], 1, [{0: 1}], 6)
    assert got == [2 ** (n - 1) for n in range(1, 7)]


def test_fp_span_rank():
    span = reference.FpSpan(3)
    for v in ({0: 1, 1: 2}, {0: 2, 1: 1}, {1: 1}, {0: 1}):
        span.absorb(v)
    assert span.rank == 2


def test_prime_factors_rejects_non_squarefree():
    assert reference.prime_factors(30) == [2, 3, 5]
    with pytest.raises(ValueError):
        reference.prime_factors(12)


def test_seven_halves_gives_two_to_the_n_minus_1():
    got = reference.rank1_indices(Fraction(7, 2), Fraction(1), 1, 1, 8)
    assert got == [2 ** (n - 1) for n in range(1, 9)]


def test_integer_ratio_saturates():
    assert reference.rank1_indices(Fraction(5), Fraction(3), 1, 1, 4) == [1, 1, 1, 1]


def test_companion_leading_coefficient():
    # 4x^3 + 5x^2 - 12x - 2, seeded at e0, gives 4
    coeffs = [-2, -12, 5, 4]
    matrix = [[Fraction(e) for e in row] for row in gen._companion(coeffs)]
    assert reference.minimal_polynomial(matrix, [Fraction(1), Fraction(0), Fraction(0)]) == coeffs
    assert reference.rational_entropy_base(matrix, [Fraction(1), Fraction(0), Fraction(0)]) == 4


def test_minimal_polynomial_of_a_non_cyclic_seed():
    # diag(2, 2): e0 has minimal polynomial x - 2
    matrix = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert reference.minimal_polynomial(matrix, [Fraction(1), Fraction(0)]) == [-2, 1]


def _entropy_report(indices, c):
    table = [
        {"n": i + 1, "index": str(x), "increment": str(indices[i + 1] // x) if i + 1 < len(indices) else None}
        for i, x in enumerate(indices)
    ]
    result = {"table": table, "saturated_at": None, "entropy": {"kind": "exact", "c": str(c), "log": "0"}}
    return {"scenario": "s", "tasks": [{"task": 0, "op": "entropy", "result": result, "verdict": None, "error": None}], "all_ok": True}


_SHIFT_MOD_3 = {
    "ambient": {"kind": "torsion_sum", "modulus": 3},
    "endomorphism": {"kind": "right_shift"},
    "subgroups": {"H": [{"0": 1}]},
    "tasks": [{"op": "entropy", "subgroup": "H", "max_n": 6}],
}


def test_check_report_accepts_a_right_report():
    assert reference.check_report(_SHIFT_MOD_3, _entropy_report([3**i for i in range(6)], 3)) == ([], [])


def test_check_report_flags_a_wrong_index_and_verdict():
    _, errors = reference.check_report(_SHIFT_MOD_3, _entropy_report([1, 3, 9, 27, 81, 81 * 9], 9))
    assert any("index at n=6" in e for e in errors)
    assert any("c=9, reference 3" in e for e in errors)


def test_check_report_flags_a_broken_chain():
    report = _entropy_report([3**i for i in range(6)], 3)
    report["tasks"][0]["result"]["table"][2]["increment"] = "2"
    _, errors = reference.check_report(_SHIFT_MOD_3, report)
    assert any("indices[4] != indices[3] * increments[3]" in e for e in errors)


def test_check_report_separates_task_errors():
    report = {"scenario": "s", "tasks": [{"task": 0, "op": "entropy", "result": None, "verdict": None, "error": "NotInertError: x"}], "all_ok": False}
    failures, errors = reference.check_report(_SHIFT_MOD_3, report)
    assert failures and not errors


def test_generator_is_deterministic():
    for workload in gen.WORKLOADS:
        a = [c.text for c in gen.generate(workload, 7)]
        b = [c.text for c in gen.generate(workload, 7)]
        assert a == b
        assert a != [c.text for c in gen.generate(workload, 8)]
        for text in a:
            json.loads(text)


def test_reference_agrees_with_engine_on_3_tap_mod_6():
    sys.path.insert(0, str(HERE.parent / "src"))
    from entropy_lab import cli

    doc = {
        "ambient": {"kind": "torsion_sum", "modulus": 6},
        "endomorphism": {"kind": "stencil", "taps": [{"offset": i, "coeff": 1} for i in range(3)]},
        "subgroups": {"H": [{"0": 1}]},
        "tasks": [{"op": "entropy", "subgroup": "H", "max_n": 20}, {"op": "entropy_on_trajectory", "subgroup": "H", "max_n": 20}],
    }
    report = json.loads(cli.render(cli.run(cli.parse_scenario(json.dumps(doc))), "json"))
    assert reference.check_report(doc, report) == ([], [])
