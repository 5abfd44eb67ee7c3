import json
import pathlib
import re
import subprocess
import sys
from decimal import Decimal

import pytest

from entropy_lab import (
    EntropyOptions,
    MatrixEndo,
    Rational,
    TorsionSum,
    cli,
    trajectory_entropy,
)
from entropy_lab.cli import (
    builtin_scenario,
    main,
    parse_scenario,
    render,
    run,
)
from entropy_lab.errors import ScenarioError
from entropy_lab.linalg import Cardinality


MINIMAL = {
    "ambient": {"kind": "torsion_sum", "modulus": 2},
    "endomorphism": {"kind": "right_shift"},
    "subgroups": {"H": [{"0": 1}]},
    "tasks": [],
}


def scenario_text(**overrides):
    doc = {**MINIMAL, **overrides}
    return json.dumps(doc)


def strip_timing(text: str) -> str:
    return re.sub(r'"elapsed_ms":[0-9.]+', '"elapsed_ms":0', text)


# -- parsing ---------------------------------------------------------------


def test_parse_minimal_scenario():
    sc = parse_scenario(scenario_text())
    assert sc.ambient == TorsionSum(2)
    assert set(sc.subgroups) == {"H"}
    assert sc.tasks == ()


def test_parse_malformed_json_names_root():
    with pytest.raises(ScenarioError, match=r"^\$: invalid JSON"):
        parse_scenario("{nope")


def test_parse_unknown_ambient_kind():
    with pytest.raises(ScenarioError, match=r"ambient\.kind"):
        parse_scenario(scenario_text(ambient={"kind": "ring", "modulus": 2}))


def test_parse_unknown_endo_kind():
    with pytest.raises(ScenarioError, match=r"endomorphism\.kind"):
        parse_scenario(scenario_text(endomorphism={"kind": "twist"}))


def test_parse_undeclared_subgroup_name():
    with pytest.raises(ScenarioError, match=r"tasks\[0\]\.subgroup"):
        parse_scenario(scenario_text(tasks=[{"op": "growth", "subgroup": "nope"}]))


def test_parse_option_out_of_range():
    with pytest.raises(ScenarioError, match=r"tasks\[0\]\.k"):
        parse_scenario(scenario_text(tasks=[{"op": "entropy", "subgroup": "H", "k": 65}]))
    with pytest.raises(ScenarioError, match=r"options\.max_n"):
        parse_scenario(scenario_text(options={"max_n": 0}))


def test_parse_duplicate_stencil_offsets_names_tap_path():
    bad = {
        "kind": "stencil",
        "taps": [{"offset": 1, "coeff": 1}, {"offset": 1, "coeff": 1}],
    }
    with pytest.raises(ScenarioError, match=r"endomorphism\.taps\[1\]\.offset"):
        parse_scenario(scenario_text(endomorphism=bad))


@pytest.mark.parametrize(
    "taps, message",
    [
        ([{"offset": 1, "coeff": 1}, {"offset": 1, "coeff": 1}], "endomorphism.taps[1].offset: duplicate offset 1"),
        ([{"offset": 0, "coeff": 1}, {"offset": 2, "coeff": 4}], "endomorphism.taps[1].coeff: coefficient is zero mod 2"),
        ([], "endomorphism.taps: a stencil needs at least one tap"),
    ],
    ids=["duplicate-offset", "zero-coeff", "no-taps"],
)
def test_parse_stencil_tap_rules_name_the_tap(taps, message):
    # StencilEndo owns the rules; the parser only puts the document path in front
    with pytest.raises(ScenarioError) as err:
        parse_scenario(scenario_text(endomorphism={"kind": "stencil", "taps": taps}))
    assert str(err.value) == message


def test_parse_rejects_float_entries():
    doc = {
        "ambient": {"kind": "rational", "rank": 1},
        "endomorphism": {"kind": "matrix", "entries": [[1.5]]},
        "subgroups": {},
        "tasks": [],
    }
    with pytest.raises(ScenarioError, match=r"entries\[0\]\[0\]"):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_exponent_notation():
    doc = {
        "ambient": {"kind": "rational", "rank": 1},
        "endomorphism": {"kind": "matrix", "entries": [["1e4000000"]]},
        "subgroups": {},
        "tasks": [],
    }
    with pytest.raises(ScenarioError, match=r"^endomorphism\.entries\[0\]\[0\]: exponent notation"):
        parse_scenario(json.dumps(doc))
    doc["endomorphism"]["entries"] = [["3/2"]]
    doc["subgroups"] = {"H": [["2E3"]]}
    with pytest.raises(ScenarioError, match=r"^subgroups\.H\[0\]\[0\]: exponent notation"):
        parse_scenario(json.dumps(doc))
    with pytest.raises(ScenarioError, match=r"^ratio: exponent notation"):
        builtin_scenario("rational-mult", ["1e4000000", "2"])


def test_parse_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(scenario_text(extra=1))
    with pytest.raises(ScenarioError, match=r"tasks\[0\]"):
        parse_scenario(scenario_text(tasks=[{"op": "growth", "subgroup": "H", "bogus": 2}]))


def test_parse_matrix_shape_mismatch():
    doc = {
        "ambient": {"kind": "rational", "rank": 2},
        "endomorphism": {"kind": "matrix", "entries": [["1", "0"]]},
        "subgroups": {},
        "tasks": [],
    }
    with pytest.raises(ScenarioError, match=r"endomorphism\.entries"):
        parse_scenario(json.dumps(doc))


def test_parse_wrong_coordinate_count():
    doc = {
        "ambient": {"kind": "rational", "rank": 2},
        "endomorphism": {"kind": "matrix", "entries": [["1", "0"], ["0", "1"]]},
        "subgroups": {"S": [["1"]]},
        "tasks": [],
    }
    with pytest.raises(ScenarioError, match=r"subgroups\.S\[0\]"):
        parse_scenario(json.dumps(doc))


@pytest.mark.parametrize(
    "key",
    ["\u00b2", "\u0663", "00", "007", "1" * 5000],
    ids=["superscript-two", "arabic-indic-three", "double-zero", "leading-zeros", "5000-digits"],
)
def test_parse_rejects_non_ascii_digit_keys(key, tmp_path, capsys):
    # all pass str.isdigit; int() rejects the first and reads the next three as 3,
    # 0 and 7, so {"0": 1, "00": 1} mod 2 would silently be the zero subgroup;
    # the last is past the interpreter's 4300-digit limit, where int() raises
    text = scenario_text(subgroups={"H": [{key: 1}]})
    with pytest.raises(ScenarioError, match=r"^subgroups\.H\[0\]: coordinate key"):
        parse_scenario(text)
    p = tmp_path / "key.json"
    p.write_text(text)
    assert main(["run", str(p)]) == 2
    assert "subgroups.H[0]" in capsys.readouterr().err


def test_parse_accepts_coordinate_key_at_its_bound():
    sc = parse_scenario(scenario_text(subgroups={"H": [{"10000": 1}]}))
    assert sc.subgroups["H"].generators() == [TorsionSum(2).basis_element(10000)]


@pytest.mark.parametrize(
    "key, message",
    [("10001", "must be in [0, 10000], got 10001"), ("300000000", "of 9 digits is past 10000")],
)
def test_parse_rejects_coordinate_key_past_its_bound(key, message, tmp_path, capsys):
    # the accumulator spans a generator's support, so {"0": 1, "300000000": 1}
    # would ask for a list of 3e8 entries
    text = scenario_text(subgroups={"H": [{"0": 1, key: 1}]})
    with pytest.raises(ScenarioError, match=r"^subgroups\.H\[0\]: coordinate key " + re.escape(message) + "$"):
        parse_scenario(text)
    p = tmp_path / "key.json"
    p.write_text(text)
    assert main(["run", str(p)]) == 2
    assert "subgroups.H[0]" in capsys.readouterr().err


def _two_tap_stencil_text(offset: int) -> str:
    taps = [{"offset": 0, "coeff": 1}, {"offset": offset, "coeff": 1}]
    tasks = [{"op": "entropy", "subgroup": "H", "max_n": 2}]
    return scenario_text(endomorphism={"kind": "stencil", "taps": taps}, tasks=tasks)


@pytest.mark.parametrize("offset", [10**30, 10001, -10001])
def test_parse_rejects_stencil_offset_past_its_bound(offset, tmp_path, capsys):
    # the accumulator spans each generator's support, so an offset of 10**30
    # overflowed a list length and one of 10**7 cost 169 MB at max_n=2
    text = _two_tap_stencil_text(offset)
    message = f"offset must be in [-10000, 10000], got {offset}"
    with pytest.raises(ScenarioError, match=r"^endomorphism\.taps\[1\]\.offset: " + re.escape(message) + "$"):
        parse_scenario(text)
    p = tmp_path / "offset.json"
    p.write_text(text)
    assert main(["run", str(p)]) == 2
    assert "endomorphism.taps[1].offset" in capsys.readouterr().err


@pytest.mark.parametrize("offset", [10000, -10000])
def test_parse_accepts_stencil_offset_at_its_bound(offset):
    report = run(parse_scenario(_two_tap_stencil_text(offset)))
    assert report.all_ok


RATIONAL = {
    "ambient": {"kind": "rational", "rank": 1},
    "endomorphism": {"kind": "matrix", "entries": [["3/2"]]},
    "subgroups": {},
    "tasks": [],
}


def _rational_text(**overrides):
    return json.dumps({**RATIONAL, **overrides})


def _without(key):
    return json.dumps({k: v for k, v in MINIMAL.items() if k != key})


def _stencil_text(*taps):
    return scenario_text(endomorphism={"kind": "stencil", "taps": list(taps)})


# (id, scenario text or builtin (name, args), the exact message of the rule it breaks)
VALIDATION_MESSAGES = [
    ("root-not-object", "[]", "$: expected an object, got list"),
    ("ambient-not-object", scenario_text(ambient=3), "ambient: expected an object, got int"),
    ("subgroups-not-object", scenario_text(subgroups=[]), "subgroups: expected an object, got list"),
    ("tap-not-object", _stencil_text(1), "endomorphism.taps[0]: expected an object, got int"),
    ("task-not-object", scenario_text(tasks=["growth"]), "tasks[0]: expected an object, got str"),
    ("options-not-object", scenario_text(options=[]), "options: expected an object, got list"),
    ("tasks-not-array", scenario_text(tasks={}), "tasks: expected an array, got dict"),
    ("generators-not-array", scenario_text(subgroups={"H": {"0": 1}}), "subgroups.H: expected an array, got dict"),
    ("entries-not-array", _rational_text(endomorphism={"kind": "matrix", "entries": "3/2"}),
     "endomorphism.entries: expected an array, got str"),
    ("entries-row-not-array", _rational_text(endomorphism={"kind": "matrix", "entries": ["3/2"]}),
     "endomorphism.entries[0]: expected an array, got str"),
    ("name-not-string", scenario_text(name=5), "name: expected a string, got int"),
    ("ambient-kind-not-string", scenario_text(ambient={"kind": 2, "modulus": 2}),
     "ambient.kind: expected a string, got int"),
    ("endo-kind-not-string", scenario_text(endomorphism={"kind": None}),
     "endomorphism.kind: expected a string, got NoneType"),
    ("op-not-string", scenario_text(tasks=[{"op": 1}]), "tasks[0].op: expected a string, got int"),
    ("subgroup-not-string", scenario_text(tasks=[{"op": "growth", "subgroup": ["H"]}]),
     "tasks[0].subgroup: expected a string, got list"),
    ("modulus-not-integer", scenario_text(ambient={"kind": "torsion_sum", "modulus": "2"}),
     "ambient.modulus: expected an integer, got str"),
    ("modulus-true", scenario_text(ambient={"kind": "torsion_sum", "modulus": True}),
     "ambient.modulus: expected an integer, got bool"),
    ("rank-true", _rational_text(ambient={"kind": "rational", "rank": True}),
     "ambient.rank: expected an integer, got bool"),
    ("coeff-true", _stencil_text({"offset": 0, "coeff": True}),
     "endomorphism.taps[0].coeff: expected an integer, got bool"),
    ("offset-float", _stencil_text({"offset": 0.5, "coeff": 1}),
     "endomorphism.taps[0].offset: expected an integer, got float"),
    ("residue-true", scenario_text(subgroups={"H": [{"0": True}]}), "subgroups.H[0].0: expected an integer, got bool"),
    ("k-true", scenario_text(tasks=[{"op": "growth", "subgroup": "H", "k": True}]),
     "tasks[0].k: expected an integer, got bool"),
    ("max-n-string", scenario_text(options={"max_n": "8"}), "options.max_n: expected an integer, got str"),
    ("missing-ambient", _without("ambient"), "$: missing key: ambient"),
    ("missing-endomorphism", _without("endomorphism"), "$: missing key: endomorphism"),
    ("missing-subgroups", _without("subgroups"), "$: missing key: subgroups"),
    ("missing-tasks", _without("tasks"), "$: missing key: tasks"),
    ("missing-ambient-kind", scenario_text(ambient={"modulus": 2}), "ambient: missing key: kind"),
    ("missing-modulus", scenario_text(ambient={"kind": "torsion_sum"}), "ambient: missing key: modulus"),
    ("missing-rank", _rational_text(ambient={"kind": "rational"}), "ambient: missing key: rank"),
    ("missing-endo-kind", scenario_text(endomorphism={}), "endomorphism: missing key: kind"),
    ("missing-entries", _rational_text(endomorphism={"kind": "matrix"}), "endomorphism: missing key: entries"),
    ("missing-taps", scenario_text(endomorphism={"kind": "stencil"}), "endomorphism: missing key: taps"),
    ("missing-tap-offset", _stencil_text({"coeff": 1}), "endomorphism.taps[0]: missing key: offset"),
    ("missing-tap-coeff", _stencil_text({"offset": 0}), "endomorphism.taps[0]: missing key: coeff"),
    ("missing-op", scenario_text(tasks=[{"subgroup": "H"}]), "tasks[0]: missing key: op"),
    ("missing-task-subgroup", scenario_text(tasks=[{"op": "growth"}]), "tasks[0]: op 'growth' requires key: subgroup"),
    ("missing-task-k", scenario_text(tasks=[{"op": "log_law", "subgroup": "H"}]),
     "tasks[0]: op 'log_law' requires key: k"),
    ("missing-task-m", scenario_text(tasks=[{"op": "trajectory_identity", "subgroup": "H", "k": 2, "n": 4}]),
     "tasks[0]: op 'trajectory_identity' requires key: m"),
    ("missing-task-n", scenario_text(tasks=[{"op": "trajectory_identity", "subgroup": "H", "k": 2, "m": 1}]),
     "tasks[0]: op 'trajectory_identity' requires key: n"),
    ("rank-zero", _rational_text(ambient={"kind": "rational", "rank": 0}), "ambient.rank: rank must be >= 1, got 0"),
    ("modulus-one", scenario_text(ambient={"kind": "torsion_sum", "modulus": 1}),
     "ambient.modulus: modulus must be >= 2, got 1"),
    ("unknown-ambient-kind", scenario_text(ambient={"kind": "ring"}),
     "ambient.kind: unknown ambient kind 'ring'; expected rational or torsion_sum"),
    ("matrix-on-torsion", scenario_text(endomorphism={"kind": "matrix", "entries": [["1"]]}),
     "endomorphism.kind: matrix endomorphisms require a rational ambient"),
    ("shift-on-rational", _rational_text(endomorphism={"kind": "left_shift"}),
     "endomorphism.kind: left_shift requires a torsion_sum ambient"),
    ("stencil-on-rational", _rational_text(endomorphism={"kind": "stencil", "taps": []}),
     "endomorphism.kind: stencil endomorphisms require a torsion_sum ambient"),
    ("builtin-paper-example-args", ("paper-example", ["x"]), "paper-example takes no arguments"),
    ("builtin-bernoulli-usage", ("bernoulli", ["3"]), "usage: bernoulli <modulus> <k>"),
    ("builtin-rational-mult-usage", ("rational-mult", ["3/2", "2", "1"]), "usage: rational-mult <p>/<q> <k>"),
    ("builtin-bernoulli-modulus", ("bernoulli", ["x", "2"]),
     "bernoulli arguments must be integers: invalid literal for int() with base 10: 'x'"),
    ("builtin-bernoulli-k", ("bernoulli", ["3", "2.5"]),
     "bernoulli arguments must be integers: invalid literal for int() with base 10: '2.5'"),
    ("builtin-bernoulli-modulus-one", ("bernoulli", ["1", "2"]), "ambient.modulus: modulus must be >= 2, got 1"),
    ("builtin-ratio", ("rational-mult", ["3/0", "2"]), "ratio: not a rational number: Fraction(3, 0)"),
    ("builtin-rational-mult-k", ("rational-mult", ["3/2", "two"]),
     "k must be an integer: invalid literal for int() with base 10: 'two'"),
    ("builtin-rational-mult-k-range", ("rational-mult", ["3/2", "65"]), "tasks[0].k: k must be in [1, 64], got 65"),
    ("builtin-unknown", ("no-such", []), "unknown builtin 'no-such'; see list-builtins"),
]


@pytest.mark.parametrize(
    "given, message", [pytest.param(given, message, id=name) for name, given, message in VALIDATION_MESSAGES]
)
def test_each_validation_rule_gives_its_exact_message(given, message):
    with pytest.raises(ScenarioError) as err:
        builtin_scenario(*given) if isinstance(given, tuple) else parse_scenario(given)
    assert str(err.value) == message


def test_empty_tasks_gives_empty_report():
    sc = parse_scenario(scenario_text())
    report = run(sc)
    assert report.tasks == []
    assert report.all_ok
    out = render(report, "json")
    assert '"tasks":[]' in out
    assert render(report, "table").startswith("scenario:")


# -- builtins ---------------------------------------------------------------


def test_builtin_paper_example_structure():
    sc = builtin_scenario("paper-example", [])
    assert sc.ambient == TorsionSum(2)
    assert set(sc.subgroups) == {"H", "Hp"}
    assert [t.op for t in sc.tasks] == ["growth", "growth", "entropy", "entropy", "counterexample"]


def test_builtin_argument_validation():
    with pytest.raises(ScenarioError):
        builtin_scenario("paper-example", ["extra"])
    with pytest.raises(ScenarioError):
        builtin_scenario("bernoulli", ["1", "2"])
    with pytest.raises(ScenarioError):
        builtin_scenario("bernoulli", ["x", "2"])
    with pytest.raises(ScenarioError):
        builtin_scenario("rational-mult", ["3/0", "2"])
    with pytest.raises(ScenarioError):
        builtin_scenario("rational-mult", ["3/2", "65"])
    with pytest.raises(ScenarioError):
        builtin_scenario("no-such", [])


def test_builtin_bernoulli_runs_green():
    report = run(builtin_scenario("bernoulli", ["5", "3"]))
    assert report.all_ok
    task = report.tasks[0]
    assert task["result"]["entropy_base"] == {"kind": "exact", "c": "5", "log": "1.609437912434", "certified_by": "closed_form"}
    assert task["result"]["entropy_power"]["c"] == "125"
    assert task["verdict"] is True


def test_builtin_rational_mult_runs_green():
    report = run(builtin_scenario("rational-mult", ["5/3", "2"]))
    task = report.tasks[0]
    assert task["result"]["entropy_base"]["c"] == "3"
    assert task["result"]["entropy_power"]["c"] == "9"
    assert task["verdict"] is True


def _map_fields(endo):
    """A map's class and what it is kept as: a stencil's taps, a matrix's integer rows over one denominator."""
    if isinstance(endo, MatrixEndo):
        return type(endo), endo.numerators, endo.den
    return type(endo), endo.taps


def test_builtin_files_match_builtin_dicts():
    # each committed scenario file defines its builtin's computation, field by field
    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    for stem, name, args in [
        ("paper-example", "paper-example", []),
        ("bernoulli-3-2", "bernoulli", ["3", "2"]),
        ("rational-mult-3-2-2", "rational-mult", ["3/2", "2"]),
    ]:
        from_file = parse_scenario((root / f"{stem}.json").read_text())
        builtin = builtin_scenario(name, args)
        assert from_file.name == builtin.name == stem
        assert from_file.ambient == builtin.ambient
        assert _map_fields(from_file.endo) == _map_fields(builtin.endo)
        assert from_file.subgroups == builtin.subgroups
        assert from_file.tasks == builtin.tasks
        assert from_file.options == builtin.options


# -- run/render semantics ----------------------------------------------------


def test_paper_example_report_values():
    report = run(builtin_scenario("paper-example", []))
    assert report.all_ok
    growth_h, growth_hp, ent_h, ent_hp, cx = report.tasks
    assert [row["index"] for row in growth_h["result"]["table"]] == [
        str(2 ** (n - 1)) for n in range(1, 9)
    ]
    assert [row["index"] for row in growth_hp["result"]["table"]] == [
        str(2 ** (2 * n - 2)) for n in range(1, 9)
    ]
    assert growth_hp["result"]["table"][2]["index"] == "16"
    assert ent_h["result"]["entropy"] == {"kind": "exact", "c": "2", "log": "0.693147180560", "certified_by": "closed_form"}
    assert ent_hp["result"]["entropy"]["c"] == "4"
    assert cx["verdict"] is True
    assert cx["result"]["distinct"] is True
    assert cx["result"]["entropy_h"]["c"] == "2"
    assert cx["result"]["entropy_hp"]["c"] == "4"


def test_json_rendering_is_exact_and_round_trippable():
    report = run(builtin_scenario("paper-example", []))
    text = render(report, "json")
    assert '"index":"16"' in text
    # indices beyond 2^64 stay exact decimal strings
    assert '"index":"18446744073709551616"' in text
    doc = json.loads(text)
    assert doc["all_ok"] is True
    assert doc["tasks"][0]["op"] == "growth"
    # decimal log agrees with log of the exact integer to 1e-12
    import math

    for task in doc["tasks"]:
        result = task["result"] or {}
        ent = result.get("entropy")
        if ent and ent["kind"] == "exact":
            assert abs(float(ent["log"]) - math.log(int(ent["c"]))) < 1e-12


def test_an_index_past_the_interpreters_digit_limit_is_written_in_full(tmp_path, capsys):
    # 6^5599 has 4357 digits; str() refuses ints of more than 4300
    text = scenario_text(
        ambient={"kind": "torsion_sum", "modulus": 6}, tasks=[{"op": "growth", "subgroup": "H", "max_n": 5600}]
    )
    p = tmp_path / "long.json"
    p.write_text(text)
    assert main(["run", str(p), "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)["tasks"][0]["result"]["table"]
    assert len(table) == 5600
    assert Decimal(table[-1]["index"]) == 6**5599


def test_a_rational_coordinate_past_the_interpreters_digit_limit_is_written_in_full(tmp_path, capsys):
    # T_64(x -> x / 10^100, Z) = 10^-6300 Z: the reference's generator has a 6301-digit denominator
    text = scenario_text(
        ambient={"kind": "rational", "rank": 1},
        endomorphism={"kind": "matrix", "entries": [["1/1" + "0" * 100]]},
        subgroups={"H": [["1"]]},
        tasks=[{"op": "entropy_power_on_trajectory", "subgroup": "H", "k": 64, "max_n": 4}],
    )
    p = tmp_path / "tiny-ratio.json"
    p.write_text(text)
    assert main(["run", str(p), "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["tasks"][0]["result"]
    assert result["reference"] == [["1/1" + "0" * 6300]]
    assert result["entropy"]["c"] == "1" + "0" * 6400


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_trace_with_no_increments_writes_its_unbounded_upper_bound_as_null(tmp_path, capsys):
    # at max_n = 1 a trace has no increments; mod 4 the right shift has no proof of its limit,
    # so each verdict is undetermined in [0, inf), with no candidate
    text = scenario_text(
        ambient={"kind": "torsion_sum", "modulus": 4},
        tasks=[
            {"op": "entropy", "subgroup": "H", "max_n": 1},
            {"op": "entropy_on_trajectory", "subgroup": "H", "max_n": 1},
            {"op": "log_law", "subgroup": "H", "k": 2, "max_n": 1},
        ]
    )
    p = tmp_path / "max-n-1.json"
    p.write_text(text)
    assert main(["run", str(p), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_strict_constant)
    results = [t["result"] for t in doc["tasks"]]
    reason = "no proof for the component Z/4"
    undetermined = {"kind": "undetermined", "lower": 0.0, "upper": None, "candidate": None, "reason": reason}
    assert results[0]["entropy"] == results[1]["entropy"] == undetermined
    assert results[2]["entropy_base"] == results[2]["entropy_power"] == undetermined
    assert main(["run", str(p)]) == 0
    assert capsys.readouterr().out.count(f"undetermined in [0.0, inf]: {reason}") == 4


def test_a_proved_limit_certifies_a_trace_with_no_increments(tmp_path, capsys):
    # mod 2 the closed form proves log 2 for the shift and log 4 for its square, with nothing walked
    text = scenario_text(
        tasks=[
            {"op": "entropy", "subgroup": "H", "max_n": 1},
            {"op": "log_law", "subgroup": "H", "k": 2, "max_n": 1},
        ]
    )
    p = tmp_path / "max-n-1.json"
    p.write_text(text)
    assert main(["run", str(p), "--format", "json"]) == 0
    entropy, law = (t["result"] for t in json.loads(capsys.readouterr().out)["tasks"])
    assert (entropy["entropy"]["c"], entropy["entropy"]["certified_by"], entropy["table"]) == (
        "2",
        "closed_form",
        [{"n": 1, "index": "1", "increment": None}],
    )
    assert (law["entropy_power"]["c"], law["law_holds"]) == ("4", True)


def test_table_rendering_mentions_key_facts():
    report = run(builtin_scenario("paper-example", []))
    text = render(report, "table")
    assert "scenario: paper-example" in text
    assert "overall: ok (5 tasks)" in text
    assert "entropy wrt Hp: log(4)" in text
    with pytest.raises(ValueError):
        render(report, "yaml")


def test_unstable_tasks_render(tmp_path):
    # non-inert subgroup: the captured error shows up, the batch continues
    doc = {
        "ambient": {"kind": "rational", "rank": 2},
        "endomorphism": {"kind": "matrix", "entries": [["0", "1"], ["3/2", "0"]]},
        "subgroups": {"S": [["1", "0"]]},
        "tasks": [
            {"op": "growth", "subgroup": "S", "max_n": 4},
            {"op": "entropy_on_trajectory", "subgroup": "S", "max_n": 6},
        ],
    }
    report = run(parse_scenario(json.dumps(doc)))
    assert report.tasks[0]["error"] is not None
    assert "NotInertError" in report.tasks[0]["error"]
    assert report.tasks[1]["error"] is None
    assert report.tasks[1]["result"]["inert_level"] == 2
    assert not report.all_ok


def test_verify_oracle_cross_checks_growth():
    report = run(builtin_scenario("paper-example", []), verify_oracle=True)
    growth_h = report.tasks[0]
    assert growth_h["result"]["oracle"] == {"checked": 8, "skipped": 0}
    growth_hp = report.tasks[1]
    assert growth_hp["result"]["oracle"]["checked"] >= 6
    assert report.all_ok


def test_verify_oracle_failure_is_loud(monkeypatch):
    # paper-example is mod 2: its indices come from F_2 ranks, never from an element count
    from entropy_lab import oracle as oracle_mod

    def lying_indices(walk, p, high, cap=4096):
        for _ in walk:
            yield 99

    monkeypatch.setattr(oracle_mod, "_rank_indices", lying_indices)
    report = run(builtin_scenario("paper-example", []), verify_oracle=True)
    errors = [t["error"] for t in report.tasks if t["error"]]
    assert errors and all("OracleMismatchError" in e and "F_p ranks Finite(99)" in e for e in errors)
    assert not report.all_ok


def test_verify_oracle_checks_every_index_of_paper_example():
    report = run(builtin_scenario("paper-example", []), verify_oracle=True)
    records = [t["result"]["oracle"] for t in report.tasks if "oracle" in t["result"]]
    assert records == [{"checked": n, "skipped": 0} for n in (8, 8, 64, 64)]


def test_table_says_why_the_oracle_skipped():
    doc = {**MINIMAL, "ambient": {"kind": "rational", "rank": 2},
           "endomorphism": {"kind": "matrix", "entries": [["0", "1"], ["3/2", "0"]]},
           "subgroups": {"H": [["1", "0"], ["0", "1"]]},
           "tasks": [{"op": "growth", "subgroup": "H", "max_n": 4}]}
    report = run(parse_scenario(json.dumps(doc)), verify_oracle=True)
    assert report.tasks[0]["result"]["oracle"] == {"checked": 0, "skipped": 4, "reason": "rational rank >= 2"}
    assert "    oracle: 0 checked, 4 skipped (rational rank >= 2)\n" in render(report, "table")
    plain = run(builtin_scenario("paper-example", []), verify_oracle=True)
    assert "    oracle: 8 checked, 0 skipped\n" in render(plain, "table")


def test_cli_flag_precedence_task_beats_flag():
    report = run(builtin_scenario("paper-example", []), cli_max_n=3)
    growth_h = report.tasks[0]
    assert len(growth_h["result"]["table"]) == 8  # task-level max_n=8 wins
    ent_h = report.tasks[2]
    assert len(ent_h["result"]["table"]) == 3  # no task-level max_n, flag applies


def test_env_cap_clamps_even_task_options():
    report = run(builtin_scenario("paper-example", []), max_n_cap=2)
    assert len(report.tasks[0]["result"]["table"]) == 2
    assert len(report.tasks[2]["result"]["table"]) == 2


# -- main() exit codes ----------------------------------------------------------


def test_main_paper_example_exit_zero(capsys):
    assert main(["builtin", "paper-example", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"index":"16"' in out


def test_main_determinism(capsys):
    assert main(["builtin", "paper-example", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["builtin", "paper-example", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert strip_timing(first) == strip_timing(second)


def test_main_list_builtins(capsys):
    assert main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    assert "paper-example" in out and "bernoulli" in out and "rational-mult" in out


def test_main_missing_file(capsys):
    assert main(["run", "/no/such/file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_main_scenario_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    assert main(["run", str(p)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        # json.loads refuses an integer past the interpreter's 4300-digit
        # limit with a plain ValueError, not a JSONDecodeError
        scenario_text(subgroups={"H": [{"0": 7}]}).replace('{"0": 7}', '{"0": ' + "1" * 5000 + "}"),
        # and deep nesting with a RecursionError
        "[" * 200000,
    ],
    ids=["overlong-integer", "deep-nesting"],
)
def test_main_json_the_decoder_rejects_is_a_scenario_error(text, tmp_path, capsys):
    p = tmp_path / "refused.json"
    p.write_text(text)
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: $: invalid JSON")


def test_main_task_failure_exit_one(tmp_path, capsys):
    doc = {
        "ambient": {"kind": "rational", "rank": 2},
        "endomorphism": {"kind": "matrix", "entries": [["0", "0"], ["1", "0"]]},
        "subgroups": {"S": [["1", "0"]]},
        "tasks": [{"op": "growth", "subgroup": "S", "max_n": 3}],
    }
    p = tmp_path / "ni.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 1
    assert "NotInertError" in capsys.readouterr().out


def test_main_scenario_file_runs(tmp_path, capsys):
    p = tmp_path / "ok.json"
    p.write_text(scenario_text(tasks=[{"op": "inert", "subgroup": "H"}]))
    assert main(["run", str(p)]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_main_env_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ENTROPY_LAB_MAX_N", "2")
    assert main(["builtin", "paper-example", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["tasks"][0]["result"]["table"]) == 2


def test_main_env_cap_invalid(monkeypatch, capsys):
    monkeypatch.setenv("ENTROPY_LAB_MAX_N", "zero")
    assert main(["builtin", "paper-example"]) == 2
    assert "ENTROPY_LAB_MAX_N" in capsys.readouterr().err
    monkeypatch.setenv("ENTROPY_LAB_MAX_N", "0")
    assert main(["builtin", "paper-example"]) == 2


def test_main_bad_flag_values(capsys):
    assert main(["builtin", "paper-example", "--max-n", "0"]) == 2
    capsys.readouterr()
    assert main(["builtin", "paper-example", "--max-n", "-1"]) == 2


@pytest.mark.parametrize("flag", ["--max-n"])
def test_main_flags_outside_the_schema_range_are_rejected_before_running(flag, capsys):
    assert main(["builtin", "bernoulli", "2", "2", flag, "10001"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{flag} must be in [1, 10000], got 10001" in err


def test_main_stability_window_flag_is_a_usage_error(capsys):
    assert main(["builtin", "paper-example", "--stability-window", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--stability-window" in err


def test_main_usage_error_is_exit_two(capsys):
    assert main([]) == 2
    assert main(["builtin", "no-such-scenario"]) == 2


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"tasks": [{"op": "entropy", "subgroup": "H", "stability_window": 4}]}, "tasks[0]"),
        ({"options": {"stability_window": 4}, "tasks": []}, "options"),
    ],
    ids=["task", "options"],
)
def test_main_stability_window_key_is_a_usage_error(doc, path, tmp_path, capsys):
    p = tmp_path / "w.json"
    p.write_text(scenario_text(**doc))
    assert main(["run", str(p)]) == 2
    assert f"error: {path}: unknown key(s): stability_window" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"tasks": [{"op": "log_law", "subgroup": "H", "k": 2, "max_m": 8}]}, "tasks[0]"),
        ({"options": {"max_m": 8}, "tasks": []}, "options"),
    ],
    ids=["task", "options"],
)
def test_main_max_m_key_is_a_usage_error(doc, path, tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(scenario_text(**doc))
    assert main(["run", str(p)]) == 2
    assert f"error: {path}: unknown key(s): max_m" in capsys.readouterr().err


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "entropy_lab", "builtin", "rational-mult", "7/2", "2", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["tasks"][0]["result"]["entropy_base"]["c"] == "2"
    assert doc["tasks"][0]["result"]["entropy_power"]["c"] == "4"


def test_report_doc_key_order_is_stable():
    report = run(builtin_scenario("bernoulli", ["2", "1"]))
    doc = json.loads(render(report, "json"))
    assert list(doc) == ["scenario", "tasks", "all_ok"]
    assert list(doc["tasks"][0]) == [
        "task",
        "op",
        "inputs",
        "result",
        "verdict",
        "error",
        "elapsed_ms",
    ]


TRAJECTORY_SCENARIOS = {
    # the seed <e0> reaches its first inert level at m = 2
    "swap-scale": {
        "ambient": {"kind": "rational", "rank": 2},
        "endomorphism": {"kind": "matrix", "entries": [["0", "1"], ["3/2", "0"]]},
        "subgroups": {"F": [["1", "0"]]},
    },
    "stencil-mod-3": {
        "ambient": {"kind": "torsion_sum", "modulus": 3},
        "endomorphism": {"kind": "stencil", "taps": [{"offset": 0, "coeff": 1}, {"offset": 1, "coeff": 2}]},
        "subgroups": {"F": [{"0": 1, "2": 2}]},
    },
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_SCENARIOS))
def test_trajectory_entropy_is_what_the_cli_reports(name):
    doc = dict(TRAJECTORY_SCENARIOS[name])
    doc["tasks"] = [{"op": "entropy_on_trajectory", "subgroup": "F", "max_n": 12}] + [
        {"op": "entropy_power_on_trajectory", "subgroup": "F", "k": k, "max_n": 12} for k in (1, 2, 3)
    ]
    sc = parse_scenario(json.dumps(doc))
    tasks = json.loads(render(run(sc), "json"))["tasks"]
    opts = EntropyOptions(max_n=12)
    for task, k in zip(tasks, (1, 1, 2, 3)):
        got = trajectory_entropy(sc.endo, k, sc.subgroups["F"], opts)
        result = task["result"]
        assert result["inert_level"] == got.inert_level
        assert result["reference"] == [cli._element_doc(g) for g in got.trace.subgroup.generators()]
        assert [row["index"] for row in result["table"]] == [str(c.value) for c in got.trace.indices]
        assert [row["increment"] for row in result["table"][:-1]] == [
            str(c.value) for c in got.trace.increments
        ]
        assert result["saturated_at"] == got.trace.saturated_at
        assert result["entropy"]["c"] == str(got.entropy.c)
