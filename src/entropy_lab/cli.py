"""Scenario runner: JSON in, growth tables and entropy verdicts out.

A scenario document declares one ambient group, one endomorphism, named
finitely generated subgroups, and a list of tasks over them:

.. code-block:: json

    {
      "name": "paper-example",
      "ambient": {"kind": "torsion_sum", "modulus": 2},
      "endomorphism": {"kind": "right_shift"},
      "subgroups": {"H": [{"0": 1}], "Hp": [{"0": 1}, {"1": 1}]},
      "tasks": [
        {"op": "growth", "subgroup": "H", "k": 2, "max_n": 8},
        {"op": "counterexample"}
      ]
    }

Rational elements are arrays of integers or ``p/q`` strings in ASCII digits
(``["3/2", "-7"]``); torsion elements are sparse ``{"index": residue}``
objects whose indices are plain decimals from 0 to 10000 (``"7"``, not ``"07"``).
Endomorphisms: ``{"kind": "matrix", "entries": [["3/2"]]}``,
``{"kind": "right_shift"}``, ``{"kind": "left_shift"}``, or
``{"kind": "stencil", "taps": [{"offset": 1, "coeff": 1}]}``, with offsets
from -10000 to 10000.

Task ops: ``inert``, ``growth``, ``entropy``, ``entropy_on_trajectory``,
``entropy_power_on_trajectory``, ``log_law``, ``trajectory_invariance``,
``trajectory_identity``, ``counterexample``. The one option is ``max_n``;
precedence per task: task field, then the ``--max-n`` flag, then scenario
``options``, then the default of :class:`~entropy_lab.entropy.EntropyOptions`.
The environment variable ``ENTROPY_LAB_MAX_N`` caps ``max_n`` globally.

This module checks a document's shape and serialises what the engine returns,
once per task, as the record that ``--format json`` writes and the table
renders; a record keeps each trace as its ``table``, which :func:`render`
spells once, in one pass linear in the report's size. ``--verify-oracle``
runs :func:`~entropy_lab.oracle.verify_trace` on each trace.

Exit codes: 0 means every task ran and every asserted equality held; 1 means
some task failed or errored; 2 means usage, file, or scenario-validation error.
JSON reports are byte-identical across runs of the same scenario text except
for ``elapsed_ms`` timing fields.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count
from typing import Any, Iterator, NoReturn, Optional

from . import entropy as ent_mod
from . import groups, oracle
from .endomorphisms import (
    Endo,
    MatrixEndo,
    StencilEndo,
    left_shift,
    power,
    right_shift,
)
from .entropy import (
    EntropyOptions,
    ExactLog,
    GrowthTrace,
    growth_trace,
    inert_certificate,
    log_law_report,
    trajectory_entropy,
    trajectory_identity_check,
    trajectory_invariance_report,
)
from .errors import EntropyLabError, ScenarioError
from .groups import Ambient, Element, FgSubgroup, Rational, TorsionSum
from .linalg import Cardinality, digits

__all__ = [
    "Scenario",
    "TaskSpec",
    "Report",
    "parse_scenario",
    "builtin_scenario",
    "run",
    "render",
    "main",
    "ENV_MAX_N",
    "BUILTIN_USAGE",
]

ENV_MAX_N = "ENTROPY_LAB_MAX_N"

_RANGES = {
    "max_n": (1, 10000),
    "k": (1, 64),
    "m": (1, 256),
    "n": (1, 10000),
    "coordinate": (0, 10000),
    "offset": (-10000, 10000),
}

_OPS: dict[str, dict[str, Any]] = {
    "inert": {"required": ["subgroup"], "optional": ["k"]},
    "growth": {"required": ["subgroup"], "optional": ["k", "max_n"]},
    "entropy": {"required": ["subgroup"], "optional": ["k", "max_n"]},
    "entropy_on_trajectory": {"required": ["subgroup"], "optional": ["max_n"]},
    "entropy_power_on_trajectory": {"required": ["subgroup", "k"], "optional": ["max_n"]},
    "log_law": {"required": ["subgroup", "k"], "optional": ["max_n"]},
    "trajectory_invariance": {"required": ["subgroup", "k"], "optional": ["max_n"]},
    "trajectory_identity": {"required": ["subgroup", "k", "m", "n"], "optional": []},
    "counterexample": {"required": [], "optional": []},
}


@dataclass(frozen=True)
class TaskSpec:
    """One validated task, with only its explicitly given options."""

    index: int
    op: str
    subgroup: Optional[str] = None
    k: Optional[int] = None
    m: Optional[int] = None
    n: Optional[int] = None
    max_n: Optional[int] = None


@dataclass(frozen=True)
class Scenario:
    """A validated scenario document."""

    name: str
    ambient: Ambient
    endo: Endo
    subgroups: dict[str, FgSubgroup]
    tasks: tuple[TaskSpec, ...]
    options: dict[str, int] = field(default_factory=dict)


@dataclass
class Report:
    """A run's report: ``--format json`` writes its fields in this order, and each task record as it stands.

    A trace's record holds the :class:`~entropy_lab.entropy.GrowthTrace` itself as its ``table``;
    :func:`render` spells its rows.
    """

    scenario: str
    tasks: list[dict[str, Any]]
    all_ok: bool


# ---------------------------------------------------------------------------
# scenario validation


def _fail(path: str, msg: str) -> NoReturn:
    raise ScenarioError(f"{path}: {msg}")


_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _expect(value, kind: type, path: str):
    """``value`` if it is a JSON value of ``kind`` (a ``bool`` is no integer), else a path-named error."""
    if isinstance(value, bool) or not isinstance(value, kind):
        _fail(path, f"expected {_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def _expect_range(value, name: str, path: str) -> int:
    v = _expect(value, int, path)
    lo, hi = _RANGES[name]
    if not lo <= v <= hi:
        _fail(path, f"{name} must be in [{lo}, {hi}], got {v}")
    return v


def _require(doc: dict, keys, path: str, missing: str = "missing key") -> None:
    for key in keys:
        if key not in doc:
            _fail(path, f"{missing}: {key}")


def _no_extra_keys(doc: dict, allowed: set[str], path: str) -> None:
    extra = sorted(set(doc) - allowed)
    if extra:
        _fail(path, f"unknown key(s): {', '.join(extra)}")


# the exact strings, in ASCII digits; Fraction's own grammar also takes spaces, any Unicode digit,
# underscores from Python 3.11 on, and exponents, so that "1e4000000" would build 13 million bits
_FRACTION = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_fraction(value, path: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        _fail(path, "expected an exact value: integer or string like \"3/2\"")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _FRACTION.fullmatch(value)
        if match is None:
            if re.search(r"[0-9][eE]", value):
                _fail(path, "exponent notation is not allowed; write an integer or a string like \"3/2\"")
            _fail(path, f"not a rational number: Invalid literal for Fraction: {value!r}")
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError) as e:
            _fail(path, f"not a rational number: {e}")
    _fail(path, f"expected an integer or string, got {type(value).__name__}")


# (key, least value, constructor) of each ambient kind
_AMBIENTS = {"rational": ("rank", 1, Rational), "torsion_sum": ("modulus", 2, TorsionSum)}

# (keys, ambient type, mismatch message) of each endomorphism kind
_ENDOS = {
    "matrix": (["entries"], Rational, "matrix endomorphisms require a rational ambient"),
    "right_shift": ([], TorsionSum, "right_shift requires a torsion_sum ambient"),
    "left_shift": ([], TorsionSum, "left_shift requires a torsion_sum ambient"),
    "stencil": (["taps"], TorsionSum, "stencil endomorphisms require a torsion_sum ambient"),
}


def _parse_kind(doc, path: str) -> tuple[dict, str]:
    doc = _expect(doc, dict, path)
    _require(doc, ["kind"], path)
    return doc, _expect(doc["kind"], str, f"{path}.kind")


def _parse_ambient(doc, path: str) -> Ambient:
    doc, kind = _parse_kind(doc, path)
    if kind not in _AMBIENTS:
        _fail(f"{path}.kind", f"unknown ambient kind {kind!r}; expected {' or '.join(_AMBIENTS)}")
    key, least, build = _AMBIENTS[kind]
    _no_extra_keys(doc, {"kind", key}, path)
    _require(doc, [key], path)
    value = _expect(doc[key], int, f"{path}.{key}")
    if value < least:
        _fail(f"{path}.{key}", f"{key} must be >= {least}, got {value}")
    return build(value)


def _parse_endo(doc, ambient: Ambient, path: str) -> Endo:
    doc, kind = _parse_kind(doc, path)
    if kind not in _ENDOS:
        _fail(f"{path}.kind", f"unknown endomorphism kind {kind!r}")
    keys, wanted, mismatch = _ENDOS[kind]
    if not isinstance(ambient, wanted):
        _fail(f"{path}.kind", mismatch)
    _no_extra_keys(doc, {"kind", *keys}, path)
    _require(doc, keys, path)
    if kind == "matrix":
        rows = _expect(doc["entries"], list, f"{path}.entries")
        n = ambient.rank
        if len(rows) != n:
            _fail(f"{path}.entries", f"expected {n} rows, got {len(rows)}")
        matrix = []
        for i, row in enumerate(rows):
            row = _expect(row, list, f"{path}.entries[{i}]")
            if len(row) != n:
                _fail(f"{path}.entries[{i}]", f"expected {n} entries, got {len(row)}")
            matrix.append([_parse_fraction(e, f"{path}.entries[{i}][{j}]") for j, e in enumerate(row)])
        return MatrixEndo(ambient, matrix)
    if kind == "stencil":
        taps = []
        for i, tap in enumerate(_expect(doc["taps"], list, f"{path}.taps")):
            tap_path = f"{path}.taps[{i}]"
            tap = _expect(tap, dict, tap_path)
            _no_extra_keys(tap, {"offset", "coeff"}, tap_path)
            _require(tap, ["offset", "coeff"], tap_path)
            offset = _expect_range(tap["offset"], "offset", f"{tap_path}.offset")
            taps.append((offset, _expect(tap["coeff"], int, f"{tap_path}.coeff")))
        try:
            return StencilEndo(ambient, taps)
        except ValueError as e:  # StencilEndo owns the tap rules; its messages name the tap
            raise ScenarioError(f"{path}.{e}") from e
    return right_shift(ambient) if kind == "right_shift" else left_shift(ambient)


def _parse_element(doc, ambient: Ambient, path: str) -> Element:
    if isinstance(ambient, Rational):
        arr = _expect(doc, list, path)
        if len(arr) != ambient.rank:
            _fail(path, f"expected {ambient.rank} coordinates, got {len(arr)}")
        return ambient.element([_parse_fraction(v, f"{path}[{i}]") for i, v in enumerate(arr)])
    obj = _expect(doc, dict, path)
    lo, hi = _RANGES["coordinate"]
    pairs = []
    for key, value in obj.items():
        if not (key.isascii() and key.isdigit() and (key == "0" or key[0] != "0")):
            _fail(path, f"coordinate key {key!r} is not a non-negative integer")
        if len(key) > len(str(hi)):  # also keeps int() inside the interpreter's digit limit
            _fail(path, f"coordinate key of {len(key)} digits is past {hi}")
        index = int(key)
        if not lo <= index <= hi:
            _fail(path, f"coordinate key must be in [{lo}, {hi}], got {index}")
        pairs.append((index, _expect(value, int, f"{path}.{key}")))
    return ambient.element(pairs)


def _parse_task(doc, index: int, names: set[str], path: str) -> TaskSpec:
    doc = _expect(doc, dict, path)
    _require(doc, ["op"], path)
    op = _expect(doc["op"], str, f"{path}.op")
    if op not in _OPS:
        _fail(f"{path}.op", f"unknown op {op!r}; expected one of {', '.join(sorted(_OPS))}")
    spec = _OPS[op]
    allowed = {"op", *spec["required"], *spec["optional"]}
    _no_extra_keys(doc, allowed, path)
    _require(doc, spec["required"], path, f"op {op!r} requires key")
    fields: dict[str, Any] = {"index": index, "op": op}
    if "subgroup" in doc:
        name = _expect(doc["subgroup"], str, f"{path}.subgroup")
        if name not in names:
            _fail(f"{path}.subgroup", f"undeclared subgroup {name!r}")
        fields["subgroup"] = name
    for key in ("k", "m", "n", "max_n"):
        if key in doc:
            fields[key] = _expect_range(doc[key], key, f"{path}.{key}")
    return TaskSpec(**fields)


def _scenario_from_doc(doc: Any) -> Scenario:
    top = _expect(doc, dict, "$")
    _no_extra_keys(top, {"name", "ambient", "endomorphism", "subgroups", "tasks", "options"}, "$")
    _require(top, ["ambient", "endomorphism", "subgroups", "tasks"], "$")
    name = _expect(top.get("name", "scenario"), str, "name")
    ambient = _parse_ambient(top["ambient"], "ambient")
    endo = _parse_endo(top["endomorphism"], ambient, "endomorphism")
    sub_doc = _expect(top["subgroups"], dict, "subgroups")
    subgroups: dict[str, FgSubgroup] = {}
    for sub_name, gens_doc in sub_doc.items():
        if not sub_name:
            _fail("subgroups", "subgroup names must be non-empty")
        gens_list = _expect(gens_doc, list, f"subgroups.{sub_name}")
        gens = [
            _parse_element(g, ambient, f"subgroups.{sub_name}[{i}]") for i, g in enumerate(gens_list)
        ]
        subgroups[sub_name] = groups.subgroup(ambient, gens)
    options: dict[str, int] = {}
    if "options" in top:
        opt_doc = _expect(top["options"], dict, "options")
        _no_extra_keys(opt_doc, {"max_n"}, "options")
        if "max_n" in opt_doc:
            options["max_n"] = _expect_range(opt_doc["max_n"], "max_n", "options.max_n")
    tasks_doc = _expect(top["tasks"], list, "tasks")
    tasks = tuple(
        _parse_task(t, i, set(subgroups), f"tasks[{i}]") for i, t in enumerate(tasks_doc)
    )
    return Scenario(
        name=name, ambient=ambient, endo=endo, subgroups=subgroups, tasks=tasks, options=options
    )


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario JSON; diagnostics name the offending path."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also an integer past the digit limit, or deep nesting
        raise ScenarioError(f"$: invalid JSON: {e}") from e
    return _scenario_from_doc(doc)


# ---------------------------------------------------------------------------
# built-in scenarios

BUILTIN_USAGE = {
    "paper-example": "paper-example",
    "bernoulli": "bernoulli <modulus> <k>",
    "rational-mult": "rational-mult <p>/<q> <k>",
}


def _paper_example_doc() -> dict:
    return {
        "name": "paper-example",
        "ambient": {"kind": "torsion_sum", "modulus": 2},
        "endomorphism": {"kind": "right_shift"},
        "subgroups": {"H": [{"0": 1}], "Hp": [{"0": 1}, {"1": 1}]},
        "tasks": [
            {"op": "growth", "subgroup": "H", "k": 2, "max_n": 8},
            {"op": "growth", "subgroup": "Hp", "k": 2, "max_n": 8},
            {"op": "entropy", "subgroup": "H", "k": 2},
            {"op": "entropy", "subgroup": "Hp", "k": 2},
            {"op": "counterexample"},
        ],
    }


def _log_law_doc(name: str, ambient: dict, endomorphism: dict, seed, k: int) -> dict:
    """A scenario of one ``log_law`` task with power ``k`` on the trajectory of ``F = <seed>``."""
    return {
        "name": name,
        "ambient": ambient,
        "endomorphism": endomorphism,
        "subgroups": {"F": [seed]},
        "tasks": [{"op": "log_law", "subgroup": "F", "k": k}],
    }


def builtin_scenario(name: str, args: list[str]) -> Scenario:
    """Construct one of the named built-in scenarios."""
    if name == "paper-example":
        if args:
            raise ScenarioError("paper-example takes no arguments")
        return _scenario_from_doc(_paper_example_doc())
    if name not in BUILTIN_USAGE:
        raise ScenarioError(f"unknown builtin {name!r}; see list-builtins")
    if len(args) != 2:
        raise ScenarioError(f"usage: {BUILTIN_USAGE[name]}")
    if name == "bernoulli":
        try:
            modulus, k = int(args[0]), int(args[1])
        except ValueError as e:
            raise ScenarioError(f"bernoulli arguments must be integers: {e}") from e
        ambient, endomorphism = {"kind": "torsion_sum", "modulus": modulus}, {"kind": "right_shift"}
        return _scenario_from_doc(_log_law_doc(f"bernoulli-{modulus}-{k}", ambient, endomorphism, {"0": 1}, k))
    ratio = _parse_fraction(args[0], "ratio")
    try:
        k = int(args[1])
    except ValueError as e:
        raise ScenarioError(f"k must be an integer: {e}") from e
    title = f"rational-mult-{ratio.numerator}-{ratio.denominator}-{k}"
    endomorphism = {"kind": "matrix", "entries": [[str(ratio)]]}
    return _scenario_from_doc(_log_law_doc(title, {"kind": "rational", "rank": 1}, endomorphism, ["1"], k))


# ---------------------------------------------------------------------------
# serialization helpers


def _card_doc(c: Cardinality) -> str:
    return digits(c.value) if c.is_finite else "infinite"


def _entropy_doc(result: ExactLog) -> dict[str, Any]:
    return {"kind": "exact", "c": digits(result.c), "log": f"{result.log_value:.12f}", "certified_by": result.certified_by}


def _element_doc(x: Element) -> Any:
    if isinstance(x.ambient, TorsionSum):
        return {str(i): r for i, r in x.data}
    return [
        digits(v.numerator) if v.denominator == 1 else f"{digits(v.numerator)}/{digits(v.denominator)}" for v in x.data
    ]


def _subgroup_doc(h: FgSubgroup) -> list:
    return [_element_doc(g) for g in h.generators()]


def _trace_doc(trace: GrowthTrace, entropy, verify_oracle: bool) -> dict[str, Any]:
    """A trace's ``table`` (the trace itself, spelled by :func:`render`) and ``saturated_at``,
    then its ``entropy`` if given and ``oracle`` record if asked."""
    doc = {"table": trace, "saturated_at": trace.saturated_at}
    if entropy is not None:
        doc["entropy"] = _entropy_doc(entropy)
    if verify_oracle:
        doc["oracle"] = oracle.verify_trace(trace)
    return doc


# past about this many bits (CPython 3.11), str(int), which is quadratic, spells an index
# slower than an exact Decimal product; below it, Decimal made short reports ~20% slower
_DECIMAL_BITS = 640
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)


def _index_digits(trace: GrowthTrace) -> Iterator[str]:
    """The digits of each index ``|T_n / H|``, ``n = 1 .. max_n``, in one pass over the increments, as they come.

    Each index is the running product of the increments before it: an ``int``
    while it is short, then a ``Decimal``, whose product by an increment and
    whose digits both take time linear in its length.
    """
    index, increments = 1, trace.increment_values()
    for inc in increments:
        yield str(index)
        index *= inc
        if index.bit_length() > _DECIMAL_BITS:
            break
    else:
        yield str(index)
        return
    index, exact = decimal.Decimal(index), functools.cache(decimal.Decimal)
    for inc in increments:
        yield str(index)
        index = _EXACT.multiply(index, exact(inc))
    yield str(index)


def _spelled_rows(trace: GrowthTrace) -> Iterator[tuple[int, str, Optional[str]]]:
    """``(n, index, increment)`` digits of each row, ``n = 1 .. max_n``; the last row's increment is ``None``."""
    spell = functools.cache(digits)  # a proved tail repeats the limit on every row: spell each increment once
    return zip(count(1), _index_digits(trace), chain(map(spell, trace.increment_values()), [None]))


def _json_rows(trace: GrowthTrace) -> Iterator[str]:
    """The JSON text of a trace's ``table``, row by row."""
    yield "["
    for n, i, c in _spelled_rows(trace):
        if c is not None:
            yield f'{{"n":{n},"index":"{i}","increment":"{c}"}},'
        else:
            yield f'{{"n":{n},"index":"{i}","increment":null}}]'


def _cert_doc(cert) -> dict[str, Any]:
    return {"defect": _card_doc(cert.defect), "inert": cert.verdict}


# ---------------------------------------------------------------------------
# task execution


def _resolve_opts(task: TaskSpec, scenario: Scenario, cli_max_n: Optional[int], cap: Optional[int]) -> EntropyOptions:
    given = (task.max_n, cli_max_n, scenario.options.get("max_n"), EntropyOptions.max_n)
    max_n = next(v for v in given if v is not None)
    if cap is not None:  # safety valve: the cap shrinks runs, it never turns them into errors
        max_n = min(max_n, cap)
    return EntropyOptions(max_n=max_n)


def _inputs_doc(task: TaskSpec, opts: EntropyOptions) -> dict[str, Any]:
    """The options the task's op declares, in the order the report echoes them."""
    declared = {*_OPS[task.op]["required"], *_OPS[task.op]["optional"]}
    given = {"subgroup": task.subgroup, "k": task.k or 1, "m": task.m, "n": task.n, "max_n": opts.max_n}
    return {key: value for key, value in given.items() if key in declared}


def _execute_task(
    task: TaskSpec,
    scenario: Scenario,
    opts: EntropyOptions,
    verify_oracle: bool,
) -> tuple[dict[str, Any], Optional[bool]]:
    """Returns (result payload, verdict)."""
    endo = scenario.endo
    k = task.k or 1
    h = scenario.subgroups[task.subgroup] if task.subgroup else None

    if task.op == "inert":
        cert = inert_certificate(power(endo, k), h)
        return _cert_doc(cert), cert.verdict

    if task.op in ("growth", "entropy"):
        trace = growth_trace(power(endo, k), h, opts.max_n)
        entropy = ent_mod.certify_trace(trace) if task.op == "entropy" else None
        return _trace_doc(trace, entropy, verify_oracle), None

    if task.op in ("entropy_on_trajectory", "entropy_power_on_trajectory"):
        found = trajectory_entropy(endo, k, h, opts)
        reference = {"inert_level": found.inert_level, "reference": _subgroup_doc(found.trace.subgroup)}
        return {**reference, **_trace_doc(found.trace, found.entropy, verify_oracle)}, None

    if task.op == "log_law":
        report = log_law_report(endo, k, h, opts)
        return {
            "entropy_base": _entropy_doc(report.entropy_base),
            "entropy_power": _entropy_doc(report.entropy_power),
            "k_times_base": _entropy_doc(report.k_times_base),
            "law_holds": report.law_holds,
        }, report.law_holds

    if task.op == "trajectory_invariance":
        report = trajectory_invariance_report(endo, h, k, opts)
        left, right = _entropy_doc(report.left), _entropy_doc(report.right)
        return {"left": left, "right": right, "equal": report.equal}, report.equal

    if task.op == "trajectory_identity":
        equal = trajectory_identity_check(endo, k, task.m, h, task.n)
        return {"equal": equal}, equal

    if task.op == "counterexample":
        report = ent_mod.counterexample_report()
        return {
            "rows": [{"n": n, "index_h": _card_doc(ih), "index_hp": _card_doc(ihp)} for n, ih, ihp in report.rows],
            "entropy_h": _entropy_doc(report.entropy_h),
            "entropy_hp": _entropy_doc(report.entropy_h_prime),
            "certificates": {name: _cert_doc(c) for name, c in report.certificates.items()},
            "distinct": report.distinct,
        }, report.distinct

    raise ScenarioError(f"tasks[{task.index}]: unknown op {task.op!r}")  # pragma: no cover


def run(
    scenario: Scenario,
    *,
    cli_max_n: Optional[int] = None,
    verify_oracle: bool = False,
    max_n_cap: Optional[int] = None,
) -> Report:
    """Execute every task in declaration order and build its record once."""
    records: list[dict[str, Any]] = []
    for task in scenario.tasks:
        opts = _resolve_opts(task, scenario, cli_max_n, max_n_cap)
        started = time.perf_counter()
        try:
            result, verdict = _execute_task(task, scenario, opts, verify_oracle)
            inputs, error = _inputs_doc(task, opts), None
        except (EntropyLabError, ValueError) as e:
            inputs = {"subgroup": task.subgroup} if task.subgroup else {}
            result = verdict = None
            error = f"{type(e).__name__}: {e}"
        elapsed = round((time.perf_counter() - started) * 1000.0, 3)
        records.append(
            {"task": task.index, "op": task.op, "inputs": inputs, "result": result,
             "verdict": verdict, "error": error, "elapsed_ms": elapsed}
        )
    all_ok = all(t["error"] is None and t["verdict"] is not False for t in records)
    return Report(scenario=scenario.name, tasks=records, all_ok=all_ok)


# ---------------------------------------------------------------------------
# rendering


def _verdict_text(verdict: Optional[bool]) -> str:
    if verdict is None:
        return "-"
    return "pass" if verdict else "FAIL"


def _format_rows(headers: list[str], rows: list[list[str]]) -> Iterator[str]:
    widths = [len(x) for x in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    for row in chain([headers], rows):
        yield "\n    " + "  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip()


def _table_pieces(report: Report) -> Iterator[str]:
    """The table: its first line, then each further line after its newline."""
    yield f"scenario: {report.scenario}"
    for t in report.tasks:
        head = f"\n[{t['task']}] {t['op']}"
        if t["inputs"]:
            head += "  " + " ".join(f"{k}={v}" for k, v in t["inputs"].items())
        yield head
        if t["error"] is not None:
            yield f"\n    error: {t['error']}"
            continue
        r = t["result"] or {}
        if "inert_level" in r:
            yield f"\n    inert trajectory level: m={r['inert_level']}"
        if "table" in r:
            rows = [[str(n), i, "-" if c is None else c] for n, i, c in _spelled_rows(r["table"])]
            yield from _format_rows(["n", "index", "increment"], rows)
            if r.get("saturated_at") is not None:
                yield f"\n    saturated at n={r['saturated_at']}"
        if "rows" in r:
            rows = [[str(row["n"]), row["index_h"], row["index_hp"]] for row in r["rows"]]
            yield from _format_rows(["n", "|T_n/H|", "|T_n/Hp|"], rows)
        if "defect" in r:
            yield f"\n    defect: {r['defect']}"
        for key, label in (
            ("entropy", "entropy"),
            ("entropy_base", "entropy(f)"),
            ("entropy_power", "entropy(f^k)"),
            ("k_times_base", "k*entropy(f)"),
            ("entropy_h", "entropy wrt H"),
            ("entropy_hp", "entropy wrt Hp"),
            ("left", "entropy wrt H"),
            ("right", "entropy wrt T_k(H)"),
        ):
            if r.get(key) is not None:
                yield f"\n    {label}: log({r[key]['c']}) = {r[key]['log']}, by {r[key]['certified_by']}"
        if "oracle" in r:
            orc = r["oracle"]
            why = f" ({orc['reason']})" if "reason" in orc else ""
            yield f"\n    oracle: {orc['checked']} checked, {orc['skipped']} skipped{why}"
        yield f"\n    verdict: {_verdict_text(t['verdict'])}"
    yield f"\noverall: {'ok' if report.all_ok else 'FAILED'} ({len(report.tasks)} tasks)"


def _json_pieces(report: Report) -> Iterator[str]:
    """The JSON encoder writes the report with ``"table":[]`` for each trace; each trace's rows go in its place.

    Inside an encoded string every ``"`` is escaped, so ``"table":[]`` occurs
    only where a key ``table`` holds a trace: no name can fool the split.
    """
    traces: list[GrowthTrace] = []

    def table_slot(obj):
        if not isinstance(obj, GrowthTrace):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        traces.append(obj)
        return []

    head, *tails = json.dumps(vars(report), separators=(",", ":"), allow_nan=False, default=table_slot).split(
        '"table":[]'
    )
    yield head
    for trace, tail in zip(traces, tails, strict=True):
        yield '"table":'
        yield from _json_rows(trace)
        yield tail


_PIECES = {"json": _json_pieces, "table": _table_pieces}


def render(report: Report, fmt: str = "table") -> str:
    """Render a report as an aligned text table or stable compact JSON."""
    if fmt not in _PIECES:
        raise ValueError(f"unknown format {fmt!r}")
    return "".join(_PIECES[fmt](report))


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropy-lab",
        description=(
            "Exact growth and entropy computations for endomorphisms of "
            "representable Abelian groups. Entropies are computed on the "
            "trajectory generated by a declared seed subgroup (or with "
            "respect to a declared inert subgroup), never as a supremum "
            "over all inert subgroups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--max-n", type=int, dest="max_n", default=None, metavar="N")
        p.add_argument("--verify-oracle", action="store_true", dest="verify_oracle")

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("file")
    add_common(p_run)

    p_named = sub.add_parser("builtin", help="run a built-in scenario")
    p_named.add_argument("name")
    p_named.add_argument("args", nargs="*")
    add_common(p_named)

    sub.add_parser("list-builtins", help="list built-in scenario names")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    if ns.command == "list-builtins":
        for usage in BUILTIN_USAGE.values():
            print(usage)
        return 0

    cap_text = os.environ.get(ENV_MAX_N)
    cap: Optional[int] = None
    if cap_text is not None and cap_text != "":
        try:
            cap = int(cap_text)
        except ValueError:
            print(f"error: {ENV_MAX_N} must be an integer, got {cap_text!r}", file=sys.stderr)
            return 2
        if cap < 1:
            print(f"error: {ENV_MAX_N} must be >= 1, got {cap}", file=sys.stderr)
            return 2

    lo, hi = _RANGES["max_n"]
    if ns.max_n is not None and not lo <= ns.max_n <= hi:
        print(f"error: --max-n must be in [{lo}, {hi}], got {ns.max_n}", file=sys.stderr)
        return 2

    try:
        if ns.command == "run":
            try:
                with open(ns.file, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                print(f"error: cannot read {ns.file!r}: {e}", file=sys.stderr)
                return 2
            scenario = parse_scenario(text)
        else:
            scenario = builtin_scenario(ns.name, ns.args)
        report = run(
            scenario,
            cli_max_n=ns.max_n,
            verify_oracle=ns.verify_oracle,
            max_n_cap=cap,
        )
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    sys.stdout.writelines(_PIECES[ns.format](report))  # as they come: no copy of the whole report is held
    print()
    return 0 if report.all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
