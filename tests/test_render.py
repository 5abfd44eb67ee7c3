"""``render`` against the row-dict writer it replaced, and its time at a long horizon.

The reference below spells a trace's ``table`` as one dict per row, each index
by :func:`~entropy_lab.linalg.digits`, and writes the whole report with
``json.dumps``; its table renderer reads those dicts. ``render`` must give the
same bytes in both formats, whatever the trace and whatever the names.
"""

import functools
import json
import time
from decimal import Decimal
from itertools import zip_longest

from hypothesis import example, given, seed, strategies as st

from entropy_lab.cli import Report, _trace_doc, parse_scenario, render, run
from entropy_lab.entropy import ExactLog, GrowthTrace
from entropy_lab.linalg import digits

# -- the reference ------------------------------------------------------------


def _row_dicts(trace: GrowthTrace) -> list[dict]:
    spell = functools.cache(digits)
    return [
        {"n": n, "index": digits(idx), "increment": spell(inc) if inc is not None else None}
        for n, (idx, inc) in enumerate(zip_longest(trace.index_values(), trace.increment_values()), 1)
    ]


def _reference_doc(report: Report) -> dict:
    tasks = []
    for t in report.tasks:
        r = t["result"]
        if r is not None and "table" in r:
            r = {**r, "table": _row_dicts(r["table"])}
        tasks.append({**t, "result": r})
    return {"scenario": report.scenario, "tasks": tasks, "all_ok": report.all_ok}


def reference_json(report: Report) -> str:
    return json.dumps(_reference_doc(report), separators=(",", ":"), allow_nan=False)


def _format_rows(headers, rows, indent="    "):
    widths = [len(x) for x in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = [indent + "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        out.append(indent + "  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return out


def reference_table(report: Report) -> str:
    doc = _reference_doc(report)
    lines = [f"scenario: {doc['scenario']}"]
    for t in doc["tasks"]:
        head = f"[{t['task']}] {t['op']}"
        if t["inputs"]:
            head += "  " + " ".join(f"{k}={v}" for k, v in t["inputs"].items())
        lines.append(head)
        if t["error"] is not None:
            lines.append(f"    error: {t['error']}")
            continue
        r = t["result"] or {}
        if "inert_level" in r:
            lines.append(f"    inert trajectory level: m={r['inert_level']}")
        if "table" in r:
            rows = [
                [str(row["n"]), row["index"], row["increment"] if row["increment"] is not None else "-"]
                for row in r["table"]
            ]
            lines.extend(_format_rows(["n", "index", "increment"], rows))
            if r.get("saturated_at") is not None:
                lines.append(f"    saturated at n={r['saturated_at']}")
        if r.get("entropy") is not None:
            e = r["entropy"]
            lines.append(f"    entropy: log({e['c']}) = {e['log']}, by {e['certified_by']}")
        verdict = t["verdict"]
        lines.append(f"    verdict: {'-' if verdict is None else 'pass' if verdict else 'FAIL'}")
    lines.append(f"overall: {'ok' if doc['all_ok'] else 'FAILED'} ({len(doc['tasks'])} tasks)")
    return "\n".join(lines)


# -- drawn reports ------------------------------------------------------------

# increments small, word-sized, and past the size at which the writer switches to a Decimal product
INCREMENTS = st.one_of(st.integers(1, 16), st.integers(1, 2**64), st.integers(2**600, 2**2100))
TRICKY = ['"table":[]', '"table":', "[]", '"', "\\", '\\"', "é", "表", "\x00", "\n", "table", ":", ","]
NAMES = st.one_of(st.text(min_size=1, max_size=12), st.lists(st.sampled_from(TRICKY), min_size=1, max_size=6).map("".join))


@st.composite
def traces(draw) -> GrowthTrace:
    """A trace whose walk stops at no limit, at the limit 1, or at a limit ``c > 1``."""
    max_n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["none", "one", "c"])) if max_n > 1 else "none"
    if kind == "none":
        incs = INCREMENTS if max_n <= 20 else st.integers(1, 2**64)
        walked = draw(st.lists(incs, min_size=max_n - 1, max_size=max_n - 1))
        return GrowthTrace(None, None, tuple(walked), max_n, walked[-1] + 1 if walked else 1)
    floor = 1 if kind == "one" else draw(st.integers(2, 2**64))
    head = draw(st.lists(INCREMENTS, max_size=min(20, max_n - 2)))
    return GrowthTrace(None, None, (*(h * floor for h in head), floor), max_n, floor)


@st.composite
def reports(draw) -> Report:
    tasks = []
    for i, trace in enumerate(draw(st.lists(traces(), min_size=1, max_size=3))):
        c = draw(st.one_of(st.none(), st.integers(1, 2**70)))
        entropy = None if c is None else ExactLog(c, draw(st.sampled_from(["closed_form", "saturation", "bounded"])))
        inputs = {"subgroup": draw(NAMES), "k": draw(st.integers(1, 64)), "max_n": trace.max_n}
        tasks.append({"task": i, "op": "entropy", "inputs": inputs, "result": _trace_doc(trace, entropy, False),
                      "verdict": None, "error": None, "elapsed_ms": 0.0})
    if draw(st.booleans()):
        inputs = {"subgroup": draw(NAMES)}
        tasks.append({"task": len(tasks), "op": "growth", "inputs": inputs, "result": None, "verdict": None,
                      "error": f"ValueError: {draw(NAMES)}", "elapsed_ms": 1.5})
    return Report(scenario=draw(NAMES), tasks=tasks, all_ok=draw(st.booleans()))


# an index of 16,000 bits, past the interpreter's 4300-digit limit on str(int)
_LONG = GrowthTrace(None, None, (3, 2**20), 800, 2**20)
_LONG_REPORT = Report(
    scenario='long "table":[] \\',
    tasks=[{"task": 0, "op": "growth", "inputs": {"subgroup": "表\"table\":[]", "k": 1, "max_n": 800},
            "result": _trace_doc(_LONG, ExactLog(2**20, "closed_form"), False),
            "verdict": None, "error": None, "elapsed_ms": 0.0}],
    all_ok=True,
)


@seed(20190519)
@given(reports())
@example(_LONG_REPORT)
def test_render_is_byte_equal_to_the_row_dict_writer(report):
    for got, want in ((render(report, "json"), reference_json(report)), (render(report, "table"), reference_table(report))):
        if got != want:  # a report can run to megabytes: name the first difference rather than diff the whole text
            at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            raise AssertionError(f"lengths {len(got)}, {len(want)}; at {at}: {got[at:at + 80]!r} against {want[at:at + 80]!r}")


def test_the_long_example_is_past_the_digit_limit():
    assert _LONG.index.bit_length() > 14000
    assert Decimal(json.loads(render(_LONG_REPORT, "json"))["tasks"][0]["result"]["table"][-1]["index"]) == _LONG.index


# -- a long horizon -----------------------------------------------------------

MOD13_POWER = json.dumps({
    "name": "right-shift-mod13-power-k16",
    "ambient": {"kind": "torsion_sum", "modulus": 13},
    "endomorphism": {"kind": "right_shift"},
    "subgroups": {"H": [{"0": 1}]},
    "tasks": [{"op": "entropy_power_on_trajectory", "subgroup": "H", "k": 16, "max_n": 2000}],
})


def test_a_long_horizon_report_renders_in_time_linear_in_its_size():
    # 2,000 indices up to 13^(16*1999), 118,000 bits: str(int) on each took 16 s
    report = run(parse_scenario(MOD13_POWER))
    for fmt in ("table", "json"):
        started = time.perf_counter()
        text = render(report, fmt)
        took = time.perf_counter() - started
        assert took < 3.0, f"{fmt}: {took:.2f} s"
    start = text.rindex('{"n":2000,')
    last = json.loads(text[start : text.index("}", start) + 1])
    assert (last["increment"], Decimal(last["index"])) == (None, 13 ** (16 * 1999))
