"""In-memory span tracing of the engine's modules, for the traced run.

``instrument(tracer, package)`` wraps every public function of each module
(the names in its ``__all__``) and every public method of its public
classes. A wrapped function is rebound wherever a caller looks it up: in its
own module, in every other module of the package that imported it by name
(``cli`` binds ``growth_trace``), and in the package namespace. Callers that
go through the module (``entropy`` calls ``groups.sum``) see the rebound
attribute, and methods are replaced on their class.

Each call records one span ``(request, name, start, end, parent, child_s)``
where ``child_s`` is the time covered by its direct children; self time is
``end - start - child_s``. The few functions in ``HOT`` keep a per-scenario
call count and total instead. Everything stays in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import types

from time import perf_counter

LAYERS = ("cli", "entropy", "endomorphisms", "groups", "linalg", "oracle")

# ``xgcd`` is one step of the accumulators' row elimination, called per pair
# of entries; a span there would move accumulator time out of
# ``groups.accumulate_s`` and multiply the tracing cost.
UNTRACED = {"linalg.xgcd"}

# Called once per generator and step (or per matrix row): each call adds to
# a per-scenario total instead of a span of its own, which keeps a run's
# spans to tens of thousands. Their time still counts as child time of the
# span that called them.
HOT = {
    "endomorphisms.EndoPower.apply",
    "endomorphisms.StencilEndo.apply_once",
    "endomorphisms.MatrixEndo.apply_once",
    "groups.contains",
    "linalg.IntMatrix.row",
}


class Tracer:
    """Spans and per-call counters, kept in memory for one run.

    ``request`` tags every span with the scenario that caused it, so that
    spans of scenarios that failed can be left out of the metrics.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[list] = []
        self.request = -1
        self.totals: dict[tuple[int, str], list] = {}
        self.hnf_cells: dict[int, int] = {}
        self.elements: dict[int, int] = {}

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[sid] = (self.request, name, start, end, parent, frame[1])

        return functools.update_wrapper(traced, fn)

    def wrap_hot(self, name: str, fn):
        """Like ``wrap``, but keeps only a per-scenario (calls, seconds) total."""
        stack, totals = self.stack, self.totals

        def counted(*args, **kwargs):
            frame = [-1, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                total = totals.setdefault((self.request, name), [0, 0.0])
                total[0] += 1
                total[1] += took

        return functools.update_wrapper(counted, fn)

    def count_hnf(self, fn):
        def counted(m, *args, **kwargs):
            self.hnf_cells[self.request] = self.hnf_cells.get(self.request, 0) + m.rows * m.cols
            return fn(m, *args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def count_elements(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.elements[self.request] = self.elements.get(self.request, 0) + len(result.elements)
            return result

        return functools.update_wrapper(counted, fn)

    def write(self, path) -> None:
        """Write the spans, then the per-scenario totals of hot calls, one JSON array a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span, separators=(",", ":")) + "\n")
            for (request, name), (calls, took) in self.totals.items():
                fh.write(json.dumps([request, name, calls, took], separators=(",", ":")) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    return tracer.wrap_hot(name, fn) if name in HOT else tracer.wrap(name, fn)


def instrument(tracer: Tracer, package) -> None:
    """Wrap the public functions and methods of every layer of ``package``."""
    modules = {name: getattr(package, name) for name in LAYERS}
    swap: dict[int, object] = {}
    for short, mod in modules.items():
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if f"{short}.{attr}" in UNTRACED:
                continue
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                wrapped = obj
                if short == "linalg" and attr == "hermite_form":
                    wrapped = tracer.count_hnf(wrapped)
                if short == "oracle" and attr == "enumerate_subgroup":
                    wrapped = tracer.count_elements(wrapped)
                swap[id(obj)] = _wrap(tracer, f"{short}.{attr}", wrapped)
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                        setattr(obj, meth, _wrap(tracer, f"{short}.{obj.__name__}.{meth}", fn))
    for mod in (package, *modules.values()):
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and id(val) in swap:
                setattr(mod, attr, swap[id(val)])


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(tracer: Tracer, keep) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of the requests for which ``keep(request)`` holds."""
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        if span is not None and keep(span[0]):
            by_name.setdefault(span[1], []).append(span)

    def spans(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def incl(*names) -> float:
        """Wall time covered by these spans; nested calls are counted once."""
        return _union([(s[2], s[3]) for s in spans(*names)])

    def self_time(*names) -> float:
        return sum(s[3] - s[2] - s[5] for s in spans(*names))

    def calls(*names) -> int:
        return len(spans(*names))

    hot: dict[str, list] = {}
    for (request, name), (n, took) in tracer.totals.items():
        if keep(request):
            total = hot.setdefault(name, [0, 0.0])
            total[0] += n
            total[1] += took

    def hot_calls(*names) -> int:
        return sum(hot.get(n, (0, 0.0))[0] for n in names)

    def kept(counts: dict[int, int]) -> int:
        return sum(v for r, v in counts.items() if keep(r))

    apply = "endomorphisms.EndoPower.apply"
    once = ("endomorphisms.StencilEndo.apply_once", "endomorphisms.MatrixEndo.apply_once")
    sec, cnt = "s", "count"
    return {
        "cli.parse_s": (incl("cli.parse_scenario"), sec),
        "cli.render_s": (incl("cli.render"), sec),
        "cli.run_self_s": (self_time("cli.run"), sec),
        "entropy.growth_trace_s": (incl("entropy.growth_trace"), sec),
        "entropy.growth_trace_calls": (calls("entropy.growth_trace"), cnt),
        "entropy.inert_certificate_s": (incl("entropy.inert_certificate"), sec),
        "entropy.inert_certificate_calls": (calls("entropy.inert_certificate"), cnt),
        "entropy.find_inert_level_s": (incl("entropy.find_inert_trajectory_level"), sec),
        "entropy.partial_trajectory_s": (incl("entropy.partial_trajectory"), sec),
        "entropy.partial_trajectory_calls": (calls("entropy.partial_trajectory"), cnt),
        "endomorphisms.apply_s": (hot.get(apply, (0, 0.0))[1], sec),
        "endomorphisms.apply_calls": (hot_calls(apply), cnt),
        "endomorphisms.base_applications": (hot_calls(*once), cnt),
        "endomorphisms.image_s": (incl("endomorphisms.EndoPower.image", "endomorphisms.image"), sec),
        "groups.accumulate_s": (
            self_time("entropy.growth_trace", "entropy.partial_trajectory", "entropy.find_inert_trajectory_level"),
            sec,
        ),
        "groups.sum_s": (incl("groups.sum"), sec),
        "groups.quotient_index_s": (incl("groups.quotient_index"), sec),
        "groups.subgroup_order_s": (incl("groups.subgroup_order"), sec),
        "groups.subgroup_s": (incl("groups.subgroup"), sec),
        "groups.contains_calls": (hot_calls("groups.contains"), cnt),
        "linalg.lattice_index_s": (incl("linalg.lattice_index"), sec),
        "linalg.lattice_index_calls": (calls("linalg.lattice_index"), cnt),
        "linalg.hermite_form_s": (incl("linalg.hermite_form"), sec),
        "linalg.hermite_form_calls": (calls("linalg.hermite_form"), cnt),
        "linalg.hnf_cells": (kept(tracer.hnf_cells), cnt),
        "oracle.enumerate_s": (incl("oracle.enumerate_subgroup"), sec),
        "oracle.enumerate_calls": (calls("oracle.enumerate_subgroup"), cnt),
        "oracle.elements_enumerated": (kept(tracer.elements), cnt),
    }
