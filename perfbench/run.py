"""Scenario benchmark for entropy-lab.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client runs the workload's scenario documents (``gen.py``) through the
CLI layer in-process, in a closed loop with no extra threads:
``cli.parse_scenario`` -> ``cli.run`` -> ``cli.render(..., "json")`` per
scenario, in whole rounds of the same documents until ``--seconds`` have
passed. An untimed first round checks every report against ``reference.py``;
every timed report must then equal it byte for byte apart from
``elapsed_ms``. Scenarios that fail are counted and left out of the timings.
A speed probe (``probe.py``) runs before every timed scenario, and each
scenario's time is scaled to the probe's nominal speed, which takes the
shared host's drift out of the reported times.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` instruments the
package (``spans.py``), prints the per-layer metrics and writes the spans to
``perfbench/out/``. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import gc
import os
import sys
import time

from probe import NOMINAL_S, probe

# Until set-up has been measured this file imports nothing that the package
# imports too (json, argparse, fractions, ...), or that import would not be
# counted in setup_s. Hence the hand-made argument parsing, this copy of
# gen.WORKLOADS, and a probe module that imports nothing.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("torsion-stencil", "torsion-power", "rational-matrix", "oracle-verify")
SETUP_REPEATS = 15
# The tail is the highest percentile, in steps of 5, that keeps at least ten
# samples beyond it in a 20 s run made at two thirds of the reference speed
# (oracle-verify then completes 3 rounds of 28 scenarios; the others at
# least 135 scenarios).
TAIL_PERCENTILE = {"torsion-stencil": 90, "torsion-power": 90, "rational-matrix": 90, "oracle-verify": 85}
USAGE = "usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>"


def parse_args(argv: list[str]) -> dict:
    if len(argv) % 2:
        raise SystemExit(USAGE)
    opts = dict(zip(argv[::2], argv[1::2]))
    if set(opts) != {"--workload", "--seed", "--seconds", "--trace"}:
        raise SystemExit(USAGE)
    if opts["--workload"] not in WORKLOADS:
        raise SystemExit(f"unknown workload {opts['--workload']!r}; expected one of {', '.join(WORKLOADS)}")
    try:
        seed, seconds, trace = int(opts["--seed"]), float(opts["--seconds"]), int(opts["--trace"])
    except ValueError as e:
        raise SystemExit(f"{USAGE}: {e}") from e
    if seconds <= 0 or trace not in (0, 1):
        raise SystemExit(USAGE)
    return {"workload": opts["--workload"], "seed": seed, "seconds": seconds, "trace": trace}


def median(values: list[float]) -> float:
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def timed_probe() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def measure_setup(repeats: int) -> tuple[float, list[float], list[float]]:
    """Time to import ``entropy_lab`` and its CLI from an empty module cache.

    Every module that the import loads (the package and the standard-library
    modules it pulls in) is dropped from ``sys.modules`` before each repeat,
    so each import does the work a fresh process does; the copy it replaces
    is garbage-collected first, outside the timing. A probe runs before each
    import; the result is the median import time at the probe's nominal
    speed. Returns it, the raw import times and the probe times.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    baseline = set(sys.modules)
    times, probes = [], []
    timed_probe()  # warm-up
    for _ in range(repeats):
        for name in set(sys.modules) - baseline:
            del sys.modules[name]
        gc.collect()
        probes.append(timed_probe())
        start = time.perf_counter()
        __import__("entropy_lab.cli")
        times.append(time.perf_counter() - start)
    return median(times) * NOMINAL_S / median(probes), times, probes


def speed_factors(probes: list[float]) -> list[float]:
    """Scale factor of attempt ``j`` to the probe's nominal speed.

    ``probes[j]`` ran just before attempt ``j`` and ``probes[j + 1]`` just
    after it; the factor uses the median of the three probes before and the
    three after, which follows the machine's drift over a few seconds and
    is not thrown by one probe that the host happened to slow down.
    """
    return [NOMINAL_S / median(probes[max(0, j - 2) : j + 4]) for j in range(len(probes) - 1)]


class DeadlineExceeded(Exception):
    """Raised by SIGALRM inside a scenario that has a bounded wait."""


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    setup_s, setup_times, setup_probes = measure_setup(SETUP_REPEATS)

    import json
    import resource
    import signal

    import gen
    import reference
    import spans

    package = sys.modules["entropy_lab"]
    cli = sys.modules["entropy_lab.cli"]
    tracer = None
    if args["trace"]:
        tracer = spans.Tracer()
        spans.instrument(tracer, package)

    def on_alarm(signum, frame):
        raise DeadlineExceeded()

    signal.signal(signal.SIGALRM, on_alarm)

    cases = gen.generate(args["workload"], args["seed"])
    docs = [json.loads(c.text) for c in cases]
    steps = [sum(reference.task_steps(doc, t) for t in doc["tasks"]) for doc in docs]

    def attempt(i: int) -> tuple[float, str | None]:
        """Run case ``i`` once; returns (seconds, JSON report or None if its wait ran out)."""
        case = cases[i]
        if case.deadline_s is not None:
            signal.setitimer(signal.ITIMER_REAL, case.deadline_s)
        start = time.perf_counter()
        try:
            report = cli.run(cli.parse_scenario(case.text), verify_oracle=case.verify_oracle)
            out = cli.render(report, "json")
            took = time.perf_counter() - start
        except DeadlineExceeded:
            if tracer:
                tracer.stack.clear()  # the alarm may have cut a span short
            return time.perf_counter() - start, None
        finally:
            if case.deadline_s is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
        return took, out

    # untimed round: every report is checked against the reference
    checked: list[str | None] = []
    mismatches: list[str] = []
    for i, case in enumerate(cases):
        if tracer:
            tracer.request = -1
        _, out = attempt(i)
        if out is None:
            checked.append(None)
            continue
        task_failures, errors = reference.check_report(docs[i], json.loads(out), case.verify_oracle)
        for line in task_failures:
            print(f"FAILED {case.name}: {line}", file=sys.stderr)
        mismatches.extend(f"{case.name}: {e}" for e in errors)
        checked.append(None if errors or task_failures else gen.strip_elapsed(out))

    # timed rounds: a probe before every attempt and one after the last
    timings: list[tuple[float, int] | None] = []  # (seconds, steps) per attempt; None if it failed
    probes: list[float] = []
    attempted = failed = 0
    failures: dict[str, int] = {}
    kept: set[int] = set()
    request = 0
    started = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - started < args["seconds"]:
        rounds += 1
        for i, case in enumerate(cases):
            request += 1
            if tracer:
                tracer.request = request
            attempted += 1
            probes.append(timed_probe())
            took, out = attempt(i)
            if out is None or checked[i] is None or gen.strip_elapsed(out) != checked[i]:
                if out is not None and checked[i] is not None:
                    mismatches.append(f"{case.name}: report differs from the checked one")
                failed += 1
                failures[case.name] = failures.get(case.name, 0) + 1
                timings.append(None)
                continue
            kept.add(request)
            timings.append((took, steps[i]))
    probes.append(timed_probe())
    measured = time.perf_counter() - started
    raw = sorted(t[0] for t in timings if t)
    samples = sorted(t[0] * f for t, f in zip(timings, speed_factors(probes)) if t)
    total_steps = sum(t[1] for t in timings if t)

    for line in mismatches[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    n = len(samples)
    tail_pct = TAIL_PERCENTILE[args["workload"]]
    tail_rank = max(1, -(-n * tail_pct // 100))  # nearest rank
    e2e = {
        "setup_s": (setup_s, "s"),
        "steps_per_s": (total_steps / sum(samples) if samples else 0.0, "steps/s"),
        "scenario_p50_ms": (1000.0 * samples[(n - 1) // 2] if samples else 0.0, "ms"),
        "scenario_tail_ms": (1000.0 * samples[tail_rank - 1] if samples else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(
        f"workload {args['workload']} seed {args['seed']}: {len(cases)} scenarios a round, "
        f"{rounds} timed rounds in {measured:.2f} s, {attempted} attempted, {failed} failed"
    )
    for name, count in sorted(failures.items()):
        print(f"  failed {count}x: {name}")
    print(
        f"  setup imports (s): {' '.join(f'{t:.4f}' for t in setup_times)}; "
        f"probes before them (ms): {' '.join(f'{1000 * t:.2f}' for t in setup_probes)}"
    )
    print(
        f"  probe: median {1000 * median(probes):.3f} ms over {len(probes)}, "
        f"nominal {1000 * NOMINAL_S:.3f} ms; tail is p{tail_pct} of {n} samples, {n - tail_rank} beyond it"
    )
    if raw:
        print(
            f"  unscaled: steps_per_s = {total_steps / sum(raw):.6g} steps/s, "
            f"scenario_p50_ms = {1000 * raw[(n - 1) // 2]:.6g} ms, scenario_tail_ms = {1000 * raw[tail_rank - 1]:.6g} ms"
        )
    for name, (value, unit) in e2e.items():
        print(f"  {name} = {value:.6g} {unit}")
    if tracer:
        # totals of one round, so that runs of different length compare; times
        # at the probe's nominal speed, by the run's median probe
        run_factor = NOMINAL_S / median(probes)
        metrics = {
            name: (value / rounds * (run_factor if unit == "s" else 1), unit)
            for name, (value, unit) in spans.layer_metrics(tracer, lambda r: r in kept).items()
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"spans-{args['workload']}-{args['seed']}.jsonl")
        tracer.write(path)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = e2e
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
