"""Seeded scenario documents for the four benchmark workloads.

Each workload is a fixed list of slots. A slot fixes what sets the cost of
a scenario (family, task, ``k``, ``max_n``); the seed draws the rest:

* the prime modulus of a right shift, the coordinate and unit of a torsion
  seed, and the coefficients of a rank-1 rational map, which barely move
  the cost;
* stencil coefficient patterns and rational polynomials, which move it a
  lot. These are drawn from ``catalogue.json``: per slot, entries whose
  time on the reference machine lies within a factor 1.3 of each other
  (see README.md, "Catalogue").

So two seeds give different documents but about the same work, and the
order of the slots in a round is shuffled by the seed too.

Regenerate the documents of one workload and seed, and check that each
report is byte-identical across two runs apart from ``elapsed_ms``:

    python3 perfbench/gen.py --workload torsion-stencil --seed 1 --out perfbench/out/docs
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = json.loads((Path(__file__).resolve().parent / "catalogue.json").read_text(encoding="utf-8"))

WORKLOADS = ("torsion-stencil", "torsion-power", "rational-matrix", "oracle-verify")

# The one operation that fails today: a 3-tap stencil mod 6 at the default
# max_n=64. Lift entries are never reduced mod m, so they reach ~10^6 bits
# by n=24 and the run does not end. It gets this bounded wait and counts as
# failed until the accumulator reduces mod m; then it completes in ~15 ms.
KNOWN_FAULT_DEADLINE_S = 0.5

PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class Case:
    """One scenario document and how the benchmark runs it."""

    name: str
    text: str
    verify_oracle: bool = False
    deadline_s: float | None = None


def _text(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _torsion(name: str, m: int, endo, gens: list[dict], tasks: list[dict]) -> dict:
    if endo in ("right_shift", "left_shift"):
        endo_doc = {"kind": endo}
    else:
        endo_doc = {"kind": "stencil", "taps": [{"offset": o, "coeff": c} for o, c in endo]}
    return {
        "name": name,
        "ambient": {"kind": "torsion_sum", "modulus": m},
        "endomorphism": endo_doc,
        "subgroups": {"H": [{str(i): r for i, r in sorted(g.items())} for g in gens]},
        "tasks": tasks,
    }


def _seed_vector(rng: random.Random, m: int) -> dict:
    """``u * e_j`` for a unit ``u`` mod ``m`` and ``j`` in 0..3."""
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    return {rng.randrange(4): rng.choice(units)}


def _companion(coeffs: list[int]) -> list[list[str]]:
    """Companion matrix of ``sum coeffs[i] x^i``: ``e_i -> e_(i+1)``, last column ``-a_i / a_d``."""
    d = len(coeffs) - 1
    rows = [["0"] * d for _ in range(d)]
    for i in range(d - 1):
        rows[i + 1][i] = "1"
    for i in range(d):
        rows[i][d - 1] = str(Fraction(-coeffs[i], coeffs[-1]))
    return rows


def _rational(name: str, coeffs: list[int], tasks: list[dict]) -> dict:
    d = len(coeffs) - 1
    return {
        "name": name,
        "ambient": {"kind": "rational", "rank": d},
        "endomorphism": {"kind": "matrix", "entries": _companion(coeffs)},
        "subgroups": {"H": [["1"] + ["0"] * (d - 1)]},
        "tasks": tasks,
    }


def _committed(name: str, verify_oracle: bool = False) -> Case:
    text = (ROOT / "scenarios" / f"{name}.json").read_text(encoding="utf-8")
    return Case(name, text, verify_oracle)


def _task(op: str, **fields) -> dict:
    return {"op": op, "subgroup": "H", **fields}


# ---------------------------------------------------------------------------
# workloads


def torsion_stencil(rng: random.Random) -> list[Case]:
    cases: list[Case] = []
    ops = ("entropy", "entropy_on_trajectory")

    def add(name: str, m: int, taps, n: int) -> None:
        doc = _torsion(name, m, taps, [_seed_vector(rng, m)], [_task(rng.choice(ops), max_n=n)])
        cases.append(Case(name, _text(doc)))

    # 2-tap stencils with unit coefficients: no blow-up at the default horizon
    for m in (2, 3, 5, 6, 7, 10):
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        add(f"stencil2-mod{m}-n64", m, [(0, rng.choice(units)), (1, rng.choice(units))], 64)
    # 3-tap stencils whose lift entries blow up, at horizons from the catalogue
    for tier in ("mid", "heavy"):
        for m, entries in CATALOGUE["stencil"][tier].items():
            coeffs, n, _ = rng.choice(entries)
            add(f"stencil3-mod{m}-{tier}", int(m), list(enumerate(coeffs)), n)
    # mod 2: no coefficient growth, the dense absorb at long horizons
    for i in range(4):
        add(f"stencil2-mod2-long-{i}", 2, [(0, 1), (1, 1)], rng.randint(248, 256))
    for i in range(3):
        add(f"stencil3-mod2-long-{i}", 2, [(0, 1), (1, 1), (2, 1)], rng.randint(156, 164))
    for i in range(4):
        add(f"stencil3-mod2-n256-{i}", 2, [(0, 1), (1, 1), (2, 1)], rng.randint(250, 256))
    rng.shuffle(cases)
    name = "stencil3-mod6-default"
    doc = _torsion(name, 6, [(0, 1), (1, 1), (2, 1)], [{0: 1}], [_task("entropy")])
    cases.append(Case(name, _text(doc), deadline_s=KNOWN_FAULT_DEADLINE_S))
    return cases


# (name, endomorphism, op, k, max_n); "rs" is a right shift over a seeded prime
_POWER_SLOTS = (
    ("rs-log-k2-n64", "rs", "log_law", 2, 64),
    ("rs-power-k2-n128", "rs", "entropy_power_on_trajectory", 2, 128),
    ("rs-log-k4-n64", "rs", "log_law", 4, 64),
    ("st2-power-k2-n64", "st2", "entropy_power_on_trajectory", 2, 64),
    ("rs-identity-k2-n64", "rs", "trajectory_identity", 2, 64),
    ("rs-log-k2-n256", "rs", "log_law", 2, 256),
    ("rs-power-k8-n64", "rs", "entropy_power_on_trajectory", 8, 64),
    ("st2-log-k2-n128", "st2", "log_law", 2, 128),
    ("rs-log-k4-n128", "rs", "log_law", 4, 128),
    ("rs-identity-k4-n64", "rs", "trajectory_identity", 4, 64),
    ("st2-identity-k2-n64", "st2", "trajectory_identity", 2, 64),
    ("st3-log-k2-n64", "st3", "log_law", 2, 64),
    ("rs-log-k16-n64", "rs", "log_law", 16, 64),
    ("rs-power-k4-n256", "rs", "entropy_power_on_trajectory", 4, 256),
    ("rs-log-k8-n128", "rs", "log_law", 8, 128),
    ("rs-identity-k2-n256", "rs", "trajectory_identity", 2, 256),
    ("st2-log-k4-n64", "st2", "log_law", 4, 64),
    ("rs-power-k16-n64", "rs", "entropy_power_on_trajectory", 16, 64),
)


def torsion_power(rng: random.Random) -> list[Case]:
    cases = [_committed("bernoulli-3-2")]
    for name, family, op, k, n in _POWER_SLOTS:
        if family == "rs":
            m, endo = rng.choice(PRIMES), "right_shift"
        else:
            m, endo = 2, [(0, 1), (1, 1)] if family == "st2" else [(0, 1), (1, 1), (2, 1)]
        if op == "trajectory_identity":
            task = _task(op, k=k, m=1, n=n)
        else:
            task = _task(op, k=k, max_n=n)
        doc = _torsion(name, m, endo, [_seed_vector(rng, m)], [task])
        cases.append(Case(name, _text(doc)))
    rng.shuffle(cases)
    return cases


# (catalogue key "degree:task", where task is e<max_n> or l<k> at max_n 64)
_RATIONAL_SLOTS = (
    "2:e64", "2:l3", "3:e64",
    "2:e256", "3:e128", "3:l2", "3:l3", "4:e64", "5:e64", "3:l4",
    "3:e256", "4:l4", "5:e128", "5:l2", "4:l3",
)


def _rank1_ratio(rng: random.Random) -> list[int]:
    """``[a0, a1]`` with ``a1 >= 2`` and ``gcd(a0, a1) = 1``: the map ``x -> -a0/a1 x``."""
    while True:
        a0, a1 = rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9)
        if math.gcd(a0, a1) == 1:
            return [a0, a1]


def rational_matrix(rng: random.Random) -> list[Case]:
    cases = [_committed("rational-mult-3-2-2")]
    for name, task in (
        ("rank1-traj-n256", _task("entropy_on_trajectory", max_n=256)),
        ("rank1-log-n64", _task("log_law", k=rng.randint(2, 4), max_n=64)),
    ):
        cases.append(Case(name, _text(_rational(name, _rank1_ratio(rng), [task]))))
    for key in _RATIONAL_SLOTS:
        coeffs, _ = rng.choice(CATALOGUE["rational"][key])
        degree, spec = key.split(":")
        if spec.startswith("e"):
            task = _task("entropy_on_trajectory", max_n=int(spec[1:]))
        else:
            task = _task("log_law", k=int(spec[1:]), max_n=64)
        name = f"companion-deg{degree}-{spec}"
        cases.append(Case(name, _text(_rational(name, coeffs, [task]))))
    rng.shuffle(cases)
    return cases


# (name, modulus, endomorphism, op, k, max_n). The prime moduli are fixed per
# slot: drawing 3 or 5 from the seed moved the cost of a slot up to 1.6x.
_ORACLE_TORSION = (
    ("mod6-rs-n16", 6, "right_shift", "entropy", 1, 16),
    ("mod6-rs-traj-n16", 6, "right_shift", "entropy_on_trajectory", 1, 16),
    ("mod6-rs-growth-k2-n16", 6, "right_shift", "growth", 2, 16),
    ("mod6-rs-k2-n24", 6, "right_shift", "entropy", 2, 24),
    ("mod6-st2-n16", 6, "st2", "entropy", 1, 16),
    ("mod6-st2-traj-n16", 6, "st2", "entropy_on_trajectory", 1, 16),
    ("mod6-rs-growth-k1-n16", 6, "right_shift", "growth", 1, 16),
    ("mod6-st2-growth-k1-n16", 6, "st2", "growth", 1, 16),
    ("mod6-rs-n32", 6, "right_shift", "entropy", 1, 32),
    ("mod3-rs-n16", 3, "right_shift", "entropy", 1, 16),
    ("mod5-rs-traj-n32", 5, "right_shift", "entropy_on_trajectory", 1, 32),
    ("mod3-rs-k2-n16", 3, "right_shift", "entropy", 2, 16),
    ("mod3-st2-n16", 3, "st2", "entropy", 1, 16),
    ("mod3-rs-growth-k2-n16", 3, "right_shift", "growth", 2, 16),
    ("mod2-rs-n16", 2, "right_shift", "entropy", 1, 16),
    ("mod2-st2-n32", 2, "st2", "entropy", 1, 32),
)

# (op, max_n) of the rank-1 rational scenarios
_ORACLE_RANK1 = (
    ("entropy_on_trajectory", 32),
    ("entropy_on_trajectory", 64),
    ("entropy_on_trajectory", 128),
    ("entropy_on_trajectory", 256),
    ("entropy", 32),
    ("entropy", 64),
    ("entropy", 128),
    ("entropy", 256),
    ("growth", 32),
    ("growth", 64),
    ("growth", 128),
)


def oracle_verify(rng: random.Random) -> list[Case]:
    cases = [_committed("paper-example", verify_oracle=True)]
    for name, m, family, op, k, n in _ORACLE_TORSION:
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        endo = [(0, rng.choice(units)), (1, rng.choice(units))] if family == "st2" else family
        task = _task(op, max_n=n) if op == "entropy_on_trajectory" else _task(op, k=k, max_n=n)
        doc = _torsion(name, m, endo, [_seed_vector(rng, m)], [task])
        cases.append(Case(name, _text(doc), verify_oracle=True))
    for op, n in _ORACLE_RANK1:
        task = _task(op, max_n=n) if op == "entropy_on_trajectory" else _task(op, k=rng.randint(1, 2), max_n=n)
        name = f"rank1-{op}-n{n}"
        cases.append(Case(name, _text(_rational(name, _rank1_ratio(rng), [task])), verify_oracle=True))
    rng.shuffle(cases)
    return cases


_BUILDERS = {
    "torsion-stencil": torsion_stencil,
    "torsion-power": torsion_power,
    "rational-matrix": rational_matrix,
    "oracle-verify": oracle_verify,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The scenario documents of one round of ``workload`` for ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# determinism of reports

_ELAPSED = re.compile(r'"elapsed_ms":[-0-9.eE+]+')


def strip_elapsed(report_json: str) -> str:
    """A JSON report with its ``elapsed_ms`` values blanked out."""
    return _ELAPSED.sub('"elapsed_ms":null', report_json)


def check_determinism(cli, cases: list[Case]) -> list[str]:
    """Names of the cases whose JSON report differs between two runs, apart from ``elapsed_ms``."""
    differ = []
    for case in cases:
        if case.deadline_s is not None:
            continue
        first, second = (
            strip_elapsed(cli.render(cli.run(cli.parse_scenario(case.text), verify_oracle=case.verify_oracle), "json"))
            for _ in range(2)
        )
        if first != second:
            differ.append(case.name)
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the documents and manifest.json")
    args = parser.parse_args(argv)
    cases = generate(args.workload, args.seed)
    out = Path(args.out) / f"{args.workload}-{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, case in enumerate(cases):
        path = out / f"{i:02d}-{case.name}.json"
        path.write_text(case.text + "\n", encoding="utf-8")
        manifest.append({"file": path.name, "verify_oracle": case.verify_oracle, "deadline_s": case.deadline_s})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} documents to {out}")
    sys.path.insert(0, str(ROOT / "src"))
    from entropy_lab import cli

    differ = check_determinism(cli, cases)
    if differ:
        print("reports differ between two runs: " + ", ".join(differ), file=sys.stderr)
        return 1
    print(f"{len(cases) - sum(c.deadline_s is not None for c in cases)} reports byte-identical across two runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
