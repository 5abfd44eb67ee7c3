"""Reference checks for scenario reports, made apart from the engine.

Nothing here imports ``entropy_lab``. The checks use their own arithmetic:

* torsion sums over a squarefree modulus ``m``: the trajectory vectors are
  built by applying the stencil here, split by CRT into one copy per prime
  ``p | m``, and ranked by elimination over F_p. Every growth index is then
  ``prod_p p^(rank_p(T_n) - rank_p(H))``;
* rank-1 rational maps ``x -> (a/b) x``: the trajectory of ``gZ`` is cyclic,
  its generator is a ``Fraction`` gcd, and the entropy is ``log b``;
* rank >= 2 rational maps: the entropy on the trajectory of one seed vector
  is ``log s``, where ``s`` is the leading coefficient of the primitive
  integer minimal polynomial of the seed (the intrinsic Yuzvinski formula of
  Dikranjan, Giordano Bruno, Salce and Virili, "Intrinsic algebraic
  entropy", J. Pure Appl. Algebra 219 (2015)). The polynomial comes from
  ``Fraction`` Krylov elimination.

``check_report(doc, report)`` takes a scenario document and the parsed JSON
report of that document and returns its failed tasks and its disagreements
with the reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

DEFAULT_MAX_N = 64
DEFAULT_WINDOW = 4


# ---------------------------------------------------------------------------
# torsion sums


def prime_factors(m: int) -> list[int]:
    """Primes of a squarefree modulus; raises for a modulus that is not squarefree."""
    primes, rest, p = [], m, 2
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                raise ValueError(f"modulus {m} is not squarefree")
            primes.append(p)
        p += 1
    if rest > 1:
        primes.append(rest)
    return primes


def apply_stencil(taps: list[tuple[int, int]], m: int, vec: dict[int, int]) -> dict[int, int]:
    """``e_i -> sum c * e_(i+off)`` mod ``m``; terms landing below index 0 are dropped."""
    out: dict[int, int] = {}
    for i, r in vec.items():
        for off, c in taps:
            j = i + off
            if j >= 0:
                out[j] = (out.get(j, 0) + c * r) % m
    return {j: r for j, r in out.items() if r}


class FpSpan:
    """Row span over F_p, grown one vector at a time; ``rank`` is its dimension."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, object] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def absorb(self, vec: dict[int, int]) -> None:
        if self.p == 2:
            self._absorb_bits(sum(1 << i for i, r in vec.items() if r % 2))
        else:
            self._absorb_dict({i: r % self.p for i, r in vec.items() if r % self.p})

    def _absorb_bits(self, v: int) -> None:
        rows = self.rows
        while v:
            lead = (v & -v).bit_length() - 1
            row = rows.get(lead)
            if row is None:
                rows[lead] = v
                return
            v ^= row

    def _absorb_dict(self, v: dict[int, int]) -> None:
        p, rows = self.p, self.rows
        while v:
            lead = min(v)
            row = rows.get(lead)
            if row is None:
                inv = pow(v[lead], -1, p)
                rows[lead] = {i: r * inv % p for i, r in v.items()}
                return
            a = v[lead]
            for i, r in row.items():
                t = (v.get(i, 0) - a * r) % p
                if t:
                    v[i] = t
                else:
                    v.pop(i, None)


def torsion_indices(m: int, taps, gens, stride: int, start: int, count: int) -> list[int]:
    """``|T_(start + stride*(n-1)) / T_start|`` for ``n = 1 .. count``.

    ``T_t`` is the span of the first ``t`` stencil iterates of ``gens``.
    """
    primes = prime_factors(m)
    spans = {p: FpSpan(p) for p in primes}
    last = start + stride * (count - 1)
    ranks: list[dict[int, int]] = []
    cur = [dict(g) for g in gens]
    for t in range(1, last + 1):
        if t > 1:
            cur = [apply_stencil(taps, m, g) for g in cur]
        for g in cur:
            for span in spans.values():
                span.absorb(g)
        ranks.append({p: s.rank for p, s in spans.items()})
    base = ranks[start - 1]
    return [
        math.prod(p ** (ranks[start + stride * n - 1][p] - base[p]) for p in primes)
        for n in range(count)
    ]


def power_stencil(taps, m: int, k: int):
    """Step map of the k-th power, as a function on sparse vectors."""

    def step(vec):
        for _ in range(k):
            vec = apply_stencil(taps, m, vec)
        return vec

    return step


def torsion_indices_wrt(m: int, taps, k: int, gens, count: int) -> list[int]:
    """``|T_n(f^k, H) / H|`` for ``H`` spanned by ``gens``, ``n = 1 .. count``."""
    primes = prime_factors(m)
    spans = {p: FpSpan(p) for p in primes}
    step = power_stencil(taps, m, k)
    out: list[int] = []
    cur = [dict(g) for g in gens]
    base = None
    for n in range(count):
        if n:
            cur = [step(g) for g in cur]
        for g in cur:
            for span in spans.values():
                span.absorb(g)
        ranks = {p: s.rank for p, s in spans.items()}
        base = base or ranks
        out.append(math.prod(p ** (ranks[p] - base[p]) for p in primes))
    return out


# ---------------------------------------------------------------------------
# rational maps


def fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Generator of ``aZ + bZ`` for non-negative fractions."""
    return Fraction(math.gcd(a.numerator * b.denominator, b.numerator * a.denominator), a.denominator * b.denominator)


def rank1_indices(ratio: Fraction, seed: Fraction, stride: int, start: int, count: int) -> list[int]:
    """``|T_(start + stride*(n-1)) / T_start|`` on the trajectory of ``seed Z`` under ``x -> ratio x``."""
    last = start + stride * (count - 1)
    gens: list[Fraction] = []
    term, gen = abs(seed), Fraction(0)
    for t in range(last):
        if t:
            term *= abs(ratio)
        gen = fraction_gcd(gen, term)
        gens.append(gen)
    out = []
    for n in range(count):
        q = gens[start - 1] / gens[start + stride * n - 1]
        if q.denominator != 1:
            raise ValueError("rank-1 index is not an integer")
        out.append(q.numerator)
    return out


def minimal_polynomial(matrix: list[list[Fraction]], seed: list[Fraction]) -> list[int]:
    """Primitive integer minimal polynomial of ``seed`` under ``matrix``, low degree first.

    Krylov vectors ``v, Av, A^2 v, ...`` are reduced by Fraction elimination
    until one depends on the earlier ones; the dependency gives the monic
    minimal polynomial, which is then scaled to a primitive integer one with
    a positive leading coefficient.
    """
    n = len(seed)
    basis: list[tuple[int, list[Fraction], list[Fraction]]] = []  # (pivot, reduced vec, combination)
    vec = list(seed)
    degree = 0
    while True:
        red = list(vec)
        comb = [Fraction(0)] * (degree + 1)
        comb[degree] = Fraction(1)
        for piv, row, rcomb in basis:
            if red[piv]:
                f = red[piv] / row[piv]
                red = [a - f * b for a, b in zip(red, row)]
                for i, c in enumerate(rcomb):
                    comb[i] -= f * c
        lead = next((i for i, a in enumerate(red) if a), None)
        if lead is None:
            break
        basis.append((lead, red, comb))
        vec = [sum((matrix[i][j] * vec[j] for j in range(n)), Fraction(0)) for i in range(n)]
        degree += 1
    # comb . (v, Av, ..., A^degree v) = 0 with comb[degree] = 1
    scale = math.lcm(*(c.denominator for c in comb))
    ints = [int(c * scale) for c in comb]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def rational_entropy_base(matrix: list[list[Fraction]], seed: list[Fraction]) -> int:
    """``c`` with entropy ``log c`` on the trajectory of ``seed``: the leading coefficient."""
    return abs(minimal_polynomial(matrix, seed)[-1])


# ---------------------------------------------------------------------------
# report checks


def _parse_scalar(v) -> Fraction:
    return Fraction(v) if isinstance(v, str) else Fraction(int(v))


def _task_opts(doc: dict, task: dict) -> tuple[int, int, int]:
    opts = doc.get("options", {})
    max_n = task.get("max_n", opts.get("max_n", DEFAULT_MAX_N))
    window = task.get("stability_window", opts.get("stability_window", min(DEFAULT_WINDOW, max_n)))
    return max_n, window, task.get("k", 1)


def task_steps(doc: dict, task: dict) -> int:
    """Trajectory steps a task needs: ``max_n`` per growth trace it builds.

    ``trajectory_identity`` builds no growth trace; it counts the lengths of
    the two partial trajectories it compares.
    """
    max_n, _, k = _task_opts(doc, task)
    op = task["op"]
    if op in ("growth", "entropy", "entropy_on_trajectory", "entropy_power_on_trajectory"):
        return max_n
    if op == "log_law":
        return 2 * max_n
    if op == "trajectory_identity":
        n = task["n"]
        return n + k * n - k + 1
    if op == "counterexample":
        return 8 + 8 + 16 + 16
    return 0


class _Checker:
    def __init__(self, doc: dict, report: dict, verify_oracle: bool):
        self.doc = doc
        self.report = report
        self.verify_oracle = verify_oracle
        self.errors: list[str] = []
        self.task_failures: list[str] = []
        amb = doc["ambient"]
        self.torsion = amb["kind"] == "torsion_sum"
        if self.torsion:
            self.m = amb["modulus"]
            endo = doc["endomorphism"]
            kind = endo["kind"]
            if kind == "right_shift":
                self.taps = [(1, 1)]
            elif kind == "left_shift":
                self.taps = [(-1, 1)]
            else:
                self.taps = [(t["offset"], t["coeff"]) for t in endo["taps"]]
            self.subgroups = {
                name: [{int(i): r % self.m for i, r in g.items() if r % self.m} for g in gens]
                for name, gens in doc["subgroups"].items()
            }
        else:
            self.rank = amb["rank"]
            self.matrix = [[_parse_scalar(e) for e in row] for row in doc["endomorphism"]["entries"]]
            self.subgroups = {
                name: [[_parse_scalar(e) for e in g] for g in gens] for name, gens in doc["subgroups"].items()
            }

    def fail(self, where: str, msg: str) -> None:
        self.errors.append(f"{where}: {msg}")

    def run(self) -> tuple[list[str], list[str]]:
        tasks = self.report.get("tasks", [])
        if len(tasks) != len(self.doc["tasks"]):
            self.fail("report", f"{len(tasks)} task records for {len(self.doc['tasks'])} tasks")
            return self.task_failures, self.errors
        for i, (task, rec) in enumerate(zip(self.doc["tasks"], tasks)):
            where = f"tasks[{i}] {task['op']}"
            if rec.get("error") is not None:
                self.task_failures.append(f"{where}: task error {rec['error']}")
                continue
            if rec.get("verdict") is False:
                self.task_failures.append(f"{where}: checked verdict is false")
            check = getattr(self, "_check_" + task["op"], None)
            if check is None:
                self.fail(where, "no reference check for this op")
            else:
                check(where, task, rec["result"])
        if self.report.get("all_ok") is not True and not self.errors and not self.task_failures:
            self.fail("report", "all_ok is not true")
        return self.task_failures, self.errors

    # -- pieces -------------------------------------------------------------

    def _table(self, where: str, result: dict, expected: list[int], max_n: int) -> None:
        table = result.get("table", [])
        if len(table) != max_n:
            self.fail(where, f"table has {len(table)} rows, expected {max_n}")
            return
        for i, row in enumerate(table):
            if row["n"] != i + 1:
                self.fail(where, f"row {i} has n={row['n']}")
                return
            if i and int(table[i]["index"]) != int(table[i - 1]["index"]) * int(table[i - 1]["increment"]):
                self.fail(where, f"indices[{i + 1}] != indices[{i}] * increments[{i}]")
                return
        if expected is not None:
            got = [int(row["index"]) for row in table]
            if got != expected:
                n = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
                self.fail(where, f"index at n={n + 1}: report {got[n]}, reference {expected[n]}")

    def _exact(self, where: str, doc: dict, c: int, label: str = "entropy") -> None:
        if doc is None or doc.get("kind") != "exact":
            self.fail(where, f"{label} is not exact: {doc}")
        elif int(doc["c"]) != c:
            self.fail(where, f"{label} c={doc['c']}, reference {c}")

    def _tail_c(self, where: str, expected: list[int], window: int) -> int:
        incs = [b // a for a, b in zip(expected, expected[1:])]
        if not incs or expected[-1] == expected[-2]:
            return 1
        tail = incs[-window:]
        if len(set(tail)) != 1:
            self.fail(where, f"reference increments do not settle: {tail}")
        return tail[-1]

    def _oracle(self, where: str, result: dict) -> None:
        if not self.verify_oracle:
            return
        orc = result.get("oracle")
        if orc is None:
            self.fail(where, "no oracle record")
        elif orc["checked"] < 1:
            self.fail(where, f"oracle checked nothing: {orc}")

    def _rational_base_c(self, gens) -> int:
        if len(gens) != 1:
            raise ValueError("rational reference checks take one seed vector")
        if self.rank == 1:
            return self.matrix[0][0].denominator
        return rational_entropy_base(self.matrix, gens[0])

    def _krylov_dim(self, gens) -> int:
        return len(minimal_polynomial(self.matrix, gens[0])) - 1

    def _traj_indices(self, gens, stride: int, start: int, count: int):
        """Indices along the trajectory of ``gens`` under the base map, or None when unchecked."""
        if self.torsion:
            return torsion_indices(self.m, self.taps, gens, stride, start, count)
        if self.rank == 1:
            return rank1_indices(self.matrix[0][0], gens[0][0], stride, start, count)
        return None

    def _wrt_indices(self, gens, k: int, count: int):
        if self.torsion:
            return torsion_indices_wrt(self.m, self.taps, k, gens, count)
        if self.rank == 1:
            ratio = self.matrix[0][0] ** k
            if len(gens) == 1:
                return rank1_indices(ratio, gens[0][0], 1, 1, count)
        return None

    # -- ops ----------------------------------------------------------------

    def _check_growth(self, where, task, result, entropy=False):
        max_n, window, k = _task_opts(self.doc, task)
        gens = self.subgroups[task["subgroup"]]
        expected = self._wrt_indices(gens, k, max_n)
        self._table(where, result, expected, max_n)
        if entropy:
            if expected is None:
                self._exact(where, result.get("entropy"), self._rational_base_c(gens) ** k)
            else:
                self._exact(where, result.get("entropy"), self._tail_c(where, expected, window))
        self._oracle(where, result)

    def _check_entropy(self, where, task, result):
        self._check_growth(where, task, result, entropy=True)

    def _level(self, where, result, gens) -> int:
        level = result.get("inert_level")
        want = 1 if self.torsion else self._krylov_dim(gens)
        if level != want:
            self.fail(where, f"inert level {level}, reference {want}")
        return want

    def _check_entropy_on_trajectory(self, where, task, result):
        self._power_on_trajectory(where, task, result, 1)

    def _check_entropy_power_on_trajectory(self, where, task, result):
        self._power_on_trajectory(where, task, result, task["k"])

    def _base_c(self, gens, window: int, max_n: int) -> int:
        """``c`` of the base map on the trajectory of ``gens``."""
        if self.torsion:
            return self._tail_c("base", self._traj_indices(gens, 1, 1, max_n), window)
        return self._rational_base_c(gens)

    def _power_on_trajectory(self, where, task, result, k):
        max_n, window, _ = _task_opts(self.doc, task)
        gens = self.subgroups[task["subgroup"]]
        m = self._level(where, result, gens)
        # H = T_(m+k-1)(f, seed); T_n(f^k, H) = T_(m+k-1 + k(n-1))(f, seed)
        expected = self._traj_indices(gens, k, m + k - 1, max_n)
        self._table(where, result, expected, max_n)
        c = self._base_c(gens, window, max_n) ** k
        if expected is not None and self._tail_c(where, expected, window) != c:
            self.fail(where, f"reference tail of the power trace is not c_base^{k} = {c}")
        self._exact(where, result.get("entropy"), c)
        self._oracle(where, result)

    def _check_log_law(self, where, task, result):
        max_n, window, k = _task_opts(self.doc, task)
        base = self._base_c(self.subgroups[task["subgroup"]], window, max_n)
        self._exact(where, result.get("entropy_base"), base, "entropy_base")
        self._exact(where, result.get("entropy_power"), base**k, "entropy_power")
        self._exact(where, result.get("k_times_base"), base**k, "k_times_base")
        if result.get("law_holds") is not True:
            self.fail(where, f"law_holds is {result.get('law_holds')}")

    def _check_trajectory_identity(self, where, task, result):
        if result.get("equal") is not True:
            self.fail(where, f"trajectory identity equal={result.get('equal')}")

    def _check_counterexample(self, where, task, result):
        rows = result.get("rows", [])
        want = [(n, 2 ** (n - 1), 2 ** (2 * n - 2)) for n in range(1, 9)]
        got = [(r["n"], int(r["index_h"]), int(r["index_hp"])) for r in rows]
        if got != want:
            self.fail(where, f"counterexample rows {got}")
        self._exact(where, result.get("entropy_h"), 2, "entropy_h")
        self._exact(where, result.get("entropy_hp"), 4, "entropy_hp")
        if result.get("distinct") is not True:
            self.fail(where, "entropies are not distinct")
        certs = result.get("certificates", {})
        if len(certs) != 4 or not all(c.get("inert") is True for c in certs.values()):
            self.fail(where, f"certificates {certs}")


def check_report(doc: dict, report: dict, verify_oracle: bool = False) -> tuple[list[str], list[str]]:
    """``(failures, disagreements)`` of a report; both empty when it is right.

    Failures are tasks that errored or whose checked verdict is false;
    disagreements are outputs that differ from the reference checks.
    """
    return _Checker(doc, report, verify_oracle).run()
