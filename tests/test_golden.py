"""Scenario reports, byte for byte: the JSON apart from ``elapsed_ms``, and the table in full.

``tests/golden`` holds the reports of each file in ``scenarios/`` and of each
input document in ``tests/golden/input/``, with and without
``verify_oracle``: ``<stem>[.verify-oracle].json`` is the ``--format json``
report with ``elapsed_ms`` blanked, and ``<stem>[.verify-oracle].txt`` what
``--format table`` prints. Any change to a verdict, an index, a reference
subgroup, an echoed input or the key order of a report shows up here;
CHANGES.md lists every change made to these files and why.

What each input covers:

- ``paper-example``: the right shift mod 2, ``growth`` and ``entropy`` at
  ``k=2`` from ``H = <e_0>`` and ``Hp = <e_0, e_1>``, and ``counterexample``.
- ``bernoulli-3-2`` and ``rational-mult-3-2-2``: ``log_law`` at ``k=2`` on
  the right shift mod 3 and on multiplication by ``3/2``.
- ``rational-companion-deg3``: a rank-3 rational companion map,
  ``entropy_on_trajectory`` at ``max_n=128`` and ``log_law`` at ``k=3``.
- ``rational-companion-deg3-walks``: the same map from ``F = <e_0>``:
  ``entropy_power_on_trajectory`` and ``log_law`` at ``k=2``,
  ``entropy_on_trajectory``, ``trajectory_invariance`` on ``G = Z^3`` at
  ``k=3``, and on the non-inert ``F``, which reports ``NotInertError``.
- ``rational-cycle-half-rank40``: the rank-40 cycle ``e_i -> e_(i+1)``,
  ``e_39 -> e_0/2``, from ``e_0``: the inert level is the rank, 40, with
  ``entropy_on_trajectory`` ``log 2`` and ``log_law`` at ``k=2``.
- ``rational-mult-rank1``: multiplication by ``-10/9`` on ``4/3 Z``,
  ``growth`` at ``k=2`` and ``entropy_on_trajectory``; its ``verify_oracle``
  report runs the rank-1 cyclic oracle on every index.
- ``rational-power-span-not-invariant``: ``[[0, 3], [1/2, 0]]`` on ``Q^2``
  from ``H = <e_0>``, whose Q-span the map does not preserve: ``entropy``
  at ``k=2`` is ``log 2``, from the closed form of the square ``3/2`` itself,
  ``inert`` at ``k=2`` has defect 2, and ``inert`` at ``k=1`` is infinite.
- ``stencil-onesided-mod4`` (``1 + 2s + s^2`` mod 4, offsets ``>= 0``),
  ``stencil-nonpositive`` (``s^-2 + 2s^-1 + 1`` mod 3 from ``e_5 + 2e_7``,
  offsets ``<= 0``) and ``stencil-mixed-sign`` (``s^-1 + s`` mod 3, offsets
  of both signs, iterated): stencil powers, with ``log_law`` at ``k=2`` and
  ``3``, ``entropy_power_on_trajectory`` at ``k=4`` and
  ``trajectory_identity`` at ``k=3``.
- ``stencil-right-mod12``: ``2 + 3s + s^3`` mod 12 from ``e_0``,
  ``entropy_on_trajectory`` at ``max_n=512``, ``log_law`` and
  ``entropy_power_on_trajectory`` at ``k=3``: a walk keyed by the last
  column, whose reference comes back to the canonical form through its
  ``xgcd`` branch.
- ``stencil-right-mod4-identity``: ``1 + s`` mod 4, ``trajectory_identity``
  at ``k=2``, ``m=1``, ``n=64`` from ``e_0`` and from ``2e_0 + e_1``,
  ``log_law`` and ``entropy_power_on_trajectory`` at ``k=3``.
- ``stencil-undetermined-mod12``: ``1 + 2s`` mod 12 from ``e_0``, ``inert``
  at ``k=2``, an ``entropy`` proved ``log 3`` by the closed form (the map
  squares to 1 mod 4, so its ``Z/4`` part is bounded) and two
  ``trajectory_invariance`` tasks. Its name dates from when no stencil mod a
  prime power had a proof.
- ``stencil-mixed-sign-far-mod2`` (``s^-1 + s`` from ``<e_100, e_101>``) and
  ``stencil-mixed-sign-far-mod5`` (``s^-3 + 4s`` from
  ``<e_201 + e_204 + e_205, 2e_201>``): ``entropy_on_trajectory`` and
  ``log_law``, at the default ``max_n=64``, where the increments are still
  those of the transient; the closed form proves each verdict.
- ``stencil-mixed-sign-power-far-mod2`` (``s^-1 + s`` mod 2 from
  ``<e_30, e_31>``, ``k=4``, ``max_n=24``) and
  ``stencil-bounded-power-far-mod6`` (``s^-2 + s^-1 + 1`` mod 6 from
  ``e_40``, ``k=8``, ``max_n=16``): ``entropy_power_on_trajectory`` and
  ``log_law``, where a power step of ``k`` steps of the seed walk straddles
  a change of increment: ``256`` six times, then ``128``, then ``16``; and
  ``6^8`` four times, then ``6``, then ``1``.
- ``left-shift-saturating``: the left shift mod 4 from ``e_3 + 2e_5``,
  ``inert``, ``entropy`` at ``k=2`` and ``trajectory_invariance``.
- ``left-shift-far-seed``: the left shift mod 2 from ``e_100``, ``entropy``,
  ``entropy_on_trajectory`` and ``log_law`` at ``k=2``: ``T_n`` saturates
  only at ``n = 101``, past ``max_n``, and every verdict is ``log 1``.
- ``torsion-far-seed``: the right shift mod 2 from ``e_4000``, ``growth`` at
  ``k=2`` and ``entropy_on_trajectory``, both at ``max_n=4``.
- ``trajectory-identity-k64``: the right shift mod 2 from ``e_0``,
  ``trajectory_identity`` at ``k=64``, ``m=1``, ``n=2000``.

Every verdict is exact. The stencils mod 4 and mod 12 whose map is not
bounded on ``Z/4`` are proved by the layered closed form of
:mod:`entropy_lab.closed_forms`, ``p`` to the sum of the layer ranks on each
prime-power component.
"""

import functools
import json
import re
from pathlib import Path

import pytest

from entropy_lab.cli import parse_scenario, render, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json")) + sorted((GOLDEN / "input").glob("*.json"))


def blank_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_ms":[-0-9.eE+]+', '"elapsed_ms":null', text)


@functools.cache
def report(path, verify_oracle):
    """The report of one scenario file, run once for both renderings."""
    return run(parse_scenario(path.read_text(encoding="utf-8")), verify_oracle=verify_oracle)


def golden(path, verify_oracle, suffix):
    return (GOLDEN / (path.stem + (".verify-oracle" if verify_oracle else "") + suffix)).read_text(encoding="utf-8")


@pytest.mark.parametrize("verify_oracle", [False, True], ids=["plain", "verify-oracle"])
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_report_matches_golden(path, verify_oracle):
    assert blank_elapsed(render(report(path, verify_oracle), "json")) == golden(path, verify_oracle, ".json")


@pytest.mark.parametrize("verify_oracle", [False, True], ids=["plain", "verify-oracle"])
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_table_matches_golden(path, verify_oracle):
    # the golden is what the console script prints, with its final newline
    assert render(report(path, verify_oracle), "table") + "\n" == golden(path, verify_oracle, ".txt")


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_the_oracle_checks_every_index_it_can_count(path):
    # a torsion trace is counted by row spans on every CRT component, a rank-1 rational one by the
    # cyclic oracle: neither skips an index; a rational trace of rank >= 2 is skipped whole
    ambient = json.loads(path.read_text(encoding="utf-8"))["ambient"]
    tasks = json.loads(golden(path, True, ".json"))["tasks"]
    records = [t["result"]["oracle"] for t in tasks if "oracle" in (t["result"] or {})]
    if ambient["kind"] == "rational" and ambient["rank"] >= 2:
        assert records and all(r["checked"] == 0 and r["reason"] == "rational rank >= 2" for r in records)
    else:
        assert all(r["skipped"] == 0 for r in records)
