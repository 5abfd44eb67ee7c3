"""Scenario JSON reports, byte for byte apart from ``elapsed_ms``.

``tests/golden`` holds one report per file in ``scenarios/`` and per input
document in ``tests/golden/input/``, with and without ``verify_oracle``. The
inputs there cover what the builtins do not: a rank-3 rational companion map
with ``entropy_on_trajectory`` at ``max_n=128`` and ``log_law`` at ``k=3``,
and multiplication by ``-10/9`` on ``4/3 Z`` with ``growth`` at ``k=2`` and
``entropy_on_trajectory``, whose ``verify_oracle`` report runs the rank-1
cyclic oracle on every index. Three stencil inputs guard stencil powers with
``log_law`` at ``k=2`` and ``3``, ``entropy_power_on_trajectory`` at ``k=4``
and ``trajectory_identity`` at ``k=3``: ``1 + 2s + s^2`` mod 4 (offsets
``>= 0``), ``s^-2 + 2s^-1 + 1`` mod 3 (offsets ``<= 0``) and ``s^-1 + s``
mod 3 (offsets of both signs, iterated). Their reports were generated
before stencil powers were composed. ``torsion-far-seed`` runs the right
shift mod 2 from ``e_4000`` (``growth`` at ``k=2`` and
``entropy_on_trajectory``, both at ``max_n=4``); its reports were generated
while the torsion canonical form was still a dense square lift basis.
Two inputs run what nothing else runs: ``stencil-undetermined-mod12``, the
stencil ``1 + 2s`` mod 12 from ``e_0``, with ``inert`` at ``k=2``, an
``entropy`` that was ``Undetermined`` in ``[log 3, log 6]`` and two
``trajectory_invariance`` tasks, one of them ``null``; and
``left-shift-saturating``, the left shift mod 4 from ``e_3 + 2e_5``, with
``inert``, ``entropy`` at ``k=2`` and ``trajectory_invariance``. Their
reports were generated before the engine read a map off its trace or proved
``log 1`` for stencils with offsets ``<= 0``. ``left-shift-far-seed`` is the
left shift mod 2 from ``e_100`` with ``entropy``, ``entropy_on_trajectory``
and ``log_law`` at ``k=2``, all at the default ``max_n=64``: ``T_n`` only
saturates at ``n = 101``, so the stability window read ``log 2`` and
``log_law`` reported a FAIL. Its reports were generated after that proof
landed, and every verdict in them is ``log 1``. ``trajectory-identity-k64``
runs the right shift mod 2 from ``e_0`` with ``trajectory_identity`` at
``k=64``, ``m=1``, ``n=2000``; its reports were generated while the right
side still walked ``T_(kn-k+1)`` from the 64 generators of ``H``, about 48 s
each. ``rational-companion-deg3-walks`` runs the same rank-3 companion from
``F = <e_0>`` with ``entropy_power_on_trajectory`` and ``log_law`` at
``k=2``, ``entropy_on_trajectory``, ``trajectory_invariance`` on
``G = Z^3`` at ``k=3``, and ``trajectory_invariance`` on the non-inert ``F``,
which reports ``NotInertError``. Its reports were generated while every task
still rebuilt its reference and walked the base map from the reference's
canonical generators, before one walk of the seed did both.
``stencil-right-mod12`` runs ``2 + 3s + s^3`` mod 12 from ``e_0`` with
``entropy_on_trajectory`` at ``max_n=512``, ``log_law`` at ``k=3`` and
``entropy_power_on_trajectory`` at ``k=3``; ``stencil-right-mod4-identity``
runs ``1 + s`` mod 4 with ``trajectory_identity`` at ``k=2``, ``m=1``,
``n=64`` from ``e_0`` and from ``2e_0 + e_1``, ``log_law`` at ``k=3`` and
``entropy_power_on_trajectory`` at ``k=3``. Their walks are keyed by the
last column, and the two ``reference`` subgroups (pivots 2, 3 and 4) come
out of the conversion back to the canonical form through its ``xgcd``
branch. Their reports were generated while every walk was still keyed by
the first column.
``stencil-mixed-sign-far-mod2`` (``s^-1 + s`` from ``<e_100, e_101>``, with
``entropy_on_trajectory`` and ``log_law`` at ``k=2``) and
``stencil-mixed-sign-far-mod5`` (``s^-3 + 4s`` from
``<e_201 + e_204 + e_205, 2e_201>``, with ``entropy_on_trajectory`` and
``log_law`` at ``k=4`` and ``8``) are the two counterexamples to the
Logarithmic Law that the engine printed while it read verdicts off the
stability window: at the default ``max_n=64`` their increments are still
those of the transient. Their reports were generated once the stencil
closed form proved every verdict.
Every exact verdict names its proof (``certified_by``) since the stencil
closed form landed. Then the verdicts mod 4 and mod 12 whose map is not
bounded on ``Z/4`` became ``Undetermined``, with a candidate and a reason,
and the ``entropy`` of ``stencil-undetermined-mod12`` became ``log 3``, by
the closed form: ``1 + 2s`` squares to 1 mod 4, so its ``Z/4`` part is
bounded, and its walk reaches 3. No index and no oracle record changed.
The ``oracle`` records of the ``verify-oracle`` reports were regenerated
when the torsion oracle began to count F_p ranks on the CRT components of
the modulus and to give a ``reason`` for skipped indices; nothing else in
them changed.
The stability window was retired after that: ``stability_window`` left the
``inputs`` echo of every report that had it, and the two keys that set it
left the ``stencil-undetermined-mod12`` input. Each ``Undetermined`` verdict
is now bounded by its proof, ``[log floor, log candidate]``, so the
``lower`` bounds in ``stencil-onesided-mod4``, ``stencil-right-mod12`` and
``stencil-right-mod4-identity`` fell to the log of the proved part of ``c``
(0, or ``log 3`` mod 12); no other field changed.
Any change to a verdict, an index, a reference subgroup or the key order of a
report shows up here.
"""

import re
from pathlib import Path

import pytest

from entropy_lab.cli import parse_scenario, render, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json")) + sorted((GOLDEN / "input").glob("*.json"))


def blank_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_ms":[-0-9.eE+]+', '"elapsed_ms":null', text)


@pytest.mark.parametrize("verify_oracle", [False, True], ids=["plain", "verify-oracle"])
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_report_matches_golden(path, verify_oracle):
    report = run(parse_scenario(path.read_text(encoding="utf-8")), verify_oracle=verify_oracle)
    golden = GOLDEN / (path.stem + (".verify-oracle" if verify_oracle else "") + ".json")
    assert blank_elapsed(render(report, "json")) == golden.read_text(encoding="utf-8")
