"""The sparse torsion accumulator against bounded entries and a from-scratch Hermite form."""

import json
import math
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from entropy_lab import entropy, groups
from entropy_lab.cli import parse_scenario, render, run
from entropy_lab.endomorphisms import StencilEndo, power
from entropy_lab.entropy import (
    EntropyOptions,
    ExactLog,
    entropy_on_trajectory,
    growth_trace,
    inert_certificate,
    partial_trajectory,
)
from entropy_lab.groups import TorsionSum, subgroup

import hermite
from hermite import IntMatrix

THREE_TAP = ((0, 1), (1, 1), (2, 1))


def _stored_entries(acc):
    return [e for row in acc.rows.values() for e in row]


def _order(acc, amb) -> int:
    """``|H|`` of a torsion accumulator, read off its canonical form: the one number both keyings must agree on."""
    return groups.subgroup_order(acc.to_subgroup(amb)).value


# -- bounded lift entries at the default horizon -------------------------------


@pytest.mark.parametrize("m", [3, 4, 6, 12])
@pytest.mark.parametrize("taps", [THREE_TAP, ((0, 2), (1, 2), (2, 2)), ((0, 2), (1, 1), (2, -1))])
def test_lift_entries_stay_below_modulus(m, taps):
    amb = TorsionSum(m)
    f = power(StencilEndo(amb, taps), 1)
    h = subgroup(amb, [amb.basis_element(0)])
    for right in (False, True):
        acc = groups._accumulator_from(h, right)
        gens = h.generators()
        for _ in range(2, 65):
            gens = [f.apply(g) for g in gens]
            for g in gens:
                acc.absorb(g)
                assert all(0 <= e < m for e in _stored_entries(acc))
            assert all(row[0] != 0 and m % row[0] == 0 and row[0] < m for row in acc.rows.values())
        assert acc.to_subgroup(amb) == partial_trajectory(f, h, 64)
    assert len(growth_trace(f, h, 64).indices) == 64


# -- moduli past the byte fields ------------------------------------------------


@pytest.mark.parametrize("m", [17, 256, 257, 2**61 - 1])
@pytest.mark.parametrize("taps", [THREE_TAP, ((-1, 3), (0, 1), (2, 5)), ((1, 2), (2, 1))])
def test_wide_modulus_walk_matches_the_subgroup_of_its_vectors(m, taps):
    # the walk runs the wide-field kernel and absorbs its lists; the reference
    # applies the stencil's definition and absorbs packed elements left-keyed
    amb = TorsionSum(m)
    f = StencilEndo(amb, taps)
    h = subgroup(amb, [amb.element({0: 1, 3: m - 1})])
    vectors = [h.generators()[0]]
    for _ in range(15):
        vectors.append(f.apply_once(vectors[-1]))
    t_16 = subgroup(amb, vectors)
    assert partial_trajectory(f, h, 16) == t_16
    trace = growth_trace(f, h, 16)
    assert trace.indices[-1].value * groups.subgroup_order(h).value == groups.subgroup_order(t_16).value


# -- the side a walk is keyed on ----------------------------------------------


@pytest.mark.parametrize(
    "taps, right",
    [
        (THREE_TAP, True),
        (((-1, 1), (0, 1), (2, 5)), True),
        (((1, 1),), False),
        (((1, 2), (2, 1)), False),
        (((-2, 1), (-1, 1), (0, 1)), False),
        (((-1, 1),), False),
    ],
)
def test_walk_keys_right_only_when_it_grows_right_from_a_fixed_left_end(taps, right):
    amb = TorsionSum(6)
    h = subgroup(amb, [amb.basis_element(3)])
    assert entropy._trajectory(StencilEndo(amb, taps), h)[0].right is right


@pytest.mark.parametrize("m", [2, 4, 6, 8, 9, 12])
@seed(20261019)
@settings(max_examples=20)
@given(data=st.data())
def test_right_keyed_accumulator_matches_left_keyed_subgroup(m, data):
    # the rows depend on the side (see _TorsionAcc); every absorb's index does not
    amb = TorsionSum(m)
    offsets = data.draw(st.lists(st.integers(-2, 3), min_size=1, max_size=3, unique=True))
    f = power(StencilEndo(amb, [(o, data.draw(st.integers(1, m - 1))) for o in offsets]), 1)
    vector = st.dictionaries(st.integers(0, 5), st.integers(0, m - 1), min_size=1, max_size=3)
    h = subgroup(amb, [amb.element(v) for v in data.draw(st.lists(vector, min_size=1, max_size=2))])
    n = data.draw(st.sampled_from([64, 48, 31, 16, 7, 2, 1]))
    right = groups._accumulator_from(h, right=True)
    left = groups._accumulator_from(h)
    order = _order(right, amb)
    assert order == _order(left, amb)
    vectors = layer = h.generators()
    for _ in range(1, n):
        layer = [f.apply(x) for x in layer]
        vectors = vectors + layer
        for x in layer:
            gain = right.absorb(x)
            assert gain == left.absorb(x)
            order *= gain
            assert _order(right, amb) == _order(left, amb) == order
        assert all(0 <= e < m for e in _stored_entries(right))
        assert all(m % row[0] == 0 and row[0] < m for row in right.rows.values())
    expected = subgroup(amb, vectors)
    assert right.to_subgroup(amb) == expected
    assert partial_trajectory(f, h, n) == expected


# -- time bounds on long walks -------------------------------------------------


def test_three_tap_mod6_walk_to_horizon_2048_takes_seconds():
    amb = TorsionSum(6)
    h = subgroup(amb, [amb.basis_element(0)])
    start = time.perf_counter()
    result = entropy_on_trajectory(StencilEndo(amb, THREE_TAP), h, EntropyOptions(max_n=2048))
    assert time.perf_counter() - start < 10
    assert result == ExactLog(6)


def test_far_seed_left_growing_walk_stays_fast():
    # offsets <= 0: the walk is left-keyed; keyed right it took 1.2 s against 0.6 s
    amb = TorsionSum(6)
    f = StencilEndo(amb, [(-2, 1), (-1, 1), (0, 1)])
    h = subgroup(amb, [amb.basis_element(1000)])
    start = time.perf_counter()
    trace = growth_trace(f, h, 10000)
    assert time.perf_counter() - start < 3
    assert trace.saturated_at is not None


# The 3-tap stencil 1 + x + x^2 mod 6 from e_0: the unreduced accumulator
# gave these increments on the prefix it could still finish (max_n=17).
SEED_MOD6_PREFIX = ["6"] * 16


def test_mod6_three_tap_entropy_finishes_at_default_horizon():
    doc = {
        "name": "stencil3-mod6-default",
        "ambient": {"kind": "torsion_sum", "modulus": 6},
        "endomorphism": {"kind": "stencil", "taps": [{"offset": o, "coeff": c} for o, c in THREE_TAP]},
        "subgroups": {"H": [{"0": 1}]},
        "tasks": [{"op": "entropy", "subgroup": "H"}],
    }
    report = run(parse_scenario(json.dumps(doc)))
    task = report.tasks[0]
    assert task["error"] is None
    assert task["inputs"]["max_n"] == 64
    table = json.loads(render(report, "json"))["tasks"][0]["result"]["table"]
    assert len(table) == 64
    assert [row["increment"] for row in table[:16]] == SEED_MOD6_PREFIX
    assert task["result"]["entropy"]["kind"] == "exact" and task["result"]["entropy"]["c"] == "6"


# -- a seed far from coordinate 0 ---------------------------------------------

FAR_SEED = Path(__file__).resolve().parent / "golden" / "input" / "torsion-far-seed.json"


def test_far_seed_costs_nothing_for_its_distance_from_zero():
    amb = TorsionSum(2)
    assert subgroup(amb, [amb.basis_element(4000)]).basis == ((4000, (1,)),)
    text = FAR_SEED.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        report = run(parse_scenario(text), verify_oracle=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_ok
    assert peak < 2 * 2**20


# -- differential: accumulator versus Hermite form of the dense lift ----------


def _reference_basis(m: int, vectors) -> tuple:
    """Canonical basis from scratch: HNF of the dense lift joined with ``m * I``, trimmed."""
    w = max((x.data[-1][0] + 1 for x in vectors if x.data), default=0)
    if w == 0:
        return ()
    rows = [[dict(x.data).get(j, 0) for j in range(w)] for x in vectors]
    rows += [[m if i == j else 0 for j in range(w)] for i in range(w)]
    hnf, _ = hermite.hermite_form(IntMatrix.from_rows(rows))
    square = [hnf.row(i) for i in range(w)]
    live = max((j + 1 for j in range(w) if any(square[i][j] % m for i in range(j + 1))), default=0)
    return tuple(tuple(square[i][:live]) for i in range(live))


def _sparse_view(m: int, basis: tuple) -> tuple:
    """The dense reference in the canonical form: pivot-``m`` rows dropped, each row from its pivot."""
    out = []
    for j, row in enumerate(basis):
        if row[j] != m:
            tail = list(row[j:])
            while not tail[-1]:
                tail.pop()
            out.append((j, tuple(tail)))
    return tuple(out)


def _reference_order(m: int, basis: tuple) -> int:
    pivots = 1
    for j, row in enumerate(basis):
        pivots *= row[j]
    return m ** len(basis) // pivots


@st.composite
def torsion_cases(draw):
    m = draw(st.sampled_from([2, 4, 6, 8, 9, 12, 16, 27]))
    amb = TorsionSum(m)
    offsets = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=3, unique=True))
    taps = [(o, draw(st.integers(1, m - 1))) for o in offsets]
    vector = st.dictionaries(st.integers(0, 5), st.integers(0, m - 1), min_size=1, max_size=3)
    seeds = [amb.element(v) for v in draw(st.lists(vector, min_size=1, max_size=3))]
    others = [amb.element(v) for v in draw(st.lists(vector, min_size=1, max_size=2))]
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    return amb, power(StencilEndo(amb, taps), k), seeds, others, n


@seed(20261018)
@settings(max_examples=80)
@given(torsion_cases())
def test_accumulator_matches_hermite_form_of_dense_lift(case):
    amb, f, seeds, others, n = case
    m = amb.modulus
    h = subgroup(amb, seeds)
    assert h.basis == _sparse_view(m, _reference_basis(m, seeds))
    vectors = list(seeds)
    layer = list(seeds)
    orders = []
    for i in range(1, n + 1):
        if i > 1:
            layer = [f.apply(x) for x in layer]
            vectors += layer
        expected = _reference_basis(m, vectors)
        t = partial_trajectory(f, h, i)
        assert t.basis == _sparse_view(m, expected)
        assert t.support_window == len(expected)
        assert groups.subgroup_order(t).value == _reference_order(m, expected)
        orders.append(_reference_order(m, expected))
        assert groups.sum(t, subgroup(amb, others)).basis == _sparse_view(m, _reference_basis(m, vectors + others))
    if inert_certificate(f, h).verdict:
        trace = growth_trace(f, h, n)
        assert [inc.value for inc in trace.increments] == [b // a for a, b in zip(orders, orders[1:])]
        assert [idx.value for idx in trace.indices] == [o // orders[0] for o in orders]


# -- every absorb returns the index it added -----------------------------------


def _dense_orders(m: int, vectors) -> list[int]:
    """``|<vectors[:i]>|`` for ``i = 0 .. len(vectors)``, each the order of the dense lift's Hermite form."""
    w = max((x.data[-1][0] + 1 for x in vectors if x.data), default=0)
    basis = [[m if i == j else 0 for j in range(w)] for i in range(w)]
    orders = [1]
    for x in vectors:
        basis.append([dict(x.data).get(j, 0) for j in range(w)])
        hermite.hermite_rows(basis, w)
        basis.pop()  # the lift has rank w, so the extra row ends as zeros
        orders.append(_reference_order(m, basis))
    return orders


@pytest.mark.parametrize("m", range(2, 13))
def test_every_absorb_of_a_walk_returns_the_index_of_the_dense_lift(m):
    rng = random.Random(m)
    amb = TorsionSum(m)
    # a unit coefficient on the right tap keeps the walk growing to the horizon
    unit = rng.choice([c for c in range(1, m) if math.gcd(c, m) == 1])
    f = power(StencilEndo(amb, [(rng.choice([-1, 0]), rng.randrange(1, m)), (rng.choice([1, 2]), unit)]), 1)
    # the pivot d of the first generator drops to gcd(d, p) at the second; mod 8 and 12 that is neither 1 nor d
    d = max(c for c in range(1, m) if m % c == 0)
    p = min(c for c in range(2, m + 1) if m % c == 0)
    gens = [{0: d, 1 + rng.randrange(4): rng.randrange(m)}, {0: p, 1 + rng.randrange(4): rng.randrange(m)}]
    vectors = layer = [amb.element(v) for v in gens]
    for _ in range(1, 64):
        layer = [f.apply(x) for x in layer]
        vectors = vectors + layer
    orders = _dense_orders(m, vectors)
    for right in (False, True):
        acc = groups._TorsionAcc(m, right)
        assert [acc.absorb(x) for x in vectors] == [b // a for a, b in zip(orders, orders[1:])]


# -- comparing two accumulators by their canonical forms -------------------------


def _absorbed(m: int, right: bool, vectors):
    acc = groups._TorsionAcc(m, right)
    for x in vectors:
        acc.absorb(x)
    return acc


def _same_agrees_with_canonical_equality(amb, right: bool, a, b) -> bool:
    """Whether ``a`` and ``b`` generate one subgroup, by the canonical forms of their accumulators keyed on one side.

    Each form must be the Hermite reference of its generators, and the two must
    be equal exactly when those references are.
    """
    m = amb.modulus
    forms = [_absorbed(m, right, x).to_subgroup(amb) for x in (a, b)]
    references = [_sparse_view(m, _reference_basis(m, x)) for x in (a, b)]
    assert [h.basis for h in forms] == references
    assert (forms[0] == forms[1]) is (references[0] == references[1])
    return forms[0] == forms[1]


def _scaled(amb, x, t: int, u: int):
    """``x`` with coordinate ``t`` times ``u``."""
    return amb.element({i: r * u if i == t else r for i, r in x.data})


@pytest.mark.parametrize("right", [False, True])
@pytest.mark.parametrize("m", range(2, 17))
@seed(20261019)
@settings(max_examples=12)
@given(data=st.data())
def test_same_agrees_with_canonical_equality(m, right, data):
    amb = TorsionSum(m)
    vector = st.dictionaries(st.integers(0, 5), st.integers(0, m - 1), min_size=1, max_size=4)
    gens = [amb.element(v) for v in data.draw(st.lists(vector, min_size=1, max_size=4))]
    # equal by construction: the generators in another order, with sums of them
    pairs = data.draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), st.integers(0, len(gens) - 1)), max_size=3))
    other = data.draw(st.permutations(gens)) + [gens[i] + gens[j] for i, j in pairs]
    assert _same_agrees_with_canonical_equality(amb, right, gens, other)
    # a unit times one coordinate keeps every pivot, gcd(m, entries), so the order; the subgroup may change
    t = data.draw(st.integers(0, 5))
    u = data.draw(st.sampled_from([c for c in range(1, m) if math.gcd(c, m) == 1]))
    _same_agrees_with_canonical_equality(amb, right, gens, [_scaled(amb, x, t, u) for x in gens])
    # any other subgroup
    others = [amb.element(v) for v in data.draw(st.lists(vector, max_size=4))]
    _same_agrees_with_canonical_equality(amb, right, gens, others)


@pytest.mark.parametrize("right, lone", [(False, 0), (True, 1)])
def test_same_checks_inclusion_when_pivots_and_orders_agree(right, lone):
    # <e_0 + e_1> and <e_lone> mod 2 have order 2 and one row each, of pivot 1 under one key
    # (the first column left-keyed, the last right-keyed); they are not one subgroup
    amb = TorsionSum(2)
    a, b = [amb.element({0: 1, 1: 1})], [amb.basis_element(lone)]
    assert _absorbed(2, right, a).rows.keys() == _absorbed(2, right, b).rows.keys()
    assert not _same_agrees_with_canonical_equality(amb, right, a, b)


def test_identity_check_builds_only_the_seed_levels_canonical_form(monkeypatch):
    amb = TorsionSum(6)
    h = subgroup(amb, [amb.basis_element(0)])
    frozen = 0
    to_subgroup = groups._TorsionAcc.to_subgroup

    def counted(acc, ambient):
        nonlocal frozen
        frozen += 1
        return to_subgroup(acc, ambient)

    monkeypatch.setattr(groups._TorsionAcc, "to_subgroup", counted)
    assert entropy.trajectory_identity_check(StencilEndo(amb, THREE_TAP), 2, 1, h, 64)
    assert frozen == 1


def test_identity_of_three_tap_mod6_square_at_n512_takes_seconds():
    # building and comparing the canonical forms of both sides took about 100 s on a shared 2-core host;
    # each side's trace now stops at its closed form, in milliseconds
    amb = TorsionSum(6)
    h = subgroup(amb, [amb.basis_element(0)])
    start = time.perf_counter()
    assert entropy.trajectory_identity_check(StencilEndo(amb, THREE_TAP), 2, 1, h, 512)
    assert time.perf_counter() - start < 1
