import dataclasses
import math
import random
from collections import deque
from itertools import islice
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from entropy_lab import (
    Cardinality,
    EntropyOptions,
    MatrixEndo,
    Rational,
    StencilEndo,
    TorsionSum,
    growth_trace,
    multiplication,
    partial_trajectory,
    power,
    quotient_index,
    right_shift,
    subgroup,
    subgroup_sum,
)
from entropy_lab.errors import (
    AmbientMismatchError,
    ContainmentError,
    EnumerationCapError,
    OracleMismatchError,
    RationalAmbientError,
)
from entropy_lab.oracle import (
    CyclicRational,
    _Span,
    _components,
    _cyclic_indices,
    _decode,
    _field_width,
    _masks,
    _pack,
    _stepper,
    _torsion_indices,
    adjoin,
    cyclic_from_subgroup,
    cyclic_sum,
    enumerate_subgroup,
    index_by_enumeration,
    verify_trace,
)

from instances import scaled

Z2 = TorsionSum(2)
FIN = Cardinality.finite


def test_enumerate_zero_subgroup():
    z = subgroup(Z2, [])
    got = enumerate_subgroup(z)
    assert got.elements == frozenset({Z2.zero()})
    assert not got.capped


def test_enumerate_two_coordinates():
    hp = subgroup(Z2, [Z2.basis_element(0), Z2.basis_element(1)])
    got = enumerate_subgroup(hp)
    assert len(got.elements) == 4


def test_enumerate_diagonal_generators():
    h = subgroup(
        Z2,
        [Z2.element({0: 1, 1: 1}), Z2.element({1: 1, 2: 1})],
    )
    got = enumerate_subgroup(h)
    e = Z2.element
    assert got.elements == frozenset(
        {Z2.zero(), e({0: 1, 1: 1}), e({1: 1, 2: 1}), e({0: 1, 2: 1})}
    )


def test_enumerate_cap_reports():
    big = subgroup(TorsionSum(3), [TorsionSum(3).element({i: 1}) for i in range(6)])
    got = enumerate_subgroup(big, cap=100)
    assert got.capped
    assert len(got.elements) >= 100


def test_enumerate_rejects_rational():
    q = Rational(1)
    with pytest.raises(RationalAmbientError):
        enumerate_subgroup(subgroup(q, [q.element([1])]))


def test_index_by_enumeration_reflexive():
    h = subgroup(Z2, [Z2.element({0: 1, 2: 1})])
    assert index_by_enumeration(h, h) == FIN(1)


def test_index_by_enumeration_on_double_shift_trajectory():
    beta2 = power(right_shift(Z2), 2)
    hp = subgroup(Z2, [Z2.basis_element(0), Z2.basis_element(1)])
    t2 = partial_trajectory(beta2, hp, 2)
    assert index_by_enumeration(t2, hp) == FIN(4)


def test_index_by_enumeration_checks_containment():
    h = subgroup(Z2, [Z2.basis_element(0)])
    k = subgroup(Z2, [Z2.basis_element(1)])
    with pytest.raises(ContainmentError):
        index_by_enumeration(k, h)


def test_index_by_enumeration_cap_error():
    amb = TorsionSum(3)
    gens = [amb.element({i: 1}) for i in range(8)]
    big = subgroup(amb, gens)
    small = subgroup(amb, gens[:1])
    with pytest.raises(EnumerationCapError):
        index_by_enumeration(big, small, cap=100)


def test_index_by_enumeration_rejects_mixed_ambients():
    z3 = TorsionSum(3)
    k = subgroup(Z2, [Z2.basis_element(0)])
    h = subgroup(z3, [z3.basis_element(0)])
    with pytest.raises(AmbientMismatchError):
        index_by_enumeration(k, h)
    with pytest.raises(AmbientMismatchError):
        index_by_enumeration(k, enumerate_subgroup(h))
    with pytest.raises(AmbientMismatchError):
        index_by_enumeration(enumerate_subgroup(k), enumerate_subgroup(h))


def test_index_by_enumeration_accepts_enumerated_k():
    h = subgroup(Z2, [Z2.basis_element(0)])
    hp = subgroup(Z2, [Z2.basis_element(0), Z2.basis_element(1)])
    assert index_by_enumeration(enumerate_subgroup(hp), enumerate_subgroup(h)) == FIN(2)
    with pytest.raises(EnumerationCapError):
        index_by_enumeration(enumerate_subgroup(hp, cap=3), h)


def test_adjoin_rejects_mixed_ambients():
    s = enumerate_subgroup(subgroup(Z2, [Z2.basis_element(0)]))
    with pytest.raises(AmbientMismatchError):
        adjoin(s, [TorsionSum(3).basis_element(1)])


def test_adjoin_member_returns_the_same_set():
    s = enumerate_subgroup(subgroup(Z2, [Z2.basis_element(0), Z2.basis_element(1)]))
    assert adjoin(s, [Z2.element({0: 1, 1: 1}), Z2.zero()]) is s


def test_adjoin_keeps_a_capped_set():
    capped = enumerate_subgroup(subgroup(Z2, [Z2.basis_element(i) for i in range(4)]), cap=5)
    assert capped.capped
    assert adjoin(capped, [Z2.basis_element(9)], cap=5) is capped


def bfs_closure(ambient, gens, cap):
    """Breadth-first closure under generator addition, the reference for ``adjoin``."""
    zero = ambient.zero()
    seen = {zero}
    queue = deque([zero])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = x + g
            if y not in seen:
                if len(seen) >= cap:
                    return seen, True
                seen.add(y)
                queue.append(y)
    return seen, False


REFERENCE_CAP = 1500


@st.composite
def generator_lists(draw):
    m = draw(st.integers(2, 12))
    amb = TorsionSum(m)
    vector = st.dictionaries(st.integers(0, 40), st.integers(1, m - 1), min_size=1, max_size=3)
    extra = draw(st.sampled_from(["none", "zero", "repeat", "redundant"]))
    size = 4 if extra == "none" else 3
    gens = [amb.element(v) for v in draw(st.lists(vector, min_size=1, max_size=size))]
    if extra == "zero":
        gens.insert(draw(st.integers(0, len(gens))), amb.zero())
    elif extra == "repeat":
        gens.append(draw(st.sampled_from(gens)))
    elif extra == "redundant":
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        gens.append(scaled(a, draw(st.integers(1, m))) + b)
    split = draw(st.integers(0, len(gens)))
    return amb, gens, split


@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(generator_lists())
def test_coset_closure_matches_breadth_first_closure(case):
    amb, gens, split = case
    zero = enumerate_subgroup(subgroup(amb, []))
    want, want_capped = bfs_closure(amb, gens, REFERENCE_CAP)
    got = adjoin(zero, gens, REFERENCE_CAP)
    assert got.capped == want_capped
    if want_capped:
        assert len(got.elements) == REFERENCE_CAP
        return
    assert got.elements == want
    assert adjoin(adjoin(zero, gens[:split], REFERENCE_CAP), gens[split:], REFERENCE_CAP).elements == want
    assert enumerate_subgroup(subgroup(amb, gens), REFERENCE_CAP).elements == want
    order = len(want)
    exact = adjoin(zero, gens, order)
    assert not exact.capped and exact.elements == want
    if order > 1:
        for short in (adjoin(zero, gens, order - 1), enumerate_subgroup(subgroup(amb, gens), order - 1)):
            assert short.capped
            assert len(short.elements) >= order - 1
            assert short.elements <= want


def _code(x, w):
    """``x`` as :func:`adjoin` holds it: one int, coordinate ``i`` in the ``w``-bit field ``i``."""
    lo, v = _pack(x, x.ambient.modulus, w)
    return v << (lo * w)


@st.composite
def packed_pairs(draw):
    """Two elements, a modulus and the number of fields to size the masks to.

    Residues ``m - 1`` on both sides are the guard-bit boundary: their sum
    ``2m - 2`` is the largest a field ever holds.
    """
    m = draw(st.one_of(st.integers(2, 12), st.sampled_from([255, 256, 10007, 2**61 - 1])))
    amb = TorsionSum(m)
    residue = st.one_of(st.just(m - 1), st.integers(1, m - 1))
    vector = st.dictionaries(st.one_of(st.integers(0, 4), st.integers(0, 300)), residue, max_size=6)
    a = amb.element(draw(vector))
    b = draw(st.sampled_from([amb.element(draw(vector)), a, scaled(a, -1), amb.zero()]))
    return amb, a, b, draw(st.integers(0, 3))


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(packed_pairs())
def test_packed_addition_matches_element_addition(case):
    amb, a, b, spare = case
    m = amb.modulus
    w = _field_width(m)
    x, y = _code(a, w), _code(b, w)
    assert _decode(amb, x, w) == a and _decode(amb, y, w) == b
    # masks sized to the wider operand, or wider still
    top, lift = _masks(m, w, -(-max(x, y).bit_length() // w) + spare)
    t = x + y
    got = t - (((t + lift) & top) >> (w - 1)) * m
    assert got == _code(a + b, w)
    assert _decode(amb, got, w) == a + b


def test_random_pairs_match_quotient_index_mod_6():
    rng = random.Random(99)
    amb = TorsionSum(6)
    for _ in range(25):
        gens_h = [
            amb.element({rng.randrange(3): rng.randrange(1, 6)})
            for _ in range(rng.randint(1, 2))
        ]
        gens_extra = [
            amb.element({rng.randrange(3): rng.randrange(1, 6)})
            for _ in range(rng.randint(1, 2))
        ]
        h = subgroup(amb, gens_h)
        k = subgroup_sum(h, subgroup(amb, gens_extra))
        assert index_by_enumeration(k, h) == quotient_index(k, h)


def test_cyclic_identity_element():
    g = CyclicRational(Fraction(5, 3))
    assert cyclic_sum(g, CyclicRational(Fraction(0))).generator == Fraction(5, 3)


def test_cyclic_sum_examples():
    assert cyclic_sum(
        CyclicRational(Fraction(1)), CyclicRational(Fraction(3, 2))
    ).generator == Fraction(1, 2)
    assert cyclic_sum(
        CyclicRational(Fraction(1, 2)), CyclicRational(Fraction(9, 4))
    ).generator == Fraction(1, 4)


def test_cyclic_normalizes_sign_and_rejects_floats():
    assert CyclicRational(Fraction(-2, 3)).generator == Fraction(2, 3)
    with pytest.raises(TypeError):
        CyclicRational(0.5)


def test_cyclic_from_subgroup_round_trip():
    q = Rational(1)
    h = subgroup(q, [q.element([Fraction(3, 4)]), q.element([Fraction(1, 2)])])
    got = cyclic_from_subgroup(h)
    want = cyclic_sum(CyclicRational(Fraction(3, 4)), CyclicRational(Fraction(1, 2)))
    assert got.generator == want.generator == Fraction(1, 4)
    assert cyclic_from_subgroup(subgroup(q, [])).generator == 0


def test_cyclic_from_subgroup_requires_rank_one():
    q2 = Rational(2)
    h = subgroup(q2, [q2.element([1, 0]), q2.element([0, 1])])
    with pytest.raises(RationalAmbientError):
        cyclic_from_subgroup(h)


# -- verify_trace ------------------------------------------------------------------


def _shift_trace(max_n):
    z2 = TorsionSum(2)
    f = power(right_shift(z2), 1)
    h = subgroup(z2, [z2.basis_element(0)])
    return f, h, growth_trace(f, h, max_n)


def _tampered(trace, n, value):
    """``trace`` with ``|T_n / H|`` set to ``value``, a multiple of ``|T_(n-1) / H|``, and the indices past it scaled alike."""
    increments = [inc.value for inc in trace.increments]
    before = trace.indices[n - 2].value
    assert value % before == 0, "a tampered index must be reachable from the one before it"
    increments[n - 2] = value // before
    return dataclasses.replace(trace, walked=tuple(increments))


def test_verify_trace_stops_at_the_first_prime_power_span_past_the_row_cap():
    # mod 4 is one component p^a with a = 2, counted by rows, not elements: T_n has the rows
    # e_0, ..., e_(n-1) and 2e_n, so T_2 (32 elements) has exactly cap = 3 rows and is checked,
    # T_3 is the first past it; on T_2, e_1 takes the pivot of 2e_1, which it then clears
    z4 = TorsionSum(4)
    h = subgroup(z4, [z4.basis_element(0), z4.element({1: 2})])
    trace = growth_trace(power(right_shift(z4), 1), h, 6)
    assert trace.indices == tuple(FIN(4**i) for i in range(6))
    assert verify_trace(trace, cap=3) == {"checked": 2, "skipped": 4, "reason": "cap"}
    assert verify_trace(trace, cap=2) == {"checked": 1, "skipped": 5, "reason": "cap"}
    assert verify_trace(trace, cap=7) == {"checked": 6, "skipped": 0}


def test_verify_trace_stops_at_the_first_span_past_the_row_cap():
    # mod 2 is one prime component, counted by F_2 rank: rank T_n = n, so T_3
    # has exactly cap = 3 rows and is checked, T_4 is the first past it
    f, h, trace = _shift_trace(6)
    assert verify_trace(trace, cap=3) == {"checked": 3, "skipped": 3, "reason": "cap"}
    assert verify_trace(trace, cap=2) == {"checked": 2, "skipped": 4, "reason": "cap"}
    assert verify_trace(trace, cap=6) == {"checked": 6, "skipped": 0}


def test_verify_trace_stops_at_the_first_component_past_the_cap():
    # mod 12 = 4 * 3 from <e_0, 3e_1>: the span mod 4 has n + 1 rows (e_0, ..., e_(n-1) and 3e_n,
    # a unit mod 4), the span mod 3 n rows (3e_1 vanishes mod 3), so mod 4 passes cap = 3 first, at T_3
    z12 = TorsionSum(12)
    h = subgroup(z12, [z12.basis_element(0), z12.element({1: 3})])
    trace = growth_trace(power(right_shift(z12), 1), h, 6)
    assert verify_trace(trace, cap=3) == {"checked": 2, "skipped": 4, "reason": "cap"}
    assert verify_trace(trace, cap=7) == {"checked": 6, "skipped": 0}
    with pytest.raises(ValueError, match="cap"):
        verify_trace(trace, cap=0)


def test_verify_trace_counts_in_ints_and_steps_prime_components_by_their_taps(monkeypatch):
    # every component walks by its taps, with no apply_once and no engine kernel: mod 6 both are prime, and
    # mod 12 the component mod 4 is not; with every index agreeing, no Cardinality is built on either route
    from entropy_lab import endomorphisms, oracle as oracle_mod

    traces = []
    for m in (6, 12):
        amb = TorsionSum(m)
        f = power(StencilEndo(amb, [(-1, 3), (0, 1), (2, 2)]), 2)
        traces.append(growth_trace(f, subgroup(amb, [amb.element({0: 1, 3: m - 2})]), 24))
    _, _, rational = _three_halves_trace(24)

    def refuse(*args):
        raise AssertionError("the oracle called the engine or apply_once")

    monkeypatch.setattr(oracle_mod, "Cardinality", None)
    monkeypatch.setattr(StencilEndo, "apply_once", refuse)
    monkeypatch.setattr(endomorphisms.EndoPower, "_apply_packed", refuse)
    assert verify_trace(traces[0]) == {"checked": 24, "skipped": 0}
    assert verify_trace(traces[1]) == {"checked": 24, "skipped": 0}
    assert verify_trace(rational) == {"checked": 24, "skipped": 0}


def test_verify_trace_catches_a_tampered_index():
    f, h, trace = _shift_trace(5)
    with pytest.raises(OracleMismatchError, match="n=4"):
        verify_trace(_tampered(trace, 4, 4))


def test_verify_trace_applies_the_base_map_not_the_composed_power():
    # (1 + 2s)^2 = 1 mod 4, so f^2 is the identity and every T_n is H; with its
    # composed step swapped for the first power's the engine sees |T_2 / H| = 2
    z4 = TorsionSum(4)
    base = StencilEndo(z4, [(0, 1), (1, 2)])
    f = power(base, 2)
    h = subgroup(z4, [z4.basis_element(0)])
    assert verify_trace(growth_trace(f, h, 4)) == {"checked": 4, "skipped": 0}
    for name in ("matrix", "_kernel", "_times"):
        object.__setattr__(f, name, getattr(power(base, 1), name))
    with pytest.raises(OracleMismatchError, match=r"n=2: engine Finite\(2\), row spans Finite\(1\)"):
        verify_trace(growth_trace(f, h, 4))


def _three_halves_trace(max_n):
    q = Rational(1)
    f = power(multiplication(q, Fraction(3, 2)), 1)
    h = subgroup(q, [q.element([1])])
    return f, h, growth_trace(f, h, max_n)


def test_verify_trace_checks_every_index_of_a_rank_one_rational_trace():
    # T_n(3/2, Z) = 2^-(n-1) Z, so |T_n / Z| = 2^(n-1)
    f, h, trace = _three_halves_trace(7)
    assert trace.indices == tuple(FIN(2**i) for i in range(7))
    assert verify_trace(trace) == {"checked": 7, "skipped": 0}
    assert verify_trace(growth_trace(power(f, 3), h, 5)) == {"checked": 5, "skipped": 0}


def test_verify_trace_reads_the_rank_one_scalar_off_the_base_not_the_composed_power():
    # with the composed (9/4) matrix and kernel swapped for the first power's, the engine grows T_n by 3/2 per step
    f, h, trace = _three_halves_trace(5)
    f2 = power(f, 2)
    assert verify_trace(growth_trace(f2, h, 5)) == {"checked": 5, "skipped": 0}
    for name in ("matrix", "_kernel", "_times"):
        object.__setattr__(f2, name, getattr(f, name))
    with pytest.raises(OracleMismatchError, match=r"n=2: engine Finite\(2\), cyclic oracle Finite\(4\)"):
        verify_trace(growth_trace(f2, h, 5))


def _reference_cyclic_indices(scalar, h, n):
    """The first ``n`` indices by :func:`cyclic_sum` on :class:`CyclicRational` generators."""
    base = cyclic_from_subgroup(h)
    term, acc, out = base.generator, base, []
    for _ in range(n):
        ratio = base.generator / acc.generator if acc.generator else Fraction(1)
        assert ratio.denominator == 1
        out.append(ratio.numerator)
        term = term * scalar
        acc = cyclic_sum(acc, CyclicRational(term))
    return out


@seed(11)
@settings(max_examples=60, deadline=None)
@example(Fraction(-5, 3), Fraction(0), 2, 4)  # the zero subgroup
@example(Fraction(0), Fraction(-7, 2), 3, 4)  # the zero map
@given(
    st.fractions(min_value=-40, max_value=40, max_denominator=40),
    st.fractions(min_value=-12, max_value=12, max_denominator=30),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=256),
)
def test_cyclic_indices_match_the_cyclic_sum_reference(ratio, gen, exponent, n):
    # ratio and gen take negative and zero numerators; gen = 0 is the zero subgroup
    q = Rational(1)
    f = power(multiplication(q, ratio), exponent)
    h = subgroup(q, [q.element([gen])])
    got = list(islice(_cyclic_indices(f, h), n))
    assert got == _reference_cyclic_indices(ratio**exponent, h, n)


def test_verify_trace_catches_a_tampered_rank_one_rational_index():
    f, h, trace = _three_halves_trace(6)
    with pytest.raises(OracleMismatchError, match=r"n=5: engine Finite\(24\), cyclic oracle Finite\(16\)"):
        verify_trace(_tampered(trace, 5, 24))


def test_verify_trace_skips_rank_two_rational_traces():
    q2 = Rational(2)
    f = power(MatrixEndo(q2, [[Fraction(0), Fraction(1)], [Fraction(3, 2), Fraction(0)]]), 1)
    h = subgroup(q2, [q2.element([1, 0]), q2.element([0, 1])])
    trace = growth_trace(f, h, 6)
    assert verify_trace(trace) == {"checked": 0, "skipped": 6, "reason": "rational rank >= 2"}
    assert verify_trace(_tampered(trace, 3, 6)) == {"checked": 0, "skipped": 6, "reason": "rational rank >= 2"}


DEFAULT_HORIZON = EntropyOptions().max_n


@pytest.mark.parametrize(
    "modulus, taps, exponent",
    [
        pytest.param(2, [(0, 1), (1, 1)], 1, id="1+s-mod-2"),
        pytest.param(3, [(0, 1), (1, 2), (2, 1)], 1, id="1+2s+s2-mod-3"),
        pytest.param(6, [(0, 1), (1, 1)], 1, id="1+s-mod-6"),
        pytest.param(2, [(-1, 1), (1, 1)], 1, id="mixed-mod-2"),
        pytest.param(3, [(-1, 2), (0, 1), (2, 1)], 1, id="mixed-mod-3"),
        pytest.param(6, [(-1, 1), (1, 5)], 1, id="mixed-mod-6"),
        pytest.param(3, [(0, 1), (1, 1)], 2, id="squared-1+s-mod-3"),
        pytest.param(5, [(1, 1)], 1, id="right-shift-mod-5"),
        pytest.param(4, [(-1, 1)], 1, id="left-shift-mod-4"),
    ],
)
def test_verify_trace_at_the_default_horizon(modulus, taps, exponent):
    amb = TorsionSum(modulus)
    f = power(StencilEndo(amb, taps), exponent)
    h = subgroup(amb, [amb.element({0: 1, 2: modulus - 1})])
    trace = growth_trace(f, h, DEFAULT_HORIZON)
    # squarefree moduli count F_p ranks, and the left shift mod 4 stops growing: nothing is skipped
    assert verify_trace(trace) == {"checked": DEFAULT_HORIZON, "skipped": 0}
    with pytest.raises(OracleMismatchError, match=rf"n={DEFAULT_HORIZON}: "):
        verify_trace(_tampered(trace, DEFAULT_HORIZON, 2 * trace.indices[-1].value))


def test_verify_trace_catches_a_tampered_index_past_the_old_element_cap():
    # |T_40 / H| mod 6 is 6^39, far past any element set; the spans mod 2 and mod 3 count it
    z6 = TorsionSum(6)
    f = power(StencilEndo(z6, [(0, 1), (1, 1)]), 1)
    trace = growth_trace(f, subgroup(z6, [z6.basis_element(0)]), DEFAULT_HORIZON)
    assert trace.indices[39] == FIN(6**39)
    assert verify_trace(trace) == {"checked": DEFAULT_HORIZON, "skipped": 0}
    with pytest.raises(OracleMismatchError, match=rf"n=40: engine Finite\({2 * 6**39}\), row spans Finite\({6**39}\)"):
        verify_trace(_tampered(trace, 40, 2 * 6**39))


def test_crt_components_split_the_modulus():
    assert _components(2) == [2]
    assert _components(12) == [4, 3]
    assert _components(30) == [2, 3, 5]
    assert _components(2 * 9 * 257) == [2, 9, 257]
    assert _components(65537) == [65537]
    # no prime factor below 2^16: the cofactor is one component, spanned whole
    assert _components(2 * 65537**2) == [2, 65537**2]
    assert _components(2**61 - 1) == [2**61 - 1]


def reference_rank(p, vectors):
    """Rank over F_p of sparse ``{i: r}`` vectors, by row reduction on the lowest coordinate."""
    rows = {}
    for v in vectors:
        v = {i: r % p for i, r in v.items() if r % p}
        while v:
            lead = min(v)
            if lead not in rows:
                inv = pow(v[lead], -1, p)
                rows[lead] = {i: r * inv % p for i, r in v.items()}
                break
            a = v[lead]
            for i, r in rows[lead].items():
                t = (v.get(i, 0) - a * r) % p
                if t:
                    v[i] = t
                else:
                    v.pop(i, None)
    return len(rows)


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 31, 61, 67, 257, 65537, 2**31 - 1]),
    st.booleans(),
    st.data(),
)
def test_fp_span_rank_matches_row_reduction(p, high, data):
    # residues taken mod a multiple of p; for p > 64 a field is wider than a byte
    m = p * data.draw(st.sampled_from([1, 2, 3]))
    amb = TorsionSum(m)
    residue = st.one_of(st.just(p), st.just(m - 1), st.integers(1, m - 1))
    vector = st.dictionaries(st.integers(0, 24), residue, max_size=8)
    vectors = data.draw(st.lists(vector, max_size=10))
    extra = data.draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(1, m - 1)), max_size=4))
    for a, b, c in extra:  # a combination of two earlier vectors: the rank must not grow
        if a < len(vectors) and b < len(vectors):
            vectors.append(dict((scaled(amb.element(vectors[a]), c) + amb.element(vectors[b])).data))
    span = _Span(p, high)
    assert all(span.absorb(_pack(amb.element(v), p, span._w)) for v in vectors)
    assert len(span.rows) == reference_rank(p, vectors)
    assert span.order == p ** len(span.rows)


def test_fp_span_rows_take_room_for_their_support_only():
    # the shift by 10000: row n is e_(10000 n), held as its coordinate and one field, not a 10000n-field int
    for q in (2, 3, 257, 4, 9):
        amb = TorsionSum(q)
        for high in (True, False):
            span = _Span(q, high)
            for n in range(64):
                span.absorb(_pack(amb.basis_element(10000 * n), q, span._w))
            assert span.rows == {10000 * n: (10000 * n, 1) for n in range(64)}
            assert span.order == q**64


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from([4, 8, 9, 16, 25, 27, 32, 49, 81, 125, 12, 18, 36, 72]), st.booleans(), st.data())
def test_span_order_matches_enumeration(q, high, data):
    # leads that are not units, and vectors that share both ends, so either pivot; a q that is not a prime
    # power (the last four) may meet two leads whose gcds do not divide each other, and the span then stops
    amb = TorsionSum(q)
    p = next(p for p in range(2, q + 1) if q % p == 0)
    residue = st.one_of(st.integers(1, q - 1).map(lambda r: r * p % q or p), st.integers(1, q - 1))
    vectors = data.draw(st.lists(st.dictionaries(st.integers(0, 4), residue, min_size=1, max_size=3), max_size=5))
    for i, c in data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, q - 1)), max_size=2)):
        if i < len(vectors):  # the same support with another top residue
            top = max(vectors[i])
            vectors.append({**vectors[i], top: c * vectors[i][top] % q or c})
    want = enumerate_subgroup(subgroup(amb, [amb.element(v) for v in vectors]), cap=1 << 14)
    assume(not want.capped)
    span = _Span(q, high)
    counted = all(span.absorb(_pack(amb.element(v), q, span._w)) for v in vectors)
    assert counted or q in (12, 18, 36, 72)
    if counted:
        assert span.order == len(want.packed)


def test_a_vector_that_evicts_a_row_is_followed_by_its_multiple_that_loses_the_lead():
    # mod 20, pivoted on the lowest coordinate: 6e_0 + 5e_1 evicts 8e_0 from the pivot 0 (gcd 2 against 4);
    # the subgroup has 20 elements, and 10(6e_0 + 5e_1) = 10e_1 is one that the two rows alone would miss
    amb = TorsionSum(20)
    vectors = [amb.element({0: 8}), amb.element({0: 6, 1: 5})]
    span = _Span(20, False)
    assert all(span.absorb(_pack(v, 20, span._w)) for v in vectors)
    assert span.order == len(enumerate_subgroup(subgroup(amb, vectors)).packed) == 20


def test_a_cofactor_span_stops_where_two_leads_gcds_do_not_divide_each_other():
    # 65537 * 65539 is past the trial division, so it is one component; on T_2 the lead 65537 meets the
    # row 65539 e_1, and neither gcd divides the other: the span stops, and the oracle spans each prime
    # from T_1 on. It once skipped 5 of the 6 indices as if past the row cap.
    q = 65537 * 65539
    assert _components(q) == [q]
    amb = TorsionSum(q)
    h = subgroup(amb, [amb.element({0: 65537}), amb.element({1: 65539})])
    span = _Span(q, True)
    assert span.absorb(_pack(amb.element({0: 65537}), q, span._w)) and span.absorb(_pack(amb.element({1: 65539}), q, span._w))
    assert not span.absorb(_pack(amb.element({1: 65537}), q, span._w))
    assert {math.gcd(span.split, q), q // math.gcd(span.split, q)} == {65537, 65539}
    trace = growth_trace(power(right_shift(amb), 1), h, 6)
    assert verify_trace(trace) == {"checked": 6, "skipped": 0}
    with pytest.raises(OracleMismatchError, match="n=6"):
        verify_trace(_tampered(trace, 6, 2 * trace.indices[5].value))


@pytest.mark.parametrize("modulus", [65537 * 65539, 65537**2 * 65539], ids=["two-primes", "prime-square-times-prime"])
def test_a_cofactor_that_is_not_a_prime_power_is_split_and_checked_at_every_index(modulus):
    # the lead 65537 meets a row whose lead is 65539: the span splits the cofactor by the two gcds
    amb = TorsionSum(modulus)
    f = power(StencilEndo(amb, [(0, 65539), (1, 1), (2, 65537)]), 2)
    h = subgroup(amb, [amb.element({0: 65537, 1: 3}), amb.element({2: 65539})])
    trace = growth_trace(f, h, 12)
    assert verify_trace(trace) == {"checked": 12, "skipped": 0}
    with pytest.raises(OracleMismatchError, match="n=12"):
        verify_trace(_tampered(trace, 12, 2 * trace.indices[10].value))


@pytest.mark.parametrize("modulus", [2**61 - 1, 2 * 65537**2], ids=["prime-cofactor", "prime-square-cofactor"])
def test_a_cofactor_that_is_a_prime_power_is_checked_at_every_index(modulus):
    # neither cofactor is known to be a prime power, but its leads' gcds divide each other;
    # mod 65537^2 the taps 65537 and the generator 65537 e_2 give leads that are not units
    amb = TorsionSum(modulus)
    f = power(StencilEndo(amb, [(0, 65537), (1, 1), (2, 65537)]), 2)
    h = subgroup(amb, [amb.element({0: 65537, 1: 3}), amb.element({2: 65537})])
    assert verify_trace(growth_trace(f, h, 12)) == {"checked": 12, "skipped": 0}


def _fields(x, w):
    """A packed vector ``(lo, v)`` of ``w``-bit fields as ``{coordinate: residue}``, zero fields left out."""
    lo, v = x
    return {lo + i: r for i in range(-(-v.bit_length() // w)) if (r := (v >> (i * w)) & ((1 << w) - 1))}


@seed(20261021)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 18, 257]), st.data())
def test_packed_fp_step_is_apply_once_iterated_then_read_mod_p(m, data):
    # the step mod every CRT component q of m, prime powers included, in each field width the oracle gives it;
    # where m has two components some coefficients vanish mod one; coordinates 0-5 under offsets -3..3 meet the boundary
    amb = TorsionSum(m)
    coeff = st.one_of(st.sampled_from([c for c in range(1, m) if math.gcd(c, m) > 1] or [1]), st.integers(1, m - 1))
    offsets = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    f = StencilEndo(amb, [(off, data.draw(coeff)) for off in offsets])
    g = amb.element(data.draw(st.dictionaries(st.integers(0, 5), st.integers(1, m - 1), max_size=4)))
    exponent = data.draw(st.integers(1, 4))
    want = g
    for _ in range(exponent):
        want = f.apply_once(want)
    for q in _components(m):
        for w in (1, _field_width(q)) if q == 2 else (_field_width(q),):
            step, x = _stepper(f.taps, q, w), _pack(g, q, w)
            for _ in range(exponent):
                x = step(x)
            assert _fields(x, w) == {i: r % q for i, r in want.data if r % q}


def enumerated_reference(f, h, horizon, cap):
    """``|T_n / H|`` by counting the elements of ``T_n`` mod the whole modulus, up to the first past ``cap``."""
    step = f.base.apply_once
    gens = h.generators()
    h_elements = t_n = enumerate_subgroup(h, cap)
    out = []
    while not t_n.capped and len(out) < horizon:
        out.append(index_by_enumeration(t_n, h_elements, cap).value)
        for _ in range(f.exponent):
            gens = [step(g) for g in gens]
        t_n = adjoin(t_n, gens, cap)
    return out


@st.composite
def stencil_traces(draw):
    m = draw(st.one_of(st.sampled_from([6, 10, 15, 30, 4, 8, 9, 12, 18]), st.integers(2, 30)))
    amb = TorsionSum(m)
    offsets = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    taps = [(off, draw(st.integers(1, m - 1))) for off in offsets]
    vector = st.dictionaries(st.integers(0, 4), st.integers(1, m - 1), min_size=1, max_size=3)
    gens = [amb.element(v) for v in draw(st.lists(vector, min_size=1, max_size=3))]
    f = power(StencilEndo(amb, taps), draw(st.integers(1, 3)))
    return f, subgroup(amb, gens), draw(st.integers(8, 16))


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(stencil_traces())
def test_rank_counting_matches_enumeration_index_by_index(case):
    # the horizon ends where the element set of T_n mod m passes the cap
    f, h, horizon = case
    cap = 1 << 14
    want = enumerated_reference(f, h, horizon, cap)
    got = list(islice(_torsion_indices(f, h, _components(h.ambient.modulus), cap), len(want)))
    assert got == want
