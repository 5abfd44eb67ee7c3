import dataclasses
import json
import math
import operator
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from entropy_lab import closed_forms, entropy, groups, oracle
from entropy_lab import (
    INFINITE,
    Cardinality,
    EntropyOptions,
    EndoPower,
    ExactLog,
    GrowthTrace,
    LogLawReport,
    MatrixEndo,
    Rational,
    StencilEndo,
    TorsionSum,
    certify_trace,
    counterexample_report,
    entropy_on_trajectory,
    entropy_power_on_trajectory,
    growth_trace,
    image,
    inert_certificate,
    is_subgroup_of,
    left_shift,
    log_law_report,
    multiplication,
    partial_trajectory,
    power,
    quotient_index,
    right_shift,
    subgroup,
    subgroup_order,
    subgroup_sum,
    trajectory_entropy,
    trajectory_identity_check,
    trajectory_invariance_report,
)
from entropy_lab.errors import (
    AmbientMismatchError,
    InternalInvariantViolation,
    NotInertError,
)
from entropy_lab.oracle import CyclicRational, cyclic_from_subgroup, cyclic_sum

import hermite
from instances import companion, identity_pool, invariance_pool

Z2 = TorsionSum(2)
Q = Rational(1)
FIN = Cardinality.finite

BETA = right_shift(Z2)
H = subgroup(Z2, [Z2.basis_element(0)])
HP = subgroup(Z2, [Z2.basis_element(0), Z2.basis_element(1)])
MULT_3_2 = multiplication(Q, Fraction(3, 2))
ZEE = subgroup(Q, [Q.element([1])])


def certified(f, h, opts=EntropyOptions()):
    """The verdict on ``f``'s growth trace from the inert ``h``, at ``opts``' horizon."""
    return certify_trace(growth_trace(f, h, opts.max_n))


def swap_scale_map():
    amb = Rational(2)
    m = [[Fraction(0), Fraction(1)], [Fraction(3, 2), Fraction(0)]]
    return amb, MatrixEndo(amb, m), subgroup(amb, [amb.element([1, 0])])


# -- partial_trajectory ------------------------------------------------------


def test_trajectory_step_one_is_the_subgroup_itself():
    assert partial_trajectory(BETA, H, 1) == H
    assert partial_trajectory(MULT_3_2, ZEE, 1) == ZEE


def test_double_shift_trajectory_of_two_coordinates_fills_even_window():
    beta2 = power(BETA, 2)
    for n in range(1, 6):
        t = partial_trajectory(beta2, HP, n)
        width = 2 * n
        assert t.support_window == width
        assert t.basis == tuple((i, (1,)) for i in range(width))
        assert subgroup_order(t) == FIN(2**width)


def test_double_shift_trajectory_of_one_coordinate_hits_even_coordinates():
    beta2 = power(BETA, 2)
    for n in range(1, 7):
        t = partial_trajectory(beta2, H, n)
        want = subgroup(Z2, [Z2.basis_element(2 * j) for j in range(n)])
        assert t == want
        assert subgroup_order(t) == FIN(2**n)
        assert quotient_index(t, H) == FIN(2 ** (n - 1))


def test_trajectory_rejects_bad_arguments():
    with pytest.raises(ValueError):
        partial_trajectory(BETA, H, 0)
    with pytest.raises(AmbientMismatchError):
        partial_trajectory(BETA, ZEE, 2)


# -- inert_certificate ---------------------------------------------------------


def test_finite_torsion_subgroups_are_inert():
    for h in (H, HP):
        cert = inert_certificate(BETA, h)
        assert cert.verdict
        assert cert.defect.is_finite


def test_invariant_subgroup_has_trivial_defect():
    lam = StencilEndo(Z2, [(-1, 1)])
    h = subgroup(Z2, [Z2.basis_element(0)])
    cert = inert_certificate(lam, h)  # left shift sends e0 to 0
    assert cert == inert_certificate(StencilEndo(Z2, [(0, 1)]), h)
    assert cert.defect == FIN(1)
    assert cert.verdict


def test_rank_growth_means_not_inert():
    amb = Rational(2)
    f = MatrixEndo(amb, [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]])
    h = subgroup(amb, [amb.element([1, 0])])
    cert = inert_certificate(f, h)
    assert not cert.verdict
    assert cert.defect == INFINITE


# -- growth_trace -----------------------------------------------------------------


def test_growth_under_identity_saturates_immediately():
    tr = growth_trace(StencilEndo(Z2, [(0, 1)]), HP, 6)
    assert tr.saturated_at == 1
    assert (tr.walked, tr.limit) == ((1,), 1)
    assert tr.saturated_at == len(tr.walked)
    assert list(tr.indices) == [FIN(1)] * 6
    assert list(tr.increments) == [FIN(1)] * 5


def test_growth_frozen_indices_for_double_shift():
    tr_h = growth_trace(power(BETA, 2), H, 8)
    assert [c.value for c in tr_h.indices] == [2 ** (n - 1) for n in range(1, 9)]
    tr_hp = growth_trace(power(BETA, 2), HP, 8)
    assert [c.value for c in tr_hp.indices] == [2 ** (2 * n - 2) for n in range(1, 9)]


@pytest.mark.parametrize("max_n", [1, 2, 4])
def test_growth_requires_inert_subgroup(max_n):
    # the trace's first step is the inert certificate, so even max_n = 1 takes it
    amb, f, seed = swap_scale_map()
    with pytest.raises(NotInertError):
        growth_trace(f, seed, max_n)


@pytest.mark.parametrize("op", ["growth_trace", "trajectory_invariance_report"])
def test_a_seed_that_must_be_inert_fails_at_its_first_step_whatever_the_rank(op, monkeypatch):
    # the rank-400 cycle from e_0 has inert level 400: a search for it would canonicalise 399 levels,
    # where the first step, T_2 / T_1, already shows the seed is not inert
    r = 400
    amb = Rational(r)
    f = MatrixEndo(amb, [[Fraction(int(i == j + 1)) for j in range(r - 1)] + [Fraction(i == 0, 2)] for i in range(r)])
    seed = subgroup(amb, [amb.basis_element(0)])
    canonical = []
    to_subgroup = groups._RationalAcc.to_subgroup
    monkeypatch.setattr(groups._RationalAcc, "to_subgroup", lambda acc, amb: canonical.append(1) or to_subgroup(acc, amb))
    start = time.perf_counter()
    with pytest.raises(NotInertError, match=r"subgroup is not inert \(defect Infinite\)"):
        getattr(entropy, op)(f, seed, 2 if op == "trajectory_invariance_report" else 8)
    assert time.perf_counter() - start < 1.0
    assert canonical == []


def test_growth_index_increment_consistency():
    tr = growth_trace(power(BETA, 2), HP, 6)
    for i, inc in enumerate(tr.increments):
        assert tr.indices[i] * inc == tr.indices[i + 1]


def test_growth_trace_carries_the_map_it_was_grown_under():
    beta2 = power(BETA, 2)
    assert growth_trace(beta2, H, 4).endo is beta2
    tr = growth_trace(BETA, H, 4)
    assert (tr.endo.base, tr.endo.exponent) == (BETA, 1)
    # the map is not compared: a trace equals one with the same indices under another map
    assert dataclasses.replace(tr, endo=beta2) == tr
    found = trajectory_entropy(MULT_3_2, 3, ZEE, EntropyOptions(max_n=6))
    assert (found.trace.endo.base, found.trace.endo.exponent) == (MULT_3_2, 3)
    assert found.trace.subgroup == partial_trajectory(MULT_3_2, ZEE, found.inert_level + 2)


# -- the divisor chain of increments -----------------------------------------------


@st.composite
def chain_cases(draw):
    """A stencil mod 2-12 with offsets -2..3 or a companion of a degree 1-4 polynomial; a seed, k and max_n."""
    if draw(st.booleans()):
        m = draw(st.integers(2, 12))
        amb = TorsionSum(m)
        offsets = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=3, unique=True))
        f = StencilEndo(amb, [(o, draw(st.integers(1, m - 1))) for o in offsets])
        vector = st.dictionaries(st.integers(0, 5), st.integers(1, m - 1), min_size=1, max_size=3)
        seed_gens = [amb.element(v) for v in draw(st.lists(vector, min_size=1, max_size=2))]
    else:
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=5).filter(lambda c: c[0] and c[-1]))
        f = companion(coeffs)
        seed_gens = [f.ambient.basis_element(0)]
    return f, subgroup(f.ambient, seed_gens), draw(st.integers(1, 3)), draw(st.sampled_from([64, 40, 17, 5, 2]))


@seed(20261021)
@settings(max_examples=120, deadline=None)
@given(chain_cases())
def test_growth_increments_form_a_divisor_chain(case):
    f, seed_subgroup, k, max_n = case
    trace = trajectory_entropy(f, k, seed_subgroup, EntropyOptions(max_n=max_n)).trace
    incs = [inc.value for inc in trace.increments]
    assert all(a % b == 0 for a, b in zip(incs, incs[1:]))


@pytest.mark.parametrize("steps", [[[4], [8]], [[4], [0]]], ids=["not-a-divisor", "infinite-after-finite"])
def test_an_increment_that_breaks_the_divisor_chain_is_an_invariant_violation(steps):
    # BETA's closed form from H is 2, so the synthetic steps start above it, or the walk would stop at T_2
    with pytest.raises(InternalInvariantViolation, match=r"\|T_3/T_2\|"):
        entropy._read_trace(power(BETA, 1), H, iter(steps), 8)


# -- the closed form that ends a rational walk ------------------------------------

# 6x^2 + x + 1: the monic polynomial is x^2 + x/6 + 1/6, so c = 6, reached on the first step from Z^2
COMPANION_6 = companion([1, 1, 6])
LATTICE_2 = subgroup(Rational(2), [Rational(2).basis_element(0), Rational(2).basis_element(1)])
# last column -2/3, -2/3, -4/3, 2/3, 2/3: c = 3, and the seed e_0 is inert from level 5
COMPANION_5 = companion([2, 2, 4, -2, -2, 3])
E_0 = subgroup(Rational(5), [Rational(5).basis_element(0)])


def _applies(monkeypatch) -> list:
    """Wrap ``EndoPower._apply_packed`` so that each packed step of a walk appends its map to the list returned."""
    calls = []
    original = EndoPower._apply_packed

    def counted(self, v):
        calls.append(self)
        return original(self, v)

    monkeypatch.setattr(EndoPower, "_apply_packed", counted)
    return calls


def _walked(g, h, max_n):
    """The increments of ``max_n - 1`` steps of the walk of ``g`` from ``h``, with no stop."""
    steps = entropy._trajectory(g, h)[1]
    return tuple(groups._index(next(steps)) for _ in range(max_n - 1))


def test_a_closed_form_above_the_limit_is_an_invariant_violation(monkeypatch):
    original = closed_forms.rational_c
    monkeypatch.setattr(closed_forms, "rational_c", lambda g, h: 2 * original(g, h))
    with pytest.raises(InternalInvariantViolation, match=r"\|T_2/T_1\| is not a multiple of the closed form 12"):
        growth_trace(COMPANION_6, LATTICE_2, 8)


@pytest.mark.parametrize("c, steps", [(6, 1), (3, 7), (2, 7), (1, 7)])
def test_a_trace_walks_until_an_increment_equals_the_closed_form(monkeypatch, c, steps):
    # the true c = 6 stops the walk on its first step; a proper divisor of it never equals an increment
    monkeypatch.setattr(closed_forms, "rational_c", lambda g, h: c)
    calls = _applies(monkeypatch)
    trace = growth_trace(COMPANION_6, LATTICE_2, 8)
    assert len(calls) == 2 * steps
    assert len(trace.walked) == steps
    assert trace.limit == (6 if c == 6 else None)
    assert trace.increments == _walked(power(COMPANION_6, 1), LATTICE_2, 8) == (FIN(6),) * 7
    assert trace.indices == tuple(FIN(6**i) for i in range(8))
    assert trace.saturated_at is None


def test_a_rational_trace_draws_one_step_past_its_reference(monkeypatch):
    calls = _applies(monkeypatch)
    found = trajectory_entropy(COMPANION_5, 1, E_0, EntropyOptions(max_n=10000))
    assert (found.inert_level, found.entropy) == (5, ExactLog(3))
    assert found.trace.increments == (FIN(3),) * 9999
    # four steps to the reference T_5, and the one that certifies it is the trace's first
    assert len(calls) == 5


def test_log_law_takes_the_power_closed_form_from_the_composed_map(monkeypatch):
    seen = []
    original = closed_forms.rational_c

    def spy(g, h):
        seen.append((g.base, g.exponent))
        return original(g, h)

    monkeypatch.setattr(closed_forms, "rational_c", spy)
    rep = log_law_report(COMPANION_5, 64, E_0, EntropyOptions(max_n=16))
    assert seen == [(COMPANION_5, 1), (COMPANION_5, 64)]
    assert rep.entropy_power == ExactLog(3**64)
    assert rep.law_holds


def test_the_power_closed_form_holds_on_a_span_the_base_map_does_not_preserve():
    # f = [[0, 3], [1/2, 0]] sends e_0 to e_1 / 2, so Q·<e_0> is not f-invariant and <e_0> is not inert under f;
    # f^2 = 3/2, under which it is: c = 2 comes from f^2's own matrix, and a restriction of f would have no meaning
    q2 = Rational(2)
    f = MatrixEndo(q2, [[0, 3], [Fraction(1, 2), 0]])
    h = subgroup(q2, [q2.basis_element(0)])
    trace = growth_trace(power(f, 2), h, 6)
    assert certify_trace(trace) == ExactLog(2)
    assert certify_trace(trace).certified_by == "closed_form"
    assert trace.increments == (FIN(2),) * 5
    assert inert_certificate(power(f, 2), h).defect == FIN(2)
    assert inert_certificate(f, h).defect == INFINITE


def test_log_law_at_the_longest_horizon_stores_no_filled_tail():
    # the power's indices reach 3^(64*9999), about 10^6 bits each: a trace keeps its walked head and limit
    tracemalloc.start()
    try:
        rep = log_law_report(COMPANION_5, 64, E_0, EntropyOptions(max_n=10000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.law_holds
    assert peak < 20 * 2**20


def test_log_law_on_the_rank_100_cycle_takes_seconds_at_most():
    # e_i -> e_(i+1), e_99 -> e_0/2 from e_0: the trajectory fills Q^100, where the characteristic polynomial
    # is x^100 - 1/2, so c = 2 and 4 for the square; the d products of Faddeev-LeVerrier took 6.9-9.8 s on a
    # 2-core host, power sums 1.5-1.8 s
    r = 100
    amb = Rational(r)
    f = MatrixEndo(amb, [[Fraction(int(i == j + 1)) for j in range(r - 1)] + [Fraction(i == 0, 2)] for i in range(r)])
    start = time.perf_counter()
    rep = log_law_report(f, 2, subgroup(amb, [amb.basis_element(0)]), EntropyOptions(max_n=64))
    assert time.perf_counter() - start < 4.0
    assert (rep.entropy_base, rep.entropy_power, rep.law_holds) == (ExactLog(2), ExactLog(4), True)


@st.composite
def rational_cases(draw, max_rank=4):
    """A rational map of rank 1-``max_rank``, a companion or a matrix of small fractions; a seed of 1-2 generators; k."""
    rank = draw(st.integers(1, max_rank))
    amb = Rational(rank)
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=rank, max_size=rank).filter(lambda c: c[0]))
        f = companion(coeffs + [draw(st.sampled_from([1, 2, 3, 4, 6, 9]))])
    else:
        entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 4]))
        entries = draw(st.lists(entry, min_size=rank**2, max_size=rank**2))
        f = MatrixEndo(amb, [entries[i : i + rank] for i in range(0, rank**2, rank)])
    # large powers of 2 and 3 set the seed's lattice across the map's, for the longest transients
    scale = st.sampled_from([1, 1, 2**20, 3**12, Fraction(1, 2**16), Fraction(1, 3**9)])
    coord = st.builds(operator.mul, st.integers(-5, 5), scale)
    gens = draw(st.lists(st.lists(coord, min_size=rank, max_size=rank), min_size=1, max_size=2))
    return f, subgroup(amb, [amb.element(g) for g in gens]), draw(st.integers(1, 2))


# A rational transient is short: in random searches over 4,632 inert traces
# of such maps and seeds, none was longer than 3 steps past the reference.
RATIONAL_HORIZON = 16


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(rational_cases())
def test_a_rational_trace_equals_the_full_walk(case):
    f, seed_subgroup, k = case
    reference = trajectory_entropy(f, k, seed_subgroup, EntropyOptions(max_n=1)).trace.subgroup
    g = power(f, k)
    walked = _walked(g, reference, RATIONAL_HORIZON)
    trace = growth_trace(g, reference, RATIONAL_HORIZON)
    assert trace.increments == walked
    assert closed_forms.rational_c(g, reference) == walked[-1].value


# -- the closed form that ends a stencil walk --------------------------------------


def test_a_stencil_closed_form_above_the_limit_is_an_invariant_violation(monkeypatch):
    # the right shift mod 2 from <e_0> adds 2 at every step; twice its closed form is no divisor of that
    original = closed_forms.stencil_c
    monkeypatch.setattr(closed_forms, "stencil_c", lambda g, h: 2 * original(g, h))
    with pytest.raises(InternalInvariantViolation, match=r"\|T_2/T_1\| is not a multiple of the closed form 4"):
        growth_trace(BETA, H, 8)


Z5 = TorsionSum(5)
# Both printed a wrong exact entropy and law_holds false while verdicts were read off the window: the
# increments keep the value of the transient (4 and 25) until the trajectory's left end reaches coordinate 0,
# about 100 and 205 steps on, and only then drop to the limit (2 and 5).
FAR_MIXED_SIGN = [
    (StencilEndo(Z2, [(-1, 1), (1, 1)]), subgroup(Z2, [Z2.basis_element(100), Z2.basis_element(101)]), 2, 2),
    (StencilEndo(Z5, [(-3, 1), (1, 4)]), subgroup(Z5, [Z5.element({201: 1, 204: 1, 205: 1}), Z5.element({201: 2})]), 5, 4),
]


@pytest.mark.parametrize("max_n", [1, 2, 8, 64, 300, 10000])
@pytest.mark.parametrize("f, h, c, k", FAR_MIXED_SIGN, ids=["mod2", "mod5"])
def test_a_mixed_sign_stencil_from_a_far_seed_is_proved_at_every_horizon(f, h, c, k, max_n):
    rep = log_law_report(f, k, h, EntropyOptions(max_n=max_n))
    assert (rep.entropy_base, rep.entropy_base.certified_by) == (ExactLog(c), "closed_form")
    assert (rep.entropy_power, rep.entropy_power.certified_by) == (ExactLog(c**k), "closed_form")
    assert rep.law_holds is True


def test_a_prime_power_component_whose_positive_taps_are_not_units_is_bounded():
    # s^-1 + 1 + 2s mod 4: any word with two 2s-steps is 0, so T_n stays below coordinate 102;
    # from e_100 the increments are 4 until the walk saturates at n = 101
    z4 = TorsionSum(4)
    f, h = StencilEndo(z4, [(-1, 1), (0, 1), (1, 2)]), subgroup(z4, [z4.basis_element(100)])
    trace = growth_trace(f, h, 64)
    assert (trace.walked[-1], trace.limit, trace.floor) == (4, None, 1)
    verdict = certify_trace(trace)
    assert (verdict, verdict.certified_by) == (ExactLog(1), "bounded")


SQUAREFREE = [m for m in range(2, 31) if all(m % (p * p) for p in (2, 3, 5))]
# prime powers, and moduli with a prime factor past 2^16, squared or not: none is factored
MODULI = SQUAREFREE + [4, 8, 9, 12, 16, 18] + [q * 65537 for q in (2, 3)] + [q * 65537**2 for q in (1, 2, 3)]


@st.composite
def stencil_cases(draw):
    """A stencil mod a drawn m with offsets -3..3, a seed of 1-2 generators on coordinates up to 24, and k <= 4.

    A coefficient is often a multiple of 2, 3 or 65537, so that it is a unit on some components only.
    """
    m = draw(st.sampled_from(MODULI))
    amb = TorsionSum(m)
    multiple = st.sampled_from([2, 3, 65537]).flatmap(lambda p: st.integers(1, m).map(lambda c: c * p % m or 1))
    coeff = st.one_of(st.integers(1, m - 1), multiple)
    offsets = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    f = StencilEndo(amb, [(o, draw(coeff)) for o in offsets])
    vector = st.dictionaries(st.integers(0, 24), coeff, min_size=1, max_size=3)
    seed_gens = [amb.element(v) for v in draw(st.lists(vector, min_size=1, max_size=2))]
    return f, subgroup(amb, seed_gens), draw(st.integers(1, 4))


# In random searches over 1,000 traces mod squarefree m, each walked 200 or 400 steps, and 800 more over all
# of MODULI, each walked 256 steps, no increment after the 24th differed from the last one.
STENCIL_HORIZON = 64


@seed(20261022)
@settings(max_examples=150, deadline=None)
@given(stencil_cases())
def test_the_stencil_closed_form_is_the_last_increment_of_a_full_walk(case):
    f, seed_subgroup, k = case
    g = power(f, k)
    assert closed_forms.stencil_c(g, seed_subgroup) == _walked(g, seed_subgroup, STENCIL_HORIZON)[-1].value
    verdict = trajectory_entropy(f, k, seed_subgroup, EntropyOptions(max_n=8)).entropy
    assert isinstance(verdict, ExactLog)
    assert verdict.certified_by in ("saturation", "bounded", "closed_form")


@pytest.mark.parametrize("top", [2, 4])
@pytest.mark.parametrize("m, k, c", [(6, 1, 12), (6, 2, 36), (514, 1, 1028), (514, 2, 514**2)])
def test_a_row_brought_up_past_a_tap_vanishing_mod_p_loses_its_top_zeros(top, m, k, c):
    # 1 + s^2 + (m/2)s^3 mod m = 2p: mod p the top tap vanishes, so g moves a top coordinate up by 2k there,
    # and a row of <e_0, e_top> brought up by g mod m, read mod p, ends in zeros that the closed form must
    # trim; mod 514 the packed step is the wide-field kernel
    amb = TorsionSum(m)
    g = power(StencilEndo(amb, [(0, 1), (2, 1), (3, m // 2)]), k)
    h = subgroup(amb, [amb.basis_element(0), amb.basis_element(top)])
    assert closed_forms.stencil_c(g, h) == c == _walked(g, h, STENCIL_HORIZON)[-1].value


def _stencil(m, taps, gens):
    amb = TorsionSum(m)
    return StencilEndo(amb, taps), subgroup(amb, [amb.element(v) for v in gens])


# Each needs a step of the elimination that the cases above can do without: an S-vector of two rows of one
# residue on different layers (mod 16 and mod 27), the multiple (q / e) v of a row with a top pivot that is
# not a unit (mod 4), or the lowest of a residue's layers (mod 27 and mod 6); then two mod 36 and 100, with
# taps that split them, three whose nonzero non-unit tap above b needs the layered pivot, and three (mod 18,
# 12 and 72) where that pivot meets entries above its layer that are not nilpotent, and splits the modulus.
STAIRCASES = [
    (16, [(-3, 3), (-1, 8), (1, 1)], [{1: 1, 4: 14, 7: 14}, {2: 2}, {8: 4}], 3, 512),
    (27, [(-2, 1), (2, 20)], [{1: 1, 2: 9, 10: 9}, {7: 1, 12: 15}], 1, 243),
    (4, [(-2, 1), (2, 1)], [{4: 1, 12: 2}], 1, 4),
    (27, [(1, 22)], [{4: 9}, {9: 3, 11: 9}], 1, 9),
    (6, [(0, 1), (1, 1)], [{0: 2}, {9: 3, 12: 1}, {12: 2}], 2, 18),
    (36, [(-3, 16), (3, 35)], [{2: 1, 10: 12}], 2, 36),
    (100, [(-2, 34), (-1, 94), (3, 4)], [{1: 10}, {3: 10, 10: 1}, {10: 2}], 1, 625),
    (12, [(0, 6), (2, 1), (4, 6)], [{3: 1}, {5: 4}], 1, 12),
    (36, [(0, 5), (2, 5), (3, 18)], [{2: 1}, {4: 1}], 1, 72),
    (8, [(0, 1), (1, 1), (2, 1), (3, 2)], [{0: 1, 2: 4}, {5: 2}], 1, 32),
    (18, [(0, 7), (1, 5), (2, 6)], [{2: 3, 3: 16}], 1, 18),
    (12, [(0, 6), (2, 1), (3, 6)], [{1: 8, 3: 7, 5: 3}, {0: 1, 1: 11}], 1, 144),
    (72, [(0, 67), (2, 29), (3, 48)], [{2: 36, 3: 28, 5: 23}, {1: 57, 2: 16}], 2, 2592),
]


@pytest.mark.parametrize("m, taps, gens, k, c", STAIRCASES, ids=[f"mod{case[0]}-{i}" for i, case in enumerate(STAIRCASES)])
def test_the_closed_form_needs_every_step_of_the_elimination(m, taps, gens, k, c):
    f, h = _stencil(m, taps, gens)
    g = power(f, k)
    assert closed_forms.stencil_c(g, h) == c == _walked(g, h, 120)[-1].value
    assert oracle.verify_trace(growth_trace(g, h, 40)) == {"checked": 40, "skipped": 0}


def test_a_row_brought_up_off_its_pivot_is_an_invariant_violation(monkeypatch):
    # 1 + s + s^2 mod 4 moves a top coordinate up by 2; a step that moves every vector up by 3 breaks the proof
    z4 = TorsionSum(4)
    f = StencilEndo(z4, [(0, 1), (1, 1), (2, 1)])
    h = partial_trajectory(f, subgroup(z4, [z4.basis_element(0)]), 3)
    monkeypatch.setattr(EndoPower, "_apply_packed", lambda self, v: (v[0] + 3, v[1]))
    with pytest.raises(InternalInvariantViolation, match="g does not move a pivot up by 2 and keep its layer"):
        closed_forms.stencil_c(power(f, 1), h)


ONE_PLUS_S_PLUS_S2 = [(0, 1), (1, 1), (2, 1)]


@pytest.mark.parametrize(
    "m, taps", [(4, ONE_PLUS_S_PLUS_S2), (6, ONE_PLUS_S_PLUS_S2), (4, [(0, 1), (1, 1), (2, 2)])], ids=["mod4", "mod6", "2s2-mod4"]
)
def test_the_closed_form_on_a_long_reference_takes_seconds_at_most(m, taps):
    # on the valuation pivot with the vectors taken highest end first, 1+s+s^2 mod 4 took 89 s on T_127, and a
    # prototype 91-132 s from T_48 on; 2s^2 is a nonzero non-unit tap above b = 1
    amb = TorsionSum(m)
    f = StencilEndo(amb, taps)
    h = partial_trajectory(f, subgroup(amb, [amb.basis_element(0)]), 127)
    for k in (1, 64):
        start = time.perf_counter()
        c = closed_forms.stencil_c(power(f, k), h)
        assert time.perf_counter() - start < 5.0
        assert c == m**k


@pytest.mark.parametrize("m, taps", [(4, ONE_PLUS_S_PLUS_S2), (12, [(0, 2), (1, 3), (3, 1)])], ids=["mod4", "mod12"])
@pytest.mark.parametrize("max_n", [64, 10000])
def test_log_law_of_a_prime_power_stencil_at_the_largest_power_holds_at_once(m, taps, max_n):
    # 11.8 s mod 4 and 38.3 s mod 12 at max_n = 64, both Undetermined, before the prime-power proof
    amb = TorsionSum(m)
    start = time.perf_counter()
    rep = log_law_report(StencilEndo(amb, taps), 64, subgroup(amb, [amb.basis_element(0)]), EntropyOptions(max_n=max_n))
    assert time.perf_counter() - start < 0.5
    assert (rep.entropy_base, rep.entropy_power, rep.law_holds) == (ExactLog(m), ExactLog(m**64), True)
    assert rep.entropy_power.certified_by == "closed_form"


# 2^61 - 1 and the 100-digit product have no prime factor below 2^16; nothing factors any of them
BIG_MODULI = [2**61 - 1, 65537 * 65539, 2**64, (10**50 + 151) * (10**49 + 9)]


@pytest.mark.parametrize("m", BIG_MODULI, ids=["2^61-1", "65537*65539", "2^64", "100-digits"])
def test_the_right_shift_mod_a_large_modulus_is_log_m(m):
    amb = TorsionSum(m)
    h = subgroup(amb, [amb.basis_element(0)])
    start = time.perf_counter()
    verdict = entropy_on_trajectory(right_shift(amb), h)
    assert time.perf_counter() - start < 0.1
    assert (verdict, verdict.certified_by) == (ExactLog(m), "closed_form")
    assert log_law_report(right_shift(amb), 2, h).law_holds is True


def test_the_closed_form_splits_a_modulus_where_a_tap_is_a_unit_on_one_part_only():
    # 65537 is a unit mod 3 and nilpotent mod 65537^2: there b is 0 and the part is bounded; mod 3 the square
    # is 1 + s + s^2, of rank 1 from e_0
    m = 3 * 65537**2
    amb = TorsionSum(m)
    g = power(StencilEndo(amb, [(0, 1), (1, 65537)]), 2)
    h = subgroup(amb, [amb.basis_element(0)])
    assert closed_forms.stencil_c(g, h) == 3 == _walked(g, h, 16)[-1].value


def test_log_law_of_a_three_tap_stencil_at_the_largest_power_stops_at_its_closed_form():
    # 16.5 s while the power walked to max_n; its closed form 6^64 is its first increment
    z6 = TorsionSum(6)
    f, h = StencilEndo(z6, [(0, 1), (1, 1), (2, 1)]), subgroup(z6, [z6.basis_element(0)])
    start = time.perf_counter()
    rep = log_law_report(f, 64, h)
    assert time.perf_counter() - start < 1.0
    assert (rep.entropy_power, rep.law_holds) == (ExactLog(6**64), True)


def test_log_law_of_a_bounded_stencil_from_a_far_seed_at_the_largest_power_walks_the_seed_once():
    # s^-2 + s^-1 + 1 mod 6 from e_1000 saturates at n = 1001, the power at n = 16: the power's trace is
    # the seed walk read 64 steps at a time (1.0 s on a 2-core host, 6.0 s with a second walk of the power)
    z6 = TorsionSum(6)
    f, h = StencilEndo(z6, [(-2, 1), (-1, 1), (0, 1)]), subgroup(z6, [z6.basis_element(1000)])
    start = time.perf_counter()
    rep = log_law_report(f, 64, h, EntropyOptions(max_n=10000))
    assert time.perf_counter() - start < 8.0
    assert (rep.entropy_base, rep.entropy_power, rep.law_holds) == (ExactLog(1), ExactLog(1), True)


def test_the_power_of_a_mixed_sign_stencil_from_a_far_seed_is_read_off_the_seed_walk_in_seconds():
    # s^-1 + s mod 4 from <e_500, e_501> at k = 8: the reader multiplies eight base steps for each step
    # of the power, and this bound keeps that cost from growing unnoticed
    z4 = TorsionSum(4)
    f, h = StencilEndo(z4, [(-1, 1), (1, 1)]), subgroup(z4, [z4.basis_element(500), z4.basis_element(501)])
    start = time.perf_counter()
    verdict = entropy_power_on_trajectory(f, 8, h, EntropyOptions(max_n=10000))
    assert time.perf_counter() - start < 5.0
    assert (verdict, verdict.certified_by) == (ExactLog(4**8), "closed_form")


def test_a_stencil_with_a_far_tap_at_the_longest_horizon_stops_at_its_closed_form():
    # 1 + s^10000 mod 2 from e_0: its vectors reach 10^8 coordinates by n = 10000, and that walk was killed;
    # c = 2 is the first increment
    start = time.perf_counter()
    found = trajectory_entropy(StencilEndo(Z2, [(0, 1), (10000, 1)]), 1, H, EntropyOptions(max_n=10000))
    assert time.perf_counter() - start < 1.0
    assert (found.entropy, found.trace.walked, found.trace.limit) == (ExactLog(2), (2,), 2)


# -- certify_trace ----------------------------------------------------------------


def test_entropy_of_identity_is_zero():
    res = certified(StencilEndo(Z2, [(0, 1)]), HP)
    assert res == ExactLog(1)
    assert res.log_value == 0.0


def test_entropy_frozen_values_for_double_shift():
    assert certified(power(BETA, 2), H) == ExactLog(2)
    assert certified(power(BETA, 2), HP) == ExactLog(4)


def test_entropy_of_multiplication_with_cyclic_oracle():
    # independent chain: T_n = Z + (3/2)Z + ... folded by the gcd formula
    acc = CyclicRational(Fraction(1))
    term = Fraction(1)
    for n in range(2, 11):
        term *= Fraction(3, 2)
        acc = cyclic_sum(acc, CyclicRational(term))
        assert acc.generator == Fraction(1, 2 ** (n - 1))
        t_n = partial_trajectory(MULT_3_2, ZEE, n)
        assert cyclic_from_subgroup(t_n).generator == acc.generator
    assert certified(MULT_3_2, ZEE) == ExactLog(2)


def test_certify_with_no_increment_walked():
    # with no increments walked, the closed form still certifies, mod 2 and mod 4 alike
    assert certify_trace(growth_trace(power(BETA, 2), H, 1)) == ExactLog(2)
    z4 = TorsionSum(4)
    res = certify_trace(growth_trace(power(right_shift(z4), 2), subgroup(z4, [z4.basis_element(0)]), 1))
    assert (res, res.certified_by) == (ExactLog(4), "closed_form")


LEFT_SHIFT_FROM_E100 = (left_shift(Z2), subgroup(Z2, [Z2.basis_element(100)]))


@pytest.mark.parametrize("max_n", [1, 2, 5, 64, 100, 101, 200, 10000])
def test_left_shift_from_a_far_seed_is_log_one_at_every_horizon(max_n):
    # T_n = <e_100, ..., e_(101-n)> saturates only at n = 101; the increments are 2
    # until then, yet the offsets are all <= 0, so |T_n / H| <= 2^101 is bounded
    f, h = LEFT_SHIFT_FROM_E100
    opts = EntropyOptions(max_n=max_n)
    assert certified(f, h, opts) == ExactLog(1)
    assert entropy_on_trajectory(f, h, opts) == ExactLog(1)
    rep = log_law_report(f, 2, h, opts)
    assert rep.entropy_base == rep.entropy_power == rep.k_times_base == ExactLog(1)
    assert rep.law_holds is True


def test_power_of_a_nonpositive_stencil_is_log_one_before_its_window_settles():
    # the increments of the square are 3, 3, 3, 3, 1, ...: the window alone read log 3 at max_n = 5
    z3 = TorsionSum(3)
    f = StencilEndo(z3, [(-1, 2), (0, 2)])
    h = subgroup(z3, [z3.basis_element(4)])
    trace = growth_trace(power(f, 2), h, 5)
    assert [c.value for c in trace.increments] == [3, 3, 3, 3]
    assert certify_trace(trace) == ExactLog(1)


def test_a_stencil_with_a_positive_offset_is_proved_by_its_closed_form():
    verdict = certified(StencilEndo(Z2, [(-1, 1), (1, 1)]), H)
    assert (verdict, verdict.certified_by) == (ExactLog(2), "closed_form")


Z4, Z12 = TorsionSum(4), TorsionSum(12)
# Their increments keep a transient value, then drop to the limit for good: 16 for about 100 steps, then 4,
# for s^-1 + s from <e_100, e_101>; 12, 12, 12, 12, then 4 for 3s^2 + 4s^-1 mod 12 from e_4. The logs of the
# last increments, once read as bounds, held 16 and 12; the closed form is 4 at every horizon.
LONG_TRANSIENTS = [
    (StencilEndo(Z4, [(-1, 1), (1, 1)]), subgroup(Z4, [Z4.basis_element(100), Z4.basis_element(101)]), 64),
    (StencilEndo(Z4, [(-1, 1), (1, 1)]), subgroup(Z4, [Z4.basis_element(100), Z4.basis_element(101)]), 300),
    (StencilEndo(Z12, [(-1, 4), (2, 3)]), subgroup(Z12, [Z12.basis_element(4)]), 5),
]


@pytest.mark.parametrize("f, h, max_n", LONG_TRANSIENTS, ids=["mod4-n64", "mod4-n300", "mod12-n5"])
def test_a_long_transient_is_proved_by_the_closed_form(f, h, max_n):
    assert _walked(power(f, 1), h, 400)[-1].value == 4
    verdict = trajectory_entropy(f, 1, h, EntropyOptions(max_n=max_n)).entropy
    assert (verdict, verdict.certified_by) == (ExactLog(4), "closed_form")


def test_the_stability_window_changes_no_verdict():
    f, h, _ = LONG_TRANSIENTS[2]
    narrow, wide = (trajectory_entropy(f, 1, h, EntropyOptions(max_n=6, stability_window=w)).entropy for w in (1, 5))
    assert narrow == wide == ExactLog(4)


def test_options_construct_at_the_shortest_horizon():
    assert EntropyOptions(max_n=1).max_n == 1
    with pytest.raises(ValueError, match="stability_window must be >= 1"):
        EntropyOptions(stability_window=0)


def test_every_prime_power_verdict_is_the_last_increment_of_a_long_walk():
    # none of these had a proof while only squarefree moduli did: about 120 of the 300 were Undetermined
    rng = random.Random(5)
    for _ in range(300):
        m = rng.choice([4, 8, 9, 12, 16, 18])
        amb = TorsionSum(m)
        f = StencilEndo(amb, [(o, rng.randint(1, m - 1)) for o in rng.sample(range(-3, 4), rng.randint(1, 3))])
        seed_subgroup = subgroup(amb, [amb.element({rng.randint(0, 10): rng.randint(1, m - 1)})])
        found = trajectory_entropy(f, 1, seed_subgroup, EntropyOptions(max_n=rng.randint(1, 8)))
        assert isinstance(found.entropy, ExactLog)
        assert found.entropy.c == _walked(power(f, 1), found.trace.subgroup, 400)[-1].value, (f, seed_subgroup)


def test_exact_log_scaling_and_value():
    e = ExactLog(3)
    assert e.scale(2) == ExactLog(9)
    assert e.log_value == pytest.approx(math.log(3))
    with pytest.raises(ValueError):
        ExactLog(0)


# -- the inert level of a seed ----------------------------------------------------------


def inert_level(f, seed):
    """``(m, T_m)`` for the smallest inert level ``m`` of the seed, read off its trajectory entropy."""
    found = trajectory_entropy(f, 1, seed, EntropyOptions(max_n=4))
    return found.inert_level, found.trace.subgroup


def test_level_one_when_seed_already_inert():
    m, level = inert_level(BETA, H)
    assert m == 1 and level == H


def test_level_one_for_multiplication():
    assert inert_level(MULT_3_2, ZEE) == (1, ZEE)


def test_level_two_for_swap_scale():
    amb, f, seed = swap_scale_map()
    m, level = inert_level(f, seed)
    assert m == 2
    assert level == subgroup(amb, [amb.element([1, 0]), amb.element([0, Fraction(3, 2)])])
    assert inert_certificate(f, level).defect == FIN(2)


def test_max_m_changes_no_result():
    # the level needs no search bound: max_m, read by nothing, cannot turn the level-2 answer into an error
    _, f, seed = swap_scale_map()
    bounded, free = (trajectory_entropy(f, 1, seed, EntropyOptions(max_n=8, max_m=m)) for m in (1, 32))
    assert bounded == free and bounded.inert_level == 2
    assert log_law_report(f, 2, seed, EntropyOptions(max_m=1)) == log_law_report(f, 2, seed)


@pytest.mark.parametrize("ambient", ["torsion", "rational"])
def test_the_seed_walk_stops_past_the_proved_level_bound(ambient, monkeypatch):
    # the level is 1 in a torsion sum and at most the rank in Q^r; past that an unbounded search would never end
    f, seed, bound = (BETA, H, 1) if ambient == "torsion" else (*swap_scale_map()[1:], 2)
    monkeypatch.setattr(groups, "_index", lambda gains: INFINITE)
    with pytest.raises(InternalInvariantViolation, match=f"no inert trajectory level by {bound}"):
        trajectory_entropy(f, 1, seed)


# -- entropy on trajectories ------------------------------------------------------


def test_trajectory_entropy_of_identity():
    assert entropy_on_trajectory(StencilEndo(Z2, [(0, 1)]), HP) == ExactLog(1)


def test_trajectory_entropy_of_shift_and_multiplication():
    opts = EntropyOptions(max_n=16)
    assert entropy_on_trajectory(BETA, H, opts) == ExactLog(2)
    assert entropy_on_trajectory(MULT_3_2, ZEE, opts) == ExactLog(2)


def test_power_entropy_reduces_to_plain_at_k_one():
    opts = EntropyOptions(max_n=12)
    assert entropy_power_on_trajectory(BETA, 1, H, opts) == entropy_on_trajectory(BETA, H, opts)


def test_power_entropy_of_shift_squared():
    opts = EntropyOptions(max_n=12)
    assert entropy_power_on_trajectory(BETA, 2, H, opts) == ExactLog(4)


def test_power_entropy_of_multiplication_cubed_with_oracle():
    opts = EntropyOptions(max_n=10)
    assert entropy_power_on_trajectory(MULT_3_2, 3, ZEE, opts) == ExactLog(8)
    # oracle: T_n under multiplication by (3/2)^3 from Z is (1/8^(n-1))Z
    f3 = power(MULT_3_2, 3)
    acc = CyclicRational(Fraction(1))
    term = Fraction(1)
    for n in range(2, 11):
        term *= Fraction(27, 8)
        acc = cyclic_sum(acc, CyclicRational(term))
        assert acc.generator == Fraction(1, 8 ** (n - 1))
        assert cyclic_from_subgroup(partial_trajectory(f3, ZEE, n)).generator == acc.generator


# -- trajectory identity ------------------------------------------------------------


def test_identity_trivial_at_k_one():
    assert trajectory_identity_check(BETA, 1, 2, H, 3)


def test_identity_for_double_shift():
    assert trajectory_identity_check(BETA, 2, 1, H, 3)


def test_identity_for_multiplication_with_oracle():
    assert trajectory_identity_check(MULT_3_2, 3, 1, ZEE, 4)
    h = partial_trajectory(MULT_3_2, ZEE, 3)  # the m+k-1 level with m=1, k=3
    assert cyclic_from_subgroup(h).generator == Fraction(1, 4)
    lhs = partial_trajectory(power(MULT_3_2, 3), h, 4)
    rhs = partial_trajectory(MULT_3_2, h, 10)
    assert lhs == rhs
    # oracle: both sides collect (3/2)^j for j = 0..11, folded by the gcd rule
    acc = CyclicRational(Fraction(0))
    for j in range(12):
        acc = cyclic_sum(acc, CyclicRational(Fraction(3, 2) ** j))
    assert acc.generator == Fraction(1, 2**11)
    assert cyclic_from_subgroup(lhs).generator == acc.generator


@settings(max_examples=40)
@given(st.data())
def test_identity_on_random_stencils(data):
    modulus = data.draw(st.sampled_from([2, 3, 5]))
    amb = TorsionSum(modulus)
    n_taps = data.draw(st.integers(min_value=1, max_value=2))
    offsets = data.draw(
        st.lists(st.integers(min_value=-1, max_value=2), min_size=n_taps, max_size=n_taps, unique=True)
    )
    f = StencilEndo(amb, [(o, data.draw(st.integers(min_value=1, max_value=modulus - 1))) for o in offsets])
    seed = subgroup(amb, [amb.element({data.draw(st.integers(min_value=0, max_value=2)): 1})])
    k = data.draw(st.integers(min_value=1, max_value=3))
    m = data.draw(st.integers(min_value=1, max_value=3))
    n = data.draw(st.integers(min_value=1, max_value=3))
    assert trajectory_identity_check(f, k, m, seed, n)


def test_identity_walks_the_seed_once(monkeypatch):
    # H = T_64 and the base trace from it come from one walk of the seed,
    # which stops at the closed form 2 on its first step past H; the power
    # s^64 takes one step from each of H's 64 generators. Walking both sides
    # to T_(k*n + m - 1) costs about 2*k*n calls.
    k, n = 64, 200
    calls = _applies(monkeypatch)
    assert trajectory_identity_check(BETA, k, 1, H, n)
    assert 0 < len(calls) <= 2 * k


# the rank-3 companion with last column 1/2, -3/2, 1/2: e_0's first two levels are not inert
RANK3 = companion([-1, 3, -1, 2])
E0 = subgroup(RANK3.ambient, [RANK3.ambient.element([1, 0, 0])])


@pytest.mark.parametrize("k, m, n", [(1, 1, 5), (2, 1, 3)])
def test_identity_holds_from_a_rational_reference_below_the_inert_level(k, m, n):
    h = partial_trajectory(RANK3, E0, m + k - 1)
    assert not inert_certificate(RANK3, h).verdict
    assert trajectory_identity_check(RANK3, k, m, E0, n)


_fraction = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_identity_holds_on_rational_draws_with_no_inert_filter(data):
    amb = Rational(data.draw(st.integers(1, 4)))
    row = st.lists(_fraction, min_size=amb.rank, max_size=amb.rank)
    f = MatrixEndo(amb, data.draw(st.lists(row, min_size=amb.rank, max_size=amb.rank)))
    fgen = subgroup(amb, data.draw(st.lists(row.map(amb.element), min_size=1, max_size=2)))
    k, m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    assert trajectory_identity_check(f, k, m, fgen, n)


def _orbit(f, fgen, count):
    """``f^e(g)`` for each generator ``g`` of ``fgen`` and ``e < count``, one base step at a time."""
    out = []
    for g in fgen.generators():
        for _ in range(count):
            out.append(g)
            g = f.apply_once(g)
    return out


def _assert_walks_agree_with_the_hermite_form(f, k, m, fgen, n):
    # both sides of the identity as walks of the engine: the power's from H and the base map's from H,
    # each the subgroup of f^e(fgen) for e = 0 .. k*n + m - 2, whose Hermite form is built from scratch
    h = partial_trajectory(f, fgen, m + k - 1)
    left = partial_trajectory(power(f, k), h, n)
    assert left == partial_trajectory(f, h, k * n - k + 1)
    assert (left.basis, left.den) == hermite.subgroup_form(fgen.ambient, _orbit(f, fgen, k * n + m - 1))


def test_power_and_base_walks_agree_with_the_hermite_form_on_the_identity_pool():
    # trajectory_identity_check compares indices, which cannot tell one subgroup from another of its index:
    # this is where the engine's canonical forms of the two walks are compared with each other
    for inst in identity_pool():
        _assert_walks_agree_with_the_hermite_form(inst.f, inst.k, inst.m, inst.fgen, inst.n)


@pytest.mark.parametrize("i", [0, 1, 2, 60, 61, 62])  # the pool's first three torsion and first three rational maps
def test_power_and_base_walks_agree_with_the_hermite_form_at_k64(i):
    inst = identity_pool()[i]
    _assert_walks_agree_with_the_hermite_form(inst.f, 64, inst.m, inst.fgen, 2)


@pytest.mark.parametrize(
    "f, fgen",
    [(StencilEndo(TorsionSum(6), [(0, 1), (1, 1), (2, 1)]), subgroup(TorsionSum(6), [TorsionSum(6).basis_element(0)])),
     (RANK3, E0)],
    ids=["three-tap-mod6", "rank3-companion"],
)
def test_identity_at_the_schemas_largest_k_and_n_takes_under_5s(f, fgen):
    # each side's trace stops at its closed form; walking both sides in full took over 130 s mod 6 at n=128,
    # and 10 s on Q^3 at n=160
    start = time.perf_counter()
    assert trajectory_identity_check(f, 64, 1, fgen, 10000)
    assert time.perf_counter() - start < 5


# -- invariance and the logarithmic law ----------------------------------------------


def test_invariance_trivial_at_k_one():
    rep = trajectory_invariance_report(BETA, H, 1)
    assert rep.left == rep.right
    assert rep.equal


def test_invariance_for_shift_and_multiplication():
    rep = trajectory_invariance_report(BETA, H, 2, EntropyOptions(max_n=12))
    assert rep.left == ExactLog(2) and rep.right == ExactLog(2) and rep.equal
    rep = trajectory_invariance_report(
        MULT_3_2, ZEE, 2, EntropyOptions(max_n=12)
    )
    assert rep.left == ExactLog(2) and rep.right == ExactLog(2) and rep.equal


def test_log_law_trivial_at_k_one():
    rep = log_law_report(BETA, 1, H, EntropyOptions(max_n=10))
    assert rep.law_holds
    assert rep.entropy_base == rep.entropy_power == rep.k_times_base


def test_log_law_for_shift_squared():
    rep = log_law_report(BETA, 2, H, EntropyOptions(max_n=12))
    assert rep.entropy_base == ExactLog(2)
    assert rep.entropy_power == ExactLog(4)
    assert rep.k_times_base == ExactLog(4)
    assert rep.law_holds


def test_log_law_for_multiplication_fourth_power():
    rep = log_law_report(MULT_3_2, 4, ZEE, EntropyOptions(max_n=10))
    assert rep.entropy_base == ExactLog(2)
    assert rep.entropy_power == ExactLog(16)
    assert rep.law_holds


def _record_calls(monkeypatch, *names):
    """Wrap these ``entropy`` functions so that each call logs ``(name, args)``."""
    from entropy_lab import entropy

    calls = []
    for name in names:

        def wrapper(*args, _name=name, _original=getattr(entropy, name)):
            calls.append((_name, args))
            return _original(*args)

        monkeypatch.setattr(entropy, name, wrapper)
    return calls


def test_log_law_walks_the_seed_once(monkeypatch):
    # both traces are read off one walk of the seed: the base map's from T_m, the
    # power's from T_(m+k-1), each of its steps three of the walk's
    _, f, seed = swap_scale_map()
    calls = _record_calls(monkeypatch, "_trajectory")
    rep = log_law_report(f, 3, seed, EntropyOptions(max_n=10))
    assert rep.law_holds
    assert [args[1] for _, args in calls] == [seed]


def test_bernoulli_log_law_takes_no_inert_certificate(monkeypatch):
    # the traces certify themselves: the power's first step certifies the k = 2 reference
    from entropy_lab import cli

    calls = _record_calls(monkeypatch, "inert_certificate", "partial_trajectory")
    report = cli.run(cli.builtin_scenario("bernoulli", ["3", "2"]))
    assert report.all_ok
    assert calls == []


# Walks of a trajectory (calls of ``entropy._trajectory``) per task of
# ``rational-companion-deg3-walks``, the rank-3 companion from ``e_0``:
# the seed walk finds the level, freezes the references and is every trace,
# a power's read off it ``k`` steps at a time. Invariance reads both sides
# off one walk of ``G``; the non-inert ``F`` fails once that walk finds its
# inert level above 1, before any closed form.
WALKS_PER_TASK = {
    "entropy_power_on_trajectory": 1,
    "log_law": 1,
    "trajectory_invariance:G": 1,
    "trajectory_invariance:F": 1,
    "entropy_on_trajectory": 1,
}


def test_trajectory_tasks_walk_the_seed_once(monkeypatch):
    from entropy_lab import cli

    doc = json.loads((Path(__file__).parent / "golden/input/rational-companion-deg3-walks.json").read_text())
    calls = _record_calls(monkeypatch, "_trajectory", "partial_trajectory", "inert_certificate")
    walks, rebuilt = {}, []
    for task in doc["tasks"]:
        calls.clear()
        report = cli.run(cli.parse_scenario(json.dumps({**doc, "tasks": [task]})))
        assert report.tasks[0]["error"] in (None, "NotInertError: subgroup is not inert (defect Infinite)")
        key = task["op"] + (":" + task["subgroup"] if task["op"] == "trajectory_invariance" else "")
        walks[key] = sum(name == "_trajectory" for name, _ in calls)
        rebuilt += [name for name, _ in calls if name != "_trajectory"]
    assert walks == WALKS_PER_TASK
    assert rebuilt == []


# (op, k, canonical forms, closed forms) of one task from the torsion seed <e_30, e_31> under s^-1 + s mod 2.
# Its inert level is 1 and T_1 is the seed itself, so only a window past it takes a canonical form; log_law
# and trajectory_invariance read two windows, which at k = 1 are one, read once.
READER_COUNTS = [
    ("growth", 1, 0, 1),
    ("entropy", 1, 0, 1),
    ("entropy_on_trajectory", 1, 0, 1),
    ("entropy_power_on_trajectory", 3, 1, 1),
    ("log_law", 1, 0, 1),
    ("log_law", 3, 1, 2),
    ("trajectory_invariance", 1, 0, 1),
    ("trajectory_invariance", 3, 1, 2),
]


@pytest.mark.parametrize("op, k, canonical, closed", READER_COUNTS, ids=[f"{c[0]}-k{c[1]}" for c in READER_COUNTS])
def test_each_task_reads_its_traces_off_one_walk_of_the_seed(op, k, canonical, closed, monkeypatch):
    from entropy_lab import cli

    task = {"op": op, "subgroup": "H", "max_n": 24, **({} if op == "entropy_on_trajectory" else {"k": k})}
    scenario = cli.parse_scenario(json.dumps({
        "ambient": {"kind": "torsion_sum", "modulus": 2},
        "endomorphism": {"kind": "stencil", "taps": [{"offset": -1, "coeff": 1}, {"offset": 1, "coeff": 1}]},
        "subgroups": {"H": [{"30": 1}, {"31": 1}]}, "tasks": [task],
    }))
    calls = _record_calls(monkeypatch, "_trajectory")
    counts = {"to_subgroup": 0, "stencil_c": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(groups._TorsionAcc, "to_subgroup")
    counted(closed_forms, "stencil_c")
    report = cli.run(scenario)
    assert report.tasks[0]["error"] is None
    assert (len(calls), counts["to_subgroup"], counts["stencil_c"]) == (1, canonical, closed)


def test_seed_walk_matches_the_route_through_the_reference():
    # the old route: rebuild the reference from the seed and walk its canonical generators
    opts = EntropyOptions(max_n=12)
    for inst in identity_pool():
        found = trajectory_entropy(inst.f, 1, inst.fgen, opts)
        assert found.trace.subgroup == partial_trajectory(inst.f, inst.fgen, found.inert_level)
        assert found.trace == growth_trace(inst.f, found.trace.subgroup, opts.max_n)
        powered = trajectory_entropy(inst.f, inst.k, inst.fgen, opts)
        assert powered.trace.subgroup == partial_trajectory(inst.f, inst.fgen, found.inert_level + inst.k - 1)
        assert powered.trace == growth_trace(power(inst.f, inst.k), powered.trace.subgroup, opts.max_n)
    for f, h, k in invariance_pool():
        rep = trajectory_invariance_report(f, h, k, opts)
        assert rep.left == certified(f, h, opts)
        assert rep.right == certified(f, partial_trajectory(f, h, k), opts)


@st.composite
def reader_cases(draw):
    """A stencil mod 2-6, 8, 9 or 12 with offsets -3..3, or a rational map of rank <= 3; a seed, k and max_n."""
    # the largest powers and the mixed-sign stencils come first, where Hypothesis draws most often
    kind = draw(st.sampled_from(["mixed-sign", "one-sided", "bounded", "rational"]))
    if kind == "rational":
        f, fgen, _ = draw(rational_cases(max_rank=3))
        return f, fgen, draw(st.sampled_from([8, 4, 3, 2, 1])), draw(st.integers(1, 24))
    m = draw(st.sampled_from([6, 2, 3, 4, 5, 8, 9, 12]))
    amb = TorsionSum(m)
    lo, hi = {"mixed-sign": (-3, 3), "one-sided": (0, 3), "bounded": (-3, 0)}[kind]
    offsets = set(draw(st.lists(st.integers(lo, hi), min_size=1, max_size=3)))
    if kind == "mixed-sign":
        offsets |= {draw(st.integers(-3, -1)), draw(st.integers(1, 3))}
    f = StencilEndo(amb, [(o, draw(st.integers(1, m - 1))) for o in sorted(offsets)])
    vector = st.dictionaries(st.integers(0, 60), st.integers(1, m - 1), min_size=1, max_size=3)
    fgen = subgroup(amb, [amb.element(v) for v in draw(st.lists(vector, min_size=1, max_size=3))])
    return f, fgen, draw(st.sampled_from([64, 16, 8, 4, 3, 2, 1])), draw(st.integers(1, 24))


@seed(20261033)
@settings(max_examples=100, deadline=None)
@given(reader_cases())
def test_the_seed_walk_read_k_steps_at_a_time_is_the_powers_own_walk(case):
    # the power's own walk from the reference, rebuilt from the seed, is the reference for the reader
    f, fgen, k, max_n = case
    opts = EntropyOptions(max_n=max_n)
    powered = trajectory_entropy(f, k, fgen, opts)
    m = powered.inert_level
    reference = partial_trajectory(f, fgen, m + k - 1)
    assert powered.trace.subgroup == reference
    own = growth_trace(power(f, k), reference, max_n)
    assert powered.trace == own
    base = trajectory_entropy(f, 1, fgen, opts)
    assert base.inert_level == m
    rep = log_law_report(f, k, fgen, opts)
    scaled = base.entropy.scale(k)
    assert rep == LogLawReport(k, base.entropy, powered.entropy, scaled, powered.entropy == scaled)
    proofs = (rep.entropy_base, rep.entropy_power, rep.k_times_base)
    assert [e.certified_by for e in proofs] == [e.certified_by for e in (base.entropy, powered.entropy, scaled)]


def test_an_infinite_step_of_the_walk_past_the_reference_is_an_invariant_violation(monkeypatch):
    # the power's first step from T_(m+k-1) certifies it: here k = 3 and m = 1, and the
    # walk's fourth step, the second of that power step, is made infinite
    real = entropy._trajectory

    def broken(f, h):
        acc, steps = real(f, h)
        return acc, ([0] if i == 3 else gains for i, gains in enumerate(steps))

    monkeypatch.setattr(entropy, "_trajectory", broken)
    with pytest.raises(InternalInvariantViolation, match="not inert under the power"):
        trajectory_entropy(BETA, 3, H, EntropyOptions(max_n=4))
    with pytest.raises(InternalInvariantViolation, match="not inert under the power"):
        log_law_report(BETA, 3, H, EntropyOptions(max_n=4))


# -- counterexample -------------------------------------------------------------------


def test_counterexample_report_full_values():
    rep = counterexample_report()
    assert rep.h == H and rep.h_prime == HP
    assert len(rep.rows) == 8
    for n, idx_h, idx_hp in rep.rows:
        assert idx_h == FIN(2 ** (n - 1))
        assert idx_hp == FIN(2 ** (2 * n - 2))
    n1 = rep.rows[0]
    assert n1[1] == FIN(1) and n1[2] == FIN(1)
    n5 = rep.rows[4]
    assert n5[1] == FIN(16) and n5[2] == FIN(256)
    assert rep.entropy_h == ExactLog(2)
    assert rep.entropy_h_prime == ExactLog(4)
    assert rep.distinct
    assert rep.entropy_h != rep.entropy_h_prime
    assert set(rep.certificates) == {"h_shift", "h_square", "hp_shift", "hp_square"}
    assert all(c.verdict for c in rep.certificates.values())


def test_h_prime_is_the_two_step_trajectory_of_h():
    assert HP == partial_trajectory(BETA, H, 2)


# -- structural properties on the shared random pools -----------------------------------


def test_pool_trajectories_nest_and_recur():
    for inst in identity_pool()[:40]:
        f, h = inst.f, inst.fgen
        prev = partial_trajectory(f, h, 1)
        for n in range(1, 6):
            cur = partial_trajectory(f, h, n + 1)
            assert is_subgroup_of(prev, cur)
            assert prev == subgroup_sum(prev, h)  # H stays inside every level
            # recurrence via the head: T_(n+1) = H + f(T_n)
            head = subgroup_sum(h, image(f, prev))
            # recurrence via the tail: T_(n+1) = T_n + f^n(H)
            tail = subgroup_sum(prev, image(power(f, n), h))
            assert cur == head == tail
            prev = cur


def test_pool_growth_is_multiplicative_where_inert():
    for f, h, _k in invariance_pool()[:30]:
        if not inert_certificate(f, h).verdict:
            continue
        tr = growth_trace(f, h, 6)
        for i, inc in enumerate(tr.increments):
            assert tr.indices[i] * inc == tr.indices[i + 1]
        for n in range(1, 6):
            t_lo = partial_trajectory(f, h, n)
            t_hi = partial_trajectory(f, h, n + 1)
            step = quotient_index(t_hi, t_lo)
            assert tr.indices[n - 1] * step == tr.indices[n]
