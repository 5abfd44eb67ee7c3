"""Partial trajectories, inert certificates, and intrinsic entropy limits.

For an endomorphism power ``f`` and a finitely generated subgroup ``H``, the
n-th partial trajectory is ``T_n(f, H) = H + f(H) + ... + f^(n-1)(H)``. A
subgroup is inert under ``f`` when ``(H + f(H)) / H`` is finite: its inert
level is 1. For inert ``H`` the quotients ``T_n / H`` stay finite, and the
entropy of ``f`` with respect to ``H`` is the limit of ``log|T_n / H| / n``.

Every verdict is an :class:`ExactLog`, proved, and says how
(``certified_by``). The closed form ``c`` of :mod:`~entropy_lab.closed_forms`
is the limit of the increments ``|T_(n+1) / T_n|``, and certifies ``log c``
even where the walk has not reached it. Every increment must be a multiple
of ``c``, and a walk stops at the first increment equal to it (``c = 1`` is
saturation, ``T_(n+1) = T_n``, which is permanent). A trace holds the
increments it walked and that limit, and views spell them out to ``max_n``.

Entropy of a map *on the trajectory generated by a seed subgroup* is read
from the seed's inert level ``m``, the smallest with ``T_m`` inert; the
supremum over all inert subgroups of an arbitrary ambient group is not
algorithmically attainable and is deliberately out of scope. Since
``T_n(f^k, T_(m+i)(f, H)) = T_(kn+m+i-1)(f, H)``, every trace a task reports
is a window ``(i, k)`` of one walk of the seed: ``f^k`` from ``T_(m+i)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, count, islice, repeat, tee
from typing import Iterator, Optional

from . import closed_forms, groups
from .endomorphisms import Endo, EndoPower, StencilEndo, power, right_shift
from .errors import (
    AmbientMismatchError,
    InternalInvariantViolation,
    NotInertError,
)
from .groups import FgSubgroup, Rational, TorsionSum
from .linalg import Cardinality

__all__ = [
    "EntropyOptions",
    "GrowthTrace",
    "ExactLog",
    "EntropyResult",
    "InertCertificate",
    "TrajectoryInvarianceReport",
    "LogLawReport",
    "CounterexampleReport",
    "TrajectoryEntropy",
    "partial_trajectory",
    "inert_certificate",
    "growth_trace",
    "certify_trace",
    "trajectory_entropy",
    "entropy_on_trajectory",
    "entropy_power_on_trajectory",
    "trajectory_identity_check",
    "trajectory_invariance_report",
    "log_law_report",
    "counterexample_report",
]

@dataclass(frozen=True)
class EntropyOptions:
    """Knobs for entropy certification.

    ``max_n`` is the length of the growth trace. Nothing reads
    ``stability_window`` or ``max_m``: verdicts come from proofs alone, and a
    seed's inert level needs no search bound. They stay, ints >= 1, so that
    callers which set them still run.
    """

    max_n: int = 64
    stability_window: int = 4
    max_m: int = 32

    def __post_init__(self):
        for name in ("max_n", "stability_window", "max_m"):
            if operator.index(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class InertCertificate:
    """Finiteness check of ``(H + f(H)) / H``."""

    defect: Cardinality
    verdict: bool


@dataclass(frozen=True)
class GrowthTrace:
    """Index data of a partial-trajectory chain of ``endo`` from ``subgroup``.

    ``endo`` is the map the trace was grown under; it is neither compared nor
    serialised. ``walked`` holds the increments the walk drew, down to the
    first equal to ``floor``, the closed form; ``limit`` is the floor once
    the walk reached it, or None when it reached ``max_n`` first.
    :meth:`increment_values` spells the increments out to ``max_n`` as ints,
    lazily: the walked head, then the limit, and :meth:`index_values` their
    running product from 1. The views, each built once from these, hold
    cardinalities: ``indices[i]`` is ``|T_(i+1) / H|`` (``indices[0]`` is 1)
    and ``increments[i]`` is ``|T_(i+2) / T_(i+1)|``. ``saturated_at`` (the
    limit 1) is the first ``n`` with ``T_(n+1) = T_n``.
    """

    endo: EndoPower = field(compare=False)
    subgroup: FgSubgroup
    walked: tuple[int, ...]
    max_n: int
    floor: int

    @property
    def limit(self) -> Optional[int]:
        return self.floor if self.walked and self.walked[-1] == self.floor else None

    def increment_values(self) -> Iterator[int]:
        tail = repeat(self.limit, self.max_n - 1 - len(self.walked)) if self.limit is not None else ()
        return chain(self.walked, tail)

    def index_values(self) -> Iterator[int]:
        return accumulate(self.increment_values(), operator.mul, initial=1)

    @cached_property
    def increments(self) -> tuple[Cardinality, ...]:
        return tuple(map(Cardinality.finite, self.increment_values()))

    @cached_property
    def indices(self) -> tuple[Cardinality, ...]:
        return tuple(map(Cardinality.finite, self.index_values()))

    @property
    def saturated_at(self) -> Optional[int]:
        return len(self.walked) if self.limit == 1 else None

    @property
    def index(self) -> int:
        """``|T_max_n / H|``: the walked increments' product, times the limit for each step past them."""
        return math.prod(self.walked) * (self.limit or 1) ** (self.max_n - 1 - len(self.walked))


@dataclass(frozen=True, slots=True, repr=False)
class ExactLog:
    """An exact entropy value ``log(c)`` for a positive integer ``c``.

    ``certified_by`` names its proof, and is not compared: ``"saturation"``,
    ``"bounded"`` or ``"closed_form"``.
    """

    c: int
    certified_by: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "c", operator.index(self.c))
        if self.c < 1:
            raise ValueError("ExactLog argument must be >= 1")

    @property
    def log_value(self) -> float:
        return math.log(self.c)

    def scale(self, k: int) -> "ExactLog":
        """k * log(c) = log(c**k), exactly."""
        k = operator.index(k)
        if k < 0:
            raise ValueError("scale factor must be >= 0")
        return ExactLog(self.c**k, self.certified_by)

    def __repr__(self) -> str:
        return f"ExactLog({self.c})"


EntropyResult = ExactLog


@dataclass(frozen=True)
class TrajectoryInvarianceReport:
    """Entropy of ``f`` w.r.t. ``H`` versus w.r.t. ``T_k(f, H)``."""

    left: EntropyResult
    right: EntropyResult
    equal: bool


@dataclass(frozen=True)
class TrajectoryEntropy:
    """Entropy of ``f^k`` on the trajectory of a seed, with what it was read from.

    ``inert_level`` is the smallest inert level ``m`` of the seed, and
    ``trace`` the growth trace of ``f^k`` on the reference
    ``T_(m+k-1)(f, seed)``, its ``subgroup``.
    """

    inert_level: int
    trace: GrowthTrace
    entropy: EntropyResult


@dataclass(frozen=True)
class LogLawReport:
    """Entropy of a map and of its k-th power on the same seed trajectory."""

    k: int
    entropy_base: EntropyResult
    entropy_power: EntropyResult
    k_times_base: ExactLog
    law_holds: bool


@dataclass(frozen=True)
class CounterexampleReport:
    """Worked demonstration that power entropy is sensitive to the reference subgroup.

    For the right shift ``b`` on the sum of copies of Z/2, with ``H``
    generated by ``e_0`` and ``Hp = T_2(b, H)``, the squared shift has entropy
    ``log 2`` with respect to ``H`` but ``log 4`` with respect to ``Hp``,
    so replacing a subgroup by its partial trajectory, harmless for the base
    map, changes the entropy of the square.
    """

    h: FgSubgroup
    h_prime: FgSubgroup
    rows: tuple[tuple[int, Cardinality, Cardinality], ...]
    entropy_h: ExactLog
    entropy_h_prime: ExactLog
    certificates: dict[str, InertCertificate] = field(compare=False)
    distinct: bool = True


def _trajectory(f: Endo | EndoPower, h: FgSubgroup) -> tuple:
    """``(acc, steps)``: ``acc`` holds ``T_1(f, H)``; each draw from ``steps`` grows it by one step of the walk."""
    f = power(f, 1)
    if h.ambient != f.ambient:
        raise AmbientMismatchError(f"{h.ambient!r} vs {f.ambient!r}")
    # key rows by their last column when the walk grows right from a fixed left end (an offset <= 0 and one > 0);
    # with every offset > 0 both ends move, and first-column keys are as cheap and need no conversion
    base = f.base
    acc = groups._accumulator_from(h, isinstance(base, StencilEndo) and base.taps[0][0] <= 0 < base.taps[-1][0])
    # the walk stays packed, from the seed's generators to the accumulator
    gens, apply, absorb = [groups._packed(g) for g in h.generators()], f._apply_packed, acc.absorb_packed

    def steps(gens):
        while True:
            gens = [apply(g) for g in gens]
            gains = []  # from T_n to T_(n+1): groups._index of these is |T_(n+1) / T_n|
            for g in gens:
                gains.append(absorb(g))
            yield gains

    return acc, steps(gens)


def partial_trajectory(f: Endo | EndoPower, h: FgSubgroup, n: int) -> FgSubgroup:
    """``T_n(f, H) = H + f(H) + ... + f^(n-1)(H)`` for ``n >= 1``."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("trajectory length must be >= 1")
    acc, steps = _trajectory(f, h)
    for _ in range(n - 1):
        next(steps)
    return acc.to_subgroup(h.ambient)


def inert_certificate(f: Endo | EndoPower, h: FgSubgroup) -> InertCertificate:
    """Certify whether ``(H + f(H)) / H``, that is ``T_2 / T_1``, is finite."""
    defect = groups._index(next(_trajectory(f, h)[1]))
    return InertCertificate(defect=defect, verdict=defect.is_finite)


def growth_trace(f: Endo | EndoPower, h: FgSubgroup, max_n: int) -> GrowthTrace:
    """Indices ``|T_n / H|`` and their increments for ``n = 1 .. max_n``: the window ``(0, 1)`` of the walk from ``h``.

    Requires ``h`` to be inert under ``f`` (inert level 1): the first step,
    ``T_2 / T_1``, is its certificate, taken even for ``max_n = 1``, and an
    infinite one raises :class:`~entropy_lab.errors.NotInertError`.
    The walk stops at the first increment equal to the closed form (the limit
    1 is saturation, ``T_(n+1) = T_n``); the trace's views spell out the rest.
    """
    return _seed_traces(f, h, (0, 1), max_n, inert=True)[1][0]


def _read_trace(f: EndoPower, h: FgSubgroup, steps: Iterator, max_n: int) -> GrowthTrace:
    """:func:`growth_trace` read off the steps of the walk from ``h``, drawn until an increment equals its floor.

    The floor is the closed form of :mod:`~entropy_lab.closed_forms`, for a
    rational map or a stencil; every increment must be a multiple of it. The
    trace keeps the walked increments and, once one equals the floor, the
    floor as its limit. ``h`` is inert under the base map, so only a power's
    first step from an extended level can be infinite.
    """
    incs = map(math.prod, steps)  # a step's increment, 0 for infinite, as in groups._index
    defect = next(incs)
    if not defect:
        raise InternalInvariantViolation("extended trajectory level is not inert under the power")
    floor = (closed_forms.rational_c if isinstance(h.ambient, Rational) else closed_forms.stencil_c)(f, h)
    walked, last = [], defect
    # zip stops on the range before it draws a step the trace does not need
    for n, inc in zip(range(2, max_n + 1), chain([defect], incs)):
        # f maps T_(n-1)/T_(n-2) onto T_n/T_(n-1), so each increment divides the one before it
        if not inc or last % inc:
            raise InternalInvariantViolation(f"|T_{n}/T_{n - 1}| does not divide |T_{n - 1}/T_{n - 2}|")
        if inc % floor:
            raise InternalInvariantViolation(f"|T_{n}/T_{n - 1}| is not a multiple of the closed form {floor}")
        walked.append(inc)
        last = inc
        if inc == floor:
            break
    return GrowthTrace(f, h, tuple(walked), max_n, floor)


def certify_trace(trace: GrowthTrace) -> EntropyResult:
    """``log`` of the trace's floor, its limit: ``"saturation"`` if walked to 1, else ``"bounded"`` or ``"closed_form"``."""
    return ExactLog(trace.floor, "saturation" if trace.limit == 1 else "closed_form" if trace.floor > 1 else "bounded")


def _seed_traces(
    f: Endo | EndoPower, seed: FgSubgroup, window: tuple[int, int], max_n: int, base: bool = False, inert: bool = False
) -> tuple:
    """``(m, traces)`` from one walk of the seed: its inert level, and the trace of the window ``(i, k)``.

    ``T_m + f(T_m) = T_(m+1)``, so the walk certifies each level. A finitely
    generated subgroup of a torsion sum is finite, so there ``m`` is 1. In
    ``Q^r`` the ranks of ``T_m`` rise until the first one repeats, and
    ``T_m`` is inert from there on, so ``m`` is at most ``r`` (the Krylov
    argument behind the intrinsic Yuzvinski formula, Dikranjan, Giordano
    Bruno, Salce and Virili, JPAA 219, 2015). ``T_1`` is the seed, canonical;
    with ``inert`` it must be inert, or the first step raises :class:`NotInertError`.
    The window's trace is that of ``f^k`` from ``T_(m+i)``, each step ``k`` of
    the walk; with ``base`` the window ``(0, 1)``'s comes first, off the same walk.
    """
    acc, steps = _trajectory(f, seed)
    max_n = operator.index(max_n)
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    amb = seed.ambient
    bound = amb.rank if isinstance(amb, Rational) else 1
    level = seed
    for m in count(1):
        gains = next(steps)
        if groups._index(gains).is_finite:
            break
        if inert:
            raise NotInertError("subgroup is not inert (defect Infinite)")
        if m == bound:
            raise InternalInvariantViolation(f"no inert trajectory level by {bound}")
        level = acc.to_subgroup(amb)
    walk, (i, k) = chain([gains], steps), window
    if base and window == (0, 1):  # the base window is the window: read it once
        trace = _read_trace(power(f, 1), level, walk, max_n)
        return m, [trace, trace]
    head, h, traces = [], level, []
    if i:
        head = list(islice(walk, i))  # the walk stands at T_(m+i)
        h = acc.to_subgroup(amb)
    if base:
        walk, rest = tee(walk)
        traces.append(_read_trace(power(f, 1), level, chain(head, rest), max_n))
        del rest  # read: it must not pin the window's steps in tee's buffer
    if k > 1:  # a step of f^k is k steps of the walk
        walk = map(chain.from_iterable, zip(*[walk] * k))
    traces.append(_read_trace(power(f, k), h, walk, max_n))
    return m, traces


def trajectory_entropy(
    f: Endo | EndoPower, k: int, fgen: FgSubgroup, opts: EntropyOptions | None = None
) -> TrajectoryEntropy:
    """Entropy of the k-th power of ``f`` on the trajectory generated by ``fgen``.

    The reference subgroup is ``H = T_(m+k-1)(f, fgen)`` where ``m`` is the
    smallest inert level of the seed: the trajectory of ``H`` equals the
    trajectory of the seed, and extending an inert level by ``k - 1`` more
    trajectory steps yields a subgroup inert under both ``f`` and its k-th
    power, which makes the power entropy well-defined on the trajectory.
    The trace is the seed walk's window ``(k - 1, k)``; an infinite first
    step raises :class:`~entropy_lab.errors.InternalInvariantViolation`.
    """
    opts = opts or EntropyOptions()
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    m, [trace] = _seed_traces(f, fgen, (k - 1, k), opts.max_n)
    return TrajectoryEntropy(m, trace, certify_trace(trace))


def entropy_on_trajectory(
    f: Endo | EndoPower, fgen: FgSubgroup, opts: EntropyOptions | None = None
) -> EntropyResult:
    """Entropy of ``f`` on the full trajectory generated by the seed ``fgen``."""
    return trajectory_entropy(f, 1, fgen, opts).entropy


def entropy_power_on_trajectory(
    f: Endo | EndoPower, k: int, fgen: FgSubgroup, opts: EntropyOptions | None = None
) -> EntropyResult:
    """Entropy of the k-th power of ``f`` on the trajectory generated by ``fgen``."""
    return trajectory_entropy(f, k, fgen, opts).entropy


def trajectory_identity_check(f: Endo | EndoPower, k: int, m: int, fgen: FgSubgroup, n: int) -> bool:
    """Exact subgroup identity tying power trajectories to base trajectories.

    With ``H = T_(m+k-1)(f, fgen)``, checks ``L = T_n(f^k, H)`` against
    ``R = T_(k*n-k+1)(f, H)``. Both are the sum of ``f^e(fgen)`` over
    ``e = 0 .. k*n+m-2``: ``L`` over ``e = k*i + j`` with ``0 <= i <= n-1`` and
    ``0 <= j <= m+k-2``, which is each such ``e``, by ``i = min(e // k, n-1)``.
    So the op is always True: it checks the engine's two traces against each
    other. ``H <= L <= R``, and when ``H`` is inert under ``f``, ``R / H`` is
    finite and ``L = R`` exactly when ``|L / H| = |R / H|``: the power's growth
    trace from ``H`` at ``n``, and the base trace at ``k*n-k+1`` read off the
    walk from ``fgen`` that froze ``H``, each stopping at its closed form.
    ``H`` is not inert only in ``Q^r``, below the seed's inert level, at most
    ``r``. Then ``L = T_(n-1)(f^k, H')`` with ``H' = H + f^k(H) = T_(k+1)(f, H)``,
    the identity at ``m+1`` and ``n-1``: the walk goes on to ``H'``, which must
    equal the power's ``T_2`` from ``H``. Each such step raises the rank, and
    at ``n = 1`` both sides are ``H``.
    """
    k, m, n = map(operator.index, (k, m, n))
    if min(k, m, n) < 1:
        raise ValueError("k, m, n must all be >= 1")
    acc, steps = _trajectory(f, fgen)
    for _ in range(m + k - 2):
        next(steps)
    h, gains = acc.to_subgroup(fgen.ambient), next(steps)
    while not math.prod(gains) and n > 1:
        for _ in range(k - 1):
            next(steps)
        h_next = acc.to_subgroup(fgen.ambient)
        if partial_trajectory(power(f, k), h, 2) != h_next:
            return False
        h, n, gains = h_next, n - 1, next(steps)
    if n == 1:
        return True
    base = _read_trace(power(f, 1), h, chain([gains], steps), k * n - k + 1)
    return growth_trace(power(f, k), h, n).index == base.index


def trajectory_invariance_report(
    f: Endo | EndoPower, h: FgSubgroup, k: int, opts: EntropyOptions | None = None
) -> TrajectoryInvarianceReport:
    """Entropy w.r.t. an inert ``h`` versus w.r.t. its k-step partial trajectory.

    For the base map these agree, and ``equal`` compares them exactly. As
    ``T_n(f, T_k(f, h)) = T_(n+k-1)(f, h)``, they are the windows ``(0, 1)``
    and ``(k - 1, 1)`` of one walk of ``h``, which must have inert level 1:
    else :class:`~entropy_lab.errors.NotInertError` at its first step.
    """
    opts = opts or EntropyOptions()
    k = operator.index(k)
    if k < 1:
        raise ValueError("trajectory length must be >= 1")
    _, traces = _seed_traces(f, h, (k - 1, 1), opts.max_n, base=True, inert=True)
    left, right = map(certify_trace, traces)
    return TrajectoryInvarianceReport(left=left, right=right, equal=left == right)


def log_law_report(
    f: Endo | EndoPower, k: int, fgen: FgSubgroup, opts: EntropyOptions | None = None
) -> LogLawReport:
    """Check ``entropy(f^k) = k * entropy(f)`` on the trajectory of a seed.

    One walk of the seed gives both :func:`trajectory_entropy` traces, as the
    windows ``(0, 1)``, the base map's from ``T_m``, and ``(k - 1, k)``, the
    power's from ``T_(m+k-1)``; at ``k = 1`` they are one window, read once.
    The power's closed form is its own, from ``f^k``, never ``c^k``.
    """
    opts = opts or EntropyOptions()
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    _, traces = _seed_traces(f, fgen, (k - 1, k), opts.max_n, base=True)
    base, powered = map(certify_trace, traces)
    scaled = base.scale(k)
    return LogLawReport(k=k, entropy_base=base, entropy_power=powered, k_times_base=scaled, law_holds=powered == scaled)


def counterexample_report() -> CounterexampleReport:
    """Build and verify the shift-square counterexample; mismatches are fatal.

    Construction: the right shift on the sum of copies of Z/2, ``H``
    generated by ``e_0``, ``Hp = T_2(shift, H)``. Verified facts, all exact:

    * ``H``, ``Hp`` are inert under the shift and its square,
    * ``|T_n(shift^2, H) / H| = 2**(n-1)`` and
      ``|T_n(shift^2, Hp) / Hp| = 2**(2n-2)`` for ``n = 1 .. 8``,
    * entropy of the square w.r.t. ``H`` is ``log 2``, w.r.t. ``Hp`` is
      ``log 4``: distinct.
    """
    ambient = TorsionSum(2)
    phi = power(right_shift(ambient), 1)
    phi2 = power(phi, 2)
    h = groups.subgroup(ambient, [ambient.basis_element(0)])
    hp = partial_trajectory(phi, h, 2)
    expected_hp = groups.subgroup(ambient, [ambient.basis_element(0), ambient.basis_element(1)])
    if hp != expected_hp:
        raise InternalInvariantViolation("two-step trajectory of <e0> is not <e0, e1>")

    certificates = {
        "h_shift": inert_certificate(phi, h),
        "h_square": inert_certificate(phi2, h),
        "hp_shift": inert_certificate(phi, hp),
        "hp_square": inert_certificate(phi2, hp),
    }
    if not all(c.verdict for c in certificates.values()):
        raise InternalInvariantViolation("expected inert certificates failed")

    trace_h = growth_trace(phi2, h, 16)
    trace_hp = growth_trace(phi2, hp, 16)
    rows = []
    for n in range(1, 9):
        idx_h = trace_h.indices[n - 1]
        idx_hp = trace_hp.indices[n - 1]
        if idx_h != Cardinality.finite(2 ** (n - 1)):
            raise InternalInvariantViolation(f"|T_{n}(shift^2, H)/H| != 2**{n - 1}")
        if idx_hp != Cardinality.finite(2 ** (2 * n - 2)):
            raise InternalInvariantViolation(f"|T_{n}(shift^2, Hp)/Hp| != 2**{2 * n - 2}")
        rows.append((n, idx_h, idx_hp))

    ent_h = certify_trace(trace_h)
    ent_hp = certify_trace(trace_hp)
    if ent_h != ExactLog(2):
        raise InternalInvariantViolation("entropy of the square w.r.t. H is not log 2")
    if ent_hp != ExactLog(4):
        raise InternalInvariantViolation("entropy of the square w.r.t. Hp is not log 4")

    return CounterexampleReport(
        h=h,
        h_prime=hp,
        rows=tuple(rows),
        entropy_h=ent_h,
        entropy_h_prime=ent_hp,
        certificates=certificates,
        distinct=True,
    )
