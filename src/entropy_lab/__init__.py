"""Exact intrinsic-entropy computations for endomorphisms of representable
Abelian groups.

The package computes entropy values for an endomorphism restricted to the
trajectory of a finitely generated subgroup: partial trajectories grow by
exact integer linear algebra, and inertness is decided by a finite
quotient-index certificate. An entropy figure ``ExactLog(c)`` is always
proved, and ``certified_by`` says how: the trajectory saturated, the map is
bounded on it, or ``c`` is the closed form of :mod:`~entropy_lab.closed_forms`
(the intrinsic Yuzvinski formula for a rational map, ``p^r`` per prime once
in ``m`` for a stencil). A walk stops at the first increment equal to ``c``;
a trace holds its walked increments and that limit, and its ``indices`` and
``increments`` are views that spell them out. A trace with no proof (a
stencil that is not bounded on a component ``p^a`` with ``a >= 2``) is
``Undetermined``, with a candidate and a reason; no verdict is read off the
last increments. Everything runs over exact integers and fractions; no
floats enter any decision.
"""

from .endomorphisms import (
    Endo,
    EndoPower,
    MatrixEndo,
    StencilEndo,
    apply,
    image,
    left_shift,
    multiplication,
    power,
    right_shift,
)
from .entropy import (
    CounterexampleReport,
    EntropyOptions,
    EntropyResult,
    ExactLog,
    GrowthTrace,
    InertCertificate,
    LogLawReport,
    TrajectoryEntropy,
    TrajectoryInvarianceReport,
    Undetermined,
    certify_trace,
    counterexample_report,
    entropy_on_trajectory,
    entropy_power_on_trajectory,
    growth_trace,
    inert_certificate,
    log_law_report,
    partial_trajectory,
    trajectory_entropy,
    trajectory_identity_check,
    trajectory_invariance_report,
)
from .errors import (
    AmbientMismatchError,
    ContainmentError,
    EntropyLabError,
    EnumerationCapError,
    InternalInvariantViolation,
    NotInertError,
    OracleMismatchError,
    RationalAmbientError,
    ScenarioError,
)
from .groups import (
    Ambient,
    Element,
    FgSubgroup,
    Rational,
    TorsionSum,
    contains,
    is_subgroup_of,
    quotient_index,
    subgroup,
    subgroup_order,
)
from .groups import sum as subgroup_sum
from .linalg import (
    INFINITE,
    Cardinality,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # ambients and subgroups
    "Ambient",
    "Rational",
    "TorsionSum",
    "Element",
    "FgSubgroup",
    "subgroup",
    "subgroup_sum",
    "subgroup_order",
    "quotient_index",
    "contains",
    "is_subgroup_of",
    # endomorphisms
    "Endo",
    "EndoPower",
    "MatrixEndo",
    "StencilEndo",
    "right_shift",
    "left_shift",
    "multiplication",
    "power",
    "apply",
    "image",
    # entropy
    "EntropyOptions",
    "InertCertificate",
    "GrowthTrace",
    "ExactLog",
    "Undetermined",
    "EntropyResult",
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
    # exact cardinalities
    "Cardinality",
    "INFINITE",
    # errors
    "EntropyLabError",
    "AmbientMismatchError",
    "ContainmentError",
    "NotInertError",
    "EnumerationCapError",
    "RationalAmbientError",
    "OracleMismatchError",
    "ScenarioError",
    "InternalInvariantViolation",
]
