"""Exception types shared across the package."""


class EntropyLabError(Exception):
    """Base class for all errors raised by entropy-lab."""


class AmbientMismatchError(EntropyLabError):
    """Objects living in different ambient groups were combined."""


class ContainmentError(EntropyLabError):
    """A claimed subgroup or sublattice containment does not hold."""


class NotInertError(EntropyLabError):
    """A growth or entropy computation was requested for a non-inert subgroup."""


class EnumerationCapError(EntropyLabError):
    """A brute-force enumeration exceeded its element cap before closing."""


class RationalAmbientError(EntropyLabError):
    """Element enumeration was requested in a rational ambient (always infinite)."""


class OracleMismatchError(EntropyLabError):
    """An engine result disagrees with an independent brute-force oracle."""


class ScenarioError(EntropyLabError):
    """A scenario document failed validation; the message names the JSON path."""


class InternalInvariantViolation(EntropyLabError):
    """A condition the engine guarantees internally failed; indicates a bug."""
