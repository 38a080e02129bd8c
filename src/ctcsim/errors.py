"""Exception types shared across the package.

Input errors derive from ValueError so callers can catch broadly, while the
CLI and tests can still distinguish the specific failure. ``InvariantError``
is the exception: a failed internal check is a fault in the program, not in
its input, so it is a RuntimeError.
"""


class CtcSimError(ValueError):
    """Base class for all package-specific errors."""


class InvalidParameterError(CtcSimError):
    """A closed-form model parameter is outside its domain."""


class DegenerateDenominatorError(CtcSimError):
    """Throughput is undefined: the time denominator collapsed to zero (p = 1)."""


class NonPositiveTimeError(CtcSimError):
    """A duration that must be positive is zero or negative."""


class ZeroTimeError(CtcSimError):
    """A nonzero packet count would be divided by a zero time component."""


class NoInputError(CtcSimError):
    """Utilization is undefined for a node that received no neighbor packets."""


class InvalidConfigError(CtcSimError):
    """A simulation config value or config file is invalid."""


class EmptyTraceError(CtcSimError):
    """An operation that needs at least one epoch got an empty trace."""


class UnknownCaseError(CtcSimError):
    """An experiment case id outside I..IV was requested."""


class EmptyInputError(CtcSimError):
    """A derivation over result tables got no rows to work with."""


class MissingCaseError(CtcSimError):
    """A figure was requested from tables that do not cover its case(s)."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a program fault, not bad input."""
