"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`GicapError`, so
callers (in particular the CLI) can map library failures to exit codes
without pattern-matching on messages.  One private helper, :func:`_real`,
checks the numeric arguments of the public functions: one that is not a
real number raises :class:`InvalidParameterError`, one out of range the
function's documented error, and both messages name the argument.
"""

import math

__all__ = [
    "ClassMismatchError",
    "ContainmentError",
    "DomainError",
    "GicapError",
    "InvalidParameterError",
    "InvalidSplitError",
    "NotCoveredError",
    "UnboundedRegionError",
]


class GicapError(Exception):
    """Base class for all errors raised by gicap."""


class InvalidParameterError(GicapError):
    """A channel parameter, gain, power, or constraint is out of domain."""


class DomainError(GicapError):
    """An operation was evaluated outside its mathematical domain."""


class ClassMismatchError(GicapError):
    """A bound or region was requested for the wrong interference class."""


class InvalidSplitError(GicapError):
    """A private-power split is inconsistent with the channel parameters."""


class UnboundedRegionError(GicapError):
    """Vertex enumeration was attempted on an unbounded constraint set."""


class ContainmentError(GicapError):
    """An inner region is not contained in its outer bound.

    This always signals a formula bug somewhere upstream: an achievable
    region can never exceed a valid outer bound.
    """


class NotCoveredError(GicapError):
    """The requested parameter range is not covered by any tight result."""


def _real(name, value, low=0, high=math.inf, *, above=False, error=DomainError):
    """``value`` if it is a real number in ``[low, high)``, or ``(low, high)`` with ``above``.

    A value out of range (NaN included) raises ``error``; one that is not a
    real number (a str, None, a complex, a list, a bool) raises
    :class:`InvalidParameterError`.  Both messages end in ``name=value``.
    """
    try:
        inside = (low < value if above else low <= value) and value < high
    except TypeError:  # a str, None, a complex, a list
        inside = None
    if inside is None or type(value) is bool:
        raise InvalidParameterError(f"{name} must be a real number, got {name}={value!r}")
    if not inside:
        if high == math.inf:
            rule = f"finite {name} {'>' if above else '>='} {low!r}"
        else:
            rule = f"{low!r} {'<' if above else '<='} {name} < {high!r}"
        raise error(f"needs {rule}, got {name}={value!r}")
    return value
