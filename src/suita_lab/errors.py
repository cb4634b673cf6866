"""Exception types shared across the toolkit.

Every operation that can reject its input raises one of these instead of a
bare ValueError, so callers (and the verification suite) can tell a contract
violation from a numerical failure.  Each kind of refusal has one class; the
README's refusal table gives each with an example.
"""


class SuitaLabError(Exception):
    """Base class for all toolkit errors."""


class InvalidDomain(SuitaLabError):
    """Domain description violates its invariants (bad radius, singular map, ...)."""


class PointOutsideDomain(SuitaLabError):
    """A point required to be interior is not: a pole or query point outside
    the domain, a stencil point past the boundary, or a query at the pole."""


class UnsupportedDomain(SuitaLabError):
    """The operation has no implementation for this domain variant."""


class ConvergenceFailure(SuitaLabError):
    """An iteration did not settle: Newton sweeps, Richardson extrapolants or
    Monte Carlo walks that fail to reach the boundary."""


class NoCriticalPoint(SuitaLabError):
    """Requested a critical-point based quantity on a domain without one."""


class TruncationFailure(SuitaLabError):
    """Series truncation target unreachable within the term budget."""


class CriticalLevel(SuitaLabError):
    """Level too close to a critical value of the Green function."""


class BelowResolution(SuitaLabError):
    """Sublevel area smaller than its own error estimate."""


class SkippedDegenerate(SuitaLabError):
    """Check is vacuous for this configuration (e.g. delta*c = 1)."""


class ConfigError(SuitaLabError):
    """Malformed CLI configuration input."""


class InvalidArgument(SuitaLabError, ValueError):
    """An argument outside the range the operation serves (an order, a
    count, a radius, a level, a window).  Also a ValueError, which callers
    may still catch."""
