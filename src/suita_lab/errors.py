"""Exception types shared across the toolkit.

Every operation that can reject its input raises one of these instead of a
bare ValueError, so callers (and the verification suite) can tell a contract
violation from a numerical failure.
"""


class SuitaLabError(Exception):
    """Base class for all toolkit errors."""


class InvalidDomain(SuitaLabError):
    """Domain description violates its invariants (bad radius, singular map, ...)."""


class PointOutsideDomain(SuitaLabError):
    """A query point required to be interior is not."""


class UnsupportedDomain(SuitaLabError):
    """The operation has no implementation for this domain variant."""


class CoincidentPoints(SuitaLabError):
    """Green function evaluated at its pole."""


class RadiusTooLarge(SuitaLabError):
    """Disc radius exceeds the distance to the boundary."""


class ConvergenceFailure(SuitaLabError):
    """An iterative refinement stalled above its residual tolerance."""


class NoCriticalPoint(SuitaLabError):
    """Requested a critical-point based quantity on a domain without one."""


class TruncationFailure(SuitaLabError):
    """Series truncation target unreachable within the term budget."""


class ExtrapolationUnstable(SuitaLabError):
    """Richardson extrapolants failed to settle."""


class NonConvergence(SuitaLabError):
    """Monte Carlo walks failed to reach the boundary capture rate."""


class TooFewSamples(SuitaLabError):
    """A Monte Carlo estimate needs more samples than were asked for."""


class LevelAbovePeak(SuitaLabError):
    """Sublevel queries need a negative level t < 0."""


class CriticalLevel(SuitaLabError):
    """Level too close to a critical value of the Green function."""


class BelowResolution(SuitaLabError):
    """Sublevel area smaller than its own error estimate."""


class StencilOutsideDomain(SuitaLabError):
    """Finite-difference stencil leaves the domain."""


class WindowTooNarrow(SuitaLabError):
    """Convexity window contains too few profile samples."""


class SkippedDegenerate(SuitaLabError):
    """Check is vacuous for this configuration (e.g. delta*c = 1)."""


class ConfigError(SuitaLabError):
    """Malformed CLI configuration input."""
