"""Exception hierarchy shared across the package."""


class HypermassError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HypermassError):
    """Input lies outside the mathematical domain of an operation."""


class MissingEmbedding(HypermassError):
    """Surface has no hyperbolic-space embedding attached."""


class NonPositiveMeanCurvature(HypermassError):
    """Mean curvature fails H > 0 at some node."""


class IsometryViolation(HypermassError):
    """Induced metrics of the ambient and hyperbolic immersions disagree."""


class ConvergenceFailure(HypermassError):
    """An iteration reached its step cap without converging."""


class NotNull(HypermassError):
    """Vector expected to be null is not (within tolerance)."""


class ConfigError(DomainError):
    """A malformed config, or a k, m or radius that a factory refuses."""


class HypothesisFailure(HypermassError):
    """A geometric hypothesis check failed and no override was given."""
