"""Exception types shared across the package."""


class QuiverFlowError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(QuiverFlowError):
    """Block shapes inconsistent with the quiver and dimension vector."""


class NonInvertibleGroupElementError(QuiverFlowError):
    """A group-element block is singular beyond ``quiver.DEFAULT_COND_BOUND``."""


class NonComposablePathError(QuiverFlowError):
    """A path in a relation or cycle word is not composable (or not closed)."""


class LevelNotReachedError(QuiverFlowError):
    """The flow converged (or stalled) before crossing the requested level.

    Attributes
    ----------
    limit_value : float or None
        The function value the flow was converging to when it stopped.
    """

    def __init__(self, message, limit_value=None):
        super().__init__(message)
        self.limit_value = limit_value


class RefinementFailedError(QuiverFlowError):
    """Critical-point refinement did not reach the requested residual."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class ProjectionFailedError(QuiverFlowError):
    """Least-squares projection onto the subvariety did not converge."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class InsufficientDataError(QuiverFlowError):
    """Not enough usable samples for the requested fit."""


class UndefinedDomainError(QuiverFlowError):
    """The requested point lies outside the domain of the scene construction."""


class ConfigError(QuiverFlowError):
    """Experiment configuration failed schema or semantic validation.

    ``field`` holds a JSON-pointer-style path naming the offending entry.
    """

    def __init__(self, message, field=""):
        super().__init__(message)
        self.field = field
