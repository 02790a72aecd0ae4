"""Exception types raised across the package."""


class MalformedGeneratorError(ValueError):
    """A transition-rate matrix violates the generator contract
    (nonzero row sums, negative off-diagonal rates, or a sign pattern
    that disagrees with the declared edge set)."""


class NotStronglyConnectedError(ValueError):
    """A mobility digraph is not strongly connected; all analysis
    operations require irreducible generators."""


class StepSizeError(ValueError):
    """A discrete step width produces per-step probabilities outside
    [0, 1]."""


class IntegrationError(RuntimeError):
    """A trajectory left the box by more than the clamp tolerance (the
    step size is too large) or broke the conservation of a class total."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching the
    requested tolerance."""


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the
    offending field."""
