"""Exception types shared across the package."""


class PoolalError(Exception):
    """Base class for all package errors."""


class ConfigurationError(PoolalError):
    """Invalid configuration, dataset spec, or operation arguments."""


class EvaluationError(PoolalError):
    """Malformed inputs to a metric computation."""


class TrainingError(PoolalError):
    """Learner failure (dimension mismatch, divergence)."""


class RunError(PoolalError):
    """A run or sweep failed; the message carries seed and iteration context."""
