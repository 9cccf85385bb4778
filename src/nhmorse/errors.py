"""Exception types shared across the library."""


class EvaluationError(Exception):
    """Base class for numerical evaluation failures."""


class PoleError(EvaluationError):
    """Argument at or too close to a pole of the gamma function."""


class ParameterPole(EvaluationError):
    """Kummer denominator parameter at a nonpositive integer (non-terminating)."""


class NonConvergence(EvaluationError):
    """A series or quadrature did not converge within its term or step limit."""


class NonNormalizable(EvaluationError):
    """Bound-state exponent is not positive; the candidate is not normalizable."""
