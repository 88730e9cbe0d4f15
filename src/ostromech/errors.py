"""Exception hierarchy shared by every module of the toolkit."""


class OstromechError(Exception):
    """Base class for all toolkit errors."""


class ExpressionError(OstromechError):
    """Errors raised by the symbolic expression kernel."""


class ParseError(ExpressionError):
    """Syntax or resolution error while parsing expression text.

    Carries the character position of the offending token so callers can
    point at the input.
    """

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnknownIdentifierError(ParseError):
    """Identifier does not resolve to a coordinate, parameter, or function."""


class JetOrderError(ParseError):
    """A jet coordinate exceeds the maximum differentiation order allowed
    by the parse context."""


class OrderOverflowError(ExpressionError):
    """A total time derivative would create a jet coordinate beyond the
    configured order cap."""


class UnboundVariableError(ExpressionError):
    """Evaluation encountered a variable with no value bound."""

    def __init__(self, ref):
        self.ref = ref
        super().__init__(f"no value bound for variable {ref!r}")


class DomainEvalError(ExpressionError):
    """Evaluation left the real domain (log of a non-positive number,
    division by zero, fractional power of a negative base, ...)."""


class ValidationError(OstromechError):
    """A system description or operation precondition is violated."""


class DimensionError(ValidationError):
    """An array argument has the wrong shape for the system at hand."""


class SingularHessianError(OstromechError):
    """The highest-order Hessian of the Lagrangian is numerically singular,
    so accelerations (or the unified vector field) cannot be solved for.

    When raised mid-integration, ``time`` and ``state`` record where the
    solve failed.
    """

    def __init__(self, message, time=None, state=None):
        self.time = time
        self.state = state
        if time is not None:
            message = f"{message} (at t={time!r})"
        super().__init__(message)


class ConvergenceError(OstromechError):
    """The adaptive integrator cannot go on: its step size underflows, or
    it exceeds its step limit."""


class OffConstraintError(OstromechError):
    """A phase-space point violates the momentum constraint chain beyond
    tolerance, where an on-constraint point is required."""

    def __init__(self, message, residuals=None):
        self.residuals = residuals
        super().__init__(message)


class TrajectoryFormatError(OstromechError):
    """A trajectory file is malformed or inconsistent with the system."""


__all__ = [name for name in dir() if name.endswith("Error")]
