"""Exception types shared across the package, and a square that names its overflow."""


class PtdysonError(Exception):
    """Base class for all package errors."""


class DomainError(PtdysonError):
    """Evaluation time outside the profile domain, or a malformed profile."""


class ConstraintViolationError(PtdysonError):
    """A parameter bound or matching constraint is violated.

    The message names the failed inequality.
    """


class IntegrationError(PtdysonError):
    """ODE integration failed. Carries the time of failure."""

    def __init__(self, message, t_fail=None):
        super().__init__(message)
        self.t_fail = t_fail


class SingularEvaluationError(PtdysonError):
    """Evaluation requested at a point where a coefficient function vanishes."""


class ExceptionalPointError(PtdysonError):
    """Coupling at or beyond the exceptional point. Carries the bound."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class UnsupportedDegreeError(PtdysonError):
    """Polynomial degree above the supported cap."""


class NonFiniteOutputError(PtdysonError):
    """A computed table holds NaN or inf. The message names column and time."""


class ConfigError(PtdysonError):
    """Invalid run configuration. The message names the violated invariant."""


def _square(name, value):
    """value**2 of a plain float; an overflow names the quantity and its value."""
    try:
        return value**2
    except OverflowError:
        raise OverflowError(f"{name} = {value:g}: its square overflows a float") from None
