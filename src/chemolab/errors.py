"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates the mathematical domain of a formula."""


class WindowUndefined(ValueError):
    """No admissible exponent window exists (discriminant not positive).

    Raised when the exponent p sits at or beyond the admissibility
    boundary p_max(chi, k), so the dissipation quadratic has no real
    negativity interval.
    """


class NotApplicable(ValueError):
    """The sensitivity chi is not below the threshold chi_star(k, n)."""


class PositivityViolation(RuntimeError):
    """A field that must stay nonnegative/positive failed to do so.

    In the solver this signals a broken CFL bound, a scheme bug, not
    physics: ``stable_dt`` keeps u >= 0 and v > 0 for every accepted
    dt_safety.
    """


class ExponentConditionError(ValueError):
    """A norm-exponent pair violates the heat-smoothing condition."""


class InsufficientRows(ValueError):
    """A time-series check needs more output rows than were provided."""


class ConfigError(ValueError):
    """A configuration document failed validation.

    Carries the 1-based line number of the offending entry when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
