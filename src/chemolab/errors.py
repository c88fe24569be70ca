"""Exception types shared across the package, and the range rule that
raises one."""

from __future__ import annotations

import math
from typing import Callable


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


class Rule:
    """A value's range rule: ``test`` and the ``text`` that states it, such as
    ``0 < dt_safety <= 1``.  ``kind`` int also asks for a whole number, float
    for a finite one.  Config readers call ``passes`` and word their own
    error; constructors call ``check``.  A plain class, as a dataclass costs
    import time (``solver._Point``)."""

    __slots__ = ("test", "text", "kind")

    def __init__(self, test: Callable[[float], bool], text: str, kind: type | None = None):
        self.test, self.text, self.kind = test, text, kind

    def passes(self, value) -> bool:
        if self.kind is int and not float(value).is_integer():
            return False
        return (self.kind is not float or math.isfinite(value)) and self.test(value)

    def check(self, *values, error: type[ValueError] = DomainError) -> None:
        """Raise ``error`` unless each of ``values`` passes."""
        for value in values:
            if not self.passes(value):
                kind = {int: "an integer ", float: "a finite "}.get(self.kind, "")
                raise error(f"need {kind}{self.text}, got {value}")


def check_rules(rules: dict, values, error: type[ValueError] = DomainError) -> None:
    """``rules[name].check(values[name])`` for each name of ``rules``."""
    for name, rule in rules.items():
        rule.check(values[name], error=error)
