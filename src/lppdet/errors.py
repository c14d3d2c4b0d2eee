"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: validation errors exit 1, numerical
breakdowns exit 2, verification failures exit 3.
"""


class LppdetError(Exception):
    """Base class for all package errors."""


class ValidationError(LppdetError):
    """An input violates a model or routine precondition.

    The message names the violated constraint.
    """


class BreakdownError(LppdetError):
    """A numerical computation left its domain of validity.

    Examples: a reflection coefficient reaching unit modulus, a
    nonpositive norm in the orthogonalization recursion, a singular
    discretized resolvent, blow-up in the ODE integration.
    """


class ConditioningError(BreakdownError):
    """A float64 result's certified error bound exceeds its target."""


# nothing in the package raises this name; perfbench/checks.py still
# imports it, so it stays as an alias until that import goes
TruncationError = BreakdownError


class VerificationError(LppdetError):
    """A self-check suite found a violated identity."""
