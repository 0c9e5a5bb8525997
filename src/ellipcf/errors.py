"""Exception types shared across the package."""


class EllipcfError(Exception):
    """Base class for all package-specific failures."""


class DomainError(EllipcfError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(EllipcfError, ArithmeticError):
    """A series or quadrature failed to reach the requested tolerance.

    Raised instead of returning a silent NaN or an unconverged value.
    """


class DivergentIntegralError(ConvergenceError):
    """An integral's tail bound failed to shrink: the integral diverges."""


class NoClosedFormError(EllipcfError, LookupError):
    """No closed-form characteristic generator for this family/parameters.

    The Hankel quadrature route (route="hankel") serves every generator.
    """


class SpecValidationError(EllipcfError, ValueError):
    """A distribution spec (JSON or constructor arguments) failed validation.

    The message names the offending field.
    """
