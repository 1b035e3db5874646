"""Exception types shared across the package."""


class IneqError(Exception):
    """Base class for every error raised by this package."""


class DomainError(IneqError, ValueError):
    """An argument lies outside the domain the operation is defined on."""


class DegenerateSampleError(IneqError, ValueError):
    """An all-zero sample carries no inequality information."""


class DivisionByZeroShareError(IneqError, ZeroDivisionError):
    """The share in a ratio denominator is zero."""


class ZeroIncomeError(IneqError, ValueError):
    """The measure is undefined when zero values are present."""


class CalibrationDomainError(IneqError, ValueError):
    """Calibration inputs must lie strictly inside (0, 1)."""


class EmptyInputError(IneqError, ValueError):
    """An operation that needs data received none."""


class ArityError(IneqError, ValueError):
    """Parallel argument lists have mismatched lengths."""


class SchemaError(IneqError, ValueError):
    """A declared column is missing or a schema setting is invalid."""


class JoinError(IneqError, ValueError):
    """Two tables that must share a key set do not."""


class NotFoundError(IneqError, KeyError):
    """A requested key is absent from the data."""

    def __str__(self) -> str:
        return f"{', '.join(map(repr, self.args))} not found"
