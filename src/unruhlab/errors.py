"""Exception types raised across the package.

Every error derives from :class:`UnruhLabError` so callers can catch the
package's failures with a single except clause.
"""


class UnruhLabError(Exception):
    """Base class for all errors raised by this package."""


class NotSquare(UnruhLabError):
    """Matrix argument is not square."""


class NonHermitian(UnruhLabError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositive(UnruhLabError):
    """Matrix has a negative eigenvalue beyond tolerance."""


class DimMismatch(UnruhLabError):
    """Operator or state dimensions are incompatible."""


class BadStrength(UnruhLabError):
    """Measurement strength lies outside [0, 1]."""


class DegenerateOutcome(UnruhLabError):
    """Post-selection or a closed form's normalisation found (numerically) zero.

    ``validate`` raises it for a point it cannot check (exit code 1); a
    sweep flags such a grid point in its row instead of raising.
    """


class BadPhysicalParam(UnruhLabError):
    """Physical parameter (acceleration, frequency, Rindler angle) out of range."""


class UnknownPreset(UnruhLabError):
    """State or figure preset name is not recognised."""


class ConfigError(UnruhLabError):
    """Sweep configuration is malformed.

    Carries the offending field and, when known, the line number of the
    config file entry.
    """

    def __init__(self, message: str, field: str | None = None, line: int | None = None):
        self.field = field
        self.line = line
        where = []
        if field is not None:
            where.append(f"field '{field}'")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
