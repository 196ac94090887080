"""Exception types shared across the package, and the one rule that turns an
unusable path into a usage error."""

import contextlib


class MeasurementDegenerateError(ValueError):
    """A basis setting makes the measured quadratures fail to determine the
    anti-squeezed cluster quadratures (the elimination system is singular)."""


class DegenerateConditioningError(ValueError):
    """Conditioning on a quadrature whose variance is numerically zero."""


class CacheMissError(LookupError):
    """A required optimized-basis cache entry is missing."""


@contextlib.contextmanager
def reporting_os_errors(action: str):
    """Report an OSError within as a ValueError: cannot <action>: <reason>."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot {action}: {exc.strerror}") from exc
