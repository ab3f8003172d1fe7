"""Exception types shared across the benchmark engine."""


class FruitBenchError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FruitBenchError):
    """A value, flag, or in-memory structure violates its contract."""


class IntegrityError(FruitBenchError):
    """A cross-reference (image id, category id, ...) does not resolve."""


class ParseError(ValidationError):
    """A file could not be parsed or lacks a required field. Carries a byte
    offset when known."""

    def __init__(self, message: str, *, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ManifestDigestError(FruitBenchError):
    """A split manifest's content does not match its recorded digest."""
