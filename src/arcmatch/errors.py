"""Exception types shared across the package.

The CLI maps these onto exit codes: usage/config problems exit 1, data
problems exit 2, numeric failures exit 3.
"""


class ArcMatchError(Exception):
    """Base class for all package errors."""


class ShapeError(ArcMatchError):
    """Operand shapes do not conform."""


class ConfigError(ArcMatchError):
    """A model or run configuration is invalid (detected at build time)."""


class ParseError(ArcMatchError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DataError(ArcMatchError):
    """Input data violates a runtime precondition (empty sentence, tiny corpus, ...)."""


class NumericError(ArcMatchError):
    """A computation produced non-finite values or failed a numeric check."""


class CheckpointError(ArcMatchError):
    """Base for checkpoint load failures."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint magic/version line does not match."""


class CheckpointHeaderError(CheckpointError):
    """A checkpoint header line is not UTF-8 text."""


class CheckpointChecksumError(CheckpointError):
    """Parameter blob checksum mismatch (truncated or corrupted file)."""


class CheckpointShapeError(CheckpointError):
    """Stored tensors disagree with the shapes implied by the stored config."""
