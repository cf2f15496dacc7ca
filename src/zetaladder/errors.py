"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: domain / range / file-integrity
problems exit 2, degenerate configurations (no admissible root, calibration
impossible, retry budget exhausted) exit 3, unmet numerical tolerances exit 4.
"""

from __future__ import annotations


class ZetaLadderError(Exception):
    """Base class for package errors."""


class DomainError(ZetaLadderError):
    """Input outside the documented domain of an operation."""


class RangeError(DomainError):
    """Request walked past a table limit or a bracketing search failed."""


class TableIntegrityError(ZetaLadderError):
    """A cached artifact was refused: key, header, checksum or contents."""


class PrecisionError(ZetaLadderError):
    """Requested tolerance could not be met; carries the best estimate."""

    def __init__(self, message: str, estimate: float | None = None,
                 bound: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.bound = bound


class DegenerateConfigurationError(ZetaLadderError):
    """The construction found no usable configuration (after bounded retries)."""

    def __init__(self, message: str, retries: int = 0):
        super().__init__(message)
        self.retries = retries


class CalibrationError(ZetaLadderError):
    """Calibration has no solution on the given data."""
