"""Shared exception types.

Kept in one module so the CLI can map them to exit codes without importing
every subsystem: configuration problems exit with 2, numeric failures with 3.
"""

from __future__ import annotations


class StagelabError(Exception):
    """Base class for everything raised deliberately by this package."""


class ConfigError(StagelabError):
    """Invalid configuration: bad key, bad value, or an inconsistent combination."""


class PreconditionError(ConfigError):
    """A check was invoked with parameters outside its region of validity.

    The message always names the violated inequality so the caller can fix the
    configuration rather than chase a numeric mystery.
    """


class TaskValidationError(ConfigError):
    """A task family's spectra violate the partition inequalities."""


class TrainingDiverged(StagelabError):
    """A gradient run produced a non-finite parameter value or training loss.

    Carries the step index at which divergence was detected.
    """

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"training diverged at step {step}")
