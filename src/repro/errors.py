"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CircuitError(ReproError):
    """Structural problem in a circuit graph (bad gate, dangling signal...)."""


class BenchParseError(CircuitError):
    """Malformed ISCAS'89 ``.bench`` input."""

    def __init__(self, message: str, line_no: int | None = None) -> None:
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class PartitionError(ReproError):
    """A partitioner produced (or was asked for) an invalid partition."""


class SimulationError(ReproError):
    """Event-driven simulation failed (sequential or Time Warp)."""


class ProtocolError(ReproError):
    """Malformed wire record on a process-backend transport.

    Raised instead of a bare ``struct.error`` when a fixed-width record
    is truncated, fails its checksum, carries an unknown tag, or a field
    overflows the packed width — so transport corruption is always
    diagnosable as such.
    """


class ConfigError(ReproError):
    """Invalid experiment or machine configuration."""
