"""Exception hierarchy for the ``repro`` MapReduce framework.

Every error raised by the framework derives from :class:`ReproError` so
applications can catch framework failures separately from bugs in user
map/reduce code (which are wrapped in :class:`UserCodeError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro framework."""


class ConfigError(ReproError):
    """A job configuration value is missing, malformed, or out of range."""


class SerdeError(ReproError):
    """Serialization or deserialization of a record failed."""


class DiskError(ReproError):
    """The simulated local disk rejected an operation (e.g. unknown file)."""


class DfsError(ReproError):
    """The simulated distributed filesystem rejected an operation."""


class SpillBufferError(ReproError):
    """The in-memory spill buffer was misused (e.g. record larger than buffer)."""


class SchedulerError(ReproError):
    """The cluster scheduler could not place or progress a task."""


class JobFailedError(ReproError):
    """A MapReduce job terminated without producing complete output."""


class ExecBackendError(ReproError):
    """The requested execution backend is unavailable or misconfigured."""


class ShuffleError(ReproError):
    """A network shuffle fetch ultimately failed (retries exhausted, a
    map output was never registered, or the wire protocol was violated
    beyond repair).  Instances cross process boundaries — reduce tasks
    on the ``cluster`` backend's worker daemons ship them back through
    a pickle."""


class ShuffleTransportError(ShuffleError):
    """One shuffle fetch *attempt* failed (connection refused or dropped,
    read timeout, framing violation, CRC mismatch).  The fetcher retries
    these with backoff; only exhaustion surfaces as :class:`ShuffleError`."""


class LintError(ReproError):
    """Static analysis refused the job (``repro.lint.mode = strict``).

    Raised at submit time, before any task runs, when the analyzer finds
    error-severity rule violations in the job's user code.  The full
    report is attached as ``report`` so callers can render the findings.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class UserCodeError(ReproError):
    """User-supplied map/combine/reduce code raised an exception.

    The original exception is available as ``__cause__``.  Instances
    cross process boundaries (the ``cluster`` execution backend ships
    worker failures back through a pickle), so reconstruction must go
    through the two-argument constructor rather than ``Exception``'s
    default ``args`` replay.
    """

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(f"user {stage}() failed: {message}")
        self.stage = stage
        self.message = message

    def __reduce__(self):
        return (UserCodeError, (self.stage, self.message))
