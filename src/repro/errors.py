"""Exception hierarchy for the ``repro`` library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  More specific subclasses communicate *which* subsystem
rejected the request, mirroring how a production sorting library would
distinguish configuration mistakes from resource exhaustion.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A sort or device configuration is inconsistent or out of range.

    Examples: a digit width that does not divide into the key width
    sensibly, a merge threshold larger than the local-sort threshold
    (violating rule R3 of the paper), or a thread-block geometry that does
    not fit on a single streaming multiprocessor.
    """


class ResourceExhaustedError(ReproError):
    """A simulated hardware resource was over-committed.

    Raised, for example, when a kernel requests more shared memory than the
    device provides, or when a heterogeneous-sort chunk does not fit into
    the device-memory budget of the three-buffer layout.
    """


class AdmissionError(ResourceExhaustedError):
    """The sort service refused a request its memory budget cannot host.

    Raised by :class:`repro.service.SortService` when a request's
    planned working set exceeds the service's in-flight byte budget
    even with nothing else running — waiting would never help, so the
    request is rejected at admission instead of deadlocking the queue.
    """


class TransientError(ReproError):
    """A failure that may well not recur: **retryable**.

    The marker class the resilience layer's
    :class:`~repro.resilience.policy.RetryPolicy` retries by default
    (alongside :class:`OSError`, the kind real disks raise).  Engines
    and fault-injection sites raise it for conditions where trying
    again — possibly after a backoff — is a sensible reaction: a busy
    spool disk, a transiently failed worker, an injected I/O hiccup.
    Errors that would deterministically recur (configuration mistakes,
    unsupported dtypes) must *not* derive from this class.
    """


class DeadlineExceededError(ReproError):
    """A request's deadline expired before (or while) it executed.

    **Not retryable** — the time budget is gone; retrying against the
    same deadline can only fail again.  Raised by
    :class:`~repro.resilience.policy.Deadline` checks, by the service
    when a queued request's deadline lapses before dispatch, and by the
    engine-dispatch watchdog when an execution hangs past its timeout.
    Callers that want another attempt must submit a fresh request with
    a fresh deadline.
    """


class CorruptRunError(ReproError):
    """A spilled run file failed its integrity check.

    **Not retryable in place** — re-reading corrupt bytes cannot help —
    but **recoverable**: :meth:`repro.external.ExternalSorter.resume`
    re-produces the damaged run from the (read-only) input file and
    carries on.  Raised when a run's footer is missing or malformed,
    when its payload size disagrees with the footer, or when the
    streaming merge's CRC-32 accumulation does not match the checksum
    the writer recorded.
    """


class EngineFailedError(ReproError):
    """Every rung of the engine-degradation ladder failed.

    **Not retryable** by the policy engine (each rung already consumed
    its own retry budget); surfaced to the caller with the per-rung
    failure trail in ``args`` and the last underlying exception as
    ``__cause__``.  A *single* engine failure never raises this — the
    executor falls down the declared ladder (native → hybrid → NumPy
    oracle) first and records the downgrade in
    ``result.meta["resilience"]``.
    """


class OverloadedError(TransientError):
    """The service shed this request to protect itself: **retryable**.

    Raised at submission time when failure rates spike and the request
    is a small, cheaply-retried one.  ``retry_after`` (seconds) is the
    service's hint, derived from its admission state, for when capacity
    is likely to exist again.
    """

    def __init__(self, message: str, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class NativeUnavailableError(ReproError):
    """The compiled native kernel tier is not usable on this host.

    **Not retryable** — the probe result (no compiler, no cffi, failed
    self-test, ``REPRO_NATIVE=0``) is cached for the life of the
    process, so a retry would deterministically fail again.  The
    degradation ladder treats it like any other engine failure and
    falls to the NumPy hybrid rung; only code that *requires* the
    native tier (``repro sort --engine native`` on a host without a
    compiler, after the ladder is exhausted) ever surfaces it.
    """


class NativeExecutionError(ReproError):
    """A native kernel call returned an error code.

    **Not retryable in place** (the same call would fail the same way)
    but **degradable**: the executor falls back to the NumPy hybrid
    tier and records the downgrade in ``result.meta["resilience"]``.
    Raised for invalid argument combinations the Python layer failed to
    screen and for allocation failures inside the kernel.
    """


class UnsupportedDtypeError(ReproError):
    """The given NumPy dtype has no order-preserving bijection registered."""


class DeviceStateError(ReproError):
    """The simulated device was used in an invalid order.

    For example reading back a buffer that was never allocated, or freeing
    memory twice.
    """


class TraceError(ReproError):
    """An execution trace is malformed or inconsistent with its workload.

    The cost model validates traces before pricing them; a failed
    validation indicates a bug in an engine rather than user error, but is
    surfaced as an exception so it can never silently produce a bogus
    timing.
    """
