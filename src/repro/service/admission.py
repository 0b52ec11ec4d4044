"""Admission control: bound in-flight working-set bytes with §5 accounting.

The paper's §5 pipeline exists because a sort's working set — input,
auxiliary double-buffer, and the buffer in flight to or from the device
— must fit a fixed memory budget; :func:`repro.hetero.chunking.
max_chunk_bytes` encodes that as "three buffers with in-place
replacement, four without".  A multi-tenant service faces the *same*
constraint one level up: the sum of every in-flight request's working
set must fit the machine.  This module reuses the three-buffer
accounting as the admission currency:

* an in-memory plan (``native`` / ``hybrid``, and the ``oracle`` rung
  below them) charges three times its input bytes — input, auxiliary,
  output, exactly the buffers the engine's double-buffered pass loop
  touches;
* a ``hetero`` (chunked) plan charges three times its *chunk* size: the
  whole point of chunking is that only the pipeline's resident buffers
  occupy memory, however large the input;
* an ``external`` plan charges its run budget — the spill-to-disk
  sorter promises never to hold more than that in RAM.

``acquire`` blocks (asynchronously) until the charge fits under the
budget next to everything already admitted.  Admission is FIFO: a
large job therefore serializes — it waits for the machine and then
occupies most of it — while small jobs keep interleaving whenever no
larger charge arrived before them (first-come order is what stops a
sustained stream of small requests from starving a parked large one).
A request whose charge exceeds the budget *alone* can never be
admitted; it is rejected immediately with
:class:`~repro.errors.AdmissionError` rather than parking the queue
forever.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.errors import AdmissionError, ConfigurationError
from repro.plan.ir import SortPlan

__all__ = ["AdmissionController", "plan_resident_bytes", "BUFFERS_IN_PLACE"]

#: §5 / Figure 5: in-place replacement keeps three buffers resident.
BUFFERS_IN_PLACE = 3


def plan_resident_bytes(plan: SortPlan) -> int:
    """The working-set bytes a plan's execution keeps resident.

    The same three-buffer statement :func:`~repro.hetero.chunking.
    max_chunk_bytes` makes, applied per strategy.  Every charge is at
    least one byte so zero-record requests still count as admitted work.
    """
    desc = plan.descriptor
    if plan.strategy == "hetero":
        chunk_bytes = plan.chunk_plan.chunk_bytes
        return max(1, BUFFERS_IN_PLACE * chunk_bytes)
    if plan.strategy == "external":
        return max(1, plan.step("spill-runs").params["memory_budget"])
    return max(1, BUFFERS_IN_PLACE * desc.total_bytes)


class AdmissionController:
    """Async gate bounding the sum of admitted working-set bytes.

    Parameters
    ----------
    max_in_flight_bytes:
        The service's memory budget.  ``acquire(b)`` with
        ``b > max_in_flight_bytes`` raises :class:`AdmissionError`
        immediately; otherwise it waits until ``b`` fits next to the
        already-admitted charges.
    """

    def __init__(self, max_in_flight_bytes: int) -> None:
        if max_in_flight_bytes <= 0:
            raise ConfigurationError("max_in_flight_bytes must be positive")
        self.capacity = int(max_in_flight_bytes)
        self.in_flight = 0
        self.peak_in_flight = 0
        self._condition = asyncio.Condition()
        self._waiters: deque[object] = deque()

    async def acquire(self, nbytes: int) -> None:
        """Admit ``nbytes`` of working set, waiting (FIFO) for room.

        Waiters are admitted in arrival order: a charge only proceeds
        once it is at the head of the wait queue *and* fits, so a large
        request cannot be starved by a stream of small ones arriving
        behind it (they queue until the head is admitted).
        """
        nbytes = int(nbytes)
        if nbytes > self.capacity:
            raise AdmissionError(
                f"request working set ({nbytes:,} B) exceeds the service "
                f"memory budget ({self.capacity:,} B) even alone; "
                f"raise the budget or set a per-request memory_budget "
                f"so the planner chunks it"
            )
        ticket = object()
        async with self._condition:
            self._waiters.append(ticket)
            try:
                while (
                    self._waiters[0] is not ticket
                    or self.in_flight + nbytes > self.capacity
                ):
                    await self._condition.wait()
            finally:
                self._waiters.remove(ticket)
                self._condition.notify_all()
            self.in_flight += nbytes
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)

    async def release(self, nbytes: int) -> None:
        """Return an admitted charge and wake every waiter to re-check."""
        async with self._condition:
            self.in_flight -= int(nbytes)
            self._condition.notify_all()

    @property
    def available(self) -> int:
        return self.capacity - self.in_flight
