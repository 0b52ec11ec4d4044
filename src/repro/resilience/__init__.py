"""Failure containment for the sorting stack.

Four pieces, layered bottom-up:

* :mod:`repro.resilience.faults` — deterministic fault injection at
  named sites (the test/chaos switchboard; free when inactive);
* :mod:`repro.resilience.policy` — :class:`Deadline` propagation and
  :class:`RetryPolicy` jittered exponential backoff;
* :mod:`repro.resilience.degrade` — the engine-degradation ladder
  (native → hybrid → NumPy oracle) behind
  :func:`resilient_execute`;
* :mod:`repro.resilience.chaos` — the scenario runner behind the
  ``repro chaos`` CLI verb: every declared fault site, one fault at a
  time, each run proven to end in either byte-identical recovered
  output or a typed :class:`~repro.errors.ReproError`.

Crash-safe spilling itself (atomic checksummed runs, manifests,
resume) lives with the data it protects in :mod:`repro.external`.
"""

from repro.resilience.chaos import default_schedule, run_chaos
from repro.resilience.degrade import (
    DEFAULT_LADDER,
    fallback_chain,
    resilient_execute,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    SITES,
    FaultPlan,
    FaultSpec,
    faulted_write,
    inject,
    trip,
)
from repro.resilience.policy import (
    DEFAULT_RETRY_POLICY,
    Deadline,
    RetryPolicy,
)

__all__ = [
    "DEFAULT_LADDER",
    "DEFAULT_RETRY_POLICY",
    "Deadline",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "SITES",
    "default_schedule",
    "fallback_chain",
    "faulted_write",
    "inject",
    "resilient_execute",
    "run_chaos",
    "trip",
]
