"""Heterogeneous (CPU+GPU) sorting for out-of-core inputs (§5).

* :mod:`repro.hetero.chunking` — chunk planning against the device-memory
  budget, including the three-buffer in-place replacement layout
  (Figure 5).
* :mod:`repro.hetero.pipeline` — event-driven simulation of the
  overlapped HtD / on-GPU sort / DtH pipeline (Figure 4).
* :mod:`repro.hetero.merge` — the CPU multiway merge: the chunk runs
  through the repo's one bits-space k-way merge, plus the six-core
  cost model.
* :mod:`repro.hetero.sorter` — the end-to-end heterogeneous sorter and
  its analytic T_EtE decomposition.
"""

from repro.hetero.chunking import ChunkPlan, plan_chunks
from repro.hetero.merge import CpuMergeModel, kway_merge
from repro.hetero.pipeline import PipelineSchedule, simulate_pipeline
from repro.hetero.sorter import HeterogeneousSorter, HeteroOutcome

__all__ = [
    "ChunkPlan",
    "CpuMergeModel",
    "HeteroOutcome",
    "HeterogeneousSorter",
    "PipelineSchedule",
    "kway_merge",
    "plan_chunks",
    "simulate_pipeline",
]
