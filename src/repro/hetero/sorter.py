"""End-to-end heterogeneous sorter (§5).

Splits the input into ``s`` chunks, pipelines HtD transfer / on-GPU
hybrid sort / DtH transfer with the in-place replacement layout, then
multiway-merges the sorted runs on the CPU:

    T_EtE = T_HtD/s + max(T_HtD, T_S, T_DtH) + T_DtH/s + T_M

Two entry points:

* :meth:`HeterogeneousSorter.sort` — functional: really sorts NumPy
  arrays chunk-by-chunk, each chunk on the plan's slice tier (compiled
  native or the simulated hybrid), merges the runs in bits space, and
  attaches the simulated pipeline timing.  A chunk sorted on a tier
  with no simulated device takes the plan's priced per-chunk time.
  Used by the tests and the ``repro.sort(..., memory_budget=)`` facade.
* :meth:`HeterogeneousSorter.simulate` — model-only: prices an input of
  tens of gigabytes from a distribution sample (Figures 8 and 9) without
  materialising it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.scaling import simulate_sort_at_scale
from repro.core.config import SortConfig
from repro.errors import ConfigurationError
from repro.gpu.pcie import PCIeLink
from repro.gpu.spec import GPUSpec, TITAN_X_PASCAL
from repro.hetero.chunking import ChunkPlan, plan_chunks
from repro.hetero.merge import CpuMergeModel, kway_merge, kway_merge_pairs
from repro.hetero.pipeline import PipelineSchedule, simulate_pipeline
from repro.plan.executors import sort_on_tier

__all__ = ["HeteroOutcome", "HeterogeneousSorter"]


@dataclass
class HeteroOutcome:
    """Timing decomposition (and, in functional mode, the sorted data)."""

    plan: ChunkPlan
    schedule: PipelineSchedule
    chunked_sort_seconds: float
    merge_seconds: float
    keys: np.ndarray | None = None
    values: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.chunked_sort_seconds + self.merge_seconds

    @property
    def analytic_bound(self) -> float:
        return self.schedule.analytic_bound()


class HeterogeneousSorter:
    """Pipelined CPU+GPU sorter for inputs beyond device memory."""

    def __init__(
        self,
        spec: GPUSpec = TITAN_X_PASCAL,
        in_place_replacement: bool = True,
        config: SortConfig | None = None,
        merge_model: CpuMergeModel | None = None,
    ) -> None:
        self.spec = spec
        self.link = PCIeLink.for_spec(spec)
        self.in_place_replacement = in_place_replacement
        self.config = config
        self.merge_model = merge_model or CpuMergeModel()

    # ------------------------------------------------------------------
    # Functional path
    # ------------------------------------------------------------------
    def sort(
        self,
        keys: np.ndarray,
        values: np.ndarray | None = None,
        n_chunks: int | None = None,
    ) -> HeteroOutcome:
        """Chunk, sort each chunk on the simulated GPU, merge on the CPU.

        Plan-then-execute: the §5 chunk sizing is delegated to the
        shared :class:`repro.plan.planner.Planner` (the one budget code
        path), and :meth:`run_plan` executes the resulting plan (and
        carries the input validation both entry points share).
        """
        keys = np.asarray(keys)
        if keys.ndim != 1 or keys.size == 0:
            raise ConfigurationError("keys must be a non-empty 1-D array")
        from repro.plan.descriptor import InputDescriptor
        from repro.plan.planner import Planner

        descriptor = InputDescriptor.for_array(keys, values, spec=self.spec)
        planner = Planner(
            config=self.config,
            in_place_replacement=self.in_place_replacement,
        )
        sort_plan = planner.plan_chunked(
            descriptor, n_chunks=4 if n_chunks is None else n_chunks
        )
        return self.run_plan(sort_plan, keys, values)

    def run_plan(
        self,
        sort_plan,
        keys: np.ndarray,
        values: np.ndarray | None = None,
    ) -> HeteroOutcome:
        """Execute a planned ``chunked-pipeline`` + ``kway-merge``.

        The executor half of the plan/execute split: chunk boundaries
        come from the plan's :class:`~repro.hetero.chunking.ChunkPlan`
        alone, so whoever planned (this sorter, the ``repro.sort``
        facade, a service layer) the output is identical.  Every chunk
        sorts on the plan's ``slice_tier`` through
        :func:`~repro.plan.executors.sort_on_tier`; a native chunk that
        degrades inline to hybrid is listed in
        ``meta["resilience"]["downgrades"]`` with its ``slice`` index.
        """
        keys = np.asarray(keys)
        if keys.ndim != 1 or keys.size == 0:
            raise ConfigurationError("keys must be a non-empty 1-D array")
        if values is not None and values.shape != keys.shape:
            raise ConfigurationError("values must parallel keys")
        record_bytes = keys.dtype.itemsize + (
            values.dtype.itemsize if values is not None else 0
        )
        plan = sort_plan.chunk_plan
        pipeline = sort_plan.step("chunked-pipeline").params
        tier = pipeline["slice_tier"]
        bounds = np.linspace(0, keys.size, plan.n_chunks + 1).astype(np.int64)
        key_runs: list[np.ndarray] = []
        value_runs: list[np.ndarray] = []
        downgrades: list[dict] = []
        upload, sorting, download = [], [], []
        for c in range(plan.n_chunks):
            lo, hi = int(bounds[c]), int(bounds[c + 1])
            chunk_values = values[lo:hi] if values is not None else None
            result = sort_on_tier(
                tier, keys[lo:hi], chunk_values, self.config, slice_index=c
            )
            key_runs.append(result.keys)
            if values is not None:
                value_runs.append(result.values)
            if "resilience" in result.meta:
                downgrades += result.meta["resilience"]["downgrades"]
            chunk_bytes = (hi - lo) * record_bytes
            upload.append(self.link.transfer_time(chunk_bytes))
            # A tier with no simulated device takes the planned price.
            sorting.append(
                result.simulated_seconds
                if result.meta["engine"] == "hybrid"
                else pipeline["chunk_sort_seconds"][c]
            )
            download.append(self.link.transfer_time(chunk_bytes))
        schedule = simulate_pipeline(
            upload, sorting, download, self.in_place_replacement
        )
        merge_seconds = self.merge_model.merge_seconds(
            total_bytes=keys.size * record_bytes,
            n_runs=plan.n_chunks,
            record_bytes=record_bytes,
        )
        if values is not None:
            merged_keys, merged_values = kway_merge_pairs(
                key_runs,
                value_runs,
                pair_packing=(
                    "auto" if self.config is None
                    else self.config.pair_packing
                ),
            )
        else:
            merged_keys, merged_values = kway_merge(key_runs), None
        meta = {"plan": sort_plan, "slice_tier": tier}
        if downgrades:
            meta["resilience"] = {
                "requested": tier,
                "executed": "hybrid",
                "retries": 0,
                "downgrades": downgrades,
            }
        return HeteroOutcome(
            plan=plan,
            schedule=schedule,
            chunked_sort_seconds=schedule.makespan,
            merge_seconds=merge_seconds,
            keys=merged_keys,
            values=merged_values,
            meta=meta,
        )

    # ------------------------------------------------------------------
    # Model-only path (paper-size inputs)
    # ------------------------------------------------------------------
    def simulate(
        self,
        total_bytes: int,
        sample_keys: np.ndarray,
        sample_values: np.ndarray | None = None,
        n_chunks: int | None = None,
    ) -> HeteroOutcome:
        """Price the heterogeneous sort of ``total_bytes`` records.

        ``sample_keys`` (and optional values) characterise the
        distribution; each chunk's on-GPU time comes from the scale-model
        simulation of one chunk-sized sort.
        """
        sample_keys = np.asarray(sample_keys)
        record_bytes = sample_keys.dtype.itemsize + (
            sample_values.dtype.itemsize if sample_values is not None else 0
        )
        plan = plan_chunks(
            total_bytes,
            n_chunks=n_chunks,
            spec=self.spec,
            in_place_replacement=self.in_place_replacement,
        )
        chunk_records = max(
            sample_keys.size, plan.chunk_bytes // record_bytes
        )
        outcome = simulate_sort_at_scale(
            sample_keys,
            chunk_records,
            values=sample_values,
            config=self.config,
            spec=self.spec,
        )
        per_chunk_sort = outcome.simulated_seconds
        upload, sorting, download = [], [], []
        for chunk_bytes in plan.chunk_sizes:
            fraction = chunk_bytes / plan.chunk_bytes
            upload.append(self.link.transfer_time(chunk_bytes))
            sorting.append(per_chunk_sort * fraction)
            download.append(self.link.transfer_time(chunk_bytes))
        schedule = simulate_pipeline(
            upload, sorting, download, self.in_place_replacement
        )
        merge_seconds = self.merge_model.merge_seconds(
            total_bytes=total_bytes,
            n_runs=plan.n_chunks,
            record_bytes=record_bytes,
        )
        return HeteroOutcome(
            plan=plan,
            schedule=schedule,
            chunked_sort_seconds=schedule.makespan,
            merge_seconds=merge_seconds,
            meta={"per_chunk_sort": per_chunk_sort, "scaled": outcome},
        )

    def simulate_naive(
        self,
        total_bytes: int,
        on_gpu_seconds: float,
    ) -> dict[str, float]:
        """The unpipelined baseline of Figure 8: HtD, sort, DtH in series."""
        htd = self.link.transfer_time(total_bytes)
        dth = self.link.transfer_time(total_bytes)
        return {
            "pcie_htd": htd,
            "on_gpu_sorting": on_gpu_seconds,
            "pcie_dth": dth,
            "total": htd + on_gpu_seconds + dth,
        }
