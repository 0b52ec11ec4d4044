"""CPU multiway merge (§5): the chunk-run merge + its cost model.

The heterogeneous sort leaves the CPU "with the task of merging the s
chunks into one final sorted sequence" using "the parallel multiway merge
... from the parallel extension of stdlibc++".  The functional merge
here is the repo's one bits-space k-way merge: chunk runs go through
:func:`repro.shard.merge.merge_shard_records` (fan-in, the
ordered-disjoint shortcut, then the bounded-lookahead core
:func:`repro.external.merge.drain_cursors`).  It compares §4.6 sortable
bits, so floats merge in the engines' total order (NaNs last,
``-0.0`` before ``+0.0``), and it breaks ties exactly as the chunk
sorts do.  The cost model reproduces the six-core host's behaviour: it
merges at streaming bandwidth up to a width of four, and wider inputs
need multiple passes — which is exactly why Figure 8's optimum sits at
s = 4 on that machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cost.calibration import Calibration, DEFAULT_CALIBRATION
from repro.errors import ConfigurationError

__all__ = ["kway_merge", "kway_merge_pairs", "CpuMergeModel"]

#: Unsigned dtype carrying a value's raw bits, by value width in bytes.
_RAW_BITS = {
    1: np.dtype(np.uint8),
    2: np.dtype(np.uint16),
    4: np.dtype(np.uint32),
    8: np.dtype(np.uint64),
}


def kway_merge(runs: list[np.ndarray]) -> np.ndarray:
    """Merge sorted key runs into one sorted array (bits-space order)."""
    from repro.external.format import FileLayout
    from repro.shard.merge import merge_shard_records

    runs = [np.asarray(r) for r in runs if np.asarray(r).size > 0]
    if not runs:
        return np.empty(0, dtype=np.uint32)
    return merge_shard_records(runs, FileLayout(runs[0].dtype))


def kway_merge_pairs(
    key_runs: list[np.ndarray],
    value_runs: list[np.ndarray],
    pair_packing: str = "auto",
) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted key runs with their value runs riding along.

    **Stability contract** (documented API, regression-tested in
    ``tests/hetero/test_merge.py``): records with equal keys are
    emitted in *run-index order*, and within one run in that run's
    order.  Consequently, when the runs are consecutive slices of one
    input — each sorted stably — the merge output equals one global
    stable sort of that input.  With ``pair_packing="fused"`` (and
    words that fuse) ties order by value bits instead, matching the
    fused engine that sorted the runs.

    Values ride as their raw bits, so any fixed-width value dtype
    merges; values with no word-sized bit view (wider dtypes, object
    references) ride as row positions and are gathered after.

    Parameters
    ----------
    key_runs / value_runs:
        Parallel lists; ``key_runs[i]`` must be sorted ascending and
        ``value_runs[i]`` carries its per-record payloads.
    """
    from repro.external.format import FileLayout
    from repro.shard.merge import merge_shard_records

    if len(key_runs) != len(value_runs):
        raise ConfigurationError("key and value run lists must be parallel")
    pairs = [
        (np.asarray(k), np.ascontiguousarray(v))
        for k, v in zip(key_runs, value_runs)
        if np.asarray(k).size > 0
    ]
    if not pairs:
        return np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint32)
    value_dtype = pairs[0][1].dtype
    raw = None if value_dtype.hasobject else _RAW_BITS.get(value_dtype.itemsize)
    if raw is None:
        start = np.cumsum([0] + [k.size for k, _ in pairs])
        keys, rows = kway_merge_pairs(
            [k for k, _ in pairs],
            [np.arange(lo, hi) for lo, hi in zip(start, start[1:])],
        )
        return keys, np.concatenate([v for _, v in pairs])[rows]
    layout = FileLayout(pairs[0][0].dtype, raw)
    merged = merge_shard_records(
        [layout.to_records(k, v.view(raw)) for k, v in pairs],
        layout,
        pair_packing=pair_packing,
    )
    keys, values = layout.to_columns(merged)
    return keys, values.view(value_dtype)


@dataclass(frozen=True)
class CpuMergeModel:
    """Cost of merging ``s`` sorted runs on the host CPU.

    ``merge_width`` runs merge in one streaming pass; more runs need
    ``ceil(log_width(s))`` passes, each reading and writing the whole
    input (§6.2: the six-core host "lacks the compute power to
    efficiently merge more than four chunks at a time").
    """

    calibration: Calibration = DEFAULT_CALIBRATION

    def merge_passes(self, n_runs: int) -> int:
        if n_runs <= 1:
            return 0
        width = max(2, self.calibration.cpu_merge_width)
        return max(1, math.ceil(math.log(n_runs, width)))

    def merge_seconds(
        self, total_bytes: int, n_runs: int, record_bytes: int = 16
    ) -> float:
        """Seconds to merge ``n_runs`` runs totalling ``total_bytes``."""
        if total_bytes < 0:
            raise ConfigurationError("total_bytes must be non-negative")
        passes = self.merge_passes(n_runs)
        if passes == 0 or total_bytes == 0:
            return 0.0
        per_pass_stream = total_bytes / self.calibration.cpu_merge_bandwidth
        records = total_bytes / max(1, record_bytes)
        per_pass_compare = records * self.calibration.cpu_merge_per_record
        return passes * (per_pass_stream + per_pass_compare)
