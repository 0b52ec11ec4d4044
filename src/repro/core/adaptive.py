"""Adaptive sorter: the §6.1 case distinction for small inputs.

The paper observes that CUB keeps an edge for very small, highly skewed
inputs ("the hybrid radix sort still outperforms CUB for inputs larger
than 1.9 million keys and 1.6 million key-value pairs, independently of
the key distribution") and notes: "Given that the input size is a
function parameter, we could easily default to CUB's sorting algorithm
using a simple case distinction for small inputs that fall short of
these thresholds."

:class:`AdaptiveSorter` implements exactly that on the simulated Titan
X: inputs below the crossover sort with the simulated CUB LSD baseline
(:class:`~repro.baselines.cub.CubRadixSort`), the rest go through
:func:`repro.sort` / :func:`repro.sort_pairs`.  The case distinction is
a claim about the paper's device, so it stays here rather than in the
production planner.  The thresholds default to the paper's measured
crossovers and can be recalibrated for other devices with
:func:`calibrate_crossover`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cub import CubRadixSort
from repro.core.config import SortConfig
from repro.errors import ConfigurationError
from repro.gpu.spec import GPUSpec, TITAN_X_PASCAL
from repro.types import SortResult

__all__ = [
    "AdaptiveSorter",
    "PAPER_CROSSOVER_KEYS",
    "PAPER_CROSSOVER_PAIRS",
    "calibrate_crossover",
]

#: §6.1: the hybrid sort wins beyond 1.9 M keys on any distribution.
PAPER_CROSSOVER_KEYS = 1_900_000

#: §6.1: ... and beyond 1.6 M key-value pairs.
PAPER_CROSSOVER_PAIRS = 1_600_000


class AdaptiveSorter:
    """Hybrid radix sort with an LSD fallback for small inputs.

    Parameters
    ----------
    key_crossover / pair_crossover:
        Input sizes below which the LSD baseline handles the sort; the
        defaults are the paper's measured worst-case crossovers.
    config:
        Optional hybrid-sort configuration override.
    spec:
        Device the LSD baseline simulates.
    """

    def __init__(
        self,
        key_crossover: int = PAPER_CROSSOVER_KEYS,
        pair_crossover: int = PAPER_CROSSOVER_PAIRS,
        config: SortConfig | None = None,
        spec: GPUSpec = TITAN_X_PASCAL,
    ) -> None:
        if key_crossover < 0 or pair_crossover < 0:
            raise ConfigurationError("crossovers must be non-negative")
        self.key_crossover = key_crossover
        self.pair_crossover = pair_crossover
        self.spec = spec
        self._config = config

    def chooses_hybrid(self, n: int, has_values: bool) -> bool:
        """The case distinction itself: hybrid at or above the crossover."""
        threshold = self.pair_crossover if has_values else self.key_crossover
        return n >= threshold

    def sort(
        self, keys: np.ndarray, values: np.ndarray | None = None
    ) -> SortResult:
        """Sort with the LSD baseline below the crossover, else plan and
        execute through :func:`repro.sort` / :func:`repro.sort_pairs`."""
        import repro

        keys = np.asarray(keys)
        if not self.chooses_hybrid(keys.size, values is not None):
            result = CubRadixSort("1.5.1", spec=self.spec).sort(keys, values)
            result.meta["engine"] = "cub-fallback"
            return result
        if values is None:
            return repro.sort(keys, config=self._config)
        return repro.sort_pairs(keys, values, config=self._config)


def calibrate_crossover(
    sample_keys: np.ndarray,
    spec: GPUSpec = TITAN_X_PASCAL,
    value_bytes: int = 0,
    candidates: tuple[int, ...] = (
        250_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000,
    ),
) -> int:
    """Find the input size where the hybrid sort overtakes the fallback.

    Prices both sorters (via the scale model) over ``candidates`` for
    the distribution represented by ``sample_keys`` and returns the
    smallest size where the hybrid sort wins.  With a worst-case
    (constant) sample this recovers the paper's ~1.9 M-key threshold.
    """
    from repro.bench.scaling import simulate_sort_at_scale

    fallback = CubRadixSort("1.5.1", spec=spec)
    key_bytes = sample_keys.dtype.itemsize
    for n in candidates:
        sample = sample_keys[: min(sample_keys.size, n)]
        hybrid_seconds = simulate_sort_at_scale(
            sample, n, spec=spec
        ).simulated_seconds
        cub_seconds = fallback.simulated_seconds(n, key_bytes, value_bytes)
        if hybrid_seconds < cub_seconds:
            return n
    return candidates[-1]
