"""Tests for the adaptive sorter (§6.1's case distinction)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.adaptive import (
    AdaptiveSorter,
    PAPER_CROSSOVER_KEYS,
    PAPER_CROSSOVER_PAIRS,
    calibrate_crossover,
)
from repro.errors import ConfigurationError
from repro.workloads import constant_keys, uniform_keys


class TestDispatch:
    def test_paper_thresholds(self):
        sorter = AdaptiveSorter()
        assert not sorter.chooses_hybrid(1_000_000, has_values=False)
        assert sorter.chooses_hybrid(2_000_000, has_values=False)
        assert not sorter.chooses_hybrid(1_500_000, has_values=True)
        assert sorter.chooses_hybrid(1_700_000, has_values=True)

    def test_chooses_hybrid_uses_per_kind_crossover(self):
        sorter = AdaptiveSorter(key_crossover=500, pair_crossover=700)
        for n in (0, 499, 500, 501, 699, 700, 10_000):
            assert sorter.chooses_hybrid(n, False) == (n >= 500)
            assert sorter.chooses_hybrid(n, True) == (n >= 700)

    def test_threshold_constants(self):
        # §6.1: 1.9 M keys / 1.6 M pairs.
        assert PAPER_CROSSOVER_KEYS == 1_900_000
        assert PAPER_CROSSOVER_PAIRS == 1_600_000

    def test_small_input_uses_fallback(self, rng):
        keys = uniform_keys(10_000, 32, rng)
        result = AdaptiveSorter().sort(keys)
        assert result.meta["engine"] == "cub-fallback"
        assert np.array_equal(result.keys, np.sort(keys))

    def test_large_input_uses_hybrid(self, rng):
        keys = uniform_keys(50_000, 32, rng)
        sorter = AdaptiveSorter(key_crossover=20_000)
        result = sorter.sort(keys)
        assert result.meta["engine"] == "hybrid"
        assert result.trace is not None
        assert np.array_equal(result.keys, np.sort(keys))

    def test_pairs_dispatch(self, rng):
        keys = uniform_keys(5_000, 32, rng)
        values = np.arange(5_000, dtype=np.uint32)
        sorter = AdaptiveSorter(pair_crossover=1_000)
        result = sorter.sort(keys, values)
        assert result.meta["engine"] == "hybrid"
        assert np.array_equal(keys[result.values], result.keys)

    def test_both_engines_agree(self, rng):
        keys = uniform_keys(30_000, 32, rng)
        small = AdaptiveSorter(key_crossover=10**9).sort(keys)
        large = AdaptiveSorter(key_crossover=0).sort(keys)
        assert np.array_equal(small.keys, large.keys)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            AdaptiveSorter(key_crossover=-1)


class TestPlannerDispatch:
    """At or above the crossover the sort is planned by ``repro.sort``."""

    def test_sort_records_the_plan(self, rng):
        keys = uniform_keys(2_000, 32, rng)
        result = AdaptiveSorter(key_crossover=1_000).sort(keys)
        plan = result.meta["plan"]
        assert plan.strategy == "hybrid"
        assert plan.descriptor.n == 2_000


class TestAdaptiveDispatchProperty:
    """The executed engine is exactly ``chooses_hybrid`` (§6.1)."""

    @given(
        n=st.integers(0, 3_000),
        crossover=st.integers(0, 3_000),
        has_values=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_strategy_equals_case_distinction(self, n, crossover, has_values):
        keys = ((np.arange(n, dtype=np.uint64) * 2654435761) % 1000).astype(
            np.uint32
        )
        values = np.arange(n, dtype=np.uint32) if has_values else None
        sorter = AdaptiveSorter(key_crossover=crossover, pair_crossover=crossover)
        assert sorter.chooses_hybrid(n, has_values) == (n >= crossover)
        result = sorter.sort(keys, values)
        if n >= crossover:
            assert result.meta["plan"].strategy == "hybrid"
        else:
            assert result.meta["engine"] == "cub-fallback"
        # Both engines are stable, so they agree byte for byte.
        if has_values:
            expected = repro.sort_pairs(keys, values)
            assert result.values.tobytes() == expected.values.tobytes()
        else:
            expected = repro.sort(keys)
        assert result.keys.tobytes() == expected.keys.tobytes()

    def test_crossover_boundary_is_inclusive(self):
        sorter = AdaptiveSorter()
        assert sorter.chooses_hybrid(PAPER_CROSSOVER_KEYS, False)
        assert not sorter.chooses_hybrid(PAPER_CROSSOVER_KEYS - 1, False)
        assert sorter.chooses_hybrid(PAPER_CROSSOVER_PAIRS, True)
        assert not sorter.chooses_hybrid(PAPER_CROSSOVER_PAIRS - 1, True)
        keys = np.arange(1_000, dtype=np.uint32)[::-1]
        at = AdaptiveSorter(key_crossover=1_000, pair_crossover=1_000)
        below = AdaptiveSorter(key_crossover=1_001, pair_crossover=1_001)
        assert at.sort(keys).meta["engine"] == "hybrid"
        assert below.sort(keys).meta["engine"] == "cub-fallback"
        assert at.sort(keys, keys).meta["engine"] == "hybrid"
        assert below.sort(keys, keys).meta["engine"] == "cub-fallback"

    def test_negative_crossover_rejected(self):
        with pytest.raises(ConfigurationError):
            AdaptiveSorter(pair_crossover=-1)

    def test_production_planner_never_picks_the_baseline(self, rng):
        # §6.1's distinction is the adaptive sorter's alone: the plain
        # facade plans the same small input onto an in-memory engine.
        keys = uniform_keys(100_000, 32, rng)
        adaptive = AdaptiveSorter().sort(keys)
        assert adaptive.meta["engine"] == "cub-fallback"
        plain = repro.sort(keys, native="never")
        assert plain.meta["plan"].strategy == "hybrid"
        assert adaptive.keys.tobytes() == plain.keys.tobytes()


class TestCalibration:
    def test_worst_case_crossover_near_paper(self):
        # A constant distribution recovers the ~1.9 M-key region.
        keys = constant_keys(1 << 18, 64)
        crossover = calibrate_crossover(keys)
        assert 500_000 <= crossover <= 8_000_000

    def test_uniform_crossover_is_small(self, rng):
        # For uniform inputs the hybrid sort wins much earlier.
        keys = uniform_keys(1 << 18, 64, rng)
        crossover_uniform = calibrate_crossover(keys)
        crossover_worst = calibrate_crossover(constant_keys(1 << 18, 64))
        assert crossover_uniform <= crossover_worst

    def test_smoke_small_candidates(self, rng):
        # Quick smoke: custom candidate ladder, pairs payload priced in.
        keys = uniform_keys(1 << 14, 32, rng)
        crossover = calibrate_crossover(
            keys,
            value_bytes=4,
            candidates=(1 << 14, 1 << 16, 1 << 18),
        )
        assert crossover in (1 << 14, 1 << 16, 1 << 18)
