"""Tests for the CPU multiway merge (functional + cost model)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.keys import to_sortable_bits
from repro.cost.calibration import Calibration
from repro.errors import ConfigurationError
from repro.external.format import FileLayout
from repro.hetero.merge import CpuMergeModel, kway_merge, kway_merge_pairs
from repro.shard.merge import merge_shard_records

PAIRS64 = FileLayout(np.uint64, np.uint64)


def merge_pairs(key_runs, value_runs, block_records=2):
    """The bits-space array merge over (key, value) runs.

    Tiny blocks make every merge cross block boundaries.
    """
    runs = [PAIRS64.to_records(k, v) for k, v in zip(key_runs, value_runs)]
    merged = merge_shard_records(runs, PAIRS64, block_records=block_records)
    return PAIRS64.to_columns(merged)


class TestKwayMerge:
    def test_two_runs(self, rng):
        a = np.sort(rng.integers(0, 1000, 100, dtype=np.uint64))
        b = np.sort(rng.integers(0, 1000, 150, dtype=np.uint64))
        merged = kway_merge([a, b])
        assert np.array_equal(merged, np.sort(np.concatenate((a, b))))

    def test_sixteen_runs(self, rng):
        runs = [
            np.sort(rng.integers(0, 10_000, rng.integers(1, 200), dtype=np.uint64))
            for _ in range(16)
        ]
        merged = kway_merge(runs)
        assert np.array_equal(merged, np.sort(np.concatenate(runs)))

    def test_empty_runs_skipped(self, rng):
        a = np.sort(rng.integers(0, 100, 50, dtype=np.uint64))
        merged = kway_merge([np.empty(0, dtype=np.uint64), a])
        assert np.array_equal(merged, a)

    def test_no_runs(self):
        assert kway_merge([]).size == 0

    def test_single_run_copied(self, rng):
        a = np.sort(rng.integers(0, 100, 10, dtype=np.uint64))
        merged = kway_merge([a])
        merged[0] = 999
        assert a[0] != 999

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_specials_merge_in_bits_order(self, dtype):
        # NaNs after +inf, -0.0 before +0.0: the engines' total order,
        # not the order raw float comparisons give.
        specials = np.array(
            [np.nan, -np.inf, 0.0, -0.0, 1.5, np.inf, -2.0, 0.0, -0.0],
            dtype=dtype,
        )
        runs = [
            part[to_sortable_bits(part).argsort(kind="stable")]
            for part in (specials[:4], specials[4:])
        ]
        merged = kway_merge(runs)
        whole = np.concatenate(runs)
        expected = whole[np.argsort(to_sortable_bits(whole), kind="stable")]
        assert merged.tobytes() == expected.tobytes()


class TestKwayMergePairs:
    def test_values_follow_keys(self, rng):
        keys = rng.integers(0, 1000, 300, dtype=np.uint64)
        values = np.arange(300, dtype=np.uint64)
        order = np.argsort(keys[:150], kind="stable")
        k1, v1 = keys[:150][order], values[:150][order]
        order = np.argsort(keys[150:], kind="stable")
        k2, v2 = keys[150:][order], values[150:][order]
        mk, mv = kway_merge_pairs([k1, k2], [v1, v2])
        assert np.array_equal(mk, np.sort(keys))
        assert np.array_equal(keys[mv], mk)

    def test_mismatched_lists(self):
        with pytest.raises(ConfigurationError):
            kway_merge_pairs([np.zeros(1, dtype=np.uint64)], [])

    def test_empty(self):
        mk, mv = kway_merge_pairs([], [])
        assert mk.size == 0
        assert mv.size == 0

    @pytest.mark.parametrize(
        "value_dtype",
        [np.int16, np.bool_, np.float32, np.complex128, np.object_],
    )
    def test_any_value_dtype_rides_along(self, value_dtype):
        key_runs = [np.array([1, 4], np.uint32), np.array([2, 4], np.uint32)]
        value_runs = [
            np.array([10, 11]).astype(value_dtype),
            np.array([20, 21]).astype(value_dtype),
        ]
        mk, mv = kway_merge_pairs(key_runs, value_runs)
        assert mk.tolist() == [1, 2, 4, 4]
        expected = np.array([10, 20, 11, 21]).astype(value_dtype)
        assert mv.dtype == np.dtype(value_dtype)
        assert mv.tobytes() == expected.tobytes()

    def test_fused_packing_ties_by_value_bits(self):
        key_runs = [np.array([7, 7], np.uint32), np.array([7], np.uint32)]
        value_runs = [np.array([5, 9], np.uint32), np.array([6], np.uint32)]
        _, plain = kway_merge_pairs(key_runs, value_runs)
        _, fused = kway_merge_pairs(key_runs, value_runs, pair_packing="fused")
        assert plain.tolist() == [5, 9, 6]  # run order
        assert fused.tolist() == [5, 6, 9]  # value-bits order


class TestCpuMergeModel:
    def test_single_run_is_free(self):
        model = CpuMergeModel()
        assert model.merge_seconds(10**9, 1) == 0.0

    def test_one_pass_up_to_width_four(self):
        # §6.2: the six-core host merges up to four chunks in one pass.
        model = CpuMergeModel()
        assert model.merge_passes(2) == 1
        assert model.merge_passes(4) == 1
        assert model.merge_passes(5) == 2
        assert model.merge_passes(16) == 2

    def test_64gb_merge_anchor(self):
        # Figure 9: ~9.3 s to merge 64 GB of 16 runs.
        model = CpuMergeModel()
        t = model.merge_seconds(64 * 10**9, 16, record_bytes=16)
        assert t == pytest.approx(9.3, rel=0.1)

    def test_wider_host_needs_fewer_passes(self):
        wide = CpuMergeModel(Calibration(cpu_merge_width=16))
        assert wide.merge_passes(16) == 1

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuMergeModel().merge_seconds(-1, 4)


class TestStabilityContract:
    """The documented contract of the bits-space array merge: equal
    keys come out in run order.

    The chunked, external and sharded sorts' byte-identity guarantee
    composes run-local stable sorts with this merge; if the tie-break
    ever changes, these must fail.
    """

    def test_equal_keys_preserve_run_order(self):
        # Three runs, all sharing key 7; payloads identify (run, pos).
        key_runs = [
            np.array([3, 7, 7], dtype=np.uint64),
            np.array([7, 9], dtype=np.uint64),
            np.array([7, 7], dtype=np.uint64),
        ]
        value_runs = [
            np.array([10, 11, 12], dtype=np.uint64),
            np.array([20, 21], dtype=np.uint64),
            np.array([30, 31], dtype=np.uint64),
        ]
        mk, mv = merge_pairs(key_runs, value_runs)
        assert mk.tolist() == [3, 7, 7, 7, 7, 7, 9]
        # All run-0 sevens, then run-1's, then run-2's — in-run order kept.
        assert mv.tolist() == [10, 11, 12, 20, 30, 31, 21]

    def test_slices_of_one_input_equal_global_stable_sort(self, rng):
        # Runs = consecutive stable-sorted slices of one array; the merge
        # must reproduce the global stable argsort exactly.
        keys = rng.integers(0, 5, 600, dtype=np.uint64)
        values = np.arange(600, dtype=np.uint64)
        bounds = [0, 150, 400, 600]
        key_runs, value_runs = [], []
        for lo, hi in zip(bounds, bounds[1:]):
            order = np.argsort(keys[lo:hi], kind="stable")
            key_runs.append(keys[lo:hi][order])
            value_runs.append(values[lo:hi][order])
        mk, mv = merge_pairs(key_runs, value_runs, block_records=64)
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(mk, keys[order])
        assert np.array_equal(mv, values[order])

    def test_empty_runs_do_not_shift_tiebreak(self):
        key_runs = [
            np.empty(0, dtype=np.uint64),
            np.array([1], dtype=np.uint64),
            np.empty(0, dtype=np.uint64),
            np.array([1], dtype=np.uint64),
        ]
        value_runs = [
            np.empty(0, dtype=np.uint64),
            np.array([100], dtype=np.uint64),
            np.empty(0, dtype=np.uint64),
            np.array([200], dtype=np.uint64),
        ]
        mk, mv = merge_pairs(key_runs, value_runs)
        assert mv.tolist() == [100, 200]
