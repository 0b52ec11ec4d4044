"""Differential regression tests for the §5 paths.

A budgeted ``repro.sort`` / ``repro.sort_pairs`` call and
``HeterogeneousSorter.sort`` cut the input into slices, sort every
slice on the planned in-memory tier and merge the runs.  Every output
here must be byte-identical to the unbudgeted sort of the same input
and to NumPy on the §4.6 sortable bits: ``np.sort`` for keys, a stable
argsort for pairs (of the fused ``key|value`` word for fused packing).

Slices fall on both sides of ``NATIVE_MIN_KEYS`` and the sizes
straddle chunk boundaries (one record fewer or more than three full
slices, so the chunk count and the slice size both change).  Float
inputs carry NaN, ±inf and ±0.0 — the values a merge that compares
raw floats instead of sortable bits gets wrong.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.core.config import SortConfig
from repro.core.keys import to_sortable_bits
from repro.hetero.sorter import HeterogeneousSorter
from repro.native import build
from repro.plan.planner import NATIVE_MIN_KEYS

NATIVE = build.native_status(warn=False).available

#: Slice sizes (records) below and above the native floor.
SLICES = {"hybrid": NATIVE_MIN_KEYS // 4, "native": 3 * NATIVE_MIN_KEYS // 2}
FUSED = replace(SortConfig.for_layout(32, 32), pair_packing="fused")


def with_specials(dtype, n: int, seed: int) -> np.ndarray:
    """Normal floats with 1/64 of the slots each NaN, ±inf, +0.0, -0.0."""
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal(n).astype(dtype)
    slots = rng.permutation(n)
    per = n // 64
    for i, value in enumerate((np.nan, np.inf, -np.inf, 0.0, -0.0)):
        keys[slots[i * per:(i + 1) * per]] = value
    return keys


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def stable_order(keys: np.ndarray) -> np.ndarray:
    return np.argsort(to_sortable_bits(keys), kind="stable")


def fused_order(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    word = to_sortable_bits(keys).astype(np.uint64) << np.uint64(32)
    return np.argsort(word | values.astype(np.uint64), kind="stable")


def cases():
    """(tier, n, budget-per-record factor) straddling a chunk boundary."""
    for tier, slice_records in SLICES.items():
        for delta in (-1, 1):
            yield tier, 3 * slice_records + delta, slice_records


CASES = list(cases())
IDS = [f"{tier}-n{n}" for tier, n, _ in CASES]


def budget(slice_records: int, record_bytes: int) -> int:
    # Three buffers per slice (the §5 in-place replacement accounting).
    return 3 * slice_records * record_bytes


def expect_tier(result, tier: str) -> None:
    assert result.meta["engine"] == "hetero"
    assert result.meta["slice_tier"] == (tier if NATIVE else "hybrid")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tier,n,slice_records", CASES, ids=IDS)
class TestBudgetedFacades:
    def test_sort_keys(self, dtype, tier, n, slice_records):
        keys = with_specials(dtype, n, seed=n)
        got = repro.sort(
            keys,
            memory_budget=budget(slice_records, keys.itemsize),
        )
        expect_tier(got, tier)
        assert same_bytes(got.keys, repro.sort(keys).keys)
        assert same_bytes(got.keys, keys[stable_order(keys)])

    def test_sort_pairs(self, dtype, tier, n, slice_records):
        keys = with_specials(dtype, n, seed=n + 1)
        values = np.random.default_rng(n).integers(
            0, 2**32, n, dtype=np.uint32
        )
        got = repro.sort_pairs(
            keys,
            values,
            memory_budget=budget(slice_records, keys.itemsize + 4),
        )
        expect_tier(got, tier)
        whole = repro.sort_pairs(keys, values)
        order = stable_order(keys)
        assert same_bytes(got.keys, whole.keys)
        assert same_bytes(got.values, whole.values)
        assert same_bytes(got.keys, keys[order])
        assert same_bytes(got.values, values[order])

    def test_heterogeneous_sorter(self, dtype, tier, n, slice_records):
        keys = with_specials(dtype, n, seed=n + 2)
        values = np.arange(n, dtype=np.uint64)
        got = HeterogeneousSorter().sort(keys, values, n_chunks=3)
        assert got.meta["slice_tier"] == (tier if NATIVE else "hybrid")
        order = stable_order(keys)
        assert same_bytes(got.keys, keys[order])
        assert same_bytes(got.values, values[order])


@pytest.mark.parametrize("tier,n,slice_records", CASES, ids=IDS)
def test_fused_uint32_pairs(tier, n, slice_records):
    rng = np.random.default_rng(n)
    keys = rng.integers(0, 64, n).astype(np.uint32)
    values = rng.integers(0, 2**32, n, dtype=np.uint32)
    got = repro.sort_pairs(
        keys, values, config=FUSED, memory_budget=budget(slice_records, 8)
    )
    expect_tier(got, tier)
    whole = repro.sort_pairs(keys, values, config=FUSED)
    order = fused_order(keys, values)
    assert same_bytes(got.keys, whole.keys)
    assert same_bytes(got.values, whole.values)
    assert same_bytes(got.values, values[order])


class TestParentReproductions:
    """Three inputs the chunked path sorted wrongly before its merge
    compared sortable bits (counts of differing positions then, seed 0).
    """

    N = 1 << 14

    def test_float32_keys_quarter_budget(self):
        # Was: 394 of 16,384 positions differed.
        keys = with_specials(np.float32, self.N, seed=0)
        got = repro.sort(keys, memory_budget=keys.nbytes // 4)
        assert same_bytes(got.keys, repro.sort(keys).keys)
        assert same_bytes(got.keys, keys[stable_order(keys)])

    def test_float32_pairs_full_budget(self):
        # Was: 326 keys and 836 values differed.
        keys = with_specials(np.float32, self.N, seed=0)
        values = np.arange(self.N, dtype=np.uint32)
        got = repro.sort_pairs(keys, values, memory_budget=keys.nbytes)
        order = stable_order(keys)
        assert same_bytes(got.keys, keys[order])
        assert same_bytes(got.values, values[order])

    def test_fused_uint32_pairs_half_budget(self):
        # Was: 16,305 of 16,384 values differed (ties broke by run
        # order instead of by value bits).
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 64, self.N).astype(np.uint32)
        values = rng.integers(0, 2**32, self.N, dtype=np.uint32)
        got = repro.sort_pairs(
            keys, values, config=FUSED, memory_budget=keys.nbytes // 2
        )
        whole = repro.sort_pairs(keys, values, config=FUSED)
        assert same_bytes(got.values, whole.values)
        assert same_bytes(got.values, values[fused_order(keys, values)])
