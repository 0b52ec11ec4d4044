"""Property-based tests for the CPU multiway merge and PARADIS."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.paradis import ParadisSorter
from repro.core.keys import to_sortable_bits
from repro.external.format import FileLayout
from repro.hetero.merge import kway_merge, kway_merge_pairs
from repro.shard.merge import merge_shard_records

run_lists = st.lists(
    st.lists(st.integers(0, 10**6), min_size=0, max_size=200),
    min_size=0,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(run_lists)
def test_kway_merge_equals_global_sort(runs):
    arrays = [np.sort(np.array(r, dtype=np.uint64)) for r in runs]
    merged = kway_merge(arrays)
    expected = np.sort(
        np.concatenate(arrays) if arrays else np.empty(0, dtype=np.uint64)
    )
    assert np.array_equal(merged, expected)


@settings(max_examples=40, deadline=None)
@given(run_lists)
def test_kway_merge_pairs_consistency(runs):
    key_runs, value_runs = [], []
    offset = 0
    all_keys = []
    for r in runs:
        keys = np.array(r, dtype=np.uint64)
        values = np.arange(offset, offset + keys.size, dtype=np.uint64)
        order = np.argsort(keys, kind="stable")
        key_runs.append(keys[order])
        value_runs.append(values[order])
        all_keys.append(keys)
        offset += keys.size
    mk, mv = kway_merge_pairs(key_runs, value_runs)
    flat = (
        np.concatenate(all_keys) if all_keys else np.empty(0, dtype=np.uint64)
    )
    if flat.size:
        # Values are input positions: the merge of stable run sorts is
        # the global stable sort.
        order = np.argsort(flat, kind="stable")
        assert np.array_equal(mk, flat[order])
        assert np.array_equal(mv, order)


float_runs = st.lists(
    st.lists(
        st.floats(width=32, allow_nan=True, allow_infinity=True),
        min_size=0,
        max_size=60,
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(runs=float_runs, block=st.integers(1, 9))
def test_array_merge_is_the_stable_sort_on_bits(runs, block):
    """The bits-space array merge of stably sorted float runs equals one
    stable argsort of the sortable bits (NaN, ±inf, ±0.0 included),
    whatever the block size — for pairs (stable argsort step) and for
    keys only (plain sort step)."""
    layout = FileLayout(np.float32, np.uint32)
    records, flat, offset = [], [], 0
    for r in runs:
        keys = np.array(r, dtype=np.float32)
        values = np.arange(offset, offset + keys.size, dtype=np.uint32)
        order = np.argsort(to_sortable_bits(keys), kind="stable")
        records.append(layout.to_records(keys[order], values[order]))
        flat.append(keys)
        offset += keys.size
    merged = merge_shard_records(records, layout, block_records=block)
    flat = np.concatenate(flat)
    order = np.argsort(to_sortable_bits(flat), kind="stable")
    expected = layout.to_records(flat[order], order.astype(np.uint32))
    assert merged.tobytes() == expected.tobytes()
    keys_only = merge_shard_records(
        [r["key"].copy() for r in records],
        FileLayout(np.float32),
        block_records=block,
    )
    assert keys_only.tobytes() == flat[order].tobytes()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=1500),
    st.integers(1, 16),
)
def test_paradis_sorts_any_input(values, workers):
    keys = np.array(values, dtype=np.uint64)
    result = ParadisSorter(workers=workers).sort(keys)
    assert np.array_equal(result.keys, np.sort(keys))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=0, max_size=800))
def test_paradis_low_cardinality(values):
    keys = np.array(values, dtype=np.uint64)
    result = ParadisSorter(workers=4, comparison_threshold=8).sort(keys)
    assert np.array_equal(result.keys, np.sort(keys))
