"""Property tests for the external sorter and its streaming merge.

Two families of properties:

* **merge-level** — :func:`repro.external.merge.merge_runs` over
  arbitrary sorted runs, block sizes down to one record, and
  duplicate-heavy keys must equal one stable sort of the runs'
  concatenation (equal keys in run order), regardless of where block
  boundaries fall inside runs of equal keys.
* **sorter-level** — the full spill-to-disk pipeline over arbitrary
  inputs and budgets must be byte-identical to one in-memory stable
  sort, i.e. run boundaries are invisible in the output.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.external import ExternalSorter, FileLayout, write_records, write_run
from repro.core.keys import to_sortable_bits
from repro.external.merge import merge_runs

# Keys drawn from a tiny alphabet force long runs of equal keys that
# straddle block boundaries — the hard case for a bounded-buffer merge.
tiny_keys = st.lists(st.integers(0, 7), min_size=0, max_size=80)
run_sets = st.lists(tiny_keys, min_size=1, max_size=6)


def _write_runs(tmpdir, layout, runs):
    paths = []
    for i, (keys, values) in enumerate(runs):
        path = os.path.join(tmpdir, f"run-{i:05d}.bin")
        write_run(path, layout.to_records(keys, values))
        paths.append(path)
    return paths


@settings(max_examples=50, deadline=None)
@given(runs=run_sets, block=st.integers(1, 17))
def test_streaming_merge_equals_in_memory_stable_merge(
    tmp_path_factory, runs, block
):
    """Any block size reproduces one stable sort of the runs in order."""
    tmpdir = str(tmp_path_factory.mktemp("merge"))
    layout = FileLayout(np.uint32, np.uint32)
    key_runs, value_runs, prepared = [], [], []
    offset = 0
    for r in runs:
        keys = np.sort(np.array(r, dtype=np.uint32))
        values = np.arange(offset, offset + keys.size, dtype=np.uint32)
        offset += keys.size
        key_runs.append(keys)
        value_runs.append(values)
        prepared.append((keys, values))
    paths = _write_runs(tmpdir, layout, prepared)
    out = os.path.join(tmpdir, "out.bin")
    written = merge_runs(paths, layout, out, block_records=block)
    # An independent oracle: concatenate the runs in run order and
    # stable-argsort the sortable bits.
    all_keys = np.concatenate(key_runs)
    order = np.argsort(to_sortable_bits(all_keys), kind="stable")
    expected_k = all_keys[order]
    expected_v = np.concatenate(value_runs)[order]
    got = np.fromfile(out, dtype=layout.storage_dtype)
    assert written == got.size == expected_k.size
    assert np.array_equal(got["key"], expected_k)
    # Equal keys must preserve run order — the stability contract.
    assert np.array_equal(got["value"], expected_v)


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.integers(0, 30), min_size=1, max_size=400),
    budget_records=st.integers(6, 60),
    workers=st.sampled_from([1, 2]),
)
def test_external_sort_equals_global_stable_sort(
    tmp_path_factory, keys, budget_records, workers
):
    """Run boundaries are invisible: output = one global stable sort."""
    tmpdir = str(tmp_path_factory.mktemp("ext"))
    layout = FileLayout(np.uint32, np.uint32)
    keys = np.array(keys, dtype=np.uint32)
    values = np.arange(keys.size, dtype=np.uint32)
    inp = os.path.join(tmpdir, "in.bin")
    out = os.path.join(tmpdir, "out.bin")
    write_records(inp, layout.to_records(keys, values))
    sorter = ExternalSorter(
        memory_budget=budget_records * layout.record_bytes,
        workers=workers,
    )
    sorter.sort_file(inp, out, layout)
    got = np.fromfile(out, dtype=layout.storage_dtype)
    order = np.argsort(keys, kind="stable")
    assert np.array_equal(got["key"], keys[order])
    assert np.array_equal(got["value"], values[order])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 300),
    budget_records=st.integers(6, 50),
)
def test_external_sort_floats_match_in_memory_engine(
    tmp_path_factory, n, budget_records
):
    """Float keys (negatives, zeros) match the in-memory hybrid sort.

    The oracle is the hybrid engine itself (bit-pattern total order:
    ``-0.0`` before ``+0.0``), compared byte-for-byte.
    """
    from repro.core.hybrid_sort import HybridRadixSorter

    tmpdir = str(tmp_path_factory.mktemp("extf"))
    rng = np.random.default_rng(n * 1000 + budget_records)
    keys = rng.standard_normal(n).astype(np.float32)
    if n > 2:
        keys[0], keys[1] = -0.0, 0.0
    layout = FileLayout(np.float32)
    inp = os.path.join(tmpdir, "in.bin")
    out = os.path.join(tmpdir, "out.bin")
    write_records(inp, keys)
    ExternalSorter(memory_budget=budget_records * 4).sort_file(
        inp, out, layout
    )
    with open(out, "rb") as fh:
        got = fh.read()
    assert got == HybridRadixSorter().sort(keys).keys.tobytes()


@pytest.mark.parametrize("block", [1, 2, 3, 1000])
def test_equal_run_straddles_many_blocks(tmp_path, block):
    """One key repeated across every block boundary stays in run order."""
    layout = FileLayout(np.uint32, np.uint32)
    runs = []
    offset = 0
    for size in (7, 11, 5):
        keys = np.full(size, 42, dtype=np.uint32)
        values = np.arange(offset, offset + size, dtype=np.uint32)
        offset += size
        runs.append((keys, values))
    paths = _write_runs(str(tmp_path), layout, runs)
    out = tmp_path / "out.bin"
    merge_runs(paths, layout, out, block_records=block)
    got = np.fromfile(out, dtype=layout.storage_dtype)
    assert np.array_equal(got["value"], np.arange(23, dtype=np.uint32))
