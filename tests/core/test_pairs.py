"""Tests for coherent key-value layouts (§4.6)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.core.config import SortConfig
from repro.core.pairs import (
    decompose,
    make_records,
    packing_mode,
    record_dtype,
    recompose,
    resolve_config,
)
from repro.errors import ConfigurationError


class TestRecords:
    def test_roundtrip(self, rng):
        keys = rng.integers(0, 2**32, 100, dtype=np.uint64).astype(np.uint32)
        values = rng.integers(0, 2**32, 100, dtype=np.uint64).astype(np.uint32)
        records = make_records(keys, values)
        k, v = decompose(records)
        assert np.array_equal(k, keys)
        assert np.array_equal(v, values)
        assert np.array_equal(recompose(k, v), records)

    def test_record_dtype_fields(self):
        dt = record_dtype(np.uint64, np.uint32)
        assert dt.names == ("key", "value")
        assert dt["key"] == np.uint64

    def test_decompose_copies(self, rng):
        keys = rng.integers(0, 100, 10, dtype=np.uint64).astype(np.uint32)
        records = make_records(keys, keys.copy())
        k, _ = decompose(records)
        k[0] = 999
        assert records["key"][0] != 999

    def test_mismatched_shapes(self):
        with pytest.raises(ConfigurationError):
            make_records(np.zeros(3, dtype=np.uint32), np.zeros(4, dtype=np.uint32))

    def test_decompose_requires_fields(self):
        with pytest.raises(ConfigurationError):
            decompose(np.zeros(4, dtype=np.uint32))


class TestSortRecords:
    def test_end_to_end(self, rng):
        keys = rng.integers(0, 2**32, 30_000, dtype=np.uint64).astype(np.uint32)
        values = np.arange(30_000, dtype=np.uint32)
        records = make_records(keys, values)
        result = repro.sort_records(records)
        sorted_records = result.meta["records"]
        assert np.array_equal(sorted_records["key"], np.sort(keys))
        assert np.array_equal(keys[sorted_records["value"]], sorted_records["key"])

    def test_mixed_widths(self, rng):
        keys = rng.integers(0, 2**64, 20_000, dtype=np.uint64)
        values = rng.integers(0, 2**64, 20_000, dtype=np.uint64)
        records = make_records(keys, values)
        result = repro.sort_records(records)
        assert np.array_equal(result.keys, np.sort(keys))


class TestLayoutRule:
    """The one layout rule every in-memory tier dispatches on."""

    def test_packing_mode_table(self):
        values = np.zeros(10, dtype=np.uint32)
        pairs32 = SortConfig.for_layout(32, 32)
        pairs64 = SortConfig.for_layout(64, 32)
        assert packing_mode(SortConfig.for_layout(32), 10, None) == "decomposed"
        assert packing_mode(pairs32, 1, values[:1]) == "decomposed"
        assert packing_mode(pairs32, 10, values) == "index"
        assert packing_mode(pairs64, 10, values) == "split"
        off = replace(pairs32, pair_packing="off")
        fused = replace(pairs32, pair_packing="fused")
        assert packing_mode(off, 10, values) == "decomposed"
        assert packing_mode(fused, 10, values) == "fused"
        with pytest.raises(ConfigurationError, match="fused"):
            packing_mode(replace(pairs64, pair_packing="fused"), 10, values)

    def test_resolve_config_checks_the_input(self):
        keys = np.zeros(4, dtype=np.float64)
        assert resolve_config(None, keys, None) == SortConfig.for_layout(64)
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            resolve_config(None, keys.reshape(2, 2), None)
        with pytest.raises(ConfigurationError, match="parallel"):
            resolve_config(None, keys, np.zeros(3, dtype=np.uint32))
        with pytest.raises(ConfigurationError, match="32-bit keys"):
            resolve_config(SortConfig.for_layout(32), keys, None)
