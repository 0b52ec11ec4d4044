"""Seeded inputs, the independent oracle and the ``np.sort`` baselines.

Nothing here imports ``repro``: inputs come from NumPy and the seed
alone, so a change to the program cannot change what it is fed, and
the expected bytes come from NumPy's own sorts on a bit transform
written here, not the library's.

An :class:`Item` is one operation's input plus its expected output.
``case`` groups items for the ``vs_numpy_*`` ratios; ``kind`` says
how the operation is issued (``keys``, ``pairs``, ``file`` or
``budget``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

#: Share of float32 keys replaced by each special value.
SPECIAL_FRACTION = 0.002
FLOAT_SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0)

_UINT = {4: np.uint32, 8: np.uint64}


@dataclass
class Item:
    """One operation: its input and expected output."""

    case: str
    kind: str  # "keys" | "pairs" | "file" | "budget"
    keys: np.ndarray | None
    values: np.ndarray | None = None
    expected_keys: np.ndarray | None = None
    expected_values: np.ndarray | None = None
    n: int = 0
    # File items: paths, dtype names and the byte budget.
    path: str | None = None
    output: str | None = None
    dtype: str | None = None
    value_dtype: str | None = None
    memory_budget: int | None = None


# ----------------------------------------------------------------------
# Bit transform (IEEE-754 total order with NaN last, -0.0 before +0.0)
# ----------------------------------------------------------------------


def sortable_bits(keys: np.ndarray) -> np.ndarray:
    """Unsigned words that compare as ``keys`` do; a view for uints."""
    if keys.dtype.kind == "u":
        return keys
    udt = _UINT[keys.dtype.itemsize]
    raw = keys.view(udt)
    width = keys.dtype.itemsize * 8
    sign = udt(1 << (width - 1))
    negative = raw >> udt(width - 1)  # 1 for negative, else 0
    # Negative: flip every bit (0 - 1 wraps to all ones); else the sign.
    return raw ^ ((udt(0) - negative) | sign)


def from_sortable_bits(bits: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Invert :func:`sortable_bits`."""
    dtype = np.dtype(dtype)
    if dtype.kind == "u":
        return bits
    udt = bits.dtype.type
    width = dtype.itemsize * 8
    sign = udt(1 << (width - 1))
    was_positive = bits >> udt(width - 1)
    return (bits ^ ((was_positive - udt(1)) | sign)).view(dtype)


def same_bytes(got: np.ndarray | None, want: np.ndarray | None) -> bool:
    """Byte-for-byte equality (NaN payloads and zero signs included)."""
    if got is None or want is None:
        return got is None and want is None
    got = np.asarray(got)
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    # In slices, so the comparison's own temporaries stay small while
    # the memory an op adds is being measured.
    a, b = got.view(np.uint8), want.view(np.uint8)
    step = 1 << 20
    return all(
        np.array_equal(a[i:i + step], b[i:i + step]) for i in range(0, a.size, step)
    )


def _oracle(item: Item) -> None:
    """Expected output: sorted bits for keys, a stable argsort for pairs."""
    bits = sortable_bits(item.keys)
    if item.values is None:
        item.expected_keys = from_sortable_bits(np.sort(bits), item.keys.dtype)
    else:
        order = np.argsort(bits, kind="stable")
        item.expected_keys = item.keys[order]
        item.expected_values = item.values[order]
    item.n = int(item.keys.size)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def uint32_uniform(rng, n):
    return rng.integers(0, 1 << 32, n, dtype=np.uint32)


def uint32_and4(rng, n):
    """AND of four uniform words: the paper's §6 low-entropy skew."""
    out = uint32_uniform(rng, n)
    for _ in range(3):
        out &= uint32_uniform(rng, n)
    return out


def uint64_uniform(rng, n):
    return rng.integers(0, 1 << 64, n, dtype=np.uint64)


def uint64_zipf(rng, n, a=1.5):
    """Zipf-distributed ranks spread over 64 bits by an odd multiplier."""
    ranks = rng.zipf(a, n).astype(np.uint64)
    return ranks * np.uint64(0x9E3779B97F4A7C15)


def float32_specials(rng, n):
    """Normal floats with NaN, +-inf and +-0.0 injected."""
    out = (rng.standard_normal(n) * 1e3).astype(np.float32)
    per = max(1, int(n * SPECIAL_FRACTION))
    slots = rng.choice(n, size=min(n, per * len(FLOAT_SPECIALS)), replace=False)
    for i, value in enumerate(FLOAT_SPECIALS):
        out[slots[i * per:(i + 1) * per]] = value
    return out


KEY_GENERATORS = {
    "uint32": uint32_uniform,
    "uint32-and4": uint32_and4,
    "uint64": uint64_uniform,
    "uint64-zipf": uint64_zipf,
    "float32": float32_specials,
}

#: Value generator per key kind for pair items.
VALUE_GENERATORS = {
    "uint32": uint32_uniform,
    "float32": uint32_uniform,
    "uint64": uint64_uniform,
}


def make_item(rng, case, key_kind, n, pairs=False) -> Item:
    keys = KEY_GENERATORS[key_kind](rng, n)
    values = VALUE_GENERATORS[key_kind](rng, n) if pairs else None
    item = Item(case=case, kind="pairs" if pairs else "keys", keys=keys, values=values)
    _oracle(item)
    return item


def log_uniform_sizes(lo_exp, hi_exp, per_octave):
    """Sizes evenly spaced in log2 over ``[2^lo, 2^hi)``, ``per_octave``
    to each octave: the same size mix for every seed."""
    return [
        (e, int(2.0 ** (e + (j + 0.5) / per_octave)))
        for e in range(lo_exp, hi_exp)
        for j in range(per_octave)
    ]


# ----------------------------------------------------------------------
# Files for the out-of-core workload
# ----------------------------------------------------------------------


def make_file_item(rng, case, key_kind, n, workdir, pairs=False) -> Item:
    """Write a keys-only or interleaved-pairs file; budget = file / 4."""
    item = make_item(rng, case, key_kind, n, pairs)
    item.kind = "file"
    item.path = os.path.join(workdir, f"{case}.in")
    item.output = os.path.join(workdir, f"{case}.out")
    item.dtype = item.keys.dtype.name
    if pairs:
        item.value_dtype = item.values.dtype.name
        records = _records(item.keys, item.values)
        records.tofile(item.path)
        item.expected_keys = _records(item.expected_keys, item.expected_values)
        item.expected_values = None
    else:
        item.keys.tofile(item.path)
    item.memory_budget = os.path.getsize(item.path) // 4
    # The file holds the input; keep only what the oracle needs.
    item.keys = item.values = None
    return item


def _records(keys, values):
    out = np.empty(keys.size, dtype=[("k", keys.dtype), ("v", values.dtype)])
    out["k"] = keys
    out["v"] = values
    return out


def read_output(item: Item) -> np.ndarray:
    return np.fromfile(item.output, dtype=item.expected_keys.dtype)


# ----------------------------------------------------------------------
# np.sort baselines (timed; outputs checked against the oracle)
# ----------------------------------------------------------------------


def _baseline_sort(keys, values):
    """``np.sort`` on sortable bits; pairs via packed words or argsort."""
    bits = sortable_bits(keys)
    if values is None:
        return from_sortable_bits(np.sort(bits), keys.dtype), None
    if bits.dtype.itemsize == 4:
        # key | row-index words: one np.sort, index payload breaks ties.
        packed = (bits.astype(np.uint64) << np.uint64(32)) | np.arange(
            bits.size, dtype=np.uint64
        )
        packed.sort()
        order = (packed & np.uint64(0xFFFFFFFF)).astype(np.intp)
    else:
        order = np.argsort(bits, kind="stable")
    return keys[order], values[order]


def run_baseline(item: Item) -> tuple[bool, float]:
    """Time one baseline op on the item's input: (its bytes match, seconds).

    File items read the input, sort in memory and write the result, so
    the baseline moves the same bytes to and from disk.
    """
    if item.kind == "file":
        t0 = time.perf_counter()
        data = np.fromfile(item.path, dtype=item.expected_keys.dtype)
        if data.dtype.names:
            keys, values = _baseline_sort(data["k"], data["v"])
            out = _records(keys, values)
        else:
            out, _ = _baseline_sort(data, None)
        out.tofile(item.output)
        seconds = time.perf_counter() - t0
        ok = same_bytes(read_output(item), item.expected_keys)
        os.remove(item.output)
        return ok, seconds
    t0 = time.perf_counter()
    keys, values = _baseline_sort(item.keys, item.values)
    seconds = time.perf_counter() - t0
    ok = same_bytes(keys, item.expected_keys) and same_bytes(
        values, item.expected_values
    )
    return ok, seconds
