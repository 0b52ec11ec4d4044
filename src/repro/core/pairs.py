"""Key-value layouts and packed-pair words (§4.6).

The hybrid sort natively handles *decomposed* (structure-of-arrays)
key-value pairs: values ride through the scatter and local-sort steps
alongside their keys.  Pairs stored *coherently* (array-of-structures)
are decomposed first and recomposed afterwards; the paper measured the
de/re-composition running at peak memory bandwidth, "adding only
negligible overhead".

The paper's §4.6 claim — pairs sort at (almost) the keys-only rate —
only holds when the payload does not buy extra trips to memory.  The
host engines achieve that with *packed words*: key bits in the high
half of one unsigned word, payload bits in the low half, so every
counting pass and local sort moves a single array and the payload never
needs its own gather.  Two packings exist:

* **index packing** (:func:`pack_key_index`) — the payload is the key's
  row index.  Because indices are unique and ascending in input order,
  sorting the packed words is *exactly* a stable sort of the keys: the
  unpacked permutation reproduces the argsort pipeline bit for bit, for
  any value width (values are gathered once, at the end).  64-bit keys
  use the same packing on their high 32-bit word, with an explicit
  low-word refinement.
* **fused packing** (:func:`pack_key_value`) — the payload is the value
  itself (``key_bits + value_bits <= 64``).  No final gather at all,
  but records with equal keys order by their value bits rather than by
  input position; opt-in via ``SortConfig(pair_packing="fused")``.

``SortConfig.pair_packing`` selects among them (:func:`packing_mode`
is the one dispatch rule every in-memory tier follows):

``"auto"`` (default)
    Index-pack whenever a bit-identical packed layout exists
    (:func:`index_packable`; 64-bit keys use the high-word split),
    otherwise fall back to the decomposed pipeline.  Never changes
    results, only speed.
``"index"``
    Same engines as ``"auto"`` — the name exists so callers can state
    the intent explicitly and fail loudly if a future layout stops
    being index-packable.
``"fused"``
    Fuse the value into the key word.  Fastest pairs path, but equal
    keys order by value bits instead of input position — only valid
    when the caller does not need stability (or wants the by-value
    order), and requires ``key_bits + value_bits <= 64``.
``"off"``
    The decomposed stable-argsort pipeline.  Slowest; kept as the
    oracle every packed engine is property-tested against
    (``tests/properties/test_packed_pairs.py``) and as the wide-record
    fallback.

The same knob reaches the out-of-core path untouched:
``ExternalSorter(pair_packing=...)`` forwards it to every in-RAM slice
sort, and the external merge mirrors ``"fused"``'s tie-break so the
spilled sort stays byte-identical to the in-memory one.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.config import SortConfig
from repro.core.keys import bits_dtype_for
from repro.errors import ConfigurationError

__all__ = [
    "resolve_config",
    "packing_mode",
    "make_records",
    "decompose",
    "recompose",
    "record_dtype",
    "index_packable",
    "pack_key_index",
    "unpack_key_index",
    "fused_packable",
    "pack_key_value",
    "unpack_key_value",
    "split_words64",
    "join_words64",
]

_UINT_FOR_BITS = {
    8: np.dtype(np.uint8),
    16: np.dtype(np.uint16),
    32: np.dtype(np.uint32),
    64: np.dtype(np.uint64),
}

#: On little-endian hosts a uint64 array viewed as uint32 exposes each
#: word as [low, high] halves — packing and unpacking then run as
#: single strided copies instead of shift/mask/widen passes.
_LITTLE_ENDIAN = sys.byteorder == "little"


def _halves(words: np.ndarray) -> np.ndarray:
    """View contiguous uint64 ``words`` as an (n, 2) uint32 matrix."""
    return words.view(np.uint32).reshape(-1, 2)


def split_words64(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split uint64 words into contiguous (high, low) uint32 arrays."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _LITTLE_ENDIAN:
        halves = _halves(words)
        return halves[:, 1].copy(), halves[:, 0].copy()
    high = (words >> np.uint64(32)).astype(np.uint32)
    low = (words & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    return high, low


def join_words64(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_words64`."""
    if _LITTLE_ENDIAN:
        words = np.empty(high.size, dtype=np.uint64)
        halves = _halves(words)
        halves[:, 1] = high
        halves[:, 0] = low
        return words
    return (high.astype(np.uint64) << np.uint64(32)) | low.astype(np.uint64)


def record_dtype(key_dtype, value_dtype) -> np.dtype:
    """Structured dtype of a coherent key-value record."""
    return np.dtype([("key", key_dtype), ("value", value_dtype)])


def make_records(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Interleave parallel arrays into a coherent record array."""
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != values.shape:
        raise ConfigurationError("keys and values must be parallel")
    records = np.empty(keys.size, dtype=record_dtype(keys.dtype, values.dtype))
    records["key"] = keys
    records["value"] = values
    return records


def decompose(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a coherent record array into key and value arrays.

    Copies (as the GPU de-composition kernel would) so the sort never
    aliases the caller's memory.
    """
    if records.dtype.names != ("key", "value"):
        raise ConfigurationError(
            "records must be a structured array with 'key' and 'value'"
        )
    return records["key"].copy(), records["value"].copy()


def recompose(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`decompose`."""
    return make_records(keys, values)


# ----------------------------------------------------------------------
# The layout rule every in-memory tier shares
# ----------------------------------------------------------------------
def resolve_config(
    config: SortConfig | None, keys: np.ndarray, values: np.ndarray | None
) -> SortConfig:
    """Check a sort's input shapes and resolve its configuration.

    ``keys`` must be one-dimensional and ``values`` (when given)
    parallel to it.  Returns ``config`` after checking it describes the
    input's key/value widths, or the Table 3 preset for the layout when
    ``config`` is ``None``.
    """
    if keys.ndim != 1:
        raise ConfigurationError("keys must be one-dimensional")
    if values is not None and values.shape != keys.shape:
        raise ConfigurationError("values must parallel keys")
    key_bits = bits_dtype_for(keys.dtype).itemsize * 8
    value_bits = 0 if values is None else values.dtype.itemsize * 8
    if config is None:
        return SortConfig.for_layout(key_bits, value_bits)
    if config.key_bits != key_bits:
        raise ConfigurationError(
            f"config is for {config.key_bits}-bit keys; "
            f"got {key_bits}-bit input"
        )
    if config.value_bits != value_bits:
        raise ConfigurationError(
            f"config is for {config.value_bits}-bit values; "
            f"got {value_bits}-bit input"
        )
    return config


def packing_mode(
    config: SortConfig, n: int, values: np.ndarray | None
) -> str:
    """Which pair layout a sort of ``n`` records runs.

    ``"decomposed"`` is the two-array pipeline (keys-only inputs,
    ``pair_packing="off"``, unpackable layouts, and trivial sizes);
    ``"index"``/``"split"``/``"fused"`` are the packed fast paths.
    Every in-memory tier dispatches on this one rule, which is what
    keeps their outputs byte-identical.
    """
    if values is None or n <= 1 or config.pair_packing == "off":
        return "decomposed"
    if config.pair_packing == "fused":
        if not fused_packable(config.key_bits, config.value_bits):
            raise ConfigurationError(
                "pair_packing='fused' requires "
                "key_bits + value_bits <= 64"
            )
        return "fused"
    # "auto" and "index": the bit-identical index payload.
    if index_packable(config.key_bits, n):
        return "index"
    if config.key_bits == 64:
        return "split"
    return "decomposed"


# ----------------------------------------------------------------------
# Packed words
# ----------------------------------------------------------------------


def index_packable(key_bits: int, n: int) -> bool:
    """True when ``key << (64-key_bits) | row_index`` fits a uint64."""
    return key_bits <= 32 and n <= (1 << (64 - key_bits))


def pack_key_index(bits: np.ndarray, key_bits: int) -> np.ndarray:
    """Pack key bit patterns with their row index into uint64 words.

    The key occupies the top ``key_bits`` bits (so MSD digit geometry
    over ``sort_bits=key_bits`` sees exactly the key's digits) and the
    row index the low ``64 - key_bits``.  Every word is unique, so the
    sorted word sequence is unique too: *any* correct sort of the packed
    words — span, gathered, chunked, threaded — unpacks to the same
    stable permutation, which is what makes the packed engine provably
    bit-identical to the stable argsort pipeline.

    Parameters
    ----------
    bits:
        Key *bit patterns* (already through
        :func:`repro.core.keys.to_sortable_bits`), at most 32 bits wide.
    key_bits:
        Width of the key field inside the word; with ``n`` rows it must
        satisfy :func:`index_packable` (``n <= 2**(64 - key_bits)``).
    """
    bits = np.asarray(bits)
    if not index_packable(key_bits, bits.size):
        raise ConfigurationError(
            f"{key_bits}-bit keys with {bits.size} rows do not index-pack"
        )
    if key_bits == 32 and _LITTLE_ENDIAN:
        packed = np.empty(bits.size, dtype=np.uint64)
        halves = _halves(packed)
        halves[:, 1] = bits
        halves[:, 0] = np.arange(bits.size, dtype=np.uint32)
        return packed
    shift = np.uint64(64 - key_bits)
    packed = bits.astype(np.uint64)
    packed <<= shift
    packed |= np.arange(bits.size, dtype=np.uint64)
    return packed


def unpack_key_index(
    packed: np.ndarray, key_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack_key_index`: ``(key_bits_array, permutation)``."""
    if key_bits == 32 and _LITTLE_ENDIAN:
        halves = _halves(packed)
        return halves[:, 1].copy(), halves[:, 0].astype(np.int64)
    shift = np.uint64(64 - key_bits)
    mask = np.uint64((1 << (64 - key_bits)) - 1)
    keys = (packed >> shift).astype(_UINT_FOR_BITS[key_bits])
    perm = (packed & mask).astype(np.int64)
    return keys, perm


def fused_packable(key_bits: int, value_bits: int) -> bool:
    """True when key and value bits fuse into one unsigned word."""
    return 0 < value_bits and key_bits + value_bits <= 64


def pack_key_value(
    key_bits_arr: np.ndarray, values: np.ndarray, key_bits: int
) -> np.ndarray:
    """Fuse key bit patterns and raw value bits into single words.

    The word is 32-bit when ``key_bits + value_bits <= 32``, else
    64-bit; the key sits in the top ``key_bits`` bits, the value's raw
    bit pattern in the bottom ``value_bits`` (zeros between, when the
    widths do not fill the word).

    Parameters
    ----------
    key_bits_arr:
        Key bit patterns (post-bijection), ``key_bits`` wide.
    values:
        Payloads of any fixed-width dtype; fused by raw bit pattern
        (floats are *not* bijected — the value half carries data, not
        sort order beyond the tie-break).
    key_bits:
        Key field width; ``key_bits + values.itemsize*8`` must fit one
        word (:func:`fused_packable`).
    """
    values = np.asarray(values)
    value_bits = values.dtype.itemsize * 8
    if not fused_packable(key_bits, value_bits):
        raise ConfigurationError(
            f"{key_bits}/{value_bits}-bit pairs do not fuse into a word"
        )
    word_bits = 32 if key_bits + value_bits <= 32 else 64
    word = _UINT_FOR_BITS[word_bits]
    packed = np.asarray(key_bits_arr).astype(word)
    packed <<= word.type(word_bits - key_bits)
    packed |= values.view(_UINT_FOR_BITS[value_bits]).astype(word)
    return packed


def unpack_key_value(
    packed: np.ndarray, key_bits: int, value_dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack_key_value`: ``(key_bits_array, values)``."""
    value_dtype = np.dtype(value_dtype)
    value_bits = value_dtype.itemsize * 8
    word_bits = packed.dtype.itemsize * 8
    word = packed.dtype.type
    keys = (packed >> word(word_bits - key_bits)).astype(
        _UINT_FOR_BITS[key_bits]
    )
    values = (
        (packed & word((1 << value_bits) - 1))
        .astype(_UINT_FOR_BITS[value_bits])
        .view(value_dtype)
    )
    return keys, values
