"""Small NumPy utilities shared across the package."""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "check_choice",
    "check_count",
    "check_partition",
    "check_vertex",
    "csr_group",
    "cut_blocks",
    "expand_ranges",
    "group_by_key",
    "group_starts",
    "index_dtype",
    "stable_order",
]


def check_vertex(name: str, vid, num_vertices: int) -> int:
    """``vid`` as an ``int`` when it names a vertex of a graph with
    ``num_vertices`` vertices; otherwise a ``ValueError`` that names the
    argument.  A public argument that names a vertex is checked here
    once, so no negative id reaches NumPy indexing from the end."""
    if isinstance(vid, bool) or not isinstance(vid, (int, np.integer)):
        raise ValueError(f"{name} must be an int vertex id, got {vid!r}")
    if not 0 <= vid < num_vertices:
        raise ValueError(f"{name} must be a vertex id in [0, {num_vertices}), got {vid}")
    return int(vid)


def check_count(name: str, count) -> int:
    """``count`` as an ``int`` when it is a non-negative integer (a
    ``bool`` is not one); otherwise a ``ValueError`` that names the
    argument.  A public count — iterations, rounds — is checked here
    once, so no ``-1`` runs as zero and no ``2.5`` as two."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
        raise ValueError(f"{name} must be a non-negative int, got {count!r}")
    return int(count)


def check_choice(name: str, value, choices: dict):
    """``choices[value]`` when ``value`` is one of its keys; otherwise a
    ``ValueError`` that names the argument and the keys, not a bare
    ``KeyError``."""
    try:
        return choices[value]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {name} {value!r}; have {sorted(choices)}") from None


def check_partition(partition, num_vertices: int, num_workers: int) -> np.ndarray:
    """``partition`` as an integer array that assigns each of
    ``num_vertices`` vertices one of ``num_workers`` workers, kept as
    given — the same memory, as narrow as the caller made it; otherwise a
    ``ValueError`` that names the argument.  A float or ``bool`` array is
    refused, not truncated to worker numbers."""
    owner = np.asarray(partition)
    if not np.issubdtype(owner.dtype, np.integer):
        raise ValueError(f"partition must be an integer array, got dtype {owner.dtype}")
    if owner.shape != (num_vertices,):
        raise ValueError(
            f"partition must assign every vertex: shape {owner.shape}, "
            f"want ({num_vertices},)"
        )
    if owner.size and (int(owner.min()) < 0 or int(owner.max()) >= num_workers):
        raise ValueError(
            f"partition assigns vertices to unknown workers: values in "
            f"[{owner.min()}, {owner.max()}], want [0, {num_workers})"
        )
    return owner


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s+c) for s, c in zip(starts, counts)]``
    without a Python loop.

    This is the standard trick for gathering the CSR edge slices of a whole
    frontier at once: ``expand_ranges(indptr[f], indptr[f+1]-indptr[f])``
    yields the flat edge indices of every vertex in ``f``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    nonzero = counts > 0
    starts, counts = starts[nonzero], counts[nonzero]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    total = int(counts.sum())
    deltas = np.ones(total, dtype=np.int64)
    deltas[0] = starts[0]
    # at each range boundary, jump from the previous range's end to the
    # next range's start
    boundaries = np.cumsum(counts[:-1])
    deltas[boundaries] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return np.cumsum(deltas)


#: keys :func:`group_starts` compares at a time
_STARTS_BLOCK = 1 << 16


def group_starts(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a sorted key array, return (unique keys, start index of each
    group) — the inputs ``ufunc.reduceat`` wants.  The unique keys keep the
    keys' dtype.  The starts are found :data:`_STARTS_BLOCK` keys at a time
    into one reused mask, so no boolean column as long as the keys is
    ever held."""
    n = sorted_keys.size
    if n == 0:
        return sorted_keys[:0], np.empty(0, dtype=np.int64)
    boundary = np.empty(min(n, _STARTS_BLOCK), dtype=bool)
    found = []
    for lo in range(0, n, _STARTS_BLOCK):
        hi = min(lo + _STARTS_BLOCK, n)
        mask = boundary[: hi - lo]
        # each key against the one before it; the very first starts a group
        if lo:
            np.not_equal(sorted_keys[lo:hi], sorted_keys[lo - 1 : hi - 1], out=mask)
        else:
            mask[0] = True
            np.not_equal(sorted_keys[1:hi], sorted_keys[: hi - 1], out=mask[1:])
        starts = np.flatnonzero(mask)
        starts += lo
        found.append(starts)
    starts = np.concatenate(found) if len(found) > 1 else found[0]
    return sorted_keys[starts], starts


def index_dtype(bound: int) -> np.dtype:
    """The narrowest of ``uint16`` and ``uint32`` that holds every index
    in ``[0, bound)``; ``int64`` past both."""
    if bound <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32 if bound <= 1 << 32 else np.int64)


def cut_blocks(bounds: np.ndarray, block: int) -> list[tuple[int, int, int, int]]:
    """Cut the segments ``bounds[i]:bounds[i + 1]`` (the rows of an
    ``indptr``) into consecutive blocks ``(first segment, end segment,
    first element, end element)`` of whole segments holding at most
    ``block`` elements; a longer segment is a block of its own."""
    blocks = []
    seg = 0
    while seg < bounds.size - 1:
        end = int(np.searchsorted(bounds, bounds[seg] + block, side="right")) - 1
        end = max(end, seg + 1)
        blocks.append((seg, end, int(bounds[seg]), int(bounds[end])))
        seg = end
    return blocks


def stable_order(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``(np.argsort(keys, kind="stable"), keys[that])`` for integer keys
    in ``[0, bound)``, several times faster.

    Each key is packed with its position, ``(key << shift) | position``;
    the packed values are unique, so one unstable in-place ``np.sort``
    orders equal keys by position, which is the stable permutation.
    Raises ``ValueError`` (there is no fallback) when key and position do
    not fit 63 bits together or a key lies outside ``[0, bound)``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = keys.size
    if n == 0:
        return np.empty(0, dtype=np.int64), keys.copy()
    shift = (n - 1).bit_length()
    if int(bound).bit_length() + shift > 63:
        raise ValueError(
            f"cannot pack keys below {bound} with {n} positions into 63 bits"
        )
    lo, hi = int(keys.min()), int(keys.max())
    if lo < 0 or hi >= bound:
        raise ValueError(f"key {lo if lo < 0 else hi} outside [0, {bound})")
    packed = keys << shift
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    return order, packed


def group_by_key(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    num_pairs: int,
    key_bound: int,
    value_bound: int,
    *,
    exact: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group values by keys, stably: for the ``num_pairs`` pairs that
    ``blocks`` delivers as consecutive ``(keys, values)`` arrays, returns
    ``(unique keys ascending, start of each group, values in stable key
    order)``, i.e. ``group_starts(keys[o])`` and ``values[o]`` for ``o =
    argsort(keys, kind="stable")``.  The caller has checked the keys
    against ``[0, key_bound)`` and the values against ``[0, value_bound)``;
    the bounds are those of vertex ids and local indices, at most 2**31
    and 2**32 (a wider one is a ``ValueError`` naming it), so the unique
    keys come back as ``int32``, the width of a vertex id.

    Each block is read once, while it is packed as ``(key << 32) | value``
    into its slice of the one buffer this function allocates, and is not
    needed afterwards (the producer may hand its memory back).  With
    ``exact=False``, ``num_pairs`` only bounds the count: the buffer is
    sized by it, filled as a prefix and shrunk in place to the pairs that
    came (the untouched tail of a large allocation never becomes
    resident); otherwise a different count is a ``ValueError``.  When the
    values are non-decreasing throughout (the rows of a CSR, numbered),
    one in-place sort of that buffer is the order: the sorted buffer's high
    words are the keys and its low words the grouped values — no
    permutation is built or applied.  Within a key
    the stable order keeps the values non-decreasing, which is the order
    of the sorted pairs, and equal pairs are interchangeable.  Any other
    input goes through :func:`stable_order`.

    ``values`` may be a narrower integer column (a ``uint32`` row numbering
    is folded into the pairs as it is).  The grouped values are the
    narrowest of ``uint16`` and ``uint32`` that holds ``value_bound``
    (:func:`index_dtype`): 2 or 4 B a pair.  On the sorted route they are
    the buffer's low words, moved to its front and the buffer shrunk to
    them where it lies, so no second edge-length column is ever held, and
    the groups' starts are found a block at a time (:func:`group_starts`).
    """
    if key_bound > 1 << 31 or value_bound > 1 << 32:
        raise ValueError(f"bounds {key_bound} (keys), {value_bound} (values) past 2**31, 2**32")
    # one buffer of words as wide as the grouped values, owned as such so
    # that it can shrink to them where it lies; its pairs, explicitly
    # little-endian, have their key in the high 32 bits
    width = index_dtype(value_bound).newbyteorder("<")
    per = 8 // width.itemsize  # words a pair
    words = np.empty(per * num_pairs, dtype=width)
    keys = words.view("<i8")
    ordered, last, end = True, 0, 0
    for block_keys, block_values in blocks:
        start, end = end, end + len(block_keys)
        np.left_shift(block_keys, 32, out=keys[start:end], dtype=np.int64)
        keys[start:end] |= block_values
        if ordered and start < end:
            ordered = bool(
                last <= block_values[0] and np.all(block_values[1:] >= block_values[:-1])
            )
            last = block_values[-1]
    if end != num_pairs:
        if exact:
            raise ValueError(f"blocks held {end} pairs, not the {num_pairs} announced")
        # nothing else references the buffer: shrink it where it lies
        del keys
        words.resize(per * end, refcheck=False)
        keys = words.view("<i8")
    if ordered:
        keys.sort()
        del keys
        uniq, starts = group_starts(words.view("<u4")[1::2])
        return uniq.astype(np.int32), starts, _low_words(words, end)
    values = words[0::per].copy()
    keys >>= 32
    order, sorted_keys = stable_order(keys, key_bound)
    uniq, starts = group_starts(sorted_keys)
    return uniq.astype(np.int32), starts, values[order]


def _low_words(words: np.ndarray, count: int) -> np.ndarray:
    """The low words of the first ``count`` 8-byte pairs in ``words`` (the
    first word of each), moved to its front a block at a time, and
    ``words`` shrunk to them where it lies.  Only the first block overlaps
    its source (NumPy copies that one through a temporary); after it a
    block's words lie wholly past the front they move to."""
    per = 8 // words.itemsize
    step = 1 << 16
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        words[lo:hi] = words[per * lo : per * hi : per]
    words.resize(count, refcheck=False)
    return words


def csr_group(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by integer key in ``[0, bound)``, CSR style: returns
    ``(indptr, order)`` such that the rows with key ``k`` are
    ``order[indptr[k]:indptr[k + 1]]``, in their original order."""
    order, sorted_keys = stable_order(keys, bound)
    indptr = np.zeros(bound + 1, dtype=np.int64)
    np.cumsum(np.bincount(sorted_keys, minlength=bound), out=indptr[1:])
    return indptr, order
