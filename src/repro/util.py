"""Small NumPy utilities shared across the package."""

from __future__ import annotations

import numpy as np

__all__ = ["csr_group", "expand_ranges", "group_by_key", "group_starts", "stable_order"]


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


def group_starts(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a sorted key array, return (unique keys, start index of each
    group) — the inputs ``ufunc.reduceat`` wants."""
    if sorted_keys.size == 0:
        return sorted_keys[:0], np.empty(0, dtype=np.int64)
    boundary = np.empty(sorted_keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    return sorted_keys[starts], starts


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
    keys: np.ndarray, values: np.ndarray, key_bound: int, value_bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group ``values`` by ``keys``, stably: returns ``(unique keys
    ascending, start of each group, values in stable key order)``, i.e.
    ``group_starts(keys[o])`` and ``values[o]`` for ``o = argsort(keys,
    kind="stable")``.  The caller has checked ``keys`` against ``[0,
    key_bound)`` and ``values`` against ``[0, value_bound)``.

    When ``values`` is non-decreasing (the rows of a CSR, numbered) and
    both bounds fit a 32-bit word, the order comes from one in-place sort
    of the pairs packed as ``(key << 32) | value``: the sorted buffer's
    high words are the keys, and the buffer itself, masked to its low
    words, is the grouped values — no permutation is built or applied.
    Within a key the stable order keeps ``values`` non-decreasing, which
    is the order of the sorted pairs, and equal pairs are interchangeable.
    Any other input goes through :func:`stable_order`.

    ``values`` may be a narrower integer column (a ``uint32`` row numbering
    is folded into the pairs as it is, never widened to a full-length
    ``int64`` first); the grouped values are ``int64`` on either route,
    the index width ``np.take`` wants.
    """
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values)
    if (
        key_bound <= 1 << 31
        and value_bound <= 1 << 32
        and np.all(values[1:] >= values[:-1])
    ):
        # explicitly little-endian, so the odd 32-bit words are the keys
        packed = np.empty(keys.size, dtype="<i8")
        np.left_shift(keys, 32, out=packed)
        packed |= values
        packed.sort()
        uniq, starts = group_starts(packed.view("<u4")[1::2])
        packed &= 0xFFFFFFFF
        return uniq.astype(np.int64), starts, packed
    order, sorted_keys = stable_order(keys, key_bound)
    uniq, starts = group_starts(sorted_keys)
    return uniq, starts, values[order].astype(np.int64, copy=False)


def csr_group(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by integer key in ``[0, bound)``, CSR style: returns
    ``(indptr, order)`` such that the rows with key ``k`` are
    ``order[indptr[k]:indptr[k + 1]]``, in their original order."""
    order, sorted_keys = stable_order(keys, bound)
    indptr = np.zeros(bound + 1, dtype=np.int64)
    np.cumsum(np.bincount(sorted_keys, minlength=bound), out=indptr[1:])
    return indptr, order
