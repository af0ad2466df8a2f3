"""Binary serialization layer for channel buffers.

Every channel writes its traffic into raw byte buffers (one per destination
worker) and reads traffic back out of the buffers it receives.  To keep the
byte accounting honest — message sizes in the paper's tables are real wire
sizes — all values cross worker boundaries through the codecs defined here,
never as live Python object references.

A :class:`Codec` is backed by a NumPy dtype so that bulk encode/decode is a
single ``tobytes``/``frombuffer`` call; this is the Python idiom closest to
the paper's C++ memcpy-style (de)serialization and keeps the simulator's
constant factors low enough for the benchmark tables to be meaningful.

Vertex ids are not written here.  A channel's ids — record keys, request
ids, announced id lists, delta positions — and every value a program
types as an id (``repro.core.ID`` / ``MIN_ID``) cross through the id
codec of :mod:`repro.core.channels._records`, the one place an id is
written to the wire and read back: as wide as its graph's vertex count
needs (1, 2, 3 or 4 bytes), as byte planes, so encode and decode stay
whole-array casts.  The fixed-width integer codecs below are for values
that are not ids.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Codec",
    "INT32",
    "INT64",
    "FLOAT32",
    "FLOAT64",
    "UINT8",
    "pair_codec",
    "struct_codec",
    "BufferWriter",
    "BufferReader",
]


class Codec:
    """A fixed-size binary codec backed by a NumPy dtype.

    Parameters
    ----------
    name:
        Human-readable name used in reprs and error messages.
    dtype:
        Any NumPy dtype (scalar or structured).  ``itemsize`` of this dtype
        is the wire size of one encoded value.
    """

    __slots__ = ("name", "dtype", "itemsize")

    def __init__(self, name: str, dtype: np.dtype | str | list) -> None:
        self.name = name
        self.dtype = np.dtype(dtype)
        self.itemsize = self.dtype.itemsize

    # -- bulk operations (preferred) -----------------------------------
    def encode_array(self, values: Sequence | np.ndarray) -> bytes:
        """Encode a sequence of values into a contiguous byte string."""
        arr = np.asarray(values, dtype=self.dtype)
        return arr.tobytes()

    def decode_array(self, data: bytes | memoryview, count: int = -1) -> np.ndarray:
        """Decode a byte string back into a (read-only) NumPy array."""
        return np.frombuffer(data, dtype=self.dtype, count=count)

    # -- scalar operations ----------------------------------------------
    def encode_one(self, value) -> bytes:
        if self.dtype.names:
            arr = np.zeros(1, dtype=self.dtype)
            arr[0] = tuple(value)
            return arr.tobytes()
        return self.dtype.type(value).tobytes()

    def decode_one(self, data: bytes | memoryview, offset: int = 0):
        out = np.frombuffer(data, dtype=self.dtype, count=1, offset=offset)[0]
        if self.dtype.names:
            return tuple(out)
        return out.item()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Codec({self.name}, {self.dtype}, {self.itemsize}B)"


#: Standard scalar codecs mirroring the C++ prototype's common message types.
INT32 = Codec("int32", np.int32)
INT64 = Codec("int64", np.int64)
FLOAT32 = Codec("float32", np.float32)
FLOAT64 = Codec("float64", np.float64)
UINT8 = Codec("uint8", np.uint8)


def pair_codec(first: Codec, second: Codec, name: str | None = None) -> Codec:
    """A codec for (a, b) pairs, e.g. the (dst, value) wire format of
    Pregel's monolithic messages."""
    name = name or f"pair<{first.name},{second.name}>"
    return Codec(name, [("a", first.dtype), ("b", second.dtype)])


def struct_codec(fields: Iterable[tuple[str, Codec]], name: str | None = None) -> Codec:
    """A codec for a named-field struct, e.g. MSF's 4-integer edge record."""
    fields = list(fields)
    name = name or "struct<" + ",".join(f"{n}:{c.name}" for n, c in fields) + ">"
    return Codec(name, [(n, c.dtype) for n, c in fields])


class BufferWriter:
    """Appends mixed binary content to a growable buffer.

    Channels use one writer per destination worker.  Headers (counts, tags)
    are written as scalars; payloads as bulk arrays.
    """

    __slots__ = ("_chunks", "_nbytes")

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._nbytes = 0

    def write_scalar(self, value, codec: Codec) -> None:
        chunk = codec.encode_one(value)
        self._chunks.append(chunk)
        self._nbytes += len(chunk)

    def write_array(self, values, codec: Codec) -> None:
        chunk = codec.encode_array(values)
        self._chunks.append(chunk)
        self._nbytes += len(chunk)

    def write_bytes(self, data: bytes) -> None:
        self._chunks.append(bytes(data))
        self._nbytes += len(data)

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def getvalue(self) -> bytes:
        if len(self._chunks) == 1:
            return self._chunks[0]
        return b"".join(self._chunks)

    def clear(self) -> None:
        self._chunks.clear()
        self._nbytes = 0


class BufferReader:
    """Sequentially consumes binary content written by a :class:`BufferWriter`."""

    __slots__ = ("_view", "_offset")

    def __init__(self, data: bytes | bytearray | memoryview) -> None:
        self._view = memoryview(data)
        self._offset = 0

    def read_scalar(self, codec: Codec):
        value = codec.decode_one(self._view, offset=self._offset)
        self._offset += codec.itemsize
        return value

    def read_array(self, count: int, codec: Codec) -> np.ndarray:
        nbytes = count * codec.itemsize
        arr = np.frombuffer(self._view, dtype=codec.dtype, count=count, offset=self._offset)
        self._offset += nbytes
        return arr

    @property
    def remaining(self) -> int:
        return len(self._view) - self._offset

    def at_end(self) -> bool:
        return self._offset >= len(self._view)
