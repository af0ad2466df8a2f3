"""Versioned checkpoint snapshots of a running engine.

A checkpoint captures, per worker, everything needed to restart that
worker from a superstep boundary: the program's state dict, the
halt/wake flags, and every channel's dynamic state (including in-flight
inbox contents such as a ``DirectMessage``'s received CSR or a
``RequestRespond``'s answered responses).  The per-worker state is
serialized through the same codec layer the channels use on the wire
(:mod:`repro.runtime.serialization`), so checkpoint sizes reported by
:class:`~repro.runtime.metrics.MetricsCollector` are honest byte counts
and checkpoint write time can be charged by the network cost model
exactly like a buffer exchange.

The value encoding is a small tagged binary format covering the state
types programs and channels actually hold: NumPy arrays (any dtype,
including structured codec dtypes), Python scalars, strings, bytes,
``None``, and lists/tuples/dicts thereof.  It exists so that a snapshot
is a *byte string*, not a web of live object references — restoring from
it cannot accidentally share mutable state with the failed worker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.runtime.serialization import (
    BufferReader,
    BufferWriter,
    FLOAT64,
    INT64,
    UINT8,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ChannelEngine

__all__ = [
    "SNAPSHOT_VERSION",
    "encode_state",
    "decode_state",
    "Snapshot",
    "capture_worker_state",
    "load_worker_state",
    "capture_snapshot",
    "restore_worker",
]

#: bump when the worker-state layout changes incompatibly
SNAPSHOT_VERSION = 1

# value tags of the state encoding
_NONE, _BOOL, _INT, _FLOAT, _STR, _BYTES, _ARRAY, _LIST, _TUPLE, _DICT = range(10)


def _write_str(w: BufferWriter, s: str) -> None:
    raw = s.encode("utf-8")
    w.write_scalar(len(raw), INT64)
    w.write_bytes(raw)


def _read_str(r: BufferReader) -> str:
    n = int(r.read_scalar(INT64))
    return bytes(r.read_array(n, UINT8)).decode("utf-8")


def _write_value(w: BufferWriter, value) -> None:
    if value is None:
        w.write_scalar(_NONE, UINT8)
    elif isinstance(value, (bool, np.bool_)):
        w.write_scalar(_BOOL, UINT8)
        w.write_scalar(1 if value else 0, UINT8)
    elif isinstance(value, (int, np.integer)):
        w.write_scalar(_INT, UINT8)
        w.write_scalar(int(value), INT64)
    elif isinstance(value, (float, np.floating)):
        w.write_scalar(_FLOAT, UINT8)
        w.write_scalar(float(value), FLOAT64)
    elif isinstance(value, str):
        w.write_scalar(_STR, UINT8)
        _write_str(w, value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        w.write_scalar(_BYTES, UINT8)
        raw = bytes(value)
        w.write_scalar(len(raw), INT64)
        w.write_bytes(raw)
    elif isinstance(value, np.ndarray):
        w.write_scalar(_ARRAY, UINT8)
        # descr round-trips structured dtypes (np.void scalars of the
        # struct codecs) which plain dtype.str would lose
        _write_str(w, json.dumps(np.lib.format.dtype_to_descr(value.dtype)))
        w.write_scalar(value.ndim, INT64)
        for dim in value.shape:
            w.write_scalar(int(dim), INT64)
        raw = np.ascontiguousarray(value).tobytes()
        w.write_scalar(len(raw), INT64)
        w.write_bytes(raw)
    elif isinstance(value, (list, tuple)):
        w.write_scalar(_LIST if isinstance(value, list) else _TUPLE, UINT8)
        w.write_scalar(len(value), INT64)
        for item in value:
            _write_value(w, item)
    elif isinstance(value, dict):
        w.write_scalar(_DICT, UINT8)
        w.write_scalar(len(value), INT64)
        for key, item in value.items():
            _write_value(w, key)
            _write_value(w, item)
    else:
        raise TypeError(
            f"cannot checkpoint a value of type {type(value).__name__}; "
            "supported state types are NumPy arrays, scalars, str, bytes, "
            "None, and lists/tuples/dicts of those"
        )


def _read_value(r: BufferReader):
    tag = int(r.read_scalar(UINT8))
    if tag == _NONE:
        return None
    if tag == _BOOL:
        return bool(r.read_scalar(UINT8))
    if tag == _INT:
        return int(r.read_scalar(INT64))
    if tag == _FLOAT:
        return float(r.read_scalar(FLOAT64))
    if tag == _STR:
        return _read_str(r)
    if tag == _BYTES:
        n = int(r.read_scalar(INT64))
        return bytes(r.read_array(n, UINT8))
    if tag == _ARRAY:
        dtype = np.lib.format.descr_to_dtype(json.loads(_read_str(r)))
        ndim = int(r.read_scalar(INT64))
        shape = tuple(int(r.read_scalar(INT64)) for _ in range(ndim))
        nbytes = int(r.read_scalar(INT64))
        raw = bytes(r.read_array(nbytes, UINT8))
        # .copy() hands the caller a writable array, never a view of the blob
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if tag in (_LIST, _TUPLE):
        n = int(r.read_scalar(INT64))
        items = [_read_value(r) for _ in range(n)]
        return items if tag == _LIST else tuple(items)
    if tag == _DICT:
        n = int(r.read_scalar(INT64))
        out = {}
        for _ in range(n):
            key = _read_value(r)
            out[key] = _read_value(r)
        return out
    raise ValueError(f"corrupt snapshot: unknown value tag {tag}")


def encode_state(state: dict) -> bytes:
    """Serialize a state dict into a self-contained byte string."""
    w = BufferWriter()
    w.write_scalar(SNAPSHOT_VERSION, INT64)
    _write_value(w, state)
    return w.getvalue()


def decode_state(data: bytes | memoryview) -> dict:
    """Inverse of :func:`encode_state`; all arrays come back writable."""
    r = BufferReader(data)
    version = int(r.read_scalar(INT64))
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {version} not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    return _read_value(r)


@dataclass
class Snapshot:
    """One engine-wide checkpoint taken at a superstep boundary.

    ``blobs[w]`` is worker ``w``'s serialized state (program state dict,
    halt/wake flags, per-channel snapshots).  ``metrics_state`` is the
    engine-side bookkeeping needed to make a full rollback produce the
    exact metric totals of a failure-free run; it is simulator-internal
    and not counted in the checkpoint's byte size.
    """

    version: int
    superstep: int
    blobs: list[bytes] = field(repr=False)
    metrics_state: dict = field(repr=False)

    @property
    def worker_nbytes(self) -> list[int]:
        """Serialized size of each worker's state (parallel write cost)."""
        return [len(b) for b in self.blobs]

    @property
    def nbytes(self) -> int:
        """Total checkpoint size in bytes."""
        return sum(len(b) for b in self.blobs)


def capture_worker_state(worker) -> dict:
    """One worker's complete restartable state at a superstep boundary:
    program state dict, halt/wake flags, and every channel's
    ``snapshot()``.  This is *the* capture format — checkpoints,
    cross-process recovery and the streaming warm state all ship exactly
    this dict through :func:`encode_state`."""
    return {
        "program": worker.program.state_dict(),
        "flags": worker.snapshot_flags(),
        "channels": [channel.snapshot() for channel in worker.channels],
    }


def load_worker_state(worker, state: dict) -> None:
    """Inverse of :func:`capture_worker_state` (the worker must expose the
    same channel set the state was captured from)."""
    worker.program.load_state_dict(state["program"])
    worker.restore_flags(state["flags"])
    channels = worker.channels
    if len(channels) != len(state["channels"]):
        raise ValueError(
            f"state has {len(state['channels'])} channels but worker "
            f"{worker.worker_id} constructed {len(channels)}"
        )
    for channel, channel_state in zip(channels, state["channels"]):
        channel.restore(channel_state)


def capture_snapshot(engine: "ChannelEngine") -> Snapshot:
    """Checkpoint every worker of ``engine`` at the current boundary,
    wherever its workers live."""
    return Snapshot(
        version=SNAPSHOT_VERSION,
        superstep=engine.step_num,
        blobs=engine.backend.capture_state_blobs(),
        metrics_state=engine.metrics.snapshot(),
    )


def restore_worker(engine: "ChannelEngine", snapshot: Snapshot, w: int) -> None:
    """Load worker ``w``'s checkpointed state and rewind the superstep to
    the snapshot's.

    The caller decides whether the target worker is the surviving
    instance (rollback on a live worker) or a freshly built replacement;
    either way all state comes from the snapshot bytes, never from the
    old objects.
    """
    engine.backend.call(
        "restore", {w: {"blob": snapshot.blobs[w], "step_num": snapshot.superstep}}
    )
