"""RingBuffer and VoteBoard unit coverage: the SPSC shared-memory FIFO
under the process backend's ``transport="shm"`` data plane, and the
barrier-vote board every process run uses.

Everything here runs the ring through its visible contract — cursors,
wraparound, exactly-full, chunked oversized frames — plus
the two conditions that only show up under real concurrency: sustained
producer/consumer stress with random frame sizes across process
boundaries, and a writer dying mid-frame (the reader must be abortable,
never wedged).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading

import numpy as np
import pytest

from repro.runtime.parallel.shm import (
    DEFAULT_RING_CAPACITY,
    RingBuffer,
    RingTimeout,
    VoteBoard,
)


@pytest.fixture
def ring():
    r = RingBuffer.create(64)
    yield r
    r.close(unlink=True)


class TestBasics:
    def test_create_attach_roundtrip(self, ring):
        ring.send(b"hello")
        other = RingBuffer.attach(ring.spec)
        assert other.recv() == b"hello"
        other.close()

    def test_empty_reads_and_pending(self, ring):
        assert ring.read_some() == b""
        assert ring.pending == 0
        ring.write_some(b"abc")
        assert ring.pending == 3

    def test_capacity_floor(self):
        with pytest.raises(ValueError, match="capacity"):
            RingBuffer.create(8)

    def test_default_capacity_sane(self):
        assert DEFAULT_RING_CAPACITY >= 1 << 16


class TestWraparound:
    def test_messages_straddling_the_boundary(self, ring):
        # 40-byte messages through a 64-byte ring: every other message
        # wraps, and each must come back intact
        for i in range(50):
            msg = bytes([i % 251]) * 40
            ring.send(msg)
            assert ring.recv() == msg

    def test_split_write_split_read(self, ring):
        ring.write_some(b"x" * 50)
        assert ring.read_some(50) == b"x" * 50
        # cursors now at 50; a 30-byte write wraps 16/14
        assert ring.write_some(b"ab" * 15) == 30
        assert ring.read_some() == b"ab" * 15

    def test_cursors_are_monotonic_not_modular(self, ring):
        # push enough traffic that the u64 cursors pass several multiples
        # of the capacity; offsets stay correct throughout
        payload = os.urandom(48)
        for _ in range(20):
            ring.write_some(payload)
            assert ring.read_some() == payload


class TestExactlyFull:
    def test_fill_to_capacity_then_refuse(self, ring):
        assert ring.write_some(b"a" * 64) == 64
        assert ring.write_some(b"b") == 0  # full is full, no wasted byte
        assert ring.pending == 64
        assert ring.read_some() == b"a" * 64
        assert ring.write_some(b"c" * 64) == 64  # usable again end-to-end

    def test_partial_write_when_almost_full(self, ring):
        ring.write_some(b"a" * 60)
        assert ring.write_some(b"b" * 10) == 4  # takes what fits
        got = ring.read_some()
        assert got == b"a" * 60 + b"b" * 4


class TestOversizedFrames:
    def test_frame_larger_than_ring_streams_through(self, ring):
        big = os.urandom(DEFAULT_RING_CAPACITY // 64)  # 256x the 64B ring
        out = []
        reader = threading.Thread(target=lambda: out.append(ring.recv()))
        reader.start()
        ring.send(big)  # write_all chunks it through the tiny ring
        reader.join()
        assert out[0] == big

    def test_write_all_times_out_without_reader(self, ring):
        with pytest.raises(RingTimeout, match="unsent"):
            ring.write_all(b"x" * 100, timeout=0.05)

    def test_read_exact_times_out_without_writer(self, ring):
        with pytest.raises(RingTimeout, match="stalled"):
            ring.read_exact(1, timeout=0.05)


@pytest.fixture
def board():
    b = VoteBoard.create(3)
    yield b
    b.close(unlink=True)


class TestVoteBoard:
    """The barrier-vote plane of every process run: one ``(seq, value)``
    row per worker in one pool-owned segment."""

    def test_write_read_peek(self, board):
        board.write(1, 1, 42)
        assert board.peek(1) == (1, 42)
        assert board.read(1, 1) == 42
        # rows are per worker: the neighbours never saw that vote
        assert board.peek(0) == board.peek(2) == (0, 0)

    def test_stale_seq_never_satisfies_a_newer_wait(self, board):
        board.write(0, 1, 7)
        # seq 2 not published yet: must not return the stale value
        with pytest.raises(RingTimeout, match="worker 0.*seq 2.*stuck at 1"):
            board.read(0, 2, timeout=0.05)
        board.write(0, 2, 9)
        assert board.read(0, 2) == 9
        # an older wait is satisfied by the newer row (seqs only rise)
        assert board.read(0, 1) == 9

    def test_check_callback_can_abort(self, board):
        class Dead(RuntimeError):
            pass

        def check():
            raise Dead("peer died")

        with pytest.raises(Dead):
            board.read(2, 1, check=check)

    def test_attacher_adopts_the_board(self, board):
        # what a respawned worker does: attach by spec, see every peer's
        # standing vote, and publish its own for all other attachers
        board.write(0, 4, 10)
        other = VoteBoard.attach(board.spec)
        try:
            assert other.read(0, 4) == 10
            other.write(1, 4, 5)
            assert board.read(1, 4) == 5
        finally:
            other.close()


def _producer_main(spec, seed, count):
    rng = np.random.default_rng(seed)
    ring = RingBuffer.attach(spec)
    try:
        for _ in range(count):
            size = int(rng.integers(0, 3000))  # 0..~6x capacity (512)
            payload = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
            ring.send(payload, timeout=60)
    finally:
        ring.close()


def _dying_writer_main(spec):
    import struct

    ring = RingBuffer.attach(spec)
    # start a frame the reader will wait on forever: claim 1000 bytes,
    # deliver only a fragment, then die the hard way
    ring.write_all(struct.pack("<Q", 1000))
    ring.write_all(b"partial")
    os._exit(7)


class TestConcurrency:
    def test_producer_consumer_stress_random_sizes(self):
        # a real second process hammers the ring with frames from empty
        # to several times the capacity; every byte must arrive in order
        ring = RingBuffer.create(512)
        seed, count = 1234, 200
        proc = mp.get_context("spawn" if "fork" not in mp.get_all_start_methods()
                              else "fork").Process(
            target=_producer_main, args=(ring.spec, seed, count), daemon=True
        )
        proc.start()
        try:
            rng = np.random.default_rng(seed)
            for _ in range(count):
                size = int(rng.integers(0, 3000))
                expect = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
                assert ring.recv(timeout=60) == expect
            proc.join(timeout=30)
            assert proc.exitcode == 0
        finally:
            if proc.is_alive():  # pragma: no cover - failure path
                proc.terminate()
            ring.close(unlink=True)

    def test_reader_survives_writer_death_mid_frame(self):
        # the writer claims a 1000-byte frame, ships 7 bytes, and dies;
        # the reader must abort through its liveness check — not hang,
        # not fabricate a frame
        ring = RingBuffer.create(64)
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                             else "spawn")
        proc = ctx.Process(target=_dying_writer_main, args=(ring.spec,), daemon=True)
        proc.start()
        try:

            def check():
                if not proc.is_alive():
                    raise RuntimeError(
                        f"writer died (exit code {proc.exitcode})"
                    )

            with pytest.raises(RuntimeError, match=r"writer died \(exit code 7\)"):
                ring.recv(check=check, timeout=60)
            # and with no check, the deadline still bounds the wait
            with pytest.raises(RingTimeout):
                ring.read_exact(1000, timeout=0.05)
        finally:
            proc.join(timeout=10)
            ring.close(unlink=True)
