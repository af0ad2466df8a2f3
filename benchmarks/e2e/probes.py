"""Layer probes: ``probes.py PRESET SEED OUT.json``.

Each probe drives one layer alone through its public functions for a few
seconds, so a later change to that layer has a number of its own to move
besides the end-to-end metric it claims.  They describe the machine and
the layer, not a workload; README.md says which workload each explains.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

SIZES = {
    "full": dict(supersteps=2000, payload=1 << 20, sends=200, elements=1_000_000),
    "smoke": dict(supersteps=200, payload=1 << 16, sends=50, elements=100_000),
}
REPEATS = 5


def _median_seconds(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def superstep_floor_us(executor: str, supersteps: int) -> float:
    """Microseconds per superstep of a program that does nothing: the
    slope between a 1-superstep and a (1 + supersteps)-superstep run, so
    pool spawn and other per-run costs cancel."""
    from noop_program import NoopBulk
    from repro.core import ChannelEngine
    from repro.graph.graph import Graph

    graph = Graph(2, np.array([0]), np.array([1]), directed=True)
    seconds = []
    for steps in (1, 1 + supersteps):
        engine = ChannelEngine(
            graph,
            type("NoopBulk", (NoopBulk,), {"steps": steps}),
            num_workers=2,
            partition=np.array([0, 1]),
            executor=executor,
        )
        try:
            t0 = time.perf_counter()
            result = engine.run()
            seconds.append(time.perf_counter() - t0)
        finally:
            engine.close()
        if result.supersteps != steps:
            raise RuntimeError(f"no-op program ran {result.supersteps} supersteps, not {steps}")
    return (seconds[1] - seconds[0]) / supersteps * 1e6


def ring_mb_s(payload_bytes: int, sends: int) -> float:
    """Single-process ``RingBuffer.send``/``recv`` throughput."""
    from repro.runtime.parallel.shm import RingBuffer

    ring = RingBuffer.create(capacity=2 * payload_bytes)
    payload = bytes(payload_bytes)
    try:
        t0 = time.perf_counter()
        for _ in range(sends):
            ring.send(payload)
            if len(ring.recv()) != payload_bytes:
                raise RuntimeError("ring returned a short payload")
        seconds = time.perf_counter() - t0
    finally:
        ring.close(unlink=True)
    return sends * payload_bytes / 2**20 / seconds


def combiner_melem_s(elements: int, rng) -> dict:
    from repro.core import SUM_F64

    values = rng.random(elements)
    unique = rng.permutation(elements)
    duplicated = rng.integers(0, max(elements // 16, 1), size=elements)
    starts = np.arange(0, elements, 4)
    target = np.zeros(elements)

    def rate(fn) -> float:
        return elements / _median_seconds(fn) / 1e6

    return {
        "core.combiner.accumulate_at_unique_melem_s": rate(
            lambda: SUM_F64.accumulate_at(target, unique, values)
        ),
        "core.combiner.accumulate_at_dup_melem_s": rate(
            lambda: SUM_F64.accumulate_at(target, duplicated, values)
        ),
        "core.combiner.reduceat_melem_s": rate(lambda: SUM_F64.reduceat(values, starts)),
    }


def codec_mb_s(elements: int, rng) -> dict:
    from repro.runtime.serialization import FLOAT64

    values = rng.random(elements)
    encoded = FLOAT64.encode_array(values)
    if not np.array_equal(FLOAT64.decode_array(encoded), values):
        raise RuntimeError("FLOAT64 codec does not round-trip")
    mb = len(encoded) / 2**20
    return {
        "runtime.serialization.encode_mb_s": mb
        / _median_seconds(lambda: FLOAT64.encode_array(values)),
        "runtime.serialization.decode_mb_s": mb
        / _median_seconds(lambda: FLOAT64.decode_array(encoded)),
    }


def run_all(preset: str, seed: int) -> dict:
    size = SIZES[preset]
    rng = np.random.default_rng(seed)
    out = {
        "runtime.executor.superstep_floor_us": superstep_floor_us("sim", size["supersteps"]),
        "runtime.parallel.superstep_floor_us": superstep_floor_us("process", size["supersteps"]),
        "runtime.parallel.shm.ring_mb_s": ring_mb_s(size["payload"], size["sends"]),
    }
    out.update(combiner_melem_s(size["elements"], rng))
    out.update(codec_mb_s(size["elements"], rng))
    return out


if __name__ == "__main__":
    with open(sys.argv[3], "w") as f:
        json.dump(run_all(sys.argv[1], int(sys.argv[2])), f)
