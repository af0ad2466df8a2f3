"""True multiprocess execution backend (``executor="process"``).

The simulated engine runs every worker sequentially inside one Python
process; this package runs each worker as a real OS process instead,
while reproducing the simulated superstep / exchange-round loop exactly:

* the CSR graph and the partition array live in
  ``multiprocessing.shared_memory`` segments, mapped read-only into every
  worker process (:mod:`repro.runtime.parallel.shm`);
* all per-superstep traffic crosses process boundaries as the *same wire
  bytes* the channels serialize in the simulator — frames travel peer to
  peer through per-pair shared-memory ring buffers while every worker
  has a core, or over OS pipes once workers outnumber cores (a rule the
  pool applies, :func:`~repro.runtime.parallel.pool.frame_mover`), under
  one protocol either way: barrier votes on a shared vote board, one
  control-pipe round trip per superstep — and the parent only collects
  byte counts, so the byte/message accounting is bit-identical to a
  simulated run (:mod:`repro.runtime.parallel.worker_proc`);
* worker processes are **persistent**: a :class:`WorkerPool` spawns them
  once and reconfigures them for new engines (new graph views and
  partitions, next-epoch programs) through control messages, so
  streaming epochs and repeated runs never pay process startup again
  (:mod:`repro.runtime.parallel.pool`);
* a command/reply barrier protocol over per-worker control pipes drives
  the superstep loop (:mod:`repro.runtime.parallel.backend`, built on
  the :class:`~repro.runtime.executor.ExecutorBackend` seam); control
  messages are encoded with the checkpoint layer's tagged binary codec
  (:func:`repro.runtime.checkpoint.encode_state`) — the one exception is
  the program factory itself, which is code and crosses as pickle bytes
  when a live pool is reconfigured;
* fault tolerance runs for real: checkpoints are captured worker-side,
  injected failures kill actual worker processes, and both recovery
  modes (rollback, confined) restore respawned replacements through the
  checkpoint wire format.

Entry point: ``ChannelEngine(..., executor="process")``; pass an
explicit ``pool=`` to share one persistent pool across engines (the
streaming :class:`~repro.streaming.epoch.EpochEngine` does this for
``executor="process"``).
"""

from repro.runtime.parallel.backend import ProcessBackend
from repro.runtime.parallel.pool import WorkerPool
from repro.runtime.parallel.protocol import WorkerProcessError

__all__ = ["ProcessBackend", "WorkerPool", "WorkerProcessError"]
