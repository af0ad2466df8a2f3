"""Pickle-free control-plane messages and crash-aware receives.

Every command and reply crossing a control pipe is a plain dict of
scalars/arrays/lists, serialized with the checkpoint layer's tagged
binary codec (:func:`repro.runtime.checkpoint.encode_state`) and moved
with ``Connection.send_bytes`` — the process backend never pickles
anything, matching how the channels themselves refuse to ship live
object references.

Receives are supervised: the parent polls with a short timeout and
checks worker liveness between polls, so a worker process dying (OOM
kill, segfault, ``os._exit``) surfaces as a :class:`WorkerProcessError`
instead of a hang.
"""

from __future__ import annotations

from multiprocessing.connection import Connection

from repro.runtime.checkpoint import decode_state, encode_state

__all__ = [
    "WorkerProcessError",
    "send_msg",
    "recv_msg",
    "recv_supervised",
    "check_liveness",
]

#: seconds between liveness checks while waiting on a reply
_POLL_INTERVAL = 0.05


class WorkerProcessError(RuntimeError):
    """A worker process died or reported a failure."""


def send_msg(conn: Connection, msg: dict) -> None:
    conn.send_bytes(encode_state(msg))


def recv_msg(conn: Connection) -> dict:
    return decode_state(conn.recv_bytes())


def _scavenge_error(conn: Connection | None) -> str | None:
    """A dead worker's last words: if its control pipe holds a buffered
    ``error`` reply (the child traceback it managed to send before
    exiting), return the traceback text.

    A worker that *raises* — e.g. inside a channel's ``serialize`` during
    an exchange round — ships the traceback and then exits; by the time
    the parent's liveness check notices the death, the message is sitting
    unread in the pipe.  Without scavenging it, the failure would surface
    as a bare "died (exit code 0)" and the actual cause would be lost.
    """
    if conn is None:
        return None
    try:
        if conn.poll(0):
            msg = recv_msg(conn)
            if isinstance(msg, dict) and "error" in msg:
                return msg["error"]
    except (EOFError, OSError, ValueError):
        pass
    return None


def _death_error(w: int, proc, phase: str, conn: Connection | None) -> WorkerProcessError:
    traceback = _scavenge_error(conn)
    if traceback is not None:
        return WorkerProcessError(
            f"worker process {w} failed during {phase}:\n{traceback}"
        )
    return WorkerProcessError(
        f"worker process {w} died (exit code {proc.exitcode}) during {phase}"
    )


def check_liveness(procs, phase: str, conns=None) -> None:
    """Raise :class:`WorkerProcessError` if any worker process is dead
    (scavenging its buffered traceback when ``conns`` is given).  This is
    the supervision predicate shared by :func:`recv_supervised`'s poll
    loop and the parent's blocking vote-board reads."""
    for w, proc in enumerate(procs):
        if not proc.is_alive():
            raise _death_error(
                w, proc, phase, conns[w] if conns is not None else None
            )


def recv_supervised(
    conn: Connection, worker_id: int, procs, phase: str, conns=None
) -> dict:
    """Receive worker ``worker_id``'s reply, watching *all* processes.

    Any worker dying aborts the wait — not just the one being awaited:
    with peer-to-peer frame pipes a live worker may itself be blocked on
    frames from the dead one, so its reply would never come.  When
    ``conns`` (all control pipes, in worker order) is given, a dead
    worker's buffered traceback is scavenged so mid-exchange failures
    keep their cause (see :func:`_scavenge_error`).

    A reply carrying an ``error`` key (a formatted child traceback) is
    also raised as :class:`WorkerProcessError`.
    """
    try:
        while not conn.poll(_POLL_INTERVAL):
            check_liveness(procs, phase, conns)
        msg = recv_msg(conn)
    except EOFError:
        # the awaited worker's pipe closed without a reply: it died
        # between liveness checks (poll reports readable on EOF)
        proc = procs[worker_id]
        proc.join(timeout=1)
        raise WorkerProcessError(
            f"worker process {worker_id} died (exit code {proc.exitcode}) "
            f"during {phase}"
        ) from None
    if "error" in msg:
        raise WorkerProcessError(
            f"worker process {worker_id} failed during {phase}:\n{msg['error']}"
        )
    return msg
