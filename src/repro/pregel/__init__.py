"""Baseline: a faithful re-implementation of Pregel+ (Yan et al.).

This is the system the paper compares against in Tables IV–VI.  It keeps
Pregel+'s design decisions on purpose:

* **monolithic message type** — one codec serves every message in the
  program, so heterogeneous algorithms (S-V, SCC, MSF) must widen all
  messages to the largest variant and tag them;
* **global combiner** — a combiner may be declared only when *every*
  message in the program admits it (receiver-side combining);
* **reqresp mode** — request/respond conversations with per-worker dedup
  but ``(id, value)``-echoing responses;
* **ghost (mirroring) mode** — sender-side combining for vertices whose
  degree exceeds a threshold, via per-worker mirror adjacency.
"""

from repro.pregel.program import PregelProgram, PregelVertex
from repro.pregel.system import pregel_plus

__all__ = ["PregelProgram", "PregelVertex", "pregel_plus"]
