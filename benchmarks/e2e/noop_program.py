"""A bulk program that does nothing for a fixed number of supersteps.

With two vertices and no channels, what a run of it costs is the
executor's per-superstep floor: barrier vote, compute dispatch and an
empty exchange.  It lives in its own module so worker processes can
import it.
"""

from repro.core import BulkVertexProgram


class NoopBulk(BulkVertexProgram):
    steps = 1

    def compute_bulk(self, active):
        if self.step_num >= self.steps:
            self.worker.halt_bulk(active)
