"""Table V (top): the scatter-combine channel on PageRank.

Programs: Pregel+ basic, Pregel+ ghost (mirroring, threshold 16 as in the
paper), channel basic, channel scatter-combine.
Shape targets: scatter ~3x faster than basic; ghost cuts bytes but not
runtime.  Bytes, by baseline: the paper's ~1/3 is against a basic that
combines at the sender (12-byte records become 8-byte values once the
static pattern's ids stop crossing the wire every superstep); against
this repo's ``channel-basic``, which combines only at the receiver,
``channel-scatter`` also sends one value per unique destination instead of
one record per edge, and that is the large cut.  The ghost mode as a
channel, ``MirroredScatter`` (``bench_ablations.py``), is
``ScatterCombine`` with Pregel+'s rule for the senders whose own values
cross: its ranks and messages are ``channel-scatter``'s, its bytes differ.
"""

import pytest


@pytest.mark.parametrize("dataset", ["wikipedia", "webuk"])
@pytest.mark.parametrize(
    "program", ["pregel-basic", "pregel-ghost", "channel-basic", "channel-scatter"]
)
def test_table5_scatter(cell, dataset, program):
    kwargs = {"ghost_threshold": 16} if program == "pregel-ghost" else {}
    row = cell("pagerank", program, dataset, **kwargs)
    assert row["supersteps"] == 31  # 30 iterations + final halt step
