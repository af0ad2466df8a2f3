"""Table V (bottom): the propagation channel on WCC (HCC hash-min).

Programs: Pregel+ basic, Blogel (block-centric), channel basic, channel
propagation — on raw and METIS-like-partitioned input.
Shape targets: propagation converges in O(1) supersteps; Blogel's
messages match propagation's in count but are ~1/3 smaller; partitioning
helps the block-convergent systems most.
"""

import pytest


@pytest.mark.parametrize("partitioned", [False, True], ids=["raw", "metis"])
@pytest.mark.parametrize(
    "program", ["pregel-basic", "blogel-basic", "channel-basic", "channel-prop"]
)
def test_table5_prop(cell, program, partitioned):
    row = cell("wcc", program, "wikipedia", partitioned=partitioned)
    assert row["supersteps"] >= 1
