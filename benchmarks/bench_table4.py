"""Table IV: the channel mechanism vs Pregel+ basic implementations.

Six algorithms, two datasets each, both systems' *basic* versions.
Shape targets (paper): the channel system matches or beats Pregel+ on
runtime for PR/WCC/PJ/S-V/MSF; message sizes are identical for PR/WCC/PJ
and 23–82% smaller for S-V/MSF/SCC (per-channel message types).
"""

import pytest

CELLS = [
    ("pagerank", "webuk"),
    ("pagerank", "wikipedia"),
    ("wcc", "wikipedia"),
    ("pj", "chain"),
    ("pj", "tree"),
    ("sv", "facebook"),
    ("sv", "twitter"),
    ("msf", "usa-road"),
    ("msf", "rmat24"),
    ("scc", "wikipedia"),
]


@pytest.mark.parametrize("algo,dataset", CELLS, ids=[f"{a}-{d}" for a, d in CELLS])
@pytest.mark.parametrize("system", ["pregel-basic", "channel-basic"])
def test_table4(cell, algo, dataset, system):
    row = cell(algo, system, dataset)
    assert row["supersteps"] > 0


# the paper also reports WCC and SCC on METIS-partitioned wikipedia
@pytest.mark.parametrize("algo", ["wcc", "scc"])
@pytest.mark.parametrize("system", ["pregel-basic", "channel-basic"])
def test_table4_partitioned(cell, algo, system):
    row = cell(algo, system, "wikipedia", partitioned=True)
    assert row["supersteps"] > 0
