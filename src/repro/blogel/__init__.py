"""Baseline: Blogel-like block-centric programs (Yan et al., VLDB'14).

Blogel opens the partition to the user: a *block program* computes over a
whole worker's subgraph at once (B-compute) and exchanges messages only
between blocks.  The paper compares its Propagation channel against
Blogel's hash-min connected components (Table V, bottom) — same
convergence idea, but Blogel requires the user to hand-write the >100-line
block-level program that the Propagation channel gives for free.
"""

from repro.blogel.system import BlockProgram
from repro.blogel.wcc import BlogelWCC, run_wcc_blogel

__all__ = ["BlockProgram", "BlogelWCC", "run_wcc_blogel"]
