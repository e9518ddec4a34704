"""E8 — Figure 1: Ivy Bridge age graph for ``<WBINVD> B0 .. B11``.

The graph is taken in the non-deterministic dedicated sets 768-831 of
the Ivy Bridge L3 (policy ``QLRU_H11_MR161_R1_U2``).  The paper's
observations, which this benchmark checks as shapes:

* "for B0, about 15/16 of the blocks are evicted immediately when the
  first fresh block is accessed, while the remaining 1/16 of the blocks
  remains in the cache relatively long";
* "the curves for Bi and Bi+1 (i > 0) are similar, but shifted by
  about 16" — each later block survives ~16 more fresh accesses (the
  age-3 insertions evict in insertion order, 16 sets... i.e. one
  eviction position per fresh block per set).
"""

import pytest

from repro.core.nanobench import NanoBench
from repro.tools.cache import (
    CacheSeq,
    compute_age_graph,
    disable_prefetchers,
    render_age_graph,
)

from conftest import run_once

N_SETS = 64          # Figure 1 runs over 64 sets (y-axis up to ~60)
N_VALUES = list(range(0, 201, 20))
BLOCKS = ["B%d" % i for i in range(12)]  # associativity 12


def test_e8_ivybridge_age_graph(benchmark, report):
    nb = NanoBench.kernel("IvyBridge", seed=7)
    disable_prefetchers(nb.core)
    nb.resize_r14_buffer(192 << 20)
    cache_seq = CacheSeq(nb, level=3)
    sets = list(range(768, 768 + N_SETS))

    def experiment():
        return compute_age_graph(
            cache_seq, BLOCKS, n_values=N_VALUES, sets=sets, slice_id=0
        )

    graph = run_once(benchmark, experiment)

    lines = [render_age_graph(graph), ""]
    lines.append("n_fresh  " + "  ".join("%4s" % b for b in BLOCKS))
    for row in graph.to_rows():
        lines.append("%7d  " % row[0]
                     + "  ".join("%4d" % v for v in row[1:]))
    report("E8_fig1_age_graph", "\n".join(lines))

    # Shape 1: at n=0 every block is still cached in every set.
    for block in BLOCKS:
        assert graph.hits[block][0] == N_SETS

    # Shape 2: B0 drops to ~1/16 of the sets after the first fresh
    # blocks and stays there for a long time (the 1/16 insertions with
    # age 1 are long-lived).
    b0_after_20 = graph.hits["B0"][1]
    assert b0_after_20 <= N_SETS // 4
    plateau = graph.plateau_level("B0", tail_points=5)
    assert plateau <= N_SETS / 16 * 3  # small but often nonzero

    # Shape 3: consecutive curves are shifted — later blocks survive
    # longer: compare the n value where each curve falls below half.
    halves = [graph.crossing_point("B%d" % i, N_SETS / 2)
              for i in range(12)]
    assert all(h is not None for h in halves)
    # Monotone (non-strict) shift with an overall spread of ~16 per
    # index for the bulk of the curves.
    assert all(a <= b for a, b in zip(halves[1:], halves[2:]))
    assert halves[11] >= halves[1] + 100  # ~10 * 16 with step-20 grid
