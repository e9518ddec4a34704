#!/usr/bin/env python
"""Case study II (Section VI): infer cache replacement policies.

Runs the full Table-I-style survey against one simulated CPU:

* L1/L2 via permutation-policy inference (Abel & Reineke RTAS'13),
* L3 via random-sequence identification over all meaningful QLRU
  variants plus the classic policies,
* and, for a non-deterministic policy, an age graph (Section VI-C2).

Run: ``python examples/cache_replacement_analysis.py [uarch]``
(try ``Skylake``, ``IvyBridge``, ``Nehalem``; default ``Skylake``).
"""

import sys

from repro.core.nanobench import NanoBench
from repro.tools.cache import (
    CacheSeq,
    compute_age_graph,
    disable_prefetchers,
    render_age_graph,
    survey_cpu,
)


def main() -> None:
    uarch = sys.argv[1] if len(sys.argv) > 1 else "Skylake"

    print("Surveying the cache hierarchy of %s ..." % uarch)
    survey = survey_cpu(uarch, seed=1)
    print()
    print("%s (%s) — replacement policies:" % (survey.uarch,
                                               survey.cpu_model))
    for level in (1, 2, 3):
        result = survey.levels[level]
        print("  L%d  %5d kB %2d-way:  %s" % (
            level, result.size_bytes // 1024, result.associativity,
            result.display_policy,
        ))
        print("      (method: %s)" % result.method)

    # For the adaptive Ivy Bridge L3, show the age graph of the
    # non-deterministic dedicated sets (Figure 1).
    if "non-deterministic" in survey.levels[3].note:
        print()
        print("Non-deterministic dedicated sets found; taking an age "
              "graph (Figure 1, reduced size) ...")
        nb = NanoBench.kernel(uarch, seed=1)
        disable_prefetchers(nb.core)
        nb.resize_r14_buffer(160 << 20)
        cache_seq = CacheSeq(nb, level=3)
        graph = compute_age_graph(
            cache_seq,
            ["B%d" % i for i in range(survey.levels[3].associativity)],
            n_values=list(range(0, 201, 25)),
            sets=list(range(768, 768 + 16)),
            slice_id=0,
        )
        print(render_age_graph(graph))


if __name__ == "__main__":
    main()
