"""E10 — Section VI-D: refuting the Briongos et al. policy models.

"Our results for the Haswell, Broadwell, Skylake, and Kaby Lake
microarchitectures disagree with the results reported by Briongos et
al.  The policies they describe would be the QLRU_H21_M2_R0_U0_UMO and
QLRU_H21_M3_R0_U0_UMO variants according to our naming scheme.  Our
tool found several counterexamples for these policies."

The benchmark points the counterexample finder at the Skylake L3 and
checks that (a) both Briongos variants are refuted by concrete
sequences, and (b) the paper's own model survives the same scrutiny.
"""

import random

import pytest

from repro.core.nanobench import NanoBench
from repro.tools.cache import CacheSeq, PolicyIdentifier, disable_prefetchers

from conftest import run_once

BRIONGOS_POLICIES = ("QLRU_H21_M2_R0_U0_UMO", "QLRU_H21_M3_R0_U0_UMO")
PAPER_POLICY = "QLRU_H11_M1_R0_U0"


def test_e10_briongos_counterexamples(benchmark, report):
    nb = NanoBench.kernel("Skylake", seed=11)
    disable_prefetchers(nb.core)
    nb.resize_r14_buffer(64 << 20)
    cache_seq = CacheSeq(nb, level=3)

    def experiment():
        identifier = PolicyIdentifier(
            cache_seq, set_index=123, slice_id=0, rng=random.Random(3)
        )
        counterexamples = {}
        for name in BRIONGOS_POLICIES:
            counterexamples[name] = identifier.find_counterexample(name)
        paper_consistent = identifier.check_policy(
            PAPER_POLICY, n_sequences=60
        )
        return counterexamples, paper_consistent

    counterexamples, paper_consistent = run_once(benchmark, experiment)

    lines = []
    for name, found in counterexamples.items():
        if found is None:
            lines.append("%s: no counterexample found" % name)
            continue
        blocks, simulated, measured = found
        lines.append("%s REFUTED:" % name)
        lines.append("  sequence: <wbinvd> %s" % " ".join(blocks))
        lines.append("  model predicts %d hits, hardware measures %d"
                     % (simulated, measured))
    lines.append("")
    lines.append("%s (this paper's model): consistent with all "
                 "measurements: %s" % (PAPER_POLICY, paper_consistent))
    report("E10_briongos", "\n".join(lines))

    for name in BRIONGOS_POLICIES:
        assert counterexamples[name] is not None, (
            "expected a counterexample against %s" % name
        )
    assert paper_consistent
