#!/usr/bin/env python
"""Scan an adaptive L3 cache for set-dueling dedicated sets.

Reproduces the Section VI-C3/VI-D analysis: which sets (in which
C-Boxes) run a fixed replacement policy, and which are followers.  On
Haswell the dedicated sets exist only in slice 0 — the per-C-Box
support the paper highlights over prior work.

Run: ``python examples/set_dueling_scan.py [uarch]``
(``IvyBridge`` (default), ``Haswell`` or ``Broadwell``).
"""

import sys

from repro.core.nanobench import NanoBench
from repro.tools.cache import CacheSeq, SetDuelingScanner, disable_prefetchers

POLICIES = {
    "IvyBridge": ("QLRU_H11_M1_R1_U2", "QLRU_H11_M3_R1_U2"),
    "Haswell": ("QLRU_H11_M1_R0_U0", "QLRU_H11_M3_R0_U0"),
    "Broadwell": ("QLRU_H11_M1_R0_U0", "QLRU_H11_M3_R0_U0"),
}


def main() -> None:
    uarch = sys.argv[1] if len(sys.argv) > 1 else "IvyBridge"
    if uarch not in POLICIES:
        raise SystemExit("adaptive CPUs: %s" % ", ".join(POLICIES))

    nb = NanoBench.kernel(uarch, seed=4)
    disable_prefetchers(nb.core)
    nb.resize_r14_buffer(160 << 20)
    cache_seq = CacheSeq(nb, level=3)

    policy_a, policy_b_det = POLICIES[uarch]
    scanner = SetDuelingScanner(cache_seq, policy_a, policy_b_det)

    # Scan the boundary neighbourhoods of the known ranges plus some
    # follower territory, in two C-Boxes.
    sets = (list(range(508, 516)) + list(range(572, 580))
            + list(range(764, 772)) + list(range(828, 836))
            + [600, 700, 900])
    print("Scanning %d sets in slices 0 and 1 of %s ..." % (len(sets),
                                                            uarch))
    results = scanner.scan(sets, slices=(0, 1))

    for slice_id, classification in sorted(results.items()):
        print()
        print("C-Box %d:" % slice_id)
        for label, description in (("A", "dedicated to policy A"),
                                   ("B", "dedicated to policy B")):
            ranges = classification.dedicated_ranges(label)
            if ranges:
                text = ", ".join("%d-%d" % r for r in ranges)
            else:
                text = "(none)"
            print("  %s (%s): %s" % (
                description,
                policy_a if label == "A" else policy_b_det + "-like",
                text,
            ))
        followers = sum(
            1 for v in classification.labels.values() if v == "follower"
        )
        print("  follower sets: %d of %d scanned" % (followers, len(sets)))


if __name__ == "__main__":
    main()
