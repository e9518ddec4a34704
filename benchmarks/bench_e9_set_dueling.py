"""E9 — Section VI-D: set-dueling layouts of the adaptive CPUs.

Paper findings reproduced as shapes:

* Ivy Bridge: "the sets 512-575, and the sets 768-831 (in all slices)
  use a fixed policy, whereas the other sets are follower sets";
* Haswell: "uses the same sets as the Ivy Bridge CPU as dedicated sets,
  but only in slice 0.  All other sets are follower sets";
* Broadwell: "uses the first policy in sets 512-575 in slice 0, and
  768-831 in slice 1, and the second policy in sets 512-575 in slice 1,
  and 768-831 in slice 0".

The scan samples the boundary regions of both ranges plus surrounding
follower sets in two slices.
"""

import pytest

from repro.core.nanobench import NanoBench
from repro.tools.cache import CacheSeq, SetDuelingScanner, disable_prefetchers
from repro.uarch.specs import get_spec

from conftest import run_once

#: Sets scanned: range boundaries (exact), interiors (sampled) and
#: follower neighbourhoods.
SCAN_SETS = (
    [500, 504, 508] + list(range(510, 514)) + [540, 560]
    + list(range(574, 578)) + [600, 700]
    + list(range(766, 770)) + [800, 820]
    + list(range(830, 834)) + [860, 900]
)

POLICIES = {
    "IvyBridge": ("QLRU_H11_M1_R1_U2", "QLRU_H11_M3_R1_U2"),
    "Haswell": ("QLRU_H11_M1_R0_U0", "QLRU_H11_M3_R0_U0"),
    "Broadwell": ("QLRU_H11_M1_R0_U0", "QLRU_H11_M3_R0_U0"),
}


def _in_range_a(set_index):
    return 512 <= set_index <= 575


def _in_range_b(set_index):
    return 768 <= set_index <= 831


def _scan(uarch):
    nb = NanoBench.kernel(uarch, seed=9)
    disable_prefetchers(nb.core)
    nb.resize_r14_buffer(160 << 20)
    cache_seq = CacheSeq(nb, level=3)
    policy_a, policy_b_det = POLICIES[uarch]
    scanner = SetDuelingScanner(cache_seq, policy_a, policy_b_det)
    return scanner.scan(SCAN_SETS, slices=(0, 1))


def _format(uarch, results):
    lines = ["%s:" % uarch]
    for slice_id, classification in sorted(results.items()):
        a_sets = sorted(s for s, l in classification.labels.items()
                        if l == "A")
        b_sets = sorted(s for s, l in classification.labels.items()
                        if l == "B")
        followers = sum(
            1 for l in classification.labels.values() if l == "follower"
        )
        lines.append("  slice %d: dedicated-A %s" % (slice_id, a_sets))
        lines.append("           dedicated-B %s" % (b_sets,))
        lines.append("           followers: %d sets" % followers)
    return "\n".join(lines)


@pytest.mark.parametrize("uarch", ["IvyBridge", "Haswell", "Broadwell"])
def test_e9_set_dueling(benchmark, report, uarch):
    results = run_once(benchmark, lambda: _scan(uarch))
    report("E9_set_dueling_%s" % uarch, _format(uarch, results))

    for slice_id in (0, 1):
        labels = results[slice_id].labels
        for set_index in SCAN_SETS:
            label = labels[set_index]
            in_a, in_b = _in_range_a(set_index), _in_range_b(set_index)
            if uarch == "IvyBridge":
                expected = "A" if in_a else ("B" if in_b else "follower")
            elif uarch == "Haswell":
                if slice_id == 0:
                    expected = "A" if in_a else ("B" if in_b else "follower")
                else:
                    expected = "follower"
            else:  # Broadwell: ranges swapped between slices 0 and 1
                if slice_id == 0:
                    expected = "A" if in_a else ("B" if in_b else "follower")
                else:
                    expected = "B" if in_a else ("A" if in_b else "follower")
            assert label == expected, (
                "%s slice %d set %d: expected %s, got %s"
                % (uarch, slice_id, set_index, expected, label)
            )
