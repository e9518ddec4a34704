"""A10 — router throughput: the tiered ``auto`` backend vs exact-sim-
only on the E6-style instruction-characterization workload.

The router's acceptance claim is quantitative: on a realistic query
mix (the four specs per corpus variant the E6 sweep runs — latency,
throughput, µops, port usage), at least **70 %** of queries must be
answered cheaper than the exact simulator — by the analytic tier or the
fast-path simulator, not by a failed audit's reference run — the
end-to-end wall time must be at least **5×** faster than running
everything on the exact simulator, and the continuous audit sample must
contain **zero silent tolerance violations** — every audited answer
either matched the simulator within tolerance or *is* the simulator's
answer (the router substitutes the reference on a failed audit; that
substitution is re-verified here against fresh exact runs).
"""

import os
import time

from repro.batch import BatchRunner
from repro.core.nanobench import NanoBench
from repro.tools.instr import corpus_for_family
from repro.tools.instr.measure import variant_specs

from conftest import run_once

#: Acceptance floors (the PR's quantitative claims).
MIN_CHEAP_FRACTION = 0.70
MIN_SPEEDUP = 5.0

#: Analytic answers are audited against the simulator with the default
#: policy's 1/64 sample, exercised as-is.


def _corpus_specs(backend):
    corpus = [
        variant for variant in corpus_for_family("SKL")
        if not variant.kernel_only
    ]
    specs = []
    for variant in corpus:
        specs.extend(variant_specs(variant, seed=1, backend=backend))
    return specs


def _sweep(specs):
    # Both sweeps run in-process (jobs=1): like-for-like, and the
    # worker-pool spawn cost (~seconds of interpreter startup) would
    # otherwise dominate the routed sweep's sub-second working time
    # while vanishing into the exact sweep's tens of seconds.
    runner = BatchRunner(1)
    started = time.perf_counter()
    results = runner.run(specs)
    return results, time.perf_counter() - started


def test_a10_router_throughput(benchmark, report):
    auto_specs = _corpus_specs("auto")
    exact_specs = _corpus_specs("sim")

    def experiment():
        routed, routed_seconds = _sweep(auto_specs)
        # Exact-sim-only baseline: the same sweep with the steady-state
        # fast path disabled (workers inherit the toggle via the env).
        os.environ["NANOBENCH_FAST_PATH"] = "0"
        try:
            exact, exact_seconds = _sweep(exact_specs)
        finally:
            os.environ.pop("NANOBENCH_FAST_PATH", None)
        return routed, routed_seconds, exact, exact_seconds

    routed, routed_seconds, exact, exact_seconds = \
        run_once(benchmark, experiment)

    assert all(result.ok for result in routed)
    assert all(result.ok for result in exact)

    tiers = {}
    for result in routed:
        tiers[result.served_by] = tiers.get(result.served_by, 0) + 1
    total = len(routed)
    audited = [r for r in routed if r.router_audited]
    failed = [r for r in audited if r.router_audit_failed]
    # A failed audit is served by the simulator's reference run on top
    # of the analytic one, so it does not count as a cheap answer.
    cheap = tiers.get("analytic", 0) + tiers.get("sim", 0) - len(failed)
    cheap_fraction = cheap / total
    speedup = exact_seconds / routed_seconds

    # No silent violations: a failed audit must have substituted the
    # simulator's answer — re-verify each against a fresh exact-sim run.
    for result in failed:
        nb = NanoBench.create(result.spec.uarch, result.spec.seed,
                              kernel_mode=result.spec.kernel_mode,
                              backend="sim")
        nb.core.fast_path_enabled = False
        reference = dict(nb.run(result.spec.asm, result.spec.asm_init,
                                events=result.spec.events,
                                **result.spec.option_dict()))
        assert result.values == reference, result.spec.label

    lines = [
        "queries: %d  (4 specs x %d corpus variants)"
        % (total, total // 4),
        "served by tier:",
    ]
    for tier in ("analytic", "sim"):
        count = tiers.get(tier, 0)
        lines.append("  %-9s %4d  (%5.1f%%)"
                     % (tier, count, 100.0 * count / total))
    lines += [
        "cheaper-than-exact fraction: %.1f%%  (floor %.0f%%)"
        % (100.0 * cheap_fraction, 100.0 * MIN_CHEAP_FRACTION),
        "audited: %d  (%.1f%% of routed; audit failures: %d, all "
        "substituted with simulator values)"
        % (len(audited), 100.0 * len(audited) / total, len(failed)),
        "wall time: routed %.2f s vs exact-sim-only %.2f s  "
        "(speedup %.1fx, floor %.0fx)"
        % (routed_seconds, exact_seconds, speedup, MIN_SPEEDUP),
    ]
    report("A10_router_throughput", "\n".join(lines))

    assert cheap_fraction >= MIN_CHEAP_FRACTION, (
        "only %.1f%% of queries served below the exact simulator"
        % (100.0 * cheap_fraction)
    )
    assert speedup >= MIN_SPEEDUP, (
        "routed sweep only %.1fx faster than exact-sim-only" % speedup
    )
