"""The benchmark's single command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {instr-sim,cache-seq,service-routed}
        --seed N --seconds S --trace {0,1}

Set-up is timed in fresh processes (one untimed warm-up invocation,
then the median of several).  Untimed warm-up ops follow, then a
closed-loop timed phase of at least ``--seconds`` and at least 200 ops.
Every op's output is checked.  With ``--trace 0`` the last line of
stdout reports the end-to-end metrics; with ``--trace 1`` the same ops
are run again with every layer wrapped (:mod:`tracer`) and the last line
reports the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    REFERENCE_KERNEL_SECONDS,
    Calibrator,
    load_reference,
    metric,
    peak_rss_mb,
    pin_to_one_cpu,
    run_phase,
    run_record,
)
from tracer import Tracer  # noqa: E402

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("core.create_ms", "ms/op"),
    ("core.run_self_ms", "ms/op"),
    ("codegen.assemble_ms", "ms/op"),
    ("codegen.generate_ms", "ms/op"),
    ("codegen.hit_ratio", "ratio"),
    ("integrity.preflight_ms", "ms/op"),
    ("uarch.run_program_self_ms", "ms/op"),
    ("uarch.schedule_ms", "ms/op"),
    ("x86.execute_ms", "ms/op"),
    ("uarch.host_ns_per_instr", "ns"),
    ("uarch.instructions", "count/op"),
    ("uarch.fast_path_share", "ratio"),
    ("uarch.fallbacks", "count/op"),
    ("batch.overhead_ms", "ms/op"),
    ("batch.execute_ms", "ms/op"),
    ("memory.access_ms", "ms/op"),
    ("memory.accesses", "count/op"),
    ("memory.host_ns_per_access", "ns"),
    ("memory.wbinvd_ms", "ms/op"),
    ("memory.translate_ms", "ms/op"),
    ("tools.cache.plan_ms", "ms/op"),
    ("tools.cache.self_ms", "ms/op"),
    ("tools.cache.l1_hits", "count/op"),
    ("tools.cache.l1_misses", "count/op"),
    ("tools.cache.l2_hits", "count/op"),
    ("tools.cache.l2_misses", "count/op"),
    ("tools.cache.l3_hits", "count/op"),
    ("tools.cache.l3_misses", "count/op"),
    ("server.submit_ms", "ms/op"),
    ("server.journal_append_ms", "ms/op"),
    ("queue.wait_ms", "ms/op"),
    ("store.get_ms", "ms/op"),
    ("store.hit_ratio", "ratio"),
    ("store.put_ms", "ms/op"),
    ("router.analytic_share", "ratio"),
    ("router.sim_share", "ratio"),
    ("router.audits", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
)

#: Span self times that map one-to-one onto a per-layer ``*_ms`` metric.
SELF_MS = {
    "core.create": "core.create_ms",
    "core.run": "core.run_self_ms",
    "codegen.assemble": "codegen.assemble_ms",
    "codegen.generate": "codegen.generate_ms",
    "integrity.preflight": "integrity.preflight_ms",
    "uarch.run_program": "uarch.run_program_self_ms",
    "uarch.schedule": "uarch.schedule_ms",
    "x86.execute": "x86.execute_ms",
    "memory.access": "memory.access_ms",
    "memory.wbinvd": "memory.wbinvd_ms",
    "memory.translate": "memory.translate_ms",
    "tools.cache.plan": "tools.cache.plan_ms",
    "tools.cache": "tools.cache.self_ms",
    "server.journal_append": "server.journal_append_ms",
    "queue.wait": "queue.wait_ms",
    "store.get": "store.get_ms",
    "store.put": "store.put_ms",
}


def workload(name: str, seed: int):
    from cache_seq import CacheSeqWorkload
    from instr_sim import InstrSim
    from service import ServiceRouted

    classes = {cls.name: cls for cls in (InstrSim, CacheSeqWorkload,
                                         ServiceRouted)}
    return classes[name](seed, load_reference())


def layer_metrics(totals, phase, counts, overhead) -> dict:
    """Per-layer metrics from span totals over the traced phase.

    Span totals are raw seconds; like the end-to-end times they are
    reported at the reference host speed, scaled by the phase's ratio
    of reference to raw op time.
    """
    n = phase.ops
    wall = sum(phase.latencies)
    scale = sum(phase.reference_latencies) / wall
    values = {name: 0.0 for name, _ in PER_LAYER}

    def inclusive(span):
        return totals.get(span, [0, 0.0, 0.0])[1] * scale

    for span, name in SELF_MS.items():
        if span in totals:
            values[name] = 1000.0 * totals[span][2] * scale / n
    values["batch.execute_ms"] = 1000.0 * inclusive("batch.execute") / n
    if "batch.execute" in totals and "server.journal_append" not in totals:
        # In-process sweep: the inter-yield gap minus spec execution.
        values["batch.overhead_ms"] = \
            1000.0 * (wall * scale - inclusive("batch.execute")) / n
    accesses = totals.get("memory.access", [0, 0.0, 0.0])[0]
    values["memory.accesses"] = accesses / n
    if accesses:
        values["memory.host_ns_per_access"] = \
            1e9 * inclusive("memory.access") / accesses
    values.update(counts)
    instructions = values["uarch.instructions"] * n
    if instructions:
        values["uarch.host_ns_per_instr"] = \
            1e9 * inclusive("uarch.run_program") / instructions
    # Share of op time inside named layers.  For service-routed these
    # are server-side spans set against the client's submit -> done.
    attributed = sum(values[name] for name in SELF_MS.values()) \
        + values["batch.overhead_ms"]
    values["trace.coverage"] = attributed * n / (1000.0 * wall * scale)
    values["trace.overhead_pct"] = overhead
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("instr-sim", "cache-seq", "service-routed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=13.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print("error: %s not found; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = workload(args.workload, args.seed)
    if args.setup_probe:
        bench.setup()
        print("ready", flush=True)
        return 0

    cpu = pin_to_one_cpu()
    calibrator = Calibrator()
    setup_s, setup_samples = bench.measure_setup(calibrator)
    bench.setup()
    in_process = bench.in_process
    try:
        warm = list(bench.warm_up())
        bench.reset()
        audits = 0 if in_process else bench.router_audits()
        wait_of = bench.wait_of
        phase = run_phase(bench.rounds(), calibrator, seconds=args.seconds,
                          wait_of=wait_of)
        if not in_process:
            audits = bench.router_audits() - audits
        checked = bench.check(phase.outputs)
        failed = checked["failed"] + bench.check(warm, shipped=False)["failed"]
        attempted = len(warm) + phase.ops

        if args.trace:
            tracer = Tracer()
            if in_process:
                tracer.install()
            else:
                bench.restart(trace=True)
            try:
                list(bench.warm_up())
                bench.reset()
                if in_process:
                    tracer.reset()
                else:
                    bench.server.proc.send_signal(signal.SIGUSR1)
                    time.sleep(0.2)
                traced = run_phase(bench.rounds(), calibrator,
                                   n_ops=phase.ops, wait_of=wait_of)
            finally:
                if in_process:
                    tracer.uninstall()
            totals = tracer.totals() if in_process \
                else bench.stop()["spans"]
            # The traced re-run must reproduce every output exactly.
            mismatched = sum(
                bench.output_key(a) != bench.output_key(b)
                for a, b in zip(phase.outputs, traced.outputs))
            failed += mismatched
            counts = bench.per_op_counts(traced.outputs)
            counts["router.audits"] = float(audits)
            # Same ops on both sides (a capped traced phase may be shorter).
            overhead = 100.0 * (
                sum(traced.reference_latencies)
                / sum(phase.reference_latencies[:traced.ops]) - 1)
            metrics = layer_metrics(totals, traced, counts, overhead)
        else:
            if in_process:
                rss = peak_rss_mb()
            else:
                rss = bench.stop()["peak_rss_kb"] / 1024.0
            metrics = {"setup_s": metric(setup_s, "s")}
            for name, value in phase.end_to_end().items():
                unit = "1/s" if name.startswith("throughput") else "ms"
                metrics[name] = metric(value, unit)
            metrics["peak_rss_mb"] = metric(rss, "MB")
    finally:
        if not in_process and bench.server is not None:
            bench.stop()

    config = bench.config()
    samples = sorted(calibrator.samples)
    config.update(
        seconds=args.seconds, cpu=cpu, warm_up_ops=len(warm),
        timed_ops=phase.ops, unchecked_ops=checked["unchecked"],
        raw_setup_samples_s=setup_samples,
        raw_end_to_end=phase.end_to_end(raw=True),
        calibration_kernel_s={"reference": REFERENCE_KERNEL_SECONDS,
                              "min": samples[0], "max": samples[-1],
                              "median": samples[len(samples) // 2],
                              "samples": len(samples)})
    print("# run record: " + json.dumps(
        run_record(args.workload, args.seed, bool(args.trace), config)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
