"""A5 — Simulator throughput: the fast path.

The instruction-characterization sweeps (Section V) spend nearly all
of their host time simulating the unrolled benchmark body.  The
simulator's fast path has two parts, both byte-identical to exact
simulation:

* the clean-body semantics skip: every copy of a body without memory
  operands, branches, fences or value-dependent faults is scheduled
  exactly, but its functional semantics run in the first copy only
  (``repro.uarch.core._is_clean``);
* run-level replay: in kernel mode, once a run leaves the machine state
  as it found it, the later runs of the same program are redone from a
  record instead of simulated (``SimulatedCore.replay_run``).

This benchmark drives a corpus-style sweep twice — fast path enabled
and disabled — both serially and through the batch engine, and
reports dynamic simulated instructions per host second for each
configuration, plus the fraction of instructions scheduled without
their semantics (replayed runs count what their recorded run did).
Besides the human-readable report it writes
``benchmarks/results/BENCH_a5.json`` for the CI perf-smoke artifact.

Checked properties:

* every counter value of the sweep is **byte-identical** with the
  fast path on and off (the soundness contract of both parts);
* with the fast path on, the sweep simulates >= 2x as many
  instructions per host second.
"""

import json
import os
import time

from repro.batch import BatchRunner, spec_from_run_kwargs

from conftest import NB_JOBS, RESULTS_DIR, run_once

#: Corpus-shaped workload: throughput/latency kernels dominated by the
#: unrolled body (large unroll counts), swept over seeds.
_KERNELS = [
    ("add RAX, RAX", ""),
    ("add RAX, RBX; add RBX, RCX", ""),
    ("imul RAX, RAX", ""),
    ("imul RAX, RBX", ""),
    ("shl RAX, 7", ""),
    ("lea RAX, [RBX + 8*RCX]", ""),
    ("xor RAX, RAX; add RBX, RCX", ""),
    ("nop; nop; nop; nop", ""),
]
_N_SEEDS = 4


def _build_specs():
    specs = []
    for seed in range(_N_SEEDS):
        for asm, asm_init in _KERNELS:
            specs.append(spec_from_run_kwargs(
                asm=asm, asm_init=asm_init, seed=seed,
                unroll_count=500, n_measurements=5, aggregate="med",
            ))
    return specs


def _sweep(specs, jobs, fast_path):
    os.environ["NANOBENCH_FAST_PATH"] = "1" if fast_path else "0"
    try:
        runner = BatchRunner(jobs=jobs)
        started = time.perf_counter()
        results = runner.run(specs)
        seconds = time.perf_counter() - started
    finally:
        os.environ.pop("NANOBENCH_FAST_PATH", None)
    return results, seconds, runner.last_report


def test_a5_sim_throughput(benchmark, report):
    specs = _build_specs()
    jobs = max(2, NB_JOBS)

    def experiment():
        return {
            "serial_fast": _sweep(specs, 1, True),
            "serial_exact": _sweep(specs, 1, False),
            "batched_fast": _sweep(specs, jobs, True),
            "batched_exact": _sweep(specs, jobs, False),
        }

    sweeps = run_once(benchmark, experiment)

    lines = [
        "%d benchmark specs (%d kernels x %d seeds, unroll 500), "
        "host CPUs: %s"
        % (len(specs), len(_KERNELS), _N_SEEDS, os.cpu_count()),
    ]
    stats = {}
    for name in ("serial_fast", "serial_exact",
                 "batched_fast", "batched_exact"):
        results, seconds, batch_report = sweeps[name]
        instructions = batch_report.sim_instructions
        rate = instructions / seconds if seconds > 0 else 0.0
        skipped = batch_report.fast_path_instructions
        stats[name] = {
            "seconds": round(seconds, 3),
            "sim_instructions": instructions,
            "instructions_per_second": round(rate),
            "fast_path_instructions": skipped,
            "fast_path_fraction": (
                round(skipped / instructions, 3) if instructions else 0.0
            ),
            "fallbacks": batch_report.fast_path_fallbacks,
        }
        lines.append(
            "%-14s %6.2f s  %9d instr  %9.0f instr/s  "
            "semantics skipped %5.1f%%  fallbacks %d"
            % (name, seconds, instructions, rate,
               100.0 * stats[name]["fast_path_fraction"],
               batch_report.fast_path_fallbacks)
        )

    serial_speedup = (stats["serial_fast"]["instructions_per_second"]
                      / max(1, stats["serial_exact"]["instructions_per_second"]))
    batched_speedup = (stats["batched_fast"]["instructions_per_second"]
                       / max(1, stats["batched_exact"]["instructions_per_second"]))
    identical = (
        [r.values for r in sweeps["serial_fast"][0]]
        == [r.values for r in sweeps["serial_exact"][0]]
        == [r.values for r in sweeps["batched_fast"][0]]
        == [r.values for r in sweeps["batched_exact"][0]]
    )
    lines.append("serial speedup:  %.2fx" % serial_speedup)
    lines.append("batched speedup: %.2fx" % batched_speedup)
    lines.append("results byte-identical: %s" % identical)
    report("A5_sim_throughput", "\n".join(lines))

    stats["serial_speedup"] = round(serial_speedup, 2)
    stats["batched_speedup"] = round(batched_speedup, 2)
    stats["byte_identical"] = identical
    with open(os.path.join(RESULTS_DIR, "BENCH_a5.json"), "w") as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Soundness contract: the fast path never changes a single value.
    assert identical
    assert all(r.ok for r in sweeps["serial_fast"][0])

    # The semantics skip must cover the bulk of the unrolled copies,
    # and the fast path at least double simulated-instruction
    # throughput.
    assert stats["serial_fast"]["fast_path_fraction"] >= 0.5
    assert serial_speedup >= 2.0, (
        "expected >= 2x simulated instructions/s with the fast path, "
        "got %.2fx" % serial_speedup
    )
