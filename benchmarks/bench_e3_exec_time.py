"""E3 — Section III-K: execution time of nanoBench itself.

"As an example, we consider a benchmark consisting of a single NOP
instruction, that is run with unrollCount = 100, loopCount = 0,
nMeasurements = 10, and a configuration file with four events.  On an
Intel Core i7-8700K, running nanoBench with these parameters takes
about 15 ms for the kernel version ..., and about 50 ms for the
user-space version."

The reproduced shape: the kernel version is ~3x cheaper per invocation
than the user-space version, both in the tens-of-milliseconds range
(modelled wall time).  The host time of the simulation is printed, not
written to the results file, which stays byte-identical across runs.
"""

import pytest

from repro.core.nanobench import NanoBench

from conftest import run_once

_EVENTS = [
    "UOPS_ISSUED.ANY",
    "UOPS_DISPATCHED_PORT.PORT_0",
    "UOPS_DISPATCHED_PORT.PORT_1",
    "BR_INST_RETIRED.ALL_BRANCHES",
]


def _run_nop(nb):
    return nb.run(asm="nop", unroll_count=100, loop_count=0,
                  n_measurements=10, events=_EVENTS)


def test_e3_execution_time(benchmark, report):
    # The paper's machine for this experiment is the Coffee Lake
    # i7-8700K.
    nb_kernel = NanoBench.kernel("CoffeeLake", seed=0)
    nb_user = NanoBench.user("CoffeeLake", seed=0)

    def experiment():
        _run_nop(nb_kernel)
        kernel_report = nb_kernel.last_report
        _run_nop(nb_user)
        user_report = nb_user.last_report
        freq = nb_kernel.core.spec.frequency_ghz
        return {
            "kernel_ms": kernel_report.wall_time_ms(True, freq),
            "user_ms": user_report.wall_time_ms(False, freq),
            "kernel_host_s": kernel_report.host_seconds,
            "user_host_s": user_report.host_seconds,
            "kernel_runs": kernel_report.program_runs,
            "user_runs": user_report.program_runs,
        }

    rows = run_once(benchmark, experiment)

    report("E3_exec_time", "\n".join([
        "variant   paper     modelled   (program runs)",
        "kernel    ~15 ms    %5.1f ms   (%d runs)"
        % (rows["kernel_ms"], rows["kernel_runs"]),
        "user      ~50 ms    %5.1f ms   (%d runs)"
        % (rows["user_ms"], rows["user_runs"]),
    ]))
    print("host seconds simulated: kernel %.2f s, user %.2f s"
          % (rows["kernel_host_s"], rows["user_host_s"]))

    assert 10 <= rows["kernel_ms"] <= 25       # ~15 ms
    assert 35 <= rows["user_ms"] <= 70         # ~50 ms
    assert rows["user_ms"] > 2 * rows["kernel_ms"]
