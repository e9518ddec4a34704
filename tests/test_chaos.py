"""Chaos suite: the measurement pipeline self-heals under injected
faults and still produces results byte-identical to a fault-free run.

This is the acceptance surface of the fault-injection plane:

* the E1/E4 golden figures are reproduced exactly under every fault
  class at its default (chaos) rate;
* injected worker deaths and spec hangs are recovered via requeue and
  per-spec timeouts;
* a killed-then-resumed batch completes from its result store,
  byte-identical to an uninterrupted run;
* the min/median aggregates provably recover the true value under
  < 50 % contamination (hypothesis property test).
"""

import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchRunner, BenchmarkSpec, ResilientPool
from repro.core.codecache import cache_stats, cached_assemble, clear_caches
from repro.core.nanobench import NanoBench
from repro.core.retry import TRANSIENT_ATTEMPTS, TransientRetryWarning
from repro.core.runner import aggregate_values
from repro.errors import AllocationError, InjectedFaultError
from repro.faults.plan import FaultPlan
from repro.kernel.module import KernelModule
from repro.perfctr.config import example_skylake_config
from repro.store import ACTIVE_NAME, ResultStore

pytestmark = pytest.mark.tier2


def _e1_run(**overrides):
    nb = NanoBench.kernel(uarch="Skylake", seed=0)
    values = nb.run(
        asm="mov R14, [R14]",
        asm_init="mov [R14], R14",
        config=example_skylake_config(),
        **overrides,
    )
    return values, nb.last_report


SPECS = [
    BenchmarkSpec(asm="mov R14, [R14]", asm_init="mov [R14], R14",
                  label="load"),
    BenchmarkSpec(asm="add RAX, RAX", label="add"),
    BenchmarkSpec(asm="add RAX, RAX", label="add-med",
                  options=(("aggregate", "med"),)),
    BenchmarkSpec(asm="nop", label="nop"),
    BenchmarkSpec(asm="imul RAX, RBX", label="imul", seed=1),
    BenchmarkSpec(asm="cpuid", asm_init="xor RAX, RAX", label="cpuid",
                  options=(("unroll_count", 10),)),
]


def _values(results):
    # tuple(items()) — not the dict — so counter *order* must match
    # too: reports print values in measurement order, and a replayed
    # or requeued result reordering them would not be byte-identical.
    return [(tuple(r.values.items()), r.error) for r in results]




#: Counters derived from the ratio-scaled reference clock.  Their raw
#: reads floor-quantize ``cycles * reference_clock_ratio``, so a healed
#: (discarded and re-run) measurement — which advances simulated time,
#: exactly like a re-run on real hardware — can land on a different
#: quantization phase and shift the per-run delta by one reference
#: tick.  Discards only happen for frequency-transition contamination
#: (counter wraps are recovered losslessly instead); every other
#: counter stays byte-identical, and these two are held to the
#: golden-file precision in the discarding tests.
QUANTIZED_COUNTERS = ("Reference cycles", "MPERF")


def _assert_equivalent(chaotic, baseline, context=""):
    assert list(chaotic) == list(baseline), context
    for name, base in baseline.items():
        if name in QUANTIZED_COUNTERS:
            assert round(chaotic[name], 2) == round(base, 2), \
                "%s %s" % (name, context)
        else:
            assert chaotic[name] == base, "%s %s" % (name, context)


class TestChaosGoldenEquivalence:
    """E1/E4-style figures are exact under every fault class."""

    def test_e1_is_byte_identical_under_full_chaos(self):
        baseline, _ = _e1_run()
        for plan_seed in range(5):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with FaultPlan.chaos(seed=plan_seed):
                    chaotic, _ = _e1_run()
            assert chaotic == baseline, "plan seed %d" % plan_seed

    def test_e1_survives_elevated_rates_with_visible_healing(self):
        baseline, _ = _e1_run()
        healed = 0
        for plan_seed in range(4):
            plan = FaultPlan(rates={
                "kernel.alloc": 0.2,
                "counter.overflow": 0.05,
                "freq.transition": 0.2,
            }, seed=plan_seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with plan:
                    chaotic, report = _e1_run()
            assert chaotic == baseline, "plan seed %d" % plan_seed
            healed += (report.retries + report.discarded_runs
                       + report.corrected_wraps)
        assert healed > 0, "elevated rates never injected anything"

    def test_e4_serialization_figures_under_chaos(self):
        def series():
            values = []
            for seed in range(4):
                nb = NanoBench.kernel("Skylake", seed=seed)
                values.append(nb.run(
                    asm="add RAX, RAX", serializer="cpuid", aggregate="min"
                )["Core cycles"])
            return values

        baseline = series()
        for plan_seed in range(3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with FaultPlan.chaos(seed=plan_seed):
                    assert series() == baseline, "plan seed %d" % plan_seed

    def test_counter_wraps_are_recovered_losslessly(self):
        baseline, _ = _e1_run(n_measurements=20)
        plan = FaultPlan(rates={"counter.overflow": 0.02}, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with plan:
                chaotic, report = _e1_run(n_measurements=20)
        assert chaotic == baseline
        assert report.corrected_wraps > 0
        assert report.discarded_runs == 0

    def test_frequency_transitions_detected_via_aperf_mperf(self):
        def run(plan_active):
            nb = NanoBench.kernel("Skylake", seed=0)
            values = nb.run(asm="add RAX, RAX", aperf_mperf=True,
                            n_measurements=12)
            return values, nb.last_report

        baseline, _ = run(False)
        plan = FaultPlan(rates={"freq.transition": 0.3}, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with plan:
                chaotic, report = run(True)
        _assert_equivalent(chaotic, baseline)
        assert report.discarded_runs > 0

    def test_alloc_failures_are_retried(self):
        baseline, _ = _e1_run()
        # Find a plan seed whose first kernel.alloc key fires, so the
        # retry path is exercised deterministically.
        plan = None
        for seed in range(64):
            candidate = FaultPlan(rates={"kernel.alloc": 0.3}, seed=seed)
            if candidate.fires("kernel.alloc", "nb#0"):
                plan = FaultPlan(rates={"kernel.alloc": 0.3}, seed=seed)
                break
        assert plan is not None
        with pytest.warns(UserWarning):
            with plan:
                chaotic, report = _e1_run()
        assert chaotic == baseline
        assert report.retries > 0

    def test_retries_exhausted_raises_transient(self):
        plan = FaultPlan(rates={"kernel.alloc": 1.0}, seed=0)
        nb = NanoBench.kernel("Skylake", seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with plan, pytest.raises(AllocationError):
                nb.run(asm="nop")
        # One warning per absorbed failure, then the last one raises.
        retried = [w for w in caught
                   if issubclass(w.category, TransientRetryWarning)]
        assert len(retried) == TRANSIENT_ATTEMPTS - 1


class TestChaosBatchDifferential:
    """Chaos-mode batch == fault-free serial, byte for byte."""

    def test_parallel_chaos_equals_serial_fault_free(self):
        baseline = BatchRunner(jobs=1).run(SPECS)
        runner = BatchRunner(jobs=3, spec_timeout=5.0, max_requeues=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with FaultPlan.chaos(seed=3, scale=4.0):
                chaotic = runner.run(SPECS)
        assert _values(chaotic) == _values(baseline)
        report = runner.last_report
        assert report.n_worker_deaths + report.n_timeouts \
            + report.n_requeues > 0, "chaos never disturbed the pool"

    def test_serial_chaos_equals_serial_fault_free(self):
        baseline = BatchRunner(jobs=1).run(SPECS)
        runner = BatchRunner(jobs=1, max_requeues=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with FaultPlan.chaos(seed=3, scale=4.0):
                chaotic = runner.run(SPECS)
        assert _values(chaotic) == _values(baseline)

    def test_worker_death_recovered_by_requeue(self):
        baseline = BatchRunner(jobs=1).run(SPECS)
        plan = FaultPlan(rates={"worker.death": 0.4}, seed=0)
        runner = BatchRunner(jobs=2, max_requeues=4)
        with plan:
            results = runner.run(SPECS)
        assert _values(results) == _values(baseline)
        assert runner.last_report.n_worker_deaths > 0
        assert all(r.ok for r in results)

    def test_hang_recovered_by_timeout_and_requeue(self):
        baseline = BatchRunner(jobs=1).run(SPECS)
        plan = FaultPlan(rates={"worker.hang": 0.4}, seed=1)
        runner = BatchRunner(jobs=2, spec_timeout=2.0, max_requeues=5)
        with plan:
            results = runner.run(SPECS)
        assert _values(results) == _values(baseline)
        assert runner.last_report.n_timeouts > 0
        assert all(r.ok for r in results)

    def test_unrecoverable_hang_reports_timeout(self):
        plan = FaultPlan(rates={"worker.hang": 1.0}, seed=0)
        runner = BatchRunner(jobs=2, spec_timeout=0.5, max_requeues=1)
        with plan:
            results = runner.run(SPECS[:2])
        assert all(not r.ok for r in results)
        assert all("timeout" in r.error for r in results)
        assert all(r.attempts == 2 for r in results)

    def test_injected_spec_errors_are_requeued_consistently(self):
        baseline = BatchRunner(jobs=1).run(SPECS)
        for jobs in (1, 3):
            plan = FaultPlan(rates={"spec.error": 0.4}, seed=2)
            runner = BatchRunner(jobs=jobs, max_requeues=4)
            with plan:
                results = runner.run(SPECS)
            assert _values(results) == _values(baseline), "jobs=%d" % jobs


class TestCheckpointResume:
    """A sweep interrupted mid-stream resumes from its result store."""

    def test_killed_then_resumed_batch_is_byte_identical(self, tmp_path):
        root = os.fspath(tmp_path / "sweep.store")
        baseline = BatchRunner(jobs=1).run(SPECS)

        # "Kill" the sweep after three results.
        runner = BatchRunner(jobs=1, store=root)
        stream = runner.iter_results(SPECS)
        for _ in range(3):
            next(stream)
        stream.close()
        with ResultStore(root) as store:
            assert len(store) == 3

        resumed_runner = BatchRunner(jobs=2, store=root)
        resumed = resumed_runner.run(SPECS)
        assert _values(resumed) == _values(baseline)
        assert resumed_runner.last_report.n_store_hits == 3
        assert [r.replayed for r in resumed] == [True] * 3 + [False] * 3

    def test_resume_under_chaos_is_byte_identical(self, tmp_path):
        root = os.fspath(tmp_path / "sweep.store")
        baseline = BatchRunner(jobs=1).run(SPECS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with FaultPlan.chaos(seed=5, scale=2.0):
                runner = BatchRunner(jobs=2, store=root,
                                     spec_timeout=5.0, max_requeues=4)
                stream = runner.iter_results(SPECS)
                for _ in range(2):
                    next(stream)
                stream.close()
                resumed = BatchRunner(jobs=2, store=root,
                                      spec_timeout=5.0,
                                      max_requeues=4).run(SPECS)
        assert _values(resumed) == _values(baseline)
        assert [r.replayed for r in resumed[:2]] == [True, True]

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        root = os.fspath(tmp_path / "sweep.store")
        BatchRunner(jobs=1, store=root).run(SPECS[:2])
        with open(os.path.join(root, ACTIVE_NAME), "a") as handle:
            handle.write('{"digest": "truncated mid-wr')
        resumed_runner = BatchRunner(jobs=1, store=root)
        resumed_runner.run(SPECS[:2])
        assert resumed_runner.last_report.n_store_hits == 2


class TestParallelMapCapture:
    """The pool captures per-item failures, in-process and in workers."""

    def test_capture_isolates_failing_item(self):
        outcomes = list(
            ResilientPool(_fail_on_three, 1).imap_ordered([1, 2, 3, 4])
        )
        assert [o.ok for o in outcomes] == [True, True, False, True]
        assert [o.value for o in outcomes if o.ok] == [2, 4, 8]
        assert outcomes[2].error_type == "ValueError"
        assert outcomes[2].error == "item 3 is broken"

    def test_capture_isolates_failing_item_in_pool(self):
        outcomes = list(
            ResilientPool(_fail_on_three, 2).imap_ordered([1, 2, 3, 4])
        )
        assert [o.ok for o in outcomes] == [True, True, False, True]
        assert outcomes[2].error_type == "ValueError"

    def test_transient_errors_retried_before_capture(self):
        items = list(range(10))
        baseline = list(ResilientPool(_double, 1).imap_ordered(items))
        with FaultPlan(rates={"spec.error": 0.5}, seed=0):
            healed = {
                jobs: list(ResilientPool(_double, jobs, max_requeues=5)
                           .imap_ordered(items))
                for jobs in (1, 2)
            }
        for outcomes in healed.values():
            assert [o.value for o in outcomes] == \
                [o.value for o in baseline]
        attempts = [o.attempts for o in healed[1]]
        assert max(attempts) > 1
        # Same faults, same retries, for any worker count.
        assert [o.attempts for o in healed[2]] == attempts

    def test_survey_cpus_omits_failing_cpu(self):
        from repro.tools.cache import survey_cpus

        with pytest.warns(UserWarning, match="omitting"):
            surveys = survey_cpus(["NoSuchCPU"], jobs=1)
        assert surveys == {}


class TestKernelModuleRebootHealing:
    def test_alloc_failure_heals_via_reboot(self):
        plan = None
        for seed in range(64):
            candidate = FaultPlan(rates={"kernel.alloc": 0.5}, seed=seed)
            if candidate.fires("kernel.alloc", "module:r14#1"):
                plan = FaultPlan(rates={"kernel.alloc": 0.5}, seed=seed)
                break
        assert plan is not None
        module = KernelModule("Skylake")
        with pytest.warns(UserWarning, match="rebooting"):
            with plan:
                module.write_file("/sys/nb/r14_size", 1 << 20)
        assert module.reboots > 0
        assert module.nanobench.r14_size == 1 << 20
        # The rebooted machine still measures.
        module.write_file("/sys/nb/asm", "add RAX, RAX")
        assert "Core cycles" in module.read_file("/proc/nanoBench")

    def test_alloc_retries_exhaust(self):
        plan = FaultPlan(rates={"kernel.alloc": 1.0}, seed=0)
        module = KernelModule("Skylake")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with plan, pytest.raises(AllocationError):
                module.write_file("/sys/nb/r14_size", 1 << 20)


class TestCacheCorruptionRepair:
    def test_corrupted_entry_is_rebuilt(self):
        clear_caches()
        try:
            source = "add RAX, 42"
            first = cached_assemble(source)
            plan = FaultPlan(rates={"cache.corrupt": 1.0}, seed=0)
            with plan:
                repaired = cached_assemble(source)
            assert str(repaired) == str(first)
            stats = cache_stats()["assemble"]
            assert stats["repairs"] == 1
            # The repaired entry serves clean hits again.
            again = cached_assemble(source)
            assert str(again) == str(first)
        finally:
            clear_caches()

    def test_chaos_run_with_corruption_is_byte_identical(self):
        baseline, _ = _e1_run()
        plan = FaultPlan(rates={"cache.corrupt": 0.5}, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with plan:
                chaotic, _ = _e1_run()
        assert chaotic == baseline


class TestAggregateContaminationProperty:
    """Section III-C: min/median reject interference that inflates
    fewer than half of the runs."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 31), st.data())
    def test_min_and_median_recover_true_value(self, n, data):
        true_value = data.draw(st.floats(
            min_value=0.0, max_value=1e9,
            allow_nan=False, allow_infinity=False,
        ))
        n_contaminated = data.draw(st.integers(0, (n - 1) // 2))
        inflation = data.draw(st.lists(
            st.floats(min_value=1e-3, max_value=1e12),
            min_size=n_contaminated, max_size=n_contaminated,
        ))
        values = [true_value] * (n - n_contaminated) \
            + [true_value + extra for extra in inflation]
        rng = data.draw(st.randoms(use_true_random=False))
        rng.shuffle(values)
        assert aggregate_values(values, "min") == true_value
        assert aggregate_values(values, "med") == true_value

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 20), st.floats(min_value=1.0, max_value=1e6))
    def test_majority_contamination_defeats_median(self, n, true_value):
        # Sanity check of the bound: with >= 50 % contamination the
        # median is no longer guaranteed to recover the true value.
        values = [true_value] * n + [true_value + 100.0] * (n + 1)
        assert aggregate_values(values, "med") != true_value


def _double(x):
    return 2 * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("item 3 is broken")
    return 2 * x
