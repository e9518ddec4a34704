"""Unit tests for the batch execution engine and the codegen caches."""

from collections import OrderedDict

import pytest

from repro.batch import (
    BatchRunner,
    BenchmarkSpec,
    ResilientPool,
    default_jobs,
    spec_from_run_kwargs,
)
from repro.core.codecache import (
    LRUCache,
    cache_stats,
    cached_assemble,
    cached_generate,
    clear_caches,
)
from repro.core.codegen import CounterRead
from repro.core.nanobench import NanoBench
from repro.core.options import NanoBenchOptions
from repro.core.runner import run_measurements
from repro.x86.assembler import assemble


# ----------------------------------------------------------------------
# BenchmarkSpec
# ----------------------------------------------------------------------
class TestBenchmarkSpec:
    def test_spec_is_hashable_and_frozen(self):
        spec = spec_from_run_kwargs(asm="nop", unroll_count=5)
        assert hash(spec)
        assert spec.option_dict() == {"unroll_count": 5}
        with pytest.raises(AttributeError):
            spec.asm = "add RAX, RAX"

    def test_core_key(self):
        spec = BenchmarkSpec(asm="nop", uarch="Haswell", seed=3,
                             kernel_mode=False)
        assert spec.core_key == ("sim", "Haswell", 3, False)

    def test_execute_captures_errors(self):
        result = BenchmarkSpec(asm="frobnicate RAX").execute()
        assert not result.ok
        assert "frobnicate" in result.error
        assert result.values == {}

    @pytest.mark.parametrize("options", [
        (("bogus", 1),),             # no such option
        (("unroll_count", "x"),),    # wrong value type
    ])
    def test_bad_options_are_an_error_result_on_both_paths(self, options):
        # execute() never raises, so the serial path and the pool return
        # the same error result, the spec's backend included.
        spec = BenchmarkSpec(asm="nop", options=options, backend="analytic")
        serial = spec.execute()
        (pooled,) = BatchRunner(1).run([spec])
        assert not serial.ok
        for result in (serial, pooled):
            # Wall time, and requeues after injected faults, may differ.
            result.host_seconds = 0.0
            result.attempts = 1
        assert pooled == serial
        assert serial.backend == "analytic"

    def test_execute_returns_values_and_accounting(self):
        result = spec_from_run_kwargs(asm="add RAX, RAX", seed=1).execute()
        assert result.ok
        assert result.values["Core cycles"] == pytest.approx(1.0, abs=0.02)
        assert result.program_runs > 0
        assert result.counter_groups == 1


# ----------------------------------------------------------------------
# BatchRunner
# ----------------------------------------------------------------------
class TestBatchRunner:
    def _specs(self, n=6):
        kernels = ["add RAX, RAX", "imul RAX, RBX", "shl RAX, 3"]
        return [
            spec_from_run_kwargs(asm=kernels[i % len(kernels)], seed=i,
                                 n_measurements=3)
            for i in range(n)
        ]

    def test_results_ordered_and_complete(self):
        specs = self._specs()
        results = BatchRunner(jobs=1).run(specs)
        assert len(results) == len(specs)
        assert [r.spec for r in results] == specs

    def test_parallel_identical_to_serial(self):
        specs = self._specs()
        serial = BatchRunner(jobs=1).run(specs)
        parallel = BatchRunner(jobs=2).run(specs)
        assert [r.values for r in serial] == [r.values for r in parallel]

    def test_progress_callback_streams_in_order(self):
        seen = []
        runner = BatchRunner(
            jobs=2, progress=lambda done, total, r: seen.append((done, total))
        )
        runner.run(self._specs(5))
        assert seen == [(i, 5) for i in range(1, 6)]

    def test_error_isolation(self):
        specs = [
            spec_from_run_kwargs(asm="add RAX, RAX", seed=0),
            spec_from_run_kwargs(asm="bogus RAX", seed=0),
            spec_from_run_kwargs(asm="imul RAX, RBX", seed=0),
        ]
        results = BatchRunner(jobs=2).run(specs)
        assert [r.ok for r in results] == [True, False, True]
        report_errors = [r.error for r in results if not r.ok]
        assert "bogus" in report_errors[0]

    def test_report_accounting(self):
        runner = BatchRunner(jobs=1)
        specs = self._specs(4)
        runner.run(specs)
        report = runner.last_report
        assert report.n_specs == 4
        assert report.n_errors == 0
        assert report.program_runs > 0
        assert report.host_seconds > 0
        assert report.benchmarks_per_second > 0

    def test_iter_results_streams(self):
        specs = self._specs(3)
        iterator = BatchRunner(jobs=1).iter_results(specs)
        first = next(iterator)
        assert first.spec == specs[0]
        assert len(list(iterator)) == 2

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1
        assert BatchRunner(jobs=None).jobs == default_jobs()


class TestParallelMap:
    """Ordered maps over :class:`ResilientPool`: one worker runs
    in-process, more shard over worker processes."""

    def test_preserves_order(self):
        items = list(range(20))
        outcomes = list(ResilientPool(str, 2).imap_ordered(items))
        assert [o.value for o in outcomes] == [str(i) for i in items]
        assert [o.index for o in outcomes] == items

    @pytest.mark.no_chaos
    def test_serial_equals_parallel(self):
        # Whole outcomes, attempts included: fault-free accounting.
        items = [3, 1, 4, 1, 5]
        assert list(ResilientPool(abs, 1).imap_ordered(items)) == \
            list(ResilientPool(abs, 2).imap_ordered(items))

    def test_serial_equals_parallel_results(self):
        # What a caller sees must agree even when injected faults
        # requeue items (which changes only their attempt counts).
        items = [3, 1, 4, 1, 5]

        def results(jobs):
            return [(o.index, o.ok, o.value, o.error)
                    for o in ResilientPool(abs, jobs).imap_ordered(items)]

        assert results(1) == results(2)

    def test_progress(self):
        seen = []

        def record(item):
            seen.append(item)
            return item

        stream = ResilientPool(record, 1).imap_ordered([1, 2, 3])
        # In-process outcomes stream: the second item has not run yet.
        assert next(stream).value == 1
        assert seen == [1]
        assert [(o.index, o.value) for o in stream] == [(1, 2), (2, 3)]
        assert seen == [1, 2, 3]


# ----------------------------------------------------------------------
# Codegen caches
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(4)
        assert cache.get_or_create("a", lambda: 1) == 1
        assert cache.get_or_create("a", lambda: 2) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_bounded_lru_eviction(self):
        cache = LRUCache(2)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        cache.get_or_create("a", lambda: 0)   # refresh a
        cache.get_or_create("c", lambda: 3)   # evicts b (LRU)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_rejects_invalid_size(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestCodegenCaches:
    def setup_method(self):
        clear_caches()

    def teardown_method(self):
        clear_caches()

    def test_cached_assemble_returns_same_program(self):
        first = cached_assemble("add RAX, RAX; nop")
        second = cached_assemble("add RAX, RAX; nop")
        assert first is second
        stats = cache_stats()["assemble"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cached_assemble_matches_assemble(self):
        source = "loop1: dec R15; jnz loop1"
        assert str(cached_assemble(source)) == str(assemble(source))

    def test_cached_generate_keyed_on_unroll(self):
        code = assemble("add RAX, RAX")
        init = assemble("")
        counters = (CounterRead("Core cycles", "fixed", 1),)
        options = NanoBenchOptions()
        a = cached_generate(code, init, counters, options, 10)
        b = cached_generate(code, init, counters, options, 20)
        c = cached_generate(code, init, counters, options, 10)
        assert a is not b
        assert a is c
        assert cache_stats()["generate"] == {
            "size": 2, "maxsize": cache_stats()["generate"]["maxsize"],
            "lookups": 3, "hits": 1, "misses": 2, "evictions": 0,
            "repairs": 0,
        }

    def test_run_reports_cache_activity(self):
        nb = NanoBench.kernel("Skylake", seed=0)
        nb.run(asm="add RAX, RAX")
        first = nb.last_report
        assert first.generate_misses == 2          # both unroll versions
        assert first.assemble_misses == 2          # asm + empty init
        nb.run(asm="add RAX, RAX")
        second = nb.last_report
        assert second.generate_hits == 2
        assert second.generate_misses == 0
        assert second.assemble_hits == 2
        assert second.assemble_misses == 0

    def test_cached_results_identical_to_uncached(self):
        nb = NanoBench.kernel("Skylake", seed=0)
        warm = nb.run(asm="imul RAX, RBX")
        clear_caches()
        cold = NanoBench.kernel("Skylake", seed=0).run(asm="imul RAX, RBX")
        assert dict(warm) == dict(cold)


# ----------------------------------------------------------------------
# Warm-up discard pinning (Algorithm 2)
# ----------------------------------------------------------------------
class TestWarmUpDiscard:
    def test_warm_up_runs_executed_but_discarded(self):
        calls = []

        def run_once():
            calls.append(len(calls))
            return {"x": float(len(calls))}

        series = run_measurements(run_once, n_measurements=4,
                                  warm_up_count=3)
        # 3 + 4 executions, first 3 discarded.
        assert len(calls) == 7
        assert series.values["x"] == [4.0, 5.0, 6.0, 7.0]
        assert series.n_runs == 4

    def test_zero_warm_up_keeps_everything(self):
        series = run_measurements(lambda: {"x": 1.0}, n_measurements=2)
        assert series.values["x"] == [1.0, 1.0]
