"""Unit tests for the deterministic fault-injection plane and the
self-healing primitives it exercises (retry policy, error taxonomy,
validity-checked measurement collection, PMU wrap bias)."""

import pickle
import random

import pytest

from repro.core.retry import TRANSIENT_ATTEMPTS, retry_transient
from repro.core.runner import run_measurements
from repro.errors import (
    AllocationError,
    AnalysisError,
    CounterOverflowError,
    InjectedFaultError,
    NanoBenchError,
    ReproError,
    SpecTimeoutError,
    TransientError,
    UnschedulableEventError,
    WorkerCrashError,
    is_retryable,
)
from repro.faults.plan import (
    DEFAULT_RATES,
    FAULT_SITES,
    FaultPlan,
    active_plan,
    deactivate,
    fault_fires,
    reset_env_cache,
)
from repro.perfctr.counters import (
    FIXED_WRAP,
    OVERFLOW_SUSPECT_THRESHOLD,
    PROGRAMMABLE_WRAP,
    delta_suspicious,
)


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        a = FaultPlan(rates={"worker.death": 0.3}, seed=7)
        b = FaultPlan(rates={"worker.death": 0.3}, seed=7)
        keys = ["%d:0" % i for i in range(200)]
        assert [a.fires("worker.death", k) for k in keys] == \
               [b.fires("worker.death", k) for k in keys]

    def test_decisions_depend_on_seed(self):
        keys = ["%d:0" % i for i in range(200)]
        draws = {
            seed: tuple(
                FaultPlan(rates={"worker.death": 0.3}, seed=seed)
                .fires("worker.death", k) for k in keys
            )
            for seed in range(3)
        }
        assert len(set(draws.values())) == 3

    def test_rate_is_respected(self):
        plan = FaultPlan(rates={"spec.error": 0.2}, seed=0)
        fired = sum(
            plan.fires("spec.error", "%d:0" % i) for i in range(5000)
        )
        assert 0.15 * 5000 < fired < 0.25 * 5000

    def test_unnamed_site_never_fires(self):
        plan = FaultPlan(rates={"spec.error": 1.0}, seed=0)
        assert not plan.fires("worker.death", "0:0")

    def test_rate_one_always_fires(self):
        plan = FaultPlan(rates={"spec.error": 1.0}, seed=0)
        assert all(plan.fires("spec.error", str(i)) for i in range(50))

    def test_injection_counts(self):
        plan = FaultPlan(rates={"spec.error": 1.0}, seed=0)
        for i in range(5):
            plan.fires("spec.error", str(i))
        assert plan.injected["spec.error"] == 5

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(rates={"nonsense.site": 0.5})

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(rates={"spec.error": 1.5})

    def test_chaos_uses_default_rates(self):
        plan = FaultPlan.chaos(seed=1)
        assert plan.rates == DEFAULT_RATES
        scaled = FaultPlan.chaos(seed=1, scale=0.5)
        for site in FAULT_SITES:
            assert scaled.rate(site) == pytest.approx(
                DEFAULT_RATES[site] * 0.5)

    def test_parse_explicit_rates(self):
        plan = FaultPlan.parse("worker.death=0.1, kernel.alloc=0.05", seed=2)
        assert plan.rates == {"worker.death": 0.1, "kernel.alloc": 0.05}
        assert plan.seed == 2

    def test_parse_chaos_keyword(self):
        assert FaultPlan.parse("chaos").rates == DEFAULT_RATES

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("worker.death")

    def test_fraction_in_unit_interval_and_stable(self):
        plan = FaultPlan.chaos(seed=3)
        values = [plan.fraction("counter.overflow", str(i))
                  for i in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [plan.fraction("counter.overflow", str(i))
                          for i in range(100)]

    def test_pickle_roundtrip(self):
        plan = FaultPlan.chaos(seed=4)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.rates == plan.rates and clone.seed == plan.seed
        assert clone.fires("spec.error", "0:0") == \
               plan.fires("spec.error", "0:0")

    @pytest.mark.no_chaos
    def test_context_manager_activation(self):
        assert active_plan() is None
        plan = FaultPlan(rates={"spec.error": 1.0}, seed=0)
        with plan:
            assert active_plan() is plan
            assert fault_fires("spec.error", "x")
        assert active_plan() is None
        assert not fault_fires("spec.error", "x")

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.death=0.25")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "9")
        reset_env_cache()
        try:
            plan = active_plan()
            assert plan is not None
            assert plan.rate("worker.death") == 0.25
            assert plan.seed == 9
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            reset_env_cache()

    def test_explicit_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.death=0.25")
        reset_env_cache()
        try:
            explicit = FaultPlan(rates={}, seed=0)
            with explicit:
                assert active_plan() is explicit
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            reset_env_cache()
            deactivate()


class TestErrorTaxonomy:
    def test_transient_branch(self):
        for exc_type in (AllocationError, CounterOverflowError,
                         InjectedFaultError, WorkerCrashError,
                         SpecTimeoutError):
            assert issubclass(exc_type, TransientError)
            assert issubclass(exc_type, ReproError)
            assert is_retryable(exc_type("x"))

    def test_fatal_branch(self):
        for exc_type in (NanoBenchError, AnalysisError,
                         UnschedulableEventError):
            assert not is_retryable(exc_type("x"))
        assert not is_retryable(ValueError("x"))

    def test_unschedulable_is_a_nanobench_error(self):
        # Call sites that caught NanoBenchError keep working.
        assert issubclass(UnschedulableEventError, NanoBenchError)


class TestRetryPolicy:
    """The one fixed retry rule, :func:`retry_transient`."""

    def test_call_retries_transient_only(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise AllocationError("transient")
            return "ok"

        assert retry_transient(flaky) == "ok"
        assert len(calls) == 3 == TRANSIENT_ATTEMPTS

    def test_call_propagates_fatal_immediately(self):
        calls = []

        def fatal():
            calls.append(1)
            raise NanoBenchError("fatal")

        with pytest.raises(NanoBenchError):
            retry_transient(fatal)
        assert len(calls) == 1

    def test_call_exhausts_attempts(self):
        calls = []

        def always_transient():
            calls.append(1)
            raise AllocationError("transient")

        with pytest.raises(AllocationError):
            retry_transient(always_transient)
        assert len(calls) == TRANSIENT_ATTEMPTS

    def test_on_retry_callback(self):
        seen = []

        def flaky():
            if not seen:
                raise AllocationError("first")
            return 1

        retry_transient(
            flaky,
            on_retry=lambda attempt, exc: seen.append((attempt, str(exc))),
        )
        assert seen == [(1, "first")]


class TestValidityCheckedRuns:
    def test_invalid_runs_are_discarded_and_rerun(self):
        produced = iter([
            {"x": -5.0},             # wraparound artefact
            {"x": 10.0},
            {"x": float(1 << 40)},   # implausibly large
            {"x": 11.0},
            {"x": 12.0},
        ])
        series = run_measurements(
            lambda: next(produced),
            n_measurements=3,
            is_valid=lambda m: not any(
                delta_suspicious(v) for v in m.values()),
        )
        assert series.values["x"] == [10.0, 11.0, 12.0]
        assert series.discarded == 2

    def test_rerun_budget_is_bounded(self):
        with pytest.raises(CounterOverflowError):
            run_measurements(
                lambda: {"x": -1.0},
                n_measurements=2,
                is_valid=lambda m: False,
                max_extra_runs=5,
            )

    def test_delta_suspicious_boundaries(self):
        assert delta_suspicious(-1.0)
        assert delta_suspicious(float(OVERFLOW_SUSPECT_THRESHOLD))
        assert not delta_suspicious(0.0)
        assert not delta_suspicious(float(OVERFLOW_SUSPECT_THRESHOLD - 1))


class TestCounterWrapBias:
    def _pmu(self):
        from repro.perfctr.counters import (
            MetricStore, PerformanceMonitoringUnit,
        )
        metrics = MetricStore()
        return metrics, PerformanceMonitoringUnit(metrics)

    def test_no_bias_without_plan(self):
        metrics, pmu = self._pmu()
        metrics.set("instructions_retired", 12345.0)
        assert pmu.read_fixed(0) == 12345

    def test_wrap_bias_straddles_exactly_one_delta(self):
        metrics, pmu = self._pmu()
        plan = FaultPlan(rates={"counter.overflow": 1.0}, seed=0)
        metrics.set("instructions_retired", 1000.0)
        pmu.inject_wrap_faults(plan, "run#0")
        m1 = pmu.read_fixed(0)  # start offset near the wrap top
        assert m1 > FIXED_WRAP - 1000
        metrics.set("instructions_retired", 1500.0)
        m2 = pmu.read_fixed(0)  # wrapped to a small value
        delta = m2 - m1
        assert delta < 0 and delta_suspicious(delta)
        # The *underlying* counts stay exact modulo the wrap, so the
        # measurement layer can recover the delta losslessly.
        assert (m2 - m1) % FIXED_WRAP == 500
        # Later deltas (both reads past the boundary) are exact as-is.
        metrics.set("instructions_retired", 2100.0)
        m3 = pmu.read_fixed(0)
        assert m3 - m2 == 600

    def test_bias_cleared_on_program(self):
        metrics, pmu = self._pmu()
        plan = FaultPlan(rates={"counter.overflow": 1.0}, seed=0)
        metrics.set("instructions_retired", 1000.0)
        pmu.inject_wrap_faults(plan, "run#0")
        assert pmu._wrap_bias
        pmu.program(0, None)
        assert not pmu._wrap_bias

    def test_wrap_constants(self):
        assert PROGRAMMABLE_WRAP == 1 << 48
        assert FIXED_WRAP == 1 << 40
