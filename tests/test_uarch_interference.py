"""Tests for the interrupt interference model."""

import random

import pytest

from repro.uarch.interference import (
    InterferenceConfig,
    InterferenceModel,
    InterruptEvent,
)


class TestPoissonProcess:
    def test_no_events_when_disabled(self):
        model = InterferenceModel(rng=random.Random(0))
        model.disable()
        assert model.poll(1e12) == []

    def test_first_poll_has_no_backlog(self):
        # Regression: the process is armed at the first poll's cycle,
        # so a poll deep into the simulation must not deliver the whole
        # elapsed window as one interrupt burst.
        model = InterferenceModel(rng=random.Random(0))
        assert model.poll(1e12) == []

    def test_events_eventually_fire(self):
        model = InterferenceModel(rng=random.Random(0))
        model.poll(0)  # arm the process at cycle 0
        events = model.poll(10_000_000)
        assert events
        for event in events:
            assert event.cycles > 0
            assert event.instructions > 0
            assert event.uops >= event.instructions

    def test_rate_matches_configuration(self):
        config = InterferenceConfig(mean_interval_cycles=100_000)
        model = InterferenceModel(config, rng=random.Random(1))
        model.poll(0)  # arm the process at cycle 0
        horizon = 50_000_000
        count = len(model.poll(horizon))
        expected = horizon / config.mean_interval_cycles
        assert expected * 0.6 < count < expected * 1.4

    def test_monotone_polling(self):
        model = InterferenceModel(rng=random.Random(2))
        total = []
        for now in range(0, 5_000_000, 100_000):
            total.extend(model.poll(now))
        # Re-polling the same instant yields nothing new.
        assert model.poll(5_000_000 - 100_000) == []

    def test_enable_resets_schedule(self):
        model = InterferenceModel(rng=random.Random(3))
        model.poll(0)
        model.poll(1_000_000)
        model.disable()
        assert model.poll(100_000_000) == []
        model.enable()
        # Re-arming happens at the next poll: no backlog for the
        # masked window, then the process fires again.
        assert model.poll(100_000_000) == []
        assert model.poll(200_000_000)  # fires again


class TestCoreCoupling:
    def test_kernel_mode_masks_interrupts(self):
        """A long benchmark shows interrupt noise in user mode only."""
        from repro.core.nanobench import NanoBench

        kw = dict(unroll_count=200, loop_count=50, n_measurements=8,
                  aggregate="med")
        nb_kernel = NanoBench.kernel("Skylake", seed=3)
        nb_kernel.run(asm="add RAX, RAX", **kw)
        kernel_series = nb_kernel.last_raw_series[400]["Core cycles"]
        assert max(kernel_series) == min(kernel_series)

        spreads = []
        for seed in range(4):
            nb_user = NanoBench.user("Skylake", seed=seed)
            nb_user.run(asm="add RAX, RAX", **kw)
            series = nb_user.last_raw_series[400]["Core cycles"]
            spreads.append(max(series) - min(series))
        assert max(spreads) > 0  # at least one interrupted run

    def test_interrupt_inflates_counters(self):
        from repro.uarch.core import SimulatedCore
        from repro.uarch.interference import InterruptEvent

        core = SimulatedCore("Skylake", seed=0)
        before = core.metrics.get("instructions_retired")
        core.inject_interference(InterruptEvent(
            cycles=1000, instructions=500, uops=550, branches=100,
            cache_lines_touched=4,
        ))
        assert core.metrics.get("instructions_retired") == before + 500
        assert core.current_cycle >= 1000
