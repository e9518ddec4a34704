"""The run-level fixed point: replaying Algorithm 2's repeated runs.

Once a measurement run leaves the machine state as it found it, the
later runs of its series are redone from a record instead of simulated
(``repro.core.nanobench._FixedPoint``, ``SimulatedCore.replay_run``).
Every test here compares a replaying core with one that simulates run
by run, on the whole post-series machine state, not only the returned
values.  One test per way a naive memo goes wrong:

* the scheduler RNG advances in every run, even for RDPMC's
  one-value ``randint(10, 10)``;
* LRU/FIFO stamps grow, so raw set state never repeats;
* Reference cycles depend on the absolute clock's phase;
* cache, TLB, PMU, metric and simulator statistics are cumulative.

And the bodies that must be simulated run by run: fresh memory values
in every run, CPUID, counter and clock reads, user mode with
interrupts, an SMT sibling, an active fault plan.  A body that reads
the flags a counter read left replays only when they repeat.  The
counter groups of one ``run()`` share the records of each program;
the next ``run()`` starts with none.
"""

import dataclasses
import random

import pytest

from repro.core import nanobench
from repro.core.nanobench import NanoBench
from repro.faults.plan import FaultPlan
from repro.tools.instr.corpus import corpus_for_family
from repro.tools.instr.measure import variant_specs
from repro.uarch.core import SimulatedCore
from repro.uarch.interference import InterferenceConfig
from repro.uarch.specs import get_spec


def _kernel(*, replay, core=None):
    nb = (NanoBench(core, kernel_mode=True) if core is not None
          else NanoBench.kernel("Skylake", seed=0))
    nb.core.fast_path_enabled = replay
    return nb


def _machine_state(core):
    """What a later run or report can observe of *core*.

    Memory contents are left out: with the fast path off, a clean
    body's register values (spilled by the counter reads) differ from
    a fast-path run's, replayed or not; :func:`_memory` compares them
    where that does not apply.
    """
    pmu = core.pmu
    return {
        "fingerprint": core.state_fingerprint(),
        "metrics": core.metrics.snapshot(),
        "cumulative": core._cumulative(),
        "demand": core.hierarchy.demand.to_dict(),
        "rng": core.scheduler.rng.getstate(),
        "instructions": core.sim_stats.instructions,
        "counters": ([pmu.read_fixed(i) for i in range(3)]
                     + [pmu.read_programmable(i)
                        for i in range(pmu.n_programmable)]),
    }


def _memory(core):
    return {number: bytes(page)
            for number, page in core.main_memory._pages.items()}


def _both(asm, *, nb_factory=_kernel, **kwargs):
    """``(values, nb)`` with replay on, then with the fast path off."""
    out = []
    for replay in (True, False):
        nb = nb_factory(replay=replay)
        out.append((nb.run(asm, **kwargs), nb))
    return out


def _assert_same_machine(replayed, exact):
    assert _machine_state(replayed.core) == _machine_state(exact.core)
    assert replayed.last_raw_series == exact.last_raw_series
    assert (replayed.last_report.simulated_cycles
            == exact.last_report.simulated_cycles)
    assert replayed.last_report.program_runs == exact.last_report.program_runs


@pytest.mark.no_chaos
class TestNaiveMemoPitfalls:
    def test_rng_position_after_degenerate_rdpmc_draws(self):
        # Every counter read is an RDPMC, microcoded with randint(10, 10):
        # the draw's value never changes, the stream position does.
        (values, replayed), (exact_values, exact) = _both(
            "add RAX, RAX", unroll_count=50, n_measurements=4)
        assert replayed.core.sim_stats.replayed_runs > 0
        assert values == exact_values
        assert (replayed.core.scheduler.rng.getstate()
                == exact.core.scheduler.rng.getstate())
        _assert_same_machine(replayed, exact)

    def test_rdpmc_draws_advance_the_stream_every_run(self):
        nb = _kernel(replay=False)
        states = []
        original = nb._run_generated_once

        def tracking(*args):
            states.append(nb.core.scheduler.rng.getstate())
            return original(*args)

        nb._run_generated_once = tracking
        nb.run("add RAX, RAX", unroll_count=10, n_measurements=3)
        assert len(set(states)) == len(states)

    @pytest.mark.parametrize("policy", ["LRU", "FIFO"])
    def test_stamp_policies_reach_a_fixed_point(self, policy):
        # The TLBs are LRU on every spec; the caches take *policy*.
        spec = get_spec("Skylake")
        spec = dataclasses.replace(
            spec, l1=dataclasses.replace(spec.l1, policy=policy),
            l2=dataclasses.replace(spec.l2, policy=policy))

        def factory(replay):
            return _kernel(replay=replay, core=SimulatedCore(spec, seed=0))

        (values, replayed), (exact_values, exact) = _both(
            "mov RAX, [R14]; mov [RDI], RAX", nb_factory=factory,
            unroll_count=20, n_measurements=4)
        assert replayed.core.sim_stats.replayed_runs > 0
        assert values == exact_values
        _assert_same_machine(replayed, exact)
        # The raw stamps of the exact core moved on; the replaying core
        # left them where the logged run did.  Their order is the state.
        stamps = [
            [list(s._last_use) for s in core.tlb.dtlb._sets.values()]
            for core in (replayed.core, exact.core)
        ]
        assert stamps[0] != stamps[1]

    def test_reference_cycles_follow_the_clock_phase(self):
        (values, replayed), (exact_values, exact) = _both(
            "add RAX, RAX", unroll_count=50, n_measurements=5)
        assert replayed.core.sim_stats.replayed_runs > 0
        series = replayed.last_raw_series[50]["Reference cycles"]
        assert series == exact.last_raw_series[50]["Reference cycles"]
        assert len(set(series)) > 1  # 141/142: the phase shows
        assert values == exact_values

    def test_cumulative_statistics_advance(self):
        events = ["MEM_LOAD_RETIRED.L1_HIT", "UOPS_ISSUED.ANY"]
        (values, replayed), (exact_values, exact) = _both(
            "mov RAX, [R14]; add RBX, RAX", events=events, unroll_count=30,
            n_measurements=5, warm_up_count=2)
        core, ref = replayed.core, exact.core
        assert core.sim_stats.replayed_runs > 0
        assert values == exact_values
        assert core.hierarchy.demand == ref.hierarchy.demand
        assert core.hierarchy.steps_taken == ref.hierarchy.steps_taken
        for tlb in ("dtlb", "stlb"):
            mine, theirs = getattr(core.tlb, tlb), getattr(ref.tlb, tlb)
            assert (mine.hits, mine.misses) == (theirs.hits, theirs.misses)
        assert core.metrics.snapshot() == ref.metrics.snapshot()
        assert core.current_cycle == ref.current_cycle
        assert (core.sim_stats.instructions == ref.sim_stats.instructions
                > 0)
        _assert_same_machine(replayed, exact)

    def test_replay_changes_nothing_but_the_simulation(self, monkeypatch):
        # Against the same core with only replay off: memory and every
        # SimStats field but the replay count are identical too.
        replayed = _kernel(replay=True)
        replayed.run("add RAX, RBX; mov [RSI], RAX", unroll_count=40,
                     n_measurements=4)
        monkeypatch.setattr(NanoBench, "_replay_allowed",
                            lambda *args: False)
        simulated = _kernel(replay=True)
        simulated.run("add RAX, RBX; mov [RSI], RAX", unroll_count=40,
                      n_measurements=4)
        stats = replayed.core.sim_stats.to_dict()
        assert stats.pop("replayed_runs") > 0
        reference = simulated.core.sim_stats.to_dict()
        assert reference.pop("replayed_runs") == 0
        assert stats == reference
        assert _memory(replayed.core) == _memory(simulated.core)
        _assert_same_machine(replayed, simulated)


def _replayed_runs(nb, asm, **kwargs):
    nb.run(asm, **kwargs)
    return nb.core.sim_stats.replayed_runs


@pytest.mark.no_chaos
class TestSimulatedRunByRun:
    def test_fresh_memory_values_every_run(self):
        asm = "mov RAX, [R14]; add RAX, 1; mov [R14], RAX"
        (values, replayed), (exact_values, exact) = _both(
            asm, unroll_count=10, n_measurements=4)
        assert replayed.core.sim_stats.replayed_runs == 0
        assert values == exact_values
        assert _memory(replayed.core) == _memory(exact.core)

    def test_cpuid_body(self):
        assert _replayed_runs(_kernel(replay=True), "cpuid",
                              unroll_count=2, n_measurements=3) == 0

    def test_user_mode_with_interrupts(self):
        nb = NanoBench.user("Skylake", seed=0)
        nb.core.interference.config = InterferenceConfig(
            mean_interval_cycles=1_000.0, min_cycles=100, max_cycles=400,
            min_instructions=10, max_instructions=50)
        assert _replayed_runs(nb, "add RAX, RBX", unroll_count=50,
                              n_measurements=3) == 0

    def test_active_fault_plan(self):
        with FaultPlan(rates={"counter.overflow": 0.5}, seed=3):
            nb = _kernel(replay=True)
            assert _replayed_runs(nb, "add RAX, RAX", unroll_count=50,
                                  n_measurements=4) == 0

    @pytest.mark.parametrize("asm, asm_init", [
        ("mov ECX, 0; rdpmc", ""),
        ("mov ECX, 0x309; rdmsr", ""),
        ("rdtsc", ""),
        ("add RAX, RBX", "mov ECX, 0; rdpmc"),
    ])
    def test_counter_and_clock_reads_in_the_code(self, asm, asm_init):
        # The run log sees these: an extra counter read outnumbers the
        # result slots, and a clock read leaves no record.
        (values, replayed), (exact_values, exact) = _both(
            asm, asm_init=asm_init, unroll_count=4, n_measurements=4)
        assert replayed.core.sim_stats.replayed_runs == 0
        assert values == exact_values
        _assert_same_machine(replayed, exact)

    def test_smt_sibling(self):
        nb = _kernel(replay=True)
        nb.core.enable_smt()
        assert _replayed_runs(nb, "add RAX, RBX", unroll_count=50,
                              n_measurements=3) == 0

    def test_msr_write_repeats(self):
        # WRMSR only changes MSR state, which the fingerprint covers.
        asm = "mov ECX, 0x1a4; xor EAX, EAX; xor EDX, EDX; wrmsr"
        (values, replayed), (exact_values, exact) = _both(
            asm, unroll_count=4, n_measurements=4)
        assert replayed.core.sim_stats.replayed_runs > 0
        assert values == exact_values
        _assert_same_machine(replayed, exact)

    @pytest.mark.parametrize("address, replays", [
        (0x60000800, False),  # an m2 slot: the previous run's count
        (0x60000400, True),   # unused bytes of the measurement area
    ])
    def test_body_reading_a_counter_slot(self, address, replays):
        # The value read is discarded, so memory and caches repeat; only
        # the watched slot keeps the run exact.
        asm = "mov RAX, [%#x]; xor RAX, RAX" % address
        (values, replayed), (exact_values, exact) = _both(
            asm, unroll_count=2, n_measurements=4)
        assert (replayed.core.sim_stats.replayed_runs > 0) == replays
        assert values == exact_values
        _assert_same_machine(replayed, exact)

    def test_kill_switch(self, monkeypatch):
        monkeypatch.setenv("NANOBENCH_FAST_PATH", "0")
        assert _replayed_runs(NanoBench.kernel("Skylake", seed=0),
                              "add RAX, RAX", unroll_count=50,
                              n_measurements=4) == 0


def _verdicts(monkeypatch):
    """The outcome of every flag check, in order."""
    verdicts = []
    original = nanobench._FixedPoint.accepts

    def recording(self, values):
        verdicts.append(original(self, values))
        return verdicts[-1]

    monkeypatch.setattr(nanobench._FixedPoint, "accepts", recording)
    return verdicts


@pytest.mark.no_chaos
class TestCounterReadFlags:
    """The first block's last counter read sets ZF, SF and PF from its
    value, and the benchmark's first copy may read them."""

    def test_zero_flag_repeats(self, monkeypatch):
        # The last read is Reference cycles, never zero: every replay's
        # ZF matches the logged run's, though its PF may not.
        verdicts = _verdicts(monkeypatch)
        (values, replayed), (exact_values, exact) = _both(
            "cmovz RAX, RBX", unroll_count=20, n_measurements=6)
        assert replayed.core.sim_stats.replayed_runs > 0
        assert verdicts and all(verdicts)
        assert values == exact_values
        _assert_same_machine(replayed, exact)

    def test_parity_flag_follows_the_counter_value(self, monkeypatch):
        # PF is the parity of the value's low byte, which changes from
        # run to run: those runs are simulated, the others replayed.
        verdicts = _verdicts(monkeypatch)
        (values, replayed), (exact_values, exact) = _both(
            "cmovp RAX, RBX", unroll_count=20, n_measurements=6)
        assert True in verdicts and False in verdicts
        assert (replayed.core.sim_stats.replayed_runs
                == verdicts.count(True))
        assert values == exact_values
        _assert_same_machine(replayed, exact)

    def test_a_rejected_replay_moves_no_state(self):
        nb = _kernel(replay=True)
        nb.run("cmovp RAX, RBX", unroll_count=20, n_measurements=6)
        record = next(fixed_point.record for fixed_point
                      in nb._fixed_points.values() if fixed_point.record)
        before, memory = _machine_state(nb.core), _memory(nb.core)
        assert nb.core.replay_run(record, lambda values: False) is None
        assert _machine_state(nb.core) == before
        assert _memory(nb.core) == memory
        assert nb.core.replay_run(record, lambda values: True) is not None
        assert _machine_state(nb.core) != before


_PORT_EVENTS = ["UOPS_DISPATCHED_PORT.PORT_%d" % p for p in range(8)]


def _runs_per_group(nb):
    """``(program runs, replayed runs)`` of each counter group of *nb*'s
    runs, in order."""
    groups = []
    original = nb._run_group

    def recording(*args):
        before = nb.core.sim_stats.replayed_runs
        result = original(*args)
        groups.append((result[1], nb.core.sim_stats.replayed_runs - before))
        return result

    nb._run_group = recording
    return groups


@pytest.mark.no_chaos
class TestCounterGroups:
    def test_second_group_replays_the_first_groups_records(self):
        # A ports spec: 8 port events on 4 programmable counters.
        variant = next(v for v in corpus_for_family("SKL")
                       if v.name == "ADD (R64, R64)")
        spec = next(spec for spec in variant_specs(variant, "Skylake", seed=0)
                    if spec.label.startswith("ports:"))
        assert spec.events == tuple(_PORT_EVENTS)
        nb = spec.make_nanobench()
        groups = _runs_per_group(nb)
        result = spec.execute(nb)
        assert len(groups) == 2
        (runs, _), (second_runs, second_replayed) = groups
        # Group 1 reached its fixed points; group 2 simulates no run.
        assert second_replayed == second_runs == runs
        (exact, exact_nb) = _execute(spec, False)
        assert exact_nb.core.sim_stats.replayed_runs == 0
        assert result.values == exact.values
        assert result.program_runs == exact.program_runs
        assert result.simulated_cycles == exact.simulated_cycles
        assert result.sim_instructions == exact.sim_instructions
        assert _machine_state(nb.core) == _machine_state(exact_nb.core)

    def test_groups_with_different_code_share_no_record(self):
        # The uncore event joins the first group as an RDMSR: its code
        # differs from the second group's, so each has its own records.
        events = _PORT_EVENTS + ["CBOX0_LLC_LOOKUP.ANY"]
        nb = _kernel(replay=True)
        groups = _runs_per_group(nb)
        values = nb.run("add RAX, RBX", events=events, unroll_count=20,
                        n_measurements=4)
        assert len(nb._fixed_points) == 4  # two programs per group
        assert len(groups) == 2
        second_runs, second_replayed = groups[1]
        # Each of the second group's programs simulates its first run.
        assert second_runs - second_replayed >= 2
        exact = _kernel(replay=False)
        assert exact.run("add RAX, RBX", events=events, unroll_count=20,
                         n_measurements=4) == values
        _assert_same_machine(nb, exact)

    def test_a_run_starts_without_records(self):
        nb = _kernel(replay=True)
        nb.run("add RAX, RBX", unroll_count=20, n_measurements=4)
        assert nb.last_report.sim_stats["replayed_runs"] > 0
        # One run per program: only a record of the last call could
        # replay it.
        nb.run("add RAX, RBX", unroll_count=20, n_measurements=1)
        assert nb.last_report.sim_stats["replayed_runs"] == 0
        assert len(nb._fixed_points) == 2


# ----------------------------------------------------------------------
# The real corpus: a seeded sample of instr-sim specs of all four kinds.
# ----------------------------------------------------------------------
_CORPUS_SAMPLE = 3


def _corpus_specs(uarch):
    variants = [v for v in corpus_for_family(get_spec(uarch).family)
                if not v.kernel_only]
    sample = random.Random("run-replay:%s" % uarch).sample(
        variants, _CORPUS_SAMPLE)
    return [spec for variant in sample
            for spec in variant_specs(variant, uarch, seed=0)]


def _execute(spec, replay):
    nb = spec.make_nanobench()
    nb.core.fast_path_enabled = replay
    return spec.execute(nb), nb


@pytest.mark.no_chaos
@pytest.mark.parametrize("uarch", ["Skylake", "Haswell"])
def test_corpus_sample_replays_byte_identically(uarch):
    specs = _corpus_specs(uarch)
    assert {spec.label.split(":")[0] for spec in specs} == {
        "latency", "throughput", "uops", "ports"}
    replayed_runs = 0
    for spec in specs:
        (result, nb), (exact, exact_nb) = (_execute(spec, True),
                                           _execute(spec, False))
        assert result.values == exact.values, spec.label
        assert result.error == exact.error, spec.label
        assert result.program_runs == exact.program_runs, spec.label
        assert result.simulated_cycles == exact.simulated_cycles, spec.label
        assert result.sim_instructions == exact.sim_instructions, spec.label
        assert (_machine_state(nb.core)
                == _machine_state(exact_nb.core)), spec.label
        replayed_runs += nb.core.sim_stats.replayed_runs
    assert replayed_runs > 0


def test_faults_outside_runs_keep_replay():
    # Only RUN_FAULT_SITES turn replay off.  Under a plan arming sites
    # that fire before or between runs (a failed allocation retried, a
    # corrupted codegen entry rebuilt), each spec on a fresh core still
    # replays and gives the fault-free values.  The reference runs under
    # an empty plan, so an ambient REPRO_FAULTS plan reaches neither.
    specs = _corpus_specs("Skylake")
    with FaultPlan():
        reference = [spec.execute(spec.make_nanobench()) for spec in specs]
    # Seed 2031 fails every core's first allocation ("nb#0").
    plan = FaultPlan(rates={"kernel.alloc": 0.15, "cache.corrupt": 0.15},
                     seed=2031)
    replayed_runs = 0
    with plan:
        for spec, expected in zip(specs, reference):
            nb = spec.make_nanobench()
            result = spec.execute(nb)
            assert result.values == expected.values, spec.label
            assert result.error == expected.error, spec.label
            replayed_runs += nb.core.sim_stats.replayed_runs
    assert plan.injected.get("kernel.alloc", 0) > 0
    assert plan.injected.get("cache.corrupt", 0) > 0
    assert replayed_runs > 0
