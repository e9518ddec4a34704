"""Tests for the out-of-order scheduler and branch predictor."""

import random

import pytest

from repro.errors import RunawayBenchmarkError
from repro.uarch.ports import SKYLAKE_LAYOUT
from repro.uarch.scheduler import (
    BranchPredictor,
    MemoryAccessPlan,
    Scheduler,
)
from repro.uarch.timing import ComputeUop, InstructionTiming


def _alu(latency=1):
    return InstructionTiming((ComputeUop("ALU", latency),))


@pytest.fixture()
def sched():
    return Scheduler(SKYLAKE_LAYOUT, rng=random.Random(0))


class TestDependencies:
    def test_dependent_chain_serializes(self, sched):
        last = 0
        for _ in range(10):
            result = sched.schedule(_alu(), sources=["RAX"],
                                    destinations=["RAX"])
            assert result.complete_cycle > last
            last = result.complete_cycle
        assert last >= 10  # one cycle per link

    def test_independent_ops_overlap(self, sched):
        regs = ["RAX", "RBX", "RCX", "RDX"]
        completes = [
            sched.schedule(_alu(), sources=[r], destinations=[r]).complete_cycle
            for r in regs
        ]
        assert max(completes) <= 2  # all dispatch in the first cycle

    def test_latency_respected(self, sched):
        first = sched.schedule(
            InstructionTiming((ComputeUop("MUL", 3),)),
            sources=["RAX"], destinations=["RAX"],
        )
        second = sched.schedule(_alu(), sources=["RAX"], destinations=["RBX"])
        assert second.complete_cycle >= first.complete_cycle + 1
        assert first.complete_cycle >= 3

    def test_flag_dependencies(self, sched):
        sched.schedule(_alu(), sources=["RAX"], destinations=["RAX", "CF"])
        result = sched.schedule(_alu(), sources=["CF"], destinations=["RBX"])
        assert result.complete_cycle >= 2

    def test_dependency_breaking(self, sched):
        sched.schedule(InstructionTiming((ComputeUop("MUL", 10),)),
                       sources=["RAX"], destinations=["RAX"])
        zeroing = InstructionTiming((), eliminated=True,
                                    breaks_dependency=True)
        result = sched.schedule(zeroing, sources=["RAX"],
                                destinations=["RAX"])
        assert result.complete_cycle <= 1  # did not wait for the MUL


class TestPorts:
    def test_port_contention(self, sched):
        # MUL is restricted to port 1: n back-to-back independent MULs
        # take n cycles to dispatch.
        completes = [
            sched.schedule(InstructionTiming((ComputeUop("MUL", 3),)),
                           sources=[], destinations=["R%d" % (8 + i)]
                           ).complete_cycle
            for i in range(4)
        ]
        assert completes[-1] >= 3 + 3  # fourth dispatches at cycle 3

    def test_load_balancing(self, sched):
        # Loads alternate over ports 2 and 3.
        for i in range(10):
            plan = MemoryAccessPlan(64 * i, 4, ("R14",))
            sched.schedule(InstructionTiming(()), loads=[plan],
                           destinations=["RAX"])
        pressure = sched.port_pressure()
        assert pressure["2"] == 5 and pressure["3"] == 5

    def test_frontend_width_limits_nops(self, sched):
        eliminated = InstructionTiming((), eliminated=True)
        result = None
        for _ in range(40):
            result = sched.schedule(eliminated)
        # 40 µops at width 4 -> at least 9 cycles of issue.
        assert result.complete_cycle >= 9


class TestStores:
    def test_store_to_load_forwarding_order(self, sched):
        store_plan = MemoryAccessPlan(0x1000, 1, ("R14",), is_store=True)
        sched.schedule(InstructionTiming(()), sources=["RAX"],
                       stores=[store_plan])
        load_plan = MemoryAccessPlan(0x1000, 4, ("R14",))
        result = sched.schedule(InstructionTiming(()), loads=[load_plan],
                                destinations=["RBX"])
        # The load waits for the store's data.
        assert result.complete_cycle >= 5

    def test_unrelated_load_not_blocked(self, sched):
        store_plan = MemoryAccessPlan(0x1000, 1, ("R14",), is_store=True)
        sched.schedule(InstructionTiming(()), sources=["RAX"],
                       stores=[store_plan])
        load_plan = MemoryAccessPlan(0x2000, 4, ("R14",))
        result = sched.schedule(InstructionTiming(()), loads=[load_plan],
                                destinations=["RBX"])
        assert result.complete_cycle <= 5


class TestFences:
    def test_lfence_orders(self, sched):
        sched.schedule(InstructionTiming((ComputeUop("MUL", 20),)),
                       destinations=["RAX"])
        fence = InstructionTiming((), is_fence=True, fence_latency=6)
        fence_result = sched.schedule(fence)
        assert fence_result.complete_cycle >= 26
        later = sched.schedule(_alu(), destinations=["RBX"])
        assert later.complete_cycle > fence_result.complete_cycle

    def test_microcode_variable_uops(self):
        timing = InstructionTiming(
            (), microcoded=True, microcode_uops=(10, 50), base_latency=90
        )
        counts = set()
        for seed in range(8):
            sched = Scheduler(SKYLAKE_LAYOUT, rng=random.Random(seed))
            result = sched.schedule(timing)
            counts.add(result.issued_uops)
        assert len(counts) > 1  # the CPUID effect

    def test_external_delay_advances_clock(self, sched):
        sched.schedule(_alu())
        before = sched.now
        sched.external_delay(1000)
        assert sched.now == before + 1000
        after = sched.schedule(_alu())
        assert after.complete_cycle > before + 1000


class TestBranchPredictor:
    def test_warmup(self):
        predictor = BranchPredictor()
        site = "loop"
        predictor.update(site, False)
        predictor.update(site, False)
        assert predictor.predict(site) is False
        predictor.update(site, True)
        predictor.update(site, True)
        assert predictor.predict(site) is True

    def test_mispredict_penalty(self, sched):
        branch = InstructionTiming((ComputeUop("BRANCH", 1),))
        # Train taken.
        for _ in range(4):
            sched.schedule(branch, branch_site="b", branch_taken=True)
        trained = sched.schedule(branch, branch_site="b", branch_taken=True)
        assert not trained.mispredicted
        surprise = sched.schedule(branch, branch_site="b", branch_taken=False)
        assert surprise.mispredicted
        later = sched.schedule(_alu())
        assert later.complete_cycle >= (
            surprise.complete_cycle + Scheduler.MISPREDICT_PENALTY
        )

    def test_reset_clears_state(self, sched):
        sched.schedule(_alu(), destinations=["RAX"])
        sched.reset()
        assert sched.now == 0
        assert sched.resource_ready_time("RAX") == 0


# ----------------------------------------------------------------------
# A pinned scheduling stream: every ScheduledInstruction field and the
# final scheduler state for a seeded mix of every kind of timing the
# core hands the scheduler.  The digests were computed with the
# call-per-µop scheduler; a rewrite of the dispatch loop must keep them.
# They were recomputed once, when the final state's fingerprint lost
# its running latency sum: the stream with that one field dropped from
# the old fingerprint gives the same digests.

_PIN_ASM = (
    "add RAX, RBX", "imul RCX, RDX", "shl RSI, 3", "lea RDI, [RAX+RBX+8]",
    "mov RAX, RBX", "mov EAX, EBX", "xor RCX, RCX", "sub RDX, RDX",
    "pxor XMM0, XMM0", "paddd XMM1, XMM2", "mulps XMM3, XMM4",
    "addpd XMM5, XMM6", "divps XMM7, XMM0", "vfmadd231ps XMM1, XMM2, XMM3",
    "pmulld XMM2, XMM3", "xchg RAX, RBX", "mul RBX", "popcnt RAX, RBX",
    "nop", "cpuid", "rdtsc", "lfence", "mfence", "jmp L", "jnz L",
    "mov RAX, [R14]", "mov [R14], RAX", "add RAX, [R14+8]",
)
_PIN_REGS = ("RAX", "RBX", "RCX", "RDX", "RSI", "RDI", "XMM0", "XMM1",
             "CF", "ZF")


def _pin_timings(family, move_elimination):
    from repro.errors import TimingModelError
    from repro.uarch.timing import TimingTable
    from repro.x86.assembler import assemble

    table = TimingTable(family, move_elimination=move_elimination)
    timings = []
    for line in _PIN_ASM:
        program = assemble(line if not line.startswith("j") else
                           "L: " + line)
        try:
            timings.append((line, table.lookup(program.instructions[0])))
        except TimingModelError:
            pass
    timings.append(("jitter", InstructionTiming(
        (ComputeUop("ALU", 1),), latency_jitter=3)))
    return timings


def _pin_stream(layout, family, move_elimination, seed, steps,
                cycle_budget=None):
    """Digest input of one seeded stream (records and final state)."""
    rng = random.Random(seed)
    sched = Scheduler(layout, rng=random.Random(seed + 1))
    sched.cycle_budget = cycle_budget
    timings = _pin_timings(family, move_elimination)
    records = []
    for step in range(steps):
        name, timing = timings[rng.randrange(len(timings))]
        sources = rng.sample(_PIN_REGS, rng.randint(0, 3))
        destinations = rng.sample(_PIN_REGS, rng.randint(0, 2))
        loads = [
            MemoryAccessPlan(64 * rng.randrange(6), rng.choice((4, 12, 40)),
                             tuple(rng.sample(_PIN_REGS[:6], rng.randint(0, 2))))
            for _ in range(rng.choice((0, 0, 0, 1, 2)))
        ]
        stores = [
            MemoryAccessPlan(64 * rng.randrange(6), 1,
                             tuple(rng.sample(_PIN_REGS[:6], rng.randint(0, 2))),
                             is_store=True)
            for _ in range(rng.choice((0, 0, 0, 1)))
        ]
        branch = {}
        if name.startswith("j"):
            branch = {"branch_site": rng.randrange(3),
                      "branch_taken": rng.random() < 0.6}
        try:
            result = sched.schedule(
                timing, sources=sources, destinations=destinations,
                loads=loads, stores=stores,
                breaks_dependency=rng.random() < 0.05, **branch,
            )
        except RunawayBenchmarkError as exc:
            records.append(("trip", step, exc.budget, exc.limit,
                            sorted(exc.progress.items())))
            break
        records.append((
            name, result.issue_cycle, result.complete_cycle,
            result.issued_uops, tuple(result.dispatched.items()),
            result.mispredicted,
        ))
        if timing.microcoded:
            sched.serialize_after_microcode(result.complete_cycle)
    records.append(sched.fingerprint())
    records.append(sorted(sched.port_pressure().items()))
    return records


def _pin_digest(*args, **kwargs):
    import hashlib

    return hashlib.sha256(
        repr(_pin_stream(*args, **kwargs)).encode()
    ).hexdigest()[:24]


class TestPinnedStream:
    @pytest.mark.parametrize("family, move_elimination, digest", [
        ("SKL", True, "ee2b8f09555f70b42ede0c52"),
        ("NHM", False, "621f69c1352b3c6a7b4df6a4"),
    ])
    def test_stream_digest(self, family, move_elimination, digest):
        from repro.uarch.ports import PORT_LAYOUTS

        layout = PORT_LAYOUTS[family]
        assert _pin_digest(layout, family, move_elimination, 7, 3000) == digest

    @pytest.mark.parametrize("family, move_elimination, digest", [
        ("SKL", True, "c29c6d128096d1ec91692208"),
        ("NHM", False, "06e98bc88b57b6f9364500eb"),
    ])
    def test_budget_trip_digest(self, family, move_elimination, digest):
        from repro.uarch.ports import PORT_LAYOUTS

        layout = PORT_LAYOUTS[family]
        records = _pin_stream(layout, family, move_elimination, 11, 3000,
                              cycle_budget=2000)
        assert records[-3][0] == "trip"
        assert _pin_digest(layout, family, move_elimination, 11, 3000,
                           cycle_budget=2000) == digest

    def test_unknown_port_class_names_the_family(self, sched):
        timing = InstructionTiming((ComputeUop("NO_SUCH_CLASS", 1),))
        with pytest.raises(KeyError, match="family SKL has no port class"):
            sched.schedule(timing)
