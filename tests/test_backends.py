"""The measurement backends (repro.backends).

Three contracts under test:

* **the closed set** — ``sim``, ``analytic`` and ``auto`` each
  construct by name, unknown names fail with the known list, and the
  default backend is the cycle-accurate simulated core;
* **byte identity** — a nanoBench instance built by name
  (``NanoBench.create(backend="sim")``) measures exactly what the
  direct construction measures, for every counter (tier-2 runs the
  full differential);
* **capability negotiation** — what the analytic backend cannot
  answer fails through the existing :class:`UnschedulableEventError`
  degradation path (or a structured :class:`CapabilityError` up front)
  with a message that names the missing capability, instead of a
  generic failure deep inside the measurement loop.
"""

import pickle
import warnings

import pytest

from repro.backends import BACKENDS, DEFAULT_BACKEND
from repro.backends.analytic import AnalyticTarget
from repro.batch import (
    BatchRunner,
    journal_record,
    result_from_record,
    spec_digest,
    spec_from_run_kwargs,
)
from repro.core.cli import main as cli_main
from repro.core.nanobench import NanoBench
from repro.core.retry import UnschedulableEventWarning
from repro.errors import (
    CapabilityError,
    NanoBenchError,
    UnschedulableEventError,
)
from repro.store import ResultStore
from repro.uarch.core import SimulatedCore


# ----------------------------------------------------------------------
# The closed set of backend names
# ----------------------------------------------------------------------
class TestRegistry:
    def test_default_backend_is_sim(self):
        assert DEFAULT_BACKEND == "sim"

    def test_name_round_trip(self):
        for name in ("sim", "analytic", "auto"):
            nb = NanoBench.create("Skylake", 0, backend=name)
            assert nb.backend == name

    def test_unknown_name_lists_known_backends(self):
        with pytest.raises(NanoBenchError) as excinfo:
            NanoBench.create(backend="quantum")
        assert str(excinfo.value) == (
            "unknown measurement backend 'quantum' "
            "(known backends: sim, analytic, auto)")


# ----------------------------------------------------------------------
# Capabilities
# ----------------------------------------------------------------------
class TestCapabilities:
    def test_every_capability_is_documented(self):
        # The listing names everything the analytic backend cannot
        # answer; sim and auto answer all of it.
        assert list(BACKENDS) == ["sim", "analytic", "auto"]
        description = BACKENDS["analytic"]
        for missing in ("uncore", "APERF/MPERF", "cache/TLB",
                        "pause/resume"):
            assert missing in description

    def test_sim_has_everything_analytic_does_not(self):
        # One query per thing the analytic backend cannot answer: sim
        # and auto answer each in full, analytic skips or refuses it.
        queries = [
            dict(asm="mov R14, [R14]", asm_init="mov [R14], R14",
                 events=["MEM_LOAD_RETIRED.L1_HIT"]),
            dict(asm="nop", events=["CBOX0_LLC_LOOKUP.ANY"]),
            dict(asm="nop", aperf_mperf=True),
            dict(asm="pause_counting; nop; resume_counting",
                 no_mem=True),
        ]
        for query in queries:
            sim = dict(NanoBench.create(backend="sim").run(
                n_measurements=2, **query))
            auto = dict(NanoBench.create(backend="auto").run(
                n_measurements=2, **query))
            assert auto == sim, query
            analytic = NanoBench.create(backend="analytic")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnschedulableEventWarning)
                try:
                    answer = analytic.run(n_measurements=2, **query)
                except NanoBenchError:
                    continue  # refused
            assert analytic.last_report.skipped_events, query
            assert set(answer) < set(sim), query

    def test_require_raises_structured_error(self):
        from repro.tools.cache import CacheSeq

        with pytest.raises(CapabilityError) as excinfo:
            CacheSeq(NanoBench.create(backend="analytic"), level=1)
        assert excinfo.value.capability == "cache_events"
        assert excinfo.value.backend == "analytic"
        assert str(excinfo.value) == (
            "cacheSeq counts hits and misses of individual memory "
            "accesses: backend 'analytic' lacks the 'cache_events' "
            "capability (memory-hierarchy and TLB events (hit/miss "
            "levels))")

    def test_capability_error_pickles(self):
        error = CapabilityError("no uncore", capability="uncore",
                                backend="analytic")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.capability == "uncore"
        assert clone.backend == "analytic"
        assert str(clone) == "no uncore"


# ----------------------------------------------------------------------
# Registry construction is byte-identical to the direct path
# ----------------------------------------------------------------------
class TestSimEquivalence:
    def test_create_matches_direct_construction(self):
        direct = NanoBench(SimulatedCore("Skylake", seed=4),
                           kernel_mode=True)
        registry = NanoBench.create("Skylake", seed=4, backend="sim")
        asm, init = "mov R14, [R14]", "mov [R14], R14"
        assert dict(direct.run(asm=asm, asm_init=init)) == \
            dict(registry.run(asm=asm, asm_init=init))

    def test_kernel_and_user_factories_take_backend(self):
        kernel = NanoBench.kernel("Skylake", seed=1, backend="sim")
        user = NanoBench.user("Skylake", seed=1, backend="sim")
        assert kernel.kernel_mode and not user.kernel_mode
        assert kernel.backend == user.backend == "sim"

    @pytest.mark.tier2
    @pytest.mark.parametrize("asm,asm_init,events,kernel_mode", [
        # E1-style: the L1 load-latency pointer chase.
        ("mov R14, [R14]", "mov [R14], R14", (), True),
        ("mov R14, [R14]", "mov [R14], R14",
         ("MEM_LOAD_RETIRED.L1_HIT",), True),
        # E4-style: serialized ALU chain in both privilege modes.
        ("add RAX, RAX", "", ("UOPS_ISSUED.ANY",), True),
        ("add RAX, RAX", "", ("UOPS_ISSUED.ANY",), False),
        # E7-style: stores and loads with port events.
        ("mov [R14], RAX; mov RAX, [R14 + 64]", "",
         ("UOPS_DISPATCHED_PORT.PORT_2", "UOPS_DISPATCHED_PORT.PORT_4"),
         True),
    ])
    def test_differential_registry_vs_direct(self, asm, asm_init, events,
                                             kernel_mode):
        for seed in (0, 7):
            direct = NanoBench(SimulatedCore("Skylake", seed=seed),
                               kernel_mode=kernel_mode)
            registry = NanoBench.create("Skylake", seed=seed,
                                        kernel_mode=kernel_mode,
                                        backend="sim")
            expected = direct.run(asm=asm, asm_init=asm_init, events=events)
            actual = registry.run(asm=asm, asm_init=asm_init, events=events)
            assert dict(expected) == dict(actual), (asm, seed)


# ----------------------------------------------------------------------
# Capability negotiation through the measurement loop
# ----------------------------------------------------------------------
class TestCapabilityNegotiation:
    def test_user_uncore_names_the_capability(self):
        # The regression this layer must not lose: an uncore event in
        # user mode dies on the *scheduling* path with a message that
        # says why, not on a generic counter failure.
        nb_user = NanoBench.user("Skylake")
        with pytest.warns(UnschedulableEventWarning) as caught:
            nb_user.run(asm="nop", events=["CBOX0_LLC_LOOKUP.ANY"])
        message = str(caught[0].message)
        assert "uncore" in message and "user mode" in message

    def test_user_uncore_still_degrades_to_skip(self):
        nb_user = NanoBench.user("Skylake")
        with pytest.warns(UnschedulableEventWarning):
            result = nb_user.run(asm="nop",
                                 events=["CBOX0_LLC_LOOKUP.ANY"])
        assert "CBOX0_LLC_LOOKUP.ANY" not in result
        assert nb_user.last_report.skipped_events == (
            "CBOX0_LLC_LOOKUP.ANY",)

    def test_analytic_uncore_names_the_backend(self):
        nb = NanoBench.create(backend="analytic")
        with pytest.warns(UnschedulableEventWarning) as caught:
            nb.run(asm="nop", events=["CBOX0_LLC_LOOKUP.ANY"])
        message = str(caught[0].message)
        assert "'uncore' capability" in message
        assert "backend 'analytic'" in message

    def test_analytic_cache_event_skips_with_warning(self):
        nb = NanoBench.create(backend="analytic")
        with pytest.warns(UnschedulableEventWarning):
            result = nb.run(asm="add RAX, RBX",
                            events=["MEM_LOAD_RETIRED.L1_HIT",
                                    "UOPS_ISSUED.ANY"])
        assert "MEM_LOAD_RETIRED.L1_HIT" not in result
        assert result["UOPS_ISSUED.ANY"] == pytest.approx(1.0)

    def test_analytic_cannot_read_aperf_mperf(self):
        nb = NanoBench.create(backend="analytic")
        with pytest.raises(NanoBenchError) as excinfo:
            nb.run(asm="nop", aperf_mperf=True)
        assert "aperf_mperf" in str(excinfo.value)

    def test_magic_bytes_kernel_is_served_like_sim(self):
        # The estimate counts the whole block, so it cannot honour
        # pause/resume counting: the analytic backend refuses the
        # kernel and the router escalates it to the simulator.
        asm = "pause_counting; imul RAX, RAX; resume_counting; add RBX, RBX"
        run = dict(asm=asm, no_mem=True, events=["UOPS_ISSUED.ANY"])
        sim = NanoBench.create(backend="sim").run(**run)
        assert sim["Instructions retired"] == 3.0
        assert dict(NanoBench.create(backend="auto").run(**run)) == dict(sim)
        with pytest.raises(CapabilityError) as excinfo:
            NanoBench.create(backend="analytic").run(**run)
        assert excinfo.value.capability == "magic_bytes"

    def test_nomem_counter_limit_is_one_check(self):
        events = ["UOPS_ISSUED.ANY"] + [
            "UOPS_DISPATCHED_PORT.PORT_%d" % p for p in (0, 1, 5)]
        for name in ("sim", "analytic", "auto"):
            nb = NanoBench.create(backend=name)
            with pytest.raises(NanoBenchError) as excinfo:
                nb.run(asm="add RAX, RBX", no_mem=True, events=events)
            assert str(excinfo.value) == (
                "noMem mode supports at most 6 counters, got 7"), name

    def test_unrolled_labels_are_one_check(self):
        # The analytic backend generates no code, so without the check
        # in NanoBench.run it answered a benchmark the simulator refuses.
        for name in ("sim", "analytic", "auto"):
            nb = NanoBench.create(backend=name)
            with pytest.raises(NanoBenchError) as excinfo:
                nb.run(asm="jnz fz1_0; lfence; fz1_0:", unroll_count=2)
            assert str(excinfo.value) == (
                "benchmarks with labels cannot be unrolled; "
                "use loop_count"), name


# ----------------------------------------------------------------------
# The analytic backend's numbers
# ----------------------------------------------------------------------
class TestAnalyticBackend:
    def test_target_type(self):
        nb = NanoBench.create(backend="analytic")
        assert isinstance(nb.core, AnalyticTarget)
        assert nb.backend == "analytic"

    def test_l1_latency_matches_sim(self):
        asm, init = "mov R14, [R14]", "mov [R14], R14"
        sim = NanoBench.kernel("Skylake").run(asm=asm, asm_init=init)
        analytic = NanoBench.create(backend="analytic").run(
            asm=asm, asm_init=init
        )
        assert analytic["Core cycles"] == pytest.approx(
            sim["Core cycles"])  # 4.0: the paper's Section III-A number

    def test_add_latency_and_throughput(self):
        nb = NanoBench.create(backend="analytic")
        latency = nb.run(asm="add RAX, RAX")
        assert latency["Core cycles"] == pytest.approx(1.0)
        throughput = nb.run(
            asm="; ".join("add R%s, R15" % r
                          for r in ("AX", "BX", "CX", "DX", "SI", "DI",
                                    "8", "9"))
        )
        # Eight independent ADDs over four ALU ports: 2 cycles/iter.
        assert throughput["Core cycles"] == pytest.approx(2.0)

    def test_port_events_follow_pressure(self):
        nb = NanoBench.create(backend="analytic")
        events = ["UOPS_DISPATCHED_PORT.PORT_%d" % p for p in (0, 1, 5, 6)]
        result = nb.run(asm="add RAX, RBX; add RCX, RDX", events=events)
        assert sum(result[e] for e in events) == pytest.approx(2.0)

    def test_both_privilege_modes_available(self):
        for kernel_mode in (True, False):
            nb = NanoBench.create(backend="analytic",
                                  kernel_mode=kernel_mode)
            assert nb.run(asm="nop")["Instructions retired"] == 1.0

    def test_estimate_belongs_to_its_program(self):
        # Programs assembled, run and freed in turn: a new program may
        # reuse a freed one's id, and must still get its own estimate.
        from repro.core.codecache import assemble

        kernels = ["add RAX, RAX", "imul RAX, RAX", "nop",
                   "imul RAX, RAX; imul RAX, RAX", "mov R14, [R14]"]
        expected = {
            kernel: NanoBench.create(backend="analytic").run(
                kernel)["Core cycles"]
            for kernel in kernels
        }
        assert len(set(expected.values())) == len(kernels)
        nb = NanoBench.create(backend="analytic")
        for i in range(200):
            kernel = kernels[i % len(kernels)]
            got = nb.run(code=assemble(kernel))["Core cycles"]
            assert got == expected[kernel], (i, kernel)

    def test_report_marks_no_program_runs(self):
        nb = NanoBench.create(backend="analytic")
        nb.run(asm="add RAX, RAX")
        assert nb.last_report.program_runs == 0


# ----------------------------------------------------------------------
# The backend tag through the batch engine
# ----------------------------------------------------------------------
class TestBatchBackendTag:
    def test_spec_carries_backend_in_core_key(self):
        spec = spec_from_run_kwargs(asm="nop", backend="analytic")
        assert spec.core_key == ("analytic", "Skylake", 0, True)
        assert spec_from_run_kwargs(asm="nop").core_key[0] == "sim"

    def test_digest_unchanged_for_default_backend(self):
        # Pre-backend journals must stay replayable: the digest only
        # changes when a non-default backend is selected.
        base = spec_from_run_kwargs(asm="add RAX, RAX")
        assert spec_digest(base) == spec_digest(
            spec_from_run_kwargs(asm="add RAX, RAX", backend="sim"))
        assert spec_digest(base) != spec_digest(
            spec_from_run_kwargs(asm="add RAX, RAX", backend="analytic"))

    def test_result_records_backend(self):
        result = spec_from_run_kwargs(
            asm="add RAX, RAX", backend="analytic"
        ).execute()
        assert result.ok
        assert result.backend == "analytic"
        assert result.values["Core cycles"] == pytest.approx(1.0)

    def test_journal_round_trips_backend(self, tmp_path):
        spec = spec_from_run_kwargs(asm="add RAX, RAX", backend="analytic")
        result = spec.execute()
        with ResultStore(str(tmp_path / "store")) as store:
            store.put(spec_digest(spec), journal_record(0, spec, result))
        with ResultStore(str(tmp_path / "store")) as store:
            record = store.get(spec_digest(spec))
        assert record["backend"] == "analytic"
        replayed = result_from_record(spec, record)
        assert replayed.backend == "analytic"
        assert replayed.values == result.values
        assert replayed.replayed

    def test_batch_runner_mixes_backends(self):
        specs = [
            spec_from_run_kwargs(asm="add RAX, RAX", backend=name)
            for name in ("sim", "analytic")
        ]
        results = BatchRunner(jobs=1).run(specs)
        assert [r.backend for r in results] == ["sim", "analytic"]
        assert results[0].values["Core cycles"] == pytest.approx(
            results[1].values["Core cycles"])


# ----------------------------------------------------------------------
# Capability gating in the baselines and case-study tools
# ----------------------------------------------------------------------
class TestToolGating:
    def test_agner_framework_runs_on_any_user_mode_backend(self):
        from repro.baselines import AgnerLikeFramework

        framework = AgnerLikeFramework(AnalyticTarget("Skylake"))
        result = framework.measure(asm="add RAX, RBX")
        assert result["Core cycles"] == pytest.approx(1.0)

    def test_agner_uncore_is_unschedulable(self):
        from repro.baselines import AgnerLikeFramework

        framework = AgnerLikeFramework(SimulatedCore("Skylake"))
        with pytest.raises(UnschedulableEventError) as excinfo:
            framework.measure(asm="nop", events=["CBOX0_LLC_LOOKUP.ANY"])
        assert "uncore" in str(excinfo.value)

    @pytest.mark.parametrize("backend", ["analytic", "auto"])
    def test_cacheseq_requires_cache_events(self, backend):
        # ``auto`` runs each escalated query on a fresh simulator, so the
        # machine cacheSeq prepares is not the one that would run.
        from repro.tools.cache import CacheSeq

        nb = NanoBench.create(backend=backend)
        with pytest.raises(CapabilityError) as excinfo:
            CacheSeq(nb, level=1)
        assert excinfo.value.backend == backend

    @pytest.mark.parametrize("backend", ["analytic", "auto"])
    def test_tlb_sweep_requires_sim(self, backend):
        # The sweep writes its pointer chain into nb.core's memory:
        # ``auto`` would chase it on a fresh simulator, from address 0.
        from repro.tools.tlb import measure_miss_rates

        nb = NanoBench.create(backend=backend)
        with pytest.raises(CapabilityError) as excinfo:
            measure_miss_rates(nb, [16, 64, 128])
        assert excinfo.value.backend == backend
        assert excinfo.value.capability == (
            "cache_events" if backend == "analytic" else "machine_state")

    @pytest.mark.parametrize("backend", ["analytic", "auto"])
    def test_branch_sweep_requires_sim(self, backend):
        # The sweep writes its direction bytes into nb.core's memory:
        # ``auto`` would run the branch on a fresh simulator, whose
        # bytes are all zero (always taken).
        from repro.tools.branch import measure_pattern

        nb = NanoBench.create(backend=backend)
        with pytest.raises(CapabilityError) as excinfo:
            measure_pattern(nb, "TN")
        assert excinfo.value.backend == backend

    def test_instr_corpus_runs_on_analytic(self):
        from repro.tools.instr import (
            characterize_corpus_batched,
            corpus_for_family,
        )

        variants = [v for v in corpus_for_family("SKL")
                    if not v.kernel_only][:3]
        profiles = characterize_corpus_batched(
            "Skylake", variants, jobs=1, backend="analytic"
        )
        assert all(p.error is None for p in profiles)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_backends_subcommand(self, capsys):
        assert cli_main(["backends"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "sim (default)", "analytic", "auto"]
        assert lines[1] == "analytic: " + BACKENDS["analytic"]

    def test_backend_flag_runs_analytic(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnschedulableEventWarning)
            assert cli_main(["-asm", "add RAX, RAX",
                             "-backend", "analytic"]) == 0
        out = capsys.readouterr().out
        assert "Core cycles: 1.00" in out

    def test_unknown_backend_fails_cleanly(self, capsys):
        assert cli_main(["-asm", "nop", "-backend", "nope"]) == 1
        assert "unknown measurement backend" in capsys.readouterr().err
