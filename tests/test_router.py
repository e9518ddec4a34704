"""Tiered fidelity router (``repro.router``) acceptance suite.

Pins the routing contract end to end, plus the service-plane timing
bugfixes that ride along in the same PR:

* every routed answer is byte-identical to a *fresh* run on the tier
  that served it (the simulating tiers carry machine state across runs
  on one instance, so the router must rebuild them per run);
* escalation is automatic — a capability miss or an untrusted fidelity
  class (microcoded code) goes to the simulator, and each answer names
  its reason; the class gate escalates exactly what the analytic tier
  cannot answer;
* the router has two tiers, ``analytic`` and ``sim``; the continuous
  audit checks only analytic answers, is a deterministic content-hash
  sample, never lets a wrong answer through (the simulator's values are
  returned), and records divergences in the fuzzer's corpus format;
* routing is per query: a reused instance answers each query as a
  fresh one does, whatever ran on it before (a failed audit included);
* routing attribution flows through BatchResult, the store record codec,
  the job queue's counters, and ``-backend auto`` on the CLI;
* regression pins: fractional ``Retry-After`` headers are ceiled while
  the JSON body keeps the exact float, the queue/journal share one
  injectable monotonic clock, and the client's poll loop never sleeps past its deadline.
"""

import json
import math
import time
import urllib.error
import urllib.request
import warnings

import pytest

from repro.batch import (
    journal_record,
    result_from_record,
    spec_from_run_kwargs,
)
from repro.core.cli import main as cli_main
from repro.core.nanobench import NanoBench
from repro.core.retry import UnschedulableEventWarning
from repro.errors import (
    NanoBenchError,
    QuotaExceededError,
    UnschedulableEventError,
)
from repro.core.options import NanoBenchOptions
from repro.fuzz import DifferentialFuzzer
from repro.fuzz.corpus import load_corpus, save_corpus
from repro.perfctr.config import parse_config
from repro.perfctr.events import event_catalog
from repro.router import (
    ClassBound,
    FidelityTable,
    RoutedBench,
    audit_selected,
    classify_event,
    classify_query,
    load_fidelity_table,
    program_classes,
)
from repro.router import router as router_module
from repro.router.fidelity import DEFAULT_TABLE_PATH
from repro.server import BenchServer, DONE, JobJournal, JobQueue, QuotaPolicy
from repro.server.client import ServerClient, ServerUnavailableError
from repro.store.segment import scan_segment
from repro.tools.compare_backends import band_violations
from repro.uarch.specs import get_spec
from repro.uarch.timing import TimingTable


def _fresh(backend, asm, exact=False, **kwargs):
    """A fresh-instance reference run (what un-routed callers get)."""
    nb = NanoBench.create("Skylake", 0, backend=backend)
    if exact:
        nb.core.fast_path_enabled = False
    return dict(nb.run(asm, **kwargs))


def _router(monkeypatch, audit_fraction=0.0):
    monkeypatch.setattr(router_module, "AUDIT_FRACTION", audit_fraction)
    return RoutedBench("Skylake", 0)


SKL_CATALOG = event_catalog("SKL", 2)


# ----------------------------------------------------------------------
# Classification and the fidelity table
# ----------------------------------------------------------------------
class TestClassification:
    def test_counter_classes(self):
        assert classify_event(SKL_CATALOG["UOPS_ISSUED.ANY"]) == "uops"
        assert classify_event(SKL_CATALOG["BR_INST_RETIRED.ALL_BRANCHES"]) \
            == "branches"
        assert classify_event(SKL_CATALOG["MEM_LOAD_RETIRED.L1_HIT"]) \
            == "cache"
        assert classify_event(SKL_CATALOG["UOPS_DISPATCHED_PORT.PORT_0"]) \
            == "ports"
        uncore = [e for e in SKL_CATALOG.values() if e.uncore]
        assert uncore and classify_event(uncore[0]) == "uncore"

    def test_classify_query_adds_fixed_and_aperf(self):
        assert classify_query(()) == ["core"]
        assert classify_query((), fixed_counters=False) == []
        assert classify_query((), aperf_mperf=True) == ["aperf", "core"]
        classes = classify_query(
            (SKL_CATALOG["UOPS_ISSUED.ANY"],
             SKL_CATALOG["MEM_LOAD_RETIRED.L1_HIT"]))
        assert classes == ["cache", "core", "uops"]

    def test_program_classes_flags_microcode(self):
        from repro.core.codecache import cached_assemble

        spec = get_spec("Skylake")
        table = TimingTable(spec.family,
                            move_elimination=spec.move_elimination)
        assert program_classes(cached_assemble("cpuid"), table) \
            == ["microcode"]
        assert program_classes(cached_assemble("add RAX, RBX"), table) == []


class TestClassBound:
    def test_from_samples_statistics(self):
        bound = ClassBound.from_samples([0.0, -1.0, 0.5, 2.0])
        assert bound.n == 4
        assert bound.max == 2.0
        assert bound.mean == pytest.approx(0.875)
        # rank round(0.95 * 3) = 3 -> the maximum for tiny populations.
        assert bound.p95 == 2.0

    def test_empty_population(self):
        assert ClassBound.from_samples([]) == ClassBound()


class TestFidelityTable:
    def test_trust_gate_uses_p95(self):
        table = FidelityTable(backends={
            "analytic": {"core": ClassBound(mean=0.1, p95=0.4, max=9.0,
                                            n=10)},
        })
        assert table.trusted("analytic", "core", 0.5)
        assert not table.trusted("analytic", "core", 0.3)
        # Unmeasured classes and unknown backends are never trusted.
        assert not table.trusted("analytic", "uops", 100.0)
        assert not table.trusted("nope", "core", 100.0)

    def test_save_load_round_trip(self, tmp_path):
        table = FidelityTable(uarch="Skylake", reference="sim",
                              source="test", backends={
                                  "analytic": {
                                      "core": ClassBound(0.1, 0.2, 0.3, 7),
                                  },
                              })
        path = str(tmp_path / "fidelity.json")
        table.save(path)
        loaded = FidelityTable.load(path)
        assert loaded == table
        # Deterministic bytes: a second save is byte-identical.
        data = open(path).read()
        table.save(path)
        assert open(path).read() == data

    def test_builtin_fallback_without_artifact(self, tmp_path):
        table = load_fidelity_table(str(tmp_path / "missing.json"))
        assert table.source == "builtin-defaults"
        # Only the structurally-exact classes are trusted.
        assert table.trusted("analytic", "branches", 0.0)
        assert table.trusted("analytic", "memory", 0.0)
        assert not table.trusted("analytic", "core", 100.0)

    def test_committed_artifact_is_sane(self):
        table = load_fidelity_table()
        assert table.source == "A6_backend_fidelity"
        core = table.bound("analytic", "core")
        micro = table.bound("analytic", "microcode")
        assert core is not None and micro is not None
        # The microcode split is what keeps ordinary code trusted.
        assert core.p95 <= router_module.TOLERANCE < micro.p95
        assert core.n > 100 and micro.n > 0
        assert table.bound("analytic", "uops").p95 == 0.0


# ----------------------------------------------------------------------
# Audit sampling
# ----------------------------------------------------------------------
class TestAuditSampling:
    QUERY = dict(uarch="Skylake", seed=0, kernel_mode=True,
                 asm="add RAX, RBX", asm_init="", events=(), options=())

    def test_fraction_bounds(self):
        assert audit_selected(fraction=1.0, **self.QUERY)
        assert not audit_selected(fraction=0.0, **self.QUERY)

    def test_pure_function_of_content(self):
        first = audit_selected(fraction=0.5, **self.QUERY)
        assert audit_selected(fraction=0.5, **self.QUERY) == first
        # Event order does not matter (the hash sorts them).
        a = audit_selected(fraction=0.5, **dict(self.QUERY,
                                                events=("A", "B")))
        b = audit_selected(fraction=0.5, **dict(self.QUERY,
                                                events=("B", "A")))
        assert a == b

    def test_seed_and_content_move_the_sample(self):
        kernels = ["add RAX, %d" % i for i in range(64)]
        picks = [audit_selected(fraction=0.5, **dict(self.QUERY, asm=asm))
                 for asm in kernels]
        assert any(picks) and not all(picks)
        # The machine seed is part of the query content.
        reseeded = [
            audit_selected(fraction=0.5,
                           **dict(self.QUERY, asm=asm, seed=1))
            for asm in kernels
        ]
        assert reseeded != picks

    def test_default_fraction_and_sample_are_pinned(self):
        # The 1/64 default and the hashed payload fix which queries are
        # audited; stored attributions depend on both.
        assert router_module.AUDIT_FRACTION == 1.0 / 64.0
        picks = [audit_selected(fraction=0.5, **dict(
                     self.QUERY, seed=1, asm="add RAX, %d" % i))
                 for i in range(256)]
        assert sum(picks) == 124


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_create_auto_returns_routed_facade(self):
        nb = NanoBench.create("Skylake", 0, backend="auto")
        assert isinstance(nb, RoutedBench)
        assert nb.backend == "auto"

    def test_core_query_served_by_analytic_byte_identical(self,
                                                          monkeypatch):
        rb = _router(monkeypatch)
        values = dict(rb.run("add RAX, RBX", n_measurements=2))
        assert rb.last_report.router["served_by"] == "analytic"
        assert values == _fresh("analytic", "add RAX, RBX",
                                n_measurements=2)
        assert rb.last_report.router["escalation"] is None

    def test_cache_event_escalates_on_capability(self, monkeypatch):
        rb = _router(monkeypatch)
        kwargs = dict(asm_init="mov [R14], R14", n_measurements=2,
                      events=("MEM_LOAD_RETIRED.L1_HIT",))
        values = dict(rb.run("mov R14, [R14]", **kwargs))
        assert rb.last_report.router["served_by"] == "sim"
        assert rb.last_report.router["escalation"] == "capability"
        assert values == _fresh("sim", "mov R14, [R14]", **kwargs)
        assert values["MEM_LOAD_RETIRED.L1_HIT"] == pytest.approx(1.0)

    def test_microcode_escalates_on_fidelity(self, monkeypatch):
        rb = _router(monkeypatch)
        values = dict(rb.run("cpuid", n_measurements=2))
        assert rb.last_report.router["served_by"] == "sim"
        assert rb.last_report.router["escalation"] == "fidelity"
        assert values == _fresh("sim", "cpuid", n_measurements=2)

    def test_zero_tolerance_forces_all_off_analytic(self, monkeypatch):
        monkeypatch.setattr(router_module, "TOLERANCE", 0.0)
        rb = _router(monkeypatch)
        rb.run("add RAX, RBX", n_measurements=2)
        assert rb.last_report.router["served_by"] == "sim"
        assert rb.last_report.router["escalation"] == "fidelity"

    def test_routed_runs_start_pristine(self, monkeypatch):
        # The simulating tiers carry memory/cache state across runs on
        # one instance; a reused tier would answer the second routed
        # query differently from a fresh direct run.  Pins the rebuild.
        rb = _router(monkeypatch)
        kwargs = dict(asm_init="mov [R14], R14", n_measurements=2,
                      events=("MEM_LOAD_RETIRED.L2_MISS",))
        reference = _fresh("sim", "add [R14], RAX", **kwargs)
        for _ in range(2):
            assert dict(rb.run("add [R14], RAX", **kwargs)) == reference

    def test_decisions_deterministic_and_order_independent(self,
                                                            monkeypatch):
        queries = [("add RAX, RBX", ()), ("cpuid", ()),
                   ("mov R14, [R14]", ("MEM_LOAD_RETIRED.L1_HIT",)),
                   ("imul RAX, RBX", ())]

        def decide(ordering):
            rb = _router(monkeypatch, audit_fraction=0.25)
            decisions = {}
            for asm, events in ordering:
                init = "mov [R14], R14" if events else ""
                rb.run(asm, init, events=events, n_measurements=2)
                routed = rb.last_report.router
                decisions[asm] = (routed["served_by"], routed["audited"])
            return decisions

        forward = decide(queries)
        assert decide(list(reversed(queries))) == forward


# ----------------------------------------------------------------------
# The continuous audit
# ----------------------------------------------------------------------
class TestAudit:
    RMW = "add [R14], RAX"  # analytic misses the RMW store latency

    def test_two_tiers(self, monkeypatch):
        # An audit reruns the analytic answer on a fresh sim tier; every
        # answer comes from one of the two.
        rb = _router(monkeypatch, audit_fraction=1.0)
        rb.run("add RAX, RBX", n_measurements=2)
        routed = rb.last_report.router
        assert (routed["served_by"], routed["audited"]) == ("analytic", True)
        rb.run("cpuid", n_measurements=2)
        routed = rb.last_report.router
        assert (routed["served_by"], routed["audited"]) == ("sim", False)

    def test_violation_returns_exact_and_records(self, tmp_path,
                                                 monkeypatch):
        rb = _router(monkeypatch, audit_fraction=1.0)
        values = dict(rb.run(self.RMW, n_measurements=2))
        routed = rb.last_report.router
        assert routed["audited"] and routed["audit_failed"]
        assert rb.last_report.router["served_by"] == "sim"
        # The audited answer is the simulator's, never the cheap one,
        # and equals exact simulation with the fast path off.
        assert values == _fresh("sim", self.RMW, exact=True,
                                n_measurements=2)
        # It left the analytic tier by its audit, not by an escalation.
        assert routed["escalation"] is None
        # The divergence is a corpus-format record that round-trips.
        assert len(rb.divergences) == 1
        record = rb.divergences[0]
        assert record.category == "router"
        assert record.provenance == "router-audit:analytic"
        assert record.deviation > router_module.TOLERANCE
        path = str(tmp_path / "corpus.jsonl")
        save_corpus(path, rb.divergences)
        assert load_corpus(path) == rb.divergences

    def test_record_replays_the_audited_query(self, monkeypatch):
        # The record keeps the query the audit ran: config-given events
        # and the instance's options, not the fuzzer's.
        monkeypatch.setattr(router_module, "AUDIT_FRACTION", 1.0)
        rb = RoutedBench("Skylake", 0, options=NanoBenchOptions(
            n_measurements=3, unroll_count=50))
        config = parse_config("0E.01 UOPS_ISSUED.ANY\n", SKL_CATALOG)
        rb.run(self.RMW, config=config)
        record, = rb.divergences
        assert record.spec.events == ("UOPS_ISSUED.ANY",)
        assert record.spec.option_dict() == {"n_measurements": 3,
                                             "unroll_count": 50}
        assert (record.spec.backend, record.spec.label) == ("sim", "")
        reference, candidate, found = DifferentialFuzzer(jobs=1).compare(
            "router", record.spec)
        assert reference.values == record.reference
        assert candidate.values == record.candidate
        violations = band_violations(
            record.reference, record.candidate,
            router_module.TOLERANCE, router_module.REL_TOLERANCE)
        assert "out of band %s" % sorted(violations) in found

    def test_routing_is_order_independent_after_a_failed_audit(
            self, monkeypatch):
        # Nothing carries over from one query to the next: on a reused
        # instance each query routes as on a fresh one, in either
        # order, even after the RMW query fails its audit.
        queries = [self.RMW, "add RAX, RBX"]

        def answer(rb, asm):
            values = dict(rb.run(asm, n_measurements=2))
            routed = rb.last_report.router
            return (values, routed["served_by"], routed["audited"],
                    routed["escalation"])

        fresh = {asm: answer(_router(monkeypatch, audit_fraction=1.0), asm)
                 for asm in queries}
        assert fresh[self.RMW][1:] == ("sim", True, None)
        assert fresh["add RAX, RBX"][1:] == ("analytic", True, None)
        for ordering in (queries, queries[::-1]):
            rb = _router(monkeypatch, audit_fraction=1.0)
            for asm in ordering:
                assert answer(rb, asm) == fresh[asm], (ordering, asm)

    def test_sim_answers_are_never_audited(self, monkeypatch):
        rb = _router(monkeypatch, audit_fraction=1.0)
        queries = [
            ("cpuid", "", (), "fidelity"),
            ("mov R14, [R14]", "mov [R14], R14",
             ("MEM_LOAD_RETIRED.L1_HIT",), "capability"),
        ]
        for asm, asm_init, events, reason in queries:
            rb.run(asm, asm_init, events=events, n_measurements=2)
            routed = rb.last_report.router
            assert routed["served_by"] == "sim"
            assert not routed["audited"]
            assert routed["escalation"] == reason

    def test_passing_audit_keeps_cheap_answer(self, monkeypatch):
        rb = _router(monkeypatch, audit_fraction=1.0)
        values = dict(rb.run("add RAX, RBX", n_measurements=2))
        assert rb.last_report.router["served_by"] == "analytic"
        routed = rb.last_report.router
        assert routed["audited"] and not routed["audit_failed"]
        assert values == _fresh("analytic", "add RAX, RBX",
                                n_measurements=2)


# ----------------------------------------------------------------------
# The class gate agrees with the analytic tier
# ----------------------------------------------------------------------
class TestGateAgreement:
    """Every class the gate escalates on capability alone is one the
    analytic tier cannot answer: run directly, it skips the event (the
    graceful-degradation path) or refuses the query up front."""

    QUERIES = {
        "cache": dict(asm="mov R14, [R14]", asm_init="mov [R14], R14",
                      events=["MEM_LOAD_RETIRED.L1_HIT"]),
        "uncore": dict(asm="nop", events=["CBOX0_LLC_LOOKUP.ANY"]),
        "aperf": dict(asm="nop", aperf_mperf=True),
    }

    def test_every_blind_class_has_a_query(self):
        assert set(self.QUERIES) == router_module._ANALYTIC_BLIND_CLASSES

    @pytest.mark.parametrize("cls", sorted(QUERIES))
    def test_gate_escalates_what_analytic_cannot_answer(self, cls,
                                                        monkeypatch):
        query = dict(self.QUERIES[cls], n_measurements=2)
        events = [SKL_CATALOG[name] for name in query.get("events", ())]
        assert cls in classify_query(
            events, aperf_mperf=query.get("aperf_mperf", False))
        rb = _router(monkeypatch)
        rb.run(**query)
        assert rb.last_report.router["served_by"] == "sim"
        assert rb.last_report.router["escalation"] == "capability"

        nb = NanoBench.create("Skylake", 0, backend="analytic")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnschedulableEventWarning)
                values = nb.run(**query)
        except UnschedulableEventError:
            pytest.fail("degradation is on: the event must be skipped")
        except NanoBenchError:  # CapabilityError included
            return
        skipped = nb.last_report.skipped_events
        assert skipped and not set(skipped) & set(values)


# ----------------------------------------------------------------------
# Attribution through batch, store, queue, CLI
# ----------------------------------------------------------------------
class TestAttribution:
    def test_batch_result_carries_router_fields(self):
        spec = spec_from_run_kwargs("add RAX, RBX", n_measurements=2,
                                    unroll_count=10, backend="auto")
        result = spec.execute()
        assert result.ok and result.served_by == "analytic"
        assert result.router_audited is False
        # The store record codec round-trips the attribution.
        record = journal_record(0, spec, result)
        restored = result_from_record(spec, record)
        assert restored.served_by == "analytic"
        assert restored.router_audited is False
        assert restored.router_audit_failed is False

    def test_queue_routes_default_backend_specs(self, tmp_path):
        queue = JobQueue(str(tmp_path / "store"), fsync=False,
                         route_specs=True)
        specs = [
            spec_from_run_kwargs("add RAX, RBX", n_measurements=2,
                                 unroll_count=10, label="core"),
            spec_from_run_kwargs("mov R14, [R14]", "mov [R14], R14",
                                 events=("MEM_LOAD_RETIRED.L1_HIT",),
                                 n_measurements=2, unroll_count=10,
                                 label="cache"),
        ]
        try:
            job = queue.submit("alice", specs)
            assert all(spec.backend == "auto" for spec in job.specs)
            queue.start()
            deadline = time.monotonic() + 60
            while job.state != DONE:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            served = {o["label"]: o["served_by"] for o in job.outcomes}
            assert served == {"core": "analytic", "cache": "sim"}
            # Identical resubmission answers from the store.
            replay = queue.submit("alice", specs)
            deadline = time.monotonic() + 60
            while replay.state != DONE:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert all(o["served_by"] == "store" for o in replay.outcomes)
            stats = queue.stats()
            assert stats.router_tiers == {"analytic": 1, "sim": 1,
                                          "store": 2}
            # Stored records keep the attribution for replays.
            record = queue.result(job.digests[0])
            assert record["backend"] == "auto"
            assert record["served_by"] == "analytic"
        finally:
            queue.stop()

    def test_pinned_backend_is_respected(self, tmp_path):
        queue = JobQueue(str(tmp_path / "store"), fsync=False,
                         route_specs=True)
        try:
            spec = spec_from_run_kwargs("add RAX, RBX", n_measurements=2,
                                        unroll_count=10,
                                        backend="analytic")
            job = queue.submit("alice", [spec])
            assert job.specs[0].backend == "analytic"
        finally:
            queue.stop()

    def test_stats_endpoint_exposes_router_block(self, tmp_path):
        queue = JobQueue(str(tmp_path / "store"), fsync=False,
                         route_specs=True)
        bench = BenchServer(queue, port=0)
        bench.start()
        try:
            payload = bench.stats_payload()
            assert payload["router"]["routing"] is True
            assert payload["router"]["tiers"] == {}
            assert payload["router"]["audits"] == 0
        finally:
            bench.stop()

    def test_cli_backend_auto_smoke(self, capsys):
        exit_code = cli_main([
            "-asm", "add RAX, RBX", "-backend", "auto",
            "-n_measurements", "2",
        ])
        assert exit_code == 0
        assert "Core cycles: 1.00" in capsys.readouterr().out

    def test_cli_backend_auto_verbose_with_config(self, tmp_path, capsys):
        # The verbose report reads the machine description from the
        # uarch name; the router has no machine of its own to ask.
        config = tmp_path / "magic-cfg.txt"
        config.write_text("UOPS_ISSUED.ANY\n")
        exit_code = cli_main([
            "-asm", "add RAX, RBX", "-backend", "auto", "-verbose",
            "-config", str(config), "-n_measurements", "2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "UOPS_ISSUED.ANY: 1.00" in captured.out
        assert "modelled wall time 2.0 ms" in captured.err


# ----------------------------------------------------------------------
# Service-plane regression pins (the satellite bugfixes)
# ----------------------------------------------------------------------
class TestRetryAfterHeaderRegression:
    def test_fractional_retry_after_is_ceiled_in_header_only(self,
                                                             tmp_path):
        # rate 0.4/s, burst 2: the third spec needs 2.5 s of refill —
        # a fractional hint that must reach the body exactly and the
        # header as an RFC-valid integer (ceil, never 0).
        clock = [0.0]
        queue = JobQueue(str(tmp_path / "store"), fsync=False,
                         quota=QuotaPolicy(rate=0.4, burst=2,
                                           clock=lambda: clock[0]))
        bench = BenchServer(queue, port=0)
        bench.start()
        try:
            payload = {"client": "alice", "specs": [
                {"asm": "nop", "options": [["n_measurements", 2],
                                           ["unroll_count", 5]]},
            ]}
            body = json.dumps(dict(payload, specs=payload["specs"] * 2)
                              ).encode()
            request = urllib.request.Request(
                bench.url("/v1/jobs"), data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 202
            request = urllib.request.Request(
                bench.url("/v1/jobs"),
                data=json.dumps(payload).encode(), method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10)
            assert info.value.code == 429
            error = json.loads(info.value.read())["error"]
            assert error["retry_after"] == pytest.approx(2.5)
            header = info.value.headers["Retry-After"]
            assert header == str(math.ceil(error["retry_after"])) == "3"
        finally:
            bench.stop()


class TestQueueClockRegression:
    def test_journal_timestamps_use_injected_monotonic_clock(self,
                                                             tmp_path):
        clock = [1000.0]
        queue = JobQueue(str(tmp_path / "store"), fsync=False,
                         clock=lambda: clock[0])
        try:
            clock[0] = 1234.5
            job = queue.submit("alice", [
                spec_from_run_kwargs("nop", n_measurements=2,
                                     unroll_count=5),
            ])
            assert job.created_ts == 1234.5
            records = [r for _, r in
                       scan_segment(queue.journal.path).records]
            assert records and all(r["ts"] == 1234.5 for r in records)
        finally:
            queue.stop()

    def test_queue_defaults_to_quota_clock(self, tmp_path):
        clock = [7.0]
        quota = QuotaPolicy(rate=100.0, burst=100,
                            clock=lambda: clock[0])
        queue = JobQueue(str(tmp_path / "store"), fsync=False,
                         quota=quota)
        try:
            assert queue._clock() == 7.0
            assert queue.journal._clock() == 7.0
        finally:
            queue.stop()

    def test_journal_default_clock_is_monotonic(self, tmp_path):
        journal = JobJournal(str(tmp_path / "jobs.jsonl"))
        assert journal._clock is time.monotonic


class TestClientWaitRegression:
    def test_sleeps_never_exceed_remaining_budget(self, monkeypatch):
        # A server in long backoff suggests retry_after=30; a 0.2 s
        # timeout must fail in ~0.2 s, not sleep the full suggestion.
        client = ServerClient(port=1, retries=0)

        def fake_job(self, job_id):
            raise QuotaExceededError("backoff", retry_after=30.0)

        sleeps = []
        monkeypatch.setattr(ServerClient, "job", fake_job)
        monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
        started = time.monotonic()
        with pytest.raises(ServerUnavailableError):
            client.wait("job-1", timeout=0.2)
        assert time.monotonic() - started < 5.0
        assert sleeps and max(sleeps) <= 0.2

    def test_non_retryable_errors_propagate(self, monkeypatch):
        from repro.errors import JobNotFoundError

        client = ServerClient(port=1, retries=0)

        def fake_job(self, job_id):
            raise JobNotFoundError("gone")

        monkeypatch.setattr(ServerClient, "job", fake_job)
        with pytest.raises(JobNotFoundError):
            client.wait("job-1", timeout=0.2)


class TestArtifactCommitted:
    def test_default_table_path_exists(self):
        # The committed JSON artifact ships with the package; the
        # builtin fallback is for stripped checkouts only.
        import os

        assert os.path.exists(DEFAULT_TABLE_PATH)
