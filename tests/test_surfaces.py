"""Key-set pins of the public accounting surfaces.

Every dict or dataclass below is read by something outside the module
that fills it: ``/v1/stats`` by operators and the benchmark harness,
``ExecutionReport.router`` / ``sim_stats`` by the CLI and the batch
engine, store records by every later replay.  Refactoring the counters
behind them must not add, drop, rename or reorder a key.
"""

import dataclasses

from repro.batch import BatchReport, journal_record, spec_from_run_kwargs
from repro.batch.spec import BenchmarkSpec
from repro.core.nanobench import NanoBench
from repro.server import BenchServer, JobQueue, QuotaPolicy

SIM_STATS_KEYS = [
    "instructions", "fast_path_instructions", "fast_path_iterations",
    "fast_path_replays", "fallbacks", "replayed_runs", "wall_seconds",
]

ROUTER_KEYS = ["served_by", "audited", "audit_failed", "stats"]

ROUTER_STATS_KEYS = [
    "tier_hits", "escalations", "audits", "audit_passes", "audit_failures",
    "quarantined",
]

RECORD_KEYS = [
    "v", "digest", "index", "label", "values",
    "error", "host_seconds", "program_runs", "counter_groups",
    "simulated_cycles", "assemble_hits", "assemble_misses",
    "generate_hits", "generate_misses", "sim_instructions",
    "fast_path_instructions", "fast_path_fallbacks", "attempts",
    "quality_verdict", "backend", "served_by", "router_audited",
    "router_audit_failed",
]

BATCH_REPORT_FIELDS = [
    "n_specs", "n_errors", "jobs", "host_seconds", "program_runs",
    "simulated_cycles", "assemble_hits", "assemble_misses",
    "generate_hits", "generate_misses", "sim_instructions",
    "fast_path_instructions", "fast_path_fallbacks", "n_requeues",
    "n_worker_deaths", "n_timeouts", "n_store_hits", "n_store_misses",
]

STATS_SECTIONS = ["uptime_seconds", "queue", "router", "store", "quota"]

QUEUE_KEYS = [
    "jobs_accepted", "jobs_completed", "jobs_recovered",
    "jobs_checkpointed", "pending_jobs", "pending_specs", "specs_executed",
    "specs_from_store", "spec_errors", "journal_healed_torn_appends",
    "draining", "router_tiers", "router_audits", "router_audit_failures",
]

ROUTER_SECTION_KEYS = ["routing", "tiers", "audits", "audit_failures"]

STORE_SECTION_KEYS = [
    "records", "segments", "disk_bytes", "hits", "misses", "puts",
]

QUOTA_CLIENT_KEYS = ["client", "tokens", "rate", "burst", "accepted",
                     "rejected"]


def test_sim_stats_keys():
    nb = NanoBench.create("Skylake", seed=0)
    nb.run("add RAX, RAX", n_measurements=2, unroll_count=5)
    assert list(nb.last_report.sim_stats) == SIM_STATS_KEYS


def test_router_report_keys():
    nb = NanoBench.create("Skylake", seed=0, backend="auto")
    nb.run("add RAX, RBX", n_measurements=2, unroll_count=5)
    router = nb.last_report.router
    assert list(router) == ROUTER_KEYS
    assert list(router["stats"]) == ROUTER_STATS_KEYS
    assert isinstance(router["stats"]["quarantined"], list)
    assert sum(router["stats"]["tier_hits"].values()) == 1


def test_journal_record_keys():
    spec = spec_from_run_kwargs("add RAX, RAX", n_measurements=2,
                                unroll_count=5)
    record = journal_record(0, spec, spec.execute())
    assert list(record) == RECORD_KEYS


def test_batch_report_fields():
    assert [f.name for f in dataclasses.fields(BatchReport)] \
        == BATCH_REPORT_FIELDS


def test_v1_stats_sections_and_keys(tmp_path):
    queue = JobQueue(str(tmp_path / "store"), fsync=False,
                     quota=QuotaPolicy(rate=100.0, burst=10),
                     route_specs=True)
    bench = BenchServer(queue, port=0)
    try:
        queue.submit("alice", [BenchmarkSpec(asm="nop")])
        payload = bench.stats_payload()
    finally:
        bench.stop()
    assert list(payload) == STATS_SECTIONS
    assert list(payload["queue"]) == QUEUE_KEYS
    assert list(payload["router"]) == ROUTER_SECTION_KEYS
    assert list(payload["store"]) == STORE_SECTION_KEYS
    assert list(payload["quota"]) == ["alice"]
    assert list(payload["quota"]["alice"]) == QUOTA_CLIENT_KEYS
