"""Benchmark-service (``repro.server``) acceptance suite.

Pins the service's robustness contract end to end:

* per-client token buckets are deterministic (injected clock) and an
  over-quota client's 429 + ``Retry-After`` never blocks an under-quota
  client on the same server — including with the service fault sites
  armed;
* the job journal tolerates torn writes (crash-cut tails and the
  ``queue.journal_torn`` injection) and recovery after an abrupt stop
  re-enqueues unfinished jobs whose completed prefix answers from the
  store with zero re-simulation;
* the HTTP layer speaks the structured error taxonomy, flips
  ``/readyz`` to 503 *before* the listener closes on drain, and keeps
  serving healthy clients while ``server.accept_drop`` /
  ``server.slow_client`` misbehave;
* the store's advisory :class:`~repro.store.FileLock` really excludes
  a live ``nanobench store gc`` process while a server holds the
  store, with clean poll-retry and no corruption — also under
  ``store.torn_write`` chaos;
* the ``nanobench serve`` / ``nanobench submit`` CLI round-trips.
"""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings
from dataclasses import replace

import pytest

from repro.batch import BenchmarkSpec, spec_digest, spec_from_run_kwargs
from repro.errors import (
    BadSubmissionError,
    JobNotFoundError,
    QueueFullError,
    QuotaExceededError,
    ServerDrainingError,
    StoreError,
    is_retryable,
)
from repro.faults.plan import FaultPlan
from repro.server import (
    ACCEPTED,
    DONE,
    RUNNING,
    BenchServer,
    JobJournal,
    JobQueue,
    QuotaPolicy,
    ServerClient,
    ServerUnavailableError,
    TokenBucket,
    spec_from_payload,
    spec_to_payload,
)
from repro.server.http import MAX_BODY_BYTES
from repro.server.queue import job_results_payload
from repro.store import ResultStore


def _specs(n=2, seed=0):
    kernels = ["nop", "add RAX, RAX", "imul RAX, RBX", "xor RCX, RCX",
               "mov R14, [R14]"]
    return [
        spec_from_run_kwargs(asm=kernels[i % len(kernels)],
                             n_measurements=2, unroll_count=5, seed=seed,
                             label="%d" % i)
        for i in range(n)
    ]


def _queue(tmp_path, name="store", **kwargs):
    kwargs.setdefault("fsync", False)
    return JobQueue(str(tmp_path / name), **kwargs)


def _run_to_done(queue, job, timeout=30.0):
    queue.start()
    deadline = time.monotonic() + timeout
    while job.state != DONE:
        assert time.monotonic() < deadline, \
            "job %s stuck in %r" % (job.job_id, job.state)
        time.sleep(0.01)
    return job


# ----------------------------------------------------------------------
# Quotas
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_exact_retry_after(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=4, clock=lambda: clock[0])
        assert bucket.take(4) is None
        wait = bucket.take(2)
        assert wait == pytest.approx(1.0)
        # Refill exactly that long and the same charge succeeds.
        clock[0] += wait
        assert bucket.take(2) is None

    def test_refill_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=100.0, burst=5, clock=lambda: clock[0])
        clock[0] = 1e6
        assert bucket.tokens == 5.0

    def test_zero_rate_is_one_shot(self):
        bucket = TokenBucket(rate=0.0, burst=3, clock=lambda: 0.0)
        assert bucket.take(3) is None
        assert bucket.take(1) == float("inf")


class TestQuotaPolicy:
    def test_clients_are_isolated(self):
        clock = [0.0]
        policy = QuotaPolicy(rate=1.0, burst=2, clock=lambda: clock[0])
        policy.charge("greedy", 2)
        with pytest.raises(QuotaExceededError) as info:
            policy.charge("greedy", 1)
        assert info.value.retry_after == pytest.approx(1.0)
        assert is_retryable(info.value)
        # The other client's bucket is untouched.
        policy.charge("polite", 2)

    def test_oversized_batch_is_fatal_not_retryable(self):
        policy = QuotaPolicy(rate=1.0, burst=2, clock=lambda: 0.0)
        with pytest.raises(BadSubmissionError) as info:
            policy.charge("anyone", 3)
        assert not is_retryable(info.value)

    def test_snapshot_counts_accepts_and_rejections(self):
        clock = [0.0]
        policy = QuotaPolicy(rate=1.0, burst=1, clock=lambda: clock[0])
        policy.charge("a", 1)
        with pytest.raises(QuotaExceededError):
            policy.charge("a", 1)
        snapshot = policy.snapshot()["a"]
        assert (snapshot.accepted, snapshot.rejected) == (1, 1)


# ----------------------------------------------------------------------
# Spec wire codec
# ----------------------------------------------------------------------
class TestSpecCodec:
    def test_round_trip_preserves_digest(self):
        for spec in _specs(3):
            payload = json.loads(json.dumps(spec_to_payload(spec)))
            rebuilt = spec_from_payload(payload)
            assert rebuilt == spec
            assert spec_digest(rebuilt) == spec_digest(spec)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown spec field"):
            spec_from_payload({"asm": "nop", "asm_exit": "nop"})

    def test_stability_cap_travels_as_an_option(self):
        spec = spec_from_run_kwargs(asm="nop", max_n_measurements=20)
        payload = json.loads(json.dumps(spec_to_payload(spec)))
        assert payload["options"] == [["max_n_measurements", 20]]
        assert spec_from_payload(payload) == spec
        # The former separate field is refused like any unknown one.
        with pytest.raises(ValueError, match="unknown spec field"):
            spec_from_payload({"asm": "nop",
                               "stability": [["max_n_measurements", 20]]})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            spec_from_payload(["nop"])

    def test_option_without_value_rejected(self):
        # A ValueError is the HTTP layer's 400; an IndexError escaped it.
        with pytest.raises(ValueError):
            spec_from_payload({"asm": "nop", "options": [["unroll_count"]]})


# ----------------------------------------------------------------------
# Job journal
# ----------------------------------------------------------------------
class TestJobJournal:
    def _job(self, queue, n=2):
        return queue.submit("alice", _specs(n))

    def test_torn_tail_is_truncated_on_load(self, tmp_path):
        queue = _queue(tmp_path)
        self._job(queue)
        queue.close()
        path = os.path.join(str(tmp_path / "store"), "jobs.jsonl")
        good = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b'{"digest": "job-999", "state": "acc')
        journal = JobJournal(path)
        jobs = journal.load()
        assert list(jobs) == ["job-00000001"]
        assert journal.truncations == 1
        assert os.path.getsize(path) == good
        journal.close()

    def test_interior_corruption_drops_line_with_warning(self, tmp_path):
        queue = _queue(tmp_path)
        self._job(queue)
        self._job(queue)
        queue.close()
        path = os.path.join(str(tmp_path / "store"), "jobs.jsonl")
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[0] = b'{"x": ' + b"Z" * 40 + b"}\n"
        with open(path, "wb") as handle:
            handle.writelines(lines)
        journal = JobJournal(path)
        with pytest.warns(UserWarning, match="corrupt line"):
            jobs = journal.load()
        assert list(jobs) == ["job-00000002"]
        journal.close()

    def test_corrupt_line_is_quarantined_once(self, tmp_path):
        from repro.store import verify_store

        queue = _queue(tmp_path)
        self._job(queue)
        self._job(queue)
        queue.close()
        root = tmp_path / "store"
        path = root / "jobs.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        damaged = lines[0].replace(b'"alice"', b'"alicf"')
        lines[0] = damaged
        path.write_bytes(b"".join(lines))
        journal = JobJournal(path)
        with pytest.warns(UserWarning, match="corrupt line"):
            assert list(journal.load()) == ["job-00000002"]
        # The second load finds a clean file: no warning, same jobs.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(journal.load()) == ["job-00000002"]
        journal.close()
        assert damaged not in path.read_bytes()
        (raw,) = (root / "quarantine").iterdir()
        assert raw.read_bytes() == damaged
        assert verify_store(root).quarantined_files == 1

    def test_renamed_checksum_key_drops_the_record(self, tmp_path):
        # A job record whose "sha" key name is damaged is unchecked
        # content, not a legacy record: it must be dropped, not loaded.
        queue = _queue(tmp_path)
        self._job(queue)
        self._job(queue)
        queue.close()
        path = os.path.join(str(tmp_path / "store"), "jobs.jsonl")
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[0] = lines[0].replace(b'"sha": ', b'"rha": ')
        with open(path, "wb") as handle:
            handle.writelines(lines)
        journal = JobJournal(path)
        with pytest.warns(UserWarning, match="corrupt line"):
            jobs = journal.load()
        assert list(jobs) == ["job-00000002"]
        journal.close()

    def test_journal_torn_injection_heals_in_place(self, tmp_path):
        from repro.errors import StoreError
        queue = _queue(tmp_path)
        acked = []
        with FaultPlan({"queue.journal_torn": 0.5}, seed=3):
            for _ in range(10):
                try:
                    acked.append(self._job(queue).job_id)
                except StoreError:
                    pass  # bounded self-healing gave up: never acked
        healed = queue.journal.healed_torn_appends
        queue.close()
        assert healed > 0
        assert acked  # some submissions survived the injection
        # Every ack survived intact despite the injected cuts, and a
        # failed append left no partial line behind.
        journal = JobJournal(
            os.path.join(str(tmp_path / "store"), "jobs.jsonl"))
        jobs = journal.load()
        assert sorted(jobs) == sorted(acked)
        assert journal.truncations == 0
        journal.close()

    def test_journal_torn_rate_one_gives_up_cleanly(self, tmp_path):
        from repro.errors import StoreError
        queue = _queue(tmp_path)
        self._job(queue)
        with FaultPlan({"queue.journal_torn": 1.0}, seed=0):
            with pytest.raises(StoreError, match="did not complete"):
                self._job(queue)
        queue.close()
        journal = JobJournal(
            os.path.join(str(tmp_path / "store"), "jobs.jsonl"))
        assert list(journal.load()) == ["job-00000001"]
        assert journal.truncations == 0
        journal.close()


# ----------------------------------------------------------------------
# Queue semantics
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_budgets_and_routing_keep_every_other_spec_field(self,
                                                             tmp_path):
        queue = _queue(tmp_path, route_specs=True, cycle_budget=1000,
                       uop_budget=2000)
        spec = BenchmarkSpec(
            asm="add RAX, RAX", asm_init="xor RAX, RAX",
            events=("UOPS_ISSUED.ANY",), uarch="Haswell", seed=3,
            kernel_mode=False,
            options=(("max_n_measurements", 20), ("n_measurements", 2)),
            label="tagged")
        routed = queue._with_budgets(spec)
        assert routed == replace(
            spec, backend="auto",
            options=(("cycle_budget", 1000), ("max_n_measurements", 20),
                     ("n_measurements", 2), ("uop_budget", 2000)))
        queue.stop()

    def test_submit_run_and_dedup(self, tmp_path):
        queue = _queue(tmp_path)
        job = _run_to_done(queue, queue.submit("alice", _specs(3)))
        assert (job.n_store_hits, job.n_store_misses) == (0, 3)
        assert all(o["ok"] for o in job.outcomes)
        # Identical digests answer from the store: zero re-simulation.
        again = _run_to_done(queue, queue.submit("bob", _specs(3)))
        assert (again.n_store_hits, again.n_store_misses) == (3, 0)
        assert all(o["from_store"] for o in again.outcomes)
        stats = queue.stats()
        assert stats.specs_executed == 3
        assert stats.specs_from_store == 3
        queue.stop()

    def test_results_are_byte_identical_across_jobs(self, tmp_path):
        queue = _queue(tmp_path)
        first = _run_to_done(queue, queue.submit("a", _specs(2)))
        second = _run_to_done(queue, queue.submit("b", _specs(2)))
        for digest in first.digests:
            assert queue.result(digest) is not None
        assert first.digests == second.digests
        queue.stop()

    def test_failed_admission_append_spends_no_quota(self, tmp_path):
        queue = _queue(tmp_path, quota=QuotaPolicy(rate=0.001, burst=5,
                                                   clock=lambda: 0.0))
        with FaultPlan({"queue.journal_torn": 1.0}, seed=0):
            with pytest.raises(StoreError, match="did not complete"):
                queue.submit("alice", _specs(2))
        # The refused submission was refunded: the whole burst is left.
        job = queue.submit("alice", _specs(4, seed=1))
        assert job.state == ACCEPTED
        assert queue.stats().jobs_accepted == 1
        queue.stop()

    def _fail_first_append(self, queue, state):
        """Make the journal append of the first *state* record raise
        :class:`StoreError`; returns the ids it failed for."""
        append = queue.journal.append
        failed = []

        def flaky_append(job, ts=None):
            if job.state == state and not failed:
                failed.append(job.job_id)
                raise StoreError("injected journal append failure")
            return append(job, ts)

        queue.journal.append = flaky_append
        return failed

    def test_failed_running_append_keeps_the_worker(self, tmp_path):
        queue = _queue(tmp_path)
        failed = self._fail_first_append(queue, RUNNING)
        first = queue.submit("alice", _specs(2))
        second = queue.submit("alice", _specs(2, seed=1))
        with pytest.warns(UserWarning, match=first.job_id):
            _run_to_done(queue, first, timeout=10.0)
            _run_to_done(queue, second, timeout=10.0)
        assert failed == [first.job_id]
        assert all(o["ok"] for o in first.outcomes + second.outcomes)
        queue.stop()

    def test_failed_done_append_reruns_from_the_store(self, tmp_path):
        queue = _queue(tmp_path)
        failed = self._fail_first_append(queue, DONE)
        first = queue.submit("alice", _specs(2))
        second = queue.submit("alice", _specs(2, seed=1))
        with pytest.warns(UserWarning, match=first.job_id):
            _run_to_done(queue, first, timeout=10.0)
            _run_to_done(queue, second, timeout=10.0)
        assert failed == [first.job_id]
        queue.stop()
        # The lost ``done`` leaves ``running`` last on disk: recovery
        # re-runs the job, and the store answers every spec.
        queue = _queue(tmp_path)
        assert queue.stats().jobs_recovered == 1
        rerun = _run_to_done(queue, queue.job(first.job_id))
        assert (rerun.n_store_hits, rerun.n_store_misses) == (2, 0)
        queue.stop()

    def test_queue_full_gives_retry_after(self, tmp_path):
        queue = _queue(tmp_path, max_queued_specs=3)
        queue.submit("a", _specs(2))  # worker not started: stays queued
        with pytest.raises(QueueFullError) as info:
            queue.submit("b", _specs(2))
        assert info.value.retry_after > 0
        assert is_retryable(info.value)
        queue.stop()

    def test_queue_full_refusal_leaves_quota_untouched(self, tmp_path):
        clock = [0.0]
        queue = _queue(tmp_path, max_queued_specs=2,
                       quota=QuotaPolicy(rate=1, burst=4,
                                         clock=lambda: clock[0]))
        queue.submit("a", _specs(2))  # worker not started: stays queued
        # Over quota wins over queue full (no queue-state timing leak).
        with pytest.raises(QuotaExceededError):
            queue.submit("a", _specs(3, seed=1))
        # In quota but queue full: the refusal spends nothing.
        with pytest.raises(QueueFullError):
            queue.submit("a", _specs(1, seed=2))
        bucket = queue.quota.snapshot()["a"]
        assert (bucket.tokens, bucket.accepted, bucket.rejected) \
            == (2.0, 1, 1)
        queue.stop()

    def test_all_hit_job_is_answered_at_admission_like_the_worker(
            self, tmp_path):
        # One spec fails: stored failures must count as errors too.
        specs = _specs(2) + [spec_from_run_kwargs(
            asm="frobnicate RAX", n_measurements=2, unroll_count=5,
            label="bad")]

        def counts(queue):
            store = queue.store.counters
            return queue.stats(), (store.hits, store.misses)

        def delta(after, before):
            return (after[0].delta(before[0]).to_dict(),
                    tuple(a - b for a, b in zip(after[1], before[1])))

        # The worker answers a job whose specs were all stored after
        # it was queued: two copies are queued before the worker runs.
        worker_queue = _queue(tmp_path, name="worker")
        queue = _queue(tmp_path, name="admission")
        try:
            jobs = [worker_queue.submit("a", specs) for _ in range(2)]
            _run_to_done(worker_queue, jobs[1])
            assert jobs[1].n_store_hits == 3
            fresh = _run_to_done(queue, queue.submit("a", specs))
            one_job = counts(queue)
            by_worker = delta(counts(worker_queue), one_job)

            answered = queue.submit("a", specs)
            assert answered.state == DONE
            assert answered.specs == []
            assert (answered.n_store_hits, answered.n_store_misses,
                    answered.n_errors) == (3, 0, 1)
            assert answered.outcomes == [
                dict(o, from_store=True, served_by="store")
                for o in fresh.outcomes]
            assert answered.outcomes == jobs[1].outcomes
            assert delta(counts(queue), one_job) == by_worker
            assert by_worker[1] == (3, 0)
        finally:
            worker_queue.stop()
            queue.stop()

    def test_job_deadline_fails_remaining_specs(self, tmp_path):
        queue = _queue(tmp_path)
        job = _run_to_done(
            queue, queue.submit("a", _specs(3), deadline_seconds=1e-9))
        assert job.error is not None and "deadline" in job.error
        assert job.n_errors >= 1
        assert len(job.outcomes) == 3
        assert any("deadline" in (o["error"] or "") for o in job.outcomes)
        queue.stop()

    def test_watchdog_budgets_injected_into_budget_less_specs(
            self, tmp_path):
        queue = _queue(tmp_path, cycle_budget=123456)
        job = queue.submit("a", _specs(1))
        assert dict(job.specs[0].options)["cycle_budget"] == 123456
        # A spec carrying its own budget keeps it.
        spec = spec_from_run_kwargs(asm="nop", n_measurements=2,
                                    unroll_count=5, cycle_budget=77)
        job2 = queue.submit("a", [spec])
        assert dict(job2.specs[0].options)["cycle_budget"] == 77
        queue.stop()

    def test_unknown_job_raises_typed_404(self, tmp_path):
        queue = _queue(tmp_path)
        with pytest.raises(JobNotFoundError):
            queue.job("job-nope")
        queue.stop()

    def test_draining_rejects_submissions(self, tmp_path):
        queue = _queue(tmp_path)
        queue.start()
        assert queue.drain(timeout=5.0) is True
        with pytest.raises(ServerDrainingError) as info:
            queue.submit("a", _specs(1))
        assert is_retryable(info.value)


# ----------------------------------------------------------------------
# Crash-safety: kill -9 and drain-checkpoint resume
# ----------------------------------------------------------------------
class TestCrashResume:
    def test_abrupt_stop_resumes_with_store_hits(self, tmp_path):
        # Phase 1: run one job to completion, accept another, then
        # vanish without drain (the in-process analogue of kill -9:
        # the journal and store keep only what was durably acked).
        queue = _queue(tmp_path)
        done = _run_to_done(queue, queue.submit("alice", _specs(2)))
        reference = {d: queue.result(d) for d in done.digests}
        pending = queue.submit("alice", _specs(2, seed=1))
        pending_id = pending.job_id
        queue.stop()  # no drain: pending job still 'accepted' on disk

        # Phase 2: a fresh queue over the same directory recovers it.
        queue = _queue(tmp_path)
        stats = queue.stats()
        assert stats.jobs_recovered == 1
        resumed = queue.job(pending_id)
        assert resumed.state == ACCEPTED
        assert resumed.recoveries == 1
        _run_to_done(queue, resumed)
        # The completed job was not re-enqueued, and its stored bytes
        # are identical.
        assert queue.job(done.job_id).state == DONE
        for digest, record in reference.items():
            assert queue.result(digest) == record
        queue.stop()

    def test_killed_mid_job_reruns_prefix_from_store(self, tmp_path):
        # Journal a 'running' job with a completed prefix in the store
        # (what a kill -9 mid-job leaves behind), then recover.
        queue = _queue(tmp_path)
        specs = _specs(3)
        job = _run_to_done(queue, queue.submit("alice", specs))
        path = os.path.join(str(tmp_path / "store"), "jobs.jsonl")
        # Rewrite the journal so the job's last record says 'running'
        # (drop the terminal 'done' line).
        lines = open(path, "rb").read().splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        keep = [line for line, record in zip(lines, records)
                if record["state"] != "done"]
        queue.stop()
        with open(path, "wb") as handle:
            handle.writelines(keep)

        queue = _queue(tmp_path)
        assert queue.stats().jobs_recovered == 1
        resumed = _run_to_done(queue, queue.job(job.job_id))
        # Every spec acked before the "crash" answers from the store.
        assert resumed.n_store_hits == 3
        assert resumed.n_store_misses == 0
        queue.stop()

    def test_lost_unsynced_tail_is_re_answered_from_store(self, tmp_path):
        # Only 'accepted' is fsynced: an OS crash may drop the job's
        # 'running' and 'done' records.  Recovery must re-run it with
        # every spec answered from the store, byte-identically.
        queue = _queue(tmp_path, fsync=True)
        job = _run_to_done(queue, queue.submit("alice", _specs(3)))
        before = job_results_payload(queue, job)
        queue.stop()
        path = os.path.join(str(tmp_path / "store"), "jobs.jsonl")
        with open(path, "rb") as handle:
            lines = handle.readlines()
        assert [json.loads(line)["state"] for line in lines] \
            == ["accepted", "running", "done"]
        with open(path, "r+b") as handle:
            handle.truncate(len(lines[0]))

        queue = _queue(tmp_path, fsync=True)
        assert queue.stats().jobs_recovered == 1
        resumed = _run_to_done(queue, queue.job(job.job_id))
        after = job_results_payload(queue, resumed)
        assert (resumed.n_store_hits, resumed.n_store_misses) == (3, 0)
        assert queue.stats().specs_executed == 0
        assert [o["values"] for o in after["outcomes"]] \
            == [o["values"] for o in before["outcomes"]]
        assert after["digests"] == before["digests"]
        queue.stop()

    def test_drain_checkpoint_requeues_job(self, tmp_path):
        queue = _queue(tmp_path)
        queue._draining = True
        queue._drain_deadline = time.monotonic() - 1.0
        # Drive _run_job directly with an expired drain deadline: the
        # worker checkpoints after the first spec.
        from repro.server.jobs import Job, RUNNING
        submitted = Job(job_id="job-00000042", client="alice",
                        specs=_specs(2), created_ts=time.time())
        queue._jobs[submitted.job_id] = submitted
        submitted.state = RUNNING
        queue._run_job(submitted)
        assert submitted.state == ACCEPTED
        assert queue._pending == [submitted.job_id]
        assert queue.stats().jobs_checkpointed == 1
        # The completed prefix is durable: resuming answers from store.
        queue._draining = False
        queue._drain_deadline = None
        resumed = _run_to_done(queue, submitted)
        assert resumed.state == DONE
        assert resumed.n_store_hits >= 1
        queue.stop()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
@pytest.fixture
def server(tmp_path):
    queue = JobQueue(str(tmp_path / "store"), fsync=False,
                     quota=QuotaPolicy(rate=1000.0, burst=1000))
    bench = BenchServer(queue, port=0)
    bench.start()
    yield bench
    bench.stop()


def _http(server, method, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        server.url(path), data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), \
            json.loads(exc.read() or b"{}")


class TestHTTP:
    def test_healthz_and_readyz(self, server):
        assert _http(server, "GET", "/healthz")[0] == 200
        assert _http(server, "GET", "/readyz")[0] == 200

    def test_failed_journal_append_is_a_structured_500(self, tmp_path):
        queue = JobQueue(str(tmp_path / "store"), fsync=False,
                         quota=QuotaPolicy(rate=0.001, burst=5,
                                           clock=lambda: 0.0))
        bench = BenchServer(queue, port=0)
        bench.start()
        body = {"client": "alice",
                "specs": [spec_to_payload(spec) for spec in _specs(2)]}
        try:
            with FaultPlan({"queue.journal_torn": 1.0}, seed=0):
                status, _, payload = _http(bench, "POST", "/v1/jobs", body)
                assert status == 500
                assert payload["error"]["type"] == "StoreError"
                assert payload["error"]["retryable"] is False
                # The client raises it instead of resubmitting.
                with ServerClient(*bench.address, client="alice") as client:
                    with pytest.raises(StoreError, match="did not complete"):
                        client.submit(_specs(2))
                    assert client.retried_drops == 0
            # Neither failed submission spent a token.
            with ServerClient(*bench.address, client="alice") as client:
                assert client.submit(_specs(5, seed=1))["state"] == ACCEPTED
        finally:
            bench.stop()

    def test_submit_status_and_result_round_trip(self, server):
        specs = [spec_to_payload(spec) for spec in _specs(2)]
        status, _, accepted = _http(server, "POST", "/v1/jobs",
                                    {"client": "alice", "specs": specs})
        assert status == 202
        assert accepted["n_specs"] == 2
        deadline = time.monotonic() + 30
        while True:
            _, _, payload = _http(
                server, "GET", accepted["status_url"])
            if payload["state"] == "done":
                break
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert payload["n_errors"] == 0
        assert all(o["values"] for o in payload["outcomes"] if o["ok"])
        # Single-result endpoint serves the stored record.
        status, _, record = _http(
            server, "GET", "/v1/results/%s" % accepted["digests"][0])
        assert status == 200 and "values" in record

    def test_all_hit_post_answers_done_with_the_same_keys(self, server):
        body = {"client": "alice",
                "specs": [spec_to_payload(spec) for spec in _specs(2)]}
        status, _, first = _http(server, "POST", "/v1/jobs", body)
        assert status == 202
        with ServerClient(*server.address) as client:
            client.wait(first["job_id"], timeout=30.0)
        status, _, again = _http(server, "POST", "/v1/jobs", body)
        assert status == 202
        assert list(again) == list(first) \
            == ["job_id", "state", "n_specs", "digests", "status_url"]
        assert again["state"] == "done"
        assert again["digests"] == first["digests"]
        _, _, payload = _http(server, "GET", again["status_url"])
        assert payload["state"] == "done"
        assert payload["n_specs"] == 2
        assert all(o["from_store"] and o["values"]
                   for o in payload["outcomes"])

    def test_status_reads_count_no_store_hits(self, server):
        def store_counts():
            store = _http(server, "GET", "/v1/stats")[2]["store"]
            return store["hits"], store["misses"]

        body = {"client": "alice",
                "specs": [spec_to_payload(_specs(1)[0])]}
        client = ServerClient(*server.address)
        accepted = _http(server, "POST", "/v1/jobs", body)[2]
        client.wait(accepted["job_id"], timeout=30.0)
        assert store_counts() == (0, 1)
        for _ in range(10):
            _http(server, "GET", accepted["status_url"])
        _http(server, "GET", "/v1/results/%s" % accepted["digests"][0])
        assert store_counts() == (0, 1)
        # An all-hit job counts its admission lookup once ...
        _http(server, "POST", "/v1/jobs", body)
        assert store_counts() == (1, 1)
        # ... and a job with a miss counts only the worker's lookups.
        mixed = _http(server, "POST", "/v1/jobs", dict(body, specs=[
            spec_to_payload(spec) for spec in _specs(2)]))[2]
        client.wait(mixed["job_id"], timeout=30.0)
        client.close()
        assert store_counts() == (2, 2)

    def test_error_bodies_are_structured(self, server):
        status, _, body = _http(server, "GET", "/v1/jobs/job-nope")
        assert status == 404
        assert body["error"]["type"] == "JobNotFoundError"
        assert body["error"]["retryable"] is False
        status, _, body = _http(server, "POST", "/v1/jobs",
                                {"client": "a", "specs": []})
        assert status == 400
        assert body["error"]["type"] == "BadSubmissionError"
        status, _, body = _http(
            server, "POST", "/v1/jobs",
            {"client": "a", "specs": [{"asm_exit": "nop"}]})
        assert status == 400
        status, _, body = _http(server, "GET", "/v1/results/feedbeef")
        assert status == 404

    def test_uptime_uses_the_queue_clock(self, tmp_path):
        # A wall-clock step (NTP, suspend) must not move uptime.
        now = [100.0]
        bench = BenchServer(_queue(tmp_path, clock=lambda: now[0]), port=0)
        try:
            now[0] = 107.5
            assert bench.stats_payload()["uptime_seconds"] == 7.5
        finally:
            bench.stop()

    def test_stats_endpoint_reports_sections(self, server):
        _http(server, "POST", "/v1/jobs",
              {"client": "a", "specs": [spec_to_payload(_specs(1)[0])]})
        _, _, payload = _http(server, "GET", "/v1/stats")
        assert payload["queue"]["jobs_accepted"] == 1
        assert "store" in payload and "quota" in payload
        assert payload["quota"]["a"]["accepted"] == 1

    def test_quota_429_with_retry_after_header(self, tmp_path):
        queue = JobQueue(str(tmp_path / "store"), fsync=False,
                         quota=QuotaPolicy(rate=0.5, burst=2))
        bench = BenchServer(queue, port=0)
        bench.start()
        try:
            specs = [spec_to_payload(spec) for spec in _specs(2)]
            body = {"client": "greedy", "specs": specs}
            assert _http(bench, "POST", "/v1/jobs", body)[0] == 202
            status, headers, payload = _http(
                bench, "POST", "/v1/jobs", body)
            assert status == 429
            assert payload["error"]["type"] == "QuotaExceededError"
            assert payload["error"]["retryable"] is True
            assert int(headers["Retry-After"]) >= 1
            # The polite client is admitted on the same server.
            assert _http(bench, "POST", "/v1/jobs",
                         {"client": "polite", "specs": specs})[0] == 202
        finally:
            bench.stop()

    def test_drain_flips_readyz_before_listener_closes(self, server):
        # Give the drain real work so the draining window is wide
        # enough to probe: the worker must finish these specs before
        # the listener may close.
        specs = [spec_to_payload(spec) for spec in _specs(6, seed=9)]
        assert _http(server, "POST", "/v1/jobs",
                     {"client": "a", "specs": specs})[0] == 202
        result = {}
        drainer = threading.Thread(
            target=lambda: result.update(ok=server.drain(timeout=60.0)))
        drainer.start()
        try:
            deadline = time.monotonic() + 10
            while not server.queue.draining:
                assert time.monotonic() < deadline
                time.sleep(0.002)
            # Draining has begun and the job is still running: the
            # listener MUST still answer, with a 503 + Retry-After.
            status, headers, payload = _http(server, "GET", "/readyz")
            assert status == 503
            assert payload["draining"] is True
            assert "Retry-After" in headers
        finally:
            drainer.join(timeout=60.0)
        assert result.get("ok") is True
        # And a post-drain submission is rejected as draining.
        with pytest.raises(ServerDrainingError):
            server.queue.submit("late", _specs(1))


# ----------------------------------------------------------------------
# Client + service fault sites
# ----------------------------------------------------------------------
class TestClientAndFaults:
    def test_client_round_trip_and_typed_errors(self, server):
        client = ServerClient(*server.address, client="alice")
        assert client.healthz() and client.readyz()
        payload = client.run(_specs(2), timeout=30.0)
        assert payload["state"] == "done" and payload["n_errors"] == 0
        with pytest.raises(JobNotFoundError):
            client.job("job-nope")
        client.close()

    def test_client_retries_accept_drop_and_quota_isolated_under_faults(
            self, tmp_path):
        queue = JobQueue(str(tmp_path / "store"), fsync=False,
                         quota=QuotaPolicy(rate=0.5, burst=2))
        bench = BenchServer(queue, port=0)
        bench.start()
        try:
            with FaultPlan({"server.accept_drop": 0.3,
                            "server.slow_client": 0.3,
                            "queue.journal_torn": 0.3}, seed=7):
                polite = ServerClient(*bench.address, client="polite",
                                      retries=30)
                greedy = ServerClient(*bench.address, client="greedy",
                                      retries=30)
                greedy.submit(_specs(2))
                with pytest.raises(QuotaExceededError) as info:
                    greedy.submit(_specs(1, seed=2))
                assert info.value.retry_after > 0
                # The under-quota client completes on the same server
                # while the fault plane drops/stalls connections.
                payload = polite.run(_specs(2), timeout=60.0)
            assert payload["n_errors"] == 0
            assert all(o["ok"] for o in payload["outcomes"])
        finally:
            bench.stop()


class TestKeepAlive:
    def test_sequential_requests_share_one_fast_connection(self, server):
        client = ServerClient(*server.address, client="alice")
        job_id = client.run(_specs(1), timeout=30.0)["job_id"]
        sock = client._connection.sock
        started = time.monotonic()
        for _ in range(200):
            assert client.job(job_id)["state"] == "done"
        # Nagle's algorithm against the client's delayed ACK would
        # stall each request about 40 ms (some 9 s in all).
        assert time.monotonic() - started < 2.0
        assert client._connection.sock is sock
        assert client.retried_drops == 0
        client.close()

    def test_client_recovers_when_the_server_hangs_up(self, tmp_path):
        first = BenchServer(_queue(tmp_path), port=0)
        first.start()
        host, port = first.address
        # The stale connection is reopened without spending a retry.
        with ServerClient(host, port, retries=0) as client:
            assert client.healthz()
            first.stop()
            second = BenchServer(_queue(tmp_path, name="again"),
                                 host=host, port=port)
            second.start()
            try:
                assert client.stats()["queue"]["jobs_accepted"] == 0
                assert client.retried_drops >= 1
            finally:
                second.stop()

    def test_client_recovers_from_accept_drop_on_reused_connection(
            self, server):
        client = ServerClient(*server.address, retries=30)
        assert client.healthz()
        dropped_reused = 0
        with FaultPlan({"server.accept_drop": 0.3}, seed=5):
            for _ in range(20):
                reused = client._connection is not None
                drops = client.retried_drops
                assert client.healthz()
                dropped_reused += reused and client.retried_drops > drops
        assert dropped_reused > 0
        client.close()

    def test_refused_post_does_not_poison_the_connection(self, server):
        client = ServerClient(*server.address, client="alice")
        assert client.healthz()
        # Refused before its body is read: the body must not be parsed
        # as the next request on the kept-alive connection.
        with pytest.raises(JobNotFoundError):
            client._checked("POST", "/v1/nope", {"specs": [{"asm": "nop"}]})
        assert client.healthz()
        assert client.stats()["queue"]["jobs_accepted"] == 0
        client.close()

    def test_oversize_submission_is_refused_before_sending(self, server):
        client = ServerClient(*server.address, client="alice")
        assert client.healthz()
        spec = {"asm": "nop\n" * (MAX_BODY_BYTES // 4 + 1)}
        with pytest.raises(BadSubmissionError, match="byte bound"):
            client.submit([spec])
        assert client.healthz()
        assert client.stats()["queue"]["jobs_accepted"] == 0
        client.close()

    def test_drain_returns_while_a_client_idles_on_its_connection(
            self, server):
        client = ServerClient(*server.address, retries=0)
        assert client.healthz()
        result = {}
        drainer = threading.Thread(
            target=lambda: result.update(ok=server.drain(timeout=5.0)))
        drainer.start()
        drainer.join(timeout=10.0)
        assert not drainer.is_alive()
        assert result["ok"] is True
        # The drained server no longer answers the idle connection.
        with pytest.raises(ServerUnavailableError):
            client.healthz()
        client.close()


# ----------------------------------------------------------------------
# FileLock contention between two live processes
# ----------------------------------------------------------------------
_GC_SCRIPT = """\
import sys, time
sys.path.insert(0, %(src)r)
from repro.store import ResultStore
print("READY", flush=True)
start = time.monotonic()
with ResultStore(%(root)r, lock_timeout=%(timeout)f) as store:
    waited = time.monotonic() - start
    report = store.gc(max_bytes=10**9)
print("WAITED %%.3f KEPT %%d" %% (waited, report.kept), flush=True)
"""


class TestFileLockContention:
    def _spawn_gc(self, root, timeout=30.0):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        script = _GC_SCRIPT % {
            "src": src, "root": str(root), "timeout": timeout}
        return subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)

    def _contend(self, queue, root, hold):
        """Run a live gc process against *root* while the server-side
        store instance holds the advisory lock for *hold* seconds;
        returns the seconds the gc reported waiting for the lock."""
        with queue.store._lock:  # the server mid-operation
            process = self._spawn_gc(root)
            assert process.stdout.readline().strip() == "READY"
            time.sleep(hold)
            assert process.poll() is None, (
                "gc process finished while the server held the lock: %s"
                % process.communicate()[1])
        stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr
        return float(stdout.split()[1])

    def test_gc_process_blocks_until_server_releases(self, tmp_path):
        root = tmp_path / "store"
        queue = _queue(tmp_path)
        job = _run_to_done(queue, queue.submit("alice", _specs(2)))
        reference = {d: queue.result(d) for d in job.digests}
        # A concurrent `nanobench store gc` process must block on
        # poll-retry while the server is inside a store operation —
        # not fail, not corrupt anything, not jump the lock.
        hold = 1.0
        waited = self._contend(queue, root, hold)
        assert waited >= hold - 0.2, \
            "gc entered while the server still held the lock"
        queue.stop()
        # Post-contention store is intact and byte-identical.
        from repro.store import verify_store
        assert verify_store(str(root)).ok
        with ResultStore(str(root)) as store:
            assert {d: store.get(d) for d in store.digests()} == reference

    @pytest.mark.tier2
    def test_gc_contention_under_torn_write_chaos(self, tmp_path):
        root = tmp_path / "store"
        with FaultPlan({"store.torn_write": 0.2}, seed=11):
            queue = _queue(tmp_path)
            job = _run_to_done(queue, queue.submit("alice", _specs(3)))
            reference = {d: queue.result(d) for d in job.digests}
            waited = self._contend(queue, root, hold=0.5)
            queue.stop()
        assert waited >= 0.3
        from repro.store import verify_store
        assert verify_store(str(root)).ok
        # The gc's rewrite kept every acked record byte-identical
        # despite the torn-write injection on the server's appends.
        with ResultStore(str(root)) as store:
            assert {d: store.get(d) for d in store.digests()} == reference


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_submit_against_in_process_server(self, tmp_path, capsys):
        from repro.core.cli import main as cli_main
        queue = JobQueue(str(tmp_path / "store"), fsync=False)
        bench = BenchServer(queue, port=0)
        bench.start()
        try:
            batch = tmp_path / "batch.txt"
            batch.write_text("nop\nadd RAX, RAX\n")
            host, port = bench.address
            status = cli_main(["submit", "-host", host,
                               "-port", str(port), "-batch", str(batch),
                               "-client", "cli"])
            captured = capsys.readouterr()
            assert status == 0
            assert "## nop" in captured.out
            assert "0 error(s)" in captured.err
            # Resubmission: all answered from the store.
            status = cli_main(["submit", "-host", host,
                               "-port", str(port), "-batch", str(batch),
                               "-client", "cli"])
            captured = capsys.readouterr()
            assert status == 0
            assert "2 answered from the store, 0 executed" in captured.err
        finally:
            bench.stop()

    def test_submit_against_down_server_is_tempfail(self, capsys):
        from repro.core.cli import main as cli_main
        status = cli_main(["submit", "-port", "1", "-asm", "nop",
                           "-timeout", "1"])
        assert status == 75
        assert "error:" in capsys.readouterr().err
