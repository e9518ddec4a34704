"""Durable result store (``repro.store``) acceptance suite.

Covers the crash-safety contract end to end: segment crash-state
classification, torn-tail truncation, interior-corruption quarantine
with read-repair, rotation/compaction atomicity, TTL/size eviction,
advisory locking, the :class:`BatchRunner` / characterization / survey
wiring (resubmitted work answers from the store with zero
re-simulation), the ``nanobench store`` CLI, and hypothesis property
tests over arbitrary truncation and bit-flips.
"""

import json
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchRunner, spec_from_run_kwargs
from repro.core.cli import main as cli_main
from repro.errors import StoreLockError
from repro.faults.plan import FaultPlan
from repro.store import (
    ACTIVE_NAME,
    FileLock,
    ResultStore,
    encode_record,
    open_store,
    record_checksum,
    scan_segment,
    validate_record,
    verify_store,
)


def _payload(i, value=None):
    """A small record payload shaped like a journal record."""
    return {
        "v": 1,
        "label": "spec-%d" % i,
        "values": {"Core cycles": float(i if value is None else value)},
    }


def _digest(i):
    return "%064x" % i


def _fill(store, n, rotate_every=None):
    """Put records 0..n-1, sealing the active segment after every
    *rotate_every* of them."""
    for i in range(n):
        store.put(_digest(i), _payload(i))
        if rotate_every and (i + 1) % rotate_every == 0:
            store.rotate()


def _specs():
    return [
        spec_from_run_kwargs(asm="nop", n_measurements=2, unroll_count=5,
                             label="a"),
        spec_from_run_kwargs(asm="add RAX, RAX", n_measurements=2,
                             unroll_count=5, label="b"),
        spec_from_run_kwargs(asm="mov R14, [R14]", asm_init="mov [R14], R14",
                             n_measurements=2, unroll_count=5, label="c"),
    ]


def _values(results):
    # tuple(items()) so counter *order* must match too — replay must be
    # byte-identical, not merely equal as dicts.
    return [(tuple(r.values.items()), r.error) for r in results]


# ----------------------------------------------------------------------
# Records and segment scanning
# ----------------------------------------------------------------------
class TestRecords:
    def test_checksum_ignores_sha_field(self):
        record = {"digest": "d", "values": {"x": 1.5}}
        sha = record_checksum(record)
        assert len(sha) == 64
        record["sha"] = sha
        assert record_checksum(record) == sha
        assert validate_record(record) == (True, "")

    def test_validate_rejects_flip_and_missing_digest(self):
        record = {"digest": "d", "values": {"x": 1.5}}
        record["sha"] = record_checksum(record)
        record["values"]["x"] = 2.5
        ok, reason = validate_record(record)
        assert not ok and reason == "checksum mismatch"
        assert not validate_record({"values": {}})[0]
        assert not validate_record([1, 2])[0]

    def test_required_width_rejects_missing_and_short_checksums(self):
        record = {"digest": "d", "values": {"x": 1.5}}
        assert validate_record(record) == (False, "missing checksum")
        record["sha"] = record_checksum(record)[:16]
        assert validate_record(record) == (False, "malformed checksum")
        record["sha"] = record_checksum(record)
        assert validate_record(record) == (True, "")


class TestSegmentScan:
    def _write(self, path, lines):
        with open(path, "wb") as handle:
            handle.write(b"".join(lines))

    def _line(self, i, sha_digits=64):
        record = dict(_payload(i), digest=_digest(i))
        if sha_digits:
            record["sha"] = record_checksum(record)[:sha_digits]
        return encode_record(record)

    def test_clean_scan(self, tmp_path):
        path = str(tmp_path / "seg.jsonl")
        self._write(path, [self._line(0), self._line(1)])
        scan = scan_segment(path)
        assert scan.clean
        assert [r["digest"] for _, r in scan.records] == [_digest(0),
                                                          _digest(1)]
        assert scan.good_bytes == os.path.getsize(path)

    def test_torn_tail_is_not_corruption(self, tmp_path):
        path = str(tmp_path / "seg.jsonl")
        self._write(path, [self._line(0), self._line(1)[:10]])
        scan = scan_segment(path)
        assert not scan.clean
        assert not scan.corrupt  # trailing: truncate, don't quarantine
        assert scan.torn_bytes == 10
        assert len(scan.records) == 1

    def test_interior_corruption_is_quarantinable(self, tmp_path):
        path = str(tmp_path / "seg.jsonl")
        self._write(path, [self._line(0), b"garbage\n", self._line(2)])
        scan = scan_segment(path)
        assert len(scan.records) == 2
        assert len(scan.corrupt) == 1
        assert scan.corrupt[0].raw == b"garbage"
        assert scan.torn_bytes == 0

    def test_short_or_missing_checksum_is_corruption(self, tmp_path):
        # One record format: a 16-hex or absent checksum is not a
        # second, older format but a damaged line.
        path = str(tmp_path / "seg.jsonl")
        self._write(path, [self._line(0, sha_digits=16),
                           self._line(1, sha_digits=0), self._line(2)])
        scan = scan_segment(path)
        assert [r["digest"] for _, r in scan.records] == [_digest(2)]
        assert [c.reason for c in scan.corrupt] == ["malformed checksum",
                                                    "missing checksum"]

    def test_missing_file_is_empty_scan(self, tmp_path):
        scan = scan_segment(str(tmp_path / "absent.jsonl"))
        assert scan.clean and not scan.records


# ----------------------------------------------------------------------
# Core store behaviour
# ----------------------------------------------------------------------
class TestResultStore:
    def test_put_get_roundtrip_and_persistence(self, tmp_path):
        root = str(tmp_path / "store")
        with ResultStore(root) as store:
            written = store.put(_digest(1), _payload(1))
            assert written["sha"] == record_checksum(written)
            assert store.get(_digest(1))["values"] == {"Core cycles": 1.0}
            assert _digest(1) in store and len(store) == 1
        with ResultStore(root) as store:
            assert store.get(_digest(1)) == written

    def test_last_put_wins(self, tmp_path):
        with ResultStore(str(tmp_path / "s")) as store:
            store.put(_digest(1), _payload(1))
            store.put(_digest(1), _payload(1, value=99))
            assert store.get(_digest(1))["values"]["Core cycles"] == 99.0
            assert len(store) == 1

    def test_hit_miss_accounting(self, tmp_path):
        with ResultStore(str(tmp_path / "s")) as store:
            store.put(_digest(1), _payload(1))
            store.get(_digest(1))
            store.get(_digest(2))
            stats = store.stats()
            assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)

    def test_rotate_seals_the_active_segment(self, tmp_path):
        root = str(tmp_path / "s")
        with ResultStore(root) as store:
            _fill(store, 5, rotate_every=2)
            assert store.counters.rotations == 2
            assert store.stats().segments == 2
            assert store.rotate() == "seg-00000003.jsonl"
            # An empty active segment has nothing to seal.
            assert store.rotate() is None
        with ResultStore(root) as store:
            assert sorted(store.digests()) == [_digest(i) for i in range(5)]

    def test_compaction_drops_superseded_duplicates(self, tmp_path):
        root = str(tmp_path / "s")
        with ResultStore(root) as store:
            _fill(store, 5, rotate_every=2)
            store.put(_digest(0), _payload(0, value=42))
            assert store.compact() == 5
            assert store.stats().segments == 1
        with ResultStore(root) as store:
            assert len(store) == 5
            assert store.get(_digest(0))["values"]["Core cycles"] == 42.0

    def test_stray_tmp_files_removed_on_open(self, tmp_path):
        root = str(tmp_path / "s")
        with ResultStore(root) as store:
            _fill(store, 2)
        tmp = os.path.join(root, "segments", "seg-00000099.jsonl.tmp")
        with open(tmp, "w") as handle:
            handle.write("half a compaction")
        with ResultStore(root) as store:
            assert len(store) == 2
        assert not os.path.exists(tmp)

    def test_stale_active_heal_tmp_removed_on_open(self, tmp_path):
        # Healing the active segment stages root/active.jsonl.tmp; a
        # crash mid-heal must not leave it behind forever.
        root = str(tmp_path / "s")
        with ResultStore(root) as store:
            _fill(store, 2)
        tmp = os.path.join(root, ACTIVE_NAME + ".tmp")
        with open(tmp, "w") as handle:
            handle.write("half a heal")
        with ResultStore(root) as store:
            assert len(store) == 2
        assert not os.path.exists(tmp)

    def test_open_store_passthrough(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        assert open_store(store) is store
        store.close()


class TestCrashRecovery:
    def test_renamed_checksum_key_is_not_served(self, tmp_path):
        # A bit flip in the "sha" key name ("sha" -> "rha") must not
        # turn a checksummed record into an unchecked one: with a second
        # flip in its values, the store would serve wrong numbers.
        root = str(tmp_path / "s")
        with ResultStore(root) as store:
            _fill(store, 3)
        active = os.path.join(root, ACTIVE_NAME)
        lines = open(active, "rb").read().splitlines(keepends=True)
        assert lines[1].count(b'"sha": ') == 1
        lines[1] = lines[1].replace(b'"sha": ', b'"rha": ').replace(
            b'"Core cycles": 1.0', b'"Core cycles": 9.0')
        with open(active, "wb") as handle:
            handle.writelines(lines)
        assert not verify_store(root).ok
        with pytest.warns(UserWarning, match="quarantined"):
            store = ResultStore(root)
        with store:
            assert store.get(_digest(1)) is None
            assert store.get(_digest(2))["values"] == {"Core cycles": 2.0}
            assert store.counters.quarantined == 1
        assert verify_store(root).ok

    def test_torn_tail_truncated_on_open(self, tmp_path):
        root = str(tmp_path / "s")
        with ResultStore(root) as store:
            _fill(store, 2)
        active = os.path.join(root, ACTIVE_NAME)
        good = os.path.getsize(active)
        with open(active, "ab") as handle:
            handle.write(b'{"digest": "torn')  # kill -9 mid-append
        report = verify_store(root)
        assert not report.ok and report.torn_bytes > 0
        with ResultStore(root) as store:
            assert store.counters.truncations == 1
            assert len(store) == 2
        assert os.path.getsize(active) == good
        assert verify_store(root).ok

    def test_interior_corruption_quarantined_and_read_repaired(
            self, tmp_path):
        root = str(tmp_path / "s")
        with ResultStore(root) as store:
            _fill(store, 3)
        active = os.path.join(root, ACTIVE_NAME)
        lines = open(active, "rb").read().splitlines(True)
        lines[1] = lines[1][:20] + b"X" + lines[1][21:]  # bit rot
        with open(active, "wb") as handle:
            handle.write(b"".join(lines))
        with pytest.warns(UserWarning, match="quarantined"):
            store = ResultStore(root)
        # The two intact records survive; the flipped one misses ...
        assert store.get(_digest(0)) is not None
        assert store.get(_digest(2)) is not None
        assert store.get(_digest(1)) is None
        assert store.counters.quarantined == 1
        quarantined = os.listdir(os.path.join(root, "quarantine"))
        assert len(quarantined) == 1
        assert verify_store(root).ok  # the rewrite healed the segment
        # ... and read-repair is just a fresh put.
        store.put(_digest(1), _payload(1))
        store.close()
        with ResultStore(root) as reopened:
            assert len(reopened) == 3

    def test_corrupt_sealed_segment_recovers_too(self, tmp_path):
        root = str(tmp_path / "s")
        with ResultStore(root) as store:
            _fill(store, 4, rotate_every=2)
        sealed = os.path.join(root, "segments", "seg-00000001.jsonl")
        data = open(sealed, "rb").read()
        with open(sealed, "wb") as handle:
            handle.write(data[:5] + b"?" + data[6:])
        with pytest.warns(UserWarning, match="quarantined"):
            store = ResultStore(root)
        assert len(store) == 3
        store.close()


class TestEviction:
    def test_ttl_eviction(self, tmp_path):
        import time

        now = time.time()
        with ResultStore(str(tmp_path / "s")) as store:
            store.put(_digest(0), _payload(0), ts=now - 1000.0)
            store.put(_digest(1), _payload(1), ts=now)
            stats = store.gc(ttl_seconds=100.0)
            assert stats.evicted_ttl == 1 and stats.kept == 1
            assert store.get(_digest(0)) is None
            assert store.get(_digest(1)) is not None

    def test_size_budget_evicts_oldest_first(self, tmp_path):
        with ResultStore(str(tmp_path / "s")) as store:
            for i in range(6):
                store.put(_digest(i), _payload(i), ts=float(i))
            line = len(encode_record(store.get(_digest(0))))
            stats = store.gc(max_bytes=3 * line + 1)
            assert stats.evicted_size == 3
            assert stats.bytes_after <= 3 * line + 1
            # The newest three survive.
            assert sorted(store.digests()) == [_digest(i) for i in (3, 4, 5)]
            assert store.stats().evicted_size == 3

    def test_gc_without_policy_is_a_noop_compaction(self, tmp_path):
        with ResultStore(str(tmp_path / "s")) as store:
            _fill(store, 4, rotate_every=2)
            stats = store.gc()
            assert stats.evicted == 0 and stats.kept == 4
            assert len(store) == 4


class TestLocking:
    def test_lock_is_reentrant(self, tmp_path):
        lock = FileLock(str(tmp_path / "lock"))
        with lock:
            with lock:
                assert lock.held
        assert not lock.held

    def test_contended_lock_times_out(self, tmp_path):
        path = str(tmp_path / "lock")
        holder = FileLock(path)
        holder.acquire()
        try:
            with pytest.raises(StoreLockError, match="store lock"):
                FileLock(path, timeout=0.05).acquire()
        finally:
            holder.release()

    def test_lock_released_on_exit(self, tmp_path):
        path = str(tmp_path / "lock")
        with FileLock(path):
            pass
        with FileLock(path, timeout=0.05):
            pass  # acquirable again


class TestMultiHandle:
    """Two handles sharing one store root (the multi-process shape)."""

    def test_compaction_merges_other_handles_appends(self, tmp_path):
        root = str(tmp_path / "s")
        ours = ResultStore(root)
        ours.put(_digest(0), _payload(0))
        theirs = ResultStore(root)
        theirs.put(_digest(1), _payload(1))
        # Our in-memory index has never seen the other handle's acked
        # record; compaction must still merge it from disk rather than
        # rewrite (and unlink) from the stale view.
        assert _digest(1) not in ours
        assert ours.compact() == 2
        assert ours.get(_digest(1)) is not None
        theirs.close()
        ours.close()
        with ResultStore(root) as reopened:
            assert len(reopened) == 2

    def test_gc_preserves_other_handles_appends(self, tmp_path):
        root = str(tmp_path / "s")
        ours = ResultStore(root)
        ours.put(_digest(0), _payload(0))
        theirs = ResultStore(root)
        theirs.put(_digest(1), _payload(1))
        stats = ours.gc()
        assert stats.evicted == 0 and stats.kept == 2
        assert ours.get(_digest(1)) is not None
        theirs.close()
        ours.close()
        with ResultStore(root) as reopened:
            assert len(reopened) == 2


# ----------------------------------------------------------------------
# BatchRunner wiring: zero re-simulation and kill/resume byte-identity
# ----------------------------------------------------------------------
class TestBatchRunnerStore:
    @pytest.mark.no_chaos
    def test_resubmission_is_answered_entirely_from_store(self, tmp_path):
        root = str(tmp_path / "store")
        specs = _specs()
        first = BatchRunner(1, store=root)
        baseline = first.run(specs)
        assert first.last_report.n_store_misses == len(specs)
        assert first.last_report.n_store_hits == 0

        store = ResultStore(root)
        second = BatchRunner(1, store=store)
        resumed = second.run(specs)
        # The acceptance bar: zero re-simulation, confirmed by both the
        # runner's accounting and the store's own hit counters.
        assert second.last_report.n_store_hits == len(specs)
        assert second.last_report.n_store_misses == 0
        assert store.stats().hits == len(specs)
        assert all(r.replayed for r in resumed)
        assert _values(resumed) == _values(baseline)
        store.close()

    @pytest.mark.no_chaos
    def test_killed_then_resumed_run_is_byte_identical(self, tmp_path):
        specs = _specs()
        baseline = BatchRunner(1).run(specs)

        root = str(tmp_path / "store")
        interrupted = BatchRunner(1, store=root)
        stream = interrupted.iter_results(specs)
        next(stream)
        stream.close()  # the kill: only the first result was acked

        resumed_runner = BatchRunner(1, store=root)
        resumed = resumed_runner.run(specs)
        assert resumed_runner.last_report.n_store_hits == 1
        assert resumed_runner.last_report.n_store_misses == len(specs) - 1
        assert _values(resumed) == _values(baseline)

    def test_interrupted_stream_counts_only_streamed_results(self,
                                                             tmp_path):
        root = str(tmp_path / "store")
        specs = _specs()
        BatchRunner(1, store=root).run(specs[:1])
        runner = BatchRunner(1, store=root)
        stream = runner.iter_results(specs)
        next(stream)  # the stored spec
        next(stream)  # one fresh spec
        stream.close()
        # Hits and misses count what streamed, not the whole batch.
        report = runner.last_report
        assert (report.n_specs, report.n_store_hits,
                report.n_store_misses) == (2, 1, 1)

    def test_spec_faults_are_keyed_alike_for_any_worker_count(self,
                                                              tmp_path):
        specs = [spec_from_run_kwargs(asm="add RAX, RAX", seed=i,
                                      n_measurements=2, unroll_count=5)
                 for i in range(8)]
        attempts = {}
        for jobs in (1, 2):
            root = str(tmp_path / ("jobs%d" % jobs))
            BatchRunner(1, store=root).run(specs[::2])
            with FaultPlan.parse("spec.error=0.5", seed=1):
                results = BatchRunner(jobs, store=root).run(specs)
            attempts[jobs] = [r.attempts for r in results]
        # Keyed by position among the executed specs in both modes.
        assert attempts[1] == attempts[2]
        assert max(attempts[1]) > 1

    def test_no_store_counts_no_misses(self):
        runner = BatchRunner(1)
        runner.run(_specs()[:1])
        assert (runner.last_report.n_store_hits,
                runner.last_report.n_store_misses) == (0, 0)

    def test_failed_specs_replay_their_error(self, tmp_path):
        root = str(tmp_path / "store")
        bad = [spec_from_run_kwargs(asm="definitely not asm",
                                    n_measurements=1, unroll_count=5,
                                    label="bad")]
        results = BatchRunner(1, store=root).run(bad)
        assert not results[0].ok
        # The failed spec is stored too (error captured in the record)
        # and replays as the same failure rather than re-executing.
        replay = BatchRunner(1, store=root).run(bad)
        assert not replay[0].ok
        assert replay[0].error == results[0].error


# ----------------------------------------------------------------------
# Characterization-tool wiring
# ----------------------------------------------------------------------
class TestToolWiring:
    @pytest.mark.no_chaos
    def test_characterize_corpus_batched_uses_store(self, tmp_path):
        from repro.tools.instr import (
            characterize_corpus_batched,
            corpus_for_family,
        )

        variants = [v for v in corpus_for_family("SKL")
                    if not v.kernel_only][:2]
        root = str(tmp_path / "store")
        first = characterize_corpus_batched(
            "Skylake", variants, jobs=1, backend="analytic", store=root
        )
        store = ResultStore(root)
        assert len(store) == 4 * len(variants)
        second = characterize_corpus_batched(
            "Skylake", variants, jobs=1, backend="analytic", store=store
        )
        assert store.stats().hits == 4 * len(variants)
        assert [vars(p) for p in second] == [vars(p) for p in first]
        store.close()

    def test_survey_cpus_answers_from_store(self, tmp_path, monkeypatch):
        from repro.tools.cache import survey as survey_mod

        calls = []

        def fake_survey(uarch, seed=0, buffer_mb=128):
            calls.append(uarch)
            survey = survey_mod.CpuSurvey(uarch=uarch, cpu_model="Fake 9000")
            survey.levels[1] = survey_mod.LevelSurvey(
                level=1, size_bytes=32768, associativity=8, policy="PLRU",
                survivors=("PLRU",), method="fake",
            )
            return survey

        monkeypatch.setattr(survey_mod, "survey_cpu", fake_survey)
        root = str(tmp_path / "store")
        first = survey_mod.survey_cpus(["Skylake", "Haswell"], store=root)
        assert calls == ["Skylake", "Haswell"]
        second = survey_mod.survey_cpus(["Skylake", "Haswell"], store=root)
        assert calls == ["Skylake", "Haswell"]  # zero re-surveys
        assert list(second) == list(first)
        for uarch in first:
            assert vars(first[uarch])["cpu_model"] == \
                vars(second[uarch])["cpu_model"]
            assert first[uarch].levels[1] == second[uarch].levels[1]

    def test_survey_cpus_closes_store_it_opened(self, tmp_path, monkeypatch):
        from repro.tools.cache import survey as survey_mod

        def fake_survey(uarch, seed=0, buffer_mb=128):
            return survey_mod.CpuSurvey(uarch=uarch, cpu_model="Fake 9000")

        monkeypatch.setattr(survey_mod, "survey_cpu", fake_survey)
        closed = []
        original_close = ResultStore.close
        monkeypatch.setattr(
            ResultStore, "close",
            lambda self: (closed.append(self.root), original_close(self)),
        )
        root = str(tmp_path / "store")
        survey_mod.survey_cpus(["Skylake"], store=root)
        assert closed == [root]  # opened from a path -> closed here
        closed.clear()
        store = ResultStore(root)
        survey_mod.survey_cpus(["Skylake"], store=store)
        assert closed == []  # caller-owned instance stays open
        store.close()

    def test_survey_record_roundtrip(self):
        from repro.tools.cache.survey import (
            CpuSurvey,
            LevelSurvey,
            survey_from_record,
            survey_to_record,
        )

        survey = CpuSurvey(uarch="Skylake", cpu_model="Test")
        survey.levels[3] = LevelSurvey(
            level=3, size_bytes=1 << 20, associativity=16, policy=None,
            survivors=("QLRU_A", "QLRU_B"), method="random-sequence",
            note="ambiguous",
        )
        record = json.loads(json.dumps(survey_to_record(survey)))
        assert "quality" not in record
        rebuilt = survey_from_record(record)
        assert rebuilt == survey
        # Records stored by earlier releases carry a ``quality`` key
        # (always None); it is ignored.
        assert survey_from_record(dict(record, quality=None)) == survey

    def test_survey_digest_is_pinned(self):
        # The store key of every survey stored so far: a change here
        # turns each of them into a miss.
        from repro.tools.cache.survey import _survey_digest

        assert _survey_digest("Skylake", 2, 128) == (
            "4f4fea1247e751afadbee627b87c7c33f645c407bb42340d3bb0534db4de0feb")

    def test_spec_digest_is_pinned(self):
        # The store key of a library spec that asks for no stability
        # control: a change here turns every stored one into a miss.
        from repro.batch import spec_digest

        spec = spec_from_run_kwargs(asm="add RAX, RAX", n_measurements=4,
                                    unroll_count=5)
        assert spec_digest(spec) == (
            "01255831f3c7ce323e0edcd480fe13ba674dcce6de0809bbafde61d021314887")

    def test_cli_batch_digest_is_pinned(self, tmp_path):
        # The same for a CLI -batch spec with default options, which
        # freezes every NanoBenchOptions field into the spec.
        batch = tmp_path / "batch.txt"
        batch.write_text("add RAX, RAX\n")
        root = str(tmp_path / "store")
        assert cli_main(["-batch", str(batch), "-store", root]) == 0
        with ResultStore(root) as store:
            digests = list(store.digests())
        assert digests == [
            "5a3e7f275f5eeb80ba01b19faa6cf75d1b1c8c5313c7001db800ca63a84fe006"]


# ----------------------------------------------------------------------
# CLI: the ``store`` subcommand and the batch-mode flags
# ----------------------------------------------------------------------
class TestStoreCli:
    def _seed_store(self, root, n=3):
        with ResultStore(root) as store:
            _fill(store, n)

    def test_stats_subcommand(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        self._seed_store(root)
        assert cli_main(["store", "stats", root]) == 0
        out = capsys.readouterr().out
        assert "records:      3" in out

    def test_verify_subcommand_is_read_only(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        self._seed_store(root)
        active = os.path.join(root, ACTIVE_NAME)
        with open(active, "ab") as handle:
            handle.write(b"torn")
        size = os.path.getsize(active)
        assert cli_main(["store", "verify", root]) == 1
        assert "NEEDS RECOVERY" in capsys.readouterr().out
        assert os.path.getsize(active) == size  # verify healed nothing
        # Stats surfaces the damage in its exit status (while opening
        # heals it); both are clean afterwards.
        assert cli_main(["store", "stats", root]) == 1
        assert "NEEDS RECOVERY" in capsys.readouterr().out
        assert cli_main(["store", "verify", root]) == 0
        assert cli_main(["store", "stats", root]) == 0

    def test_compact_and_gc_subcommands(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        with ResultStore(root) as store:
            _fill(store, 3, rotate_every=1)
        assert cli_main(["store", "compact", root]) == 0
        assert "compacted" in capsys.readouterr().out
        assert cli_main(["store", "gc", root, "-ttl", "0.000001"]) == 0
        assert "evicted 3" in capsys.readouterr().out

    def test_usage_errors(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        for argv in (["store", "import", root],
                     ["store", "stats", root, "extra.jsonl"]):
            with pytest.raises(SystemExit) as exited:
                cli_main(argv)
            assert exited.value.code == 2
        assert cli_main(["store", "gc", root]) == 2
        assert cli_main(["store", "stats",
                         str(tmp_path / "missing")]) == 1
        capsys.readouterr()

    def _batch_file(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text("nop\nadd RAX, RAX\n")
        return str(path)

    @pytest.mark.no_chaos
    def test_batch_store_flag_replays_second_run(self, tmp_path, capsys):
        batch = self._batch_file(tmp_path)
        root = str(tmp_path / "store")
        flags = ["-batch", batch, "-store", root,
                 "-n_measurements", "2", "-unroll_count", "5"]
        assert cli_main(flags) == 0
        first = capsys.readouterr()
        assert "2 executed and stored" in first.err
        assert cli_main(flags) == 0
        second = capsys.readouterr()
        assert "# store: 2 answered from the store, 0 executed" in second.err
        assert second.out == first.out


# ----------------------------------------------------------------------
# Property tests: arbitrary damage recovers to a consistent store
# ----------------------------------------------------------------------
def _build_reference(root, n=6):
    with ResultStore(root) as store:
        for i in range(n):
            store.put(_digest(i), _payload(i), ts=float(i))
        return {digest: store.get(digest) for digest in store.digests()}


class TestDamageProperties:
    @settings(max_examples=25, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=800))
    def test_prefix_truncation_recovers_consistently(self, tmp_path_factory,
                                                     cut):
        tmp_path = tmp_path_factory.mktemp("truncate")
        root = str(tmp_path / "store")
        reference = _build_reference(root)
        active = os.path.join(root, ACTIVE_NAME)
        data = open(active, "rb").read()
        cut = min(cut, len(data))
        with open(active, "wb") as handle:
            handle.write(data[:cut])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            store = ResultStore(root)
        # Every surviving record is byte-identical to the original, the
        # survivors form a prefix of the append order, and the store is
        # clean and appendable afterwards.
        survivors = sorted(store.digests())
        for digest in survivors:
            assert store._index[digest] == reference[digest]
        expected = [_digest(i) for i in range(len(survivors))]
        assert survivors == expected
        assert verify_store(root).ok
        store.put(_digest(99), _payload(99))
        assert _digest(99) in store
        store.close()

    @settings(max_examples=25, deadline=None)
    @given(position=st.integers(min_value=0, max_value=10_000),
           flip=st.integers(min_value=1, max_value=255))
    def test_single_bit_flip_recovers_consistently(self, tmp_path_factory,
                                                   position, flip):
        tmp_path = tmp_path_factory.mktemp("bitflip")
        root = str(tmp_path / "store")
        reference = _build_reference(root)
        active = os.path.join(root, ACTIVE_NAME)
        data = bytearray(open(active, "rb").read())
        position = position % len(data)
        data[position] ^= flip
        with open(active, "wb") as handle:
            handle.write(bytes(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            store = ResultStore(root)
        # At most the records sharing the damaged line(s) are lost, and
        # every record still served is byte-identical to the original.
        for digest in store.digests():
            assert store._index[digest] == reference[digest]
        assert len(store) >= len(reference) - 2
        assert verify_store(root).ok
        # Read-repair: lost digests accept a fresh put.
        for digest in set(reference) - set(store.digests()):
            store.put(digest, _payload(0))
            assert digest in store
        store.close()
