"""Store chaos suite: the durability contract holds under injected
faults (tier 2).

This is the fault-plane acceptance surface of :mod:`repro.store`:

* appends under injected torn writes and ENOSPC heal in place and the
  surviving store is byte-identical to a fault-free one;
* at rate 1.0 the bounded self-healing gives up cleanly
  (:class:`StoreFullError` / :class:`StoreError`) with no partial
  record left behind;
* compaction under injection either completes atomically or leaves the
  original segments untouched;
* an E6-style characterization sweep killed mid-run and resumed under
  full chaos is byte-identical to an uninterrupted fault-free run, and
  resubmitting it performs zero re-simulations.
"""

import os
import warnings

import pytest

from repro.batch import BatchRunner
from repro.errors import StoreError, StoreFullError
from repro.faults.plan import FaultPlan
from repro.store import ResultStore, verify_store
from repro.tools.instr.corpus import corpus_for_family
from repro.tools.instr.measure import variant_specs

pytestmark = pytest.mark.tier2


def _payload(i):
    return {"v": 1, "label": "spec-%d" % i,
            "values": {"Core cycles": float(i)}}


def _digest(i):
    return "%064x" % i


def _reference(tmp_path, n):
    """A fault-free store's contents for the same puts."""
    root = str(tmp_path / "reference")
    with ResultStore(root) as store:
        for i in range(n):
            store.put(_digest(i), _payload(i), ts=float(i))
        return {d: store.get(d) for d in store.digests()}


class TestAppendChaos:
    N = 40

    @pytest.mark.parametrize("site", ["store.torn_write", "disk.full"])
    def test_acked_appends_survive_injection(self, tmp_path, site):
        reference = _reference(tmp_path, self.N)
        healed_anywhere = 0
        for seed in range(4):
            root = str(tmp_path / ("chaos-%s-%d" % (site, seed)))
            acked, failed = [], []
            with FaultPlan(rates={site: 0.3}, seed=seed):
                with ResultStore(root) as store:
                    for i in range(self.N):
                        try:
                            store.put(_digest(i), _payload(i), ts=float(i))
                            acked.append(_digest(i))
                        except (StoreFullError, StoreError):
                            # Bounded healing gave up (all attempts
                            # fired): not acked, nothing persisted.
                            failed.append(_digest(i))
                    healed = (store.counters.healed_torn_writes
                              + store.counters.healed_enospc)
            healed_anywhere += healed
            # Reopen fault-free: every acked record replays
            # byte-identically, every failed one left no trace.
            with ResultStore(root) as store:
                for digest in acked:
                    assert store.get(digest) == reference[digest], \
                        "seed %d" % seed
                for digest in failed:
                    assert store.get(digest) is None, "seed %d" % seed
            assert verify_store(root).ok, "seed %d" % seed
        assert healed_anywhere > 0  # the plane actually fired

    def test_rate_one_disk_full_gives_up_cleanly(self, tmp_path):
        root = str(tmp_path / "full")
        with ResultStore(root) as store:
            store.put(_digest(0), _payload(0))
            size = os.path.getsize(os.path.join(root, "active.jsonl"))
            with FaultPlan(rates={"disk.full": 1.0}, seed=0):
                with pytest.raises(StoreFullError, match="no partial"):
                    store.put(_digest(1), _payload(1))
            # No partial record: the active segment is byte-for-byte
            # what it was before the failed put.
            assert os.path.getsize(
                os.path.join(root, "active.jsonl")) == size
            assert store.get(_digest(1)) is None
            # And the store still accepts appends afterwards.
            store.put(_digest(1), _payload(1))
        assert verify_store(root).ok

    def test_one_enospc_heals_on_retry(self, tmp_path):
        root = str(tmp_path / "once")
        with ResultStore(root) as store:
            for i in range(5):
                store.put(_digest(i), _payload(i), ts=float(i))
            # One injected ENOSPC: the append is rolled back and the
            # retry succeeds, with no eviction involved.
            with FaultPlan(rates={"disk.full": 1.0}, seed=0) as plan:
                plan.rates["disk.full"] = 0.0  # arm below, per-key
                original = plan.fires

                fired = []

                def fire_once(site, key):
                    if site == "disk.full" and not fired:
                        fired.append(key)
                        return True
                    return original(site, key)

                plan.fires = fire_once
                store.put(_digest(9), _payload(9), ts=9.0)
            assert fired
            assert store.counters.healed_enospc == 1
            assert store.get(_digest(9)) is not None
            assert len(store) == 6
        assert verify_store(root).ok
        with ResultStore(root) as reopened:
            assert len(reopened) == 6


class TestCompactionChaos:
    def _filled(self, tmp_path, name):
        root = str(tmp_path / name)
        store = ResultStore(root)
        for i in range(8):
            store.put(_digest(i), _payload(i), ts=float(i))
            if i % 3 == 2:
                store.rotate()
        return root, store

    def test_compaction_heals_injected_torn_writes(self, tmp_path):
        root, store = self._filled(tmp_path, "compact-heal")
        with FaultPlan(rates={"store.torn_write": 0.5}, seed=3):
            kept = store.compact()
        store.close()
        assert kept == 8
        with ResultStore(root) as reopened:
            assert len(reopened) == 8
        assert verify_store(root).ok

    def test_compaction_at_rate_one_leaves_originals_untouched(
            self, tmp_path):
        root, store = self._filled(tmp_path, "compact-fail")
        before = sorted(os.listdir(os.path.join(root, "segments")))
        with FaultPlan(rates={"store.torn_write": 1.0}, seed=0):
            with pytest.raises(StoreError, match="did not complete"):
                store.compact()
        store.close()
        after = sorted(name for name
                       in os.listdir(os.path.join(root, "segments"))
                       if not name.endswith(".tmp"))
        assert after == before
        with ResultStore(root) as reopened:
            assert len(reopened) == 8

    def test_gc_under_chaos_preserves_survivors(self, tmp_path):
        root, store = self._filled(tmp_path, "gc-chaos")
        with FaultPlan(rates={"store.torn_write": 0.3,
                              "disk.full": 0.2}, seed=1):
            stats = store.gc(ttl_seconds=None, max_bytes=None)
        store.close()
        assert stats.kept == 8
        with ResultStore(root) as reopened:
            assert len(reopened) == 8
        assert verify_store(root).ok


class TestSweepChaos:
    """The acceptance run: an E6-style corpus sweep with a durable
    store, killed and resumed under full chaos."""

    def _specs(self):
        variants = [v for v in corpus_for_family("SKL")
                    if not v.kernel_only][:2]
        specs = []
        for variant in variants:
            specs.extend(variant_specs(variant, "Skylake", seed=0,
                                       kernel_mode=False))
        return specs

    @staticmethod
    def _values(results):
        return [(tuple(r.values.items()), r.error) for r in results]

    def test_killed_resumed_sweep_is_byte_identical_under_chaos(
            self, tmp_path):
        specs = self._specs()
        baseline = BatchRunner(1).run(specs)

        root = str(tmp_path / "sweep-store")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with FaultPlan.chaos(seed=2):
                interrupted = BatchRunner(1, store=root)
                stream = interrupted.iter_results(specs)
                for _ in range(3):
                    next(stream)
                stream.close()  # the kill

                resumed_runner = BatchRunner(1, store=root)
                resumed = resumed_runner.run(specs)
        assert resumed_runner.last_report.n_store_hits >= 3
        assert self._values(resumed) == self._values(baseline)

        # Resubmitting the whole corpus performs zero re-simulations.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with FaultPlan.chaos(seed=5):
                final_runner = BatchRunner(1, store=root)
                final = final_runner.run(specs)
        assert final_runner.last_report.n_store_hits == len(specs)
        assert final_runner.last_report.n_store_misses == 0
        assert self._values(final) == self._values(baseline)
