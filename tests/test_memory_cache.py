"""Tests for the cache, slice hashing, and the memory hierarchy."""

import hashlib
import random

import pytest

from repro.core.nanobench import NanoBench
from repro.memory.cache import Cache, CacheGeometry
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.replacement import make_policy
from repro.memory.slices import SliceHash, intel_slice_hash
from repro.uarch.core import SimulatedCore
from repro.uarch.specs import HASWELL_POLICY_A


def _small_cache(policy="LRU", size=4096, assoc=4, slices=1):
    geometry = CacheGeometry(size, assoc, n_slices=slices)
    slice_hash = intel_slice_hash(slices) if slices > 1 else None
    return Cache("T", geometry, make_policy(policy, assoc), slice_hash)


class TestCacheGeometry:
    def test_counts(self):
        geo = CacheGeometry(32 * 1024, 8)
        assert geo.n_sets == 64
        assert geo.offset_bits == 6
        assert geo.index_bits == 6

    def test_sliced(self):
        geo = CacheGeometry(4 * 1024 * 1024, 16, n_slices=2)
        assert geo.n_sets == 2048

    def test_uneven_size_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(1000, 3)


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = _small_cache()
        assert not cache.access(0x1000)[0]
        assert cache.access(0x1000)[0]
        assert cache.access(0x1010)[0]  # same line (64-byte granularity)

    def test_set_mapping(self):
        cache = _small_cache()  # 16 sets
        slice_id, set_index, tag = cache.locate(0x40)  # line 1
        assert slice_id == 0 and set_index == 1

    def test_eviction_at_capacity(self):
        cache = _small_cache(assoc=4)
        n_sets = cache.geometry.n_sets
        stride = n_sets * 64
        addresses = [i * stride for i in range(5)]  # 5 blocks, one set
        for address in addresses[:4]:
            assert cache.access(address) == (False, None, 0)
        # LRU: the first block was evicted by the fifth.
        assert cache.access(addresses[4]) == (False, addresses[0], 0)
        assert not cache.probe(addresses[0])
        assert cache.probe(addresses[4])

    def test_invalidate_line(self):
        cache = _small_cache()
        cache.access(0x2000)
        assert cache.invalidate_line(0x2000)
        assert not cache.probe(0x2000)
        assert not cache.invalidate_line(0x2000)

    def test_invalidate_all(self):
        cache = _small_cache()
        for i in range(10):
            cache.access(i * 64)
        cache.invalidate_all()
        assert not any(cache.probe(i * 64) for i in range(10))

    def test_stats(self):
        # access() reports each lookup's outcome; the PMU metrics, not
        # the cache, keep the counts.
        cache = _small_cache()
        assert [cache.access(0x0)[0], cache.access(0x0)[0]] == [False, True]
        assert cache.access(0x40)[0] is False

    def test_probe_does_not_disturb(self):
        cache = _small_cache(assoc=2)
        stride = cache.geometry.n_sets * 64
        cache.access(0)
        cache.access(stride)
        for _ in range(10):
            cache.probe(0)  # probes must not refresh LRU state
        cache.access(2 * stride)
        assert not cache.probe(0)

    def test_set_state_rejects_out_of_range(self):
        cache = _small_cache(slices=2)
        n_sets = cache.geometry.n_sets
        for slice_id, set_index in ((0, -1), (-1, 0), (2, 0), (0, n_sets)):
            with pytest.raises(IndexError):
                cache.set_state(slice_id, set_index)
            with pytest.raises(IndexError):
                cache.set_contents(slice_id, set_index)
        assert cache.built_sets == 0

    def test_untouched_set_is_empty(self):
        cache = _small_cache(assoc=4)
        assert cache.set_contents(0, 3) == (None,) * 4


class TestSetsOnFirstTouch:
    """A fresh core builds no cache or TLB set until a spec touches it."""

    @staticmethod
    def _built(core):
        return ([cache.built_sets for cache in core.hierarchy.levels]
                + [core.tlb.dtlb.built_sets, core.tlb.stlb.built_sets])

    def test_construction_cost(self):
        nb = NanoBench.create("Skylake")
        core = nb.core
        assert self._built(core) == [0] * 5
        nb.run("add RAX, RAX")
        l3 = core.hierarchy.l3
        assert 0 < l3.built_sets <= 16
        assert l3.geometry.n_sets * l3.geometry.n_slices == 4096
        core.hierarchy.wbinvd()
        core.tlb.flush()
        assert self._built(core) == [0] * 5

    def test_probe_and_clflush_build_nothing(self):
        core = NanoBench.create("Skylake").core
        for address in (0x0, 0x12340, 0x7654000):
            assert core.hierarchy.probe_level(address) == 0
            core.hierarchy.clflush(address)
            assert not core.tlb.dtlb.probe(address)
        assert self._built(core) == [0] * 5

    def test_set_dueling_survives_wbinvd(self):
        """The PSEL lives on the policy, not in a set: dropping the sets
        on WBINVD keeps the winner, and a follower set rebuilt after the
        flush inserts under the winning spec."""
        hierarchy = NanoBench.create("Haswell").core.hierarchy
        l3 = hierarchy.l3
        psel = l3.policy.psel
        assert psel.winner == "B"  # the PSEL starts at its midpoint
        # Misses in a dedicated-B set (768, slice 0) flip it to A.
        set_stride = l3.geometry.n_sets * l3.geometry.line_size
        address = 768 * l3.geometry.line_size
        for _ in range(64):
            if psel.winner == "A":
                break
            if l3.locate(address)[:2] == (0, 768):
                assert not l3.access(address)[0]
            address += set_stride
        assert psel.winner == "A"
        value = psel.value
        hierarchy.wbinvd()
        assert l3.built_sets == 0
        assert psel.value == value and psel.winner == "A"
        # Fill follower set 0 of slice 0.  Policy B inserts most lines
        # with age 3; policy A ages them 3, 1, 1, ...
        assert l3.policy.config.classify(0, 0) == "follower"
        ways = l3.geometry.associativity
        reference = make_policy(HASWELL_POLICY_A, ways).create_set()
        address, filled = 0, 0
        while filled < ways:
            slice_id, set_index, tag = l3.locate(address)
            if (slice_id, set_index) == (0, 0):
                l3.access(address)
                reference.access(tag)
                filled += 1
            address += set_stride
        assert l3.set_state(0, 0).ages() == reference.ages()


class TestSliceHash:
    def test_single_slice(self):
        assert intel_slice_hash(1).slice_of(0x12345678) == 0

    def test_two_slices_balanced(self):
        hash2 = intel_slice_hash(2)
        counts = [0, 0]
        for i in range(4096):
            counts[hash2.slice_of(i * 64)] += 1
        assert min(counts) > 1500

    def test_four_slices_balanced(self):
        hash4 = intel_slice_hash(4)
        counts = [0] * 4
        for i in range(8192):
            counts[hash4.slice_of(i * 4096 + 64)] += 1
        assert min(counts) > 1200

    def test_same_set_different_slices_exist(self):
        """The hash uses set-index bits: blocks with equal set index can
        land in different slices (the Briongos-refutation artefact)."""
        hash2 = intel_slice_hash(2)
        seen = set()
        n_sets = 2048
        for i in range(512):
            address = i * (n_sets * 64)  # same set index everywhere
            seen.add(hash2.slice_of(address))
        assert seen == {0, 1}

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SliceHash(3, (0x40,))
        with pytest.raises(ValueError):
            SliceHash(4, (0x40,))
        with pytest.raises(ValueError):
            intel_slice_hash(8)


class TestHierarchy:
    def _build(self, prefetch=False):
        l1 = _small_cache("PLRU", size=4096, assoc=4)  # 16 sets
        l2 = _small_cache("PLRU", size=32768, assoc=4)  # 128 sets
        l3 = _small_cache("QLRU_H11_M1_R0_U0", size=262144, assoc=8,
                          slices=2)
        return MemoryHierarchy(l1, l2, l3, prefetcher_enabled=prefetch)

    def test_miss_goes_to_dram_then_hits_l1(self):
        h = self._build()
        assert h.access(0x10000).level == 4
        assert h.access(0x10000).level == 1

    def test_inclusive_fill(self):
        h = self._build()
        h.access(0x4000)
        assert h.l1.probe(0x4000)
        assert h.l2.probe(0x4000)
        assert h.l3.probe(0x4000)

    def test_l2_hit_after_l1_eviction(self):
        h = self._build()
        target = 0x0
        h.access(target)
        stride = h.l1.geometry.n_sets * 64
        # Evict from L1 with same-L1-set accesses that keep L2 sets apart.
        for i in range(1, 9):
            h.access(i * stride)
        result = h.access(target)
        assert result.level in (2, 3)  # not in L1 anymore
        assert result.level == 2 or not h.l2.probe(target)

    def test_back_invalidation(self):
        """Evicting a line from the inclusive L3 removes it from L1/L2."""
        h = self._build()
        target = 0x0
        h.access(target)
        slice_id, set_index, _ = h.l3.locate(target)
        # Fill the whole L3 set with conflicting lines.
        stride = h.l3.geometry.n_sets * 64
        filled = 0
        address = stride
        while filled < 3 * h.l3.geometry.associativity:
            if h.l3.locate(address)[:2] == (slice_id, set_index):
                h.access(address)
                filled += 1
            address += stride
        assert not h.l3.probe(target)
        assert not h.l1.probe(target)
        assert not h.l2.probe(target)

    def test_wbinvd(self):
        h = self._build()
        h.access(0x8000)
        h.wbinvd()
        assert h.probe_level(0x8000) == 0

    def test_clflush(self):
        h = self._build()
        h.access(0x8000)
        h.clflush(0x8020)  # same line
        assert h.probe_level(0x8000) == 0

    def test_demand_counters(self):
        h = self._build()
        h.access(0x0)   # DRAM
        h.access(0x0)   # L1 hit
        assert h.demand.to_dict() == {
            "l1_hits": 1, "l1_misses": 1, "l2_hits": 0, "l2_misses": 1,
            "l3_hits": 0, "l3_misses": 1,
        }

    def test_prefetcher_pulls_next_line(self):
        h = self._build(prefetch=True)
        h.access(0x0)
        h.access(0x40)  # sequential -> prefetch 0x80
        assert h.probe_level(0x80) != 0

    def test_prefetcher_disabled(self):
        h = self._build(prefetch=False)
        h.access(0x0)
        h.access(0x40)
        assert h.probe_level(0x80) == 0

    def test_prefetch_not_counted_as_demand(self):
        h = self._build(prefetch=True)
        h.access(0x0)
        h.access(0x40)
        assert h.demand.l1_misses == 2  # the prefetch itself not counted

    def test_latencies(self):
        h = self._build()
        assert h.access(0x0).latency == h.memory_latency
        assert h.access(0x0).latency == h.l1_latency


class TestAccessResultSlices:
    """The C-Box contract: which L3 slice an access reports."""

    @staticmethod
    def _hierarchy(uarch):
        hierarchy = SimulatedCore(uarch).hierarchy
        hierarchy.prefetcher_enabled = False
        return hierarchy

    @staticmethod
    def _l3_hit(hierarchy, line):
        # Drop the line from L1 and L2 only: the next access hits L3.
        hierarchy.l1.invalidate_line(line)
        hierarchy.l2.invalidate_line(line)
        return hierarchy.access(line)

    def test_l1_and_l2_hits_carry_no_slice(self):
        h = self._hierarchy("Skylake")
        h.access(0x4000)
        result = h.access(0x4000)
        assert result.level == 1 and result.l3_slice is None
        h.l1.invalidate_line(0x4000)
        result = h.access(0x4000)
        assert result.level == 2 and result.l3_slice is None

    def test_l3_hit_and_dram_carry_the_hashed_slice(self):
        h = self._hierarchy("Skylake")
        slices = set()
        for line in range(0, 64 * 64, 64):
            expected = h.l3.slice_hash.slice_of(line)
            slices.add(expected)
            result = h.access(line)
            assert (result.level, result.l3_slice) == (4, expected)
            result = self._l3_hit(h, line)
            assert (result.level, result.l3_slice) == (3, expected)
        assert slices == set(range(h.l3.geometry.n_slices))

    def test_unsliced_l3_reports_slice_zero(self):
        h = self._hierarchy("Nehalem")
        assert h.l3.geometry.n_slices == 1
        assert h.access(0x8000).l3_slice == 0
        assert self._l3_hit(h, 0x8000).l3_slice == 0

    def test_no_l3_reports_no_slice(self):
        h = MemoryHierarchy(_small_cache(), _small_cache(size=16384),
                            prefetcher_enabled=False)
        result = h.access(0x8000)
        assert (result.level, result.l3_slice) == (4, None)

    def test_cbox_metrics_for_a_fixed_sequence(self):
        # Loads and stores over 384 kB (more than the L2, less than the
        # L3), with the default prefetcher; the counts are pinned.
        core = SimulatedCore("Skylake", seed=0)
        rng = random.Random(11)
        for _ in range(6000):
            address = rng.randrange(6144) * 64 + rng.randrange(64)
            is_store = rng.random() < 0.25
            result = core.hierarchy.access(address, is_write=is_store)
            core._record_memory_metrics(result, is_store=is_store)
        snapshot = core.metrics.snapshot()
        assert {name: snapshot[name] for name in sorted(snapshot)
                if name.startswith(("cbox", "l3"))} == {
            "cbox0_lookups": 1932, "cbox0_misses": 1887,
            "cbox1_lookups": 1958, "cbox1_misses": 1905,
            "l3_hit": 63, "l3_miss": 2826,
        }


class TestHierarchyPin:
    """A seeded stream through the hierarchies of the four cacheSeq CPUs,
    digested access by access.  The digests pin the exact behaviour of
    the access path: inclusive fills, back-invalidation, the prefetcher,
    the step count and the adaptive L3's PSEL."""

    DIGESTS = {
        "Nehalem": "51ee92d66e0bc0aa",
        "SandyBridge": "916c8bb9be34e786",
        "Haswell": "762ea77d79c93025",
        "Skylake": "e26d2b66a1ed7d4a",
    }

    @staticmethod
    def _pools(l3):
        """Line pools that conflict in L1, L2 and L3 sets: a follower
        set, and (on Haswell) the dedicated sets 512 and 768."""
        geometry = l3.geometry
        set_stride = geometry.n_sets * geometry.line_size
        return [[set_index * geometry.line_size + k * set_stride
                 for k in range(3 * geometry.associativity
                                * geometry.n_slices)]
                for set_index in (5, 512, 768)]

    @classmethod
    def _drive(cls, hierarchy, rng, steps):
        """Drive *steps* seeded operations; return one record each."""
        pools = cls._pools(hierarchy.l3)
        records = []
        last = 0
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.15:
                address = last + hierarchy.l1.geometry.line_size
            else:
                address = rng.choice(rng.choice(pools))
            address += rng.randrange(64)
            last = address
            if roll < 0.002:
                hierarchy.wbinvd()
                records.append("wbinvd")
            elif roll < 0.03:
                hierarchy.clflush(address)
                records.append("clflush")
            elif roll < 0.08:
                hierarchy.prefetch_into(address)
                records.append("prefetch")
            else:
                result = hierarchy.access(address, is_write=roll > 0.8)
                records.append((result.level, result.latency,
                                result.l3_slice))
        return records

    @pytest.mark.parametrize("uarch", sorted(DIGESTS))
    def test_seeded_stream_is_pinned(self, uarch):
        hierarchy = SimulatedCore(uarch, seed=0).hierarchy
        rng = random.Random("hierarchy-pin/" + uarch)
        assert hierarchy.prefetcher_enabled
        records = self._drive(hierarchy, rng, 4000)
        hierarchy.prefetcher_enabled = False
        records += self._drive(hierarchy, rng, 4000)
        policy = hierarchy.l3.policy
        if uarch == "Haswell":
            # Both dedicated sides missed, and the follower sets switched.
            assert policy.psel.value != 1 << (policy.config.psel_bits - 1)
        payload = repr((records, hierarchy.fingerprint(),
                        hierarchy.demand.to_dict(), hierarchy.steps_taken))
        digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
        assert digest == self.DIGESTS[uarch]
