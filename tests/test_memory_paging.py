"""Tests for physical memory, the kmalloc allocator, and paging."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NanoBench
from repro.core.codegen import (
    AREA_SIZE,
    MEASUREMENT_AREA_BASE,
    MEASUREMENT_AREA_SIZE,
    R14_AREA_BASE,
    RBP_AREA_BASE,
    RDI_AREA_BASE,
    RSI_AREA_BASE,
    RSP_AREA_BASE,
)
from repro.errors import AllocationError, MemoryError_
from repro.memory.paging import (
    BLOCK_PAGES,
    BLOCK_SIZE,
    KMALLOC_MAX_BYTES,
    PAGE_SIZE,
    AddressSpace,
    MainMemory,
    PhysicalMemory,
    allocate_physically_contiguous,
)


class TestPhysicalMemory:
    def test_kmalloc_basic(self):
        memory = PhysicalMemory(1 << 24)
        a = memory.kmalloc(PAGE_SIZE)
        b = memory.kmalloc(PAGE_SIZE)
        assert a != b
        assert a % PAGE_SIZE == 0 and b % PAGE_SIZE == 0

    def test_kmalloc_rounds_to_pages(self):
        memory = PhysicalMemory(1 << 24)
        a = memory.kmalloc(100)
        b = memory.kmalloc(100)
        assert b - a >= PAGE_SIZE

    def test_kmalloc_limit(self):
        memory = PhysicalMemory(1 << 30)
        with pytest.raises(AllocationError):
            memory.kmalloc(KMALLOC_MAX_BYTES + 1)

    def test_out_of_memory(self):
        memory = PhysicalMemory(4 * PAGE_SIZE)
        memory.kmalloc(4 * PAGE_SIZE)
        with pytest.raises(AllocationError):
            memory.kmalloc(PAGE_SIZE)

    def test_kfree_coalesces(self):
        memory = PhysicalMemory(1 << 20)
        a = memory.kmalloc(1 << 19)
        b = memory.kmalloc(1 << 19)
        memory.kfree(a, 1 << 19)
        memory.kfree(b, 1 << 19)
        assert memory.largest_free_run == 1 << 20

    def test_double_free_detected(self):
        memory = PhysicalMemory(1 << 20)
        a = memory.kmalloc(PAGE_SIZE)
        memory.kfree(a, PAGE_SIZE)
        with pytest.raises(AllocationError):
            memory.kfree(a, PAGE_SIZE)

    def test_fragment_reduces_largest_run(self):
        memory = PhysicalMemory(1 << 26, rng=random.Random(1))
        before = memory.largest_free_run
        memory.fragment(holes=32)
        assert memory.largest_free_run < before
        assert memory.free_bytes < before

    def test_reboot_restores(self):
        memory = PhysicalMemory(1 << 26, rng=random.Random(1))
        memory.fragment()
        memory.reboot()
        assert memory.largest_free_run == 1 << 26


class TestGreedyContiguous:
    def test_small_request_is_plain_kmalloc(self):
        memory = PhysicalMemory(1 << 26)
        address = allocate_physically_contiguous(memory, 1 << 20)
        assert address % PAGE_SIZE == 0

    def test_large_request_fresh_memory(self):
        """On a freshly booted machine consecutive kmallocs are adjacent
        (Section IV-D), so large requests succeed."""
        memory = PhysicalMemory(1 << 28)
        address = allocate_physically_contiguous(memory, 64 << 20)
        assert address % PAGE_SIZE == 0
        # The run is genuinely reserved: it cannot be handed out again.
        other = memory.kmalloc(PAGE_SIZE)
        assert not address <= other < address + (64 << 20)

    def test_large_request_fragmented_memory_fails(self):
        memory = PhysicalMemory(1 << 27, rng=random.Random(3))
        memory.fragment(holes=400, hole_size=8 * PAGE_SIZE)
        with pytest.raises(AllocationError) as excinfo:
            allocate_physically_contiguous(memory, 96 << 20)
        assert "reboot" in str(excinfo.value)

    def test_failed_attempt_releases_memory(self):
        memory = PhysicalMemory(1 << 27, rng=random.Random(3))
        memory.fragment(holes=400, hole_size=8 * PAGE_SIZE)
        free_before = memory.free_bytes
        with pytest.raises(AllocationError):
            allocate_physically_contiguous(memory, 96 << 20)
        assert memory.free_bytes == free_before

    def test_reboot_then_succeeds(self):
        """The tool's advice: reboot, then the allocation works."""
        memory = PhysicalMemory(1 << 28, rng=random.Random(3))
        memory.fragment(holes=600, hole_size=8 * PAGE_SIZE)
        try:
            allocate_physically_contiguous(memory, 128 << 20)
            fragmented_ok = True
        except AllocationError:
            fragmented_ok = False
        memory.reboot()
        address = allocate_physically_contiguous(memory, 128 << 20)
        assert address % PAGE_SIZE == 0
        assert not fragmented_ok  # the reboot was actually needed


class TestMainMemory:
    def test_read_default_zero(self):
        assert MainMemory().read(0x123456, 8) == 0

    def test_write_read_roundtrip(self):
        memory = MainMemory()
        memory.write(0x1000, 8, 0x1122334455667788)
        assert memory.read(0x1000, 8) == 0x1122334455667788
        assert memory.read(0x1000, 4) == 0x55667788  # little-endian

    def test_cross_page_access(self):
        memory = MainMemory()
        address = PAGE_SIZE - 4
        memory.write(address, 8, 0xAABBCCDDEEFF0011)
        assert memory.read(address, 8) == 0xAABBCCDDEEFF0011

    @given(
        address=st.integers(min_value=0, max_value=1 << 30),
        value=st.integers(min_value=0, max_value=(1 << 64) - 1),
        size=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=100)
    def test_roundtrip_property(self, address, value, size):
        memory = MainMemory()
        memory.write(address, size, value)
        assert memory.read(address, size) == value & ((1 << (8 * size)) - 1)

    def test_reading_unwritten_pages_allocates_nothing(self):
        memory = MainMemory()
        assert memory.read(0x5000, 8) == 0
        assert memory.read(PAGE_SIZE - 4, 8) == 0  # across two pages
        assert memory._pages == {}

    def test_matches_bytewise_reference(self):
        """Seeded in-page and cross-page accesses against a dict of
        bytes: one page lookup per in-page access changes nothing."""
        rng = random.Random(26)
        memory, reference = MainMemory(), {}
        for _ in range(3000):
            size = rng.choice([1, 2, 4, 8, 16])
            page = PAGE_SIZE * rng.randrange(1, 4)
            if rng.random() < 0.5:  # straddle the boundary below *page*
                address = page - rng.randrange(1, size + 1)
            else:
                address = page + rng.randrange(PAGE_SIZE - size + 1)
            if rng.random() < 0.5:
                # Wider than *size*, and sometimes negative: the write
                # keeps the low bytes.
                value = rng.getrandbits(8 * size + 8) - (1 << (8 * size))
                memory.write(address, size, value)
                for i in range(size):
                    reference[address + i] = (value >> (8 * i)) & 0xFF
            else:
                assert memory.read(address, size) == sum(
                    reference.get(address + i, 0) << (8 * i)
                    for i in range(size))


class TestWriteLog:
    def test_unchanged_pages_and_watched_bytes(self):
        memory = MainMemory()
        memory.write(0x1000, 8, 7)
        memory.begin_log(watched=[(0x1100, 0x1110)])
        memory.write(0x1000, 8, 7)       # same value: unchanged
        memory.write(0x1100, 8, 99)      # watched: not compared
        memory.write(0x3000, 8, 0)       # a new all-zero page: unchanged
        log = memory.end_log()
        assert sorted(log.before) == [1, 3]
        assert log.before[3] is None
        assert log.changed == []
        assert (log.watched_reads, log.watched_writes) == (0, 1)

    def test_changed_page_and_watched_read(self):
        memory = MainMemory()
        memory.begin_log(watched=[(0x1100, 0x1110)])
        memory.write(0x2ffc, 8, 1)       # crosses into page 3
        assert memory.read(0x110c, 8) == 0  # overlaps the watched range
        log = memory.end_log()
        assert log.changed == [2]
        assert log.watched_reads == 1
        assert memory.read(0x3000, 4) == 0  # logging is over


class TestAddressSpace:
    def test_user_mapping_translates(self):
        space = AddressSpace(PhysicalMemory(1 << 24))
        space.map_user(0x10000, 2 * PAGE_SIZE)
        p1 = space.translate(0x10000)
        p2 = space.translate(0x10000 + PAGE_SIZE)
        assert p1 % PAGE_SIZE == 0
        assert p1 != p2

    def test_user_mapping_scatters(self):
        """User pages are not physically contiguous (in general)."""
        space = AddressSpace(PhysicalMemory(1 << 26),
                             rng=random.Random(2))
        space.map_user(0x100000, 32 * PAGE_SIZE)
        offsets = [
            space.translate(0x100000 + i * PAGE_SIZE) for i in range(32)
        ]
        deltas = {b - a for a, b in zip(offsets, offsets[1:])}
        assert deltas != {PAGE_SIZE}

    def test_kernel_mapping_contiguous(self):
        space = AddressSpace(PhysicalMemory(1 << 28))
        base = space.map_kernel_contiguous(0x200000, 16 << 20)
        for i in range(0, 16 << 20, PAGE_SIZE):
            assert space.translate(0x200000 + i) == base + i

    def test_unmapped_access_raises(self):
        space = AddressSpace(PhysicalMemory(1 << 24))
        with pytest.raises(MemoryError_):
            space.translate(0xdead000)

    def test_double_map_rejected(self):
        space = AddressSpace(PhysicalMemory(1 << 24))
        space.map_user(0x10000, PAGE_SIZE)
        with pytest.raises(MemoryError_):
            space.map_user(0x10000, PAGE_SIZE)

    def test_unaligned_map_rejected(self):
        space = AddressSpace(PhysicalMemory(1 << 24))
        with pytest.raises(ValueError):
            space.map_user(0x10001, PAGE_SIZE)

    def test_unmap_releases(self):
        physical = PhysicalMemory(1 << 24)
        space = AddressSpace(physical)
        free_before = physical.free_bytes
        space.map_user(0x10000, 8 * PAGE_SIZE)
        space.unmap(0x10000, 8 * PAGE_SIZE)
        assert physical.free_bytes == free_before
        assert not space.is_mapped(0x10000)


class TestPlacementPin:
    """Where kernel-mode nanoBench places its areas on the four cacheSeq
    CPUs: the R14 buffer after a 128 MB resize, then after a 48 MB resize
    on fragmented memory, a seeded sample of translations in every area,
    and the final free list.  The cache tools aim at L3 sets and slices
    through these physical addresses, so any change to them moves every
    cache result."""

    PINS = {
        "Nehalem": (0x510000, 0x510000, "3a4ae961c005ff64"),
        "SandyBridge": (0x510000, 0x510000, "d33882c9dd122e6b"),
        "Haswell": (0x510000, 0x510000, "ef9581992d055c3d"),
        "Skylake": (0x510000, 0x510000, "e71a09be51325ee4"),
    }

    @pytest.mark.parametrize("uarch", sorted(PINS))
    def test_r14_placement_is_pinned(self, uarch):
        nb = NanoBench.create(uarch, 0, kernel_mode=True)
        space = nb.core.address_space
        rng = random.Random("placement-pin/" + uarch)
        base = nb.resize_r14_buffer(128 << 20)
        assert nb.r14_physical_base == base
        nb.core.physical.fragment(holes=64)
        base2 = nb.resize_r14_buffer(48 << 20)
        records = [base, base2]
        areas = [(R14_AREA_BASE, 48 << 20)] + [
            (area, AREA_SIZE) for area in (RSP_AREA_BASE, RBP_AREA_BASE,
                                           RDI_AREA_BASE, RSI_AREA_BASE)
        ] + [(MEASUREMENT_AREA_BASE, MEASUREMENT_AREA_SIZE)]
        for low, size in areas:
            for _ in range(64):
                records.append(space.translate(low + rng.randrange(size)))
        records.append(nb.core.physical.free_intervals)
        digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
        assert (base, base2, digest) == self.PINS[uarch]


class _PerPageSpace:
    """Reference model of :class:`AddressSpace`: a plain dict with one
    entry per mapped page, freed page by page."""

    def __init__(self, physical, rng):
        self.physical = physical
        self.rng = rng
        self.pages = {}

    @staticmethod
    def _span(virtual_address, size):
        if virtual_address % PAGE_SIZE:
            raise ValueError("mappings must be page-aligned")
        return range(virtual_address // PAGE_SIZE,
                     (virtual_address + size + PAGE_SIZE - 1) // PAGE_SIZE)

    def check_unmapped(self, virtual_address, size):
        for vpage in self._span(virtual_address, size):
            if vpage in self.pages:
                raise MemoryError_(
                    "virtual page %#x already mapped" % (vpage * PAGE_SIZE,))

    def map_user(self, virtual_address, size):
        self.check_unmapped(virtual_address, size)
        span = self._span(virtual_address, size)
        physical = [self.physical.kmalloc(PAGE_SIZE) for _ in span]
        self.rng.shuffle(physical)
        self.pages.update(zip(span, physical))

    def map_kernel_contiguous(self, virtual_address, size):
        self.check_unmapped(virtual_address, size)
        span = self._span(virtual_address, size)
        base = allocate_physically_contiguous(self.physical,
                                              len(span) * PAGE_SIZE)
        for i, vpage in enumerate(span):
            self.pages[vpage] = base + i * PAGE_SIZE
        return base

    def translate(self, virtual_address):
        paddr = self.pages.get(virtual_address // PAGE_SIZE)
        if paddr is None:
            raise MemoryError_(
                "access to unmapped virtual address %#x" % (virtual_address,))
        return paddr + virtual_address % PAGE_SIZE

    def is_mapped(self, virtual_address):
        return virtual_address // PAGE_SIZE in self.pages

    def unmap(self, virtual_address, size):
        for vpage in self._span(virtual_address, size):
            paddr = self.pages.pop(vpage, None)
            if paddr is not None:
                self.physical.kfree(paddr, PAGE_SIZE)


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except (AllocationError, MemoryError_, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _view(space, probes):
    """What *space* answers at each probe address."""
    return [(_outcome(space.translate, address), space.is_mapped(address))
            for address in probes]


class TestBlockTable:
    """The block table against the per-page reference model, driven by a
    seeded stream of maps, unmaps and re-maps over a 2,048-page window."""

    WINDOW_PAGES = 2048

    @classmethod
    def _operation(cls, rng, live):
        """One seeded ``(method, virtual_address, size)``."""
        window = cls.WINDOW_PAGES * PAGE_SIZE
        roll = rng.random()
        if roll < 0.25:
            return ("map_user", rng.randrange(0, window, PAGE_SIZE),
                    rng.randrange(1, 40 * PAGE_SIZE))
        if roll < 0.55:
            if rng.random() < 0.5:
                base = rng.randrange(0, window, BLOCK_SIZE)
                size = rng.randrange(1, 12) * BLOCK_SIZE
            else:
                base = rng.randrange(0, window, PAGE_SIZE)
                size = rng.randrange(1, 12 * BLOCK_SIZE)
            if rng.random() < 0.05:
                size = KMALLOC_MAX_BYTES + BLOCK_SIZE + PAGE_SIZE
            return "map_kernel_contiguous", base, size
        if roll < 0.95 and live:
            base, size = rng.choice(live)
            kind = rng.randrange(3)
            if kind == 1:  # partial
                first = rng.randrange(0, size, PAGE_SIZE)
                base, size = base + first, rng.randrange(1, size - first + 1)
            elif kind == 2:  # straddling into whatever follows
                shift = rng.randrange(-4, 5) * PAGE_SIZE
                base, size = max(base + shift, 0), size + BLOCK_SIZE
            return "unmap", base, size
        if roll < 0.98:  # anywhere, mapped or not; now and then unaligned
            return ("unmap", rng.randrange(0, window, PAGE_SIZE)
                    + 8 * (rng.random() < 0.1),
                    rng.randrange(1, 24 * BLOCK_SIZE))
        return "fragment", 0, 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agrees_with_per_page_model(self, seed):
        rng = random.Random("block-table/%d" % seed)
        space = AddressSpace(PhysicalMemory(6 << 20, random.Random(seed)),
                             rng=random.Random(seed))
        model = _PerPageSpace(PhysicalMemory(6 << 20, random.Random(seed)),
                              random.Random(seed))
        live = []
        probes = [page * PAGE_SIZE + rng.randrange(PAGE_SIZE)
                  for page in range(self.WINDOW_PAGES + BLOCK_PAGES)]
        for step in range(250):
            method, base, size = self._operation(rng, live)
            if method == "fragment":
                space.physical.fragment(holes=16)
                model.physical.fragment(holes=16)
            else:
                got = _outcome(getattr(space, method), base, size)
                assert got == _outcome(getattr(model, method), base, size), \
                    (step, method, hex(base), size)
                if got[0] == "ok" and method != "unmap":
                    live.append((base, size))
                # A double map is refused with the same first page named.
                assert (_outcome(space.check_unmapped, base, size)
                        == _outcome(model.check_unmapped, base, size))
            assert (space.physical.free_intervals
                    == model.physical.free_intervals), step
            assert _view(space, probes) == _view(model, probes), step
        assert len(live) > 20

    def test_unmap_frees_each_contiguous_run_once(self, monkeypatch):
        physical = PhysicalMemory(1 << 26)
        space = AddressSpace(physical)
        base = space.map_kernel_contiguous(0x10000, 8 << 20)
        calls = []
        original = physical.kfree
        monkeypatch.setattr(physical, "kfree",
                            lambda *args: calls.append(args) or original(*args))
        space.unmap(0x10000, 8 << 20)
        assert calls == [(base, 8 << 20)]
        assert physical.free_intervals == [(0, 1 << 26)]

    def test_r14_resize_footprint(self):
        """A 128 MB kernel buffer is 2,048 block entries, not a dict
        entry per page (3.3 MB under the per-page table)."""
        nb = NanoBench.create("Skylake", 0, kernel_mode=True)
        tracemalloc.start()
        try:
            nb.resize_r14_buffer(128 << 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10
