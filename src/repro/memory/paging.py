"""Simulated physical memory, paging, and the kmalloc-style allocator.

Two paper-relevant behaviours live here:

* **User vs kernel mappings.**  User-space buffers map to scattered
  physical pages, so a virtually-contiguous user buffer covers
  unpredictable L3 sets/slices.  The kernel version of nanoBench can
  "allocate physically-contiguous memory" (Sections III-G, IV-D), which
  the cache-analysis tools need to target specific sets and slices.

* **The greedy contiguous allocator** (Section IV-D): kmalloc is limited
  to 4 MB, but "in many cases, subsequent calls to kmalloc yield
  adjacent memory areas ... in particular ... if the system was rebooted
  recently", so nanoBench greedily calls kmalloc, keeps adjacent chunks,
  and proposes a reboot when it cannot build a large-enough run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import AllocationError, MemoryError_

PAGE_SIZE = 4096
#: kmalloc limit with recent kernels (Section IV-D).
KMALLOC_MAX_BYTES = 4 * 1024 * 1024


@dataclass
class _FreeInterval:
    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size


class PhysicalMemory:
    """A physical address range with a first-fit page allocator.

    ``fragment()`` models system uptime: it punches random allocated
    holes into the free space so that consecutive kmalloc calls stop
    returning adjacent regions; ``reboot()`` restores the pristine map.
    """

    def __init__(self, size_bytes: int = 1 << 30,
                 rng: Optional[random.Random] = None) -> None:
        if size_bytes % PAGE_SIZE:
            raise ValueError("physical memory size must be page-aligned")
        self.size_bytes = size_bytes
        self.rng = rng if rng is not None else random.Random(0)
        self._free: List[_FreeInterval] = [_FreeInterval(0, size_bytes)]

    # ------------------------------------------------------------------
    def _round_up(self, size: int) -> int:
        return (size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE

    def kmalloc(self, size: int) -> int:
        """Allocate a physically-contiguous region; returns its address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if size > KMALLOC_MAX_BYTES:
            raise AllocationError(
                "kmalloc limited to %d bytes" % (KMALLOC_MAX_BYTES,)
            )
        size = self._round_up(size)
        for i, interval in enumerate(self._free):
            if interval.size >= size:
                address = interval.start
                interval.start += size
                interval.size -= size
                if interval.size == 0:
                    del self._free[i]
                return address
        raise AllocationError("out of physical memory")

    def kfree(self, address: int, size: int) -> None:
        """Return a region to the free list (coalescing neighbours)."""
        size = self._round_up(size)
        self._free.append(_FreeInterval(address, size))
        self._free.sort(key=lambda iv: iv.start)
        merged: List[_FreeInterval] = []
        for interval in self._free:
            if merged and merged[-1].end == interval.start:
                merged[-1].size += interval.size
            elif merged and merged[-1].end > interval.start:
                raise AllocationError("double free at %#x" % (interval.start,))
            else:
                merged.append(interval)
        self._free = merged

    def fragment(self, holes: int = 64,
                 hole_size: int = 16 * PAGE_SIZE) -> None:
        """Punch random allocated holes into free space (models uptime)."""
        for _ in range(holes):
            candidates = [iv for iv in self._free if iv.size > 2 * hole_size]
            if not candidates:
                return
            interval = self.rng.choice(candidates)
            max_offset = (interval.size - hole_size) // PAGE_SIZE
            offset = self.rng.randrange(max_offset + 1) * PAGE_SIZE
            start = interval.start + offset
            # Split the interval around [start, start + hole_size).
            self._free.remove(interval)
            left = _FreeInterval(interval.start, offset)
            right = _FreeInterval(
                start + hole_size, interval.size - offset - hole_size
            )
            if left.size:
                self._free.append(left)
            if right.size:
                self._free.append(right)
            self._free.sort(key=lambda iv: iv.start)

    def reboot(self) -> None:
        """Restore the pristine, unfragmented memory map."""
        self._free = [_FreeInterval(0, self.size_bytes)]

    @property
    def free_bytes(self) -> int:
        return sum(iv.size for iv in self._free)

    @property
    def largest_free_run(self) -> int:
        return max((iv.size for iv in self._free), default=0)


def allocate_physically_contiguous(
    memory: PhysicalMemory, size: int, max_attempts: int = 64
) -> int:
    """Greedy multi-kmalloc contiguous allocation (Section IV-D).

    Repeatedly kmallocs ``KMALLOC_MAX_BYTES`` chunks, keeping chunks that
    extend the current adjacent run and releasing the rest afterwards.
    Raises :class:`AllocationError` (suggesting a reboot) when no run of
    the requested size can be built.
    """
    if size <= KMALLOC_MAX_BYTES:
        return memory.kmalloc(size)
    chunk = KMALLOC_MAX_BYTES
    run_start: Optional[int] = None
    run_size = 0
    stray: List[int] = []
    try:
        for _ in range(max_attempts):
            try:
                address = memory.kmalloc(chunk)
            except AllocationError:
                break
            if run_start is None:
                run_start, run_size = address, chunk
            elif address == run_start + run_size:
                run_size += chunk
            elif address + chunk == run_start:
                run_start, run_size = address, run_size + chunk
            else:
                # Not adjacent: remember the old run as stray chunks and
                # restart the run from the new allocation.
                for offset in range(0, run_size, chunk):
                    stray.append(run_start + offset)
                run_start, run_size = address, chunk
            if run_size >= size:
                return run_start
        # Failed: release everything we grabbed.
        if run_start is not None:
            for offset in range(0, run_size, chunk):
                stray.append(run_start + offset)
            run_start = None
        raise AllocationError(
            "could not allocate %d physically-contiguous bytes; "
            "try rebooting the (simulated) machine" % (size,)
        )
    finally:
        for address in stray:
            memory.kfree(address, chunk)


class MainMemory:
    """Byte-addressable physical memory contents (sparse, page-granular)."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}

    def _page(self, physical_address: int) -> bytearray:
        page_number = physical_address // PAGE_SIZE
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_number] = page
        return page

    def read(self, physical_address: int, size: int) -> int:
        """Little-endian read of *size* bytes."""
        value = 0
        for i in range(size):
            address = physical_address + i
            page = self._page(address)
            value |= page[address % PAGE_SIZE] << (8 * i)
        return value

    def write(self, physical_address: int, size: int, value: int) -> None:
        """Little-endian write of *size* bytes."""
        for i in range(size):
            address = physical_address + i
            page = self._page(address)
            page[address % PAGE_SIZE] = (value >> (8 * i)) & 0xFF


class AddressSpace:
    """Virtual-to-physical page mapping for one benchmark process."""

    def __init__(self, physical: PhysicalMemory,
                 rng: Optional[random.Random] = None) -> None:
        self.physical = physical
        self.rng = rng if rng is not None else random.Random(1)
        self._page_table: Dict[int, int] = {}

    def map_user(self, virtual_address: int, size: int) -> None:
        """Map a user buffer onto *scattered* physical pages."""
        self._check_unmapped(virtual_address, size)
        pages = self._page_range(virtual_address, size)
        physical_pages = [self.physical.kmalloc(PAGE_SIZE) for _ in pages]
        self.rng.shuffle(physical_pages)
        for vpage, paddr in zip(pages, physical_pages):
            self._page_table[vpage] = paddr // PAGE_SIZE

    def map_kernel_contiguous(self, virtual_address: int, size: int) -> int:
        """Map a kernel buffer onto a physically-contiguous region.

        Returns the physical base address (tools use it for slice/set
        targeting).
        """
        self._check_unmapped(virtual_address, size)
        base = allocate_physically_contiguous(
            self.physical, self._round_up(size)
        )
        for i, vpage in enumerate(self._page_range(virtual_address, size)):
            self._page_table[vpage] = base // PAGE_SIZE + i
        return base

    def translate(self, virtual_address: int) -> int:
        """Translate a virtual address; raises on unmapped pages."""
        vpage = virtual_address // PAGE_SIZE
        ppage = self._page_table.get(vpage)
        if ppage is None:
            raise MemoryError_(
                "access to unmapped virtual address %#x" % (virtual_address,)
            )
        return ppage * PAGE_SIZE + virtual_address % PAGE_SIZE

    def is_mapped(self, virtual_address: int) -> bool:
        return virtual_address // PAGE_SIZE in self._page_table

    def unmap(self, virtual_address: int, size: int) -> None:
        """Unmap a region, returning its physical pages to the allocator."""
        for vpage in self._page_range(virtual_address, size):
            ppage = self._page_table.pop(vpage, None)
            if ppage is not None:
                self.physical.kfree(ppage * PAGE_SIZE, PAGE_SIZE)

    # ------------------------------------------------------------------
    def _round_up(self, size: int) -> int:
        return (size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE

    def _page_range(self, virtual_address: int, size: int) -> List[int]:
        if virtual_address % PAGE_SIZE:
            raise ValueError("mappings must be page-aligned")
        return list(range(
            virtual_address // PAGE_SIZE,
            (virtual_address + self._round_up(size)) // PAGE_SIZE,
        ))

    def _check_unmapped(self, virtual_address: int, size: int) -> None:
        for vpage in self._page_range(virtual_address, size):
            if vpage in self._page_table:
                raise MemoryError_(
                    "virtual page %#x already mapped" % (vpage * PAGE_SIZE,)
                )
