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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import AllocationError, MemoryError_

PAGE_SIZE = 4096
_PAGE_SHIFT = 12
#: Pages per :class:`AddressSpace` page-table block (64 KB).  Every
#: nanoBench scratch area is a whole number of blocks.
BLOCK_PAGES = 16
BLOCK_SIZE = BLOCK_PAGES * PAGE_SIZE
_BLOCK_SHIFT = BLOCK_PAGES.bit_length() - 1
_BLOCK_MASK = BLOCK_PAGES - 1
_BLOCK_BYTES_SHIFT = _PAGE_SHIFT + _BLOCK_SHIFT
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

    @property
    def free_intervals(self) -> List[Tuple[int, int]]:
        """The free list as ``(start, size)`` pairs, in address order."""
        return [(iv.start, iv.size) for iv in self._free]


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
    """Byte-addressable physical memory contents (sparse, page-granular).

    A page that was never written holds zeros and is not stored: reads
    of it return 0 and allocate nothing.  An access inside one page
    looks the page up once; one that crosses a page boundary goes byte
    by byte.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._log: Optional[WriteLog] = None

    def _page_for_write(self, page_number: int) -> bytearray:
        page = self._pages.get(page_number)
        log = self._log
        if log is not None and page_number not in log.before:
            log.before[page_number] = None if page is None else bytes(page)
        if page is None:
            page = self._pages[page_number] = bytearray(PAGE_SIZE)
        return page

    def read(self, physical_address: int, size: int) -> int:
        """Little-endian read of *size* bytes."""
        if self._log is not None:
            self._log.note(physical_address, size, write=False)
        offset = physical_address % PAGE_SIZE
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(physical_address // PAGE_SIZE)
            if page is None:
                return 0
            return int.from_bytes(page[offset:offset + size], "little")
        value = 0
        for i in range(size):
            address = physical_address + i
            page = self._pages.get(address // PAGE_SIZE)
            if page is not None:
                value |= page[address % PAGE_SIZE] << (8 * i)
        return value

    def write(self, physical_address: int, size: int, value: int) -> None:
        """Little-endian write of *size* bytes."""
        if self._log is not None:
            self._log.note(physical_address, size, write=True)
        offset = physical_address % PAGE_SIZE
        if offset + size <= PAGE_SIZE:
            page = self._page_for_write(physical_address // PAGE_SIZE)
            page[offset:offset + size] = (
                value & ((1 << (8 * size)) - 1)
            ).to_bytes(size, "little")
            return
        for i in range(size):
            address = physical_address + i
            page = self._page_for_write(address // PAGE_SIZE)
            page[address % PAGE_SIZE] = (value >> (8 * i)) & 0xFF

    # ------------------------------------------------------------------
    def begin_log(self, watched: Sequence[Tuple[int, int]] = ()) -> None:
        """Start a :class:`WriteLog` of the accesses that follow."""
        self._log = WriteLog(watched)

    def end_log(self) -> "WriteLog":
        """Stop logging; returns the log, with :attr:`WriteLog.changed`
        filled in against the current contents."""
        log, self._log = self._log, None
        zero = bytes(PAGE_SIZE)
        for number, before in log.before.items():
            after = self._pages.get(number)
            if not log.same_outside_watched(
                    number, zero if before is None else before,
                    zero if after is None else after):
                log.changed.append(number)
        return log


class WriteLog:
    """What a stretch of execution did to :class:`MainMemory`.

    ``before`` holds each written page's contents before its first
    write (``None``: the page did not exist, i.e. was all zeros), so
    the pages a run changed are found without copying the rest.
    Accesses that overlap a *watched* physical range ``[lo, hi)`` are
    counted instead, and bytes inside one are not compared: the
    run-level fixed point watches the counter result slots, whose
    contents differ in every run (see ``repro.core.nanobench``).
    """

    __slots__ = ("watched", "_lo", "_hi", "before", "changed",
                 "watched_reads", "watched_writes")

    def __init__(self, watched: Sequence[Tuple[int, int]]) -> None:
        self.watched = tuple(watched)
        self._lo = min((lo for lo, _ in self.watched), default=0)
        self._hi = max((hi for _, hi in self.watched), default=0)
        self.before: Dict[int, Optional[bytes]] = {}
        self.changed: List[int] = []
        self.watched_reads = 0
        self.watched_writes = 0

    def note(self, physical_address: int, size: int, *, write: bool) -> None:
        end = physical_address + size
        if physical_address >= self._hi or end <= self._lo:
            return
        for lo, hi in self.watched:
            if physical_address < hi and lo < end:
                if write:
                    self.watched_writes += 1
                else:
                    self.watched_reads += 1
                return

    def same_outside_watched(self, number: int, before: bytes,
                             after: bytes) -> bool:
        """Whether page *number* reads the same outside watched bytes."""
        if before == after:
            return True
        base = number * PAGE_SIZE
        cursor = 0
        for lo, hi in sorted(self.watched):
            lo, hi = max(lo - base, 0), min(hi - base, PAGE_SIZE)
            if lo >= hi:
                continue
            if before[cursor:lo] != after[cursor:lo]:
                return False
            cursor = max(cursor, hi)
        return before[cursor:] == after[cursor:]


class AddressSpace:
    """Virtual-to-physical page mapping for one benchmark process.

    The page table maps aligned blocks of :data:`BLOCK_PAGES` pages to
    the byte delta ``physical - virtual``.  A block that one physically
    contiguous mapping covers whole holds one delta; any other block
    (user pages, the ragged ends of a contiguous mapping) holds a list
    of per-page deltas, ``None`` where unmapped.  A 128 MB kernel buffer
    thus costs 2,048 entries rather than 32,768.
    """

    def __init__(self, physical: PhysicalMemory,
                 rng: Optional[random.Random] = None) -> None:
        self.physical = physical
        self.rng = rng if rng is not None else random.Random(1)
        self._blocks: Dict[int, Union[int, List[Optional[int]]]] = {}

    def map_user(self, virtual_address: int, size: int) -> None:
        """Map a user buffer onto *scattered* physical pages."""
        self.check_unmapped(virtual_address, size)
        first, end = _page_span(virtual_address, size)
        physical_pages = [self.physical.kmalloc(PAGE_SIZE)
                          for _ in range(first, end)]
        self.rng.shuffle(physical_pages)
        for vpage, paddr in zip(range(first, end), physical_pages):
            self._pages_of(vpage >> _BLOCK_SHIFT)[vpage & _BLOCK_MASK] = (
                paddr - (vpage << _PAGE_SHIFT)
            )

    def map_kernel_contiguous(self, virtual_address: int, size: int) -> int:
        """Map a kernel buffer onto a physically-contiguous region.

        Returns the physical base address (tools use it for slice/set
        targeting).
        """
        self.check_unmapped(virtual_address, size)
        first, end = _page_span(virtual_address, size)
        base = allocate_physically_contiguous(
            self.physical, (end - first) * PAGE_SIZE
        )
        delta = base - virtual_address
        for block, lo, hi in _block_pieces(first, end):
            if hi - lo == BLOCK_PAGES:
                self._blocks[block] = delta
            else:
                self._pages_of(block)[lo:hi] = [delta] * (hi - lo)
        return base

    def translate(self, virtual_address: int) -> int:
        """Translate a virtual address; raises on unmapped pages."""
        delta = self._blocks.get(virtual_address >> _BLOCK_BYTES_SHIFT)
        if delta.__class__ is list:
            delta = delta[(virtual_address >> _PAGE_SHIFT) & _BLOCK_MASK]
        if delta is None:
            raise MemoryError_(
                "access to unmapped virtual address %#x" % (virtual_address,)
            )
        return virtual_address + delta

    def is_mapped(self, virtual_address: int) -> bool:
        delta = self._blocks.get(virtual_address >> _BLOCK_BYTES_SHIFT)
        if delta.__class__ is list:
            delta = delta[(virtual_address >> _PAGE_SHIFT) & _BLOCK_MASK]
        return delta is not None

    def unmap(self, virtual_address: int, size: int) -> None:
        """Unmap a region, returning its physical pages to the allocator
        with one ``kfree`` per physically contiguous run."""
        start = stop = None
        for paddr, length in self._release(*_page_span(virtual_address, size)):
            if paddr == stop:
                stop += length
                continue
            if start is not None:
                self.physical.kfree(start, stop - start)
            start, stop = paddr, paddr + length
        if start is not None:
            self.physical.kfree(start, stop - start)

    def check_unmapped(self, virtual_address: int, size: int) -> None:
        """Raise :class:`MemoryError_` naming the first mapped page of a
        region; the mapping calls check this before they allocate."""
        for block, lo, hi in _block_pieces(*_page_span(virtual_address, size)):
            entry = self._blocks.get(block)
            if entry.__class__ is list:
                lo = next((i for i in range(lo, hi) if entry[i] is not None),
                          None)
                if lo is None:
                    continue
            elif entry is None:
                continue
            raise MemoryError_(
                "virtual page %#x already mapped"
                % (((block << _BLOCK_SHIFT) + lo) * PAGE_SIZE,)
            )

    # ------------------------------------------------------------------
    def _pages_of(self, block: int) -> List[Optional[int]]:
        """Block *block* as a list of per-page deltas, made on demand."""
        entry = self._blocks.get(block)
        if entry.__class__ is list:
            return entry
        entry = self._blocks[block] = [entry] * BLOCK_PAGES
        return entry

    def _release(self, first: int, end: int) -> Iterator[Tuple[int, int]]:
        """Drop pages ``[first, end)`` from the table, yielding the
        physical ``(address, size)`` pieces they held in page order."""
        blocks = self._blocks
        for block, lo, hi in _block_pieces(first, end):
            entry = blocks.get(block)
            if entry is None:
                continue
            if entry.__class__ is not list and hi - lo == BLOCK_PAGES:
                del blocks[block]
                yield (block << _BLOCK_BYTES_SHIFT) + entry, BLOCK_SIZE
                continue
            pages = self._pages_of(block)
            block_base = block << _BLOCK_BYTES_SHIFT
            for i in range(lo, hi):
                delta, pages[i] = pages[i], None
                if delta is not None:
                    yield block_base + i * PAGE_SIZE + delta, PAGE_SIZE
            if pages.count(None) == BLOCK_PAGES:
                del blocks[block]


def _page_span(virtual_address: int, size: int) -> Tuple[int, int]:
    """The virtual page numbers ``[first, end)`` of a mapping."""
    if virtual_address % PAGE_SIZE:
        raise ValueError("mappings must be page-aligned")
    return (virtual_address >> _PAGE_SHIFT,
            (virtual_address + size + PAGE_SIZE - 1) >> _PAGE_SHIFT)


def _block_pieces(first: int, end: int) -> Iterator[Tuple[int, int, int]]:
    """Split pages ``[first, end)`` by block: ``(block, lo, hi)`` with
    page indexes ``[lo, hi)`` inside the block."""
    while first < end:
        block = first >> _BLOCK_SHIFT
        block_start = block << _BLOCK_SHIFT
        yield (block, first - block_start,
               min(end - block_start, BLOCK_PAGES))
        first = block_start + BLOCK_PAGES
