"""The durable, crash-safe, content-addressed result store.

At uops.info scale the expensive asset is the accumulated result set —
tens of thousands of measured spec variants per microarchitecture — and
:class:`ResultStore` is where it lives: a directory of segmented
append-only JSONL files keyed by the content digest of each benchmark
spec, built so that an acknowledged :meth:`put` survives kill -9,
disk-full, bit-rot, and concurrent writers.

Durability contract
-------------------

* **fsync-on-ack**: :meth:`put` returns only after the record is
  flushed (and, by default, fsynced) to the active segment, so a kill
  after the ack never loses the record.
* **Torn-write recovery**: a kill *during* an append leaves a torn
  trailing line; opening the store truncates the file back to the last
  complete, checksum-valid record — losing only the write that was
  never acknowledged.  A write cut short while the process lives (a
  short write, ENOSPC, an injected fault) is rolled back and retried
  in place by :func:`~repro.store.segment.append_line`, the one append
  routine the service's job journal uses too.
* **Atomic rotation/compaction**: sealed segments are only ever created
  by ``rename`` of a fully-written, fsynced file, so every sealed
  segment is complete; a crash mid-compaction leaves a ``*.tmp`` file
  that the next open discards.
* **Corruption quarantine + read-repair**: a bit-flipped interior
  record fails its SHA-256, is moved to ``quarantine/``, and the digest
  simply misses on the next :meth:`get` — the caller re-executes and
  the fresh :meth:`put` rewrites it.
* **Multi-process safety**: mutations take an advisory ``flock`` on the
  store root, and the active-segment handle is revalidated against the
  path's inode each append, so batch workers and repeated CLI runs can
  share one store.

Content addressing makes every operation idempotent: records are keyed
by spec digest, duplicate puts are last-wins, and a replayed record is
byte-identical to the original measurement (JSON round-trips floats via
``repr``).
"""

from __future__ import annotations

import errno
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from ..errors import StoreError, StoreFullError
from ..faults.plan import active_plan
from .locking import FileLock
from .records import RECORD_VERSION, encode_record, record_checksum
from .segment import (
    ACTIVE_NAME,
    LOCK_NAME,
    QUARANTINE_DIR,
    SEGMENTS_DIR,
    TMP_SUFFIX,
    WRITE_ATTEMPTS,
    SegmentScan,
    TornWrite,
    append_line,
    fsync_directory,
    heal_segment,
    scan_segment,
    segment_name,
    segment_number,
)

#: Rotation threshold: an append that takes the active segment to this
#: size seals it into ``segments/``.
DEFAULT_SEGMENT_BYTES = 4 << 20


@dataclass
class StoreStats:
    """Point-in-time accounting for one :class:`ResultStore` handle.

    Counter semantics: ``records``/``segments``/``disk_bytes`` describe
    the store as it stands; everything else counts events observed by
    *this* handle since it was opened.
    """

    records: int = 0
    segments: int = 0
    disk_bytes: int = 0
    hits: int = 0
    misses: int = 0
    puts: int = 0
    rotations: int = 0
    compactions: int = 0
    #: Torn tails truncated while opening or healing (acked data is
    #: never in a torn tail, so these only drop unacknowledged bytes).
    truncations: int = 0
    #: Corrupt interior lines moved to ``quarantine/``.
    quarantined: int = 0
    #: Records dropped by TTL / size-budget eviction.
    evicted_ttl: int = 0
    evicted_size: int = 0
    #: Chaos-plane injections healed in the append path.
    healed_torn_writes: int = 0
    healed_enospc: int = 0

    def describe(self) -> str:
        lines = [
            "records:      %d (in %d sealed segment(s) + active)"
            % (self.records, self.segments),
            "disk bytes:   %d" % self.disk_bytes,
            "gets:         %d hits, %d misses" % (self.hits, self.misses),
            "puts:         %d (%d rotations, %d compactions)"
            % (self.puts, self.rotations, self.compactions),
            "recovery:     %d torn tails truncated, %d lines quarantined"
            % (self.truncations, self.quarantined),
            "eviction:     %d by TTL, %d by size budget"
            % (self.evicted_ttl, self.evicted_size),
        ]
        if self.healed_torn_writes or self.healed_enospc:
            lines.append(
                "chaos healed: %d torn writes, %d ENOSPC"
                % (self.healed_torn_writes, self.healed_enospc)
            )
        return "\n".join(lines)


@dataclass
class EvictionStats:
    """Outcome of one :meth:`ResultStore.gc` pass."""

    examined: int = 0
    evicted_ttl: int = 0
    evicted_size: int = 0
    kept: int = 0
    bytes_before: int = 0
    bytes_after: int = 0

    @property
    def evicted(self) -> int:
        return self.evicted_ttl + self.evicted_size

    def describe(self) -> str:
        return (
            "examined %d record(s): evicted %d (%d expired, %d over "
            "budget), kept %d; %d -> %d bytes"
            % (self.examined, self.evicted, self.evicted_ttl,
               self.evicted_size, self.kept,
               self.bytes_before, self.bytes_after)
        )


@dataclass
class VerifyReport:
    """Outcome of one :meth:`ResultStore.verify` scan (read-only)."""

    segments: int = 0
    records: int = 0
    distinct_digests: int = 0
    corrupt_lines: int = 0
    torn_bytes: int = 0
    quarantined_files: int = 0
    disk_bytes: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.corrupt_lines == 0 and self.torn_bytes == 0

    def describe(self) -> str:
        lines = [
            "%d record(s) (%d distinct digest(s)) in %d segment file(s), "
            "%d bytes" % (self.records, self.distinct_digests,
                          self.segments, self.disk_bytes),
            "%d corrupt line(s), %d torn tail byte(s), %d quarantined "
            "file(s)" % (self.corrupt_lines, self.torn_bytes,
                         self.quarantined_files),
        ]
        lines.extend("problem: %s" % problem for problem in self.problems)
        lines.append("verdict: %s" % ("ok" if self.ok else "NEEDS RECOVERY"))
        return "\n".join(lines)


class ResultStore:
    """Disk-backed content-addressed store of benchmark result records.

    The active segment is sealed once it reaches
    :data:`DEFAULT_SEGMENT_BYTES` (or on :meth:`rotate`); eviction runs
    only when asked (:meth:`gc`).

    Parameters
    ----------
    root:
        Store directory (created if missing).
    fsync:
        fsync every acknowledged append (the durability default).
        ``False`` trades the power-loss guarantee for speed — records
        are still flushed, so a *process* kill loses nothing either way.
    lock_timeout:
        Bound on waiting for the advisory multi-process lock.
    """

    def __init__(
        self,
        root: Union[str, "os.PathLike[str]"],
        *,
        fsync: bool = True,
        lock_timeout: float = 10.0,
    ) -> None:
        self.root = os.fspath(root)
        self.fsync = fsync
        self._segments_dir = os.path.join(self.root, SEGMENTS_DIR)
        self._quarantine_dir = os.path.join(self.root, QUARANTINE_DIR)
        self._active_path = os.path.join(self.root, ACTIVE_NAME)
        os.makedirs(self._segments_dir, exist_ok=True)
        os.makedirs(self._quarantine_dir, exist_ok=True)
        self._lock = FileLock(os.path.join(self.root, LOCK_NAME),
                              timeout=lock_timeout)
        self._handle = None
        self._index: Dict[str, dict] = {}
        self.counters = StoreStats()
        with self._lock:
            self._recover_and_load_locked()

    # ------------------------------------------------------------------
    # Open-time recovery and index construction
    # ------------------------------------------------------------------
    def _segment_names(self) -> List[str]:
        names = [name for name in os.listdir(self._segments_dir)
                 if segment_number(name) is not None]
        return sorted(names, key=segment_number)

    def _recover_and_load_locked(self) -> None:
        # A crash mid-compaction/rotation leaves a temp file that was
        # never renamed into place: it holds no acknowledged data.
        for name in os.listdir(self._segments_dir):
            if name.endswith(TMP_SUFFIX):
                os.unlink(os.path.join(self._segments_dir, name))
        # Healing the active segment stages its rewrite in the store
        # root (active.jsonl.tmp); a crash mid-heal leaves it behind.
        try:
            os.unlink(self._active_path + TMP_SUFFIX)
        except FileNotFoundError:
            pass
        self._index = {}
        for name in self._segment_names():
            path = os.path.join(self._segments_dir, name)
            scan = scan_segment(path)
            if not scan.clean:
                scan = self._heal_segment_locked(path, scan)
            for _, record in scan.records:
                self._index[record["digest"]] = record
        scan = scan_segment(self._active_path)
        if not scan.clean:
            scan = self._heal_segment_locked(self._active_path, scan)
        for _, record in scan.records:
            self._index[record["digest"]] = record

    def _heal_segment_locked(self, path: str,
                             scan: SegmentScan) -> SegmentScan:
        """Truncate the torn tail and quarantine interior corruption."""
        if heal_segment(scan, self._quarantine_dir):
            self.counters.truncations += 1
        if scan.corrupt:
            self.counters.quarantined += len(scan.corrupt)
            warnings.warn(
                "store %s: quarantined %d corrupt line(s) of %s "
                "(checksum mismatch / torn write); affected specs will "
                "be re-executed on demand"
                % (self.root, len(scan.corrupt), os.path.basename(path))
            )
        return scan_segment(path)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[dict]:
        """The stored record for *digest*, or None (count hit/miss)."""
        record = self._index.get(digest)
        if record is None:
            self.counters.misses += 1
        else:
            self.counters.hits += 1
        return record

    def peek(self, digest: str) -> Optional[dict]:
        """The stored record for *digest*, or None, counting neither a
        hit nor a miss: for reads that answer no spec, such as status
        polls."""
        return self._index.get(digest)

    def __contains__(self, digest: str) -> bool:
        return digest in self._index

    def __len__(self) -> int:
        return len(self._index)

    def digests(self) -> Iterator[str]:
        return iter(self._index)

    def refresh(self) -> None:
        """Re-scan the directory (picks up other processes' appends)."""
        self._close_handle()
        with self._lock:
            self._recover_and_load_locked()

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def put(self, digest: str, payload: dict,
            ts: Optional[float] = None) -> dict:
        """Durably store *payload* under *digest* (last-wins).

        Returns the full record as written.  On return the record is
        flushed (and fsynced unless disabled) — the ack point of the
        crash-safety contract.
        """
        record = dict(payload)
        record["digest"] = digest
        record.setdefault("v", RECORD_VERSION)
        record["ts"] = float(time.time() if ts is None else ts)
        record.pop("sha", None)
        record["sha"] = record_checksum(record)
        line = encode_record(record)
        with self._lock:
            append_line(self._active_handle, line, digest, sync=self.fsync,
                        owner="store %s" % self.root,
                        torn_site="store.torn_write", full_site="disk.full",
                        healed=self._count_heal)
            self._index[digest] = record
            self.counters.puts += 1
            self._maybe_rotate_locked()
        return record

    def _active_handle(self):
        """The append handle, revalidated against the path's inode.

        Another process may have rotated or compacted the active
        segment away; writing through a stale handle would append to an
        unlinked or sealed file, so the handle is reopened whenever the
        path no longer names the same inode.
        """
        if self._handle is not None:
            try:
                if (os.fstat(self._handle.fileno()).st_ino
                        == os.stat(self._active_path).st_ino):
                    return self._handle
            except OSError:
                pass
            self._close_handle()
        if self._handle is None:
            # Unbuffered: a failed append must leave no user-space
            # buffer whose later flush/close would replay the failed
            # bytes (every append flushes immediately, so buffering
            # gains nothing here anyway).
            self._handle = open(self._active_path, "ab", buffering=0)
        return self._handle

    def _count_heal(self, exc: Exception) -> None:
        """Account one append that :func:`append_line` rolled back."""
        self.counters.truncations += 1
        if isinstance(exc, TornWrite):
            self.counters.healed_torn_writes += 1
        else:
            self.counters.healed_enospc += 1

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------
    def _maybe_rotate_locked(self) -> None:
        if (self._handle is not None
                and self._handle.tell() >= DEFAULT_SEGMENT_BYTES):
            self._rotate_locked()

    def rotate(self) -> Optional[str]:
        """Seal the active segment now; returns the new segment name."""
        with self._lock:
            return self._rotate_locked()

    def _next_segment_number(self) -> int:
        names = self._segment_names()
        return (segment_number(names[-1]) + 1) if names else 1

    def _rotate_locked(self) -> Optional[str]:
        handle = self._active_handle()
        if handle.tell() == 0:
            return None
        handle.flush()
        os.fsync(handle.fileno())
        self._close_handle()
        name = segment_name(self._next_segment_number())
        # Atomic: the file is complete and fsynced before it becomes a
        # sealed segment; a kill before the rename leaves it active.
        os.replace(self._active_path,
                   os.path.join(self._segments_dir, name))
        fsync_directory(self._segments_dir)
        fsync_directory(self.root)
        self.counters.rotations += 1
        return name

    # ------------------------------------------------------------------
    # Compaction and eviction
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Merge all segments into one, dropping superseded duplicates.

        Returns the number of live records kept.  Crash-safe: the
        merged segment is fully written and fsynced to a temp file,
        renamed into place, and only then are the old files removed — a
        kill at any instant leaves every acked record reachable.
        """
        with self._lock:
            # Merge from the on-disk truth, not this handle's possibly
            # stale view: another process may have durably appended or
            # rotated since our last load, and the rewrite below unlinks
            # every old file — anything missing from the index would be
            # permanently lost.
            self._recover_and_load_locked()
            kept = self._rewrite_locked(list(self._index.values()))
            self.counters.compactions += 1
            return kept

    def gc(self, ttl_seconds: Optional[float] = None,
           max_bytes: Optional[int] = None) -> EvictionStats:
        """Drop records older than *ttl_seconds*, then the oldest until
        the store fits in *max_bytes* (None skips either rule), and
        compact the survivors.  Returns eviction stats."""
        with self._lock:
            # Evict against the on-disk truth: the survivors are
            # rewritten and every old file unlinked, so records another
            # process acked since this handle's last load must be in
            # the index first.
            self._recover_and_load_locked()
            stats = EvictionStats(examined=len(self._index),
                                  bytes_before=self._disk_bytes())
            now = time.time()
            live: List[dict] = []
            for record in self._index.values():
                age = now - float(record.get("ts", now))
                if ttl_seconds is not None and age > ttl_seconds:
                    stats.evicted_ttl += 1
                else:
                    live.append(record)
            if max_bytes is not None:
                # Oldest-first until the live set fits the budget.
                live.sort(key=lambda r: (float(r.get("ts", 0.0)),
                                         r["digest"]))
                sizes = [len(encode_record(record)) for record in live]
                total = sum(sizes)
                drop = 0
                while drop < len(live) and total > max_bytes:
                    total -= sizes[drop]
                    drop += 1
                stats.evicted_size = drop
                live = live[drop:]
            stats.kept = len(live)
            if stats.evicted or len(self._segment_names()) > 0:
                self._rewrite_locked(live)
            stats.bytes_after = self._disk_bytes()
            self.counters.evicted_ttl += stats.evicted_ttl
            self.counters.evicted_size += stats.evicted_size
            return stats

    def _rewrite_locked(self, records: List[dict]) -> int:
        """Atomically replace every segment with one holding *records*."""
        self._close_handle()
        old_segments = self._segment_names()
        number = self._next_segment_number()
        final = os.path.join(self._segments_dir, segment_name(number))
        tmp = final + TMP_SUFFIX
        plan = active_plan()
        for attempt in range(WRITE_ATTEMPTS):
            key = "compact:%d:%d" % (number, attempt)
            try:
                with open(tmp, "wb") as handle:
                    for index, record in enumerate(records):
                        line = encode_record(record)
                        if (plan is not None and index == len(records) // 2
                                and plan.fires("store.torn_write", key)):
                            cut = max(1, len(line) // 2)
                            handle.write(line[:cut])
                            handle.flush()
                            raise TornWrite()
                        if (plan is not None and index == len(records) // 2
                                and plan.fires("disk.full", key)):
                            raise OSError(errno.ENOSPC, "injected ENOSPC")
                        handle.write(line)
                    handle.flush()
                    os.fsync(handle.fileno())
            except TornWrite:
                os.unlink(tmp)
                self.counters.healed_torn_writes += 1
                continue
            except OSError as exc:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                if exc.errno != errno.ENOSPC:
                    raise
                self.counters.healed_enospc += 1
                if attempt == WRITE_ATTEMPTS - 1:
                    raise StoreFullError(
                        "store %s: compaction failed with ENOSPC; the "
                        "original segments are untouched" % self.root
                    )
                continue
            break
        else:
            # Every attempt was cut short: the merge never happened,
            # but the original segments are untouched.
            raise StoreError(
                "store %s: compaction did not complete in %d attempts"
                % (self.root, WRITE_ATTEMPTS)
            )
        os.replace(tmp, final)
        fsync_directory(self._segments_dir)
        # Only after the merged segment is durable do the superseded
        # files go away; a kill in between leaves harmless duplicates
        # that last-wins indexing resolves on the next open.
        for name in old_segments:
            os.unlink(os.path.join(self._segments_dir, name))
        try:
            os.unlink(self._active_path)
        except FileNotFoundError:
            pass
        fsync_directory(self._segments_dir)
        fsync_directory(self.root)
        self._index = {record["digest"]: record for record in records}
        return len(records)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def _disk_bytes(self) -> int:
        total = 0
        for name in self._segment_names():
            total += os.path.getsize(os.path.join(self._segments_dir, name))
        if os.path.exists(self._active_path):
            total += os.path.getsize(self._active_path)
        return total

    def stats(self) -> StoreStats:
        """A snapshot combining store state and this handle's counters."""
        snapshot = StoreStats(**vars(self.counters))
        snapshot.records = len(self._index)
        snapshot.segments = len(self._segment_names())
        snapshot.disk_bytes = self._disk_bytes()
        return snapshot

    def verify(self) -> VerifyReport:
        """Read-only scan of every segment: counts corrupt lines and
        torn tails without healing anything (use :meth:`refresh` or a
        reopen to heal)."""
        return verify_store(self.root)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        self._close_handle()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_store(store: Union[str, "os.PathLike[str]", ResultStore]
               ) -> ResultStore:
    """Coerce a path (or pass through an instance) to a ResultStore."""
    if isinstance(store, ResultStore):
        return store
    return ResultStore(os.fspath(store))


def verify_store(root: Union[str, "os.PathLike[str]"]) -> VerifyReport:
    """Verify a store directory WITHOUT opening (and therefore without
    healing) it — the pure inspection path of ``nanobench store verify``.

    Opening a :class:`ResultStore` runs recovery as a side effect; this
    scans the files as they lie, so a damaged store can be examined
    before anything touches it.
    """
    root = os.fspath(root)
    segments_dir = os.path.join(root, SEGMENTS_DIR)
    quarantine_dir = os.path.join(root, QUARANTINE_DIR)
    report = VerifyReport()
    paths = []
    if os.path.isdir(segments_dir):
        names = sorted(
            (name for name in os.listdir(segments_dir)
             if segment_number(name) is not None),
            key=segment_number,
        )
        paths.extend(os.path.join(segments_dir, name) for name in names)
    active = os.path.join(root, ACTIVE_NAME)
    if os.path.exists(active):
        paths.append(active)
    digests = set()
    for path in paths:
        report.segments += 1
        report.disk_bytes += os.path.getsize(path)
        scan = scan_segment(path)
        report.records += len(scan.records)
        digests.update(record["digest"] for _, record in scan.records)
        report.corrupt_lines += len(scan.corrupt)
        report.torn_bytes += scan.torn_bytes
        for corrupt in scan.corrupt:
            report.problems.append(
                "%s@%d: %s" % (os.path.basename(path), corrupt.offset,
                               corrupt.reason)
            )
        if scan.torn_bytes:
            report.problems.append(
                "%s: torn tail of %d byte(s)"
                % (os.path.basename(path), scan.torn_bytes)
            )
    report.distinct_digests = len(digests)
    if os.path.isdir(quarantine_dir):
        report.quarantined_files = len(os.listdir(quarantine_dir))
    return report
