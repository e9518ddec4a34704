"""Segment files: append-only JSONL with crash-state classification.

The store's on-disk unit is a *segment* — an append-only JSONL file of
checksummed records.  Exactly one segment (``active.jsonl``) accepts
appends; sealed segments (``segments/seg-NNNNNNNN.jsonl``) are immutable
and created only by the atomic rename of a full active segment or of a
compaction's temp file, so a kill at any instant leaves either the old
or the new file — never half of one.

:func:`scan_segment` reads a segment back and classifies every byte of
it, which is the whole recovery story:

* **good** lines — parseable records with a clean 64-hex checksum;
* a **torn tail** — a trailing run of bytes that never made it to a
  complete, valid record (the kill-during-append shape).  Recovery
  truncates the file back to ``good_bytes``, dropping only the
  unacknowledged suffix;
* **corrupt interior** lines — invalid lines *followed by* valid ones
  (bit-rot, or a torn line another process appended after).  These
  cannot be truncated away without losing acked data; recovery
  quarantines the raw bytes and rewrites the segment without them, and
  the affected digests are simply re-executed on next request
  (read-repair).
"""

from __future__ import annotations

import errno
import os
import re
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..errors import StoreError, StoreFullError
from ..faults.plan import active_plan
from .records import parse_record_line

#: File names inside a store root.
ACTIVE_NAME = "active.jsonl"
SEGMENTS_DIR = "segments"
QUARANTINE_DIR = "quarantine"
LOCK_NAME = "lock"
TMP_SUFFIX = ".tmp"

#: Bounded self-healing: write attempts of one append or compaction
#: before the writer gives up (injected faults are keyed by attempt, so
#: a retry draws afresh).
WRITE_ATTEMPTS = 3

_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.jsonl$")


def segment_name(number: int) -> str:
    """Canonical file name of sealed segment *number*."""
    return "seg-%08d.jsonl" % number


def segment_number(name: str) -> Optional[int]:
    """The sequence number encoded in a segment file name, or None."""
    match = _SEGMENT_RE.match(os.path.basename(name))
    return int(match.group(1)) if match else None


@dataclass
class CorruptLine:
    """One invalid interior line found while scanning a segment."""

    offset: int
    raw: bytes
    reason: str


@dataclass
class SegmentScan:
    """Classification of one segment file's bytes (see module doc)."""

    path: str
    #: ``(offset, record)`` for every valid record, in file order.
    records: List[Tuple[int, dict]] = field(default_factory=list)
    #: Length of the longest prefix ending at a valid record boundary.
    good_bytes: int = 0
    #: Invalid lines with valid records after them (quarantine these).
    corrupt: List[CorruptLine] = field(default_factory=list)
    #: Bytes past ``good_bytes`` (torn tail; truncate these).
    torn_bytes: int = 0

    @property
    def clean(self) -> bool:
        return not self.corrupt and self.torn_bytes == 0


def scan_segment(path: str) -> SegmentScan:
    """Read *path* and classify every line (missing file = empty scan)."""
    scan = SegmentScan(path=os.fspath(path))
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return scan

    # Invalid lines are buffered until the next valid record proves they
    # are interior corruption rather than the torn tail.
    pending: List[CorruptLine] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            # Unterminated final chunk: always part of the torn tail.
            pending.append(CorruptLine(offset, data[offset:], "unterminated"))
            offset = len(data)
            break
        line = data[offset:newline]
        end = newline + 1
        if line.strip():
            record, reason = parse_record_line(line)
            if record is None:
                pending.append(CorruptLine(offset, line, reason))
            else:
                scan.corrupt.extend(pending)
                pending = []
                scan.records.append((offset, record))
                scan.good_bytes = end
        else:
            # Blank line: harmless, keep it inside the good prefix only
            # if a valid record follows (otherwise it joins the tail).
            pending.append(CorruptLine(offset, line, "blank"))
        offset = end
    # Whatever is still pending trails the last valid record: torn tail.
    scan.torn_bytes = len(data) - scan.good_bytes
    # Blank "corruption" needs no quarantine file.
    scan.corrupt = [c for c in scan.corrupt if c.reason != "blank"]
    return scan


def truncate_torn_tail(scan: SegmentScan) -> bool:
    """Cut *scan*'s file back to ``good_bytes``; True if it had a torn
    tail (the unacknowledged suffix of a kill during an append)."""
    if not scan.torn_bytes:
        return False
    with open(scan.path, "rb+") as handle:
        handle.truncate(scan.good_bytes)
    return True


class TornWrite(Exception):
    """An injected fault cut a write short (the kill-during-append
    shape)."""


def append_line(handle_of: Callable, line: bytes, key: str, *, sync: bool,
                owner: str, healed: Callable[[Exception], None],
                torn_site: str, full_site: Optional[str] = None) -> None:
    """Append one record *line*, healing a write cut short in place.

    Each attempt notes the end offset of the unbuffered append handle
    ``handle_of()`` returns and writes *line* through it; *sync* then
    fsyncs it.  A write cut short — by the *torn_site* fault, by ENOSPC
    (real, or injected at *full_site*), or as a short raw write, which
    is the disk-full shape without the exception — is truncated back to
    that offset, passed to *healed*, and retried under the fault key
    ``"key:attempt"``.  After :data:`WRITE_ATTEMPTS` such failures it
    raises :class:`~repro.errors.StoreFullError` (the last one was
    ENOSPC) or :class:`~repro.errors.StoreError`, naming *owner*; no
    partial line is left behind either way.
    """
    plan = active_plan()
    for attempt in range(WRITE_ATTEMPTS):
        handle = handle_of()
        start = handle.tell()
        fault_key = "%s:%d" % (key, attempt)
        try:
            if plan is not None:
                if full_site is not None and plan.fires(full_site,
                                                        fault_key):
                    raise OSError(errno.ENOSPC, "injected ENOSPC")
                if plan.fires(torn_site, fault_key):
                    cut = max(1, int(plan.fraction(torn_site, fault_key)
                                     * (len(line) - 1)))
                    handle.write(line[:cut])
                    raise TornWrite()
            written = handle.write(line)
            if written != len(line):
                raise OSError(errno.ENOSPC, "short write (%d of %d bytes)"
                              % (written, len(line)))
            if sync:
                os.fsync(handle.fileno())
            return
        except (TornWrite, OSError) as exc:
            if isinstance(exc, OSError) and exc.errno != errno.ENOSPC:
                raise
            # The handle is unbuffered, so the failed bytes exist only
            # on disk (if at all): no user-space buffer can replay them.
            handle.truncate(start)
            handle.seek(0, os.SEEK_END)
            healed(exc)
            if attempt < WRITE_ATTEMPTS - 1:
                continue
            if isinstance(exc, OSError):
                raise StoreFullError(
                    "%s: append failed with ENOSPC after %d attempt(s); "
                    "no partial record was left behind"
                    % (owner, WRITE_ATTEMPTS)) from exc
            raise StoreError("%s: append did not complete in %d attempts"
                             % (owner, WRITE_ATTEMPTS)) from exc


def fsync_directory(path: str) -> None:
    """fsync a directory so a just-renamed file survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - exotic filesystems
        pass
    finally:
        os.close(fd)
