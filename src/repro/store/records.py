"""Record encoding shared by the durable store and the job journal.

A *record* is one flat JSON object with a mandatory ``digest`` key (the
content address — the spec digest for benchmark results, the job id in
the job journal) and a mandatory ``sha`` key: the full 64-hex SHA-256
over the canonical serialization of every *other* key.  The checksum
turns silent bit-rot into a detected, recoverable condition: a record
whose stored ``sha`` is missing, short or no longer matches is treated
as corrupt, quarantined, and re-executed on demand.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Tuple

#: Record format version embedded by the durable store.
RECORD_VERSION = 1

#: Width of the ``sha`` checksum every record carries.
STORE_SHA_HEXDIGITS = 64


def canonical_payload(record: dict) -> dict:
    """The record without its ``sha`` field (the checksummed content)."""
    return {k: v for k, v in record.items() if k != "sha"}


def record_checksum(record: dict) -> str:
    """SHA-256 (64 hex digits) over the canonical payload."""
    return hashlib.sha256(
        json.dumps(canonical_payload(record), sort_keys=True).encode()
    ).hexdigest()


def validate_record(record: object) -> Tuple[bool, str]:
    """Is *record* a structurally sound, checksum-clean record?

    Returns ``(ok, reason)``.  The record must carry a full-width
    checksum, so a bit flip in the ``sha`` key name is caught too.
    """
    if not isinstance(record, dict):
        return False, "not a JSON object"
    digest = record.get("digest")
    if not digest or not isinstance(digest, str):
        return False, "missing digest"
    sha = record.get("sha")
    if sha is None:
        return False, "missing checksum"
    if not isinstance(sha, str) or len(sha) != STORE_SHA_HEXDIGITS:
        return False, "malformed checksum"
    if record_checksum(record) != sha:
        return False, "checksum mismatch"
    return True, ""


def encode_record(record: dict) -> bytes:
    """One JSONL line (terminator included) for *record*.

    No ``sort_keys``: the counter order of ``values`` is part of the
    result (reports print in measurement order) and JSON objects
    round-trip dict insertion order.
    """
    return (json.dumps(record) + "\n").encode("utf-8")


def parse_record_line(line: bytes) -> Tuple[Optional[dict], str]:
    """Parse and validate one stored line.

    Returns ``(record, "")`` on success and ``(None, reason)`` for
    anything torn, truncated, or bit-flipped.
    """
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None, "unparsable"
    ok, reason = validate_record(record)
    if not ok:
        return None, reason
    return record, ""
