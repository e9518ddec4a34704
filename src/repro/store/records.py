"""Record encoding of the durable store and of legacy journals.

A *record* is one flat JSON object with a mandatory ``digest`` key (the
content address — the spec digest for benchmark results) and an
optional ``sha`` key: a SHA-256 over the canonical serialization of
every *other* key.  The checksum turns silent bit-rot into a detected,
recoverable condition: a record whose stored ``sha`` no longer matches
is treated as corrupt, quarantined, and re-executed on demand.

Legacy single-file checkpoint journals, written by the batch runner
before results moved into the store, carry a 16-hex-digit truncated
checksum or none; the store and the job journal write and require the
full 64 digits.  :func:`record_checksum` takes the width so both
validate with the same code path; only
:meth:`repro.store.ResultStore.import_journal` still accepts the legacy
forms.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Tuple

#: Record format version embedded by the durable store.
RECORD_VERSION = 1

#: Checksum widths: the journal's truncated form and the store's full form.
JOURNAL_SHA_HEXDIGITS = 16
STORE_SHA_HEXDIGITS = 64


def canonical_payload(record: dict) -> dict:
    """The record without its ``sha`` field (the checksummed content)."""
    return {k: v for k, v in record.items() if k != "sha"}


def record_checksum(record: dict,
                    hexdigits: int = JOURNAL_SHA_HEXDIGITS) -> str:
    """SHA-256 (truncated to *hexdigits*) over the canonical payload."""
    digest = hashlib.sha256(
        json.dumps(canonical_payload(record), sort_keys=True).encode()
    ).hexdigest()
    return digest[:hexdigits]


def validate_record(record: object,
                    hexdigits: Optional[int] = None) -> Tuple[bool, str]:
    """Is *record* a structurally sound, checksum-clean record?

    Returns ``(ok, reason)``.  With *hexdigits*, the record must carry
    a checksum of that width, so a bit flip in the ``sha`` key name is
    caught.  Without it (legacy import), a record without ``sha`` is
    accepted and the width is inferred from the stored value.
    """
    if not isinstance(record, dict):
        return False, "not a JSON object"
    digest = record.get("digest")
    if not digest or not isinstance(digest, str):
        return False, "missing digest"
    sha = record.get("sha")
    if sha is None:
        return (True, "") if hexdigits is None else (False, "missing checksum")
    if not isinstance(sha, str) or not sha or (
            hexdigits is not None and len(sha) != hexdigits):
        return False, "malformed checksum"
    if record_checksum(record, hexdigits=len(sha)) != sha:
        return False, "checksum mismatch"
    return True, ""


def encode_record(record: dict) -> bytes:
    """One JSONL line (terminator included) for *record*.

    No ``sort_keys``: the counter order of ``values`` is part of the
    result (reports print in measurement order) and JSON objects
    round-trip dict insertion order.
    """
    return (json.dumps(record) + "\n").encode("utf-8")


def parse_record_line(line: bytes, hexdigits: Optional[int] = None
                      ) -> Tuple[Optional[dict], str]:
    """Parse and validate one stored line (*hexdigits* as for
    :func:`validate_record`).

    Returns ``(record, "")`` on success and ``(None, reason)`` for
    anything torn, truncated, or bit-flipped.
    """
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None, "unparsable"
    ok, reason = validate_record(record, hexdigits)
    if not ok:
        return None, reason
    return record, ""
