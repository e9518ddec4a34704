"""The divergence corpus: JSONL records of cross-backend disagreements.

Every divergence the differential harness or the router's audit
confirms is recorded as one JSON line.  A record holds the whole
benchmark it diverged on as a :class:`~repro.batch.spec.BenchmarkSpec`
(code, init code, events, run options and machine, the way nanoBench
defines a microbenchmark), in the wire form of
:func:`~repro.batch.spec.spec_to_payload`.  The spec is the reference
arm's: backend ``sim``, no label.  Beside it a record keeps the
category (which table entry of :mod:`repro.fuzz.differential` compares
it), both answers, the deviation and the band it exceeded, and the fuzz
provenance (kernel index, profile, quota buckets, provenance string).

Records are keyed by ``spec_digest(record.spec)``, the content digest
the result store uses, so the corpus deduplicates naturally and two
campaigns shrinking to the same minimal kernel collide on one record.
Each line writes its digest, and the loader refuses a line whose digest
does not match its spec.

Corpus bytes are deterministic: records are sorted by ``(category,
digest)`` in :data:`CATEGORIES` order, serialized with sorted keys and
fixed separators, and carry no timestamps or host-dependent fields —
two runs of ``nanobench fuzz`` with the same seed and budget write
byte-identical corpora (the acceptance bar for trusting a CI diff of
the artifact).

``tests/test_fuzz_regressions.py`` reads a committed corpus and re-runs
every record's comparison on its spec: a pinned kernel that ever
diverges again fails the suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..batch.spec import (
    BenchmarkSpec,
    spec_digest,
    spec_from_payload,
    spec_to_payload,
)
from ..store.segment import write_atomic
from ..tools.compare_backends import band_violations
from .quota import AXES

#: Corpus format version, embedded in every record.
CORPUS_VERSION = 2

#: Divergence categories, in severity order.  ``fastpath`` and
#: ``batch`` compare the same simulator against itself (any mismatch is
#: a bug); ``analytic`` compares the model against the simulator and is
#: tolerance-banded; ``router`` records audit failures of the tiered
#: fidelity router (a cheap-tier answer that drifted past tolerance).
CATEGORIES = ("fastpath", "batch", "analytic", "router")


@dataclass(frozen=True)
class DivergenceRecord:
    """One confirmed cross-backend disagreement, fully reproducible."""

    category: str
    #: The benchmark that diverged, as the reference arm runs it.
    spec: BenchmarkSpec
    #: Reference values (exact sim / serial / sim respectively).
    reference: Dict[str, float] = field(default_factory=dict)
    #: Candidate values (fast-path / batched / analytic respectively).
    candidate: Dict[str, float] = field(default_factory=dict)
    #: Widest band of the category over the reference values the
    #: divergence was found on (0 for exact categories).
    tolerance: float = 0.0
    #: Statement count of the kernel before shrinking.
    shrunk_from: int = 0
    index: int = 0
    profile: str = ""
    #: ``(axis, bucket)`` pairs of the generated kernel.
    buckets: Tuple[Tuple[str, str], ...] = ()
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError("unknown divergence category: %r"
                             % (self.category,))
        if self.spec.backend != "sim" or self.spec.label:
            raise ValueError("a divergence record holds the reference "
                             "spec (backend sim, no label)")

    @property
    def digest(self) -> str:
        return spec_digest(self.spec)

    @property
    def deviation(self) -> float:
        """Worst per-event absolute deviation over shared events (a
        zero-width band puts every differing event outside it)."""
        return max(band_violations(self.reference, self.candidate,
                                   0.0, 0.0).values(), default=0.0)

    def to_dict(self) -> dict:
        return {
            "version": CORPUS_VERSION,
            "category": self.category,
            "digest": self.digest,
            "spec": spec_to_payload(self.spec),
            "reference": self.reference,
            "candidate": self.candidate,
            "deviation": self.deviation,
            "tolerance": self.tolerance,
            "shrunk_from": self.shrunk_from,
            "index": self.index,
            "profile": self.profile,
            "buckets": dict(self.buckets),
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "DivergenceRecord":
        if record.get("version") != CORPUS_VERSION:
            raise ValueError("unsupported corpus version %r"
                             % (record.get("version"),))
        buckets = record.get("buckets", {})
        result = cls(
            category=record["category"],
            spec=spec_from_payload(record["spec"]),
            reference=dict(record.get("reference", {})),
            candidate=dict(record.get("candidate", {})),
            tolerance=record.get("tolerance", 0.0),
            shrunk_from=record.get("shrunk_from", 0),
            index=record.get("index", 0),
            profile=record.get("profile", ""),
            buckets=tuple((axis, buckets[axis])
                          for axis in AXES if axis in buckets),
            provenance=record.get("provenance", ""),
        )
        if record["digest"] != result.digest:
            raise ValueError("digest %s does not match the record's spec "
                             "(%s)" % (record["digest"], result.digest))
        return result


def sort_records(records: Iterable[DivergenceRecord]
                 ) -> List[DivergenceRecord]:
    return sorted(records, key=lambda r: (CATEGORIES.index(r.category),
                                          r.digest))


def dump_record(record: DivergenceRecord) -> str:
    """One deterministic JSON line (sorted keys, fixed separators)."""
    return json.dumps(record.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def save_corpus(path: str, records: List[DivergenceRecord]) -> None:
    """Write the corpus with deterministic bytes (atomic replace)."""
    lines = [dump_record(record) for record in sort_records(records)]
    write_atomic(path, "".join(line + "\n" for line in lines).encode())


def load_corpus(path: str) -> List[DivergenceRecord]:
    """Read a JSONL corpus; blank lines and ``#`` comments are skipped."""
    records: List[DivergenceRecord] = []
    with open(path) as handle:
        for line_number, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = DivergenceRecord.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    "%s:%d: bad divergence record: %s"
                    % (path, line_number, exc)
                )
            records.append(record)
    return records
