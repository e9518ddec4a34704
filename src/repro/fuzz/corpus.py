"""The divergence corpus: JSONL records of cross-backend disagreements.

Every divergence the differential harness confirms is recorded as one
JSON line — the shrunk kernel, both backends' values, the deviation,
and the full provenance needed to regenerate it.  Records are keyed by
the spec digest of the shrunk kernel (the same content digest the
result store uses), so the corpus deduplicates naturally and a
record names the exact benchmark it pins.

Corpus bytes are deterministic: records are sorted by ``(category,
digest)``, serialized with sorted keys and fixed separators, and carry
no timestamps or host-dependent fields — two runs of ``nanobench fuzz``
with the same seed and budget write byte-identical corpora (the
acceptance bar for trusting a CI diff of the artifact).

``tests/test_fuzz_regressions.py`` reads a committed corpus and re-runs
every record's differential check: a pinned kernel that ever diverges
again fails the suite.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..batch.spec import BenchmarkSpec, spec_digest
from .generator import GeneratedKernel
from .quota import AXES

#: Corpus format version, embedded in every record.
CORPUS_VERSION = 1

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
    digest: str
    uarch: str
    kernel_mode: bool
    seed: int
    index: int
    profile: str
    buckets: Tuple[Tuple[str, str], ...]
    asm: str
    asm_init: str
    unroll_count: int
    loop_count: int
    events: Tuple[str, ...]
    #: Reference values (exact sim / serial / sim respectively).
    reference: Dict[str, float] = field(default_factory=dict)
    #: Candidate values (fast-path / batched / analytic respectively).
    candidate: Dict[str, float] = field(default_factory=dict)
    #: Worst per-event absolute deviation over shared events.
    deviation: float = 0.0
    #: Tolerance band the deviation exceeded (0 for exact categories).
    tolerance: float = 0.0
    #: Statement count of the kernel before shrinking.
    shrunk_from: int = 0
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError("unknown divergence category: %r"
                             % (self.category,))

    def kernel(self) -> GeneratedKernel:
        """The (shrunk) kernel this record pins."""
        return GeneratedKernel(
            seed=self.seed,
            index=self.index,
            profile=self.profile,
            buckets=self.buckets,
            asm=self.asm,
            asm_init=self.asm_init,
            unroll_count=self.unroll_count,
            loop_count=self.loop_count,
        )

    def to_dict(self) -> dict:
        record = asdict(self)
        record["version"] = CORPUS_VERSION
        record["buckets"] = {axis: bucket for axis, bucket in self.buckets}
        record["events"] = list(self.events)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "DivergenceRecord":
        buckets = record.get("buckets", {})
        if isinstance(buckets, dict):
            frozen = tuple(
                (axis, buckets[axis]) for axis in AXES if axis in buckets
            )
        else:
            frozen = tuple((axis, bucket) for axis, bucket in buckets)
        return cls(
            category=record["category"],
            digest=record["digest"],
            uarch=record["uarch"],
            kernel_mode=record["kernel_mode"],
            seed=record["seed"],
            index=record["index"],
            profile=record["profile"],
            buckets=frozen,
            asm=record["asm"],
            asm_init=record["asm_init"],
            unroll_count=record["unroll_count"],
            loop_count=record["loop_count"],
            events=tuple(record.get("events", ())),
            reference=dict(record.get("reference", {})),
            candidate=dict(record.get("candidate", {})),
            deviation=record.get("deviation", 0.0),
            tolerance=record.get("tolerance", 0.0),
            shrunk_from=record.get("shrunk_from", 0),
            provenance=record.get("provenance", ""),
        )


def record_spec(record_or_kernel, *, uarch: str, kernel_mode: bool,
                events: Tuple[str, ...],
                options: Optional[Dict[str, object]] = None,
                backend: str = "sim") -> BenchmarkSpec:
    """The :class:`BenchmarkSpec` a kernel/record identifies.

    This is the digest authority: corpus records are keyed by
    ``spec_digest(record_spec(...))`` so a record and the result
    store agree about what "the same benchmark" means.
    """
    kernel = (record_or_kernel.kernel()
              if isinstance(record_or_kernel, DivergenceRecord)
              else record_or_kernel)
    merged = dict(kernel.run_options())
    if options:
        merged.update(options)
    return BenchmarkSpec(
        asm=kernel.asm,
        asm_init=kernel.asm_init,
        events=events,
        uarch=uarch,
        seed=kernel.seed,
        kernel_mode=kernel_mode,
        options=tuple(sorted(merged.items())),
        label=kernel.provenance,
        backend=backend,
    )


def kernel_digest(kernel: GeneratedKernel, *, uarch: str, kernel_mode: bool,
                  events: Tuple[str, ...],
                  options: Optional[Dict[str, object]] = None) -> str:
    """Content digest of the *benchmark* a kernel denotes.

    The provenance label is blanked before digesting: two different
    fuzz campaigns shrinking to the same minimal kernel must collide on
    one digest (that collision IS the dedup), even though their
    human-facing provenance strings differ.
    """
    spec = record_spec(
        kernel, uarch=uarch, kernel_mode=kernel_mode, events=events,
        options=options,
    )
    return spec_digest(replace(spec, label=""))


def sort_records(records: List[DivergenceRecord]) -> List[DivergenceRecord]:
    order = {category: rank for rank, category in enumerate(CATEGORIES)}
    return sorted(records, key=lambda r: (order[r.category], r.digest))


def dump_record(record: DivergenceRecord) -> str:
    """One deterministic JSON line (sorted keys, fixed separators)."""
    return json.dumps(record.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def save_corpus(path: str, records: List[DivergenceRecord]) -> None:
    """Write the corpus with deterministic bytes (atomic replace)."""
    lines = [dump_record(record) for record in sort_records(records)]
    data = "".join(line + "\n" for line in lines)
    tmp_path = "%s.tmp" % path
    with open(tmp_path, "w") as handle:
        handle.write(data)
    os.replace(tmp_path, path)


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
            except (ValueError, KeyError) as exc:
                raise ValueError(
                    "%s:%d: bad divergence record: %s"
                    % (path, line_number, exc)
                )
            records.append(record)
    return records
