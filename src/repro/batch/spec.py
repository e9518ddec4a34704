"""Benchmark specifications and results for the batch engine.

A :class:`BenchmarkSpec` is one :meth:`NanoBench.run` call described as
plain data — assembly, init sequence, events, option overrides, and the
machine to run on — so it can be pickled to a worker process and
executed there bit-identically to a serial run.  Determinism contract:
every spec is executed on a **fresh**, deterministically-seeded
:class:`~repro.uarch.core.SimulatedCore` keyed by ``(uarch, seed,
kernel_mode)``, which makes the result a pure function of the spec and
therefore independent of sharding, worker count, and execution order.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..core.nanobench import NanoBench
from ..core.options import NanoBenchOptions
from ..errors import ReproError
from ..integrity.stability import StabilityPolicy
from ..store.records import RECORD_VERSION

#: BatchResult fields copied verbatim into / out of a stored record.
#: Append-only: ``result_from_record`` reads each field with ``if name
#: in record``, so old records missing the newer fields stay replayable
#: (they fall back to the BatchResult defaults).
_RESULT_FIELDS = (
    "error", "host_seconds", "program_runs", "counter_groups",
    "simulated_cycles", "assemble_hits", "assemble_misses",
    "generate_hits", "generate_misses", "sim_instructions",
    "fast_path_instructions", "fast_path_fallbacks", "attempts",
    "quality_verdict", "backend", "served_by", "router_audited",
    "router_audit_failed",
)

#: Per-run cost counters: copied from ``NanoBench.last_report`` into each
#: BatchResult by :meth:`BenchmarkSpec.execute`, and summed over a batch
#: by :meth:`repro.batch.runner.BatchReport.add`.
RUN_COUNTERS = (
    "program_runs", "simulated_cycles", "assemble_hits", "assemble_misses",
    "generate_hits", "generate_misses", "sim_instructions",
    "fast_path_instructions", "fast_path_fallbacks",
)

#: The run counters the report keeps in ``sim_stats``, by SimStats name.
_SIM_STATS_NAMES = {"sim_instructions": "instructions",
                    "fast_path_instructions": "fast_path_instructions",
                    "fast_path_fallbacks": "fallbacks"}


def _freeze_options(options) -> Tuple[Tuple[str, object], ...]:
    if options is None:
        return ()
    if isinstance(options, NanoBenchOptions):
        options = vars(options)
    if isinstance(options, Mapping):
        return tuple(sorted(options.items()))
    return tuple(options)


def _freeze_stability(stability) -> Tuple[Tuple[str, object], ...]:
    if stability is None:
        return ()
    if isinstance(stability, StabilityPolicy):
        stability = vars(stability)
    if isinstance(stability, Mapping):
        return tuple(sorted(stability.items()))
    return tuple(stability)


@dataclass(frozen=True)
class BenchmarkSpec:
    """One microbenchmark to run: code, events, options, and machine."""

    asm: str = ""
    asm_init: str = ""
    #: Performance-event names (resolved against the uarch's catalog).
    events: Tuple[str, ...] = ()
    uarch: str = "Skylake"
    seed: int = 0
    kernel_mode: bool = True
    #: ``NanoBenchOptions`` field overrides, frozen to a sorted tuple of
    #: ``(name, value)`` pairs so specs stay hashable and picklable.
    options: Tuple[Tuple[str, object], ...] = ()
    #: Free-form tag echoed on the result (e.g. ``"latency:ADD"``).
    label: str = ""
    #: ``StabilityPolicy`` field overrides, frozen like ``options``;
    #: empty (the default) disables stability control for this spec and
    #: keeps old record digests valid.
    stability: Tuple[Tuple[str, object], ...] = ()
    #: Measurement backend to execute on (``sim``, ``analytic`` or
    #: ``auto``); ``"sim"`` (the default) keeps old record digests valid.
    backend: str = "sim"

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "options", _freeze_options(self.options))
        object.__setattr__(self, "stability",
                           _freeze_stability(self.stability))

    @property
    def core_key(self) -> Tuple[str, str, int, bool]:
        """The ``(backend, uarch, seed, kernel_mode)`` machine identity."""
        return (self.backend, self.uarch, self.seed, self.kernel_mode)

    def option_dict(self) -> Dict[str, object]:
        return dict(self.options)

    def make_nanobench(self) -> NanoBench:
        """A fresh nanoBench instance for this spec's machine key."""
        return NanoBench.create(
            uarch=self.uarch,
            seed=self.seed,
            kernel_mode=self.kernel_mode,
            backend=self.backend,
        )

    def execute(self, nb: Optional[NanoBench] = None) -> "BatchResult":
        """Run this spec (on *nb* or a fresh instance); never raises."""
        started = time.perf_counter()
        try:
            if nb is None:
                nb = self.make_nanobench()
            saved_stability = nb.stability
            if self.stability and nb.stability is None:
                nb.stability = StabilityPolicy(**dict(self.stability))
            try:
                values = nb.run(
                    asm=self.asm,
                    asm_init=self.asm_init,
                    events=self.events,
                    **self.option_dict(),
                )
            finally:
                nb.stability = saved_stability
            report = nb.last_report
        except (ReproError, ValueError) as exc:
            return BatchResult(
                spec=self,
                values={},
                error=str(exc),
                host_seconds=time.perf_counter() - started,
                backend=self.backend,
            )
        counts = {name: int(report.sim_stats.get(_SIM_STATS_NAMES[name], 0))
                  if name in _SIM_STATS_NAMES else getattr(report, name)
                  for name in RUN_COUNTERS}
        router = report.router or {}
        return BatchResult(
            spec=self,
            values=dict(values),
            error=None,
            host_seconds=time.perf_counter() - started,
            counter_groups=report.counter_groups,
            quality_verdict=(report.quality.verdict
                             if report.quality is not None else None),
            backend=self.backend,
            served_by=router.get("served_by") or "",
            router_audited=bool(router.get("audited", False)),
            router_audit_failed=bool(router.get("audit_failed", False)),
            **counts,
        )


@dataclass
class BatchResult:
    """Outcome of one :class:`BenchmarkSpec` execution."""

    spec: BenchmarkSpec
    #: ``{counter name: value}`` — empty when ``error`` is set.
    values: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    host_seconds: float = 0.0
    program_runs: int = 0
    counter_groups: int = 0
    simulated_cycles: int = 0
    assemble_hits: int = 0
    assemble_misses: int = 0
    generate_hits: int = 0
    generate_misses: int = 0
    #: Simulator-throughput accounting (see
    #: :class:`repro.uarch.core.SimStats`): dynamic instructions
    #: simulated for this spec, how many of those the steady-state fast
    #: path replayed in bulk, and how often detection fell back.
    sim_instructions: int = 0
    fast_path_instructions: int = 0
    fast_path_fallbacks: int = 0
    #: Executions of this spec including requeues after worker crashes,
    #: hangs, and transient (injected) failures.
    attempts: int = 1
    #: True when the result was answered from the result store instead
    #: of being executed in this run.
    replayed: bool = False
    #: Stability verdict (``stable`` / ``escalated`` /
    #: ``unstable-quarantined``); None when no policy was active.
    quality_verdict: Optional[str] = None
    #: Name of the measurement backend that produced this result.
    backend: str = "sim"
    #: Routing attribution (``auto`` backend only): the tier that
    #: actually served the answer (``analytic`` / ``sim``), whether the
    #: answer was in the audit sample, and whether the audit escalated
    #: it.  Empty / False for direct backends, which keeps old records
    #: replayable.
    served_by: str = ""
    router_audited: bool = False
    router_audit_failed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def spec_from_run_kwargs(
    asm: str = "",
    asm_init: str = "",
    *,
    events: Sequence[str] = (),
    uarch: str = "Skylake",
    seed: int = 0,
    kernel_mode: bool = True,
    label: str = "",
    stability=None,
    backend: str = "sim",
    **option_overrides,
) -> BenchmarkSpec:
    """Build a spec with the same keyword surface as ``NanoBench.run``."""
    return BenchmarkSpec(
        asm=asm,
        asm_init=asm_init,
        events=tuple(events),
        uarch=uarch,
        seed=seed,
        kernel_mode=kernel_mode,
        options=_freeze_options(option_overrides),
        label=label,
        stability=_freeze_stability(stability),
        backend=backend,
    )


def spec_digest(spec: BenchmarkSpec) -> str:
    """Content digest identifying one spec across processes and runs."""
    fields = [
        spec.asm, spec.asm_init, spec.events, spec.uarch, spec.seed,
        spec.kernel_mode, spec.options, spec.label,
    ]
    # Appended only when set, so records written before the stability
    # field existed keep their digests (and stay replayable).
    if spec.stability:
        fields.append(spec.stability)
    # Same backward-compatibility rule: the default "sim" backend keeps
    # pre-backend record digests valid.
    if spec.backend != "sim":
        fields.append(spec.backend)
    identity = repr(tuple(fields))
    return hashlib.sha256(identity.encode()).hexdigest()


def journal_record(index: int, spec: BenchmarkSpec,
                   result: BatchResult) -> dict:
    """The checksum-less record describing one completed spec.

    The durable store adds its checksum; :func:`result_from_record`
    rebuilds the result from it byte-identically.
    """
    record = {
        "v": RECORD_VERSION,
        "digest": spec_digest(spec),
        "index": index,
        "label": spec.label,
        "values": result.values,
    }
    for name in _RESULT_FIELDS:
        record[name] = getattr(result, name)
    return record


def result_from_record(spec: BenchmarkSpec, record: dict) -> BatchResult:
    """Rebuild the :class:`BatchResult` a stored record describes."""
    result = BatchResult(
        spec=spec,
        values=dict(record.get("values", {})),
        replayed=True,
        # Pre-backend records carry no backend field; the spec knows.
        backend=spec.backend,
    )
    for name in _RESULT_FIELDS:
        if name in record:
            setattr(result, name, record[name])
    return result
