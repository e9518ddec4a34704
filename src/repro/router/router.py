"""The tiered fidelity router: the analytic tier, else the simulator.

``RoutedBench`` is a drop-in :class:`~repro.core.nanobench.NanoBench`
facade (``NanoBench.create(backend="auto")`` returns one) over two
measurement tiers: the table-driven analytic estimator (~92× the
simulator) and the cycle-accurate simulator (whose steady-state fast
path is byte-identical to exact simulation).  Each :meth:`run` is
served by the analytic tier when its answer can be trusted and by the
simulator otherwise — the fidelity swap gem5 makes between its CPU
models, applied to a measurement service.

Trust is decided *per query*, from data:

1. **The class gate** — before anything runs, a query whose event
   classes the analytic tier cannot count at all (cache/uncore/APERF),
   whose classes the committed A6-derived
   :class:`~repro.router.fidelity.FidelityTable` does not bound within
   :data:`TOLERANCE` (unmeasured classes are never trusted), or whose
   classes an audit quarantined goes to the simulator.
2. **Runtime escalation** — an :class:`~repro.errors.
   UnschedulableEventError` or :class:`~repro.errors.CapabilityError`
   from the analytic tier (a pause/resume kernel), or an analytic
   answer that had to skip events, falls through to the simulator.
3. **Continuous audit** — a deterministic content-hash sample of
   analytic answers (:data:`AUDIT_FRACTION`) is re-run on a fresh
   simulator; a deviation beyond tolerance quarantines the offending
   event classes, records the divergence in the fuzzer's corpus format,
   and returns the *simulator's* values — an audited answer is never
   silently wrong.  Simulator answers are never audited: the fast
   path's equivalence to exact simulation is enforced by the
   differential fuzzer and the tier-2 full-corpus differential.

Routing decisions are attributable end to end: each run leaves a
``router`` block (``served_by``, ``audited``, ``audit_failed``) on
:class:`~repro.core.nanobench.ExecutionReport`, and cumulative
:class:`RouterStats` for the service's ``/v1/stats``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import (
    CapabilityError,
    NanoBenchError,
    UnschedulableEventError,
)
from ..perfctr.events import event_catalog
from ..stats import Counters
from ..tools.compare_backends import band_violations
from .fidelity import (
    CLASS_APERF,
    CLASS_CACHE,
    CLASS_CORE,
    CLASS_UNCORE,
    classify_event,
    classify_query,
    load_fidelity_table,
    program_classes,
)

#: Event classes the analytic estimator cannot serve, by construction:
#: it has no memory hierarchy, no uncore, and no frequency MSRs.  The
#: simulator counts everything.
_ANALYTIC_BLIND_CLASSES = frozenset((CLASS_CACHE, CLASS_UNCORE,
                                     CLASS_APERF))

#: Class-gate and audit tolerance, in counter units (cycles for the
#: fixed counters): the analytic tier is trusted for a class only when
#: its measured p95 error is within this, and an audited answer
#: deviating beyond ``max(TOLERANCE, REL_TOLERANCE·|ref|)`` on any
#: shared counter is a violation.
TOLERANCE = 0.5
REL_TOLERANCE = 0.05
#: Fraction of analytic answers cross-checked against a fresh simulator
#: run (deterministic content-hash sampling).
AUDIT_FRACTION = 1.0 / 64.0


@dataclass
class RouterStats(Counters):
    """Cumulative routing counters of one :class:`RoutedBench`."""

    tier_hits: Dict[str, int] = field(default_factory=dict)
    #: Escalations to the simulator keyed by reason (``capability`` /
    #: ``fidelity`` / ``quarantine`` / ``unschedulable`` /
    #: ``unclassifiable``).
    escalations: Dict[str, int] = field(default_factory=dict)
    audits: int = 0
    audit_passes: int = 0
    audit_failures: int = 0
    #: Quarantined ``"analytic:class"`` pairs, sorted.
    quarantined: Tuple[str, ...] = ()


def audit_selected(*, uarch: str, seed: int, kernel_mode: bool, asm: str,
                   asm_init: str, events: Sequence[str],
                   options: Sequence[Tuple[str, object]],
                   fraction: float = AUDIT_FRACTION) -> bool:
    """Whether one query falls in the audit sample of *fraction*.

    A pure function of the query content — never of arrival order or
    wall clock — so batched, sharded, and re-run traffic audits exactly
    the same specs (the determinism contract the batch engine already
    makes for results extends to audits).
    """
    if fraction <= 0.0:
        return False
    # The leading 0 is the sample's salt; it keeps the audited sample
    # the same as that of every earlier release.
    payload = json.dumps([
        0, uarch, seed, kernel_mode, asm, asm_init,
        sorted(events), sorted((str(k), repr(v)) for k, v in options),
    ], sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64) < fraction


class RoutedBench:
    """A NanoBench-shaped facade that routes each run across two tiers.

    Every routed run is served from a **pristine** machine state: the
    simulator carries persistent memory/cache state across runs on one
    instance (by design — it models a real machine), which would make a
    reused instance's answer diverge from the fresh-instance answer the
    batch path and the A6 fidelity bounds are defined against, and
    would let the audit compare two tiers in different machine states.
    So the stateless analytic tier is built once and reused, while a
    sim tier is built for each run and each audit — exactly the cost
    the un-routed batch path already pays per spec.
    """

    def __init__(self, uarch: str = "Skylake", seed: int = 0, *,
                 kernel_mode: bool = True,
                 options=None, preflight: bool = True) -> None:
        from ..core.nanobench import ExecutionReport
        from ..core.options import NanoBenchOptions

        self.uarch = uarch
        self.seed = seed
        self.kernel_mode = kernel_mode
        self.options = options if options is not None else NanoBenchOptions()
        self.preflight = preflight
        self.table = load_fidelity_table()
        self.backend = "auto"
        self.stats = RouterStats()
        #: Divergences confirmed by the audit, in the PR 6 corpus
        #: format (category ``router``), ready for ``save_corpus``.
        self.divergences: List[object] = []
        #: The most recent run's report, with its ``router`` block.
        self.last_report = ExecutionReport()
        self.last_raw_series: Dict[int, Dict[str, List[float]]] = {}
        #: The analytic tier (it also resolves and classifies every
        #: query) and the most recently built sim tier.
        self._analytic = self._build("analytic")
        self._sim = None
        self._quarantined: set = set()
        self._r14_size_request: Optional[int] = None

    # ------------------------------------------------------------------
    # Tiers
    # ------------------------------------------------------------------
    def _build(self, backend: str):
        from ..core.nanobench import NanoBench

        return NanoBench.create(
            self.uarch, self.seed, kernel_mode=self.kernel_mode,
            backend=backend, options=self.options,
            preflight=self.preflight,
        )

    def _fresh_sim(self):
        """A sim tier in the pristine state a direct
        ``NanoBench.create(...).run(...)`` starts from (the byte-identity
        contract, and the state the audit's reference must share).  It
        replaces the previous one, so post-run introspection (``core``,
        ``last_report``) reads the instance that actually ran."""
        self._sim = self._build("sim")
        if self._r14_size_request is not None:
            self._sim.resize_r14_buffer(self._r14_size_request)
        return self._sim

    def _current_sim(self):
        return self._sim if self._sim is not None else self._fresh_sim()

    @property
    def core(self):
        """The sim tier's core (CLI / cache-benchmark hook)."""
        return self._current_sim().core

    def resize_r14_buffer(self, size: int) -> int:
        """Resize R14 on the current and every future sim tier (kernel
        only, like :meth:`NanoBench.resize_r14_buffer`)."""
        if not self.kernel_mode:
            raise NanoBenchError(
                "physically-contiguous memory requires the kernel version"
            )
        self._r14_size_request = size
        if self._sim is not None:
            return self._sim.resize_r14_buffer(size)
        return self._fresh_sim()._r14_physical_base

    @property
    def r14_physical_base(self) -> Optional[int]:
        return self._current_sim().r14_physical_base

    @property
    def r14_size(self) -> int:
        return self._current_sim().r14_size

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _gate(self, asm: str, code, config, events, options):
        """``(event names, None)`` when the analytic tier may serve the
        query, else ``(None, reason)`` with the escalation reason."""
        from ..core.codecache import cached_assemble

        analytic = self._analytic
        try:
            benchmark = code if code is not None else cached_assemble(asm)
            perf_events = analytic._resolve_events(config, events)
            classes = classify_query(
                perf_events,
                fixed_counters=options.fixed_counters,
                aperf_mperf=options.aperf_mperf,
            )
            classes.extend(program_classes(benchmark,
                                           analytic.core.timing_table))
        except Exception:
            # Bad asm or an unknown event: the simulator raises the
            # same error the un-routed path would.
            return None, "unclassifiable"
        if any(cls in _ANALYTIC_BLIND_CLASSES for cls in classes):
            return None, "capability"
        for cls in classes:
            if not self.table.trusted("analytic", cls, TOLERANCE):
                return None, "fidelity"
        if any(cls in self._quarantined for cls in classes):
            return None, "quarantine"
        return [event.name for event in perf_events], None

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _run_on(self, tier, asm: str, asm_init: str, run_kwargs):
        tier.options = self.options
        return tier.run(asm, asm_init, **run_kwargs)

    def run(self, asm: str = "", asm_init: str = "", *,
            code=None, init=None, config=None,
            events: Sequence[str] = (), **option_overrides):
        """Route one measurement; same surface as :meth:`NanoBench.run`."""
        run_kwargs = dict(code=code, init=init, config=config,
                          events=events, **option_overrides)
        merged = (replace(self.options, **option_overrides)
                  if option_overrides else self.options)
        event_names, reason = self._gate(asm, code, config, events, merged)

        if reason is None:
            tier = self._analytic
            try:
                values = self._run_on(tier, asm, asm_init, run_kwargs)
            except (UnschedulableEventError, CapabilityError):
                reason = "unschedulable"
            else:
                if tier.last_report.skipped_events:
                    # The analytic tier degraded instead of answering;
                    # the simulator can answer in full.
                    reason = "unschedulable"

        audited = audit_failed = False
        if reason is not None:
            self.stats.bump("escalations", reason)
            tier = self._fresh_sim()
            values = self._run_on(tier, asm, asm_init, run_kwargs)
        else:
            audited = audit_selected(
                uarch=self.uarch, seed=self.seed,
                kernel_mode=self.kernel_mode,
                asm=asm if code is None else str(code),
                asm_init=asm_init if init is None else str(init),
                events=event_names,
                options=sorted(option_overrides.items()),
                fraction=AUDIT_FRACTION,  # read per call, not at import
            )
            if audited:
                values, tier, audit_failed = self._audit(
                    values, asm, asm_init, run_kwargs,
                    events=events, option_overrides=option_overrides,
                )

        self._finish(tier, audited, audit_failed)
        return values

    # ------------------------------------------------------------------
    def _audit(self, values, asm: str, asm_init: str, run_kwargs, *,
               events, option_overrides):
        """Cross-check an analytic answer against a fresh simulator run.

        Within tolerance: the analytic answer stands.  Beyond it: the
        offending event classes are quarantined on the analytic tier,
        the divergence is recorded, and the *simulator's* values are
        returned — the audit never lets a wrong answer through.
        """
        self.stats.audits += 1
        sim = self._fresh_sim()
        sim_values = self._run_on(sim, asm, asm_init, run_kwargs)
        violations = band_violations(sim_values, values,
                                     TOLERANCE, REL_TOLERANCE)
        if not violations:
            self.stats.audit_passes += 1
            return values, self._analytic, False

        self.stats.audit_failures += 1
        for name in violations:
            self._quarantined.add(self._counter_class(name))
        self.stats.quarantined = tuple(sorted(
            "analytic:%s" % cls for cls in self._quarantined
        ))
        self._record_divergence(values, sim_values, violations,
                                asm, asm_init, events, option_overrides)
        return sim_values, sim, True

    def _counter_class(self, counter_name: str) -> str:
        from ..core.nanobench import _FIXED_COUNTER_NAMES

        if counter_name in _FIXED_COUNTER_NAMES:
            return CLASS_CORE
        if counter_name in ("APERF", "MPERF"):
            return CLASS_APERF
        spec = self._analytic.core.spec
        catalog = event_catalog(spec.family, spec.n_cboxes)
        event = catalog.get(counter_name)
        return classify_event(event) if event is not None else CLASS_CACHE

    def _record_divergence(self, values, sim_values, violations,
                           asm, asm_init, events, option_overrides) -> None:
        from ..batch.spec import spec_digest, spec_from_run_kwargs
        from ..fuzz.corpus import DivergenceRecord

        spec = spec_from_run_kwargs(
            asm, asm_init, events=tuple(events), uarch=self.uarch,
            seed=self.seed, kernel_mode=self.kernel_mode,
            backend="analytic", **option_overrides,
        )
        options = dict(option_overrides)
        self.divergences.append(DivergenceRecord(
            category="router",
            digest=spec_digest(spec),
            uarch=self.uarch,
            kernel_mode=self.kernel_mode,
            seed=self.seed,
            index=0,
            profile="router-audit",
            buckets=(),
            asm=asm,
            asm_init=asm_init,
            unroll_count=int(options.get("unroll_count",
                                         self.options.unroll_count)),
            loop_count=int(options.get("loop_count",
                                       self.options.loop_count)),
            events=tuple(events),
            reference=dict(sim_values),
            candidate=dict(values),
            deviation=max(violations.values()),
            tolerance=TOLERANCE,
            provenance="router-audit:analytic",
        ))

    def _finish(self, tier, audited: bool, audit_failed: bool) -> None:
        served = tier.backend
        self.stats.bump("tier_hits", served)
        report = tier.last_report
        report.router = {
            "served_by": served,
            "audited": audited,
            "audit_failed": audit_failed,
            "stats": self.stats.to_dict(),
        }
        self.last_report = report
        self.last_raw_series = tier.last_raw_series
