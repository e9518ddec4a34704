"""The tiered fidelity router: cheapest trustworthy backend per query.

``RoutedBench`` is a drop-in :class:`~repro.core.nanobench.NanoBench`
facade (``NanoBench.create(backend="auto")`` returns one) that owns
two measurement tiers in ascending cost order — the table-driven
analytic estimator (~92× the simulator) and the cycle-accurate
simulator (whose steady-state fast path is byte-identical to exact
simulation) — and serves each :meth:`run` from the cheapest tier whose
answer can be trusted.  The same fidelity cascade gem5 uses for its
swappable CPU models, applied to a measurement service.

Trust is decided *per query*, from data:

1. **Capabilities** — a query event class the analytic tier cannot
   count at all (cache/uncore/APERF) escalates before anything runs.
2. **Measured fidelity** — the committed A6-derived
   :class:`~repro.router.fidelity.FidelityTable` must bound the class's
   p95 error within ``RouterPolicy.tolerance``; unmeasured classes are
   never trusted.
3. **Runtime escalation** — an :class:`~repro.errors.
   UnschedulableEventError` or :class:`~repro.errors.CapabilityError`
   mid-run (a pause/resume kernel on the analytic tier), or an analytic
   answer that had to skip events, falls through to the simulator
   automatically.
4. **Continuous audit** — a deterministic content-hash sample of
   analytic answers (default 1/64) is re-run on a fresh simulator; a
   deviation beyond tolerance quarantines the offending event classes
   on the analytic tier, records the divergence in the fuzzer's
   corpus format, and returns the *simulator's* values — an audited
   answer is never silently wrong.  Simulator answers are never
   audited: the fast path's equivalence to exact simulation is
   enforced by the differential fuzzer and the tier-2 full-corpus
   differential.

Routing decisions are attributable end to end: each run leaves
``served_by`` / ``last_audited`` on the facade, a ``router`` block on
:class:`~repro.core.nanobench.ExecutionReport`, and cumulative
:class:`RouterStats` for the service's ``/v1/stats``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..backends.protocol import BACKENDS, Capabilities
from ..errors import CapabilityError, UnschedulableEventError
from ..perfctr.events import PerfEvent, event_catalog
from ..stats import Counters
from .fidelity import (
    CLASS_APERF,
    CLASS_CACHE,
    CLASS_CORE,
    CLASS_UNCORE,
    FidelityTable,
    classify_event,
    classify_query,
    load_fidelity_table,
    program_classes,
)

#: Tier names (backend names) in ascending cost order.  Only the
#: cheap tier is audited; ``sim`` is the audit reference and the tier
#: every escalation ends on.
TIER_ORDER = ("analytic", "sim")

#: Event classes the analytic estimator cannot serve, by construction:
#: it has no memory hierarchy, no uncore, and no frequency MSRs.  The
#: simulator counts everything.
_ANALYTIC_BLIND_CLASSES = frozenset((CLASS_CACHE, CLASS_UNCORE,
                                     CLASS_APERF))


@dataclass(frozen=True)
class RouterPolicy:
    """Knobs of the routing / audit behaviour."""

    #: Class-gate and audit tolerance, in counter units (cycles for the
    #: fixed counters): a cheap tier is trusted for a class only when
    #: its measured p95 error is within this, and an audited answer
    #: deviating beyond ``max(tolerance, rel_tolerance·|ref|)`` on any
    #: shared counter is a violation.
    tolerance: float = 0.5
    rel_tolerance: float = 0.05
    #: Fraction of analytic answers cross-checked against a fresh
    #: simulator run (deterministic content-hash sampling; 0 disables).
    audit_fraction: float = 1.0 / 64.0
    #: Salt of the audit sample, so two routers can audit disjoint
    #: slices of the same traffic.
    audit_seed: int = 0
    #: Override for the committed fidelity artifact.
    table_path: Optional[str] = None


@dataclass
class RouterStats(Counters):
    """Cumulative routing counters of one :class:`RoutedBench`."""

    tier_hits: Dict[str, int] = field(default_factory=dict)
    #: Tier-skip / fall-through counts keyed by reason
    #: (``capability`` / ``fidelity`` / ``quarantine`` /
    #: ``unschedulable`` / ``unclassifiable``).
    escalations: Dict[str, int] = field(default_factory=dict)
    audits: int = 0
    audit_passes: int = 0
    audit_failures: int = 0
    #: Quarantined ``"tier:class"`` pairs, sorted.
    quarantined: Tuple[str, ...] = ()


def audit_selected(policy: RouterPolicy, *, uarch: str, seed: int,
                   kernel_mode: bool, asm: str, asm_init: str,
                   events: Sequence[str],
                   options: Sequence[Tuple[str, object]]) -> bool:
    """Whether one query falls in the audit sample.

    A pure function of the query content and ``audit_seed`` — never of
    arrival order or wall clock — so batched, sharded, and re-run
    traffic audits exactly the same specs (the determinism contract the
    batch engine already makes for results extends to audits).
    """
    if policy.audit_fraction <= 0.0:
        return False
    payload = json.dumps([
        policy.audit_seed, uarch, seed, kernel_mode, asm, asm_init,
        sorted(events), sorted((str(k), repr(v)) for k, v in options),
    ], sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return fraction < policy.audit_fraction


class RoutedBench:
    """A NanoBench-shaped facade that routes each run across tiers.

    Tier instances are created lazily (an all-analytic workload never
    pays for a :class:`~repro.uarch.core.SimulatedCore`).  Every routed
    run is served from a **pristine** machine state: the simulating
    tiers carry persistent memory/cache state across runs on one
    instance (by design — they model a real machine), which would make
    a reused tier's answer diverge from the fresh-instance answer the
    batch path and the A6 fidelity bounds are defined against, and
    would let the audit compare two tiers in different machine states.
    So the stateless analytic tier is reused, while the sim tier is
    rebuilt per run — exactly the cost the un-routed batch path already
    pays per spec.
    """

    def __init__(self, uarch: str = "Skylake", seed: int = 0, *,
                 kernel_mode: bool = True,
                 options=None, retry=None, preflight: bool = True,
                 stability=None,
                 policy: Optional[RouterPolicy] = None,
                 table: Optional[FidelityTable] = None) -> None:
        from ..core.nanobench import ExecutionReport
        from ..core.options import NanoBenchOptions
        from ..core.retry import RetryPolicy

        self.uarch = uarch
        self.seed = seed
        self.kernel_mode = kernel_mode
        self.options = options if options is not None else NanoBenchOptions()
        self.retry = retry if retry is not None else RetryPolicy()
        self.preflight = preflight
        self.stability = stability
        self.policy = policy if policy is not None else RouterPolicy()
        self.table = (table if table is not None
                      else load_fidelity_table(self.policy.table_path))
        self.backend = "auto"
        self.stats = RouterStats()
        #: Divergences confirmed by the audit, in the PR 6 corpus
        #: format (category ``router``), ready for ``save_corpus``.
        self.divergences: List[object] = []
        #: Attribution of the most recent run.
        self.served_by: Optional[str] = None
        self.last_audited = False
        self.last_audit_failed = False
        self.last_report = ExecutionReport()
        self.last_quality = None
        self.quality_counts: Dict[str, int] = {}
        self.last_raw_series: Dict[int, Dict[str, List[float]]] = {}
        self._tiers: Dict[str, object] = {}
        self._quarantined: set = set()
        self._r14_size_request: Optional[int] = None
        from ..uarch.specs import get_spec
        from ..uarch.timing import TimingTable

        self._spec = get_spec(uarch)
        self._timing_table = TimingTable(
            self._spec.family, move_elimination=self._spec.move_elimination
        )

    # ------------------------------------------------------------------
    # Tier management
    # ------------------------------------------------------------------
    def _tier(self, name: str):
        """The (lazily-created) NanoBench instance of one tier."""
        tier = self._tiers.get(name)
        if tier is None:
            from ..core.nanobench import NanoBench

            tier = NanoBench.create(
                self.uarch, self.seed, kernel_mode=self.kernel_mode,
                backend=name, options=self.options, retry=self.retry,
                preflight=self.preflight,
            )
            if self._r14_size_request is not None and self.kernel_mode:
                tier.resize_r14_buffer(self._r14_size_request)
            self._tiers[name] = tier
        return tier

    def _fresh_tier(self, name: str):
        """The instance one routed run executes on.

        The analytic tier is pure (no machine state) and is reused; a
        simulating tier is rebuilt so the run starts from the same
        pristine state a direct ``NanoBench.create(...).run(...)``
        would — the byte-identity contract, and the state the audit's
        reference must share.  The rebuilt instance replaces the cached
        one, so post-run introspection (``core``, ``last_report``)
        reads the instance that actually ran.
        """
        if name != "analytic":
            self._tiers.pop(name, None)
        return self._tier(name)

    @property
    def core(self):
        """The cycle-accurate tier's core (CLI / cache-benchmark hook)."""
        return self._tier("sim").core

    @property
    def capabilities(self) -> Capabilities:
        return BACKENDS[self.backend][1]

    def resize_r14_buffer(self, size: int) -> int:
        """Resize R14 on the current and every future sim tier."""
        self._r14_size_request = size
        if "sim" in self._tiers:
            return self._tiers["sim"].resize_r14_buffer(size)
        return self._tier("sim")._r14_physical_base

    @property
    def r14_physical_base(self) -> Optional[int]:
        return self._tier("sim").r14_physical_base

    @property
    def r14_size(self) -> int:
        return self._tier("sim").r14_size

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _classify(self, asm: str, code, config, events,
                  options) -> Optional[List[str]]:
        """Event + program classes of one query, or None when the query
        cannot be classified (bad asm / unknown event: route to the sim
        tier, which raises the same error the un-routed path would)."""
        from ..core.codecache import cached_assemble

        try:
            benchmark = code if code is not None else cached_assemble(asm)
            perf_events = self._resolve_events(config, events)
            classes = classify_query(
                perf_events,
                fixed_counters=options.fixed_counters,
                aperf_mperf=options.aperf_mperf,
            )
            classes.extend(program_classes(benchmark, self._timing_table))
            return classes
        except Exception:
            return None

    def _resolve_events(self, config, events) -> Tuple[PerfEvent, ...]:
        if config is not None:
            return tuple(config.events)
        if not events:
            return ()
        catalog = event_catalog(self._spec.family, self._spec.n_cboxes)
        return tuple(catalog[name] for name in events)

    def _eligible(self, tier: str, classes: List[str]) -> Optional[str]:
        """None when the analytic tier may serve these classes, else the
        skip reason (``capability`` / ``fidelity`` / ``quarantine``).
        The sim tier, the cycle-accurate reference, serves anything."""
        if tier == "sim":
            return None
        if any(cls in _ANALYTIC_BLIND_CLASSES for cls in classes):
            return "capability"
        for cls in classes:
            if not self.table.trusted(tier, cls, self.policy.tolerance):
                return "fidelity"
        if any((tier, cls) in self._quarantined for cls in classes):
            return "quarantine"
        return None

    def _route(self, classes: Optional[List[str]]) -> List[str]:
        """Candidate tiers in cost order, cheapest eligible first."""
        if classes is None:
            self.stats.bump("escalations", "unclassifiable")
            return ["sim"]
        candidates = []
        for tier in TIER_ORDER:
            reason = self._eligible(tier, classes)
            if reason is None:
                candidates.append(tier)
            else:
                self.stats.bump("escalations", reason)
        return candidates

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, asm: str = "", asm_init: str = "", *,
            code=None, init=None, config=None,
            events: Sequence[str] = (), **option_overrides):
        """Route one measurement; same surface as :meth:`NanoBench.run`."""
        merged = (replace(self.options, **option_overrides)
                  if option_overrides else self.options)
        classes = self._classify(asm, code, config, events, merged)
        candidates = self._route(classes)

        values = None
        served = candidates[-1]
        for position, tier_name in enumerate(candidates):
            tier = self._fresh_tier(tier_name)
            tier.options = self.options
            tier.stability = self.stability
            terminal = position == len(candidates) - 1
            try:
                values = tier.run(asm, asm_init, code=code, init=init,
                                  config=config, events=events,
                                  **option_overrides)
            except (UnschedulableEventError, CapabilityError):
                if terminal:
                    raise
                self.stats.bump("escalations", "unschedulable")
                continue
            if tier.last_report.skipped_events and not terminal:
                # The cheap tier degraded instead of answering; the
                # simulator can answer in full.
                self.stats.bump("escalations", "unschedulable")
                continue
            served = tier_name
            break

        audited = False
        audit_failed = False
        if served == "analytic":
            audited = audit_selected(
                self.policy, uarch=self.uarch, seed=self.seed,
                kernel_mode=self.kernel_mode,
                asm=asm if code is None else str(code),
                asm_init=asm_init if init is None else str(init),
                events=[e.name for e in self._resolve_events(config, events)],
                options=sorted(option_overrides.items()),
            )
        if audited:
            values, served, audit_failed = self._audit(
                values, asm, asm_init, code=code, init=init,
                config=config, events=events,
                option_overrides=option_overrides,
            )

        self.stats.bump("tier_hits", served)
        self._finish(served, audited, audit_failed)
        return values

    # ------------------------------------------------------------------
    def _audit(self, values, asm: str, asm_init: str, *,
               code, init, config, events, option_overrides):
        """Cross-check an analytic answer against a fresh simulator run.

        Within tolerance: the analytic answer stands.  Beyond it: the
        offending event classes are quarantined on the analytic tier,
        the divergence is recorded, and the *simulator's* values are
        returned — the audit never lets a wrong answer through.
        """
        self.stats.audits += 1
        sim = self._fresh_tier("sim")
        sim.options = self.options
        sim.stability = self.stability
        sim_values = sim.run(asm, asm_init, code=code, init=init,
                             config=config, events=events,
                             **option_overrides)
        tolerance = self.policy.tolerance
        violations: List[Tuple[str, float, float, float]] = []
        for name, reference in sim_values.items():
            candidate = values.get(name)
            if candidate is None:
                continue
            deviation = abs(candidate - reference)
            if deviation > max(tolerance,
                               self.policy.rel_tolerance * abs(reference)):
                violations.append((name, candidate, reference, deviation))
        if not violations:
            self.stats.audit_passes += 1
            return values, "analytic", False

        self.stats.audit_failures += 1
        for name, _, _, _ in violations:
            self._quarantined.add(("analytic", self._counter_class(name)))
        self.stats.quarantined = tuple(sorted(
            "%s:%s" % (tier, cls) for tier, cls in self._quarantined
        ))
        self._record_divergence(values, sim_values, violations,
                                asm, asm_init, events, option_overrides)
        return sim_values, "sim", True

    def _counter_class(self, counter_name: str) -> str:
        from ..core.nanobench import _FIXED_COUNTER_NAMES

        if counter_name in _FIXED_COUNTER_NAMES:
            return CLASS_CORE
        if counter_name in ("APERF", "MPERF"):
            return CLASS_APERF
        catalog = event_catalog(self._spec.family, self._spec.n_cboxes)
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
            deviation=max(v[3] for v in violations),
            tolerance=self.policy.tolerance,
            provenance="router-audit:analytic",
        ))

    def _finish(self, served: str, audited: bool, audit_failed: bool) -> None:
        tier = self._tiers[served]
        report = tier.last_report
        report.router = {
            "served_by": served,
            "audited": audited,
            "audit_failed": audit_failed,
            "stats": self.stats.to_dict(),
        }
        self.last_report = report
        self.last_raw_series = tier.last_raw_series
        self.last_quality = tier.last_quality
        if tier.last_quality is not None:
            verdict = tier.last_quality.verdict
            self.quality_counts[verdict] = (
                self.quality_counts.get(verdict, 0) + 1
            )
        self.served_by = served
        self.last_audited = audited
        self.last_audit_failed = audit_failed
