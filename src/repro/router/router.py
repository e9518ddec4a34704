"""The tiered fidelity router: the analytic tier, else the simulator.

``RoutedBench`` (``NanoBench.create(backend="auto")`` returns one)
answers :meth:`~repro.core.nanobench.NanoBench.run` queries from two
measurement tiers: the table-driven analytic estimator (~92× the
simulator) and the cycle-accurate simulator (whose fast path is
byte-identical to exact simulation).  Each :meth:`run` is
served by the analytic tier when its answer can be trusted and by the
simulator otherwise — the fidelity swap gem5 makes between its CPU
models, applied to a measurement service.

Trust is decided *per query*, from data, and nothing carries over from
one query to the next, so a routed answer is a pure function of the
query:

1. **The class gate** — before anything runs, a query whose event
   classes the analytic tier cannot count at all (cache/uncore/APERF),
   or whose classes the committed A6-derived
   :class:`~repro.router.fidelity.FidelityTable` does not bound within
   :data:`TOLERANCE` (unmeasured classes are never trusted), goes to
   the simulator.
2. **Runtime escalation** — an :class:`~repro.errors.
   UnschedulableEventError` or :class:`~repro.errors.CapabilityError`
   from the analytic tier (a pause/resume kernel), or an analytic
   answer that had to skip events, falls through to the simulator.
3. **Continuous audit** — a deterministic content-hash sample of
   analytic answers (:data:`AUDIT_FRACTION`) is re-run on a fresh
   simulator; a deviation beyond tolerance records the divergence in
   the fuzzer's corpus format and returns the *simulator's* values — an
   audited answer is never silently wrong.  Simulator answers are never
   audited: the fast path's equivalence to exact simulation is enforced
   by the differential fuzzer and the tier-2 full-corpus differential.

Routing decisions are attributable end to end: each run leaves a
``router`` block (``served_by``, ``audited``, ``audit_failed``,
``escalation``) on :class:`~repro.core.nanobench.ExecutionReport`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import List, Sequence, Tuple

from ..errors import CapabilityError, UnschedulableEventError
from ..tools.compare_backends import band_violations
from .fidelity import (
    CLASS_APERF,
    CLASS_CACHE,
    CLASS_UNCORE,
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
    """Routes each :meth:`run` query across the two tiers.

    It answers :meth:`run` like a :class:`~repro.core.nanobench.
    NanoBench`, but it is not a machine: it has no ``core`` or R14
    buffer for a tool to prepare (such tools call
    :func:`~repro.backends.require_sim`).  Every query is served from a
    **pristine** machine state: the simulator carries persistent
    memory/cache state across runs on one instance (by design — it
    models a real machine), which would make a reused instance's answer
    diverge from the fresh-instance answer the batch path and the A6
    fidelity bounds are defined against, and would let the audit
    compare two tiers in different machine states.  So the stateless
    analytic tier is built once and reused, while a sim tier is built
    for each escalated query and each audit — exactly the cost the
    un-routed batch path already pays per spec.
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
        #: Divergences confirmed by the audit, in the fuzzer's corpus
        #: format (category ``router``), ready for ``save_corpus``.
        self.divergences: List[object] = []
        #: The most recent run's report, with its ``router`` block.
        self.last_report = ExecutionReport()
        #: The analytic tier; it also resolves and classifies every query.
        self._analytic = self._build("analytic")

    # ------------------------------------------------------------------
    # Tiers
    # ------------------------------------------------------------------
    def _build(self, backend: str):
        """A tier in the pristine state a direct
        ``NanoBench.create(...).run(...)`` starts from (the byte-identity
        contract, and the state the audit's reference must share)."""
        from ..core.nanobench import NanoBench

        return NanoBench.create(
            self.uarch, self.seed, kernel_mode=self.kernel_mode,
            backend=backend, options=self.options,
            preflight=self.preflight,
        )

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
            tier = self._build("sim")
            values = self._run_on(tier, asm, asm_init, run_kwargs)
        else:
            asm_text = asm if code is None else str(code)
            init_text = asm_init if init is None else str(init)
            audited = audit_selected(
                uarch=self.uarch, seed=self.seed,
                kernel_mode=self.kernel_mode,
                asm=asm_text, asm_init=init_text,
                events=event_names,
                options=sorted(option_overrides.items()),
                fraction=AUDIT_FRACTION,  # read per call, not at import
            )
            if audited:
                spec = self._query_spec(asm_text, init_text, event_names,
                                        merged)
                values, tier, audit_failed = self._audit(
                    values, asm, asm_init, run_kwargs, spec)

        report = tier.last_report
        report.router = {
            "served_by": tier.backend,
            "audited": audited,
            "audit_failed": audit_failed,
            "escalation": reason,
        }
        self.last_report = report
        return values

    # ------------------------------------------------------------------
    def _query_spec(self, asm_text: str, init_text: str, event_names,
                    options):
        """The reference spec of the query the audit ran: its code as
        text, its resolved events (config-given ones included) and its
        effective options (those that differ from the defaults)."""
        from ..batch.spec import BenchmarkSpec
        from ..core.options import NanoBenchOptions

        defaults = vars(NanoBenchOptions())
        return BenchmarkSpec(
            asm=asm_text, asm_init=init_text, events=event_names,
            uarch=self.uarch, seed=self.seed, kernel_mode=self.kernel_mode,
            options={name: value for name, value in vars(options).items()
                     if value != defaults[name]},
        )

    def _audit(self, values, asm: str, asm_init: str, run_kwargs, spec):
        """Cross-check an analytic answer against a fresh simulator run.

        Within tolerance: the analytic answer stands.  Beyond it: the
        divergence is recorded and the *simulator's* values are
        returned — the audit never lets a wrong answer through.
        """
        sim = self._build("sim")
        sim_values = self._run_on(sim, asm, asm_init, run_kwargs)
        if not band_violations(sim_values, values, TOLERANCE, REL_TOLERANCE):
            return values, self._analytic, False
        self._record_divergence(spec, values, sim_values)
        return sim_values, sim, True

    def _record_divergence(self, spec, values, sim_values) -> None:
        from ..fuzz.corpus import DivergenceRecord
        from ..fuzz.differential import record_tolerance

        self.divergences.append(DivergenceRecord(
            category="router",
            spec=spec,
            reference=dict(sim_values),
            candidate=dict(values),
            tolerance=record_tolerance("router", sim_values),
            profile="router-audit",
            provenance="router-audit:analytic",
        ))
