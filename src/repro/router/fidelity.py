"""Event classes and the machine-readable fidelity table.

The router's trust decisions are *data*, not folklore: the A6
experiment (``benchmarks/bench_a6_backend_fidelity.py``) measures, for
every instruction variant of the E6 corpus, how far the analytic
estimator deviates from the cycle-accurate simulator.  This module
compresses that report into per-**event-class** error bounds — a small
JSON artifact committed next to the code and refreshable by re-running
the benchmark — which :mod:`repro.router.router` consults before
serving a query from a cheap tier.

Two classification axes feed the table:

* **counter classes** — what kind of counter a query asks for
  (``core`` cycles, ``uops``, ``ports``, ``branches``, ``memory``,
  ``cache``, ``uncore``, ``aperf``).  Capability-driven: the analytic
  backend cannot answer ``cache``/``uncore``/``aperf`` at all, so those
  classes escalate on capabilities alone, before any bound is read.
* **instruction-character classes** — what kind of code a query runs.
  Microcoded instructions (``CPUID``-shaped) are the analytic model's
  one systematically weak population (A6: max deviation ~35 cycles vs
  <0.3 for everything else), so blocks containing them contribute to a
  separate ``microcode`` class with its own (much looser) bounds, and
  the router sends them to the simulator instead of poisoning the
  bounds of ordinary code.

Each class carries ``mean`` / ``p95`` / ``max`` deviation statistics
over its A6 population; the router's gate compares the ``p95`` against
its ``TOLERANCE``, so one outlier does not blacklist a class
while a drifting population does.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..perfctr.events import PerfEvent
from ..store.segment import write_atomic

#: Fidelity-table format version, embedded in the JSON artifact.
FIDELITY_VERSION = 1

#: The committed artifact (regenerate via bench_a6, see its docstring).
DEFAULT_TABLE_PATH = os.path.join(
    os.path.dirname(__file__), "data", "fidelity_skylake.json"
)

#: Counter classes, in the order reports list them.
CLASS_CORE = "core"          # fixed counters (cycles / instructions)
CLASS_UOPS = "uops"          # issued-uop counters
CLASS_PORTS = "ports"        # per-port dispatch counters
CLASS_BRANCHES = "branches"  # branch / mispredict counters
CLASS_MEMORY = "memory"      # load/store counts (not hit/miss levels)
CLASS_CACHE = "cache"        # memory-hierarchy + TLB hit/miss events
CLASS_UNCORE = "uncore"      # C-Box MSR counters
CLASS_APERF = "aperf"        # APERF/MPERF frequency MSRs
#: Instruction-character class for blocks with microcoded instructions.
CLASS_MICROCODE = "microcode"

EVENT_CLASSES = (
    CLASS_CORE, CLASS_UOPS, CLASS_PORTS, CLASS_BRANCHES, CLASS_MEMORY,
    CLASS_CACHE, CLASS_UNCORE, CLASS_APERF, CLASS_MICROCODE,
)


def classify_event(event: PerfEvent) -> str:
    """The counter class of one programmable performance event."""
    if event.uncore:
        return CLASS_UNCORE
    metric = event.metric
    if metric == "uops_issued":
        return CLASS_UOPS
    if metric in ("branches", "branch_mispredicts"):
        return CLASS_BRANCHES
    if metric in ("mem_loads", "mem_stores"):
        return CLASS_MEMORY
    if metric.startswith("uops_port_"):
        return CLASS_PORTS
    # Everything else in the catalog is a memory-hierarchy / TLB event
    # (l1/l2/l3 hits and misses, dtlb walks, ...).
    return CLASS_CACHE


def classify_query(events: Sequence[PerfEvent], *,
                   fixed_counters: bool = True,
                   aperf_mperf: bool = False) -> List[str]:
    """Counter classes one measurement request touches (sorted)."""
    classes = set()
    if fixed_counters:
        classes.add(CLASS_CORE)
    if aperf_mperf:
        classes.add(CLASS_APERF)
    for event in events:
        classes.add(classify_event(event))
    return sorted(classes)


def program_classes(program, timing_table) -> List[str]:
    """Instruction-character classes of one benchmark block.

    Returns ``["microcode"]`` when any instruction of *program* is
    microcoded in *timing_table* (the analytic model's weak population)
    and ``[]`` otherwise.  Lookup failures are ignored — an instruction
    the table does not know will fail pre-flight on every tier alike,
    which is not a routing question.
    """
    for instr in getattr(program, "instructions", ()):
        try:
            timing = timing_table.lookup(instr)
        except Exception:
            continue
        if getattr(timing, "microcoded", False):
            return [CLASS_MICROCODE]
    return []


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClassBound:
    """Deviation statistics of one (backend, event class) population."""

    mean: float = 0.0
    p95: float = 0.0
    max: float = 0.0
    n: int = 0

    def to_dict(self) -> dict:
        return {"mean": self.mean, "p95": self.p95,
                "max": self.max, "n": self.n}

    @classmethod
    def from_dict(cls, record: dict) -> "ClassBound":
        return cls(mean=float(record.get("mean", 0.0)),
                   p95=float(record.get("p95", 0.0)),
                   max=float(record.get("max", 0.0)),
                   n=int(record.get("n", 0)))

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "ClassBound":
        values = sorted(abs(float(v)) for v in samples)
        if not values:
            return cls()
        rank = max(0, min(len(values) - 1,
                          int(round(0.95 * (len(values) - 1)))))
        return cls(
            mean=sum(values) / len(values),
            p95=values[rank],
            max=values[-1],
            n=len(values),
        )


#: Conservative built-in bounds used when no artifact is on disk (fresh
#: checkout with the data file stripped): the structurally-exact
#: classes are trusted at zero error, everything measured is not.
_BUILTIN_BOUNDS: Dict[str, Dict[str, ClassBound]] = {
    "analytic": {
        # Static counts the estimator computes exactly by construction.
        CLASS_BRANCHES: ClassBound(),
        CLASS_MEMORY: ClassBound(),
    },
}


@dataclass
class FidelityTable:
    """Per-(backend, event class) error bounds against a reference."""

    uarch: str = "Skylake"
    reference: str = "sim"
    source: str = "builtin-defaults"
    backends: Dict[str, Dict[str, ClassBound]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def bound(self, backend: str, event_class: str) -> Optional[ClassBound]:
        """The measured bound, or None when the class was never measured
        for *backend* (an unmeasured class is never trusted)."""
        return self.backends.get(backend, {}).get(event_class)

    def trusted(self, backend: str, event_class: str,
                tolerance: float) -> bool:
        """True when *backend*'s measured p95 error for *event_class*
        is within *tolerance*."""
        bound = self.bound(backend, event_class)
        return bound is not None and bound.p95 <= tolerance

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": FIDELITY_VERSION,
            "uarch": self.uarch,
            "reference": self.reference,
            "source": self.source,
            "backends": {
                backend: {
                    cls: bound.to_dict()
                    for cls, bound in sorted(bounds.items())
                }
                for backend, bounds in sorted(self.backends.items())
            },
        }

    @classmethod
    def from_dict(cls, record: dict) -> "FidelityTable":
        return cls(
            uarch=record.get("uarch", "Skylake"),
            reference=record.get("reference", "sim"),
            source=record.get("source", ""),
            backends={
                backend: {
                    name: ClassBound.from_dict(bound)
                    for name, bound in bounds.items()
                }
                for backend, bounds in record.get("backends", {}).items()
            },
        )

    def save(self, path: str) -> None:
        """Write the artifact with deterministic bytes (sorted keys)."""
        data = json.dumps(self.to_dict(), sort_keys=True, indent=2)
        write_atomic(path, (data + "\n").encode())

    @classmethod
    def load(cls, path: str) -> "FidelityTable":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def load_fidelity_table(path: Optional[str] = None) -> FidelityTable:
    """The committed artifact, or the built-in defaults without one."""
    path = DEFAULT_TABLE_PATH if path is None else path
    if os.path.exists(path):
        return FidelityTable.load(path)
    return FidelityTable(backends={
        backend: dict(bounds)
        for backend, bounds in _BUILTIN_BOUNDS.items()
    })


# ----------------------------------------------------------------------
# Derivation from the A6 comparison
# ----------------------------------------------------------------------
def fidelity_from_comparison(comparison, variants=None) -> FidelityTable:
    """Compress a :class:`~repro.tools.compare_backends.BackendComparison`
    into per-event-class bounds.

    Latency and throughput deviations feed the ``core`` (cycles) class,
    µop deviations the ``uops`` class, per-port deviations the
    ``ports`` class.  When *variants* (the corpus the comparison ran,
    matched by name) is given, rows whose benchmark code contains a
    microcoded instruction contribute to the separate ``microcode``
    class instead, keeping the bounds of ordinary code tight.  The
    statically-exact ``branches``/``memory`` classes are emitted with
    zero bounds — the estimator counts them by construction.
    """
    from ..core.codecache import cached_assemble
    from ..uarch.specs import get_spec
    from ..uarch.timing import TimingTable

    spec = get_spec(comparison.uarch)
    timing_table = TimingTable(spec.family,
                               move_elimination=spec.move_elimination)
    microcoded_names = set()
    for variant in variants or ():
        try:
            program = cached_assemble(variant.throughput_asm)
        except Exception:
            continue
        if program_classes(program, timing_table):
            microcoded_names.add(variant.name)

    samples: Dict[str, List[float]] = {}

    def add(event_class: str, value: Optional[float]) -> None:
        if value is not None:
            samples.setdefault(event_class, []).append(value)

    for deviation in comparison.compared:
        if deviation.name in microcoded_names:
            add(CLASS_MICROCODE, deviation.latency_deviation)
            add(CLASS_MICROCODE, deviation.throughput_deviation)
            add(CLASS_MICROCODE, deviation.uops_deviation)
            continue
        add(CLASS_CORE, deviation.latency_deviation)
        add(CLASS_CORE, deviation.throughput_deviation)
        add(CLASS_UOPS, deviation.uops_deviation)
        for value in deviation.port_deviations.values():
            add(CLASS_PORTS, value)

    bounds = {
        event_class: ClassBound.from_samples(values)
        for event_class, values in samples.items()
    }
    bounds.setdefault(CLASS_BRANCHES, ClassBound())
    bounds.setdefault(CLASS_MEMORY, ClassBound())
    return FidelityTable(
        uarch=comparison.uarch,
        reference=comparison.reference_backend,
        source="A6_backend_fidelity",
        backends={comparison.candidate_backend: bounds},
    )
