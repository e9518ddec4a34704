"""The measurement-backend contract: target protocol + capabilities.

:class:`NanoBench` does not care *how* a machine executes generated
code and produces counter values — only that the machine exposes the
surface below.  The cycle-accurate :class:`~repro.uarch.core.
SimulatedCore` satisfies it natively; the analytic backend satisfies it
with lightweight stubs and answers measurements from the timing tables
instead of per-cycle scheduling.  This mirrors gem5's swappable CPU
models (AtomicSimpleCPU vs O3CPU): different fidelity, one interface.

A backend also advertises a :class:`Capabilities` descriptor so tools
can *negotiate* instead of crashing: a capability-gated feature that is
absent either degrades gracefully (events are skipped with a warning
through the existing :class:`~repro.errors.UnschedulableEventError`
path) or fails up front with a structured
:class:`~repro.errors.CapabilityError` naming the missing capability.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple

try:  # Python 3.8+: typing.Protocol
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - very old interpreters
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from ..errors import CapabilityError

#: Human-readable blurb per capability field (the ``nanobench
#: backends`` listing and the README table are generated from this).
CAPABILITY_DESCRIPTIONS: Dict[str, str] = {
    "cycle_accurate": "per-cycle out-of-order execution (exact counters)",
    "kernel_mode": "kernel-space variant (privileged instructions)",
    "user_mode": "user-space variant (CR4.PCE + RDPMC)",
    "uncore": "uncore/C-Box MSR counters (L3 lookup/miss/victim)",
    "aperf_mperf": "APERF/MPERF frequency-ratio MSRs",
    "cache_events": "memory-hierarchy and TLB events (hit/miss levels)",
    "magic_bytes": "pause/resume counting via magic byte sequences",
    "smt": "SMT sibling-thread interference",
    "interference": "background interference / noise injection",
    "contiguous_memory": "physically-contiguous R14 buffer resizing",
}


@dataclass(frozen=True)
class Capabilities:
    """What one measurement backend can actually do.

    Field semantics follow the paper's feature matrix: kernel-only
    features (uncore counters, APERF/MPERF) are still subject to the
    kernel/user mode of the :class:`NanoBench` instance even when the
    backend supports them — the capability says the *backend* has the
    machinery, not that every mode may use it.
    """

    cycle_accurate: bool = True
    kernel_mode: bool = True
    user_mode: bool = True
    uncore: bool = True
    aperf_mperf: bool = True
    cache_events: bool = True
    magic_bytes: bool = True
    smt: bool = True
    interference: bool = True
    contiguous_memory: bool = True

    def supports(self, capability: str) -> bool:
        """True when *capability* (a field name) is advertised."""
        try:
            return bool(getattr(self, capability))
        except AttributeError:
            raise ValueError("unknown capability %r (known: %s)" % (
                capability, ", ".join(self.names())))

    def missing(self, *capabilities: str) -> Tuple[str, ...]:
        """The subset of *capabilities* this descriptor lacks."""
        return tuple(c for c in capabilities if not self.supports(c))

    def require(self, capability: str, *, backend: str = "",
                context: str = "") -> None:
        """Raise a structured :class:`CapabilityError` unless supported."""
        if self.supports(capability):
            return
        detail = CAPABILITY_DESCRIPTIONS.get(capability, capability)
        message = "backend %r lacks the %r capability (%s)" % (
            backend or "<unknown>", capability, detail)
        if context:
            message = "%s: %s" % (context, message)
        raise CapabilityError(message, capability=capability,
                              backend=backend)

    @classmethod
    def names(cls) -> Tuple[str, ...]:
        """All capability field names, in declaration order."""
        return tuple(f.name for f in fields(cls))

    def describe(self) -> "Dict[str, bool]":
        """``{capability: supported}`` in declaration order."""
        return {name: bool(getattr(self, name)) for name in self.names()}


@runtime_checkable
class MeasurementTarget(Protocol):
    """The machine surface :class:`NanoBench` actually consumes.

    The facade constructs against this protocol, not against
    :class:`~repro.uarch.core.SimulatedCore`: scratch-area mapping goes
    through ``address_space``, counter programming through ``pmu``,
    code execution through ``run_program``, and pre-flight validation
    through ``timing_table``/``timing_enabled``.  Attributes used only
    by the cycle-accurate measurement loop (``regs``, ``scheduler``,
    ``main_memory``) may be inert stubs on backends that never run
    generated code.
    """

    spec: object            # MicroarchSpec of the modelled machine
    layout: object          # PortLayout of the machine's family
    pmu: object             # counter programming + user_rdpmc_enabled
    regs: object            # architectural register file
    address_space: object   # map_user/map_kernel_contiguous/unmap/translate
    main_memory: object     # physical memory (counter readback)
    scheduler: object       # cycle/uop budget knobs
    timing_table: object    # TimingTable for pre-flight + estimation
    timing_enabled: bool
    current_cycle: int
    sim_stats: object       # SimStats (Counters: snapshot/delta/to_dict)

    def run_program(self, program, *, kernel_mode: bool = False,
                    **kwargs) -> None: ...
    def reset_timing(self) -> None: ...
    def disable_interrupts(self) -> None: ...
    def enable_interrupts(self) -> None: ...
    def begin_frequency_transition(self, scale: float) -> None: ...
    def end_frequency_transition(self) -> None: ...


class MeasurementBackend:
    """One way of realising a :class:`MeasurementTarget`.

    Subclasses set :attr:`name`, :attr:`description` and
    :attr:`capabilities`, and implement :meth:`create_target`.
    Backends are stateless singletons: all per-run state lives in the
    targets they create, which keeps the determinism contract — a
    target is a pure function of ``(uarch, seed)``.
    """

    name: str = ""
    description: str = ""
    capabilities: Capabilities = Capabilities()

    def create_target(self, uarch: str = "Skylake", *,
                      seed: int = 0) -> MeasurementTarget:
        raise NotImplementedError

    def create_facade(self, uarch: str = "Skylake", seed: int = 0, *,
                      kernel_mode: bool = True, options=None, retry=None,
                      preflight: bool = True, stability=None):
        """Optional hook: supply a complete NanoBench-shaped facade.

        Most backends return ``None`` (the default) and
        :meth:`NanoBench.create` wraps :meth:`create_target` in the
        standard facade.  Composite backends that are not a single
        target — the ``auto`` router, which owns one facade *per tier*
        — return their own object here instead.
        """
        return None

    def describe(self) -> str:
        """One ``name — description`` line for listings."""
        return "%s — %s" % (self.name, self.description)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<%s name=%r>" % (type(self).__name__, self.name)
