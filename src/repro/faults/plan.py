"""The deterministic fault-injection plane.

The paper's central robustness claim is that nanoBench stays accurate
*despite* interference: measurements "may need to be repeated multiple
times [because of] interference due to interrupts, preemptions or
contention" (Section I), and the kernel variant exists precisely to
mask such noise (Section III-D).  At uops.info scale a corpus sweep of
thousands of benchmarks must additionally survive individual harness
failures — transient allocation failures, counter wraparound,
frequency transitions, dead or hung worker processes — without
restarting from scratch.

This module provides the *noise source* for exercising those recovery
paths: a :class:`FaultPlan` names fault classes (sites) and per-site
rates, and every injection decision is a pure function of ``(seed,
site, key)`` — no global RNG state — so

* the same plan injects the same faults regardless of process, worker
  count, sharding, or execution order;
* a recovered (retried / requeued / resumed) pipeline produces results
  byte-identical to a fault-free run.

Activation is scoped: use the plan as a context manager, call
:func:`activate` / :func:`deactivate`, or set the ``REPRO_FAULTS``
environment variable (optionally with ``REPRO_FAULTS_SEED``) so any
existing test run can execute under chaos without code changes::

    REPRO_FAULTS=chaos python -m pytest -q             # default rates
    REPRO_FAULTS="worker.death=0.1,kernel.alloc=0.05"  # explicit rates
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

#: Environment variables honoured by :func:`active_plan`.
ENV_FAULTS = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"

#: The registry of known fault classes and their default (chaos) rates.
#:
#: In-process measurement faults:
#:
#: * ``kernel.alloc`` — transient kernel :class:`AllocationError` at the
#:   start of a measurement group (the real tool "proposes a reboot");
#: * ``counter.overflow`` — a 48-bit programmable / 40-bit fixed
#:   counter crosses its wrap boundary between the two counter reads of
#:   a run, producing a negative (or implausibly huge) delta;
#: * ``freq.transition`` — a mid-run APERF/MPERF frequency transition
#:   that shifts the measured core/reference clock ratio;
#: * ``cache.corrupt`` — a codegen-cache entry is corrupted in place
#:   (detected by checksum, repaired by rebuild).
#:
#: Batch-plane faults (fired by :class:`repro.batch.pool.ResilientPool`,
#: keyed by ``"index:attempt"`` so a requeued item does not re-fire;
#: ``index`` is the item's position among the payloads the pool runs —
#: for a batch with a result store, its position among the executed
#: specs, not among all specs):
#:
#: * ``worker.death`` — the worker process dies (``os._exit``); worker
#:   processes only;
#: * ``worker.hang`` — the worker stops making progress (bounded sleep,
#:   recovered by the per-item timeout); worker processes only;
#: * ``spec.error`` — a transient spec-level exception before the item
#:   executes; fires identically in-process (one worker) and in worker
#:   processes.
#:
#: Durable-store faults (fired inside :mod:`repro.store` append /
#: compaction paths, keyed by ``"digest:attempt"`` so a healed retry
#: does not re-fire):
#:
#: * ``store.torn_write`` — an append or compaction write is cut short
#:   mid-record (the kill -9 / power-loss shape); the store detects the
#:   torn line and truncates back to the last durable record;
#: * ``disk.full`` — the write fails with ENOSPC; the store truncates
#:   any partial line and retries.
#:
#: Service-plane faults (fired inside :mod:`repro.server`, keyed by a
#: per-process request / append counter — all fully self-healed, so the
#: served results must not depend on which occurrences fire):
#:
#: * ``server.accept_drop`` — the server drops an accepted connection
#:   before reading the request (the overloaded-listener / flaky-LB
#:   shape); the stdlib client retries with bounded backoff;
#: * ``server.slow_client`` — a handler thread trickles its response out
#:   in small chunks with bounded stalls (the slow-reader shape); other
#:   connections must keep making progress;
#: * ``queue.journal_torn`` — a job-journal append is cut short
#:   mid-record (kill -9 during accept/ack); the journal truncates back
#:   to the last durable record and retries.
DEFAULT_RATES: Dict[str, float] = {
    "kernel.alloc": 0.02,
    "counter.overflow": 0.01,
    "freq.transition": 0.02,
    "cache.corrupt": 0.01,
    "worker.death": 0.05,
    "worker.hang": 0.03,
    "spec.error": 0.05,
    "store.torn_write": 0.02,
    "disk.full": 0.01,
    "server.accept_drop": 0.02,
    "server.slow_client": 0.02,
    "queue.journal_torn": 0.02,
}

FAULT_SITES: Tuple[str, ...] = tuple(sorted(DEFAULT_RATES))

#: The sites that fire inside one run of generated code.  A run that
#: one of them may hit is not a repeat of the last one, so nanoBench
#: replays runs (and checks them for contamination) only under a plan
#: that arms none of these; every other site fires outside runs.
RUN_FAULT_SITES: Tuple[str, ...] = ("counter.overflow", "freq.transition")

#: Resolution of the decision hash: rates are effectively quantized to
#: multiples of ``1 / 2**53`` (double precision), far below any rate
#: anyone would configure.
_HASH_BITS = 53


@dataclass
class FaultPlan:
    """A named set of fault classes with per-site injection rates.

    ``rates`` maps a site name from :data:`FAULT_SITES` to a
    probability in ``[0, 1]``; unnamed sites never fire.  Decisions are
    deterministic: :meth:`fires` hashes ``(seed, site, key)``, so two
    plans with the same seed agree everywhere, in every process.
    """

    rates: Dict[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        for site, rate in self.rates.items():
            if site not in DEFAULT_RATES:
                raise ValueError(
                    "unknown fault site %r (known: %s)"
                    % (site, ", ".join(FAULT_SITES))
                )
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    "rate for %r must be in [0, 1], got %r" % (site, rate)
                )
        #: Per-site injection counts of *this process* (observability).
        self.injected: Dict[str, int] = {}
        self._auto_keys: Dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def chaos(cls, seed: int = 0, scale: float = 1.0) -> "FaultPlan":
        """Every fault class at its default rate (scaled by *scale*)."""
        return cls(
            rates={site: min(1.0, rate * scale)
                   for site, rate in DEFAULT_RATES.items()},
            seed=seed,
        )

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``"site=rate,site=rate"`` (or ``"chaos"``) syntax."""
        text = text.strip()
        if not text:
            return cls(rates={}, seed=seed)
        if text == "chaos":
            return cls.chaos(seed=seed)
        rates: Dict[str, float] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            site, eq, value = part.partition("=")
            site = site.strip()
            if not eq:
                raise ValueError(
                    "cannot parse fault spec %r (want site=rate)" % (part,)
                )
            rates[site] = float(value)
        return cls(rates=rates, seed=seed)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> Optional["FaultPlan"]:
        """The plan described by ``REPRO_FAULTS``, or None when unset."""
        environ = os.environ if environ is None else environ
        text = environ.get(ENV_FAULTS)
        if not text:
            return None
        seed = int(environ.get(ENV_SEED, "0"))
        return cls.parse(text, seed=seed)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def rate(self, site: str) -> float:
        return self.rates.get(site, 0.0)

    def fires(self, site: str, key: Union[str, int]) -> bool:
        """Deterministically decide whether *site* fires for *key*."""
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        if rate < 1.0:
            digest = hashlib.sha256(
                ("%d|%s|%s" % (self.seed, site, key)).encode()
            ).digest()
            draw = int.from_bytes(digest[:8], "big") >> (64 - _HASH_BITS)
            if draw / float(1 << _HASH_BITS) >= rate:
                return False
        with self._lock:
            self.injected[site] = self.injected.get(site, 0) + 1
        return True

    def next_key(self, site: str, scope: str = "") -> str:
        """A per-process monotone key for sites without a natural one.

        Call sites that *do* have a natural identity (spec index,
        attempt number, per-core read index) should pass it to
        :meth:`fires` directly — that is what makes batch injection
        independent of sharding.
        """
        name = "%s/%s" % (site, scope) if scope else site
        with self._lock:
            count = self._auto_keys.get(name, 0)
            self._auto_keys[name] = count + 1
        return "%s#%d" % (scope, count) if scope else "#%d" % count

    def fraction(self, site: str, key: Union[str, int]) -> float:
        """A deterministic uniform draw in ``[0, 1)`` for parameterizing
        a fault's magnitude (e.g. the wrap margin, the frequency step).
        """
        digest = hashlib.sha256(
            ("%d|%s|%s|param" % (self.seed, site, key)).encode()
        ).digest()
        draw = int.from_bytes(digest[:8], "big") >> (64 - _HASH_BITS)
        return draw / float(1 << _HASH_BITS)

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def __enter__(self) -> "FaultPlan":
        activate(self)
        return self

    def __exit__(self, *exc_info) -> None:
        deactivate(self)

    # Pickling: drop the lock (workers rebuild their own).
    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


# ----------------------------------------------------------------------
# The process-wide active plan
# ----------------------------------------------------------------------
_active: Optional[FaultPlan] = None
_env_checked = False
_env_plan: Optional[FaultPlan] = None


def activate(plan: FaultPlan) -> None:
    """Install *plan* as the process-wide active plan."""
    global _active
    _active = plan


def deactivate(plan: Optional[FaultPlan] = None) -> None:
    """Remove the active plan (if *plan* is given, only if it matches)."""
    global _active
    if plan is None or _active is plan:
        _active = None


def active_plan() -> Optional[FaultPlan]:
    """The currently active plan: explicit activation wins, then env."""
    if _active is not None:
        return _active
    global _env_checked, _env_plan
    if not _env_checked:
        _env_plan = FaultPlan.from_env()
        _env_checked = True
    return _env_plan


def reset_env_cache() -> None:
    """Forget the cached ``REPRO_FAULTS`` parse (for tests)."""
    global _env_checked, _env_plan
    _env_checked = False
    _env_plan = None


def fault_fires(site: str, key: Optional[Union[str, int]] = None,
                scope: str = "") -> bool:
    """Does *site* fire under the active plan?  (False when no plan.)

    With no *key*, a per-process monotone counter is used — only
    appropriate for sites whose effect is fully self-healed (the result
    must not depend on *which* occurrences fire).
    """
    plan = active_plan()
    if plan is None:
        return False
    if key is None:
        key = plan.next_key(site, scope)
    return plan.fires(site, key)
