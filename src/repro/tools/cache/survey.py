"""Full replacement-policy survey of one CPU (the Table I workflow).

Combines the two identification tools the way Section VI-D does:

* L1/L2 (small associativity): permutation-policy inference first —
  its result is matched against the named classics (PLRU/LRU/FIFO);
  when the cache is not a permutation policy (the QLRU L2s of
  Skylake+), fall back to random-sequence identification.
* L3: random-sequence identification.  On the adaptive CPUs
  (Ivy Bridge / Haswell / Broadwell) the dedicated sets are surveyed:
  the deterministic dedicated policy identifies uniquely; the
  probabilistic one defeats deterministic identification (no surviving
  candidate), which is reported as non-deterministic — the cue to use
  age graphs (Section VI-C2).
"""

from __future__ import annotations

import hashlib
import random
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...batch import ResilientPool, default_jobs
from ...core.nanobench import NanoBench
from ...errors import AnalysisError
from ...memory.replacement import AdaptivePolicy
from .addresses import disable_prefetchers
from .cacheseq import CacheSeq
from .permutation_infer import PermutationInference, match_known_policy
from .policy_id import PolicyIdentifier


@dataclass
class LevelSurvey:
    """Survey result of one cache level."""

    level: int
    size_bytes: int
    associativity: int
    policy: Optional[str]  # canonical identified policy, or None
    survivors: Tuple[str, ...] = ()
    method: str = ""
    note: str = ""

    @property
    def display_policy(self) -> str:
        if self.policy is not None:
            return self.policy
        return self.note or "?"


@dataclass
class CpuSurvey:
    """Survey of a whole CPU (one Table I row)."""

    uarch: str
    cpu_model: str
    levels: Dict[int, LevelSurvey] = field(default_factory=dict)


def _survey_small_cache(cacheseq: CacheSeq, set_index: int,
                        seed: int) -> LevelSurvey:
    """L1/L2 workflow: permutation inference, then identification."""
    cache = cacheseq.addresses.cache(cacheseq.level)
    geometry = cache.geometry
    survey = LevelSurvey(
        level=cacheseq.level,
        size_bytes=geometry.size_bytes,
        associativity=geometry.associativity,
        policy=None,
    )
    if geometry.associativity <= 8:
        try:
            inference = PermutationInference(
                cacheseq, set_index=set_index, rng=random.Random(seed)
            )
            spec = inference.infer()
            name = match_known_policy(spec)
            survey.method = "permutation inference"
            if name is not None:
                survey.policy = name
            else:
                survey.note = "permutation policy (unnamed)"
            return survey
        except AnalysisError:
            pass  # not a permutation policy
    identifier = PolicyIdentifier(
        cacheseq, set_index=set_index, rng=random.Random(seed + 1)
    )
    result = identifier.identify(60)
    survey.method = "random-sequence identification"
    survey.survivors = result.survivors
    if result.survivors and result.equivalent:
        survey.policy = result.policy
    elif not result.survivors:
        survey.note = "non-deterministic"
    else:
        survey.note = "ambiguous: %s" % (result.survivors,)
    return survey


def _survey_l3(cacheseq: CacheSeq, nb: NanoBench, seed: int) -> LevelSurvey:
    cache = cacheseq.addresses.cache(3)
    geometry = cache.geometry
    survey = LevelSurvey(
        level=3, size_bytes=geometry.size_bytes,
        associativity=geometry.associativity, policy=None,
        method="random-sequence identification",
    )
    policy = cache.policy
    if isinstance(policy, AdaptivePolicy):
        # Survey one dedicated set per side (found by E9's scanner in
        # the full pipeline; here the spec's layout gives the location).
        notes = []
        for side, ranges in (("A", policy.config.dedicated_a),
                             ("B", policy.config.dedicated_b)):
            dedicated = ranges[0]
            slice_id = (dedicated.slices[0]
                        if dedicated.slices is not None else 0)
            identifier = PolicyIdentifier(
                cacheseq, set_index=dedicated.first_set,
                slice_id=slice_id, rng=random.Random(seed),
            )
            result = identifier.identify(50)
            if result.survivors and result.equivalent:
                notes.append("sets %d-%d: %s" % (
                    dedicated.first_set, dedicated.last_set, result.policy
                ))
            elif not result.survivors:
                notes.append("sets %d-%d: non-deterministic" % (
                    dedicated.first_set, dedicated.last_set
                ))
            else:
                notes.append("sets %d-%d: ambiguous" % (
                    dedicated.first_set, dedicated.last_set
                ))
        survey.note = "adaptive (set dueling); " + "; ".join(notes)
        return survey
    identifier = PolicyIdentifier(
        cacheseq, set_index=100, slice_id=0, rng=random.Random(seed)
    )
    result = identifier.identify(60)
    survey.survivors = result.survivors
    if result.survivors and result.equivalent:
        survey.policy = result.policy
    elif not result.survivors:
        survey.note = "non-deterministic"
    else:
        survey.note = "ambiguous: %s" % (result.survivors,)
    return survey


def survey_cpu(uarch: str, seed: int = 0,
               buffer_mb: int = 128) -> CpuSurvey:
    """Determine the replacement policies of all cache levels.

    This is the end-to-end Table I pipeline for one CPU: a kernel-space
    nanoBench instance with a physically-contiguous buffer, prefetchers
    disabled (Section IV-A2), and the inference tools on top.  Raises
    :class:`AnalysisError` when the prefetchers cannot be disabled (the
    AMD situation of Section VI-D).
    """
    nb = NanoBench.create(uarch, seed=seed, kernel_mode=True)
    if not disable_prefetchers(nb.core):
        raise AnalysisError(
            "cannot disable the hardware prefetchers on %s; the cache "
            "microbenchmarks would be perturbed (Section VI-D)" % (uarch,)
        )
    nb.core.timing_enabled = False  # fast functional mode for big sweeps
    nb.resize_r14_buffer(buffer_mb << 20)
    survey = CpuSurvey(uarch=nb.core.spec.name,
                       cpu_model=nb.core.spec.cpu_model)
    survey.levels[1] = _survey_small_cache(
        CacheSeq(nb, level=1), set_index=5, seed=seed
    )
    survey.levels[2] = _survey_small_cache(
        CacheSeq(nb, level=2), set_index=17, seed=seed
    )
    survey.levels[3] = _survey_l3(CacheSeq(nb, level=3), nb, seed=seed)
    return survey


def _survey_one(task: Tuple[str, int, int]) -> CpuSurvey:
    uarch, seed, buffer_mb = task
    return survey_cpu(uarch, seed=seed, buffer_mb=buffer_mb)


#: Bumped whenever the survey algorithm or record layout changes, so a
#: stored survey from an older pipeline is never replayed as current.
_SURVEY_RECORD_VERSION = 1


def _survey_digest(uarch: str, seed: int, buffer_mb: int) -> str:
    """Content digest of one whole-CPU survey task (the store key).
    The identity keeps the slots of the survey's former stability
    setting (always ``None``) and backend (always ``"sim"``), so every
    stored survey stays a hit."""
    identity = repr(("cpu-survey", _SURVEY_RECORD_VERSION, uarch, seed,
                     buffer_mb, None, "sim"))
    return hashlib.sha256(identity.encode()).hexdigest()


def survey_to_record(survey: CpuSurvey) -> dict:
    """Serialize a survey for the durable result store."""
    return {
        "kind": "cpu-survey",
        "survey_v": _SURVEY_RECORD_VERSION,
        "uarch": survey.uarch,
        "cpu_model": survey.cpu_model,
        "levels": {
            str(level): {
                "level": ls.level,
                "size_bytes": ls.size_bytes,
                "associativity": ls.associativity,
                "policy": ls.policy,
                "survivors": list(ls.survivors),
                "method": ls.method,
                "note": ls.note,
            }
            for level, ls in survey.levels.items()
        },
    }


def survey_from_record(record: dict) -> CpuSurvey:
    """Rebuild the :class:`CpuSurvey` a store record describes (the
    ``quality`` key of older records, always ``None``, is ignored)."""
    survey = CpuSurvey(uarch=record["uarch"], cpu_model=record["cpu_model"])
    for key, fields in record.get("levels", {}).items():
        survey.levels[int(key)] = LevelSurvey(
            level=fields["level"],
            size_bytes=fields["size_bytes"],
            associativity=fields["associativity"],
            policy=fields["policy"],
            survivors=tuple(fields.get("survivors", ())),
            method=fields.get("method", ""),
            note=fields.get("note", ""),
        )
    return survey


def survey_cpus(
    uarchs: Sequence[str],
    seed: int = 0,
    buffer_mb: int = 128,
    jobs: Optional[int] = 1,
    progress: Optional[Callable[[int, int, object], None]] = None,
    store=None,
) -> Dict[str, CpuSurvey]:
    """Survey several CPUs, optionally sharded across worker processes.

    Each :func:`survey_cpu` call is self-contained (its own simulated
    CPU, its own seeded RNGs), so the sharded run is bit-identical to
    the serial one.  This is the multi-uarch Table I sweep the batched
    E7 driver uses.

    A CPU whose survey fails (e.g. AMD's undisableable prefetchers,
    Section VI-D) is reported with a warning and omitted from the
    returned mapping instead of aborting the whole multi-CPU sweep.

    With *store* (a :class:`repro.store.ResultStore` or its path),
    completed surveys are durably cached content-addressed by their
    full task identity — resubmitting a surveyed CPU answers from the
    store without running a single measurement.
    """
    resolved_store = None
    owns_store = False
    if store is not None:
        from ...store import ResultStore, open_store

        resolved_store = open_store(store)
        owns_store = not isinstance(store, ResultStore)
    try:
        surveys: Dict[str, CpuSurvey] = {}
        pending: List[str] = []
        for uarch in uarchs:
            if resolved_store is None:
                pending.append(uarch)
                continue
            record = resolved_store.get(
                _survey_digest(uarch, seed, buffer_mb)
            )
            if record is not None:
                surveys[uarch] = survey_from_record(record)
            else:
                pending.append(uarch)
        pool = ResilientPool(
            _survey_one, default_jobs() if jobs is None else max(1, jobs)
        )
        outcomes = pool.imap_ordered(
            [(uarch, seed, buffer_mb) for uarch in pending]
        )
        for done, outcome in enumerate(outcomes, 1):
            uarch = pending[outcome.index]
            if progress is not None:
                progress(done, len(pending), outcome)
            if outcome.ok:
                surveys[uarch] = outcome.value
                if resolved_store is not None:
                    # Only successful surveys are cached; a failed CPU is
                    # retried on the next submission.
                    resolved_store.put(
                        _survey_digest(uarch, seed, buffer_mb),
                        survey_to_record(outcome.value),
                    )
            else:
                warnings.warn(
                    "survey of %s failed (%s: %s); omitting it from the "
                    "sweep" % (uarch, outcome.error_type, outcome.error)
                )
        # Preserve the caller's uarch order regardless of hit/miss split.
        return {uarch: surveys[uarch] for uarch in uarchs
                if uarch in surveys}
    finally:
        if owns_store and resolved_store is not None:
            resolved_store.close()
