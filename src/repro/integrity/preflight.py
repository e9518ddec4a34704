"""Pre-flight validation of benchmark code (integrity pillar 1).

Benchmark code is decoded and checked **before** any simulation: every
instruction must have functional semantics, timing information for the
target family (when a timing table is given), the required privilege
level, and resolvable branch targets.  Problems surface as structured
:class:`~repro.errors.ValidationError`\\ s with statement/byte offsets
and mnemonics — not as a mid-run crash deep inside the simulator.

Two raising modes:

* :func:`assert_valid` / :func:`validate_code_bytes` raise a single
  :class:`ValidationError` aggregating **all** issues (the CLI and
  public validation surface).
* :func:`ensure_program_valid` (used by :meth:`NanoBench.run`) raises
  the *same exception type and message the simulator itself would
  raise* for the first issue — :class:`PrivilegeError`,
  :class:`TimingModelError`, :class:`ExecutionError` — just before the
  run instead of in the middle of it, which keeps every existing error
  contract and golden result byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import (
    DecodingError,
    ExecutionError,
    PrivilegeError,
    TimingModelError,
    ValidationError,
)
from ..x86 import semantics
from ..x86.decoder import decode_code
from ..x86.instructions import Program


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found by pre-flight validation.

    ``offset`` is a byte offset when the input was a byte buffer
    (:func:`validate_code_bytes`), otherwise the statement index.
    ``error`` is the exception the simulator itself would have raised
    for this issue (or a :class:`ValidationError` when the runtime
    failure would be unstructured, e.g. a dangling branch target).
    """

    kind: str  # "decode" | "no-timing" | "no-semantics" | "privileged" | "dangling-target"
    index: int
    offset: int
    mnemonic: str
    message: str
    error: Exception

    def describe(self) -> str:
        where = "offset %d" % self.offset
        if self.mnemonic:
            return "%s (%s, %s)" % (self.message, self.mnemonic, where)
        return "%s (%s)" % (self.message, where)


def validate_program(
    program: Program,
    *,
    kernel_mode: bool = True,
    timing_table=None,
    offsets: Optional[Sequence[int]] = None,
) -> List[ValidationIssue]:
    """Collect every validation issue in *program* (empty list = valid).

    Checks mirror the simulator's own failure order per instruction:
    timing lookup first, when *timing_table* is given (``run_program``
    decodes an instruction's timing before executing it), then missing
    semantics, then privilege, then branch-target resolution.  nanoBench
    pseudo-instructions (``PAUSE_COUNTING`` / ``RESUME_COUNTING``) are
    handled directly by the core and are always valid.

    Fuzzer-generated programs carry a ``fuzz_provenance`` tag (seed,
    quota profile, kernel index); issue messages echo it so a rejected
    generated kernel is reproducible from the error alone.
    """
    issues: List[ValidationIssue] = []
    labels = program.labels
    known = set(semantics.supported_mnemonics())
    for index, instr in enumerate(program.instructions):
        offset = offsets[index] if offsets is not None else index
        mnemonic = instr.mnemonic
        if instr.spec.pseudo:
            continue
        if timing_table is not None:
            try:
                timing_table.lookup(instr)
            except TimingModelError as exc:
                issues.append(ValidationIssue(
                    "no-timing", index, offset, mnemonic, str(exc), exc
                ))
                continue
        if mnemonic not in known:
            message = "no semantics for %s" % (mnemonic,)
            issues.append(ValidationIssue(
                "no-semantics", index, offset, mnemonic, message,
                ExecutionError(message),
            ))
            continue
        if instr.spec.privileged and not kernel_mode:
            message = "%s requires kernel mode" % (mnemonic,)
            issues.append(ValidationIssue(
                "privileged", index, offset, mnemonic, message,
                PrivilegeError(message),
            ))
            continue
        if (
            instr.spec.is_branch
            and instr.target is not None
            and instr.target not in labels
        ):
            message = "branch target %r is not a label of the program" % (
                instr.target,
            )
            issues.append(ValidationIssue(
                "dangling-target", index, offset, mnemonic, message,
                ValidationError(message),
            ))
    provenance = program.__dict__.get("fuzz_provenance")
    if issues and provenance:
        issues = [_with_provenance(issue, provenance) for issue in issues]
    return issues


def _with_provenance(issue: ValidationIssue,
                     provenance: str) -> ValidationIssue:
    """Echo a generated kernel's provenance in the issue and its error.

    The error exception is rebuilt with the same type so the
    runtime-equivalence contract of :func:`ensure_program_valid` keeps
    holding (same exception class, message now names the exact
    ``(seed, profile, index)`` that regenerates the kernel).
    """
    message = "%s [%s]" % (issue.message, provenance)
    error = type(issue.error)(message)
    return ValidationIssue(
        issue.kind, issue.index, issue.offset, issue.mnemonic, message, error
    )


def _aggregate_error(what: str, issues: Sequence[ValidationIssue]) -> ValidationError:
    first = issues[0]
    suffix = "" if len(issues) == 1 else " (and %d more issue%s)" % (
        len(issues) - 1, "" if len(issues) == 2 else "s"
    )
    return ValidationError(
        "%s: %s%s" % (what, first.describe(), suffix), issues=issues
    )


def assert_valid(
    program: Program,
    *,
    kernel_mode: bool = True,
    timing_table=None,
    what: str = "benchmark code",
) -> None:
    """Raise a :class:`ValidationError` aggregating all issues, if any."""
    issues = validate_program(
        program, kernel_mode=kernel_mode, timing_table=timing_table,
    )
    if issues:
        raise _aggregate_error(what, issues)


def ensure_program_valid(
    program: Program,
    *,
    kernel_mode: bool = True,
    timing_table=None,
) -> None:
    """Fast-path pre-flight used by :meth:`NanoBench.run`.

    Raises the first issue's *runtime-equivalent* exception (same type,
    same message the simulator would produce mid-run), so enabling the
    integrity layer by default changes **when** a bad benchmark fails,
    never **how**.  Verdicts are memoized on the (cached, shared)
    :class:`Program` object so repeated runs pay one dict lookup.
    """
    family = getattr(timing_table, "family", None)
    key = (kernel_mode, family)
    cache: Dict[Tuple, Optional[ValidationIssue]]
    cache = program.__dict__.setdefault("_preflight_cache", {})
    if key in cache:
        cached = cache[key]
        if cached is not None:
            raise cached.error
        return
    issues = validate_program(
        program, kernel_mode=kernel_mode, timing_table=timing_table,
    )
    cache[key] = issues[0] if issues else None
    if issues:
        raise issues[0].error


def validate_code_bytes(
    data: bytes,
    *,
    kernel_mode: bool = True,
    timing_table=None,
    what: str = "benchmark code",
) -> Program:
    """Decode and validate a byte buffer; returns the decoded program.

    Raises :class:`ValidationError` whose issues carry **byte offsets**
    into *data* — both for undecodable bytes and for decodable
    instructions that fail the semantic checks.
    """
    try:
        program, offsets = decode_code(data)
    except DecodingError as exc:
        issue = ValidationIssue(
            "decode", exc.index, exc.offset, "", str(exc), exc
        )
        raise _aggregate_error(what, [issue])
    issues = validate_program(
        program, kernel_mode=kernel_mode, timing_table=timing_table,
        offsets=offsets,
    )
    if issues:
        raise _aggregate_error(what, issues)
    return program
