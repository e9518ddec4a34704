"""Branch-predictor characterization (Section VIII future work).

Uses nanoBench to measure misprediction rates of a conditional branch
driven by an arbitrary direction pattern, and infers the width of the
per-site saturating counter from the rates.

The benchmark walks a direction array through RSI (one byte per
dynamic branch) and conditionally jumps on it::

    pattern_loop body (loop_count = len(pattern) * repetitions):
        mov  AL, [RSI]        ; next direction
        add  RSI, 1
        test AL, AL
        jz   taken_path       ; taken when the byte is 0
        nop
    taken_path:

Because the branch sits at a fixed program location, every execution
trains the same predictor entry — exactly how hardware BTB/PHT
experiments are set up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..backends import require_sim
from ..core.codegen import RSI_AREA_BASE
from ..core.nanobench import NanoBench
from ..errors import AnalysisError

_BENCHMARK = (
    "mov AL, [RSI]; "
    "add RSI, 1; "
    "test AL, AL; "
    "jz bp_taken; "
    "nop; "
    "bp_taken: nop"
)


def _write_pattern(nb: NanoBench, directions: Sequence[bool]) -> None:
    """Write the direction bytes (0 = taken) into the RSI area."""
    core = nb.core
    for i, taken in enumerate(directions):
        core.write_memory(RSI_AREA_BASE + i, 1, 0 if taken else 1)


def parse_pattern(pattern: str) -> List[bool]:
    """Parse a ``"TTN"``-style direction pattern."""
    directions = []
    for ch in pattern.upper():
        if ch == "T":
            directions.append(True)
        elif ch == "N":
            directions.append(False)
        else:
            raise AnalysisError("pattern must consist of T/N, got %r" % ch)
    if not directions:
        raise AnalysisError("empty branch pattern")
    return directions


def measure_pattern(nb: NanoBench, pattern: str,
                    repetitions: int = 64) -> float:
    """Misprediction rate of the pattern branch (steady state).

    The surrounding loop contributes its own, perfectly predicted
    branch (plus one exit mispredict), which is subtracted.
    """
    require_sim(nb, "the branch-predictor sweep writes its direction "
                    "pattern into the machine's memory")
    directions = parse_pattern(pattern) * repetitions
    if len(directions) > (1 << 20):
        raise AnalysisError(
            "pattern too long for the RSI scratch area: %d directions"
            % len(directions)
        )
    _write_pattern(nb, directions)
    total = len(directions)
    result = nb.run(
        asm=_BENCHMARK,
        asm_init="mov RSI, %d" % RSI_AREA_BASE,
        events=["BR_INST_RETIRED.ALL_BRANCHES",
                "BR_MISP_RETIRED.ALL_BRANCHES"],
        unroll_count=1,
        loop_count=total,
        n_measurements=3,
        warm_up_count=1,
        aggregate="med",
    )
    # Per loop iteration: 1 pattern branch + 1 loop branch.  The loop
    # branch mispredicts once (at exit); the pattern branch's steady-
    # state rate is what remains.
    mispredicts = result["BR_MISP_RETIRED.ALL_BRANCHES"] * total
    loop_exit = 1.0
    rate = max(0.0, (mispredicts - loop_exit) / total)
    return min(1.0, rate)


# ----------------------------------------------------------------------
# Reference predictor models
# ----------------------------------------------------------------------

def simulate_counter_predictor(bits: int,
                               directions: Sequence[bool]) -> float:
    """Misprediction rate of a k-bit saturating counter on a pattern,
    starting weakly taken."""
    maximum = (1 << bits) - 1
    threshold = 1 << (bits - 1)
    state = threshold
    mispredicts = 0
    for taken in directions:
        predicted = state >= threshold
        if predicted != taken:
            mispredicts += 1
        state = min(maximum, state + 1) if taken else max(0, state - 1)
    return mispredicts / len(directions)


@dataclass
class PredictorProfile:
    """Inference result: rates per pattern + the best counter model."""

    measured: Dict[str, float]
    model_rates: Dict[int, Dict[str, float]]
    inferred_bits: Optional[int]


#: Patterns whose steady-state rates separate counter widths.
DISTINGUISHING_PATTERNS = ("T", "N", "TN", "TTN", "TTTN", "TTNN", "TTTTTTN")
#: Counter widths the fit chooses among.
CANDIDATE_BITS = (1, 2, 3)
#: Largest per-pattern rate error of an accepted fit.
FIT_TOLERANCE = 0.05


def characterize_predictor(nb: NanoBench,
                           repetitions: int = 64) -> PredictorProfile:
    """Measure the distinguishing patterns and fit a k-bit-counter
    model."""
    patterns = DISTINGUISHING_PATTERNS
    measured = {
        pattern: measure_pattern(nb, pattern, repetitions)
        for pattern in patterns
    }
    model_rates: Dict[int, Dict[str, float]] = {}
    for bits in CANDIDATE_BITS:
        model_rates[bits] = {
            pattern: simulate_counter_predictor(
                bits, parse_pattern(pattern) * repetitions
            )
            for pattern in patterns
        }
    inferred = None
    best_error = None
    for bits, rates in model_rates.items():
        error = max(
            abs(rates[p] - measured[p]) for p in patterns
        )
        if best_error is None or error < best_error:
            best_error = error
            inferred = bits
    if best_error is None or best_error > FIT_TOLERANCE:
        inferred = None
    return PredictorProfile(
        measured=measured, model_rates=model_rates, inferred_bits=inferred
    )
