"""Workload-independent parts of the benchmark: the closed-loop timer,
the percentile rule, output digests, set-up probes and the run record.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Repository checkout root (the benchmark runs from there).
ROOT = Path(__file__).resolve().parent.parent

#: Committed reference outputs (see ``make_reference.py``).
REFERENCE_PATH = Path(__file__).resolve().parent / "data" / "reference.json"

#: No percentile is reported from fewer ops, so at least ten samples lie
#: beyond the 95th percentile.
MIN_OPS = 200

#: A timed phase stops extending for ``MIN_OPS`` after this long, so one
#: invocation stays well inside its three-minute limit.
MAX_PHASE_SECONDS = 75.0

#: Set-up is timed this many times per run (after one untimed warm-up
#: invocation that compiles bytecode) and reported as the median.
SETUP_PROBES = 5


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank *q*-th percentile, refused below :data:`MIN_OPS`.

    Nearest rank returns a measured value (no interpolation), and the
    refusal keeps a tail percentile from resting on a handful of ops.
    """
    ordered = sorted(values)
    if len(ordered) < MIN_OPS:
        raise ValueError(
            "percentile needs at least %d ops, got %d" % (MIN_OPS, len(ordered))
        )
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def digest(obj) -> str:
    """Short content digest of a JSON-able output (floats kept exact)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------
#: Seconds the calibration kernel takes at the reference host speed.
#: Every reported time is scaled to that speed (see :class:`Calibrator`).
REFERENCE_KERNEL_SECONDS = 0.0015

#: A calibration sample is taken after this many seconds of ops.
CALIBRATION_INTERVAL = 0.2


def pin_to_one_cpu() -> int:
    """Pin this process (and every child it spawns) to one CPU.

    On a shared host each CPU speeds up and slows down on its own, so
    the calibration kernel must run where the measured work runs.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Calibrator:
    """Tracks the host's speed with a fixed kernel that is not the program.

    On a shared host the same instructions run up to 1.7x slower for
    seconds at a time.  The kernel (JSON decoding, regex search, sorting
    and string formatting of fixed data) does not touch the program, so
    its run time measures only the host: a time measured while the
    kernel took ``k`` seconds is reported as ``time * R / k`` with
    ``R = REFERENCE_KERNEL_SECONDS``, i.e. in seconds at a fixed
    reference speed.  A change to the program moves the reported time
    exactly as much as the raw one.  Of the kernels tried, this mix
    tracked the simulator's own slow-downs most closely (1% residual
    against 10% raw variation).
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        rows = [{"k%d" % i: [rng.random() for _ in range(5)],
                 "s": "abc%d" % i} for i in range(300)]
        self._text = json.dumps(rows)
        self._pattern = re.compile(r'"k(\d+)"')
        self._words = ["w%d" % rng.randrange(10000) for _ in range(3000)]
        self.samples: List[float] = []

    def _kernel(self) -> int:
        rows = json.loads(self._text)
        keys = self._pattern.findall(self._text)
        words = sorted(self._words)
        text = "".join("%s:%d;" % (w, i) for i, w in enumerate(words[:1000]))
        return len(rows) + len(keys) + len(text)

    def sample(self) -> float:
        """Seconds of one kernel run: the faster of two back-to-back
        runs (the first refills CPU caches the measured op evicted),
        with the garbage collector off (a collection would measure the
        program's heap, not the host)."""
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(2):
                started = time.perf_counter()
                self._kernel()
                runs.append(time.perf_counter() - started)
        finally:
            if gc_was_enabled:
                gc.enable()
        seconds = min(runs)
        self.samples.append(seconds)
        return seconds

    def scale(self, before: float, after: float) -> float:
        """Factor turning a time measured between two samples into
        reference-speed time."""
        return REFERENCE_KERNEL_SECONDS / ((before + after) / 2.0)

    def timed(self, fn: Callable[[], object]) -> Tuple[float, float, object]:
        """``(reference seconds, raw seconds, result)`` of one call."""
        before = self.sample()
        started = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - started
        return raw * self.scale(before, self.sample()), raw, result


# ----------------------------------------------------------------------
# The timed phase
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Per-op latencies and outputs of one timed phase.

    ``latencies`` are raw seconds, of which ``waits`` are fixed sleeps
    (a client's poll interval); ``scales`` turn the rest into
    reference-speed seconds (:class:`Calibrator`).
    """

    latencies: List[float] = field(default_factory=list)
    waits: List[float] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    outputs: List[object] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def reference_latencies(self) -> List[float]:
        return [wait + (raw - wait) * scale for raw, wait, scale
                in zip(self.latencies, self.waits, self.scales)]

    def end_to_end(self, raw: bool = False) -> Dict[str, float]:
        """Throughput over op time and latency percentiles, in
        reference-speed time (or *raw* seconds)."""
        latencies = self.latencies if raw else self.reference_latencies
        return {
            "throughput_ops_s": self.ops / sum(latencies),
            "latency_p50_ms": 1000.0 * percentile(latencies, 50),
            "latency_p95_ms": 1000.0 * percentile(latencies, 95),
        }


def run_phase(rounds: Iterator[Iterator[object]], calibrator: Calibrator, *,
              seconds: Optional[float] = None,
              n_ops: Optional[int] = None,
              wait_of: Callable[[object], float] = lambda output: 0.0,
              ) -> Phase:
    """Drive a closed loop over *rounds* of ops and time every op.

    Each round is an iterator that performs one op per ``next`` and
    returns its output, so an op's latency is the gap between two
    results.  Between ops, every :data:`CALIBRATION_INTERVAL` seconds,
    the host speed is sampled; each op, less the fixed sleeps
    ``wait_of(output)`` reports, is scaled by the samples on either side
    of it.  The phase ends after *n_ops* ops, or at the end
    of the first round by which the ops took *seconds* of
    reference-speed time and at least :data:`MIN_OPS` ops completed.
    """
    phase = Phase()
    clock = time.perf_counter
    started = clock()
    samples = [calibrator.sample()]
    sample_of_op: List[int] = []
    since_sample = 0.0
    reference_elapsed = 0.0
    done = False
    for ops in rounds:
        try:
            while not done:
                op_started = clock()
                try:
                    output = next(ops)
                except StopIteration:
                    break
                latency = clock() - op_started
                wait = wait_of(output)
                phase.latencies.append(latency)
                phase.waits.append(wait)
                phase.outputs.append(output)
                sample_of_op.append(len(samples) - 1)
                reference_elapsed += wait + (latency - wait) \
                    * REFERENCE_KERNEL_SECONDS / samples[-1]
                since_sample += latency
                if since_sample >= CALIBRATION_INTERVAL:
                    samples.append(calibrator.sample())
                    since_sample = 0.0
                done = (n_ops is not None and phase.ops >= n_ops) \
                    or clock() - started >= MAX_PHASE_SECONDS
        finally:
            close = getattr(ops, "close", None)
            if close is not None:
                close()
        if n_ops is None and reference_elapsed >= seconds \
                and phase.ops >= MIN_OPS:
            done = True
        if done:
            break
    samples.append(calibrator.sample())
    phase.scales = [calibrator.scale(samples[k], samples[k + 1])
                    for k in sample_of_op]
    return phase


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def wait_for_line(proc: subprocess.Popen, stream, marker: str,
                  timeout: float = 60.0) -> str:
    """Read *stream* until a line containing *marker*; returns it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = stream.readline()
        if not line:
            break
        if marker in line:
            return line
    proc.kill()
    proc.wait()
    raise RuntimeError("process %d never printed %r" % (proc.pid, marker))


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh ``run.py --setup-probe`` process to
    its ``ready`` line: interpreter start, imports and the workload's
    own set-up, exactly as a measuring run performs them."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--setup-probe"],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        wait_for_line(proc, proc.stdout, "ready")
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait(timeout=30)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe exited with %d" % proc.returncode)
    return elapsed


class InProcessWorkload:
    """A workload whose ops run in the benchmark process itself."""

    name = ""
    in_process = True

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.reference = reference.get(self.name, {})

    def measure_setup(self, calibrator: Calibrator):
        """One untimed warm-up probe, then the median of
        :data:`SETUP_PROBES` probes in reference-speed seconds; also
        returns the raw samples."""
        probe = lambda: probe_setup(self.name, self.seed)  # noqa: E731
        probe()
        reference, raw = [], []
        for _ in range(SETUP_PROBES):
            scaled, seconds, _ = calibrator.timed(probe)
            reference.append(scaled)
            raw.append(seconds)
        return statistics.median(reference), raw

    def reset(self) -> None:
        """Drop state that would make a repeated phase warmer."""

    @staticmethod
    def wait_of(output) -> float:
        return 0.0


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
def git_sha() -> str:
    """The checkout's commit, read from ``.git`` when it is a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_record(workload: str, seed: int, trace: bool,
               config: Dict[str, object]) -> Dict[str, object]:
    """The reproducibility fields printed before the result line."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "config": config,
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}
