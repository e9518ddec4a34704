"""``service-routed``: the benchmark service as the system under test.

A ``nanobench serve`` process (launched by :mod:`serve`) runs with
routing on and quotas off: the default 50 specs/s quota would measure
the limiter, not the program.  Its store lives inside the checkout.
One client submits jobs in a closed loop; each job is the four specs of
one corpus variant.  Three jobs in four resubmit an earlier job of the
run (store reads); the rest use fresh seeds and take the write path:
router, analytic tier (or a simulator tier on escalation or audit),
store put with fsync and journal appends.  One op is submit -> done,
polled every :data:`POLL_SECONDS`.

Each round is one pass over the corpus: every variant once as a fresh
job, with the resubmissions mixed in, and a timed phase ends only at the
end of a round.  The fresh job for variant ``v`` in pass ``p`` always
uses the same spec seed (:func:`fresh_seed`); the run's seed draws the
order of each pass and which earlier jobs are resubmitted.  Every run
of ``k`` passes thus serves the same multiset of fresh specs, so the
same jobs escalate to a simulator tier or are picked for the router's
1-in-64 audit.  With per-run random spec seeds the audit count alone
moved throughput and p95 by 5-15% between runs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, NamedTuple, Optional

from harness import ROOT, SETUP_PROBES, digest, wait_for_line
from instr_sim import UARCH, corpus, corpus_passes

#: Client poll interval while a job runs.  The sleeps are reported as
#: fixed waits, which host-speed calibration leaves unscaled.
POLL_SECONDS = 0.003
#: A job still running after this long fails the run.
JOB_TIMEOUT = 120
#: Resubmitted jobs per fresh job.  About 10% of fresh jobs are slow
#: (a simulator tier serves a spec: escalation or the 1-in-64 audit).
#: At one resubmission per fresh job the median sat on the edge between
#: store reads and fresh writes, and p95 on the edge of the slow jobs,
#: so both jumped between runs (p50 spread 12%).  At three, p50 lies
#: inside the reads and p95 near the 88th percentile of the fresh
#: writes (spread 3%), and the slow jobs show in throughput.
RESUBMIT_RATIO = 3.0
#: Untimed fresh jobs before the timed phase.
WARM_UP_JOBS = 6
#: Passes whose fresh jobs have committed reference digests.
REFERENCE_PASSES = 10
#: Where server state lives (inside the checkout, removed afterwards).
STATE_DIR = ROOT / ".perfbench"


class Job(NamedTuple):
    index: int
    variant: str
    seed: int
    resubmit_of: Optional[int]


def fresh_seed(pass_index: int, variant: str) -> int:
    """Spec seed of *variant*'s fresh job in pass *pass_index*."""
    return int(digest(["fresh", pass_index, variant]), 16) % (1 << 31) + 1


def job_rounds(seed, names: List[str]) -> Iterator[List[Job]]:
    """Endless rounds of jobs, a pure function of *seed*.

    A resubmission repeats a fresh job from an earlier position of the
    same stream, so its four specs are store reads.
    """
    rng = random.Random("service-routed:%s" % seed)
    fresh: List[Job] = []
    index = 0
    for pass_index, order in enumerate(corpus_passes(names, seed)):
        kinds = [False] * len(order) \
            + [True] * round(RESUBMIT_RATIO * len(order))
        rng.shuffle(kinds)
        # A round never opens with a resubmission of nothing.
        kinds.insert(0, kinds.pop(kinds.index(False)))
        picks = iter(order)
        jobs = []
        for resubmit in kinds:
            if resubmit:
                original = rng.choice(fresh)
                job = Job(index, original.variant, original.seed,
                          original.index)
            else:
                name = next(picks)
                job = Job(index, name, fresh_seed(pass_index, name), None)
                fresh.append(job)
            jobs.append(job)
            index += 1
        yield jobs


class Server:
    """One launched server process and its readiness timing."""

    def __init__(self, state: str, trace: bool = False) -> None:
        os.makedirs(state, exist_ok=True)
        self.state = state
        self.stats_path = os.path.join(state, "server-stats.json")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve.py"),
             "--stats", self.stats_path] + (["--trace"] if trace else [])
            + ["--", "-store", os.path.join(state, "store"), "-port", "0",
               "-quota", "0"],
            cwd=str(ROOT), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        line = wait_for_line(self.proc, self.proc.stderr, "serving on")
        self.ready_seconds = time.perf_counter() - started
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        # Keep reading stderr so the server never blocks on a full pipe.
        self._tail = deque(maxlen=50)
        self._reader = threading.Thread(target=self._drain_stderr,
                                        daemon=True)
        self._reader.start()

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self._tail.append(line)

    def stop(self) -> dict:
        """SIGTERM (drain), wait, and return the launcher's stats."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stderr.close()
        try:
            with open(self.stats_path, encoding="utf-8") as handle:
                stats = json.load(handle)
        except (OSError, ValueError):
            raise RuntimeError("server left no stats: %s"
                               % "".join(self._tail))
        shutil.rmtree(self.state, ignore_errors=True)
        return stats


class ServiceRouted:
    name = "service-routed"
    in_process = False

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.reference = reference.get(self.name, {})
        self.root = str(STATE_DIR / ("run-%d" % os.getpid()))
        self.server: Optional[Server] = None
        self._spawned = 0

    # ------------------------------------------------------------------
    def _spawn(self, trace: bool = False) -> Server:
        self._spawned += 1
        return Server(os.path.join(self.root, "server-%d" % self._spawned),
                      trace=trace)

    def measure_setup(self, calibrator):
        """Server spawn -> "serving on": one untimed warm-up spawn, then
        the median of several in reference-speed seconds (raw samples
        returned too); the last server stays up for the run."""
        reference, raw = [], []
        for attempt in range(SETUP_PROBES + 1):
            before = calibrator.sample()
            server = self._spawn()
            scale = calibrator.scale(before, calibrator.sample())
            if attempt:
                reference.append(server.ready_seconds * scale)
                raw.append(server.ready_seconds)
            if attempt < SETUP_PROBES:
                server.stop()
        self.server = server
        return statistics.median(reference), raw

    def setup(self) -> None:
        from repro.server import ServerClient
        from repro.tools.instr.measure import variant_specs

        self._client_cls = ServerClient
        self._variant_specs = variant_specs
        self.variants = {v.name: v for v in corpus()}

    def config(self) -> Dict[str, object]:
        return {"uarch": UARCH, "poll_seconds": POLL_SECONDS,
                "resubmit_share": RESUBMIT_RATIO / (1 + RESUBMIT_RATIO),
                "routing": True, "quota": None,
                "store_dir": os.path.relpath(self.root, str(ROOT)),
                "store_fs": "checkout directory (nothing is written "
                            "outside the checkout)"}

    # ------------------------------------------------------------------
    def specs(self, job: Job):
        return self._variant_specs(self.variants[job.variant], UARCH,
                                   seed=job.seed)

    def _run(self, jobs: List[Job]) -> Iterator[tuple]:
        client = self._client_cls(port=self.server.port, client="bench")
        clock = time.perf_counter
        for job in jobs:
            started = clock()
            accepted = client.submit(self.specs(job))
            submitted = clock() - started
            polls = 0
            while True:
                payload = client.job(accepted["job_id"])
                if payload["state"] == "done":
                    break
                if clock() - started > JOB_TIMEOUT:
                    raise RuntimeError("job %s not done after %d s"
                                       % (accepted["job_id"], JOB_TIMEOUT))
                time.sleep(POLL_SECONDS)
                polls += 1
            yield (job, submitted, [
                (o["digest"], o["ok"], o["served_by"], o["from_store"],
                 o["values"]) for o in payload["outcomes"]],
                polls * POLL_SECONDS)

    def reset(self) -> None:
        """Nothing to reset: the server keeps its own state."""

    def warm_up(self) -> Iterator[tuple]:
        names = sorted(self.variants)[:WARM_UP_JOBS]
        return self._run([Job(-1 - i, name, fresh_seed(-1, name), None)
                          for i, name in enumerate(names)])

    def rounds(self) -> Iterator[Iterator[tuple]]:
        for jobs in job_rounds(self.seed, sorted(self.variants)):
            yield self._run(jobs)

    def router_audits(self) -> int:
        stats = self._client_cls(port=self.server.port).stats()
        return int(stats.get("router", {}).get("audits", 0))

    # ------------------------------------------------------------------
    def restart(self, trace: bool) -> None:
        """Replace the server with a fresh one (empty store)."""
        self.server.stop()
        self.server = self._spawn(trace=trace)

    def stop(self) -> dict:
        """Stop the server, remove all state; returns the server's stats."""
        stats = self.server.stop()
        self.server = None
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            STATE_DIR.rmdir()
        except OSError:
            pass  # another run's state is still there
        return stats

    # ------------------------------------------------------------------
    @staticmethod
    def wait_of(output) -> float:
        return output[3]

    @staticmethod
    def output_key(output) -> tuple:
        job, _submitted, outcomes, _waited = output
        return job, [(o[0], o[4]) for o in outcomes]

    def check(self, outputs, shipped: bool = True) -> Dict[str, int]:
        """Every spec answered without error; every store hit equal to
        the first answer for its digest; every fresh job equal to the
        committed digest for its (variant, seed), which covers the
        first :data:`REFERENCE_PASSES` passes of any run seed."""
        expected = self.reference.get("fresh", {})
        first: Dict[str, object] = {}
        failed = unchecked = 0
        for job, _submitted, outcomes, _waited in outputs:
            wrong = len(outcomes) != 4
            for spec_digest, ok, _served_by, from_store, values in outcomes:
                if not ok or not values:
                    wrong = True
                    continue
                if spec_digest in first:
                    wrong |= first[spec_digest] != values
                elif from_store:
                    # A hit must repeat an answer this run produced.
                    wrong = True
                else:
                    first[spec_digest] = values
            if job.resubmit_of is None:
                want = expected.get(fresh_key(job.variant, job.seed))
                if want is None:
                    unchecked += 1
                elif want != job_digest(outcomes):
                    wrong = True
            failed += wrong
        return {"failed": failed, "unchecked": unchecked}

    @staticmethod
    def per_op_counts(outputs) -> Dict[str, float]:
        n = max(1, len(outputs))
        served = [o[2] for _, _, outcomes, _ in outputs for o in outcomes]
        total = max(1, len(served))
        return {
            "server.submit_ms": 1000.0 * sum(o[1] for o in outputs) / n,
            "store.hit_ratio": served.count("store") / total,
            "router.analytic_share": served.count("analytic") / total,
            "router.sim_share": (served.count("sim")
                                 + served.count("sim-exact")) / total,
        }


def job_digest(outcomes) -> str:
    return digest([o[4] for o in outcomes])[:8]


def fresh_key(variant: str, seed: int) -> str:
    return "%s|%d" % (variant, seed)
