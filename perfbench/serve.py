"""Launch ``nanobench serve`` for the ``service-routed`` workload.

Usage::

    python3 perfbench/serve.py --stats FILE [--trace] -- <serve arguments>

Runs the unmodified ``nanobench serve`` entry point in this process.
With ``--trace`` it first wraps the layer functions (:mod:`tracer`) and
measures each job's queue wait (admitted -> running) from the journal
records.  ``SIGUSR1`` zeroes the span totals, so the client can exclude
its warm-up jobs.  When the server has drained, the span totals and
the process's peak RSS are written to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import LAYER_FUNCTIONS, Tracer  # noqa: E402

JOURNAL_APPEND = ("server.journal_append", "repro.server.jobs",
                  "JobJournal.append")


def install_queue_wait(tracer: Tracer) -> None:
    """Record admitted -> running per job, from ``JobJournal.append``.

    The queue stamps ``Job.created_ts`` with ``time.monotonic`` (no
    quota policy supplies another clock), so the wait is measured when
    the worker journals the job as running.
    """
    from repro.server import jobs

    original = jobs.JobJournal.append
    traced = tracer.wrap("server.journal_append", original)

    def append(self, job, ts=None):
        if job.state == jobs.RUNNING:
            tracer.record("queue.wait", time.monotonic() - job.created_ts)
        return traced(self, job, ts)

    jobs.JobJournal.append = append


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]

    from repro.core.cli import run_serve

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install([f for f in LAYER_FUNCTIONS if f != JOURNAL_APPEND])
        install_queue_wait(tracer)
        signal.signal(signal.SIGUSR1, lambda *_: tracer.reset())
    else:
        signal.signal(signal.SIGUSR1, signal.SIG_IGN)
    code = run_serve(serve_args)
    stats = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.totals() if tracer is not None else None,
    }
    tmp = args.stats + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    os.replace(tmp, args.stats)
    return code


if __name__ == "__main__":
    sys.exit(main())
