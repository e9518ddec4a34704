"""Command-line interface mirroring ``nanoBench.sh`` (Section III-E).

Example (the paper's Section III-A call)::

    nanobench -asm "mov R14, [R14]" -asm_init "mov [R14], R14" \\
              -config cfg_Skylake.txt -uarch Skylake -kernel

Batch mode runs many benchmarks from a file, sharded over worker
processes (``-jobs``)::

    nanobench -batch benchmarks.txt -jobs 4 -uarch Skylake

where each non-comment line of the file is ``asm`` or
``asm | asm_init``.

A configuration file can be checked without running anything::

    nanobench validate-config cfg_Skylake.txt -uarch Skylake

Measurements run on one of three backends (``-backend analytic``
answers latency/throughput questions from the port model without
per-cycle simulation, ``-backend auto`` routes between the two);
``nanobench backends`` lists them and what the analytic one cannot answer.

The differential fuzzer cross-checks every backend pair on generated
adversarial kernels and pins any disagreement::

    nanobench fuzz -seed 0 -budget 200 -profile default -corpus out.jsonl

Batch results can persist in a durable, crash-safe, content-addressed
store (``-store DIR``); the ``store`` subcommand maintains it offline::

    nanobench -batch benchmarks.txt -store results.store
    nanobench store stats results.store

The same store can back a long-lived benchmark server — multi-tenant
job queue, per-client quotas, crash-safe journal, graceful drain —
with a submission client on the other side::

    nanobench serve -store results.store -port 8431
    nanobench submit -port 8431 -batch benchmarks.txt -client alice
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import warnings
from typing import Iterator, List, Optional, Tuple

from ..errors import ConfigError, DecodingError, NanoBenchError, ReproError
from ..faults.plan import FaultPlan
from ..perfctr.config import (
    example_skylake_config,
    parse_config_file,
    scan_config,
)
from ..perfctr.events import event_catalog
from ..uarch.specs import get_spec
from ..x86.decoder import decode_program
from ..x86.instructions import Program
from .nanobench import NanoBench
from .options import NanoBenchOptions
from .output import format_results

#: Escalation cap of ``-stability`` when ``-max_n_measurements`` is absent.
DEFAULT_MAX_N_MEASUREMENTS = 80


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanobench",
        description="nanoBench (simulated): run microbenchmarks with "
                    "hardware performance counters",
    )
    parser.add_argument("-asm", default="", help="benchmark code (Intel syntax)")
    parser.add_argument("-asm_init", default="",
                        help="initialization code (Intel syntax)")
    parser.add_argument("-code", default=None,
                        help="binary file with encoded benchmark code")
    parser.add_argument("-code_init", default=None,
                        help="binary file with encoded init code")
    parser.add_argument("-config", default=None,
                        help="performance-counter configuration file")
    parser.add_argument("-uarch", default="Skylake",
                        help="simulated microarchitecture (default Skylake)")
    parser.add_argument("-backend", default="sim", metavar="NAME",
                        help="measurement backend (default 'sim', the "
                             "cycle-accurate core; 'analytic' estimates "
                             "from the port model — see 'nanobench "
                             "backends' for the full list)")
    parser.add_argument("-kernel", action="store_true", default=True,
                        help="use the kernel-space variant (default)")
    parser.add_argument("-user", dest="kernel", action="store_false",
                        help="use the user-space variant")
    parser.add_argument("-unroll_count", type=int, default=100)
    parser.add_argument("-loop_count", type=int, default=0)
    parser.add_argument("-n_measurements", type=int, default=10)
    parser.add_argument("-warm_up_count", type=int, default=0)
    parser.add_argument("-initial_warm_up_count", type=int, default=0)
    parser.add_argument("-agg", choices=("min", "med", "avg"), default="avg")
    parser.add_argument("-basic_mode", action="store_true")
    parser.add_argument("-no_mem", action="store_true")
    parser.add_argument("-serializer", choices=("lfence", "cpuid"),
                        default="lfence")
    parser.add_argument("-no_fixed_counters", dest="fixed_counters",
                        action="store_false")
    parser.add_argument("-aperf_mperf", action="store_true")
    # Measurement-integrity knobs.
    parser.add_argument("-stability", action="store_true",
                        help="adaptive stability control (the "
                             "max_n_measurements option): escalate "
                             "n_measurements while the raw series is "
                             "noisy, and stamp the result with a quality "
                             "verdict (stable / escalated / "
                             "unstable-quarantined)")
    parser.add_argument("-max_n_measurements", type=int, default=None,
                        metavar="N",
                        help="turn stability control on with escalation "
                             "capped at N measurements (-stability alone "
                             "caps at %d)" % DEFAULT_MAX_N_MEASUREMENTS)
    parser.add_argument("-cycle_budget", type=int, default=None, metavar="N",
                        help="abort a run after N simulated cycles with a "
                             "partial-progress report (runaway-benchmark "
                             "watchdog; default off)")
    parser.add_argument("-uop_budget", type=int, default=None, metavar="N",
                        help="abort a run after N issued uops (default off)")
    parser.add_argument("-no_fast_path", action="store_true",
                        help="disable the simulator fast path: the "
                             "clean-body semantics skip and run-level "
                             "replay (results are byte-identical either "
                             "way; this only trades speed for executing "
                             "every instruction of every run)")
    parser.add_argument("-seed", type=int, default=0)
    parser.add_argument("-verbose", action="store_true")
    parser.add_argument("-batch", default=None, metavar="FILE",
                        help="run every benchmark listed in FILE (one "
                             "'asm' or 'asm | asm_init' per line)")
    parser.add_argument("-jobs", type=int, default=1,
                        help="worker processes for -batch (default 1; "
                             "0 = one per CPU)")
    # Self-healing / chaos-plane knobs.
    parser.add_argument("-spec_timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-benchmark deadline in -batch mode; a "
                             "benchmark exceeding it is requeued on "
                             "another worker")
    parser.add_argument("-max_requeues", type=int, default=2, metavar="N",
                        help="requeues per benchmark after worker "
                             "deaths/timeouts in -batch mode (default 2)")
    parser.add_argument("-store", default=None, metavar="DIR",
                        help="durable result store for -batch mode: "
                             "completed benchmarks are recorded "
                             "(crash-safe, content-addressed) and "
                             "already-stored benchmarks are answered "
                             "from DIR without re-running")
    parser.add_argument("-faults", default=None, metavar="SPEC",
                        help="activate the fault-injection plane: "
                             "'chaos' or 'site=rate,site=rate' "
                             "(e.g. 'worker.death=0.1')")
    parser.add_argument("-fault_seed", type=int, default=0,
                        help="seed of the deterministic fault plane")
    return parser


def parse_batch_file(path: str) -> List[Tuple[str, str]]:
    """Parse a batch file into ``(asm, asm_init)`` pairs."""
    entries: List[Tuple[str, str]] = []
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            asm, _, asm_init = (part.strip() for part in line.partition("|"))
            entries.append((asm, asm_init))
    return entries


def run_validate_config(argv: List[str]) -> int:
    """The ``validate-config`` subcommand: full pre-flight scan of a
    counter-configuration file, every problem reported at once with
    ``file:line`` locations."""
    parser = argparse.ArgumentParser(
        prog="nanobench validate-config",
        description="validate a performance-counter configuration file "
                    "without running any benchmark",
    )
    parser.add_argument("config", help="configuration file to check")
    parser.add_argument("-uarch", default="Skylake",
                        help="microarchitecture whose event catalogue to "
                             "validate against (default Skylake)")
    args = parser.parse_args(argv)
    try:
        spec = get_spec(args.uarch)
        catalog = event_catalog(spec.family, spec.n_cboxes)
    except (ReproError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print("error: %s" % (message,), file=sys.stderr)
        return 1
    try:
        with open(args.config) as handle:
            text = handle.read()
    except OSError as exc:
        print("error: cannot read config file %s: %s" % (args.config, exc),
              file=sys.stderr)
        return 1
    scan = scan_config(text, catalog, filename=args.config)
    for diagnostic in scan.diagnostics:
        print("%s: %s" % (diagnostic.severity, diagnostic.describe()))
    errors = sum(1 for d in scan.diagnostics if d.severity == "error")
    warnings_ = len(scan.diagnostics) - errors
    print("%s: %d lines checked, %d errors, %d warnings"
          % (args.config, scan.lines, errors, warnings_))
    return 1 if errors else 0


def run_backends(argv: List[str]) -> int:
    """The ``backends`` subcommand: list the measurement backends."""
    parser = argparse.ArgumentParser(
        prog="nanobench backends",
        description="list the measurement backends",
    )
    parser.parse_args(argv)
    from ..backends import BACKENDS, DEFAULT_BACKEND

    for backend, description in BACKENDS.items():
        marker = " (default)" if backend == DEFAULT_BACKEND else ""
        print("%s%s: %s" % (backend, marker, description))
    return 0


def run_fuzz(argv: List[str]) -> int:
    """The ``fuzz`` subcommand: a coverage-quota differential campaign.

    Generates ``-budget`` kernels against the ``-profile`` quotas,
    cross-checks exact-vs-fastpath simulation, serial-vs-batched
    execution, and sim-vs-analytic estimation on each, shrinks and
    pins divergences, and prints the coverage-achieved report.  Exit
    status 1 on any exact (fastpath/batch) divergence — those
    categories must be byte-identical; analytic records are reported
    and written to the corpus but do not fail the run.
    """
    from ..fuzz import PROFILES, DifferentialFuzzer, save_corpus
    from ..fuzz.differential import (
        DEFAULT_CYCLE_BUDGET,
        DEFAULT_UOP_BUDGET,
    )

    parser = argparse.ArgumentParser(
        prog="nanobench fuzz",
        description="differential fuzzing: generate coverage-quota "
                    "kernels, cross-check every backend, pin divergences",
    )
    parser.add_argument("-seed", type=int, default=0,
                        help="campaign seed (kernels are a pure function "
                             "of seed, profile and index; default 0)")
    parser.add_argument("-budget", type=int, default=200, metavar="N",
                        help="number of kernels to generate (default 200)")
    parser.add_argument("-profile", default="default",
                        choices=sorted(PROFILES),
                        help="coverage-quota profile (default 'default')")
    parser.add_argument("-uarch", default="Skylake",
                        help="simulated microarchitecture (default Skylake)")
    parser.add_argument("-jobs", type=int, default=2,
                        help="worker processes for the batched arm "
                             "(default 2)")
    parser.add_argument("-corpus", default=None, metavar="FILE",
                        help="write confirmed divergences to FILE as "
                             "deterministic JSONL")
    parser.add_argument("-no_shrink", action="store_true",
                        help="pin divergences unshrunk (faster campaigns)")
    parser.add_argument("-no_analytic", action="store_true",
                        help="skip the tolerance-banded sim-vs-analytic "
                             "comparison (exact checks only)")
    parser.add_argument("-cycle_budget", type=int,
                        default=DEFAULT_CYCLE_BUDGET, metavar="N",
                        help="watchdog cycle budget per arm (default %d)"
                             % DEFAULT_CYCLE_BUDGET)
    parser.add_argument("-uop_budget", type=int,
                        default=DEFAULT_UOP_BUDGET, metavar="N",
                        help="watchdog uop budget per arm (default %d)"
                             % DEFAULT_UOP_BUDGET)
    args = parser.parse_args(argv)
    if args.budget <= 0:
        print("error: -budget must be positive", file=sys.stderr)
        return 1
    try:
        fuzzer = DifferentialFuzzer(
            seed=args.seed,
            profile=args.profile,
            uarch=args.uarch,
            jobs=args.jobs,
            cycle_budget=args.cycle_budget,
            uop_budget=args.uop_budget,
            shrink=not args.no_shrink,
            check_analytic=not args.no_analytic,
        )
    except (ReproError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print("error: %s" % (message,), file=sys.stderr)
        return 1
    result = fuzzer.run(args.budget)
    print(result.render())
    if args.corpus is not None:
        save_corpus(args.corpus, result.records)
        print("# corpus: %d record(s) written to %s"
              % (len(result.records), args.corpus), file=sys.stderr)
    return 1 if result.exact_divergences or result.stats.invalid else 0


def run_serve(argv: List[str]) -> int:
    """The ``serve`` subcommand: the long-lived benchmark server.

    Starts an HTTP/JSON service over a durable result store:
    ``POST /v1/jobs`` accepts BenchmarkSpec batches (admission-checked
    against per-client token-bucket quotas and a bounded queue),
    ``GET /v1/jobs/{id}`` / ``GET /v1/results/{digest}`` serve status
    and stored records, and ``/healthz`` / ``/readyz`` / ``/v1/stats``
    expose liveness, drain state, and counters.  SIGTERM drains
    gracefully: admission stops, ``/readyz`` flips to 503, the running
    job finishes or checkpoints within ``-drain_timeout`` seconds, and
    unfinished jobs resume from the journal on the next start.
    """
    import signal
    import threading

    parser = argparse.ArgumentParser(
        prog="nanobench serve",
        description="serve benchmark submissions over HTTP, backed by "
                    "a durable content-addressed result store",
    )
    parser.add_argument("-store", required=True, metavar="DIR",
                        help="durable result store directory (also holds "
                             "the crash-safe job journal)")
    parser.add_argument("-host", default="127.0.0.1")
    parser.add_argument("-port", type=int, default=8431,
                        help="listening port (default 8431; 0 = ephemeral, "
                             "printed on startup)")
    parser.add_argument("-quota", type=float, default=50.0, metavar="RATE",
                        help="per-client quota in specs/second "
                             "(default 50; 0 disables quotas)")
    parser.add_argument("-quota_burst", type=int, default=200, metavar="N",
                        help="per-client burst capacity in specs "
                             "(default 200)")
    parser.add_argument("-max_queue", type=int, default=10000, metavar="N",
                        help="bound on queued specs across all clients; "
                             "beyond it submissions get 429 + Retry-After "
                             "(default 10000)")
    parser.add_argument("-drain_timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="SIGTERM drain budget: the running job may "
                             "finish for this long before it is "
                             "checkpointed for the next start (default 30)")
    parser.add_argument("-jobs", type=int, default=1,
                        help="worker processes per job (default 1)")
    parser.add_argument("-cycle_budget", type=int, default=None, metavar="N",
                        help="watchdog cycle budget injected into every "
                             "spec that has none (default off)")
    parser.add_argument("-uop_budget", type=int, default=None, metavar="N",
                        help="watchdog uop budget injected into every "
                             "spec that has none (default off)")
    parser.add_argument("-job_deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="default per-job wall deadline (default none)")
    parser.add_argument("-spec_timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-spec deadline when -jobs > 1")
    parser.add_argument("-no_route", action="store_true",
                        help="disable tiered fidelity routing: run every "
                             "default-backend spec on the exact simulator "
                             "instead of the cheapest trustworthy tier")
    parser.add_argument("-faults", default=None, metavar="SPEC",
                        help="arm the fault-injection plane ('chaos' or "
                             "'site=rate,...'), e.g. "
                             "'server.accept_drop=0.05'")
    parser.add_argument("-fault_seed", type=int, default=0)
    parser.add_argument("-verbose", action="store_true",
                        help="log every request to stderr")
    args = parser.parse_args(argv)
    from ..server import BenchServer, JobQueue, QuotaPolicy

    plan = None
    if args.faults is not None:
        try:
            plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
        except ValueError as exc:
            print("invalid -faults spec: %s" % exc, file=sys.stderr)
            return 1
        plan.__enter__()
    quota = None
    if args.quota > 0:
        quota = QuotaPolicy(rate=args.quota, burst=args.quota_burst)
    try:
        queue = JobQueue(
            args.store,
            quota=quota,
            max_queued_specs=args.max_queue,
            jobs=args.jobs,
            cycle_budget=args.cycle_budget,
            uop_budget=args.uop_budget,
            default_deadline_seconds=args.job_deadline,
            spec_timeout=args.spec_timeout,
            route_specs=not args.no_route,
        )
        server = BenchServer(queue, host=args.host, port=args.port,
                             drain_timeout=args.drain_timeout,
                             verbose=args.verbose)
    except (ReproError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    stats = queue.stats()
    if stats.jobs_recovered:
        print("# recovered %d unfinished job(s) from the journal"
              % stats.jobs_recovered, file=sys.stderr)
    shutdown = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: shutdown.set())
    server.start()
    print("# serving on http://%s:%d (store %s); SIGTERM drains"
          % (server.address[0], server.port, args.store), file=sys.stderr)
    shutdown.wait()
    print("# draining (budget %.1f s): admission stopped, /readyz -> 503"
          % args.drain_timeout, file=sys.stderr)
    drained = server.drain(args.drain_timeout)
    final = queue.stats_counters
    print("# drained %s: %d job(s) completed, %d checkpointed for the "
          "next start" % ("clean" if drained else "with checkpoint",
                          final.jobs_completed, final.jobs_checkpointed),
          file=sys.stderr)
    if plan is not None:
        plan.__exit__(None, None, None)
    return 0


def run_submit(argv: List[str]) -> int:
    """The ``submit`` subcommand: send benchmarks to a running server.

    Exit status: 0 on success, 1 on a fatal rejection or failed specs,
    75 (EX_TEMPFAIL) on a retryable rejection (over quota, queue full,
    server draining) — the ``Retry-After`` hint is printed to stderr.
    """
    parser = argparse.ArgumentParser(
        prog="nanobench submit",
        description="submit benchmarks to a 'nanobench serve' instance "
                    "and (by default) wait for the results",
    )
    parser.add_argument("-host", default="127.0.0.1")
    parser.add_argument("-port", type=int, default=8431)
    parser.add_argument("-client", default="anonymous", metavar="NAME",
                        help="client name for quota accounting")
    parser.add_argument("-asm", default="", help="one benchmark to submit")
    parser.add_argument("-asm_init", default="")
    parser.add_argument("-batch", default=None, metavar="FILE",
                        help="submit every benchmark in FILE (one 'asm' "
                             "or 'asm | asm_init' per line)")
    parser.add_argument("-uarch", default="Skylake")
    parser.add_argument("-backend", default="sim")
    parser.add_argument("-seed", type=int, default=0)
    parser.add_argument("-kernel", action="store_true", default=True)
    parser.add_argument("-user", dest="kernel", action="store_false")
    parser.add_argument("-deadline", type=float, default=None,
                        metavar="SECONDS", help="per-job wall deadline")
    parser.add_argument("-no_wait", action="store_true",
                        help="print the job id and exit without waiting")
    parser.add_argument("-timeout", type=float, default=300.0,
                        metavar="SECONDS",
                        help="how long to wait for results (default 300)")
    args = parser.parse_args(argv)
    from ..batch import BenchmarkSpec
    from ..errors import ServerError, is_retryable
    from ..server import ServerClient, ServerUnavailableError

    if args.batch is not None:
        try:
            entries = parse_batch_file(args.batch)
        except OSError as exc:
            print("cannot read batch file: %s" % exc, file=sys.stderr)
            return 1
    elif args.asm:
        entries = [(args.asm, args.asm_init)]
    else:
        print("error: pass -asm or -batch FILE", file=sys.stderr)
        return 1
    specs = [
        BenchmarkSpec(asm=asm, asm_init=asm_init, uarch=args.uarch,
                      seed=args.seed, kernel_mode=args.kernel,
                      label="%d" % index, backend=args.backend)
        for index, (asm, asm_init) in enumerate(entries)
    ]
    client = ServerClient(host=args.host, port=args.port,
                          client=args.client)
    try:
        accepted = client.submit(specs, deadline_seconds=args.deadline)
        if args.no_wait:
            print(accepted["job_id"])
            return 0
        payload = client.wait(accepted["job_id"], timeout=args.timeout)
    except ServerError as exc:
        retryable = is_retryable(exc)
        print("error: %s" % exc, file=sys.stderr)
        if retryable and exc.retry_after is not None:
            print("retry after %.2f s" % exc.retry_after, file=sys.stderr)
        return 75 if retryable else 1
    except ServerUnavailableError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 75
    finally:
        client.close()
    status = 0
    for outcome in payload["outcomes"]:
        spec = specs[int(outcome["label"])]
        print("## %s" % (spec.asm or "<empty>"))
        if outcome["ok"]:
            print(format_results(outcome.get("values") or {}))
        else:
            print("error: %s" % outcome["error"])
            status = 1
    print("# job %s: %d spec(s), %d answered from the store, "
          "%d executed, %d error(s)"
          % (payload["job_id"], payload["n_specs"],
             payload["n_store_hits"], payload["n_store_misses"],
             payload["n_errors"]),
          file=sys.stderr)
    return status


def run_store(argv: List[str]) -> int:
    """The ``store`` subcommand: offline maintenance of a durable store.

    ``stats`` and ``verify`` inspect (``verify`` never modifies the
    store, so a damaged one can be examined before recovery touches
    it); ``compact`` merges all segments dropping superseded
    duplicates; ``gc`` evicts by TTL and/or size budget.
    """
    parser = argparse.ArgumentParser(
        prog="nanobench store",
        description="inspect and maintain a durable content-addressed "
                    "result store",
        epilog="exit status: 0 = store healthy and action succeeded; "
               "1 = damage found (stats/verify: torn tails, quarantined "
               "corruption, or orphan files) or the action failed; "
               "2 = bad usage",
    )
    parser.add_argument("action",
                        choices=("stats", "verify", "compact", "gc"),
                        help="stats: occupancy and counters (exit 1 if "
                             "the integrity scan finds damage); verify: "
                             "read-only integrity scan (exit 1 if "
                             "recovery is needed); compact: merge "
                             "segments; gc: evict by -ttl/-max_bytes")
    parser.add_argument("root", metavar="DIR", help="store directory")
    parser.add_argument("-ttl", type=float, default=None, metavar="SECONDS",
                        help="gc: evict records older than SECONDS")
    parser.add_argument("-max_bytes", type=int, default=None, metavar="N",
                        help="gc: evict oldest records until the store "
                             "fits in N bytes")
    args = parser.parse_args(argv)
    from ..store import ResultStore, verify_store

    if args.action == "gc" and args.ttl is None and args.max_bytes is None:
        print("error: 'gc' needs -ttl and/or -max_bytes", file=sys.stderr)
        return 2
    if not os.path.isdir(args.root):
        print("error: %s is not a store directory" % args.root,
              file=sys.stderr)
        return 1
    try:
        if args.action == "verify":
            # Deliberately does not open the store: opening runs
            # recovery, and verify must report the damage, not heal it.
            report = verify_store(args.root)
            print(report.describe())
            return 0 if report.ok else 1
        damaged = False
        if args.action == "stats":
            # Read-only integrity scan *before* the store opens (and
            # heals): damage must surface in the exit status, not be
            # silently repaired away.
            report = verify_store(args.root)
            if not report.ok:
                damaged = True
                print(report.describe())
        with ResultStore(args.root) as store:
            if args.action == "stats":
                print(store.stats().describe())
                if damaged:
                    return 1
            elif args.action == "compact":
                kept = store.compact()
                print("compacted %s to %d live record(s), %d byte(s)"
                      % (args.root, kept, store.stats().disk_bytes))
            else:
                print(store.gc(args.ttl, args.max_bytes).describe())
        return 0
    except (ReproError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    saved = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return _main(argv)
    finally:
        warnings.formatwarning = saved


def _main(argv: Optional[List[str]]) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "validate-config":
        return run_validate_config(argv[1:])
    if argv and argv[0] == "backends":
        return run_backends(argv[1:])
    if argv and argv[0] == "fuzz":
        return run_fuzz(argv[1:])
    if argv and argv[0] == "store":
        return run_store(argv[1:])
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] == "submit":
        return run_submit(argv[1:])
    args = build_parser().parse_args(argv)
    plan = contextlib.nullcontext()
    if args.faults is not None:
        try:
            plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
        except ValueError as exc:
            print("invalid -faults spec: %s" % exc, file=sys.stderr)
            return 1
    with plan, _fast_path_disabled(args.no_fast_path):
        return _main_with_args(args)


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """One ``warning: <message>`` line, the form of the option-conflict
    warnings: the library's file, line number and source line would
    make the CLI's output change whenever the library is edited."""
    return "warning: %s\n" % message


def _stability_cap(args) -> Optional[int]:
    """The ``max_n_measurements`` option: either flag turns stability
    control on, and an explicit cap wins."""
    if args.max_n_measurements is not None:
        return args.max_n_measurements
    return DEFAULT_MAX_N_MEASUREMENTS if args.stability else None


@contextlib.contextmanager
def _fast_path_disabled(disabled: bool) -> Iterator[None]:
    """Scope ``-no_fast_path`` to one invocation, through the environment
    every core (batch workers' included) reads its default from."""
    saved = os.environ.get("NANOBENCH_FAST_PATH")
    if disabled:
        os.environ["NANOBENCH_FAST_PATH"] = "0"
    try:
        yield
    finally:
        if disabled:
            os.environ.pop("NANOBENCH_FAST_PATH")
            if saved is not None:
                os.environ["NANOBENCH_FAST_PATH"] = saved


def _read_code(path: str) -> Program:
    """Decode a ``-code``/``-code_init`` file; every failure is a
    :class:`ReproError` naming the file."""
    try:
        with open(path, "rb") as handle:
            return decode_program(handle.read())
    except OSError as exc:
        raise NanoBenchError("cannot read code file %s: %s" % (path, exc))
    except DecodingError as exc:
        raise DecodingError("%s: %s" % (path, exc))


def _main_with_args(args) -> int:
    try:
        options = NanoBenchOptions(
            unroll_count=args.unroll_count,
            loop_count=args.loop_count,
            n_measurements=args.n_measurements,
            warm_up_count=args.warm_up_count,
            initial_warm_up_count=args.initial_warm_up_count,
            aggregate=args.agg,
            basic_mode=args.basic_mode,
            no_mem=args.no_mem,
            serializer=args.serializer,
            fixed_counters=args.fixed_counters,
            aperf_mperf=args.aperf_mperf,
            verbose=args.verbose,
            cycle_budget=args.cycle_budget,
            uop_budget=args.uop_budget,
            max_n_measurements=_stability_cap(args),
        )
    except ReproError as exc:
        print("invalid options: %s" % exc, file=sys.stderr)
        return 1
    for conflict in options.conflicts():
        print("warning: %s" % conflict, file=sys.stderr)
    try:
        nb = NanoBench.create(uarch=args.uarch, seed=args.seed,
                              kernel_mode=args.kernel, backend=args.backend,
                              options=options)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    spec = get_spec(args.uarch)
    config = None
    if args.config is not None:
        catalog = event_catalog(spec.family, spec.n_cboxes)
        try:
            config = parse_config_file(args.config, catalog)
        except ConfigError as exc:
            print("invalid config: %s" % exc, file=sys.stderr)
            return 1
    elif spec.family == "SKL":
        config = example_skylake_config()

    if args.batch is not None:
        return _run_batch_mode(args, options, config)

    kwargs = {}
    try:
        for key, path in (("code", args.code), ("init", args.code_init)):
            if path is not None:
                kwargs[key] = _read_code(path)
        results = nb.run(asm=args.asm, asm_init=args.asm_init, config=config,
                         **kwargs)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(format_results(results))
    report = nb.last_report
    if report.quality is not None:
        print("# quality: %s" % report.quality.describe(), file=sys.stderr)
    if args.verbose:
        print(
            "# %d runs, %d counter groups, %d simulated cycles, "
            "modelled wall time %.1f ms"
            % (report.program_runs, report.counter_groups,
               report.simulated_cycles,
               report.wall_time_ms(args.kernel, spec.frequency_ghz)),
            file=sys.stderr,
        )
        sim = report.sim_stats
        if sim:
            print(
                "# sim: %d instructions (%d fast-path, %d fallbacks) "
                "in %.3f s host, %d replayed runs"
                % (sim.get("instructions", 0),
                   sim.get("fast_path_instructions", 0),
                   sim.get("fallbacks", 0),
                   sim.get("wall_seconds", 0.0),
                   sim.get("replayed_runs", 0)),
                file=sys.stderr,
            )
    return 0


def _run_batch_mode(args, options: NanoBenchOptions, config) -> int:
    """The ``-batch`` path: shard the file's benchmarks over workers."""
    from ..batch import BatchRunner, BenchmarkSpec

    try:
        entries = parse_batch_file(args.batch)
    except OSError as exc:
        print("cannot read batch file: %s" % exc, file=sys.stderr)
        return 1
    if not entries:
        print("batch file contains no benchmarks", file=sys.stderr)
        return 1
    events = config.names if config is not None else ()
    specs = [
        BenchmarkSpec(
            asm=asm,
            asm_init=asm_init,
            events=events,
            uarch=args.uarch,
            seed=args.seed,
            kernel_mode=args.kernel,
            options=options,
            label="%d" % index,
            backend=args.backend,
        )
        for index, (asm, asm_init) in enumerate(entries)
    ]
    jobs = args.jobs if args.jobs > 0 else None

    def progress(done: int, total: int, result) -> None:
        if args.verbose:
            print("# [%d/%d] %s" % (done, total, result.spec.asm),
                  file=sys.stderr)

    runner = BatchRunner(
        jobs,
        progress=progress,
        spec_timeout=args.spec_timeout,
        max_requeues=args.max_requeues,
        store=args.store,
    )
    status = 0
    for result in runner.iter_results(specs):
        print("## %s" % (result.spec.asm or "<empty>"))
        if result.ok:
            print(format_results(result.values))
            if result.quality_verdict is not None:
                print("# quality: %s" % result.quality_verdict)
        else:
            print("error: %s" % result.error)
            status = 1
    report = runner.last_report
    store_summary = ""
    if args.store is not None:
        store_summary = ("; store: %d hits, %d misses"
                         % (report.n_store_hits, report.n_store_misses))
    print(
        "# %d benchmarks, %d errors, %d workers, %.2f s "
        "(%.1f benchmarks/s); codegen cache: %d/%d assemble, "
        "%d/%d generate hits/misses%s"
        % (report.n_specs, report.n_errors, report.jobs,
           report.host_seconds, report.benchmarks_per_second,
           report.assemble_hits, report.assemble_misses,
           report.generate_hits, report.generate_misses,
           store_summary),
        file=sys.stderr,
    )
    if report.n_store_hits or report.n_requeues or report.n_worker_deaths \
            or report.n_timeouts:
        print(
            "# recovery: %d answered from the store, %d requeues, "
            "%d worker deaths, %d timeouts"
            % (report.n_store_hits, report.n_requeues,
               report.n_worker_deaths, report.n_timeouts),
            file=sys.stderr,
        )
    if report.n_store_hits or report.n_store_misses:
        print(
            "# store: %d answered from the store, %d executed and stored"
            % (report.n_store_hits, report.n_store_misses),
            file=sys.stderr,
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
