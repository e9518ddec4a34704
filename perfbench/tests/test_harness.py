"""Tests of the benchmark harness itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import itertools

import pytest

import cache_seq
import harness
import instr_sim
import service
from tracer import Tracer


def _take(rounds, count):
    return list(itertools.islice(itertools.chain.from_iterable(rounds),
                                 count))


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
def test_percentile_refuses_fewer_than_min_ops():
    with pytest.raises(ValueError):
        harness.percentile(range(harness.MIN_OPS - 1), 50)


def test_percentile_is_nearest_rank():
    values = list(range(200, 0, -1))  # input order must not matter
    assert harness.percentile(values, 50) == 100
    assert harness.percentile(values, 95) == 190
    assert harness.percentile(values, 100) == 200
    # At least ten samples lie beyond p95 at the minimum op count.
    assert sum(v > harness.percentile(values, 95) for v in values) >= 10


def test_reference_latencies_scale_work_but_not_waits():
    phase = harness.Phase(latencies=[0.010, 0.004], waits=[0.0, 0.003],
                          scales=[0.5, 0.5])
    assert phase.reference_latencies == pytest.approx([0.005, 0.0035])


# ----------------------------------------------------------------------
# Workload generation is a pure function of the seed
# ----------------------------------------------------------------------
def test_cache_seq_ops_depend_only_on_seed():
    first = _take(cache_seq.op_rounds(7), 60)
    assert first == _take(cache_seq.op_rounds(7), 60)
    assert first != _take(cache_seq.op_rounds(8), 60)


def test_corpus_passes_depend_only_on_seed():
    names = ["v%d" % i for i in range(30)]
    first = _take(instr_sim.corpus_passes(names, 7), 90)
    assert first == _take(instr_sim.corpus_passes(names, 7), 90)
    assert first != _take(instr_sim.corpus_passes(names, 8), 90)
    # Every pass is a permutation of the whole corpus.
    assert sorted(first[:30]) == sorted(names)


def test_service_jobs_depend_only_on_seed():
    names = ["v%d" % i for i in range(30)]
    first = _take(service.job_rounds(7, names), 200)
    assert first == _take(service.job_rounds(7, names), 200)
    other = _take(service.job_rounds(8, names), 200)
    assert first != other
    # The first pass sends every variant once as a fresh job with the
    # same spec seed whatever the run seed: only order and
    # resubmissions change.
    size = len(names) + round(service.RESUBMIT_RATIO * len(names))
    fresh = lambda jobs: sorted((j.variant, j.seed) for j in jobs[:size]
                                if j.resubmit_of is None)
    assert fresh(first) == fresh(other) \
        == sorted((name, service.fresh_seed(0, name)) for name in names)
    for job in first:
        if job.resubmit_of is not None:
            original = first[job.resubmit_of]
            assert original.resubmit_of is None
            assert (job.variant, job.seed) == (original.variant, original.seed)


# ----------------------------------------------------------------------
# The output check catches a single perturbed counter value
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def reference():
    return harness.load_reference()


@pytest.fixture(scope="module")
def instr(reference):
    bench = instr_sim.InstrSim(1, reference)
    bench.setup()
    return bench


def test_instr_sim_check_catches_one_perturbed_counter(instr):
    from repro.batch import BatchRunner
    from repro.tools.instr.measure import variant_specs

    name = sorted(instr.variants)[0]
    specs = variant_specs(instr.variants[name], instr_sim.UARCH, seed=0)
    results = list(BatchRunner(jobs=1).iter_results(specs))
    outputs = [instr_sim.output_record(r) for r in results]
    assert instr.check(outputs) == {"failed": 0, "unchecked": 0}
    counter = next(iter(results[0].values))
    results[0].values[counter] += 1e-9
    perturbed = [instr_sim.output_record(r) for r in results]
    assert instr.check(perturbed) == {"failed": 1, "unchecked": 0}


def test_cache_seq_check_catches_one_perturbed_count(reference):
    bench = cache_seq.CacheSeqWorkload(1, reference)
    bench.setup()
    outputs = list(bench._run(next(cache_seq.op_rounds(1))))
    assert bench.check(outputs)["failed"] == 0
    op, hits, misses = outputs[3]
    outputs[3] = (op, hits + 1, misses - 1)
    assert bench.check(outputs)["failed"] == 1
    # Off the shipped seeds the digest part is unchecked, the model
    # check still applies.
    other = cache_seq.CacheSeqWorkload(99, reference)
    assert other.check(outputs) == {"failed": 1, "unchecked": 12}


def test_service_check_catches_a_store_hit_that_differs(reference):
    bench = service.ServiceRouted(1, reference)
    job = service.Job(0, "x", 1, None)
    again = service.Job(1, "x", 1, 0)
    answer = [("d%d" % i, True, "analytic", False, {"Core cycles": 1.0})
              for i in range(4)]
    hit = [(d, ok, "store", True, dict(values))
           for d, ok, _, _, values in answer]
    outputs = [(job, 0.0, answer, 0.0), (again, 0.0, hit, 0.0)]
    assert bench.check(outputs) == {"failed": 0, "unchecked": 1}
    hit[2][4]["Core cycles"] = 1.5
    assert bench.check(outputs)["failed"] == 1


# ----------------------------------------------------------------------
# Tracing changes timing only
# ----------------------------------------------------------------------
def test_traced_and_untraced_outputs_are_identical(instr, reference):
    names = sorted(instr.variants)[:2]
    seq_bench = cache_seq.CacheSeqWorkload(1, reference)
    seq_bench.setup()
    ops = next(cache_seq.op_rounds(1))

    def outputs():
        instr.reset()
        return ([instr.output_key(o) for o in instr._run(names)],
                list(seq_bench._run(ops)))

    untraced = outputs()
    tracer = Tracer().install()
    try:
        traced = outputs()
    finally:
        tracer.uninstall()
    assert traced == untraced
    totals = tracer.totals()
    for layer in ("core.create", "uarch.schedule", "x86.execute",
                  "memory.access", "memory.wbinvd", "tools.cache"):
        assert totals[layer][0] > 0, layer


def test_uninstall_restores_every_function():
    import repro.core.nanobench as nanobench
    import repro.x86.semantics as semantics

    create = nanobench.NanoBench.__dict__["create"]
    execute = semantics.execute
    tracer = Tracer().install()
    assert semantics.execute is not execute
    tracer.uninstall()
    assert nanobench.NanoBench.__dict__["create"] is create
    assert semantics.execute is execute


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()  # outer: 0..3, inner: 1..2
    totals = tracer.totals()
    assert totals["outer"] == [1, 3.0, 2.0]
    assert totals["inner"] == [1, 1.0, 1.0]
