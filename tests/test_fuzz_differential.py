"""Differential harness, corpus, and cross-backend comparison tests."""

import pytest

from repro.batch import spec_digest
from repro.core.cli import main as cli_main
from repro.fuzz import (
    DifferentialFuzzer,
    DivergenceRecord,
    GeneratedKernel,
    KernelGenerator,
    dump_record,
    kernel_digest,
    load_corpus,
    record_spec,
    save_corpus,
    sort_records,
)
from repro.tools.compare_backends import SKIPPED, ProfileDeviation


# ----------------------------------------------------------------------
# ProfileDeviation values mode (satellite: capability-skipped events)
# ----------------------------------------------------------------------
class TestProfileDeviationValues:
    def test_shared_events_are_compared(self):
        deviation = ProfileDeviation(
            name="k",
            reference_values={"A": 3.0, "B": 1.0},
            candidate_values={"A": 2.5, "B": 1.0},
        )
        assert deviation.shared_events == ["A", "B"]
        assert deviation.event_deviation("A") == 0.5
        assert deviation.max_deviation == 0.5
        assert deviation.comparable

    def test_capability_skipped_event_is_marked_not_raised(self):
        deviation = ProfileDeviation(
            name="k",
            reference_values={"A": 3.0, "CACHE.EVT": 7.0},
            candidate_values={"A": 3.0},
        )
        assert deviation.skipped_events == ["CACHE.EVT"]
        assert deviation.event_deviation("CACHE.EVT") is SKIPPED
        assert deviation.event_deviation("UNKNOWN") is SKIPPED
        # Skipped events never contribute to the worst deviation.
        assert deviation.max_deviation == 0.0
        assert deviation.exact(0.01)

    def test_event_deviations_maps_union_of_names(self):
        deviation = ProfileDeviation(
            name="k",
            reference_values={"A": 1.0},
            candidate_values={"B": 2.0},
        )
        table = deviation.event_deviations()
        assert set(table) == {"A", "B"}
        assert table["A"] is SKIPPED and table["B"] is SKIPPED
        assert deviation.shared_events == []

    def test_skipped_repr_and_pickle_identity(self):
        import pickle

        assert repr(SKIPPED) == "skipped"
        assert pickle.loads(pickle.dumps(SKIPPED)) is SKIPPED

    def test_profile_mode_still_works_without_values(self):
        from repro.tools.instr.measure import InstructionProfile

        ref = InstructionProfile(name="ADD", latency=1.0, throughput=0.25,
                                 uops=1.0, ports={})
        cand = InstructionProfile(name="ADD", latency=1.0, throughput=0.5,
                                  uops=1.0, ports={})
        deviation = ProfileDeviation(name="ADD", reference=ref,
                                     candidate=cand)
        assert deviation.comparable
        assert deviation.max_deviation == 0.25
        assert deviation.event_names == []

    def test_port_deviations_mark_asymmetric_ports(self):
        from repro.tools.instr.measure import InstructionProfile

        ref = InstructionProfile(name="X", latency=None, throughput=None,
                                 uops=None, ports={"0": 0.5, "1": 0.5})
        cand = InstructionProfile(name="X", latency=None, throughput=None,
                                  uops=None, ports={"0": 0.5, "6": 0.5})
        deviation = ProfileDeviation(name="X", reference=ref, candidate=cand)
        table = deviation.port_deviations
        assert table["0"] == 0.0
        assert table["1"] is SKIPPED
        assert table["6"] is SKIPPED


# ----------------------------------------------------------------------
# Corpus records
# ----------------------------------------------------------------------
def _kernel(asm="add RAX, RBX", asm_init="mov RAX, 1", **kwargs):
    defaults = dict(seed=0, index=0, profile="default",
                    buckets=(("instruction_class", "alu"),),
                    asm=asm, asm_init=asm_init, unroll_count=4, loop_count=0)
    defaults.update(kwargs)
    return GeneratedKernel(**defaults)


def _record(category="analytic", digest="d" * 64, **kwargs):
    kernel = _kernel(**kwargs)
    return DivergenceRecord(
        category=category, digest=digest, uarch="Skylake", kernel_mode=True,
        seed=kernel.seed, index=kernel.index, profile=kernel.profile,
        buckets=kernel.buckets, asm=kernel.asm, asm_init=kernel.asm_init,
        unroll_count=kernel.unroll_count, loop_count=kernel.loop_count,
        events=("UOPS_ISSUED.ANY",), reference={"UOPS_ISSUED.ANY": 1.0},
        candidate={"UOPS_ISSUED.ANY": 2.0}, deviation=1.0, tolerance=0.5,
        shrunk_from=5, provenance=kernel.provenance,
    )


class TestDivergenceCorpus:
    def test_roundtrip_preserves_record(self, tmp_path):
        path = str(tmp_path / "corpus.jsonl")
        record = _record()
        save_corpus(path, [record])
        assert load_corpus(path) == [record]

    def test_corpus_bytes_are_deterministic(self, tmp_path):
        records = [_record(digest="b" * 64), _record(digest="a" * 64),
                   _record(category="fastpath", digest="c" * 64)]
        a_path, b_path = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        save_corpus(a_path, records)
        save_corpus(b_path, list(reversed(records)))
        with open(a_path, "rb") as a, open(b_path, "rb") as b:
            assert a.read() == b.read()

    def test_sort_orders_exact_categories_first(self):
        analytic = _record(category="analytic", digest="a" * 64)
        fastpath = _record(category="fastpath", digest="z" * 64)
        assert sort_records([analytic, fastpath]) == [fastpath, analytic]

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown divergence category"):
            _record(category="vibes")

    def test_bad_corpus_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("# comment\n\n{\"category\": \"fastpath\"}\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:3"):
            load_corpus(str(path))

    def test_record_kernel_roundtrip(self):
        record = _record()
        kernel = record.kernel()
        assert kernel.asm == record.asm
        assert kernel.provenance == record.provenance

    def test_kernel_digest_ignores_provenance_label(self):
        a = _kernel(index=1)
        b = _kernel(index=2)
        assert a.provenance != b.provenance
        digest_kw = dict(uarch="Skylake", kernel_mode=True,
                         events=("UOPS_ISSUED.ANY",))
        assert (kernel_digest(a, **digest_kw)
                == kernel_digest(b, **digest_kw))
        # The executable spec keeps the label (and so a distinct
        # result-store digest) — only corpus identity blanks it.
        spec_a = record_spec(a, **digest_kw)
        spec_b = record_spec(b, **digest_kw)
        assert spec_digest(spec_a) != spec_digest(spec_b)

    def test_record_spec_merges_run_options(self):
        spec = record_spec(_kernel(), uarch="Skylake", kernel_mode=True,
                           events=("UOPS_ISSUED.ANY",),
                           options={"cycle_budget": 99})
        options = spec.option_dict()
        assert options["unroll_count"] == 4
        assert options["cycle_budget"] == 99
        assert spec.backend == "sim"


# ----------------------------------------------------------------------
# The differential harness
# ----------------------------------------------------------------------
class TestDifferentialFuzzer:
    def test_exact_arms_agree_on_sample_kernels(self):
        fuzzer = DifferentialFuzzer(seed=0, jobs=1)
        for kernel in KernelGenerator(0, "default").iter_kernels(6):
            serial = fuzzer.run_serial(kernel)
            exact = fuzzer.run_exact(kernel)
            assert serial.error is None, kernel.provenance
            assert exact.values == serial.values, kernel.provenance

    def test_analytic_arm_skips_cache_events(self):
        fuzzer = DifferentialFuzzer(seed=0, jobs=1)
        kernel = _kernel(asm="mov RAX, [R14]", asm_init="")
        serial = fuzzer.run_serial(kernel)
        analytic = fuzzer.run_analytic(kernel)
        assert "MEM_LOAD_RETIRED.L1_HIT" in serial.values
        assert "MEM_LOAD_RETIRED.L1_HIT" not in analytic.values
        deviation = ProfileDeviation(
            name="k", reference_values=serial.values,
            candidate_values=analytic.values,
        )
        assert "MEM_LOAD_RETIRED.L1_HIT" in deviation.skipped_events

    def test_small_campaign_finds_no_exact_divergence(self):
        result = DifferentialFuzzer(seed=0, jobs=2).run(20)
        assert result.stats.kernels == 20
        assert result.stats.invalid == 0
        assert result.exact_divergences == []
        assert result.coverage.quotas_met(tolerance=1.0 / 20)

    def test_campaigns_are_deterministic(self):
        a = DifferentialFuzzer(seed=1, jobs=2).run(15)
        b = DifferentialFuzzer(seed=1, jobs=2).run(15)
        assert [dump_record(r) for r in a.records] \
            == [dump_record(r) for r in b.records]
        assert a.coverage.to_dict() == b.coverage.to_dict()

    def test_runaway_kernels_are_quarantined_not_diverging(self):
        fuzzer = DifferentialFuzzer(seed=0, jobs=1, cycle_budget=5,
                                    uop_budget=5, check_analytic=False)
        result = fuzzer.run(3)
        assert result.stats.quarantined == 3
        assert result.records == []

    def test_recheck_record_passes_on_agreeing_kernel(self):
        fuzzer = DifferentialFuzzer(seed=0, jobs=1)
        for category in ("fastpath", "batch"):
            record = _record(category=category)
            assert fuzzer.recheck_record(record) is None

    def test_recheck_record_reports_fabricated_fastpath_divergence(self):
        # A record is only evidence; recheck re-runs the real arms.
        fuzzer = DifferentialFuzzer(seed=0, jobs=1)
        record = _record(category="analytic")
        # The analytic model matches a plain ALU kernel within band.
        assert fuzzer.recheck_record(record) is None

    def test_render_mentions_coverage_and_counts(self):
        result = DifferentialFuzzer(seed=0, jobs=1,
                                    check_analytic=False).run(5)
        rendered = result.render()
        assert "coverage (5 kernels" in rendered
        assert "0 quarantined" in rendered


# ----------------------------------------------------------------------
# CLI subcommand
# ----------------------------------------------------------------------
class TestFuzzCli:
    def test_fuzz_subcommand_runs_and_writes_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        exit_code = cli_main([
            "fuzz", "-seed", "0", "-budget", "8", "-no_analytic",
            "-corpus", str(corpus),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "coverage (8 kernels" in captured.out
        assert corpus.exists()
        assert load_corpus(str(corpus)) == []

    def test_fuzz_rejects_bad_budget(self, capsys):
        assert cli_main(["fuzz", "-budget", "0"]) == 1
        assert "-budget" in capsys.readouterr().err

    def test_fuzz_rejects_unknown_profile(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["fuzz", "-profile", "nope"])
