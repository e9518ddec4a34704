"""Differential harness, corpus, and cross-backend comparison tests."""

import json
from dataclasses import replace

import pytest

from repro.batch import spec_digest
from repro.core.cli import main as cli_main
from repro.fuzz import (
    DifferentialFuzzer,
    DivergenceRecord,
    FuzzResult,
    GeneratedKernel,
    KernelGenerator,
    dump_record,
    load_corpus,
    save_corpus,
    sort_records,
)
from repro.fuzz.differential import record_tolerance
from repro.tools.compare_backends import ProfileDeviation, band_violations


# ----------------------------------------------------------------------
# The agreement rule shared by the router audit and the fuzzer
# ----------------------------------------------------------------------
class TestBandViolations:
    @pytest.mark.parametrize(
        "reference, candidate, abs_tol, rel_tol, expected",
        [
            # Only counters both sides report are compared.
            ({"A": 3.0, "B": 1.0}, {"A": 2.0, "B": 1.0}, 0.5, 0.0,
             {"A": 1.0}),
            # A counter one side lacks is not a deviation.
            ({"A": 3.0, "CACHE.EVT": 7.0}, {"A": 3.0}, 0.0, 0.0, {}),
            ({"A": 3.0}, {"A": 3.0, "EXTRA": 9.0}, 0.0, 0.0, {}),
            # No shared counters: no violation.
            ({"A": 1.0}, {"B": 2.0}, 0.0, 0.0, {}),
            ({}, {}, 0.0, 0.0, {}),
            # The absolute edge: a deviation equal to the band is inside.
            ({"A": 1.0}, {"A": 1.5}, 0.5, 0.05, {}),
            ({"A": 1.0}, {"A": 1.75}, 0.5, 0.05, {"A": 0.75}),
            # The relative edge wins once rel * |reference| > abs.
            ({"A": -100.0}, {"A": -95.0}, 0.5, 0.05, {}),
            ({"A": 100.0}, {"A": 106.0}, 0.5, 0.05, {"A": 6.0}),
            # A zero band reports every differing shared counter.
            ({"A": 1.0, "B": 2.0}, {"A": 1.0, "B": 2.25}, 0.0, 0.0,
             {"B": 0.25}),
        ],
    )
    def test_band(self, reference, candidate, abs_tol, rel_tol, expected):
        assert band_violations(reference, candidate,
                               abs_tol, rel_tol) == expected


# ----------------------------------------------------------------------
# ProfileDeviation (the A6 corpus sweep)
# ----------------------------------------------------------------------
class TestProfileDeviationValues:
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

    def test_port_deviations_ignore_one_sided_ports(self):
        from repro.tools.instr.measure import InstructionProfile

        ref = InstructionProfile(name="X", latency=None, throughput=None,
                                 uops=None, ports={"0": 0.5, "1": 0.5})
        cand = InstructionProfile(name="X", latency=None, throughput=None,
                                  uops=None, ports={"0": 0.25, "6": 0.5})
        deviation = ProfileDeviation(name="X", reference=ref, candidate=cand)
        assert deviation.port_deviations == {"0": 0.25}


# ----------------------------------------------------------------------
# Corpus records
# ----------------------------------------------------------------------
def _kernel(asm="add RAX, RBX", asm_init="mov RAX, 1", **kwargs):
    defaults = dict(seed=0, index=0, profile="default",
                    buckets=(("instruction_class", "alu"),),
                    asm=asm, asm_init=asm_init, unroll_count=4, loop_count=0)
    defaults.update(kwargs)
    return GeneratedKernel(**defaults)


def _record(category="analytic", **kwargs):
    kernel = _kernel(**kwargs)
    return DivergenceRecord(
        category=category,
        spec=DifferentialFuzzer().spec(kernel),
        reference={"UOPS_ISSUED.ANY": 1.0},
        candidate={"UOPS_ISSUED.ANY": 2.0}, tolerance=0.5,
        shrunk_from=5, index=kernel.index, profile=kernel.profile,
        buckets=kernel.buckets, provenance=kernel.provenance,
    )


class TestDivergenceCorpus:
    def test_roundtrip_preserves_record(self, tmp_path):
        path = str(tmp_path / "corpus.jsonl")
        record = _record()
        save_corpus(path, [record])
        assert load_corpus(path) == [record]

    def test_corpus_bytes_are_deterministic(self, tmp_path):
        records = [_record(asm="add RAX, RBX"), _record(asm="add RCX, RDX"),
                   _record(category="fastpath")]
        a_path, b_path = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        save_corpus(a_path, records)
        save_corpus(b_path, list(reversed(records)))
        with open(a_path, "rb") as a, open(b_path, "rb") as b:
            assert a.read() == b.read()

    def test_sort_orders_by_category_table(self):
        records = [_record(category=category)
                   for category in ("router", "analytic", "fastpath",
                                    "batch")]
        assert [r.category for r in sort_records(records)] \
            == ["fastpath", "batch", "analytic", "router"]

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown divergence category"):
            _record(category="vibes")

    def test_record_holds_the_reference_spec(self):
        record = _record()
        for spec in (replace(record.spec, backend="analytic"),
                     replace(record.spec, label="x")):
            with pytest.raises(ValueError, match="reference spec"):
                replace(record, spec=spec)

    def test_bad_corpus_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("# comment\n\n{\"category\": \"fastpath\"}\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:3"):
            load_corpus(str(path))

    def test_malformed_spec_names_path_and_line(self, tmp_path):
        line = json.loads(dump_record(_record()))
        line["spec"]["events"] = 5
        path = tmp_path / "malformed.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(ValueError, match=r"malformed\.jsonl:1"):
            load_corpus(str(path))

    def test_mismatched_digest_rejected(self, tmp_path):
        line = json.loads(dump_record(_record()))
        line["spec"]["asm"] = "add RAX, RCX"
        path = tmp_path / "edited.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(ValueError, match="does not match"):
            load_corpus(str(path))

    def test_digest_ignores_provenance(self):
        a = _record(index=1)
        b = _record(index=2)
        assert a.provenance != b.provenance
        # Two campaigns shrinking to the same kernel pin one record.
        assert a.digest == b.digest == spec_digest(a.spec)

    def test_fuzz_spec_merges_run_options(self):
        fuzzer = DifferentialFuzzer(cycle_budget=99)
        spec = fuzzer.spec(_kernel())
        options = spec.option_dict()
        assert options["unroll_count"] == 4
        assert options["cycle_budget"] == 99
        assert (spec.backend, spec.label) == ("sim", "")

    def test_deviation_and_tolerance(self):
        record = replace(_record(), reference={"A": 40.0, "B": 2.0},
                         candidate={"A": 41.0, "B": 7.0, "C": 9.0})
        assert record.deviation == 5.0
        assert record_tolerance("analytic", record.reference) == 30.0
        assert record_tolerance("router", record.reference) == 2.0
        assert record_tolerance("batch", record.reference) == 0.0


# ----------------------------------------------------------------------
# The differential harness
# ----------------------------------------------------------------------
class TestDifferentialFuzzer:
    def test_exact_arms_agree_on_sample_kernels(self):
        fuzzer = DifferentialFuzzer(seed=0, jobs=1)
        for kernel in KernelGenerator(0, "default").iter_kernels(6):
            exact, serial, found = fuzzer.compare("fastpath",
                                                  fuzzer.spec(kernel))
            assert serial.error is None, kernel.provenance
            assert found is None, kernel.provenance
            assert exact.values == serial.values, kernel.provenance

    def test_analytic_arm_skips_cache_events(self):
        fuzzer = DifferentialFuzzer(seed=0, jobs=1)
        kernel = _kernel(asm="mov RAX, [R14]", asm_init="")
        serial, analytic, _ = fuzzer.compare("analytic", fuzzer.spec(kernel))
        assert "MEM_LOAD_RETIRED.L1_HIT" in serial.values
        assert "MEM_LOAD_RETIRED.L1_HIT" not in analytic.values
        assert "MEM_LOAD_RETIRED.L1_HIT" not in band_violations(
            serial.values, analytic.values, 0.0, 0.0)

    def test_small_campaign_finds_no_exact_divergence(self):
        result = DifferentialFuzzer(seed=0, jobs=2).run(20)
        assert result.stats.kernels == 20
        assert result.stats.invalid == 0
        assert result.exact_divergences == []
        assert result.coverage.quotas_met(tolerance=1.0 / 20)

    def test_exact_divergences_are_the_byte_equality_categories(self):
        records = [_record(category=category)
                   for category in ("fastpath", "batch", "analytic",
                                    "router")]
        result = FuzzResult(records=records, coverage=None, stats=None)
        assert [r.category for r in result.exact_divergences] \
            == ["fastpath", "batch"]

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

    def test_recheck_judges_a_router_record_by_the_router_band(self):
        # The audit saw this kernel deviate by 4.375 cycles against the
        # router's 0.5-cycle band; the fuzzer's band (16 cycles) would
        # call the backends in agreement.
        fuzzer = DifferentialFuzzer(seed=0, jobs=1)
        record = _record(category="router", asm="jnz fz1_0; lfence; fz1_0:",
                         asm_init="", unroll_count=1, loop_count=8)
        disagreement = fuzzer.recheck_record(record)
        assert disagreement is not None
        assert "Core cycles" in disagreement
        assert fuzzer.recheck_record(replace(record, category="analytic")) \
            is None

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
