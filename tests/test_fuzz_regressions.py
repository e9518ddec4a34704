"""Pinned divergence regressions: replay the committed fuzz corpus.

``tests/data/fuzz_divergences.jsonl`` holds every divergence past fuzz
campaigns and router audits confirmed, each with the spec it diverged
on.  Each category pins a different promise:

* **fastpath** / **batch** records were *bugs* (those comparisons must
  be byte-identical); a pinned kernel must never diverge again.
* **analytic** and **router** records are *known model gaps* (e.g. a
  static model cannot know a conditional branch skips the fence behind
  it, or that a read-modify-write waits on its own store); the
  divergence must still reproduce under the record's band — when a
  model improvement closes the gap, this fails loudly so the stale
  record gets retired.
"""

import os

import pytest

from repro.fuzz import CATEGORIES, DifferentialFuzzer, load_corpus
from repro.fuzz.differential import COMPARISONS
from repro.integrity import assert_valid
from repro.x86.assembler import assemble

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "fuzz_divergences.jsonl")

RECORDS = load_corpus(CORPUS_PATH)

assert RECORDS, "committed fuzz corpus must not be empty"

FUZZER = DifferentialFuzzer(jobs=2, shrink=False)

EXACT = [r for r in RECORDS if COMPARISONS[r.category].band is None]
MODEL_GAPS = [r for r in RECORDS if r.category in ("analytic", "router")]


def _ids(records):
    return ["%s-%s" % (r.category, r.digest[:12]) for r in records]


class TestCorpusIntegrity:
    # load_corpus refuses a line whose digest does not match its spec,
    # so RECORDS loading at all checks every pinned digest.

    @pytest.mark.parametrize("record", RECORDS, ids=_ids(RECORDS))
    def test_pinned_kernel_still_validates(self, record):
        spec = record.spec
        for what, asm in (("init", spec.asm_init), ("code", spec.asm)):
            assert_valid(assemble(asm), kernel_mode=spec.kernel_mode,
                         what=what)

    def test_corpus_is_sorted_and_unique(self):
        keys = [(r.category, r.digest) for r in RECORDS]
        assert keys == sorted(set(keys),
                              key=lambda k: (CATEGORIES.index(k[0]), k[1]))

    def test_every_category_has_one_comparison(self):
        assert set(COMPARISONS) == set(CATEGORIES)

    def test_both_model_gap_bands_are_pinned(self):
        assert {r.category for r in MODEL_GAPS} == {"analytic", "router"}


class TestPinnedDivergences:
    @pytest.mark.parametrize("record", EXACT, ids=_ids(EXACT))
    def test_exact_divergence_stays_fixed(self, record):
        disagreement = FUZZER.recheck_record(record)
        assert disagreement is None, (
            "pinned %s divergence reproduces again (%s): %s"
            % (record.category, record.provenance, disagreement)
        )

    @pytest.mark.parametrize("record", MODEL_GAPS, ids=_ids(MODEL_GAPS))
    def test_known_model_gap_still_reproduces(self, record):
        disagreement = FUZZER.recheck_record(record)
        assert disagreement is not None, (
            "pinned %s gap no longer diverges (%s) — the model "
            "improved; retire this record from the corpus"
            % (record.category, record.provenance)
        )
