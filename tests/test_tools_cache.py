"""Tests for the case-study-II cache-analysis tools.

End-to-end property throughout: the tools must *recover the configured
ground truth* of the simulated CPUs.
"""

import random

import pytest

from repro.core.nanobench import NanoBench
from repro.errors import AnalysisError
from repro.memory.replacement import (
    PLRU,
    PermutationPolicy,
    make_policy,
    simulate_hits,
)
from repro.tools.cache import (
    AddressBuilder,
    CacheSeq,
    PermutationInference,
    PolicyIdentifier,
    compute_age_graph,
    disable_prefetchers,
    find_distinguishing_sequence,
    parse_sequence,
    policies_equivalent,
    render_age_graph,
)


def _kernel_nb(uarch="Skylake", seed=3, buffer_mb=64):
    nb = NanoBench.kernel(uarch, seed=seed)
    disable_prefetchers(nb.core)
    nb.resize_r14_buffer(buffer_mb << 20)
    return nb


@pytest.fixture(scope="module")
def nb():
    return _kernel_nb()


class TestSequenceDsl:
    def test_parse(self):
        seq = parse_sequence("<wbinvd> B0 B1 B0!")
        assert seq.wbinvd
        assert [a.block for a in seq.accesses] == ["B0", "B1", "B0"]
        assert [a.measured for a in seq.accesses] == [False, False, True]

    def test_blocks_in_first_use_order(self):
        seq = parse_sequence("B2 B0 B2 B1")
        assert seq.blocks == ("B2", "B0", "B1")

    def test_wbinvd_must_lead(self):
        with pytest.raises(AnalysisError):
            parse_sequence("B0 <wbinvd>")

    def test_str_roundtrip(self):
        text = "<wbinvd> B0 B1! B0"
        assert str(parse_sequence(text)) == text


class TestAddressBuilder:
    def test_blocks_map_to_requested_set(self, nb):
        builder = AddressBuilder(nb)
        for level in (1, 2, 3):
            blocks = builder.blocks_for_set(level, 9, 6)
            assert len(set(blocks)) == 6
            for block in blocks:
                assert builder.locate(level, block)[1] == 9

    def test_slice_filtering(self, nb):
        builder = AddressBuilder(nb)
        blocks = builder.blocks_for_set(3, 9, 6, slice_id=1)
        for block in blocks:
            assert builder.locate(3, block) == (1, 9)

    def test_eviction_buffer_avoids_target(self, nb):
        builder = AddressBuilder(nb)
        eviction = builder.eviction_buffer(3, 9, slice_id=0)
        assert len(eviction) >= 8
        for block in eviction:
            assert builder.locate(3, block) != (0, 9)

    def test_eviction_buffer_shares_upper_sets(self, nb):
        builder = AddressBuilder(nb)
        target = builder.blocks_for_set(3, 9, 1, slice_id=0)[0]
        for block in builder.eviction_buffer(3, 9, slice_id=0):
            assert builder.locate(1, block)[1] == builder.locate(1, target)[1]
            assert builder.locate(2, block)[1] == builder.locate(2, target)[1]

    def test_out_of_range_set(self, nb):
        with pytest.raises(AnalysisError):
            AddressBuilder(nb).blocks_for_set(1, 9999, 1)

    def test_requires_kernel_variant(self):
        with pytest.raises(AnalysisError):
            AddressBuilder(NanoBench.user("Skylake"))


class TestCacheSeq:
    def test_l1_hits_counted(self, nb):
        cache_seq = CacheSeq(nb, level=1)
        assert cache_seq.hits("<wbinvd> B0 B0!", set_index=3) == 1
        assert cache_seq.hits("<wbinvd> B0!", set_index=3) == 0

    def test_l1_eviction_by_conflicts(self, nb):
        cache_seq = CacheSeq(nb, level=1)  # 8-way PLRU
        blocks = " ".join("B%d" % i for i in range(12))
        assert cache_seq.hits("<wbinvd> B0 %s B0!" % blocks,
                              set_index=3) == 0

    def test_l3_reaccess_reaches_l3(self, nb):
        cache_seq = CacheSeq(nb, level=3)
        # B0 is re-accessed immediately: without the automatic eviction
        # buffer it would hit L1, which the direct engine rejects.
        assert cache_seq.hits("<wbinvd> B0 B0!", set_index=5,
                              slice_id=0) == 1

    def test_multi_set_sums(self, nb):
        cache_seq = CacheSeq(nb, level=1)
        result = cache_seq.run("<wbinvd> B0 B0!", sets=[1, 2, 3, 4])
        assert result.hits == 4

    def test_engines_agree(self, nb):
        """The nanobench engine (full measurement pipeline) and the
        direct engine must produce identical hit counts."""
        rng = random.Random(9)
        direct = CacheSeq(nb, level=1, engine="direct")
        nano = CacheSeq(nb, level=1, engine="nanobench")
        names = ["B%d" % i for i in range(10)]
        for trial in range(6):
            blocks = [rng.choice(names) for _ in range(14)]
            text = "<wbinvd> " + " ".join(b + "!" for b in blocks)
            assert direct.hits(text, set_index=7) == nano.hits(
                text, set_index=7
            ), "engines disagree on %s" % text

    def test_engines_agree_l2(self, nb):
        direct = CacheSeq(nb, level=2, engine="direct")
        nano = CacheSeq(nb, level=2, engine="nanobench")
        text = "<wbinvd> B0 B1 B2 B3 B4 B0! B1! B5 B2!"
        assert direct.hits(text, set_index=11) == nano.hits(
            text, set_index=11
        )

    @pytest.mark.parametrize("uarch, set_index, slice_id", [
        ("Skylake", 21, 1),   # QLRU, a nonzero slice
        ("Haswell", 530, 0),  # set-dueling L3, a policy-A dedicated set
    ])
    def test_engines_agree_l3(self, nb, uarch, set_index, slice_id):
        l3_nb = nb if uarch == "Skylake" else _kernel_nb(uarch)
        spec = l3_nb.core.spec.l3
        if spec.dueling is not None:
            assert spec.dueling.classify(slice_id, set_index) == "A"
        direct = CacheSeq(l3_nb, level=3, engine="direct")
        nano = CacheSeq(l3_nb, level=3, engine="nanobench")
        rng = random.Random(uarch)
        names = ["B%d" % i for i in range(spec.associativity + 2)]
        blocks = [rng.choice(names) for _ in range(2 * spec.associativity)]
        text = "<wbinvd> " + " ".join(b + "!" for b in names + blocks)
        hits = direct.hits(text, set_index=set_index, slice_id=slice_id)
        assert hits > 0
        assert nano.hits(text, set_index=set_index,
                         slice_id=slice_id) == hits


class TestPermutationInference:
    def test_l1_plru_recovered(self, nb):
        inference = PermutationInference(
            CacheSeq(nb, level=1), set_index=5
        )
        spec = inference.infer()
        # Behavioural equivalence with ground-truth PLRU on warm
        # suffixes (the model cannot and need not capture cold fill).
        assert inference.validate(spec, n_sequences=30)

    def test_l2_qlru_rejected(self, nb):
        """The Skylake L2's QLRU is not a permutation policy: the
        inference must fail rather than return a wrong model."""
        inference = PermutationInference(
            CacheSeq(nb, level=2), set_index=5
        )
        with pytest.raises(AnalysisError):
            inference.infer()

    def test_high_associativity_rejected(self, nb):
        with pytest.raises(AnalysisError):
            PermutationInference(CacheSeq(nb, level=3), set_index=0)


class TestPolicyIdentifier:
    def test_skylake_l2(self, nb):
        identifier = PolicyIdentifier(CacheSeq(nb, level=2), set_index=17)
        result = identifier.identify(60)
        assert result.policy == "QLRU_H00_M1_R2_U1"  # Table I
        assert result.unique

    def test_skylake_l3(self, nb):
        identifier = PolicyIdentifier(
            CacheSeq(nb, level=3), set_index=100, slice_id=0
        )
        result = identifier.identify(60)
        assert "QLRU_H11_M1_R0_U0" in result.survivors  # Table I
        assert result.equivalent  # only behaviourally equal variants left

    def test_check_policy_and_counterexample(self, nb):
        identifier = PolicyIdentifier(
            CacheSeq(nb, level=2), set_index=30,
            rng=random.Random(5),
        )
        assert identifier.check_policy("QLRU_H00_M1_R2_U1")
        counterexample = identifier.find_counterexample("LRU")
        assert counterexample is not None
        blocks, simulated, measured = counterexample
        assert simulated != measured

    def test_equivalence_helper(self):
        # Section VI-B2: R0 and R1 are equivalent in combination with U0.
        assert policies_equivalent(
            "QLRU_H11_M1_R0_U0", "QLRU_H11_M1_R1_U0", 8
        )
        assert not policies_equivalent("LRU", "FIFO", 8)

    def test_distinguishing_sequence(self):
        blocks = find_distinguishing_sequence("LRU", "FIFO", 4)
        lru = simulate_hits(make_policy("LRU", 4), blocks)
        fifo = simulate_hits(make_policy("FIFO", 4), blocks)
        assert lru != fifo


class TestAgeGraph:
    def test_deterministic_policy_step_function(self, nb):
        """On the deterministic Skylake L3 policy, a block is either in
        every set's cache or in none: hits are 0 or n_sets."""
        cache_seq = CacheSeq(nb, level=3)
        sets = list(range(32, 40))
        graph = compute_age_graph(
            cache_seq, ["B0", "B1"], n_values=[0, 4, 40],
            sets=sets, slice_id=0,
        )
        for block in ("B0", "B1"):
            assert all(v in (0, len(sets)) for v in graph.hits[block])
            assert graph.hits[block][0] == len(sets)  # n=0: still cached
            assert graph.hits[block][-1] == 0         # n=40: evicted

    def test_render(self, nb):
        cache_seq = CacheSeq(nb, level=3)
        graph = compute_age_graph(
            cache_seq, ["B0"], n_values=[0, 8], sets=[3], slice_id=0,
        )
        text = render_age_graph(graph)
        assert "fresh blocks" in text and "B0" in text
