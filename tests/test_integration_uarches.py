"""Cross-microarchitecture integration smoke tests.

Every Table I CPU (plus AMD Zen) must run the core measurement flows
end to end: basic latency/throughput, event multiplexing, the
simulator fast path and the user/kernel split.
"""

import pytest

from repro.core.nanobench import NanoBench
from repro.perfctr.events import event_catalog
from repro.uarch.specs import MICROARCHITECTURES, TABLE1_CPUS


@pytest.mark.parametrize("uarch", list(MICROARCHITECTURES))
class TestEveryUarch:
    def test_add_latency_is_one(self, uarch):
        nb = NanoBench.kernel(uarch, seed=0)
        result = nb.run(asm="add RAX, RAX", n_measurements=3)
        assert result["Core cycles"] == pytest.approx(1.0, abs=0.05)
        assert result["Instructions retired"] == pytest.approx(1.0)

    def test_l1_load_latency_matches_spec(self, uarch):
        nb = NanoBench.kernel(uarch, seed=0)
        result = nb.run(asm="mov R14, [R14]", asm_init="mov [R14], R14",
                        n_measurements=3)
        assert result["Core cycles"] == pytest.approx(
            nb.core.spec.l1.latency, abs=0.1
        )

    def test_reference_cycles_scaled(self, uarch):
        nb = NanoBench.kernel(uarch, seed=0)
        result = nb.run(asm="imul RAX, RAX", n_measurements=3)
        ratio = nb.core.spec.reference_clock_ratio
        assert result["Reference cycles"] == pytest.approx(
            result["Core cycles"] * ratio, abs=0.1
        )

    def test_event_catalog_measurable(self, uarch):
        nb = NanoBench.kernel(uarch, seed=0)
        spec = nb.core.spec
        catalog = event_catalog(spec.family, spec.n_cboxes)
        names = [name for name, e in catalog.items() if not e.uncore][:6]
        result = nb.run(asm="add RAX, RAX", events=names,
                        n_measurements=2)
        for name in names:
            assert name in result

    def test_wbinvd_kernel_only(self, uarch):
        from repro.errors import PrivilegeError

        nb = NanoBench.user(uarch, seed=0)
        with pytest.raises(PrivilegeError):
            nb.run(asm="wbinvd", unroll_count=1, n_measurements=1)


@pytest.mark.parametrize("uarch", TABLE1_CPUS)
def test_fast_mode_preserves_cache_counts(uarch):
    """The fast path (skipping a clean body's semantics) must not change
    cache hit counting, whether it engages or falls back."""
    def measure(asm, fast):
        nb = NanoBench.kernel(uarch, seed=1)
        nb.core.fast_path_enabled = fast
        result = nb.run(
            asm=asm,
            events=[_l1_hit_event(nb), "UOPS_ISSUED.ANY"],
            n_measurements=2,
            warm_up_count=1,
            fixed_counters=False,
        )
        return result, nb.core.sim_stats

    def _l1_hit_event(nb):
        prefix = ("MEM_LOAD_RETIRED"
                  if nb.core.spec.family in ("SKL", "NHM")
                  else "MEM_LOAD_UOPS_RETIRED")
        return "%s.L1_HIT" % prefix

    if MICROARCHITECTURES[uarch].family == "ZEN":
        pytest.skip("Zen uses different load events")
    # Loads make the body unclean: the fast path falls back.
    loads = "mov RAX, [R14]; mov RBX, [R14+64]; mov RCX, [R14]"
    exact, _ = measure(loads, fast=False)
    fast, stats = measure(loads, fast=True)
    assert stats.fast_path_instructions == 0 and stats.fallbacks > 0
    assert list(exact.values())[0] == pytest.approx(3.0)
    assert list(exact.values()) == pytest.approx(list(fast.values()))
    # A clean body: the fast path skips every copy after the first.
    clean = "add RAX, RBX; imul RCX, RCX; xor RDX, RSI"
    exact, _ = measure(clean, fast=False)
    fast, stats = measure(clean, fast=True)
    assert stats.fast_path_instructions > 0
    assert list(exact.values()) == pytest.approx(list(fast.values()))


def test_uncore_counters_count_l3_traffic():
    nb = NanoBench.kernel("Skylake", seed=2)
    # CLFLUSH forces every load to travel through its L3 slice, so the
    # C-Box lookup counters see exactly one event per copy (warm-up
    # removes the cold-start traffic of the measurement buffer itself).
    result = nb.run(
        asm="clflush [R14+4096]; mov RAX, [R14+4096]",
        events=["CBOX0_LLC_LOOKUP.ANY", "CBOX1_LLC_LOOKUP.ANY"],
        n_measurements=2,
        unroll_count=1,
        warm_up_count=1,
        basic_mode=True,
        fixed_counters=False,
    )
    values = list(result.values())
    assert sum(values) == pytest.approx(1.0, abs=0.05)
    assert min(values) == pytest.approx(0.0, abs=0.05)
