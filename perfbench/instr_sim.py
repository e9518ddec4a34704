"""``instr-sim``: case study I, the uops.info-style instruction sweep.

Each Skylake corpus variant (kernel-only ones excluded) expands to its
four measurement specs (latency, throughput, µops, ports) on the exact
``sim`` backend; the specs stream through ``BatchRunner(jobs=1)`` with
no store.  One op is one spec.

Each round is one pass over the whole corpus in an order drawn from the
seed, and a timed phase ends only at the end of a pass.  Every run thus
measures the same multiset of specs: the per-spec costs differ by 10x,
so a seed-dependent sample would move the median by more than a
regression worth catching.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence

from harness import InProcessWorkload, digest

UARCH = "Skylake"
#: Variants run untimed before the timed phase.
WARM_UP_VARIANTS = 2


def corpus():
    """The benchmarked variants, in corpus order."""
    from repro.tools.instr.corpus import corpus_for_family

    return [v for v in corpus_for_family("SKL") if not v.kernel_only]


def corpus_digest(variants) -> str:
    return digest([[v.name, v.init_asm, v.latency_asm, v.throughput_asm]
                   for v in variants])


def corpus_passes(names: Sequence[str], seed) -> Iterator[List[str]]:
    """Endless passes over *names*, each in a fresh order drawn from
    *seed*: a pure function of the seed."""
    rng = random.Random("corpus-pass:%s" % seed)
    while True:
        yield rng.sample(list(names), len(names))


def output_record(result) -> tuple:
    """``(label, digest, per-op counts)`` of one batch result."""
    out = digest({"values": result.values, "error": result.error})
    counts = (result.sim_instructions, result.fast_path_instructions,
              result.fast_path_fallbacks,
              result.assemble_hits + result.generate_hits,
              result.assemble_misses + result.generate_misses)
    return (result.spec.label, out, counts)


class InstrSim(InProcessWorkload):
    name = "instr-sim"

    def setup(self) -> None:
        from repro.batch import BatchRunner
        from repro.core.nanobench import NanoBench
        from repro.tools.instr.measure import variant_specs

        self._runner_cls = BatchRunner
        self._variant_specs = variant_specs
        self.variants = {v.name: v for v in corpus()}
        # Core construction: what every op pays again, done once here.
        NanoBench.create(UARCH, 0)

    def config(self) -> Dict[str, object]:
        return {"uarch": UARCH, "variants": len(self.variants),
                "backend": "sim", "jobs": 1,
                "corpus_digest": corpus_digest(self.variants.values())}

    def _specs(self, names: Sequence[str]):
        specs = []
        for name in names:
            specs.extend(self._variant_specs(self.variants[name], UARCH,
                                             seed=0))
        return specs

    def _run(self, names: Sequence[str]) -> Iterator[tuple]:
        runner = self._runner_cls(jobs=1)
        for result in runner.iter_results(self._specs(names)):
            yield output_record(result)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Empty the codegen caches, so a timed pass starts cold."""
        from repro.core.codecache import clear_caches

        clear_caches()

    def warm_up(self) -> Iterator[tuple]:
        return self._run(sorted(self.variants)[:WARM_UP_VARIANTS])

    def rounds(self) -> Iterator[Iterator[tuple]]:
        for names in corpus_passes(sorted(self.variants), self.seed):
            yield self._run(names)

    # ------------------------------------------------------------------
    @staticmethod
    def output_key(output) -> tuple:
        return output[:2]

    def check(self, outputs, shipped: bool = True) -> Dict[str, int]:
        """Compare every op with the committed per-spec digest (which
        covers every spec the workload can draw, whatever the seed)."""
        expected = self.reference.get("outputs", {})
        failed = unchecked = 0
        for label, out, _counts in outputs:
            want = expected.get(label)
            if want is None:
                unchecked += 1
            elif want != out:
                failed += 1
        return {"failed": failed, "unchecked": unchecked}

    @staticmethod
    def per_op_counts(outputs) -> Dict[str, float]:
        n = max(1, len(outputs))
        sums = [sum(o[2][i] for o in outputs) for i in range(5)]
        instructions, fast, fallbacks, hits, misses = sums
        return {
            "uarch.instructions": instructions / n,
            "uarch.fast_path_share": fast / instructions if instructions
            else 0.0,
            "uarch.fallbacks": fallbacks / n,
            "codegen.hit_ratio": hits / (hits + misses) if hits + misses
            else 0.0,
        }
