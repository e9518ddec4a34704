"""Regenerate ``perfbench/data/reference.json``.

Usage (from the repository root; takes a few minutes)::

    python3 perfbench/make_reference.py

Writes, from the program as it is now:

* ``instr-sim``: the output digest of every spec the workload can draw
  (all corpus variants x four measurements, machine seed 0);
* ``service-routed``: the output digest of every fresh job of the first
  passes (the same for every run seed), computed in-process on the
  ``auto`` backend the server routes to;
* ``cache-seq``: the per-op output digests of the first ops of each
  shipped seed.

Run it only when a change is meant to alter results or the corpus; the
benchmark then checks every later run against the new file.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from cache_seq import CacheSeqWorkload, op_rounds, output_digest  # noqa: E402
from harness import REFERENCE_PATH, digest  # noqa: E402
from instr_sim import UARCH, corpus, corpus_digest, output_record  # noqa: E402
from service import (  # noqa: E402
    REFERENCE_PASSES,
    fresh_key,
    fresh_seed,
    job_digest,
)

SHIPPED_SEEDS = (1, 2, 3)
CACHE_SEQ_OPS = 3000


def instr_sim_reference() -> dict:
    from repro.batch import BatchRunner
    from repro.tools.instr.measure import variant_specs

    variants = corpus()
    specs = [spec for variant in variants
             for spec in variant_specs(variant, UARCH, seed=0)]
    outputs = {}
    for result in BatchRunner(jobs=1).iter_results(specs):
        label, out, _ = output_record(result)
        outputs[label] = out
    return {"corpus_digest": corpus_digest(variants),
            "outputs": dict(sorted(outputs.items()))}


def service_reference() -> dict:
    from repro.tools.instr.measure import variant_specs

    fresh = {}
    for pass_index in range(REFERENCE_PASSES):
        for variant in corpus():
            seed = fresh_seed(pass_index, variant.name)
            specs = variant_specs(variant, UARCH, seed=seed, backend="auto")
            outcomes = [(None, True, None, False, spec.execute().values)
                        for spec in specs]
            fresh[fresh_key(variant.name, seed)] = job_digest(outcomes)
    return {"fresh": dict(sorted(fresh.items()))}


def cache_seq_reference() -> dict:
    bench = CacheSeqWorkload(0, {})
    bench.setup()
    seeds = {}
    for seed in SHIPPED_SEEDS:
        ops = itertools.chain.from_iterable(op_rounds(seed))
        outputs = bench._run(list(itertools.islice(ops, CACHE_SEQ_OPS)))
        seeds[str(seed)] = [output_digest(hits, misses)
                            for _op, hits, misses in outputs]
    return {"seeds": seeds}


def main() -> int:
    reference = {
        "version": 1,
        "instr-sim": instr_sim_reference(),
        "service-routed": service_reference(),
        "cache-seq": cache_seq_reference(),
    }
    REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print("wrote %s (%s)" % (REFERENCE_PATH, digest(reference)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
