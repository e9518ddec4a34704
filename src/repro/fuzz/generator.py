"""Seeded, coverage-quota-driven kernel generator.

Every kernel is a pure function of ``(seed, profile, index)``: the
per-axis buckets come from the deterministic quota schedulers (so a
campaign hits its coverage targets by construction), and all remaining
choices (mnemonics, registers, immediates, overlay positions) come from
a ``random.Random`` seeded with exactly that triple.  Two generators
with the same seed and profile produce bit-identical kernels, which is
what makes divergence reports one-line reproducible.

Generated kernels are *valid by construction*: they only use mnemonics
with both functional semantics and timing information on every
supported family, only write registers outside nanoBench's reserved
set (R14/RSI/RDI/RBP/RSP are used as memory-area pointers only, R15 is
the loop register), avoid fault-raising instructions (DIV/IDIV can
raise #DE on generator-evolved register state), keep branch targets
forward and in-program, and pair label-carrying kernels with
``unroll_count=1`` + ``loop_count`` (the simulator refuses to unroll
labelled code).  :meth:`GeneratedKernel.validate` re-checks this
against the real pre-flight layer, tagging any rejection with the
kernel's provenance so a generator bug is a reproducible one-liner.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, Iterator, List, Sequence, Tuple

from ..integrity.preflight import assert_valid
from ..x86.assembler import assemble
from ..x86.instructions import Program
from .quota import AXES, CoverageTracker, QuotaProfile, get_profile

#: General-purpose registers the fuzzer may read and write freely
#: (nanoBench reserves R14/RSI/RDI/RBP/RSP as area pointers and R15 as
#: the loop counter).
GPR_POOL = ("RAX", "RBX", "RCX", "RDX", "R8", "R9", "R10", "R11")
XMM_POOL = ("XMM1", "XMM2", "XMM3", "XMM4", "XMM5", "XMM6", "XMM7")

#: Bits of the IEEE double 1.5 — the corpus' safe FP initial value.
_FP_BITS = 4609434218613702656

_ALU_BINARY = ("add", "sub", "and", "or", "xor", "adc", "sbb")
_ALU_UNARY = ("inc", "dec", "neg", "not")
_MUL_LIKE = ("imul", "popcnt", "bsf", "bsr")
_SHIFTS = ("shl", "shr", "sar", "rol", "ror")
_VEC_INT = ("pxor", "pand", "por", "paddd", "paddq", "psubd", "pmulld")
_VEC_FP = ("addpd", "mulpd", "addps", "mulps", "subpd", "addsd", "mulsd")
_FENCES = ("lfence", "mfence", "sfence")
_CONDITIONS = ("z", "nz", "s", "ns", "b", "o")


@dataclass(frozen=True)
class GeneratedKernel:
    """One fuzz kernel: code, init, run options, and its provenance."""

    seed: int
    index: int
    profile: str
    #: ``(axis, bucket)`` pairs, in canonical axis order.
    buckets: Tuple[Tuple[str, str], ...]
    asm: str
    asm_init: str
    unroll_count: int
    loop_count: int

    @property
    def bucket_map(self) -> Dict[str, str]:
        return dict(self.buckets)

    @property
    def provenance(self) -> str:
        """One-line reproduction key: regenerate with these exact knobs."""
        buckets = ",".join(
            "%s=%s" % (axis, bucket) for axis, bucket in self.buckets
        )
        return "fuzz seed=%d profile=%s kernel=%d [%s]" % (
            self.seed, self.profile, self.index, buckets
        )

    def run_options(self) -> Dict[str, object]:
        """``NanoBench.run`` option overrides for this kernel.

        One warm-up run keeps the caches warm across the two-run
        overhead cancellation: without it a memory kernel's first run
        eats the compulsory misses, the doubled run hits, and the
        subtraction goes (deterministically) negative — real simulator
        behavior, but meaningless to compare against a model with no
        cache state.
        """
        return {
            "unroll_count": self.unroll_count,
            "loop_count": self.loop_count,
            "n_measurements": 2,
            "warm_up_count": 1,
            "aggregate": "avg",
        }

    def program(self) -> Program:
        """Assemble the kernel, tagged with its fuzz provenance."""
        program = assemble(self.asm)
        program.__dict__["fuzz_provenance"] = self.provenance
        return program

    def init_program(self) -> Program:
        program = assemble(self.asm_init)
        program.__dict__["fuzz_provenance"] = self.provenance
        return program

    def validate(self, *, kernel_mode: bool = True, timing_table=None) -> None:
        """Run the real pre-flight layer over code and init.

        Raises :class:`~repro.errors.ValidationError` whose message
        carries this kernel's seed/quota provenance (a generator bug
        surfaces as a reproducible one-liner, not a mystery kernel).
        """
        assert_valid(self.init_program(), kernel_mode=kernel_mode,
                     timing_table=timing_table, what="fuzz init code")
        assert_valid(self.program(), kernel_mode=kernel_mode,
                     timing_table=timing_table, what="fuzz benchmark code")


class KernelGenerator:
    """Deterministic quota-scheduled kernel stream."""

    def __init__(self, seed: int = 0,
                 profile: "QuotaProfile | str" = "default") -> None:
        self.seed = seed
        self.profile = (get_profile(profile) if isinstance(profile, str)
                        else profile)
        self.profile.validate()
        self.coverage = CoverageTracker(self.profile)
        self._next_index = 0

    # ------------------------------------------------------------------
    def generate(self, count: int) -> List[GeneratedKernel]:
        return [self.next_kernel() for _ in range(count)]

    def iter_kernels(self, count: int) -> Iterator[GeneratedKernel]:
        for _ in range(count):
            yield self.next_kernel()

    def next_kernel(self) -> GeneratedKernel:
        index = self._next_index
        self._next_index += 1
        buckets = self.coverage.next_buckets()
        return self.build_kernel(index, buckets)

    # ------------------------------------------------------------------
    def build_kernel(self, index: int,
                     buckets: Dict[str, str]) -> GeneratedKernel:
        """Build kernel *index* from already-scheduled *buckets*.

        Seeding with the ``(seed, profile, index)`` string triple uses
        the version-stable string-seeding path of :class:`random.Random`,
        so a kernel regenerates identically across runs and Python
        versions.
        """
        rng = Random("%d/%s/%d" % (self.seed, self.profile.name, index))
        statements, uses = self._body(index, buckets, rng)
        init = self._init(uses, rng)
        has_labels = buckets["branch_behavior"] != "none"
        return GeneratedKernel(
            seed=self.seed,
            index=index,
            profile=self.profile.name,
            buckets=tuple((axis, buckets[axis]) for axis in AXES),
            asm="; ".join(statements),
            asm_init="; ".join(init),
            # The simulator cannot unroll labelled code: branchy
            # kernels repeat through the loop register instead.
            unroll_count=1 if has_labels else 4,
            loop_count=8 if has_labels else 0,
        )

    # ------------------------------------------------------------------
    def _body(self, index: int, buckets: Dict[str, str],
              rng: Random) -> Tuple[List[str], Dict[str, set]]:
        uses: Dict[str, set] = {"gpr": set(), "xmm": set(), "chase": set()}
        length = rng.randint(self.profile.min_length,
                             self.profile.max_length)
        klass = buckets["instruction_class"]
        shape = buckets["dependency_shape"]
        statements = [
            self._compute_statement(klass, shape, slot, rng, uses)
            for slot in range(length)
        ]
        self._overlay_memory(statements, buckets["memory_pattern"], rng, uses)
        self._overlay_fences(statements, buckets["fence_density"], rng, uses)
        self._overlay_branch(statements, buckets["branch_behavior"],
                             index, rng, uses)
        return statements, uses

    # -- register selection by dependency shape -------------------------
    @staticmethod
    def _dest_src(shape: str, slot: int,
                  pool: Sequence[str]) -> Tuple[str, str]:
        n = len(pool)
        if shape == "chain":
            # Every statement reads and writes the accumulator.
            return pool[0], pool[1 + slot % (n - 1)]
        if shape == "independent":
            # Rotating disjoint destination/source streams.
            return pool[slot % n], pool[(slot + 3) % n]
        # "tree": leaves write a wide set of registers, later levels
        # narrow toward pool[0] — a reduction-tree dataflow.
        width = max(1, min(4, n // 2) >> (slot // 4))
        return pool[slot % width], pool[(n // 2) + slot % (n - n // 2)]

    def _compute_statement(self, klass: str, shape: str, slot: int,
                           rng: Random, uses: Dict[str, set]) -> str:
        if klass == "vector":
            dest, src = self._dest_src(shape, slot, XMM_POOL)
            uses["xmm"].update((dest, src))
            mnemonic = rng.choice(_VEC_INT + _VEC_FP)
            return "%s %s, %s" % (mnemonic, dest, src)
        dest, src = self._dest_src(shape, slot, GPR_POOL)
        uses["gpr"].update((dest, src))
        if klass == "alu":
            form = rng.random()
            if form < 0.5:
                return "%s %s, %s" % (rng.choice(_ALU_BINARY), dest, src)
            if form < 0.8:
                return "%s %s, %d" % (rng.choice(_ALU_BINARY), dest,
                                      rng.randint(1, 255))
            return "%s %s" % (rng.choice(_ALU_UNARY), dest)
        if klass == "mul":
            return "%s %s, %s" % (rng.choice(_MUL_LIKE), dest, src)
        if klass == "shift":
            return "%s %s, %d" % (rng.choice(_SHIFTS), dest,
                                  rng.randint(1, 7))
        if klass == "lea":
            form = rng.random()
            if form < 0.35:
                return "lea %s, [%s+%s]" % (dest, dest, src)
            if form < 0.70:
                return "lea %s, [%s+%s+%d]" % (dest, dest, src,
                                               rng.randint(1, 4096))
            return "lea %s, [%s*%d+%d]" % (dest, src,
                                           rng.choice((2, 4, 8)),
                                           rng.randint(0, 4096))
        # "mov": moves, exchanges and flag-conditional moves.
        form = rng.random()
        if form < 0.35:
            return "mov %s, %s" % (dest, src)
        if form < 0.55:
            return "mov %s, %d" % (dest, rng.randint(1, 1 << 30))
        if form < 0.75:
            return "xchg %s, %s" % (dest, src)
        return "cmov%s %s, %s" % (rng.choice(_CONDITIONS), dest, src)

    # -- overlays -------------------------------------------------------
    @staticmethod
    def _spread_positions(n_slots: int, count: int) -> List[int]:
        """Evenly spaced insertion points, later positions first (so
        earlier insertions do not shift later ones)."""
        if count <= 0:
            return []
        step = max(1, n_slots // count)
        positions = [min(n_slots, i * step + step // 2)
                     for i in range(count)]
        return sorted(set(positions), reverse=True)

    def _overlay_memory(self, statements: List[str], pattern: str,
                        rng: Random, uses: Dict[str, set]) -> None:
        if pattern == "none":
            return
        count = max(1, len(statements) // 3)
        positions = self._spread_positions(len(statements), count)
        for order, position in enumerate(positions):
            dest = GPR_POOL[order % len(GPR_POOL)]
            uses["gpr"].add(dest)
            if pattern == "stream":
                offset = 8 * order
                op = rng.choice(("mov %s, [R14+%d]", "add %s, [R14+%d]"))
                statement = op % (dest, offset)
            elif pattern == "strided":
                offset = 192 * order
                statement = "mov %s, [R14+%d]" % (dest, offset)
            elif pattern == "pointer_chase":
                uses["chase"].add("R14")
                statement = "mov R14, [R14]"
            else:  # "mixed": store/load pairs over disjoint lines
                offset = 64 * order
                if order % 2 == 0:
                    statement = "mov [R14+%d], %s" % (offset, dest)
                else:
                    statement = "mov %s, [R14+%d]" % (dest, offset)
            statements.insert(position, statement)

    def _overlay_fences(self, statements: List[str], density: str,
                        rng: Random, uses: Dict[str, set]) -> None:
        if density == "none":
            return
        if density == "sparse":
            count = 1
        else:
            count = max(2, len(statements) // 3)
        positions = self._spread_positions(len(statements), count)
        for position in positions:
            if density == "dense" and rng.random() < 0.25:
                # CPUID: serializing, microcoded, latency-jittered —
                # the adversarial case for every fast path.
                fence = "cpuid"
                uses["gpr"].update(("RAX", "RBX", "RCX", "RDX"))
            else:
                fence = rng.choice(_FENCES)
            statements.insert(position, fence)

    def _overlay_branch(self, statements: List[str], behavior: str,
                        index: int, rng: Random,
                        uses: Dict[str, set]) -> None:
        if behavior == "none":
            return
        label = "fz%d_0" % index
        position = rng.randint(0, max(0, len(statements) - 2))
        skip = min(rng.randint(1, 2), len(statements) - position)
        # Insert the landing label first (higher position), then the
        # branch, so indices stay valid.  Targets are always forward —
        # a generated kernel can never loop unboundedly on its own.
        statements.insert(position + skip, "%s:" % label)
        if behavior == "forward_jmp":
            statements.insert(position, "jmp %s" % label)
        else:  # "conditional": flag-dependent forward branch
            flag_reg = GPR_POOL[rng.randrange(len(GPR_POOL))]
            uses["gpr"].add(flag_reg)
            statements.insert(position, "j%s %s"
                              % (rng.choice(_CONDITIONS), label))
            statements.insert(position, "test %s, %s" % (flag_reg, flag_reg))

    # -- initialisation -------------------------------------------------
    def _init(self, uses: Dict[str, set], rng: Random) -> List[str]:
        """Initialisation for every register the kernel touches.

        Order matters: vector registers load the FP pattern from
        ``[R14]`` *before* the pointer-chase init stores the self
        pointer there, and GPR inits come after the FP block because it
        clobbers RAX.
        """
        init: List[str] = []
        if uses["xmm"]:
            init.append("mov RAX, %d" % _FP_BITS)
            init.append("mov [R14], RAX")
            init.append("mov [R14+8], RAX")
            for xmm in sorted(uses["xmm"]):
                init.append("movq %s, [R14]" % xmm)
        for gpr in sorted(uses["gpr"]):
            init.append("mov %s, %d" % (gpr, rng.randint(1, 511)))
        if uses["chase"]:
            init.append("mov [R14], R14")
        return init
