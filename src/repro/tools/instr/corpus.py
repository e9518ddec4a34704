"""The instruction corpus for case study I (Section V).

Each :class:`InstructionVariant` bundles the three benchmark forms the
characterization needs:

* a *latency* benchmark — a dependency chain through a specific
  input/output operand pair (registers or status flags), with optional
  helper instructions whose known latency is subtracted;
* a *throughput* benchmark — independent instances spread over a
  register pool;
* initialisation code (Section V: "an initialization sequence is often
  needed to, e.g., set registers or memory locations to specific
  values, for example, valid floating[-point] numbers").

The real tool covers > 12,000 variants; this corpus spans the same axes
(operand widths, reg/imm/mem forms, implicit flag dependencies, SSE/AVX
classes, privileged instructions) with a few hundred representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: Registers safe for benchmark use (nanoBench reserves R14/R15 etc.).
GPR_POOL = ("RAX", "RBX", "RCX", "RDX", "R8", "R9", "R10", "R11")
GPR32_POOL = ("EAX", "EBX", "ECX", "EDX", "R8D", "R9D", "R10D", "R11D")
XMM_POOL = tuple("XMM%d" % i for i in range(1, 14))
YMM_POOL = tuple("YMM%d" % i for i in range(1, 14))
ZMM_POOL = tuple("ZMM%d" % i for i in range(1, 14))

#: Init sequence placing the double 1.5 into every pool vector register.
_FP_INIT = (
    "mov RAX, 4609434218613702656"      # bits of 1.5 as an IEEE double
    "; mov [R14], RAX; mov [R14+8], RAX"
)


def _fp_init_for(pool: Sequence[str]) -> str:
    parts = [_FP_INIT]
    for reg in pool:
        xmm = "XMM" + reg.lstrip("XYZM")
        parts.append("movq %s, [R14]" % xmm)
    return "; ".join(parts)


@dataclass(frozen=True)
class InstructionVariant:
    """One (mnemonic, operand-shape) point of the characterization."""

    name: str                 # display name, e.g. "ADD (R64, R64)"
    mnemonic: str
    operands: str             # shape summary, e.g. "r64, r64"
    latency_asm: str          # one chain link
    throughput_asm: str       # independent instances, ';'-separated
    throughput_instances: int
    init_asm: str = ""
    latency_adjust: float = 0.0   # helper-latency to subtract
    latency_divisor: float = 1.0  # chain links per latency_asm unit
    latency_pair: str = "dst -> dst"  # which operand pair the chain uses
    kernel_only: bool = False
    unsupported_families: Tuple[str, ...] = ()

    def supported_on(self, family: str) -> bool:
        return family not in self.unsupported_families


def _spread(template: str, pool: Sequence[str], count: int) -> str:
    """Instantiate *template* over *pool* registers.

    ``{r}`` picks a distinct register per instance; ``{r2}`` the next one
    in the pool (so two-register forms avoid the zeroing-idiom shapes
    ``XOR r, r`` / ``SUB r, r``, which the machine eliminates).
    """
    instances = []
    for i in range(count):
        reg = pool[i % len(pool)]
        reg2 = pool[(i + 1) % len(pool)]
        instances.append(template.format(r=reg, r2=reg2))
    return "; ".join(instances)


def _alu_variants() -> List[InstructionVariant]:
    variants: List[InstructionVariant] = []
    for mnemonic in ("ADD", "SUB", "AND", "OR", "XOR", "ADC", "SBB"):
        for width, pool in (("R64", GPR_POOL), ("R32", GPR32_POOL)):
            chain_reg = pool[0]
            variants.append(InstructionVariant(
                name="%s (%s, %s)" % (mnemonic, width, width),
                mnemonic=mnemonic, operands="%s, %s" % (width, width),
                latency_asm="%s %s, %s" % (mnemonic.lower(), chain_reg,
                                           pool[1]),
                latency_pair="dst -> dst",
                throughput_asm=_spread(
                    "%s {r}, {r2}" % mnemonic.lower(), pool, 8),
                throughput_instances=8,
            ))
        variants.append(InstructionVariant(
            name="%s (R64, I)" % mnemonic,
            mnemonic=mnemonic, operands="R64, imm",
            latency_asm="%s RAX, 1" % mnemonic.lower(),
            throughput_asm=_spread("%s {r}, 1" % mnemonic.lower(),
                                   GPR_POOL, 8),
            throughput_instances=8,
        ))
        variants.append(InstructionVariant(
            name="%s (R64, M64)" % mnemonic,
            mnemonic=mnemonic, operands="R64, m64",
            latency_asm="%s RAX, [R14+RAX]" % mnemonic.lower(),
            init_asm="xor RAX, RAX; mov qword ptr [R14], 0",
            throughput_asm=_spread(
                "%s {r}, [R14]" % mnemonic.lower(), GPR_POOL, 8),
            throughput_instances=8,
        ))
    for mnemonic in ("INC", "DEC", "NEG", "NOT"):
        variants.append(InstructionVariant(
            name="%s (R64)" % mnemonic,
            mnemonic=mnemonic, operands="R64",
            latency_asm="%s RAX" % mnemonic.lower(),
            throughput_asm=_spread("%s {r}" % mnemonic.lower(), GPR_POOL, 8),
            throughput_instances=8,
        ))
    for mnemonic in ("CMP", "TEST"):
        variants.append(InstructionVariant(
            name="%s (R64, R64) [flags]" % mnemonic,
            mnemonic=mnemonic, operands="R64, R64",
            # flag-to-flag chain closed through SBB (reads CF, writes regs)
            latency_asm="%s RAX, RBX" % mnemonic.lower(),
            latency_pair="reg -> flags (throughput-bound chain)",
            throughput_asm=_spread("%s {r}, {r}" % mnemonic.lower(),
                                   GPR_POOL, 8),
            throughput_instances=8,
        ))
    return variants


def _shift_mul_variants() -> List[InstructionVariant]:
    variants = [
        InstructionVariant(
            name="%s (R64, I)" % mnemonic, mnemonic=mnemonic,
            operands="R64, imm",
            latency_asm="%s RAX, 1" % mnemonic.lower(),
            throughput_asm=_spread("%s {r}, 1" % mnemonic.lower(),
                                   GPR_POOL, 8),
            throughput_instances=8,
        )
        for mnemonic in ("SHL", "SHR", "SAR", "ROL", "ROR")
    ]
    variants.append(InstructionVariant(
        name="IMUL (R64, R64)", mnemonic="IMUL", operands="R64, R64",
        latency_asm="imul RAX, RAX",
        throughput_asm=_spread("imul {r}, {r}", GPR_POOL, 8),
        throughput_instances=8,
    ))
    variants.append(InstructionVariant(
        name="IMUL (R32, R32)", mnemonic="IMUL", operands="R32, R32",
        latency_asm="imul EAX, EAX",
        throughput_asm=_spread("imul {r}, {r}", GPR32_POOL, 8),
        throughput_instances=8,
    ))
    variants.append(InstructionVariant(
        name="DIV (R64)", mnemonic="DIV", operands="R64",
        latency_asm="div RBX",
        init_asm="mov RBX, 3; mov RAX, 100; xor RDX, RDX",
        throughput_asm="div RBX",
        throughput_instances=1,
    ))
    for mnemonic in ("BSF", "BSR", "POPCNT"):
        variants.append(InstructionVariant(
            name="%s (R64, R64)" % mnemonic, mnemonic=mnemonic,
            operands="R64, R64",
            latency_asm="%s RAX, RAX" % mnemonic.lower(),
            init_asm="mov RAX, 1",
            throughput_asm=_spread("%s {r}, {r}" % mnemonic.lower(),
                                   GPR_POOL, 8),
            throughput_instances=8,
        ))
    return variants


def _move_lea_variants() -> List[InstructionVariant]:
    return [
        InstructionVariant(
            name="MOV (R64, R64)", mnemonic="MOV", operands="R64, R64",
            latency_asm="mov RAX, RBX; mov RBX, RAX",
            latency_divisor=2.0, latency_pair="round trip / 2",
            throughput_asm=_spread("mov {r}, R11", GPR_POOL[:6], 6),
            throughput_instances=6,
        ),
        InstructionVariant(
            name="MOV (R64, I)", mnemonic="MOV", operands="R64, imm",
            latency_asm="mov RAX, 1",
            throughput_asm=_spread("mov {r}, 1", GPR_POOL, 8),
            throughput_instances=8,
        ),
        InstructionVariant(
            name="MOV (R64, M64) [load]", mnemonic="MOV",
            operands="R64, m64",
            latency_asm="mov R14, [R14]",
            init_asm="mov [R14], R14",
            throughput_asm=_spread("mov {r}, [R14]", GPR_POOL, 8),
            throughput_instances=8,
        ),
        InstructionVariant(
            name="MOV (M64, R64) [store]", mnemonic="MOV",
            operands="m64, R64",
            latency_asm="mov [R14], RAX; mov RAX, [R14]",
            latency_pair="store -> load round trip",
            throughput_asm="mov [R14], RAX; mov [R14+64], RBX; "
                           "mov [R14+128], RCX; mov [R14+192], RDX",
            throughput_instances=4,
        ),
        InstructionVariant(
            name="LEA (R64, [R64+R64])", mnemonic="LEA",
            operands="R64, m (simple)",
            latency_asm="lea RAX, [RAX+RBX]",
            throughput_asm=_spread("lea {r}, [{r}+RBX]", GPR_POOL, 8),
            throughput_instances=8,
        ),
        InstructionVariant(
            name="LEA (R64, [R64+R64+D]) [complex]", mnemonic="LEA",
            operands="R64, m (complex)",
            latency_asm="lea RAX, [RAX+RBX+8]",
            throughput_asm=_spread("lea {r}, [{r}+RBX+8]", GPR_POOL, 8),
            throughput_instances=8,
        ),
        InstructionVariant(
            name="MOVZX (R64, R16)", mnemonic="MOVZX", operands="R64, r16",
            latency_asm="movzx RAX, AX",
            throughput_asm=_spread("movzx {r}, BX", GPR_POOL, 8),
            throughput_instances=8,
        ),
        InstructionVariant(
            name="XCHG (R64, R64)", mnemonic="XCHG", operands="R64, R64",
            latency_asm="xchg RAX, RBX",
            throughput_asm="xchg RAX, RBX; xchg RCX, RDX; xchg R8, R9",
            throughput_instances=3,
        ),
    ]


def _conditional_variants() -> List[InstructionVariant]:
    variants = []
    for cc in ("Z", "NZ", "L", "B", "O", "S"):
        variants.append(InstructionVariant(
            name="CMOV%s (R64, R64)" % cc, mnemonic="CMOV%s" % cc,
            operands="R64, R64",
            # flags -> reg pair: TEST writes the flags each link.
            latency_asm="test RAX, RAX; cmov%s RAX, RBX" % cc.lower(),
            latency_adjust=1.0, latency_pair="flags -> reg (TEST helper)",
            throughput_asm=_spread("cmov%s {r}, R11" % cc.lower(),
                                   GPR_POOL[:6], 6),
            throughput_instances=6,
        ))
    for cc in ("Z", "NZ"):
        variants.append(InstructionVariant(
            name="SET%s (R8)" % cc, mnemonic="SET%s" % cc, operands="r8",
            latency_asm="test RAX, RAX; set%s AL" % cc.lower(),
            latency_adjust=1.0, latency_pair="flags -> reg (TEST helper)",
            throughput_asm=_spread("set%s {r}" % cc.lower(),
                                   ("AL", "BL", "CL", "DL"), 4),
            throughput_instances=4,
        ))
    return variants


def _vector_variants() -> List[InstructionVariant]:
    variants: List[InstructionVariant] = []
    int_ops = ("PXOR", "PAND", "POR", "PADDB", "PADDW", "PADDD", "PADDQ",
               "PSUBD", "PMULLD")
    for mnemonic in int_ops:
        variants.append(InstructionVariant(
            name="%s (XMM, XMM)" % mnemonic, mnemonic=mnemonic,
            operands="xmm, xmm",
            latency_asm="%s XMM1, XMM2" % mnemonic.lower(),
            init_asm=_fp_init_for(XMM_POOL[:2]),
            latency_pair="dst -> dst",
            throughput_asm=_spread("%s {r}, {r2}" % mnemonic.lower(),
                                   XMM_POOL, 12),
            throughput_instances=12,
        ))
    fp_ops = ("ADDPS", "ADDPD", "SUBPS", "SUBPD", "MULPS", "MULPD",
              "ADDSD", "MULSD", "DIVPD", "DIVSD", "SQRTSD")
    for mnemonic in fp_ops:
        variants.append(InstructionVariant(
            name="%s (XMM, XMM)" % mnemonic, mnemonic=mnemonic,
            operands="xmm, xmm",
            latency_asm="%s XMM1, XMM1" % mnemonic.lower(),
            init_asm=_fp_init_for(XMM_POOL),
            throughput_asm=_spread("%s {r}, {r2}" % mnemonic.lower(),
                                   XMM_POOL, 12),
            throughput_instances=12,
        ))
    for mnemonic in ("VADDPS", "VMULPD", "VPADDD", "VPXOR"):
        for width, pool in (("XMM", XMM_POOL), ("YMM", YMM_POOL)):
            regs = pool
            variants.append(InstructionVariant(
                name="%s (%s, %s, %s)" % (mnemonic, width, width, width),
                mnemonic=mnemonic, operands="%s x3" % width.lower(),
                latency_asm="%s %s, %s, %s" % (
                    mnemonic.lower(), regs[0], regs[0], regs[1]),
                init_asm=_fp_init_for(pool),
                throughput_asm="; ".join(
                    "%s %s, %s, %s" % (mnemonic.lower(), r, r, regs[-1])
                    for r in regs[:6]),
                throughput_instances=6,
                unsupported_families=("NHM",) if width == "YMM" else (),
            ))
    # AVX-512 representatives (ZMM) — "we have since extended our tool
    # to also support AVX-512 instructions" (Section V).
    for mnemonic in ("VPADDD", "VPXOR"):
        variants.append(InstructionVariant(
            name="%s (ZMM, ZMM, ZMM)" % mnemonic, mnemonic=mnemonic,
            operands="zmm x3",
            latency_asm="%s ZMM1, ZMM1, ZMM2" % mnemonic.lower(),
            init_asm=_fp_init_for(ZMM_POOL[:2]),
            throughput_asm="; ".join(
                "%s %s, %s, ZMM7" % (mnemonic.lower(), r, r)
                for r in ZMM_POOL[:6]),
            throughput_instances=6,
            unsupported_families=("NHM", "SNB", "HSW", "ZEN"),
        ))
    for mnemonic in ("VFMADD231PS", "VFMADD231PD"):
        variants.append(InstructionVariant(
            name="%s (XMM, XMM, XMM)" % mnemonic, mnemonic=mnemonic,
            operands="xmm x3",
            latency_asm="%s XMM1, XMM2, XMM3" % mnemonic.lower(),
            init_asm=_fp_init_for(XMM_POOL),
            throughput_asm="; ".join(
                "%s %s, XMM12, XMM13" % (mnemonic.lower(), r)
                for r in XMM_POOL[:10]),
            throughput_instances=10,
            unsupported_families=("NHM", "SNB"),
        ))
    return variants


def _system_variants() -> List[InstructionVariant]:
    """Privileged and system instructions — nanoBench's unique ability
    to "directly benchmark privileged instructions" (Section I)."""
    return [
        InstructionVariant(
            name="RDTSC", mnemonic="RDTSC", operands="-",
            latency_asm="rdtsc",
            throughput_asm="rdtsc", throughput_instances=1,
        ),
        InstructionVariant(
            name="RDPMC", mnemonic="RDPMC", operands="-",
            latency_asm="rdpmc", init_asm="mov RCX, 1073741824",
            throughput_asm="rdpmc", throughput_instances=1,
        ),
        InstructionVariant(
            name="LFENCE", mnemonic="LFENCE", operands="-",
            latency_asm="lfence",
            throughput_asm="lfence", throughput_instances=1,
        ),
        InstructionVariant(
            name="CPUID", mnemonic="CPUID", operands="-",
            latency_asm="cpuid", init_asm="xor RAX, RAX",
            throughput_asm="cpuid", throughput_instances=1,
        ),
        InstructionVariant(
            name="RDMSR (IA32_APERF)", mnemonic="RDMSR", operands="-",
            latency_asm="rdmsr", init_asm="mov RCX, 232",
            throughput_asm="rdmsr", throughput_instances=1,
            kernel_only=True,
        ),
        InstructionVariant(
            name="CLFLUSH (M64)", mnemonic="CLFLUSH", operands="m64",
            latency_asm="clflush [R14]",
            throughput_asm="clflush [R14]", throughput_instances=1,
        ),
    ]


def _width_matrix_variants() -> List[InstructionVariant]:
    """Narrow-width and mixed-width shapes (the r8/r16 corpus axis)."""
    gpr16 = ("AX", "BX", "CX", "DX", "R8W", "R9W", "R10W", "R11W")
    gpr8 = ("AL", "BL", "CL", "DL", "R8B", "R9B", "R10B", "R11B")
    variants: List[InstructionVariant] = []
    for mnemonic in ("ADD", "SUB", "CMP", "AND"):
        variants.append(InstructionVariant(
            name="%s (R16, R16)" % mnemonic, mnemonic=mnemonic,
            operands="r16, r16",
            latency_asm="%s AX, BX" % mnemonic.lower(),
            throughput_asm=_spread("%s {r}, {r2}" % mnemonic.lower(),
                                   gpr16, 8),
            throughput_instances=8,
        ))
        variants.append(InstructionVariant(
            name="%s (R8, R8)" % mnemonic, mnemonic=mnemonic,
            operands="r8, r8",
            latency_asm="%s AL, BL" % mnemonic.lower(),
            throughput_asm=_spread("%s {r}, {r2}" % mnemonic.lower(),
                                   gpr8, 8),
            throughput_instances=8,
        ))
    for name, asm_form, shape in (
        ("MOVZX (R32, R8)", "movzx EAX, AL", "r32, r8"),
        ("MOVZX (R32, R16)", "movzx EAX, AX", "r32, r16"),
        ("MOVSX (R64, R8)", "movsx RAX, AL", "r64, r8"),
        ("MOVSXD (R64, R32)", "movsxd RAX, EAX", "r64, r32"),
    ):
        mnemonic = asm_form.split()[0].upper()
        variants.append(InstructionVariant(
            name=name, mnemonic=mnemonic, operands=shape,
            latency_asm=asm_form,
            throughput_asm="; ".join(
                asm_form.replace("EAX", r).replace("RAX", r)
                for r in ("EAX", "ECX", "EDX", "R10D")
            ) if "EAX" in asm_form else "; ".join(
                asm_form.replace("RAX", r)
                for r in ("RAX", "RCX", "RDX", "R10")
            ),
            throughput_instances=4,
        ))
    variants.append(InstructionVariant(
        name="SHL (R64, CL)", mnemonic="SHL", operands="r64, CL",
        latency_asm="shl RAX, CL", init_asm="mov RCX, 1",
        throughput_asm="shl RAX, CL; shl RBX, CL; shl RDX, CL; "
                       "shl R8, CL",
        throughput_instances=4,
    ))
    variants.append(InstructionVariant(
        name="ADD (M64, R64) [RMW]", mnemonic="ADD", operands="m64, r64",
        latency_asm="add [R14], RAX; mov RAX, [R14]",
        latency_pair="memory round trip",
        throughput_asm="add [R14], RAX; add [R14+64], RBX; "
                       "add [R14+128], RCX; add [R14+192], RDX",
        throughput_instances=4,
    ))
    variants.append(InstructionVariant(
        name="PUSH (R64)", mnemonic="PUSH", operands="r64",
        latency_asm="push RAX; pop RAX",
        latency_pair="push/pop round trip",
        throughput_asm="push RAX; pop RAX",
        throughput_instances=2,
    ))
    variants.append(InstructionVariant(
        name="CDQ", mnemonic="CDQ", operands="-",
        latency_asm="cdq; mov EAX, EDX",
        latency_adjust=0.0, latency_pair="RAX -> RDX -> RAX",
        throughput_asm="cdq", throughput_instances=1,
    ))
    variants.append(InstructionVariant(
        name="CQO", mnemonic="CQO", operands="-",
        latency_asm="cqo; mov RAX, RDX",
        latency_pair="RAX -> RDX -> RAX",
        throughput_asm="cqo", throughput_instances=1,
    ))
    for mnemonic in ("BT", "BTS", "BTR"):
        variants.append(InstructionVariant(
            name="%s (R64, I)" % mnemonic, mnemonic=mnemonic,
            operands="r64, imm",
            latency_asm="%s RAX, 3" % mnemonic.lower(),
            throughput_asm=_spread("%s {r}, 3" % mnemonic.lower(),
                                   GPR_POOL, 8),
            throughput_instances=8,
        ))
    for mnemonic in ("MOVAPS", "MOVDQA"):
        variants.append(InstructionVariant(
            name="%s (XMM, XMM)" % mnemonic, mnemonic=mnemonic,
            operands="xmm, xmm",
            latency_asm="%s XMM1, XMM2; %s XMM2, XMM1" % (
                mnemonic.lower(), mnemonic.lower()),
            latency_divisor=2.0, latency_pair="round trip / 2",
            throughput_asm=_spread("%s {r}, {r2}" % mnemonic.lower(),
                                   XMM_POOL, 8),
            throughput_instances=8,
        ))
    variants.append(InstructionVariant(
        name="MOVDQU (XMM, M128) [load]", mnemonic="MOVDQU",
        operands="xmm, m128",
        latency_asm="movdqu XMM1, xmmword ptr [R14]",
        throughput_asm="; ".join(
            "movdqu %s, xmmword ptr [R14+%d]" % (r, 16 * i)
            for i, r in enumerate(XMM_POOL[:8])),
        throughput_instances=8,
    ))
    variants.append(InstructionVariant(
        name="SQRTPD (XMM, XMM)", mnemonic="SQRTPD", operands="xmm, xmm",
        latency_asm="sqrtpd XMM1, XMM1",
        init_asm=_fp_init_for(XMM_POOL[:2]),
        throughput_asm=_spread("sqrtpd {r}, {r2}", XMM_POOL, 8),
        throughput_instances=8,
    ))
    variants.append(InstructionVariant(
        name="DIVPS (XMM, XMM)", mnemonic="DIVPS", operands="xmm, xmm",
        latency_asm="divps XMM1, XMM2",
        init_asm=_fp_init_for(XMM_POOL[:3]),
        throughput_asm=_spread("divps {r}, {r2}", XMM_POOL, 8),
        throughput_instances=8,
    ))
    variants.append(InstructionVariant(
        name="POR (XMM, XMM)", mnemonic="POR", operands="xmm, xmm",
        latency_asm="por XMM1, XMM2",
        throughput_asm=_spread("por {r}, {r2}", XMM_POOL, 8),
        throughput_instances=8,
    ))
    return variants


def build_corpus() -> List[InstructionVariant]:
    """The full instruction corpus."""
    corpus: List[InstructionVariant] = []
    corpus.extend(_alu_variants())
    corpus.extend(_shift_mul_variants())
    corpus.extend(_move_lea_variants())
    corpus.extend(_conditional_variants())
    corpus.extend(_vector_variants())
    corpus.extend(_width_matrix_variants())
    corpus.extend(_system_variants())
    return corpus


def corpus_for_family(family: str) -> List[InstructionVariant]:
    """The corpus restricted to instructions the family supports."""
    return [v for v in build_corpus() if v.supported_on(family)]
