"""MIPS-I instruction formats, opcode tables, and field codecs.

The model covers the integer and floating-point subset a C compiler emits
for SPEC95-class programs: ALU R-type, ALU immediate, loads/stores,
branches, jumps, HI/LO multiply/divide, and coprocessor-1 arithmetic and
loads/stores.  Every instruction is 32 bits; the three hardware formats
are:

====  =========================================================
R     ``op(6) rs(5) rt(5) rd(5) shamt(5) funct(6)``
I     ``op(6) rs(5) rt(5) imm(16)``
J     ``op(6) target(26)``
====  =========================================================

Coprocessor-1 arithmetic reuses the R layout with ``op=0x11`` and the
``rs`` field holding the format selector (``fmt``), so it round-trips
through the same field machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

WORD_BITS = 32
WORD_BYTES = 4

OP_SPECIAL = 0x00
OP_REGIMM = 0x01
OP_COP1 = 0x11

#: Bit-field tilings of the three hardware formats, as
#: ``(field, msb_start, width)`` triples in this package's MSB-first
#: convention.  Each layout must partition the 32-bit word exactly —
#: no overlap, no gap — which ``repro verify`` checks statically.
FIELD_LAYOUTS: Dict[str, Tuple[Tuple[str, int, int], ...]] = {
    "R": (
        ("op", 0, 6),
        ("rs", 6, 5),
        ("rt", 11, 5),
        ("rd", 16, 5),
        ("shamt", 21, 5),
        ("funct", 26, 6),
    ),
    "I": (
        ("op", 0, 6),
        ("rs", 6, 5),
        ("rt", 11, 5),
        ("imm", 16, 16),
    ),
    "J": (
        ("op", 0, 6),
        ("target", 6, 26),
    ),
}

FMT_SINGLE = 0x10
FMT_DOUBLE = 0x11


@dataclass(frozen=True)
class OpcodeSpec:
    """Static description of one mnemonic.

    ``fmt`` is "R", "I", or "J".  ``op`` is the primary opcode; R-type
    instructions additionally carry ``funct`` and COP1 arithmetic carries
    ``cop_fmt``.  ``operands`` names the fields the assembler expects, in
    assembly order.
    """

    mnemonic: str
    fmt: str
    op: int
    funct: Optional[int] = None
    cop_fmt: Optional[int] = None
    regimm_rt: Optional[int] = None
    operands: Tuple[str, ...] = ()


def _r(mnemonic: str, funct: int, operands: Tuple[str, ...]) -> OpcodeSpec:
    return OpcodeSpec(mnemonic, "R", OP_SPECIAL, funct=funct, operands=operands)


def _i(mnemonic: str, op: int, operands: Tuple[str, ...]) -> OpcodeSpec:
    return OpcodeSpec(mnemonic, "I", op, operands=operands)


def _f(mnemonic: str, funct: int, fmt: int) -> OpcodeSpec:
    return OpcodeSpec(
        mnemonic, "R", OP_COP1, funct=funct, cop_fmt=fmt, operands=("fd", "fs", "ft")
    )


#: The instruction inventory.  Roughly 70 mnemonics — the working set the
#: paper observes ("all our benchmark programs tend to use no more than 50
#: instructions" per program).
OPCODES: Tuple[OpcodeSpec, ...] = (
    # R-type ALU
    _r("sll", 0x00, ("rd", "rt", "shamt")),
    _r("srl", 0x02, ("rd", "rt", "shamt")),
    _r("sra", 0x03, ("rd", "rt", "shamt")),
    _r("sllv", 0x04, ("rd", "rt", "rs")),
    _r("srlv", 0x06, ("rd", "rt", "rs")),
    _r("srav", 0x07, ("rd", "rt", "rs")),
    _r("jr", 0x08, ("rs",)),
    _r("jalr", 0x09, ("rd", "rs")),
    _r("syscall", 0x0C, ()),
    _r("break", 0x0D, ()),
    _r("mfhi", 0x10, ("rd",)),
    _r("mthi", 0x11, ("rs",)),
    _r("mflo", 0x12, ("rd",)),
    _r("mtlo", 0x13, ("rs",)),
    _r("mult", 0x18, ("rs", "rt")),
    _r("multu", 0x19, ("rs", "rt")),
    _r("div", 0x1A, ("rs", "rt")),
    _r("divu", 0x1B, ("rs", "rt")),
    _r("add", 0x20, ("rd", "rs", "rt")),
    _r("addu", 0x21, ("rd", "rs", "rt")),
    _r("sub", 0x22, ("rd", "rs", "rt")),
    _r("subu", 0x23, ("rd", "rs", "rt")),
    _r("and", 0x24, ("rd", "rs", "rt")),
    _r("or", 0x25, ("rd", "rs", "rt")),
    _r("xor", 0x26, ("rd", "rs", "rt")),
    _r("nor", 0x27, ("rd", "rs", "rt")),
    _r("slt", 0x2A, ("rd", "rs", "rt")),
    _r("sltu", 0x2B, ("rd", "rs", "rt")),
    # I-type ALU / branches / memory
    _i("beq", 0x04, ("rs", "rt", "imm")),
    _i("bne", 0x05, ("rs", "rt", "imm")),
    _i("blez", 0x06, ("rs", "imm")),
    _i("bgtz", 0x07, ("rs", "imm")),
    _i("addi", 0x08, ("rt", "rs", "imm")),
    _i("addiu", 0x09, ("rt", "rs", "imm")),
    _i("slti", 0x0A, ("rt", "rs", "imm")),
    _i("sltiu", 0x0B, ("rt", "rs", "imm")),
    _i("andi", 0x0C, ("rt", "rs", "imm")),
    _i("ori", 0x0D, ("rt", "rs", "imm")),
    _i("xori", 0x0E, ("rt", "rs", "imm")),
    _i("lui", 0x0F, ("rt", "imm")),
    _i("lb", 0x20, ("rt", "imm", "rs")),
    _i("lh", 0x21, ("rt", "imm", "rs")),
    _i("lw", 0x23, ("rt", "imm", "rs")),
    _i("lbu", 0x24, ("rt", "imm", "rs")),
    _i("lhu", 0x25, ("rt", "imm", "rs")),
    _i("sb", 0x28, ("rt", "imm", "rs")),
    _i("sh", 0x29, ("rt", "imm", "rs")),
    _i("sw", 0x2B, ("rt", "imm", "rs")),
    _i("lwc1", 0x31, ("rt", "imm", "rs")),
    _i("ldc1", 0x35, ("rt", "imm", "rs")),
    _i("swc1", 0x39, ("rt", "imm", "rs")),
    _i("sdc1", 0x3D, ("rt", "imm", "rs")),
    # REGIMM branches (rt field selects the condition)
    OpcodeSpec("bltz", "I", OP_REGIMM, regimm_rt=0x00, operands=("rs", "imm")),
    OpcodeSpec("bgez", "I", OP_REGIMM, regimm_rt=0x01, operands=("rs", "imm")),
    # J-type
    OpcodeSpec("j", "J", 0x02, operands=("target",)),
    OpcodeSpec("jal", "J", 0x03, operands=("target",)),
    # COP1 arithmetic, single and double precision
    _f("add.s", 0x00, FMT_SINGLE),
    _f("add.d", 0x00, FMT_DOUBLE),
    _f("sub.s", 0x01, FMT_SINGLE),
    _f("sub.d", 0x01, FMT_DOUBLE),
    _f("mul.s", 0x02, FMT_SINGLE),
    _f("mul.d", 0x02, FMT_DOUBLE),
    _f("div.s", 0x03, FMT_SINGLE),
    _f("div.d", 0x03, FMT_DOUBLE),
    _f("mov.s", 0x06, FMT_SINGLE),
    _f("mov.d", 0x06, FMT_DOUBLE),
    _f("cvt.d.s", 0x21, FMT_SINGLE),
    _f("cvt.s.d", 0x20, FMT_DOUBLE),
)

#: Lookup by mnemonic.
BY_MNEMONIC: Dict[str, OpcodeSpec] = {spec.mnemonic: spec for spec in OPCODES}

#: Lookup keys for decode: (op,) for plain I/J, (op, funct, cop_fmt) for R,
#: (op, rt) for REGIMM.
_DECODE_R: Dict[Tuple[int, int, Optional[int]], OpcodeSpec] = {}
_DECODE_I: Dict[int, OpcodeSpec] = {}
_DECODE_REGIMM: Dict[int, OpcodeSpec] = {}
for _spec in OPCODES:
    if _spec.regimm_rt is not None:
        _DECODE_REGIMM[_spec.regimm_rt] = _spec
    elif _spec.fmt == "R":
        _DECODE_R[(_spec.op, _spec.funct, _spec.cop_fmt)] = _spec
    else:
        _DECODE_I[_spec.op] = _spec


@dataclass(frozen=True)
class Instruction:
    """A decoded MIPS instruction: a spec plus its field values."""

    spec: OpcodeSpec
    rs: int = 0
    rt: int = 0
    rd: int = 0
    shamt: int = 0
    imm: int = 0
    target: int = 0

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    def encode(self) -> int:
        """Pack the instruction into its 32-bit machine word."""
        return encode_fields(
            self.spec, self.rs, self.rt, self.rd, self.shamt, self.imm, self.target
        )


def encode_fields(
    spec: OpcodeSpec,
    rs: int = 0,
    rt: int = 0,
    rd: int = 0,
    shamt: int = 0,
    imm: int = 0,
    target: int = 0,
) -> int:
    """Pack field values into ``spec``'s 32-bit machine word.

    Each field is masked to its width in :data:`FIELD_LAYOUTS`; the
    fields ``spec``'s format lacks are ignored.  COP1 arithmetic carries
    its ``cop_fmt`` in ``rs`` and a REGIMM branch its condition in
    ``rt``, whatever those arguments hold.
    """
    if spec.fmt == "J":
        return (spec.op << 26) | (target & 0x3FFFFFF)
    if spec.fmt == "R":
        if spec.cop_fmt is not None:
            rs = spec.cop_fmt
        return (
            (spec.op << 26)
            | ((rs & 0x1F) << 21)
            | ((rt & 0x1F) << 16)
            | ((rd & 0x1F) << 11)
            | ((shamt & 0x1F) << 6)
            | (spec.funct & 0x3F)
        )
    if spec.regimm_rt is not None:
        rt = spec.regimm_rt
    return (
        (spec.op << 26)
        | ((rs & 0x1F) << 21)
        | ((rt & 0x1F) << 16)
        | (imm & 0xFFFF)
    )


def spec_of(word: int) -> OpcodeSpec:
    """The :class:`OpcodeSpec` a 32-bit machine word encodes.

    Raises :class:`ValueError` for encodings outside the modelled subset.
    """
    if not 0 <= word < (1 << 32):
        raise ValueError(f"word {word:#x} is not a 32-bit value")
    op = word >> 26
    if op == OP_SPECIAL:
        spec = _DECODE_R.get((op, word & 0x3F, None))
        if spec is None:
            raise ValueError(f"unknown SPECIAL funct {word & 0x3F:#x}")
    elif op == OP_COP1:
        fmt = (word >> 21) & 0x1F
        spec = _DECODE_R.get((op, word & 0x3F, fmt))
        if spec is None:
            raise ValueError(f"unknown COP1 funct {word & 0x3F:#x} fmt {fmt:#x}")
    elif op == OP_REGIMM:
        spec = _DECODE_REGIMM.get((word >> 16) & 0x1F)
        if spec is None:
            raise ValueError(f"unknown REGIMM rt {(word >> 16) & 0x1F:#x}")
    else:
        spec = _DECODE_I.get(op)
        if spec is None:
            raise ValueError(f"unknown opcode {op:#x}")
    return spec


def decode(word: int) -> Instruction:
    """Decode a 32-bit machine word into an :class:`Instruction`.

    Raises :class:`ValueError` for encodings outside the modelled subset.
    """
    spec = spec_of(word)
    rs = (word >> 21) & 0x1F
    rt = (word >> 16) & 0x1F
    if spec.fmt == "R":
        rd = (word >> 11) & 0x1F
        shamt = (word >> 6) & 0x1F
        if spec.cop_fmt is not None:
            return Instruction(spec, rt=rt, rd=rd, shamt=shamt)
        return Instruction(spec, rs=rs, rt=rt, rd=rd, shamt=shamt)
    if spec.fmt == "J":
        return Instruction(spec, target=word & 0x3FFFFFF)
    if spec.regimm_rt is not None:
        return Instruction(spec, rs=rs, imm=word & 0xFFFF)
    return Instruction(spec, rs=rs, rt=rt, imm=word & 0xFFFF)
