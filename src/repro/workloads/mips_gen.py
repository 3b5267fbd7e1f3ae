"""Synthetic MIPS code generator.

Emits machine code with the statistical fingerprint of compiled SPEC95
programs: function prologue/epilogue idioms, basic blocks drawn from a
per-program *motif pool* (compilers emit the same short sequences over
and over — the redundancy SADC's dictionary harvests), Zipf-skewed
register usage, and small, highly non-uniform immediates (the low-entropy
fields SAMC's Markov streams exploit).

Generation is fully deterministic given (profile, seed, scale).
"""

from __future__ import annotations

import random
from typing import Callable, List

from repro.bitstream.fields import words_to_bytes
from repro.isa.mips.formats import (
    BY_MNEMONIC,
    FIELD_LAYOUTS,
    WORD_BITS,
    WORD_BYTES,
    encode_fields,
    spec_of,
)
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.sampling import WeightedTable, ZipfSampler

#: GPRs in rough descending order of use in compiled code.
_REGISTER_PREFERENCE = (
    29,  # sp
    2,   # v0
    4,   # a0
    8,   # t0
    16,  # s0
    5,   # a1
    3,   # v1
    9,   # t1
    17,  # s1
    6,   # a2
    10,  # t2
    31,  # ra
    18,  # s2
    7,   # a3
    11,  # t3
    0,   # zero
    19, 12, 20, 13, 21, 14, 22, 15, 23, 24, 25, 30, 28, 1, 26, 27,
)

#: Even FP registers (doubles), most used first.
_FPR_PREFERENCE = (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20)


def _specs(table) -> WeightedTable:
    """A draw table over ``[(weight, mnemonic), ...]`` yielding specs."""
    return WeightedTable([(weight, BY_MNEMONIC[name]) for weight, name in table])


_MEM_OFFSETS = WeightedTable([(6, "small"), (2, "medium"), (1, "neg")])
_ALU_IMMS = WeightedTable([(4, "tiny"), (3, "pow"), (2, "byte"), (1, "wide")])
_LOADS = _specs([(7, "lw"), (1, "lb"), (1, "lbu"), (1, "lhu")])
_STORES = _specs([(7, "sw"), (1, "sb"), (1, "sh")])
_ALU_REGS = _specs([(6, "addu"), (2, "subu"), (2, "or"), (1, "and"), (1, "xor"),
                    (2, "slt"), (1, "sltu")])
_ALU_IMM_OPS = _specs([(6, "addiu"), (2, "andi"), (2, "ori"), (1, "slti"), (1, "xori")])
_SHIFTS = _specs([(3, "sll"), (2, "srl"), (1, "sra")])
_BRANCHES = _specs([(4, "bne"), (4, "beq"), (1, "blez"), (1, "bgtz")])
#: FP memory specs, and ``None`` for COP1 arithmetic.
_FP_KINDS = WeightedTable(
    [(3, BY_MNEMONIC["ldc1"]), (2, BY_MNEMONIC["sdc1"]), (3, None),
     (1, BY_MNEMONIC["lwc1"]), (1, BY_MNEMONIC["swc1"])]
)
_FP_ARITH = _specs([(3, "add.d"), (3, "mul.d"), (1, "sub.d"), (1, "div.d")])
_TERMINATORS = WeightedTable([(5, "branch"), (2, "call"), (3, "none")])

_LUI, _ADDIU, _SW, _LW, _JAL, _JR = (
    BY_MNEMONIC[name] for name in ("lui", "addiu", "sw", "lw", "jal", "jr")
)

#: Field name -> (shift, mask) in a word, from the format layouts.
_FIELDS = {
    name: (WORD_BITS - start - width, (1 << width) - 1)
    for layout in FIELD_LAYOUTS.values()
    for name, start, width in layout
}


def _with_field(word: int, name: str, value: int) -> int:
    """``word`` with field ``name`` replaced by ``value`` (masked)."""
    shift, mask = _FIELDS[name]
    return (word & ~(mask << shift)) | ((value & mask) << shift)


class MipsGenerator:
    """Generates one benchmark's MIPS code image.

    Every instruction is built once, as its machine word
    (:func:`~repro.isa.mips.formats.encode_fields`), and motifs are
    pooled and perturbed as words.
    """

    def __init__(
        self, profile: BenchmarkProfile, seed: int = 0, scale: float = 1.0
    ) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.profile = profile
        self.target = max(64, int(profile.instructions * scale))
        # zlib.crc32, not hash(): str hashing is randomised per process,
        # and generation must be reproducible across runs.
        import zlib

        name_seed = zlib.crc32(profile.name.encode()) & 0xFFFF
        self._rng = random.Random(name_seed ^ seed)
        self._registers = ZipfSampler(_REGISTER_PREFERENCE, profile.register_skew)
        self._fprs = ZipfSampler(_FPR_PREFERENCE, profile.register_skew)
        #: A handful of code pages: lui values cluster heavily.
        self._pages = [0x1000 + 8 * i for i in range(4)]
        #: Call-target pool: function entry word addresses.
        self._call_targets = [
            (0x0040_0000 >> 2) + 64 * i for i in range(max(8, self.target // 96))
        ]
        self._motifs: List[List[int]] = []
        fp = profile.fp_fraction
        #: The instruction mix, as unbound methods (no cycle through self).
        self._kinds = WeightedTable([
            (0.22 * (1 - fp), MipsGenerator._gen_load),
            (0.12 * (1 - fp), MipsGenerator._gen_store),
            (0.20 * (1 - fp), MipsGenerator._gen_alu_reg),
            (0.20 * (1 - fp), MipsGenerator._gen_alu_imm),
            (0.05, MipsGenerator._gen_shift),
            (fp, MipsGenerator._gen_fp),
        ])

    # -- operand sampling -------------------------------------------------

    def _reg(self) -> int:
        return self._registers.sample(self._rng)

    def _fpr(self) -> int:
        return self._fprs.sample(self._rng)

    def _mem_offset(self) -> int:
        """Load/store offsets: small multiples of 4, occasionally negative."""
        rng = self._rng
        kind = _MEM_OFFSETS.draw(rng)
        if kind == "small":
            return 4 * rng.randrange(0, 16)
        if kind == "medium":
            return 4 * rng.randrange(16, 64)
        return (-4 * rng.randrange(1, 9)) & 0xFFFF

    def _alu_imm(self) -> int:
        rng = self._rng
        kind = _ALU_IMMS.draw(rng)
        if kind == "tiny":
            return rng.choice([0, 1, 2, 3, 4, 8])
        if kind == "pow":
            return 1 << rng.randrange(0, 12)
        if kind == "byte":
            return rng.randrange(0, 256)
        return rng.randrange(0, 1 << 16)

    def _branch_offset(self) -> int:
        magnitude = self._rng.randrange(1, 48)
        if self._rng.random() < 0.55:  # backward branches dominate (loops)
            return (-magnitude) & 0xFFFF
        return magnitude

    # -- instruction kinds -------------------------------------------------
    #
    # Keyword arguments are evaluated in the order written, which is the
    # order the operands are drawn in.

    def _gen_load(self) -> int:
        return encode_fields(
            _LOADS.draw(self._rng),
            rt=self._reg(), rs=self._reg(), imm=self._mem_offset(),
        )

    def _gen_store(self) -> int:
        return encode_fields(
            _STORES.draw(self._rng),
            rt=self._reg(), rs=self._reg(), imm=self._mem_offset(),
        )

    def _gen_alu_reg(self) -> int:
        return encode_fields(
            _ALU_REGS.draw(self._rng),
            rd=self._reg(), rs=self._reg(), rt=self._reg(),
        )

    def _gen_alu_imm(self) -> int:
        return encode_fields(
            _ALU_IMM_OPS.draw(self._rng),
            rt=self._reg(), rs=self._reg(), imm=self._alu_imm(),
        )

    def _gen_shift(self) -> int:
        spec = _SHIFTS.draw(self._rng)
        shamt = self._rng.choice([1, 2, 2, 3, 4, 8])
        return encode_fields(spec, rd=self._reg(), rt=self._reg(), shamt=shamt)

    def _gen_branch(self) -> int:
        spec = _BRANCHES.draw(self._rng)
        if "rt" not in spec.operands:  # blez, bgtz
            return encode_fields(spec, rs=self._reg(), imm=self._branch_offset())
        return encode_fields(
            spec, rs=self._reg(), rt=self._reg(), imm=self._branch_offset()
        )

    def _gen_lui_pair(self) -> List[int]:
        reg = self._reg()
        page = self._rng.choice(self._pages)
        return [
            encode_fields(_LUI, rt=reg, imm=page),
            encode_fields(
                _ADDIU, rt=reg, rs=reg, imm=4 * self._rng.randrange(0, 64)
            ),
        ]

    def _gen_call(self) -> int:
        return encode_fields(_JAL, target=self._rng.choice(self._call_targets))

    def _gen_fp(self) -> int:
        spec = _FP_KINDS.draw(self._rng)
        if spec is not None:
            return encode_fields(
                spec, rt=self._fpr(), rs=self._reg(),
                imm=8 * self._rng.randrange(0, 32),
            )
        return encode_fields(
            _FP_ARITH.draw(self._rng),
            shamt=self._fpr(), rd=self._fpr(), rt=self._fpr(),
        )

    # -- block / function structure ----------------------------------------

    def _fresh_block(self) -> List[int]:
        """Generate a new basic block from the profile's instruction mix."""
        rng = self._rng
        length = rng.randrange(3, 10)
        block: List[int] = []
        draw = self._kinds.draw
        while len(block) < length:
            if rng.random() < 0.05:
                block.extend(self._gen_lui_pair())
                continue
            generator: Callable[[MipsGenerator], int] = draw(rng)
            block.append(generator(self))
        # Basic blocks usually end in a branch or call.
        terminator = _TERMINATORS.draw(rng)
        if terminator == "branch":
            block.append(self._gen_branch())
        elif terminator == "call":
            block.append(self._gen_call())
        return block

    def _next_block(self) -> List[int]:
        """Reuse a pooled motif or mint a fresh block (and pool it)."""
        rng = self._rng
        if self._motifs and rng.random() < self.profile.motif_reuse:
            motif = rng.choice(self._motifs)
            if rng.random() < 0.65 and motif:
                # Compilers re-emit idioms with different temporaries and
                # offsets far more often than byte-for-byte: perturb one
                # or two instructions so the *opcode sequence* repeats
                # (what SADC's dictionary harvests) while raw bytes
                # diverge (curbing unrealistic long LZ matches).
                clone = list(motif)
                for _ in range(rng.randrange(1, 3)):
                    index = rng.randrange(len(clone))
                    clone[index] = self._perturb(clone[index])
                return clone
            return motif
        block = self._fresh_block()
        if len(self._motifs) < self.profile.motif_pool:
            self._motifs.append(block)
        else:
            self._motifs[rng.randrange(len(self._motifs))] = block
        return block

    def _perturb(self, word: int) -> int:
        """Vary one instruction's register or immediate, staying canonical."""
        rng = self._rng
        operands = spec_of(word).operands
        if "imm" in operands and rng.random() < 0.5:
            delta = rng.choice((-8, -4, 4, 8))
            shift, mask = _FIELDS["imm"]
            return _with_field(word, "imm", ((word >> shift) & mask) + delta)
        mutable = [f for f in ("rt", "rd", "rs") if f in operands]
        if not mutable:
            return word
        register = self._reg()  # drawn before the field it goes into
        return _with_field(word, rng.choice(mutable), register)

    def _function(self, out: List[int]) -> None:
        """Append one function to ``out``: prologue, blocks, epilogue."""
        rng = self._rng
        frame = 8 * rng.randrange(2, 8)
        saved = rng.randrange(0, 3)
        out.append(encode_fields(_ADDIU, rt=29, rs=29, imm=-frame))
        out.append(encode_fields(_SW, rt=31, rs=29, imm=frame - 4))
        for i in range(saved):
            out.append(encode_fields(_SW, rt=16 + i, rs=29, imm=frame - 8 - 4 * i))
        blocks = rng.randrange(2, 9)
        for _ in range(blocks):
            out.extend(self._next_block())
        for i in range(saved):
            out.append(encode_fields(_LW, rt=16 + i, rs=29, imm=frame - 8 - 4 * i))
        out.append(encode_fields(_LW, rt=31, rs=29, imm=frame - 4))
        out.append(encode_fields(_ADDIU, rt=29, rs=29, imm=frame))
        out.append(encode_fields(_JR, rs=31))

    def generate(self) -> bytes:
        """Generate the benchmark's big-endian code image: whole
        functions, at least ``target`` instructions."""
        words: List[int] = []
        while len(words) < self.target:
            self._function(words)
        return words_to_bytes(words, WORD_BYTES)
