"""Synthetic x86 (Pentium Pro) code generator.

Mirrors :mod:`repro.workloads.mips_gen` for IA-32: function idioms
(``push ebp; mov ebp, esp``), EBP-relative loads/stores with small
displacements, register-register ALU ops, short conditional branches,
CALL rel32 into a small target pool, and a motif pool for compiler-like
sequence reuse.  Instructions are emitted as structural
:class:`~repro.isa.x86.formats.X86Instruction` objects, so everything
round-trips through the length decoder.
"""

from __future__ import annotations

import random
import struct
from typing import List

from repro.isa.x86.formats import X86Instruction
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.sampling import WeightedTable, ZipfSampler, weighted_choice

#: IA-32 GPR numbers in rough descending order of compiled-code use.
_REGISTER_PREFERENCE = (0, 5, 1, 2, 3, 6, 7)  # eax, ebp, ecx, edx, ebx, esi, edi


_ALU_REG_OPCODES = WeightedTable(
    [(5, 0x01), (2, 0x29), (2, 0x31), (3, 0x39), (2, 0x21), (1, 0x09),
     (3, 0x85), (4, 0x89), (3, 0x8B)]
)
_ALU_IMM8_GROUPS = WeightedTable([(5, 0), (2, 5), (3, 7), (1, 4)])
_CONDITIONS = WeightedTable([(4, 4), (4, 5), (2, 12), (2, 15), (1, 2), (1, 14)])
_TERMINATORS = WeightedTable([(5, "jcc"), (2, "call"), (3, "none")])


def _modrm(mod: int, reg: int, rm: int) -> int:
    return (mod << 6) | (reg << 3) | rm


def _disp8(value: int) -> bytes:
    return bytes([value & 0xFF])


def _imm32(value: int) -> bytes:
    return struct.pack("<i", value)


class X86Generator:
    """Generates one benchmark's x86 code image."""

    def __init__(
        self, profile: BenchmarkProfile, seed: int = 0, scale: float = 1.0
    ) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.profile = profile
        # x86 code for the same program has fewer, denser instructions.
        self.target = max(64, int(profile.instructions * scale * 0.85))
        # zlib.crc32, not hash(): str hashing is randomised per process,
        # and generation must be reproducible across runs.
        import zlib

        name_seed = zlib.crc32(profile.name.encode()) & 0xFFFF
        self._rng = random.Random(name_seed ^ seed ^ 0x5A5A)
        self._registers = ZipfSampler(_REGISTER_PREFERENCE, profile.register_skew)
        self._call_offsets = [
            0x40 + 0x30 * i for i in range(max(8, self.target // 96))
        ]
        self._motifs: List[List[X86Instruction]] = []

    def _reg(self) -> int:
        return self._registers.sample(self._rng)

    def _frame_disp(self) -> int:
        """EBP-relative displacement: small multiples of 4, mostly negative."""
        slot = 4 * self._rng.randrange(1, 16)
        return -slot if self._rng.random() < 0.7 else slot + 8

    # -- instruction kinds -------------------------------------------------

    def _gen_load(self) -> X86Instruction:
        # mov r32, [ebp+disp8]
        return X86Instruction(
            opcode=b"\x8b",
            modrm=_modrm(1, self._reg(), 5),
            disp=_disp8(self._frame_disp()),
        )

    def _gen_store(self) -> X86Instruction:
        # mov [ebp+disp8], r32
        return X86Instruction(
            opcode=b"\x89",
            modrm=_modrm(1, self._reg(), 5),
            disp=_disp8(self._frame_disp()),
        )

    def _gen_alu_reg(self) -> X86Instruction:
        opcode = _ALU_REG_OPCODES.draw(self._rng)
        return X86Instruction(
            opcode=bytes([opcode]), modrm=_modrm(3, self._reg(), self._reg())
        )

    def _gen_alu_imm8(self) -> X86Instruction:
        group = _ALU_IMM8_GROUPS.draw(self._rng)
        imm = self._rng.choice([1, 1, 2, 4, 4, 8, 16, 0x10, 0x3F])
        return X86Instruction(
            opcode=b"\x83",
            modrm=_modrm(3, group, self._reg()),
            imm=bytes([imm]),
        )

    def _gen_mov_imm32(self) -> X86Instruction:
        value = weighted_choice(
            self._rng, [(5, 0), (3, 1), (2, self._rng.randrange(0, 256))]
        )
        return X86Instruction(
            opcode=bytes([0xB8 + self._reg()]), imm=_imm32(value)
        )

    def _gen_push_pop(self) -> X86Instruction:
        base = 0x50 if self._rng.random() < 0.6 else 0x58
        return X86Instruction(opcode=bytes([base + self._reg()]))

    def _gen_inc_dec(self) -> X86Instruction:
        base = 0x40 if self._rng.random() < 0.6 else 0x48
        return X86Instruction(opcode=bytes([base + self._reg()]))

    def _gen_jcc(self) -> X86Instruction:
        cc = _CONDITIONS.draw(self._rng)
        magnitude = self._rng.randrange(2, 48)
        if self._rng.random() < 0.55:
            magnitude = -magnitude
        return X86Instruction(opcode=bytes([0x70 + cc]), imm=_disp8(magnitude))

    def _gen_call(self) -> X86Instruction:
        return X86Instruction(
            opcode=b"\xe8", imm=_imm32(self._rng.choice(self._call_offsets))
        )

    def _gen_lea(self) -> X86Instruction:
        # lea r32, [ebp+disp8]
        return X86Instruction(
            opcode=b"\x8d",
            modrm=_modrm(1, self._reg(), 5),
            disp=_disp8(self._frame_disp()),
        )

    def _gen_movzx(self) -> X86Instruction:
        return X86Instruction(
            opcode=b"\x0f\xb6", modrm=_modrm(3, self._reg(), self._reg())
        )

    # -- structure -----------------------------------------------------------

    def _fresh_block(self) -> List[X86Instruction]:
        rng = self._rng
        length = rng.randrange(3, 9)
        block = [_KINDS.draw(rng)(self) for _ in range(length)]
        terminator = _TERMINATORS.draw(rng)
        if terminator == "jcc":
            block.append(self._gen_jcc())
        elif terminator == "call":
            block.append(self._gen_call())
        return block

    def _next_block(self) -> List[X86Instruction]:
        rng = self._rng
        if self._motifs and rng.random() < self.profile.motif_reuse:
            motif = rng.choice(self._motifs)
            if rng.random() < 0.65 and motif:
                # Re-emit the idiom with a different register or frame
                # slot: opcode sequences repeat, raw bytes diverge.
                clone = list(motif)
                for _ in range(rng.randrange(1, 3)):
                    index = rng.randrange(len(clone))
                    clone[index] = self._perturb(clone[index])
                return clone
            return list(motif)
        block = self._fresh_block()
        if len(self._motifs) < self.profile.motif_pool:
            self._motifs.append(block)
        else:
            self._motifs[rng.randrange(len(self._motifs))] = block
        return block

    def _perturb(self, old: X86Instruction) -> X86Instruction:
        """Vary one instruction's ModRM register or 8-bit displacement."""
        rng = self._rng
        if old.modrm is not None and (not old.disp or rng.random() < 0.5):
            mod, _reg, rm = (old.modrm >> 6), (old.modrm >> 3) & 7, old.modrm & 7
            return X86Instruction(
                prefixes=old.prefixes, opcode=old.opcode,
                modrm=_modrm(mod, self._reg(), rm), sib=old.sib,
                disp=old.disp, imm=old.imm,
            )
        if len(old.disp) == 1:
            delta = rng.choice((-8, -4, 4, 8))
            disp = bytes([(old.disp[0] + delta) & 0xFF])
            return X86Instruction(
                prefixes=old.prefixes, opcode=old.opcode,
                modrm=old.modrm, sib=old.sib, disp=disp, imm=old.imm,
            )
        return old

    def _function(self) -> List[X86Instruction]:
        rng = self._rng
        frame = 4 * rng.randrange(2, 12)
        body: List[X86Instruction] = [
            X86Instruction(opcode=b"\x55"),                      # push ebp
            X86Instruction(opcode=b"\x89", modrm=0xE5),          # mov ebp, esp
            X86Instruction(                                       # sub esp, imm8
                opcode=b"\x83", modrm=_modrm(3, 5, 4), imm=bytes([frame])
            ),
        ]
        for _ in range(rng.randrange(2, 9)):
            body.extend(self._next_block())
        body.append(X86Instruction(opcode=b"\xc9"))               # leave
        body.append(X86Instruction(opcode=b"\xc3"))               # ret
        return body

    def generate_instructions(self) -> List[X86Instruction]:
        out: List[X86Instruction] = []
        while len(out) < self.target:
            out.extend(self._function())
        return out

    def generate(self) -> bytes:
        code = bytearray()
        for instruction in self.generate_instructions():
            code.extend(instruction.encode())
        return bytes(code)


#: The instruction mix, as unbound methods.
_KINDS = WeightedTable([
    (0.24, X86Generator._gen_load),
    (0.13, X86Generator._gen_store),
    (0.22, X86Generator._gen_alu_reg),
    (0.12, X86Generator._gen_alu_imm8),
    (0.07, X86Generator._gen_mov_imm32),
    (0.08, X86Generator._gen_push_pop),
    (0.05, X86Generator._gen_inc_dec),
    (0.04, X86Generator._gen_lea),
    (0.03, X86Generator._gen_movzx),
])
