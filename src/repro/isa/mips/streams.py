"""SADC stream subdivision for MIPS (Section 4 of the paper).

MIPS instructions are divided into four streams of different widths:

* **opcode stream** — one canonical opcode id per instruction.  This is
  the "simplified opcode" the paper's decoder works with: it identifies
  the mnemonic, and through the operand-length unit it determines how many
  register and immediate entries the instruction consumes.
* **register stream** — 5-bit entries: the register fields (and shift
  amounts) of each instruction, in a fixed per-opcode order.
* **immediate stream** — 16-bit entries for I-type immediates.
* **long-immediate stream** — 26-bit entries for J-type targets.

There is one split, :func:`split_words`: a few table gathers, shifts and
masks over a whole code image at once.  It accepts only canonical words,
those equal to their opcode's fixed bits OR the fields the opcode
declares, and raises :class:`ValueError` for any other, so the split is
exactly invertible: :func:`merge_streams` is the software model of the
paper's instruction-generator unit (Figure 6), which ORs the
decompressed streams back into 32-bit words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.bitstream.fields import words_to_bytes
from repro.isa.mips.formats import (
    OP_COP1,
    OP_REGIMM,
    OP_SPECIAL,
    OPCODES,
    WORD_BYTES,
    Instruction,
    OpcodeSpec,
    decode,
)

#: Stable numbering of mnemonics: the "simplified opcode" values.
OPCODE_IDS: Dict[str, int] = {spec.mnemonic: i for i, spec in enumerate(OPCODES)}
ID_TO_SPEC: Dict[int, OpcodeSpec] = {i: spec for i, spec in enumerate(OPCODES)}

#: Per-format register-slot order.  ``shamt`` rides in the register stream
#: (it is a 5-bit field, statistically register-like).
_REGISTER_SLOTS: Dict[str, Tuple[str, ...]] = {}
for _spec in OPCODES:
    slots: List[str] = []
    for operand in _spec.operands:
        if operand in ("rs", "rt", "rd", "shamt"):
            slots.append(operand)
        elif operand in ("fd", "fs", "ft"):
            slots.append({"ft": "rt", "fs": "rd", "fd": "shamt"}[operand])
    _REGISTER_SLOTS[_spec.mnemonic] = tuple(slots)


def register_slots(spec: OpcodeSpec) -> Tuple[str, ...]:
    """Register-stream slots an opcode consumes, in stream order."""
    return _REGISTER_SLOTS[spec.mnemonic]


def uses_imm16(spec: OpcodeSpec) -> bool:
    """True when the opcode consumes one 16-bit immediate-stream entry."""
    return spec.fmt == "I" and "imm" in spec.operands


def uses_imm26(spec: OpcodeSpec) -> bool:
    """True when the opcode consumes one 26-bit long-immediate entry."""
    return spec.fmt == "J"


# -- the whole-image split ---------------------------------------------------

#: Operand columns of :func:`split_words`: the register slots in
#: :func:`register_slots` order, then the 16- and 26-bit immediates.
REG_SLOTS = max(map(len, _REGISTER_SLOTS.values()))
IMM16_COLUMN, IMM26_COLUMN = REG_SLOTS, REG_SLOTS + 1
#: Bit position of each register slot's field in the machine word.
FIELD_SHIFTS = {"rs": 21, "rt": 16, "rd": 11, "shamt": 6}

#: Per opcode id: its fixed bits (everything :func:`decode` reads to
#: identify it), and each operand column's shift and mask (mask 0 where
#: the opcode has no such operand).
_FIXED = np.zeros(len(OPCODES), dtype=np.int64)
_SHIFTS = np.zeros((len(OPCODES), REG_SLOTS + 2), dtype=np.int64)
_MASKS = np.zeros((len(OPCODES), REG_SLOTS + 2), dtype=np.int64)
for _id, _spec in ID_TO_SPEC.items():
    _FIXED[_id] = Instruction(_spec).encode()
    for _column, _slot in enumerate(register_slots(_spec)):
        _SHIFTS[_id, _column] = FIELD_SHIFTS[_slot]
        _MASKS[_id, _column] = 0x1F
    _MASKS[_id, IMM16_COLUMN] = 0xFFFF if uses_imm16(_spec) else 0
    _MASKS[_id, IMM26_COLUMN] = 0x3FFFFFF if uses_imm26(_spec) else 0
#: The bits of every field an opcode declares.
_DECLARED = (_MASKS << _SHIFTS).sum(axis=1)


#: Where each decode table starts in the one key range: the primary
#: opcode (6 bits) first, then the SPECIAL funct (6), the COP1 (fmt,
#: funct) pair (11) and the REGIMM rt (5).
_SPECIAL_KEYS = 1 << 6
_COP1_KEYS = _SPECIAL_KEYS + (1 << 6)
_REGIMM_KEYS = _COP1_KEYS + (1 << 11)


def _decode_keys(words: np.ndarray) -> np.ndarray:
    """The key :func:`decode` dispatches each word on, in the table
    its primary opcode selects."""
    op = words >> 26
    funct = words & 0x3F
    rs = (words >> 21) & 0x1F
    rt = (words >> 16) & 0x1F
    return np.select(
        [op == OP_SPECIAL, op == OP_COP1, op == OP_REGIMM],
        [_SPECIAL_KEYS + funct, _COP1_KEYS + ((rs << 6) | funct), _REGIMM_KEYS + rt],
        op,
    )


#: Opcode id by decode key, -1 where :func:`decode` knows no mnemonic.
_IDS_BY_KEY = np.full(_REGIMM_KEYS + (1 << 5), -1, dtype=np.int64)
_IDS_BY_KEY[_decode_keys(_FIXED)] = np.arange(len(OPCODES))


def non_canonical(word: int, spec: OpcodeSpec) -> ValueError:
    """The error for a word with bits in fields ``spec`` does not declare."""
    return ValueError(
        f"word {word:#010x} ({spec.mnemonic}) is non-canonical: "
        "it sets fields the opcode does not encode"
    )


def split_words(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Opcode ids and operand rows of an array of 32-bit words.

    Each row holds the register slots in :func:`register_slots` order,
    then the 16- and 26-bit immediates, -1 where the opcode has none.  A
    word is canonical when it equals its opcode's fixed bits OR the
    fields the opcode declares, which is exactly when merging its
    streams gives it back.  The first word in order that is not
    canonical raises :class:`ValueError`: :func:`decode`'s own if it
    does not decode, else :func:`non_canonical`.
    """
    words = np.asarray(words, dtype=np.int64)
    ids = _IDS_BY_KEY[_decode_keys(words)]
    bad = (ids < 0) | (_FIXED[ids] | (words & _DECLARED[ids]) != words)
    if bad.any():
        word = int(words[np.argmax(bad)])
        raise non_canonical(word, decode(word).spec)
    masks = _MASKS[ids]
    operands = (words[:, None] >> _SHIFTS[ids]) & masks
    return ids, np.where(masks == 0, -1, operands)


def split_image(code: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`split_words` of a big-endian MIPS code image."""
    if len(code) % WORD_BYTES:
        raise ValueError(
            f"a {len(code)}-byte code image is not whole "
            f"{WORD_BYTES}-byte instructions"
        )
    return split_words(np.frombuffer(code, dtype=">u4"))


@dataclass
class MipsStreams:
    """The four SADC streams extracted from a MIPS code image."""

    opcodes: List[int] = field(default_factory=list)
    registers: List[int] = field(default_factory=list)
    imm16: List[int] = field(default_factory=list)
    imm26: List[int] = field(default_factory=list)

    def bit_sizes(self) -> Dict[str, int]:
        """Raw (uncompressed) size of each stream in bits."""
        return {
            "opcodes": 8 * len(self.opcodes),
            "registers": 5 * len(self.registers),
            "imm16": 16 * len(self.imm16),
            "imm26": 26 * len(self.imm26),
        }

    def total_bits(self) -> int:
        return sum(self.bit_sizes().values())


def split_streams(code: bytes) -> MipsStreams:
    """Split a big-endian MIPS code image into its four SADC streams."""
    opcodes, operands = split_image(code)
    registers = operands[:, :REG_SLOTS]
    imm16 = operands[:, IMM16_COLUMN]
    imm26 = operands[:, IMM26_COLUMN]
    return MipsStreams(
        opcodes=opcodes.tolist(),
        registers=registers[registers >= 0].tolist(),
        imm16=imm16[imm16 >= 0].tolist(),
        imm26=imm26[imm26 >= 0].tolist(),
    )


def merge_streams(streams: MipsStreams) -> bytes:
    """Reassemble a code image from its streams (instruction generator)."""
    registers = iter(streams.registers)
    imm16 = iter(streams.imm16)
    imm26 = iter(streams.imm26)
    words: List[int] = []
    for opcode_id in streams.opcodes:
        spec = ID_TO_SPEC[opcode_id]
        fields = {"rs": 0, "rt": 0, "rd": 0, "shamt": 0, "imm": 0, "target": 0}
        for slot in register_slots(spec):
            fields[slot] = next(registers)
        if uses_imm16(spec):
            fields["imm"] = next(imm16)
        if uses_imm26(spec):
            fields["target"] = next(imm26)
        words.append(Instruction(spec, **fields).encode())
    return words_to_bytes(words, 4)
