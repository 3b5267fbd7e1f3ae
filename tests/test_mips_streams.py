"""Tests for the MIPS SADC stream split (opcode/register/imm16/imm26)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sadc.mips import InstrRec
from repro.isa.mips.asm import assemble_to_bytes
from repro.isa.mips.formats import BY_MNEMONIC, OPCODES, Instruction
from repro.isa.mips.streams import (
    REG_SLOTS,
    MipsStreams,
    merge_streams,
    register_slots,
    split_image,
    split_streams,
    split_words,
    uses_imm16,
    uses_imm26,
)
from repro.workloads.profiles import BENCHMARK_NAMES
from repro.workloads.suite import generate_benchmark


class TestSlotTables:
    def test_r_type_three_slots(self):
        assert register_slots(BY_MNEMONIC["addu"]) == ("rd", "rs", "rt")

    def test_shift_uses_shamt_slot(self):
        assert register_slots(BY_MNEMONIC["sll"]) == ("rd", "rt", "shamt")

    def test_load_two_slots_and_imm(self):
        spec = BY_MNEMONIC["lw"]
        assert register_slots(spec) == ("rt", "rs")
        assert uses_imm16(spec)
        assert not uses_imm26(spec)

    def test_jump_only_long_imm(self):
        spec = BY_MNEMONIC["jal"]
        assert register_slots(spec) == ()
        assert uses_imm26(spec)
        assert not uses_imm16(spec)

    def test_fp_arith_slots(self):
        assert register_slots(BY_MNEMONIC["mul.d"]) == ("shamt", "rd", "rt")


class TestSplitMerge:
    SOURCE = [
        "addiu $sp, $sp, -24",
        "sw $ra, 20($sp)",
        "lw $a0, 0($a1)",
        "sll $t0, $a0, 2",
        "addu $v0, $t0, $a1",
        "jal 0x200",
        "lw $ra, 20($sp)",
        "jr $ra",
    ]

    def test_stream_contents(self):
        code = assemble_to_bytes(self.SOURCE)
        streams = split_streams(code)
        assert len(streams.opcodes) == 8
        assert len(streams.imm16) == 4   # addiu, sw, lw, lw offsets
        assert len(streams.imm26) == 1
        assert (0x200 >> 2) in streams.imm26

    def test_merge_inverts_split(self):
        code = assemble_to_bytes(self.SOURCE)
        assert merge_streams(split_streams(code)) == code

    def test_bit_size_accounting(self):
        code = assemble_to_bytes(["jal 0x40", "jr $ra"])
        streams = split_streams(code)
        sizes = streams.bit_sizes()
        assert sizes["opcodes"] == 16      # two 8-bit opcode ids
        assert sizes["imm26"] == 26
        assert sizes["registers"] == 5     # jr's rs
        assert streams.total_bits() == 16 + 26 + 5

    def test_empty_image(self):
        streams = split_streams(b"")
        assert streams.opcodes == []
        assert merge_streams(streams) == b""

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            split_streams(b"\x00\x00\x00")

    def test_stray_bits_rejected(self):
        # addu $v0, $a0, $a1 with shamt 3: merging its streams would
        # drop the shamt, so the split refuses the word.
        code = assemble_to_bytes(["addu $v0, $a0, $a1"])
        assert code == bytes.fromhex("00851021")
        with pytest.raises(ValueError, match="0x008510e1 .addu. is non-canonical"):
            split_streams(bytes.fromhex("008510e1"))


def test_generated_program_roundtrip(mips_program):
    streams = split_streams(mips_program)
    assert merge_streams(streams) == mips_program
    # Streams must account for every instruction.
    assert len(streams.opcodes) == len(mips_program) // 4


def test_streams_smaller_than_word_stream(mips_program):
    # The whole point of the split: total stream bits == 32 per
    # instruction (it is a partition of the word's information).
    streams = split_streams(mips_program)
    per_instr = streams.total_bits() / (len(mips_program) // 4)
    # opcode ids take 8 bits but replace 6-bit op + 6-bit funct + fmt
    # bits; allow the bookkeeping band.
    assert 16 <= per_instr <= 40


# -- the whole-image split against the per-word oracle ------------------------

_FIELD_MASKS = [0x1F << 21, 0x1F << 16, 0x1F << 11, 0x1F << 6, 0xFFFFFFFF]


@st.composite
def _word(draw):
    """A canonical word of any mnemonic, one with stray bits in a field,
    or any 32-bit word."""
    kind = draw(st.sampled_from(["canonical", "stray", "random"]))
    if kind == "random":
        return draw(st.integers(0, (1 << 32) - 1))
    spec = draw(st.sampled_from(OPCODES))
    fields = {slot: draw(st.integers(0, 31)) for slot in register_slots(spec)}
    if uses_imm16(spec):
        fields["imm"] = draw(st.integers(0, 0xFFFF))
    if uses_imm26(spec):
        fields["target"] = draw(st.integers(0, (1 << 26) - 1))
    word = Instruction(spec, **fields).encode()
    if kind == "stray":
        stray = draw(st.integers(1, (1 << 32) - 1))
        word |= stray & draw(st.sampled_from(_FIELD_MASKS))
    return word


def _assert_split_as_oracle(split, words):
    """``split`` gives :meth:`InstrRec.from_word`'s ids and operand rows
    word by word, or raises what it raises for the first bad word."""
    ids, rows = [], []
    for word in words:
        try:
            rec = InstrRec.from_word(word)
        except ValueError as expected:
            with pytest.raises(ValueError) as raised:
                split()
            assert type(raised.value) is type(expected)
            assert str(raised.value) == str(expected)
            return
        ids.append(rec.opcode_id)
        rows.append([
            *rec.regs, *[-1] * (REG_SLOTS - len(rec.regs)),
            -1 if rec.imm16 is None else rec.imm16,
            -1 if rec.imm26 is None else rec.imm26,
        ])
    got_ids, got_rows = split()
    assert got_ids.tolist() == ids
    assert got_rows.tolist() == rows


@settings(max_examples=300, deadline=None)
@given(st.lists(_word(), max_size=12))
def test_split_words_matches_the_per_word_oracle(words):
    _assert_split_as_oracle(lambda: split_words(np.array(words, dtype=np.int64)), words)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(BENCHMARK_NAMES),
    st.integers(0, 99),
    st.integers(0, 10_000),
    _word(),
)
def test_split_image_of_a_program_with_one_word_replaced(name, seed, at, word):
    code = bytearray(generate_benchmark(name, "mips", scale=0.02, seed=seed).code)
    at = 4 * (at % (len(code) // 4))
    code[at : at + 4] = word.to_bytes(4, "big")
    words = [int.from_bytes(code[i : i + 4], "big") for i in range(0, len(code), 4)]
    _assert_split_as_oracle(lambda: split_image(bytes(code)), words)
