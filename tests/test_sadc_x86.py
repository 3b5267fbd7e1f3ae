"""Tests for x86 SADC: byte-string dictionary, streams, codec."""

import pytest

from repro.core.sadc.x86 import X86Dictionary, X86SadcCodec, parse_block
from repro.resilience.errors import CATEGORY_BUDGET, CorruptedStreamError
from repro.core.sadc.x86_reassemble import (
    reassemble_instruction,
    split_opcode_entry,
)


class TestSplitOpcodeEntry:
    def test_plain(self):
        assert split_opcode_entry(b"\x8b") == (b"", b"\x8b")

    def test_two_byte(self):
        assert split_opcode_entry(b"\x0f\xb6") == (b"", b"\x0f\xb6")

    def test_prefixed(self):
        assert split_opcode_entry(b"\x66\xb8") == (b"\x66", b"\xb8")

    def test_prefixed_two_byte(self):
        assert split_opcode_entry(b"\x66\x0f\xb7") == (b"\x66", b"\x0f\xb7")


class TestReassemble:
    def test_modrm_and_disp(self):
        modrm_queue = [0x45]
        imm_queue = [b"\xfc"]
        instruction = reassemble_instruction(
            b"\x8b", lambda: modrm_queue.pop(0),
            lambda n: imm_queue.pop(0)[:n],
        )
        assert instruction.encode() == b"\x8b\x45\xfc"

    def test_no_operand_instruction(self):
        instruction = reassemble_instruction(
            b"\xc3", lambda: pytest.fail("no ModRM expected"),
            lambda n: pytest.fail("no imm expected"),
        )
        assert instruction.encode() == b"\xc3"

    def test_sib_pull(self):
        queue = [0x04, 0x24]
        instruction = reassemble_instruction(
            b"\x8b", lambda: queue.pop(0), lambda n: b"",
        )
        assert instruction.encode() == b"\x8b\x04\x24"


class TestDictionary:
    def test_longest_match_first(self):
        dictionary = X86Dictionary()
        dictionary.add((b"\x55",))
        long = dictionary.add((b"\x55", b"\x89"))
        tokens = parse_block(dictionary, [b"\x55", b"\x89"])
        assert tokens == [long]

    def test_capacity(self):
        dictionary = X86Dictionary(max_entries=1)
        dictionary.add((b"\x90",))
        with pytest.raises(ValueError):
            dictionary.add((b"\xc3",))

    def test_parse_requires_singles(self):
        with pytest.raises(ValueError):
            parse_block(X86Dictionary(), [b"\x90"])


class TestCodec:
    def test_roundtrip(self, x86_program):
        codec = X86SadcCodec()
        image = codec.compress(x86_program)
        assert codec.decompress(image) == x86_program

    def test_roundtrip_large(self, x86_program_large):
        codec = X86SadcCodec()
        image = codec.compress(x86_program_large)
        assert codec.decompress(image) == x86_program_large

    def test_random_access_blocks(self, x86_program):
        codec = X86SadcCodec()
        image = codec.compress(x86_program)
        # Blocks contain whole instructions assigned by start address;
        # concatenating per-block output must reproduce the program.
        pieces = [
            codec.decompress_block(image, i)
            for i in range(image.block_count())
        ]
        assert b"".join(pieces) == x86_program
        counts = image.metadata["block_instruction_counts"]
        assert len(pieces) == len(counts)

    def test_forged_instruction_count_budget_checked(self, x86_program):
        # block_instruction_counts is wire data (a u16 per block in the
        # archive); a forged count must hit the budget check up front,
        # not churn the token loop until the reader runs dry.
        codec = X86SadcCodec()
        image = codec.compress(x86_program)
        counts = list(image.metadata["block_instruction_counts"])
        counts[0] = 50_000
        image.metadata["block_instruction_counts"] = counts
        with pytest.raises(CorruptedStreamError) as excinfo:
            codec.decompress_block(image, 0)
        assert excinfo.value.category == CATEGORY_BUDGET

    def test_dictionary_capped(self, x86_program_large):
        image = X86SadcCodec().compress(x86_program_large)
        assert len(image.metadata["dictionary"]) <= 256

    def test_compresses(self, x86_program_large):
        image = X86SadcCodec().compress(x86_program_large)
        assert image.payload_ratio < 0.8

    def test_groups_improve_over_singles(self, x86_program_large):
        rich = X86SadcCodec().compress(x86_program_large)
        plain = X86SadcCodec(max_cycles=0).compress(x86_program_large)
        assert rich.payload_ratio <= plain.payload_ratio

    def test_empty_program(self):
        codec = X86SadcCodec()
        image = codec.compress(b"")
        assert codec.decompress(image) == b""

    def test_token_table_charges_the_index_width(self, x86_program):
        # Past 256 entries a dictionary index no longer fits a byte, so
        # each token symbol of the decode table stores 9 bits.
        class Padded(X86SadcCodec):
            def build_dictionary(self, blocks):
                dictionary = super().build_dictionary(blocks)
                for i in range(300 - len(dictionary)):
                    # Opcode entries no instruction has: the parse and
                    # the coded streams stay as they were.
                    dictionary.add((bytes([0xF1, i >> 8, i & 0xFF]),))
                return dictionary

        codec = Padded(max_entries=512)
        image = codec.compress(x86_program)
        codes = image.metadata["codes"]
        assert len(image.metadata["dictionary"]) == 300
        table_bits = (
            len(codes["tokens"].lengths) * (9 + 5)
            + len(codes["modrm_sib"].lengths) * (8 + 5)
            + len(codes["imm_disp"].lengths) * (8 + 5)
        )
        model_bits = image.metadata["dictionary"].storage_bits + table_bits
        assert image.model_bytes == (model_bits + 7) // 8
        assert codec.decompress(image) == x86_program
