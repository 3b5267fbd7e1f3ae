"""Tests for MIPS SADC: records, parsing, dictionary build, codec."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lat import CompressedImage
from repro.core.sadc.entry import DictEntry, Dictionary
from repro.core.sadc import mips
from repro.core.sadc.mips import (
    InstrRec,
    MipsSadcCodec,
    _operand_plan,
    _Parse,
    _Program,
    parse_block,
)
from repro.entropy.huffman import HuffmanCode, build_code
from repro.isa.mips.asm import assemble_one, assemble_to_bytes
from repro.isa.mips.streams import (
    ID_TO_SPEC,
    OPCODE_IDS,
    register_slots,
    uses_imm16,
    uses_imm26,
)
from repro.resilience.errors import CorruptedStreamError
from repro.workloads.profiles import BENCHMARK_NAMES
from repro.workloads.suite import generate_benchmark


def _rec(text: str) -> InstrRec:
    return InstrRec.from_word(assemble_one(text).encode())


class TestInstrRec:
    def test_roundtrip(self):
        for text in ("addu $v0, $a0, $a1", "lw $t0, 4($sp)", "jal 0x400",
                     "sll $t0, $t1, 2", "jr $ra", "add.d $f0, $f2, $f4"):
            word = assemble_one(text).encode()
            assert InstrRec.from_word(word).to_word() == word

    def test_fields(self):
        rec = _rec("lw $t0, 8($sp)")
        assert rec.opcode_id == OPCODE_IDS["lw"]
        assert rec.regs == (8, 29)
        assert rec.imm16 == 8
        assert rec.imm26 is None

    def test_jump_fields(self):
        rec = _rec("jal 0x400")
        assert rec.imm26 == 0x100
        assert rec.regs == ()

    def test_non_canonical_rejected(self):
        # blez with a non-zero rt field is not producible by the encoder.
        bad = (0x06 << 26) | (5 << 21) | (7 << 16) | 4
        with pytest.raises(ValueError):
            InstrRec.from_word(bad)


class TestParse:
    def _instrs(self):
        return [_rec(t) for t in (
            "addiu $sp, $sp, -24",
            "sw $ra, 20($sp)",
            "lw $ra, 20($sp)",
            "jr $ra",
        )]

    def _dictionary_with_singles(self, instrs):
        dictionary = Dictionary()
        for rec in instrs:
            entry = DictEntry(opcodes=(rec.opcode_id,))
            if entry not in dictionary:
                dictionary.add(entry)
        return dictionary

    def test_singles_parse(self):
        instrs = self._instrs()
        dictionary = self._dictionary_with_singles(instrs)
        tokens = parse_block(dictionary, instrs)
        assert len(tokens) == 4
        assert [pos for _i, pos in tokens] == [0, 1, 2, 3]

    def test_group_preferred(self):
        instrs = self._instrs()
        dictionary = self._dictionary_with_singles(instrs)
        group = DictEntry(opcodes=(instrs[2].opcode_id, instrs[3].opcode_id))
        group_index = dictionary.add(group)
        tokens = parse_block(dictionary, instrs)
        assert tokens[-1][0] == group_index
        assert len(tokens) == 3

    def test_bound_entry_only_matches_binding(self):
        instrs = self._instrs()
        dictionary = self._dictionary_with_singles(instrs)
        jr_id = instrs[3].opcode_id
        bound = dictionary.add(DictEntry(opcodes=(jr_id,)).bind_reg(0, 0, 31))
        tokens = parse_block(dictionary, instrs)
        assert tokens[-1][0] == bound  # jr $ra matches the bound form
        other = [_rec("jr $t9")]
        dictionary2 = self._dictionary_with_singles(instrs + other)
        dictionary2.add(DictEntry(opcodes=(jr_id,)).bind_reg(0, 0, 31))
        tokens2 = parse_block(dictionary2, other)
        assert dictionary2.entries[tokens2[0][0]].bound_regs == ()

    def test_missing_single_raises(self):
        with pytest.raises(ValueError):
            parse_block(Dictionary(), self._instrs())


class TestCodec:
    def test_roundtrip(self, mips_program):
        codec = MipsSadcCodec()
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program

    def test_random_access_every_block(self, mips_program):
        codec = MipsSadcCodec()
        image = codec.compress(mips_program)
        for index in range(image.block_count()):
            want = mips_program[index * 32 : (index + 1) * 32]
            assert codec.decompress_block(image, index) == want

    def test_dictionary_capped_at_256(self, mips_program_large):
        codec = MipsSadcCodec()
        image = codec.compress(mips_program_large)
        assert len(image.metadata["dictionary"]) <= 256

    def test_groups_never_cross_blocks(self, mips_program):
        # Implied by random access, but check the parse directly.
        codec = MipsSadcCodec()
        blocks = codec._decode_blocks(mips_program)
        dictionary = codec.build_dictionary(blocks)
        for block in blocks:
            tokens = parse_block(dictionary, block)
            covered = sum(
                dictionary.entries[i].length for i, _pos in tokens
            )
            assert covered == len(block)

    @pytest.mark.parametrize("batch_inserts", [1, 8])
    def test_grown_parses_match_a_fresh_parse(self, mips_program, batch_inserts):
        # Growth tracks the parse in a best-match array; the parses it
        # hands to the encoder must equal a full re-parse.
        codec = MipsSadcCodec(batch_inserts=batch_inserts)
        blocks = codec._decode_blocks(mips_program)
        dictionary, _plans, parses = codec._grow(blocks)
        assert parses == [parse_block(dictionary, block) for block in blocks]

    def test_ablation_groups_off(self, mips_program):
        codec = MipsSadcCodec(enable_groups=False)
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program
        assert all(
            entry.length == 1
            for entry in image.metadata["dictionary"].entries
        )

    def test_ablation_bindings_off(self, mips_program):
        codec = MipsSadcCodec(enable_reg_binding=False,
                              enable_imm_binding=False)
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program
        assert all(
            not entry.bound_regs and not entry.bound_imm16
            and not entry.bound_imm26
            for entry in image.metadata["dictionary"].entries
        )

    def test_single_insert_mode(self, mips_program):
        # batch_inserts=1 is the paper's one-candidate-per-cycle loop.
        codec = MipsSadcCodec(batch_inserts=1, max_cycles=6)
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program

    def test_small_dictionary(self, mips_program):
        codec = MipsSadcCodec(max_entries=64)
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program
        assert len(image.metadata["dictionary"]) <= 64

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            MipsSadcCodec(block_size=30)

    def test_compresses(self, mips_program_large):
        image = MipsSadcCodec().compress(mips_program_large)
        assert image.payload_ratio < 0.7

    def test_beats_plain_singles(self, mips_program_large):
        rich = MipsSadcCodec().compress(mips_program_large)
        plain = MipsSadcCodec(
            enable_groups=False, enable_reg_binding=False,
            enable_imm_binding=False,
        ).compress(mips_program_large)
        assert rich.payload_ratio < plain.payload_ratio

    def test_roundtrip_extreme_operands(self):
        # Every field at its widest, so each coded part of an operand
        # (imm16 hi and lo; imm26 hi, mid and lo) has its top bit set.
        code = _code(
            "j 0xffffffc", "jal 0xffffffc", "lui $ra, 0xffff",
            "ori $ra, $ra, 0xffff", "sll $ra, $ra, 31", "beq $ra, $ra, -4",
            "lw $ra, -4($sp)", "mul.d $f30, $f31, $f29", "jr $ra",
        )
        for codec in (MipsSadcCodec(), MipsSadcCodec(enable_imm_binding=False)):
            image = codec.compress(code)
            assert codec.decompress(image) == code

    def test_codeword_that_does_not_fit_is_rejected(
        self, mips_program, monkeypatch
    ):
        # Emission checks every table once, as BitWriter.write_bits
        # checks every call, whether or not tables verify themselves.
        def overlong(counts):
            code = build_code(counts)
            if not code.lengths:
                return code
            symbol = min(code.lengths)
            wide = 1 << code.lengths[symbol]
            return HuffmanCode(code.lengths, {**code.codewords, symbol: wide})

        monkeypatch.setenv("REPRO_VERIFY", "0")
        monkeypatch.setattr("repro.core.sadc.mips.build_code", overlong)
        with pytest.raises(ValueError, match="does not fit in"):
            MipsSadcCodec().compress(mips_program)

    def test_token_table_charges_the_index_width(self, mips_program_large):
        # Past 256 entries a dictionary index no longer fits a byte, so
        # each token symbol of the decode table stores 9 bits.
        image = MipsSadcCodec(max_entries=512).compress(mips_program_large)
        dictionary, codes = image.metadata["dictionary"], image.metadata["codes"]
        assert 256 < len(dictionary) <= 512
        widths = {"tokens": 9, "regs": 5, "imm16_hi": 8, "imm16_lo": 8,
                  "imm26_hi": 10, "imm26_lo": 8}
        table_bits = sum(
            len(codes[name].lengths) * (width + 5)
            for name, width in widths.items()
        )
        model_bits = dictionary.storage_bits + table_bits
        assert image.model_bytes == (model_bits + 7) // 8

    def test_block_size_variants(self, mips_program):
        for block_size in (16, 64):
            codec = MipsSadcCodec(block_size=block_size)
            image = codec.compress(mips_program)
            assert codec.decompress(image) == mips_program


def _bitwise_block_payloads(codewords, lengths, block, blocks):
    """Block packing one array element per output bit: the oracle for
    :func:`mips._block_payloads`."""
    if not blocks:
        return []
    bits = np.bincount(block, weights=lengths, minlength=blocks).astype(np.int64)
    nbytes = (bits + 7) // 8
    byte_end = np.cumsum(nbytes)
    byte_start = byte_end - nbytes
    gap = 8 * byte_start - (np.cumsum(bits) - bits)
    end = np.cumsum(lengths)
    bit = np.arange(end[-1])
    shift = np.repeat(end, lengths) - 1 - bit
    value = (np.repeat(codewords, lengths) >> shift) & 1
    out = np.zeros(8 * int(byte_end[-1]), dtype=np.uint8)
    out[bit + np.repeat(gap[block], lengths)] = value
    packed = np.packbits(out)
    return [
        packed[lo:hi].tobytes()
        for lo, hi in zip(byte_start.tolist(), byte_end.tolist())
    ]


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.lists(st.integers(1, 24).flatmap(
        lambda length: st.tuples(st.integers(0, (1 << length) - 1), st.just(length))
    ), min_size=1, max_size=40),
    max_size=12,
))
def test_block_payloads_match_bitwise_packing(blocks):
    fields = [field for codewords in blocks for field in codewords]
    args = (
        np.array([v for v, _l in fields], dtype=np.int64),
        np.array([l for _v, l in fields], dtype=np.int64),
        np.repeat(np.arange(len(blocks)), [len(b) for b in blocks]),
        len(blocks),
    )
    assert mips._block_payloads(*args) == _bitwise_block_payloads(*args)


def test_block_payloads_of_figure_programs_match_bitwise_packing(monkeypatch):
    packed = []

    def both(*args):
        packed.append((mips_block_payloads(*args), _bitwise_block_payloads(*args)))
        return packed[-1][0]

    mips_block_payloads = mips._block_payloads
    monkeypatch.setattr(mips, "_block_payloads", both)
    for name in BENCHMARK_NAMES:
        MipsSadcCodec().compress(_figure_program(name))
    assert len(packed) == len(BENCHMARK_NAMES)
    for new, old in packed:
        assert new == old


class TestStaticDictionary:
    def test_covers_unseen_programs(self, mips_program, mips_program_large):
        codec = MipsSadcCodec()
        static = codec.build_static_dictionary([mips_program])
        # A dictionary trained on one program must still parse another.
        image = codec.compress(mips_program_large, dictionary=static)
        assert codec.decompress(image) == mips_program_large

    def test_seeds_every_mnemonic(self, mips_program):
        from repro.core.sadc.entry import DictEntry
        from repro.isa.mips.streams import ID_TO_SPEC

        codec = MipsSadcCodec(max_entries=512)
        static = codec.build_static_dictionary([mips_program])
        for opcode_id in ID_TO_SPEC:
            assert DictEntry(opcodes=(opcode_id,)) in static

    def test_semiadaptive_beats_static_on_held_out(
        self, mips_program, mips_program_large
    ):
        codec = MipsSadcCodec()
        static = codec.build_static_dictionary([mips_program])
        semiadaptive = codec.compress(mips_program_large).payload_ratio
        held_out = codec.compress(
            mips_program_large, dictionary=static
        ).payload_ratio
        assert semiadaptive <= held_out + 1e-9


# -- what compress accepts and rejects ----------------------------------------


def _code(*texts: str) -> bytes:
    return assemble_to_bytes(list(texts))


def _with_words(code: bytes, words: dict) -> bytes:
    """``code`` with the word at each instruction index replaced."""
    out = bytearray(code)
    for index, word in words.items():
        out[4 * index : 4 * index + 4] = word.to_bytes(4, "big")
    return bytes(out)


#: ``addu $v0, $a0, $a1`` with shamt 3: bits in a field addu does not
#: declare.  SPECIAL funct 1 decodes to no mnemonic.
_NON_CANONICAL = 0x008510E1
_UNDECODABLE = 0x00000001


class TestCompressInput:
    @pytest.mark.parametrize("word, message", [
        (_NON_CANONICAL, "word 0x008510e1 (addu) is non-canonical: "
                         "it sets fields the opcode does not encode"),
        (_UNDECODABLE, "unknown SPECIAL funct 0x1"),
    ])
    def test_bad_word_rejected(self, mips_program, word, message):
        code = _with_words(mips_program, {40: word})
        with pytest.raises(ValueError) as raised:
            MipsSadcCodec().compress(code)
        assert str(raised.value) == message

    def test_first_bad_word_in_program_order_is_reported(self, mips_program):
        code = _with_words(
            mips_program, {30: _NON_CANONICAL, 50: _UNDECODABLE, 20: _UNDECODABLE}
        )
        with pytest.raises(ValueError, match="unknown SPECIAL funct 0x1"):
            MipsSadcCodec().compress(code)
        code = _with_words(mips_program, {30: _NON_CANONICAL, 50: _UNDECODABLE})
        with pytest.raises(ValueError, match="non-canonical"):
            MipsSadcCodec().compress(code)

    def test_misaligned_image_rejected(self):
        with pytest.raises(ValueError):
            MipsSadcCodec().compress(b"\x00" * 7)

    def test_static_dictionary_without_a_reached_single(self):
        # Blocks of eight: lui is missing in block 0, sw in block 1 and
        # at the start of block 2.  The first failing block names lui.
        code = _code(
            "addiu $sp, $sp, -24", "addu $v0, $a0, $a1", "lui $t0, 20",
            *["addu $v0, $v0, $a1"] * 5,
            "addu $v0, $a0, $a1", "sw $ra, 20($sp)", *["jr $ra"] * 6,
            "sw $t0, 20($sp)", "jr $ra",
        )
        dictionary = Dictionary()
        for opcode_id in ID_TO_SPEC:
            if opcode_id not in (OPCODE_IDS["lui"], OPCODE_IDS["sw"]):
                dictionary.add(DictEntry(opcodes=(opcode_id,)))
        with pytest.raises(ValueError) as raised:
            MipsSadcCodec().compress(code, dictionary)
        assert str(raised.value) == (
            f"no dictionary entry matches opcode id {OPCODE_IDS['lui']} "
            "— singles must be seeded first"
        )

    def test_group_covers_an_opcode_without_a_single(self):
        # (lw), (lw, jr), no (jr): the parse never stops at the jr.
        code = _code("lw $ra, 20($sp)", "jr $ra")
        lw, jr = OPCODE_IDS["lw"], OPCODE_IDS["jr"]
        dictionary = Dictionary()
        dictionary.add(DictEntry(opcodes=(lw,)))
        dictionary.add(DictEntry(opcodes=(lw, jr)))
        codec = MipsSadcCodec()
        image = codec.compress(code, dictionary)
        assert codec.decompress(image) == code


# -- pinned compressor output ------------------------------------------------
#
# One SHA-256 per configuration over every program's dictionary entries,
# block payloads and model size, so any change to dictionary growth,
# parsing or stream coding shows.  The programs are the figure's own
# (scale 0.1, program seed 0); "paper-scale" is gcc at scale 1.0, whose
# growth runs many more cycles over far larger buckets.

PINNED_OUTPUT = {
    "default": (
        "5aa7894d839352549b7795d56c5f23b2"
        "06e8bf889115635ed36cd0b97ea53288"
    ),
    "groups-off": (
        "af48e8ae1d607c7de2a8c366840621ee"
        "c6efc05d0e739ef5cf124dc787175808"
    ),
    "bindings-off": (
        "591704f8b2c8203b70717fdd1fc11dd7"
        "7e9020c0dc7c563e92d1c7d103fefd33"
    ),
    "batch-inserts-1": (
        "13c4da1b63ee5828df40d68184c01ab0"
        "5120fd329224c29072a8e5d3ad21feb4"
    ),
    "max-entries-64": (
        "793a573cba6babdc328625bd8fa49280"
        "49744a6611e7e09a8156bbe14f7f971d"
    ),
    "block-size-64": (
        "81bbb70aa5608b4526cc7e8bc4a92aaf"
        "2c3cf4fc866ea2e564ecdfd421397432"
    ),
    "static": (
        "06d0f39210ff44209de7a98cda335b10"
        "da15802d3fbd36a8434f6ecf49dcb5a7"
    ),
    "paper-scale": (
        "d3969fbb84856832e712fdb6e7275486"
        "214e272562223242f9e7a7377ac3eb99"
    ),
}

_CONFIGS = {
    "groups-off": dict(enable_groups=False),
    "bindings-off": dict(enable_reg_binding=False, enable_imm_binding=False),
    "batch-inserts-1": dict(batch_inserts=1),
    "max-entries-64": dict(max_entries=64),
    "block-size-64": dict(block_size=64),
}


def _figure_program(name: str, scale: float = 0.1) -> bytes:
    return generate_benchmark(name, "mips", scale=scale, seed=0).code


def _update(digest, image) -> None:
    digest.update(repr(image.metadata["dictionary"].entries).encode())
    digest.update(b"".join(image.blocks))
    digest.update(f"|{image.model_bytes}|".encode())


@pytest.mark.parametrize("config", sorted(PINNED_OUTPUT))
def test_pinned_output(config):
    digest = hashlib.sha256()
    if config == "static":
        codec = MipsSadcCodec()
        static = codec.build_static_dictionary(
            [_figure_program(name) for name in ("compress", "xlisp", "perl")]
        )
        digest.update(repr(static.entries).encode())
        _update(digest, codec.compress(_figure_program("gcc"), static))
    elif config == "paper-scale":
        _update(digest, MipsSadcCodec().compress(_figure_program("gcc", 1.0)))
    else:
        if config == "default":
            codec, names = MipsSadcCodec(), BENCHMARK_NAMES
        else:
            codec, names = MipsSadcCodec(**_CONFIGS[config]), ("gcc", "go")
        for name in names:
            _update(digest, codec.compress(_figure_program(name)))
    assert digest.hexdigest() == PINNED_OUTPUT[config]


# -- growth against a naive oracle --------------------------------------------


def _oracle_grow(codec, blocks, seed_all_opcodes=False):
    """Dictionary growth written plainly: every cycle re-parses every
    block, counts candidate keys with ``Counter`` in block order, builds
    each candidate to price it, stable-sorts by gain, and inserts up to
    ``batch_inserts`` new entries."""
    dictionary = Dictionary(codec.max_entries)
    singles = list(ID_TO_SPEC) if seed_all_opcodes else []
    singles += [rec.opcode_id for block in blocks for rec in block]
    for opcode_id in singles:
        entry = DictEntry(opcodes=(opcode_id,))
        if entry not in dictionary and not dictionary.is_full:
            dictionary.add(entry)
    parses = [parse_block(dictionary, block) for block in blocks]
    for _cycle in range(codec.max_cycles):
        if dictionary.is_full:
            break
        entries = dictionary.entries
        counts = [Counter() for _kind in range(5)]
        for block, tokens in zip(blocks, parses):
            indices = [index for index, _pos in tokens]
            if codec.enable_groups:
                counts[0].update(zip(indices, indices[1:]))
                counts[1].update(zip(indices, indices[1:], indices[2:]))
            for index, pos in tokens:
                for j, slots, imm16, imm26 in _operand_plan(entries[index]):
                    rec = block[pos + j]
                    if codec.enable_reg_binding:
                        for slot in slots:
                            counts[2][(index, j, slot, rec.regs[slot])] += 1
                    if codec.enable_imm_binding and imm16:
                        counts[3][(index, j, rec.imm16)] += 1
                    if codec.enable_imm_binding and imm26:
                        counts[4][(index, j, rec.imm26)] += 1
        # Per kind: the bits one occurrence saves, and the entry a key
        # stands for; a candidate's gain is its saving less its storage.
        kinds = [
            (8, lambda a, b: entries[a].concat(entries[b])),
            (16, lambda a, b, c: entries[a].concat(entries[b]).concat(entries[c])),
            (5, lambda e, j, slot, value: entries[e].bind_reg(j, slot, value)),
            (16, lambda e, j, value: entries[e].bind_imm16(j, value)),
            (26, lambda e, j, value: entries[e].bind_imm26(j, value)),
        ]
        scored = []
        for (saved, build), counter in zip(kinds, counts):
            for key, count in counter.items():
                entry = build(*key)
                scored.append((count * saved - entry.storage_bits, entry))
        scored = [item for item in scored if item[0] > 0]
        scored.sort(key=lambda item: item[0], reverse=True)
        first_new = len(dictionary)
        for _gain, entry in scored:
            if dictionary.is_full:
                break
            if entry not in dictionary:
                dictionary.add(entry)
                if len(dictionary) - first_new >= codec.batch_inserts:
                    break
        if len(dictionary) == first_new:
            break
        parses = [parse_block(dictionary, block) for block in blocks]
    return dictionary, parses


#: Seed every mnemonic, then also parse a held-out program with the
#: grown dictionary, as ``compress`` does with a static dictionary.
STATIC = "static"

#: Codec settings the growth differential covers, with whether to seed
#: every mnemonic (as a static dictionary does).
GROWTH_CONFIGS = [
    (dict(), False),
    (dict(enable_groups=False), False),
    (dict(enable_reg_binding=False, enable_imm_binding=False), False),
    (dict(batch_inserts=1), False),
    (dict(batch_inserts=3), False),
    (dict(batch_inserts=8, max_cycles=6), False),
    (dict(block_size=4), False),
    (dict(block_size=16), False),
    (dict(block_size=64), False),
    (dict(block_size=256), False),
    (dict(max_entries=512), True),
    (dict(max_entries=300, block_size=256, batch_inserts=3), True),
    (dict(max_entries=300, block_size=16), STATIC),
]

#: A few instructions that share registers and immediates, so that
#: programs drawn from them tie on gain everywhere.
_TIE_POOL = [
    _rec(text) for text in (
        "addiu $sp, $sp, -24", "sw $ra, 20($sp)", "lw $ra, 20($sp)",
        "jr $ra", "addu $v0, $a0, $a1", "addu $v0, $v0, $a1",
        "lw $t0, 20($sp)", "sw $t0, 20($sp)", "jal 0x400", "j 0x400",
        "sll $t0, $t0, 2", "beq $t0, $zero, 20", "lui $t0, 20",
    )
]


@st.composite
def _growth_program(draw, per_block):
    """Blocks of a generated figure program at a small scale, or of
    instructions drawn from a pool that forces gain ties."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(BENCHMARK_NAMES))
        scale = draw(st.sampled_from([0.01, 0.02, 0.04]))
        seed = draw(st.integers(0, 99))
        code = generate_benchmark(name, "mips", scale=scale, seed=seed).code
        recs = [rec for block in MipsSadcCodec()._decode_blocks(code) for rec in block]
    else:
        recs = draw(st.lists(st.sampled_from(_TIE_POOL), max_size=160))
    return [recs[i : i + per_block] for i in range(0, len(recs), per_block)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GROWTH_CONFIGS), st.data())
def test_growth_matches_a_naive_oracle(config, data):
    """Entries, operand plans and final parses equal the plain per-block
    re-parse, count and stable sort, including every tie-break; a
    held-out program's static-mode parse equals :func:`parse_block`'s."""
    options, seed_all = config
    codec = MipsSadcCodec(**options)
    per_block = codec.block_size // 4
    blocks = data.draw(_growth_program(per_block))
    dictionary, plans, parses = codec._grow(blocks, seed_all)
    expected, expected_parses = _oracle_grow(codec, blocks, seed_all)
    assert dictionary.entries == expected.entries
    assert plans == [_operand_plan(entry) for entry in expected.entries]
    assert parses == expected_parses
    if seed_all == STATIC:
        held_out = data.draw(_growth_program(per_block))
        program = _Program.of_records(held_out, per_block)
        parse = _Parse(program, dictionary.entries)
        tokens = parse.walk()
        assert program.parses(tokens, parse.best[tokens]) == [
            parse_block(dictionary, block) for block in held_out
        ]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_growth_without_room_for_every_single_fails_as_the_oracle(data):
    """With ``max_entries`` one below the distinct-opcode count, some
    opcode gets no single entry: both raise the same ``ValueError``."""
    blocks = data.draw(_growth_program(8))
    distinct = len({rec.opcode_id for block in blocks for rec in block})
    if distinct < 2:
        return
    codec = MipsSadcCodec(max_entries=distinct - 1)
    with pytest.raises(ValueError) as expected:
        _oracle_grow(codec, blocks)
    with pytest.raises(ValueError, match="singles must be seeded first") as raised:
        codec._grow(blocks)
    assert str(raised.value) == str(expected.value)


def test_candidate_keys_that_cannot_fit_fail_loudly():
    blocks = [[_rec("jr $ra")]]
    MipsSadcCodec(max_entries=1 << 20).build_dictionary(blocks)
    with pytest.raises(ValueError, match="candidate keys"):
        MipsSadcCodec(max_entries=(1 << 20) + 1).build_dictionary(blocks)
    with pytest.raises(ValueError, match="candidate keys"):
        MipsSadcCodec(block_size=1 << 30).build_dictionary(blocks)


# ---------------------------------------------------------------------------
# Decode: each entry expands through the steps built from its operand plan


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decode_steps_match_to_word(data):
    """A step's word, with streamed operands of any size ORed in at its
    shifts and masks, is the word ``InstrRec.to_word`` builds."""
    dictionary = _STEPS_IMAGE.metadata["dictionary"]
    index = data.draw(st.integers(0, len(dictionary) - 1))
    entry = dictionary.entries[index]
    steps = mips._decode_steps(dictionary, index)
    assert len(steps) == entry.length
    operand = st.integers(0, 2**32 - 1)
    for j, (word, shifts, imm16, imm26) in enumerate(steps):
        spec = ID_TO_SPEC[entry.opcodes[j]]
        regs = [
            entry.reg_binding(j, slot)
            for slot in range(len(register_slots(spec)))
        ]
        streamed = [slot for slot, value in enumerate(regs) if value is None]
        assert len(shifts) == len(streamed)
        for slot, shift in zip(streamed, shifts):
            regs[slot] = data.draw(operand)
            word |= (regs[slot] & 0x1F) << shift
        immediates = []
        for uses, streams, binding, mask in (
            (uses_imm16(spec), imm16, entry.imm16_binding(j), 0xFFFF),
            (uses_imm26(spec), imm26, entry.imm26_binding(j), 0x3FFFFFF),
        ):
            assert streams == (uses and binding is None)
            value = data.draw(operand) if streams else binding
            immediates.append(value if uses else None)
            if streams:
                word |= value & mask
        rec = InstrRec(entry.opcodes[j], tuple(regs), *immediates)
        assert word == rec.to_word()


_STEPS_IMAGE = MipsSadcCodec().compress(
    generate_benchmark("vortex", "mips", scale=0.05).code
)


def _one_entry_image(opcodes, payload):
    """A two-instruction SADC image whose dictionary holds one entry,
    ``opcodes``, coded by one-bit tokens and flat operand codes."""
    dictionary = Dictionary()
    dictionary.entries.append(DictEntry(opcodes))
    flat = {"regs": 32, "imm16_hi": 256, "imm16_lo": 256,
            "imm26_hi": 1024, "imm26_lo": 256}
    codes = {"tokens": build_code({0: 1})}
    for name, size in flat.items():
        codes[name] = build_code(dict.fromkeys(range(size), 1))
    return CompressedImage(
        algorithm="SADC", original_size=8, block_size=32, blocks=[payload],
        model_bytes=0,
        metadata={"isa": "mips", "dictionary": dictionary, "codes": codes},
    )


class TestDecodeErrorOrder:
    """An entry holding an opcode id the ISA lacks fails only after the
    instructions before it have read their operands."""

    ADDIU = OPCODE_IDS["addiu"]

    def test_unknown_opcode_after_its_operands(self):
        # token 0, rt 1, rs 2, imm16 hi 3 and lo 4: 1 + 5 + 5 + 8 + 8 bits.
        payload = (0b0_00001_00010_00000011_00000100 << 5).to_bytes(4, "big")
        image = _one_entry_image((self.ADDIU, 200), payload)
        with pytest.raises(CorruptedStreamError, match="KeyError: 200") as info:
            MipsSadcCodec().decompress_block(image, 0)
        assert info.value.category == "bounds"

    def test_operands_run_out_first(self):
        image = _one_entry_image((self.ADDIU, 200), b"\x00\x00")
        with pytest.raises(CorruptedStreamError) as info:
            MipsSadcCodec().decompress_block(image, 0)
        assert info.value.category == "truncated"

    def test_unknown_opcode_first(self):
        image = _one_entry_image((200, self.ADDIU), b"\x00\x00")
        with pytest.raises(CorruptedStreamError, match="KeyError: 200") as info:
            MipsSadcCodec().decompress_block(image, 0)
        assert info.value.category == "bounds"
