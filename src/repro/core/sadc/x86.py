"""SADC for x86: dictionary compression over the three byte streams.

The Pentium configuration in Section 5: instructions split into
**opcode** (prefixes + opcode bytes), **ModRM + SIB**, and
**immediate + displacement** streams, all byte-wide.  The dictionary
covers the opcode stream; because x86 opcode entries are variable-length
byte strings, a base symbol here is the whole prefixes+opcode byte string
of one instruction.  Groups combine adjacent instructions' opcode
entries.  Register/immediate binding does not apply (registers live in
ModRM, which stays a separate stream) — one reason the paper's x86
ratios trail its MIPS ratios.

Block handling: an instruction belongs to the cache block in which it
*starts*.  Real hardware would decompress exactly 32 original bytes per
block (splitting an instruction across blocks); assigning whole
instructions to blocks preserves the same random-access granularity
while keeping the streams well-formed, and changes per-block sizes by at
most one instruction.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.bitstream.io import BitReader, BitWriter
from repro.core.lat import CompressedImage, original_block_count
from repro.core.sadc.entry import token_bits
from repro.entropy.huffman import (
    HuffmanCode,
    HuffmanDecoder,
    HuffmanEncoder,
    build_code,
)
from repro.isa.x86.formats import X86Instruction, decode_all
from repro.obs import get_recorder
from repro.resilience.errors import (
    CATEGORY_BUDGET,
    CATEGORY_STRUCTURE,
    CorruptedStreamError,
    decode_guard,
    require_type,
)

DEFAULT_BLOCK_SIZE = 32

#: A dictionary entry: a tuple of opcode-entry byte strings.
X86Entry = Tuple[bytes, ...]


def _entry_storage_bits(entry: X86Entry) -> int:
    """Dictionary storage: the raw bytes plus a 2-bit length tag each."""
    return sum(8 * len(part) + 2 for part in entry)


class X86Dictionary:
    """Capacity-limited dictionary over opcode-entry strings."""

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self.entries: List[X86Entry] = []
        self._known: Dict[X86Entry, int] = {}
        self._by_first: Dict[bytes, List[int]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, entry: X86Entry) -> bool:
        return entry in self._known

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.max_entries

    def add(self, entry: X86Entry) -> int:
        if entry in self._known:
            return self._known[entry]
        if self.is_full:
            raise ValueError("dictionary is full")
        index = len(self.entries)
        self.entries.append(entry)
        self._known[entry] = index
        bucket = self._by_first.setdefault(entry[0], [])
        bucket.append(index)
        bucket.sort(key=lambda i: len(self.entries[i]), reverse=True)
        return index

    def candidates_starting_with(self, first: bytes) -> List[int]:
        return self._by_first.get(first, [])

    @property
    def storage_bits(self) -> int:
        return sum(_entry_storage_bits(entry) for entry in self.entries)


def _opcode_entry(instruction: X86Instruction) -> bytes:
    return instruction.prefixes + instruction.opcode


def parse_block(
    dictionary: X86Dictionary, entries_in_block: Sequence[bytes]
) -> List[int]:
    """Greedy longest-match parse of one block's opcode entries."""
    tokens: List[int] = []
    pos = 0
    while pos < len(entries_in_block):
        chosen = None
        for index in dictionary.candidates_starting_with(entries_in_block[pos]):
            entry = dictionary.entries[index]
            if pos + len(entry) <= len(entries_in_block) and all(
                entry[j] == entries_in_block[pos + j] for j in range(len(entry))
            ):
                chosen = index
                break
        if chosen is None:
            raise ValueError("no dictionary entry matches — seed singles first")
        tokens.append(chosen)
        pos += len(dictionary.entries[chosen])
    return tokens


class X86SadcCodec:
    """SADC compressor/decompressor for x86 code images."""

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_entries: int = 256,
        batch_inserts: int = 8,
        max_cycles: int = 64,
    ) -> None:
        self.block_size = block_size
        self.max_entries = max_entries
        self.batch_inserts = max(1, batch_inserts)
        self.max_cycles = max_cycles

    # -- decomposition --------------------------------------------------

    def _decode_blocks(self, code: bytes) -> List[List[X86Instruction]]:
        """Instructions grouped by the block where each one starts."""
        instructions = decode_all(code)
        block_count = max(1, original_block_count(len(code), self.block_size))
        blocks: List[List[X86Instruction]] = [[] for _ in range(block_count)]
        offset = 0
        for instruction in instructions:
            blocks[offset // self.block_size].append(instruction)
            offset += instruction.length
        return blocks

    # -- dictionary generation -------------------------------------------

    def build_dictionary(
        self, blocks: Sequence[Sequence[X86Instruction]]
    ) -> X86Dictionary:
        dictionary = X86Dictionary(self.max_entries)
        per_block_entries = [
            [_opcode_entry(i) for i in block] for block in blocks
        ]
        for entries in per_block_entries:
            for entry_bytes in entries:
                single = (entry_bytes,)
                if single not in dictionary and not dictionary.is_full:
                    dictionary.add(single)

        for _cycle in range(self.max_cycles):
            if dictionary.is_full:
                break
            parses = [
                parse_block(dictionary, entries) for entries in per_block_entries
            ]
            pair_counts: Counter = Counter()
            triple_counts: Counter = Counter()
            for tokens in parses:
                for i in range(len(tokens) - 1):
                    pair_counts[(tokens[i], tokens[i + 1])] += 1
                for i in range(len(tokens) - 2):
                    triple_counts[(tokens[i], tokens[i + 1], tokens[i + 2])] += 1
            scored: List[Tuple[int, X86Entry]] = []
            for (a, b), f in pair_counts.items():
                entry = dictionary.entries[a] + dictionary.entries[b]
                scored.append((f * 8 - _entry_storage_bits(entry), entry))
            for (a, b, c), f in triple_counts.items():
                entry = (
                    dictionary.entries[a]
                    + dictionary.entries[b]
                    + dictionary.entries[c]
                )
                scored.append((f * 16 - _entry_storage_bits(entry), entry))
            scored.sort(key=lambda item: item[0], reverse=True)
            inserted = 0
            for gain, entry in scored:
                if gain <= 0 or dictionary.is_full:
                    break
                if entry in dictionary:
                    continue
                dictionary.add(entry)
                inserted += 1
                if inserted >= self.batch_inserts:
                    break
            if inserted == 0:
                break
        return dictionary

    # -- coding -----------------------------------------------------------

    def compress(self, code: bytes) -> CompressedImage:
        rec = get_recorder()
        blocks = self._decode_blocks(code)
        with rec.span("sadc.build_dictionary", isa="x86"):
            dictionary = self.build_dictionary(blocks)
        per_block_entries = [
            [_opcode_entry(i) for i in block] for block in blocks
        ]
        parses = [
            parse_block(dictionary, entries) for entries in per_block_entries
        ]

        token_counts: Counter = Counter()
        modrm_counts: Counter = Counter()
        imm_counts: Counter = Counter()
        for block, tokens in zip(blocks, parses):
            token_counts.update(tokens)
            for instruction in block:
                if instruction.modrm is not None:
                    modrm_counts[instruction.modrm] += 1
                if instruction.sib is not None:
                    modrm_counts[instruction.sib] += 1
                imm_counts.update(instruction.disp)
                imm_counts.update(instruction.imm)
        codes = {
            "tokens": build_code(token_counts),
            "modrm_sib": build_code(modrm_counts),
            "imm_disp": build_code(imm_counts),
        }

        token_encoder = HuffmanEncoder(codes["tokens"])
        modrm_encoder = HuffmanEncoder(codes["modrm_sib"])
        imm_encoder = HuffmanEncoder(codes["imm_disp"])
        payload = []
        with rec.span("sadc.encode", isa="x86"):
            for block, tokens in zip(blocks, parses):
                writer = BitWriter()
                token_encoder.encode_to(writer, tokens)
                for instruction in block:
                    if instruction.modrm is not None:
                        modrm_encoder.encode_to(writer, [instruction.modrm])
                    if instruction.sib is not None:
                        modrm_encoder.encode_to(writer, [instruction.sib])
                    imm_encoder.encode_to(writer, list(instruction.disp))
                    imm_encoder.encode_to(writer, list(instruction.imm))
                payload.append(writer.getvalue())

        model_bits = (
            dictionary.storage_bits
            + codes["tokens"].table_bits(token_bits(len(dictionary)))
            + codes["modrm_sib"].table_bits(8)
            + codes["imm_disp"].table_bits(8)
        )
        image = CompressedImage(
            algorithm="SADC",
            original_size=len(code),
            block_size=self.block_size,
            blocks=payload,
            model_bytes=(model_bits + 7) // 8,
            metadata={
                "isa": "x86",
                "dictionary": dictionary,
                "codes": codes,
                "block_instruction_counts": [len(b) for b in blocks],
            },
        )
        if rec.enabled:
            # Huffman streams: Σ count × code length is the coded size.
            stream_bits = {
                "tokens": token_encoder.encoded_bits(token_counts.elements()),
                "modrm_sib": modrm_encoder.encoded_bits(modrm_counts.elements()),
                "imm_disp": imm_encoder.encoded_bits(imm_counts.elements()),
            }
            for stream, bits in stream_bits.items():
                if bits:
                    rec.add_bits(stream, bits)
            pad = image.payload_bytes * 8 - sum(stream_bits.values())
            if pad:
                rec.add_bits("padding", pad)
            rec.count("sadc.tokens_emitted", sum(map(len, parses)))
            rec.count("sadc.blocks_encoded", len(payload))
            rec.add_bits("model.dictionary", dictionary.storage_bits)
            rec.add_bits("model.tables", model_bits - dictionary.storage_bits)
            model_pad = image.model_bytes * 8 - model_bits
            if model_pad:
                rec.add_bits("model.pad", model_pad)
            rec.add_bits("lat", image.compact_lat.storage_bytes * 8)
            rec.gauge("sadc.dictionary_entries", len(dictionary.entries))
        return image

    # repro: contract decode-entry
    def decompress(self, image: CompressedImage) -> bytes:
        return b"".join(
            self.decompress_blocks(image, range(image.block_count()))
        )

    # repro: contract decode-entry
    def decompress_blocks(
        self, image: CompressedImage, indices
    ) -> List[bytes]:
        """Batch form of :meth:`decompress_block` (uniform batch API).

        x86 reassembly is grammar-driven and has no vectorised kernel;
        the batch is simply the per-block loop.
        """
        return [self.decompress_block(image, index) for index in indices]

    def decompress_block(self, image: CompressedImage, block_index: int) -> bytes:
        """Expand one block back into instruction bytes.

        The token stream is decoded first; each token expands to
        prefixes+opcode strings whose grammar then dictates how many
        ModRM/SIB and disp/imm bytes to pull from the operand streams —
        the software mirror of the paper's control-logic unit.
        """
        from repro.core.sadc.x86_reassemble import reassemble_instruction

        with decode_guard("sadc.x86.decompress_block"):
            dictionary = require_type(
                image.metadata["dictionary"], X86Dictionary, "SADC dictionary"
            )
            codes = require_type(image.metadata["codes"], dict, "SADC codes")
            expected = image.metadata["block_instruction_counts"][block_index]
            if expected > image.block_size:
                # The per-block instruction count is a wire-declared
                # u16; x86 instructions are at least one byte, so a
                # count beyond block_size is a forged length that would
                # otherwise drive allocation before the reader runs dry.
                raise CorruptedStreamError(
                    f"block {block_index} declares {expected} instructions "
                    f"for a {image.block_size}-byte block",
                    category=CATEGORY_BUDGET,
                )
            reader = BitReader(image.blocks[block_index])
            token_decoder, modrm_decoder, imm_decoder = (
                HuffmanDecoder(
                    require_type(codes[name], HuffmanCode, f"SADC {name} code")
                )
                for name in ("tokens", "modrm_sib", "imm_disp")
            )

            opcode_entries: List[bytes] = []
            while len(opcode_entries) < expected:
                token = token_decoder.decode_symbol(reader)
                expansion = dictionary.entries[token]
                if not expansion or not all(expansion):
                    # A token must expand to at least one non-empty
                    # opcode string or the loop cannot advance; only a
                    # corrupted deserialised dictionary gets here.
                    raise CorruptedStreamError(
                        f"dictionary entry {token} is empty",
                        category=CATEGORY_STRUCTURE,
                    )
                opcode_entries.extend(expansion)
            if len(opcode_entries) != expected:
                raise ValueError(
                    f"block {block_index}: group crossed block boundary"
                )
            out = bytearray()
            for entry_bytes in opcode_entries:
                instruction = reassemble_instruction(
                    entry_bytes,
                    lambda: modrm_decoder.decode_symbol(reader),
                    lambda n: bytes(
                        [imm_decoder.decode_symbol(reader) for _ in range(n)]
                    ),
                )
                out.extend(instruction.encode())
            return bytes(out)
