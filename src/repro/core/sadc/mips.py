"""SADC for MIPS: dictionary compression over the four operand streams.

Pipeline (Section 4 of the paper):

1. Decode the program into instruction records; split the streams
   (opcode / register / 16-bit immediate / 26-bit immediate).
2. **Dictionary generation + parsing** — start from all single opcodes;
   repeatedly re-parse the program with the current dictionary, gather
   candidates (adjacent token pairs and triples; register-value and
   immediate-value specialisations), insert those with the largest gain,
   until the 256-entry cap or no positive gain remains.
3. **Final entropy coding** — Huffman-code the dictionary-index stream
   and the surviving operand streams ("The final step of our compression
   is to encode all resulting compressed streams by using Huffman
   encoding").

Every cache block parses and encodes independently: dictionary groups
never cross block boundaries, so the refill engine can expand any block
in isolation.

Deviations from the paper, both documented in DESIGN.md:

* Gains are computed in *bits* with the true current token count
  (``g = f·(t−1)·8 − entry_storage``) rather than the paper's byte
  approximation ``g = f(n−1) − n``; same greedy spirit, slightly more
  accurate bookkeeping.
* Instead of erasing and regrowing the dictionary each cycle, we keep it
  and re-parse — equivalent outcome, far fewer passes; a
  ``batch_inserts`` knob trades generator fidelity for speed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bitstream.fields import chunk_words, words_to_bytes
from repro.bitstream.io import BitReader, BitWriter
from repro.core.lat import CompressedImage
from repro.core.sadc.entry import DictEntry, Dictionary
from repro.entropy.huffman import (
    HuffmanCode,
    HuffmanDecoder,
    HuffmanEncoder,
    build_code,
)
from repro.isa.mips.formats import Instruction, decode
from repro.isa.mips.streams import (
    ID_TO_SPEC,
    OPCODE_IDS,
    register_slots,
    uses_imm16,
    uses_imm26,
)
from repro.obs import get_recorder
from repro.resilience.errors import (
    CATEGORY_STRUCTURE,
    CorruptedStreamError,
    decode_guard,
)
from repro.resilience.frame import block_payload

DEFAULT_BLOCK_SIZE = 32


@dataclass(frozen=True)
class InstrRec:
    """One instruction, pre-split into SADC stream components."""

    opcode_id: int
    regs: Tuple[int, ...]
    imm16: Optional[int]
    imm26: Optional[int]

    @classmethod
    def from_word(cls, word: int) -> "InstrRec":
        instruction = decode(word)
        spec = instruction.spec
        regs = tuple(
            getattr(instruction, slot) for slot in register_slots(spec)
        )
        rec = cls(
            opcode_id=OPCODE_IDS[spec.mnemonic],
            regs=regs,
            imm16=instruction.imm if uses_imm16(spec) else None,
            imm26=instruction.target if uses_imm26(spec) else None,
        )
        # The stream split only keeps fields the opcode declares; a word
        # with stray bits in undeclared fields would not survive the
        # round trip, so reject it up front rather than corrupt silently.
        if rec.to_word() != word:
            raise ValueError(
                f"word {word:#010x} ({spec.mnemonic}) is non-canonical: "
                "it sets fields the opcode does not encode"
            )
        return rec

    def to_word(self) -> int:
        spec = ID_TO_SPEC[self.opcode_id]
        fields = {"rs": 0, "rt": 0, "rd": 0, "shamt": 0, "imm": 0, "target": 0}
        for slot, value in zip(register_slots(spec), self.regs):
            fields[slot] = value
        if self.imm16 is not None:
            fields["imm"] = self.imm16
        if self.imm26 is not None:
            fields["target"] = self.imm26
        return Instruction(spec, **fields).encode()


#: A parsed token: (dictionary index, start position in the block).
ParsedToken = Tuple[int, int]


def _entry_matches(entry: DictEntry, instrs: Sequence[InstrRec], pos: int) -> bool:
    if pos + entry.length > len(instrs):
        return False
    for j, opcode in enumerate(entry.opcodes):
        rec = instrs[pos + j]
        if rec.opcode_id != opcode:
            return False
    for j, slot, value in entry.bound_regs:
        if instrs[pos + j].regs[slot] != value:
            return False
    for j, value in entry.bound_imm16:
        if instrs[pos + j].imm16 != value:
            return False
    for j, value in entry.bound_imm26:
        if instrs[pos + j].imm26 != value:
            return False
    return True


def parse_block(
    dictionary: Dictionary, instrs: Sequence[InstrRec]
) -> List[ParsedToken]:
    """Greedy longest-match parse of one block's instructions."""
    tokens: List[ParsedToken] = []
    pos = 0
    while pos < len(instrs):
        chosen = None
        for index in dictionary.candidates_starting_with(instrs[pos].opcode_id):
            if _entry_matches(dictionary.entries[index], instrs, pos):
                chosen = index
                break
        if chosen is None:
            raise ValueError(
                f"no dictionary entry matches opcode id "
                f"{instrs[pos].opcode_id} — singles must be seeded first"
            )
        tokens.append((chosen, pos))
        pos += dictionary.entries[chosen].length
    return tokens


class MipsSadcCodec:
    """SADC compressor/decompressor for MIPS code images."""

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_entries: int = 256,
        batch_inserts: int = 8,
        max_cycles: int = 64,
        enable_groups: bool = True,
        enable_reg_binding: bool = True,
        enable_imm_binding: bool = True,
        max_group_tokens: int = 3,
    ) -> None:
        if block_size % 4 != 0:
            raise ValueError("block_size must hold whole MIPS instructions")
        self.block_size = block_size
        self.max_entries = max_entries
        self.batch_inserts = max(1, batch_inserts)
        self.max_cycles = max_cycles
        self.enable_groups = enable_groups
        self.enable_reg_binding = enable_reg_binding
        self.enable_imm_binding = enable_imm_binding
        self.max_group_tokens = max_group_tokens

    # -- program decomposition ------------------------------------------

    def _decode_blocks(self, code: bytes) -> List[List[InstrRec]]:
        instrs = [InstrRec.from_word(w) for w in chunk_words(code, 4)]
        per_block = self.block_size // 4
        return [
            instrs[i : i + per_block] for i in range(0, len(instrs), per_block)
        ]

    # -- dictionary generation ------------------------------------------

    def build_dictionary(
        self,
        blocks: Sequence[Sequence[InstrRec]],
        seed_all_opcodes: bool = False,
    ) -> Dictionary:
        """Iterative gain-driven dictionary generation (Section 4.1).

        ``seed_all_opcodes`` inserts a single-opcode entry for *every*
        mnemonic in the ISA (not just those observed), which a *static*
        dictionary needs so it can parse programs it was not trained on.
        """
        dictionary = Dictionary(self.max_entries)
        if seed_all_opcodes:
            for opcode_id in ID_TO_SPEC:
                if not dictionary.is_full:
                    dictionary.add(DictEntry(opcodes=(opcode_id,)))
        for block in blocks:
            for rec in block:
                entry = DictEntry(opcodes=(rec.opcode_id,))
                if entry not in dictionary and not dictionary.is_full:
                    dictionary.add(entry)

        for _cycle in range(self.max_cycles):
            if dictionary.is_full:
                break
            parses = [parse_block(dictionary, block) for block in blocks]
            candidates = self._gather_candidates(dictionary, blocks, parses)
            inserted = 0
            for gain, entry in candidates:
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

    def _gather_candidates(
        self,
        dictionary: Dictionary,
        blocks: Sequence[Sequence[InstrRec]],
        parses: Sequence[Sequence[ParsedToken]],
    ) -> List[Tuple[int, DictEntry]]:
        """Score every candidate insertion, best gain first."""
        entries = dictionary.entries
        pair_counts: Counter = Counter()
        triple_counts: Counter = Counter()
        reg_counts: Counter = Counter()
        imm16_counts: Counter = Counter()
        imm26_counts: Counter = Counter()

        for block, tokens in zip(blocks, parses):
            if self.enable_groups:
                for i in range(len(tokens) - 1):
                    pair_counts[(tokens[i][0], tokens[i + 1][0])] += 1
                if self.max_group_tokens >= 3:
                    for i in range(len(tokens) - 2):
                        triple_counts[
                            (tokens[i][0], tokens[i + 1][0], tokens[i + 2][0])
                        ] += 1
            for index, pos in tokens:
                entry = entries[index]
                for j in range(entry.length):
                    rec = block[pos + j]
                    if self.enable_reg_binding:
                        for slot, value in enumerate(rec.regs):
                            if entry.reg_binding(j, slot) is None:
                                reg_counts[(index, j, slot, value)] += 1
                    if self.enable_imm_binding:
                        if rec.imm16 is not None and entry.imm16_binding(j) is None:
                            imm16_counts[(index, j, rec.imm16)] += 1
                        if rec.imm26 is not None and entry.imm26_binding(j) is None:
                            imm26_counts[(index, j, rec.imm26)] += 1

        scored: List[Tuple[int, DictEntry]] = []
        for (a, b), f in pair_counts.items():
            entry = entries[a].concat(entries[b])
            scored.append((f * 8 - entry.storage_bits, entry))
        for (a, b, c), f in triple_counts.items():
            entry = entries[a].concat(entries[b]).concat(entries[c])
            scored.append((f * 16 - entry.storage_bits, entry))
        for (index, j, slot, value), f in reg_counts.items():
            entry = entries[index].bind_reg(j, slot, value)
            scored.append((f * 5 - entry.storage_bits, entry))
        for (index, j, value), f in imm16_counts.items():
            entry = entries[index].bind_imm16(j, value)
            scored.append((f * 16 - entry.storage_bits, entry))
        for (index, j, value), f in imm26_counts.items():
            entry = entries[index].bind_imm26(j, value)
            scored.append((f * 26 - entry.storage_bits, entry))
        scored.sort(key=lambda item: item[0], reverse=True)
        return scored

    # -- entropy coding ---------------------------------------------------

    def _collect_symbols(
        self,
        dictionary: Dictionary,
        blocks: Sequence[Sequence[InstrRec]],
        parses: Sequence[Sequence[ParsedToken]],
    ) -> Dict[str, Counter]:
        """Final-parse symbol statistics per stream, for Huffman tables."""
        counters = {
            "tokens": Counter(),
            "regs": Counter(),
            "imm16_hi": Counter(),
            "imm16_lo": Counter(),
            "imm26_hi": Counter(),
            "imm26_lo": Counter(),
        }
        for block, tokens in zip(blocks, parses):
            for index, pos in tokens:
                counters["tokens"][index] += 1
                entry = dictionary.entries[index]
                for j in range(entry.length):
                    rec = block[pos + j]
                    for slot, value in enumerate(rec.regs):
                        if entry.reg_binding(j, slot) is None:
                            counters["regs"][value] += 1
                    if rec.imm16 is not None and entry.imm16_binding(j) is None:
                        counters["imm16_hi"][rec.imm16 >> 8] += 1
                        counters["imm16_lo"][rec.imm16 & 0xFF] += 1
                    if rec.imm26 is not None and entry.imm26_binding(j) is None:
                        counters["imm26_hi"][rec.imm26 >> 16] += 1
                        counters["imm26_lo"][(rec.imm26 >> 8) & 0xFF] += 1
                        counters["imm26_lo"][rec.imm26 & 0xFF] += 1
        return counters

    def _encode_block(
        self,
        dictionary: Dictionary,
        codes: Dict[str, HuffmanCode],
        block: Sequence[InstrRec],
        tokens: Sequence[ParsedToken],
    ) -> bytes:
        writer = BitWriter()
        encoders = {name: HuffmanEncoder(code) for name, code in codes.items()}
        for index, pos in tokens:
            encoders["tokens"].encode_to(writer, [index])
            entry = dictionary.entries[index]
            for j in range(entry.length):
                rec = block[pos + j]
                for slot, value in enumerate(rec.regs):
                    if entry.reg_binding(j, slot) is None:
                        encoders["regs"].encode_to(writer, [value])
                if rec.imm16 is not None and entry.imm16_binding(j) is None:
                    encoders["imm16_hi"].encode_to(writer, [rec.imm16 >> 8])
                    encoders["imm16_lo"].encode_to(writer, [rec.imm16 & 0xFF])
                if rec.imm26 is not None and entry.imm26_binding(j) is None:
                    encoders["imm26_hi"].encode_to(writer, [rec.imm26 >> 16])
                    encoders["imm26_lo"].encode_to(writer, [(rec.imm26 >> 8) & 0xFF])
                    encoders["imm26_lo"].encode_to(writer, [rec.imm26 & 0xFF])
        return writer.getvalue()

    def _table_bits(self, codes: Dict[str, HuffmanCode]) -> int:
        widths = {
            "tokens": 8,
            "regs": 5,
            "imm16_hi": 8,
            "imm16_lo": 8,
            "imm26_hi": 10,
            "imm26_lo": 8,
        }
        return sum(codes[name].table_bits(widths[name]) for name in codes)

    # -- public API -------------------------------------------------------

    def build_static_dictionary(
        self, training_codes: Sequence[bytes]
    ) -> Dictionary:
        """Build one dictionary from a training corpus (Section 4's
        "static dictionaries are built once and used for all programs").

        Every ISA mnemonic is seeded so the result can parse programs
        outside the corpus; groups and bindings come from corpus gains.
        """
        blocks: List[List[InstrRec]] = []
        for code in training_codes:
            blocks.extend(self._decode_blocks(code))
        return self.build_dictionary(blocks, seed_all_opcodes=True)

    def compress(
        self, code: bytes, dictionary: Optional[Dictionary] = None
    ) -> CompressedImage:
        """Compress a MIPS code image.

        With ``dictionary`` supplied the codec runs in *static* mode:
        the dictionary is used as-is (it must cover every opcode; use
        :meth:`build_static_dictionary`) and only the Huffman tables are
        fit to this program.  Default is the paper's semiadaptive mode —
        a fresh dictionary grown for this program.
        """
        rec = get_recorder()
        blocks = self._decode_blocks(code)
        if dictionary is None:
            with rec.span("sadc.build_dictionary", isa="mips"):
                dictionary = self.build_dictionary(blocks)
        parses = [parse_block(dictionary, block) for block in blocks]
        counters = self._collect_symbols(dictionary, blocks, parses)
        codes = {name: build_code(counter) for name, counter in counters.items()}
        with rec.span("sadc.encode", isa="mips"):
            payload = [
                self._encode_block(dictionary, codes, block, tokens)
                for block, tokens in zip(blocks, parses)
            ]
        model_bits = dictionary.storage_bits + self._table_bits(codes)
        image = CompressedImage(
            algorithm="SADC",
            original_size=len(code),
            block_size=self.block_size,
            blocks=payload,
            model_bytes=(model_bits + 7) // 8,
            metadata={
                "isa": "mips",
                "dictionary": dictionary,
                "codes": codes,
            },
        )
        if rec.enabled:
            # Huffman streams: Σ count × code length is the coded size.
            # The immediate halves fold into ``imm16`` / ``imm26``.
            stream_bits: Counter = Counter()
            for name, counter in counters.items():
                bits = HuffmanEncoder(codes[name]).encoded_bits(counter.elements())
                stream_bits[name.partition("_")[0]] += bits
            for stream, bits in stream_bits.items():
                if bits:
                    rec.add_bits(stream, bits)
            pad = image.payload_bytes * 8 - sum(stream_bits.values())
            if pad:
                rec.add_bits("padding", pad)
            if payload:  # an empty program encodes no blocks
                rec.count("sadc.tokens_emitted", sum(map(len, parses)))
                rec.count("sadc.blocks_encoded", len(payload))
            rec.add_bits("model.dictionary", dictionary.storage_bits)
            rec.add_bits("model.tables", self._table_bits(codes))
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
        """Random-access expansion of a batch of cache blocks.

        The one decode loop (:meth:`decompress_block` is a batch of
        one).  The stream Huffman decoders are built once per batch;
        they are read-only during decode, so sharing is safe.
        """
        indices = list(indices)
        if not indices:
            return []
        dictionary: Dictionary = image.metadata["dictionary"]
        codes: Dict[str, HuffmanCode] = image.metadata["codes"]
        decoders = {name: HuffmanDecoder(code) for name, code in codes.items()}
        out: List[bytes] = []
        for block_index in indices:
            expected = image.original_block_size(block_index) // 4
            with decode_guard("sadc.mips.decompress_block"):
                reader = BitReader(block_payload(image, block_index), pad=False)
                out.append(self._decode_words(
                    reader, dictionary, decoders, expected, block_index
                ))
        return out

    def decompress_block(self, image: CompressedImage, block_index: int) -> bytes:
        """Random-access expansion of one cache block."""
        return self.decompress_blocks(image, [block_index])[0]

    def _decode_words(
        self,
        reader: BitReader,
        dictionary: Dictionary,
        decoders: Dict[str, HuffmanDecoder],
        expected: int,
        block_index: int,
    ) -> bytes:
        words: List[int] = []
        while len(words) < expected:
            index = decoders["tokens"].decode_from(reader, 1)[0]
            entry = dictionary.entries[index]
            if not entry.opcodes:
                # An empty entry decodes zero instructions: the loop
                # would never advance — only reachable from a corrupted
                # deserialised dictionary.
                raise CorruptedStreamError(
                    f"dictionary entry {index} is empty",
                    category=CATEGORY_STRUCTURE,
                )
            for j, opcode_id in enumerate(entry.opcodes):
                spec = ID_TO_SPEC[opcode_id]
                regs: List[int] = []
                for slot in range(len(register_slots(spec))):
                    bound = entry.reg_binding(j, slot)
                    if bound is None:
                        regs.append(decoders["regs"].decode_from(reader, 1)[0])
                    else:
                        regs.append(bound)
                imm16 = None
                if uses_imm16(spec):
                    imm16 = entry.imm16_binding(j)
                    if imm16 is None:
                        hi = decoders["imm16_hi"].decode_from(reader, 1)[0]
                        lo = decoders["imm16_lo"].decode_from(reader, 1)[0]
                        imm16 = (hi << 8) | lo
                imm26 = None
                if uses_imm26(spec):
                    imm26 = entry.imm26_binding(j)
                    if imm26 is None:
                        hi = decoders["imm26_hi"].decode_from(reader, 1)[0]
                        mid = decoders["imm26_lo"].decode_from(reader, 1)[0]
                        lo = decoders["imm26_lo"].decode_from(reader, 1)[0]
                        imm26 = (hi << 16) | (mid << 8) | lo
                rec = InstrRec(opcode_id, tuple(regs), imm16, imm26)
                words.append(rec.to_word())
        if len(words) != expected:
            raise ValueError(
                f"block {block_index}: dictionary group crossed the block "
                f"boundary ({len(words)} != {expected} instructions)"
            )
        return words_to_bytes(words, 4)
