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
  and re-parse only the blocks one of the cycle's new entries matches
  somewhere.  This is exact: parsing takes the first matching entry of
  an opcode's bucket, and adding an entry never reorders the existing
  ones, so a block no new entry matches parses as before.  Candidates
  are scored from counts and per-entry storage (a group stores the sum
  of its parts, a binding adds its ``BOUND_*_BITS``) and only the
  inserted ones are built.  A ``batch_inserts`` knob trades generator
  fidelity for speed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bitstream.fields import chunk_words, words_to_bytes
from repro.bitstream.io import BitReader, BitWriter
from repro.core.lat import CompressedImage
from repro.core.sadc.entry import (
    BOUND_IMM16_BITS,
    BOUND_IMM26_BITS,
    BOUND_REG_BITS,
    DictEntry,
    Dictionary,
)
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

#: The operands of one dictionary entry that still stream, in coding
#: order: ``(instr_index, register slots, imm16 streams, imm26 streams)``
#: for each instruction of the group that streams anything.
OperandPlan = Tuple[Tuple[int, Tuple[int, ...], bool, bool], ...]

#: One block's candidate occurrences, in first-seen order, per kind:
#: token pairs, token triples, then register, imm16 and imm26 bindings
#: ``(index, instr_index[, slot], value)``.
CandidateKeys = Tuple[List[tuple], List[tuple], List[tuple], List[tuple], List[tuple]]


def _matches(
    entry: DictEntry, opcodes: Tuple[int, ...], instrs: Sequence[InstrRec], pos: int
) -> bool:
    """Whether ``entry`` matches ``instrs`` at ``pos``; ``opcodes`` holds
    the block's opcode ids."""
    if opcodes[pos : pos + len(entry.opcodes)] != entry.opcodes:
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
    """Greedy longest-match parse of one block's instructions.

    At each position the first entry of the opcode's bucket that matches
    wins; buckets are ordered longest and most-bound first.
    """
    opcodes = tuple(rec.opcode_id for rec in instrs)
    entries = dictionary.entries
    tokens: List[ParsedToken] = []
    pos = 0
    while pos < len(opcodes):
        for index in dictionary.candidates_starting_with(opcodes[pos]):
            if _matches(entries[index], opcodes, instrs, pos):
                break
        else:
            raise ValueError(
                f"no dictionary entry matches opcode id "
                f"{opcodes[pos]} — singles must be seeded first"
            )
        tokens.append((index, pos))
        pos += len(entries[index].opcodes)
    return tokens


def _operand_plan(entry: DictEntry) -> OperandPlan:
    """Which of ``entry``'s operands stream rather than being bound."""
    bound_regs = {(j, slot) for j, slot, _value in entry.bound_regs}
    bound_imm16 = {j for j, _value in entry.bound_imm16}
    bound_imm26 = {j for j, _value in entry.bound_imm26}
    plan = []
    for j, opcode_id in enumerate(entry.opcodes):
        spec = ID_TO_SPEC[opcode_id]
        slots = tuple(
            slot for slot in range(len(register_slots(spec)))
            if (j, slot) not in bound_regs
        )
        imm16 = uses_imm16(spec) and j not in bound_imm16
        imm26 = uses_imm26(spec) and j not in bound_imm26
        if slots or imm16 or imm26:
            plan.append((j, slots, imm16, imm26))
    return tuple(plan)


def _candidate_entry(entries: Sequence[DictEntry], kind: str, key: tuple) -> DictEntry:
    """Build the dictionary entry a scored candidate key stands for."""
    if kind == "pair":
        a, b = key
        return entries[a].concat(entries[b])
    if kind == "triple":
        a, b, c = key
        return entries[a].concat(entries[b]).concat(entries[c])
    index, *binding = key
    if kind == "reg":
        return entries[index].bind_reg(*binding)
    if kind == "imm16":
        return entries[index].bind_imm16(*binding)
    return entries[index].bind_imm26(*binding)


def _ranked_candidates(
    keys: Sequence[CandidateKeys], storage: Sequence[int]
) -> List[Tuple[int, str, tuple]]:
    """Every positive-gain candidate as ``(gain, kind, key)``, best first.

    A group's storage is the sum of its parts' and a binding adds its
    ``BOUND_*_BITS``, so gains need only counts and per-entry storage.
    Counting in block order keeps each kind's first-seen order, on which
    the stable sort breaks ties.
    """
    pairs, triples, regs, imm16s, imm26s = (
        Counter(chain.from_iterable(block[kind] for block in keys))
        for kind in range(5)
    )
    scored = [
        (f * 8 - storage[a] - storage[b], "pair", (a, b))
        for (a, b), f in pairs.items()
    ]
    scored += [
        (f * 16 - storage[a] - storage[b] - storage[c], "triple", (a, b, c))
        for (a, b, c), f in triples.items()
    ]
    scored += [
        (f * 5 - storage[key[0]] - BOUND_REG_BITS, "reg", key)
        for key, f in regs.items()
    ]
    scored += [
        (f * 16 - storage[key[0]] - BOUND_IMM16_BITS, "imm16", key)
        for key, f in imm16s.items()
    ]
    scored += [
        (f * 26 - storage[key[0]] - BOUND_IMM26_BITS, "imm26", key)
        for key, f in imm26s.items()
    ]
    positive = [item for item in scored if item[0] > 0]
    positive.sort(key=itemgetter(0), reverse=True)
    return positive


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
        return self._grow(blocks, seed_all_opcodes)[0]

    def _grow(
        self,
        blocks: Sequence[Sequence[InstrRec]],
        seed_all_opcodes: bool = False,
    ) -> Tuple[Dictionary, List[OperandPlan], List[List[ParsedToken]]]:
        """Grow the dictionary; also return every entry's operand plan
        and every block's parse under the final dictionary.

        Each block's parse and candidate keys are cached between cycles.
        Parsing takes the first matching entry of a bucket, and
        :meth:`Dictionary.add` never reorders existing entries, so a
        cycle's insertions can only change a block's parse where one of
        them matches: only those blocks are parsed again.
        """
        dictionary = Dictionary(self.max_entries)
        plans: List[OperandPlan] = []
        storage: List[int] = []

        def add(entry: DictEntry) -> None:
            dictionary.add(entry)
            plans.append(_operand_plan(entry))
            storage.append(entry.storage_bits)

        if seed_all_opcodes:
            for opcode_id in ID_TO_SPEC:
                if not dictionary.is_full:
                    add(DictEntry(opcodes=(opcode_id,)))
        for block in blocks:
            for rec in block:
                entry = DictEntry(opcodes=(rec.opcode_id,))
                if entry not in dictionary and not dictionary.is_full:
                    add(entry)

        opcodes = [tuple(rec.opcode_id for rec in block) for block in blocks]
        occurrences: Dict[int, List[Tuple[int, int]]] = {}
        for b, block_opcodes in enumerate(opcodes):
            for pos, opcode_id in enumerate(block_opcodes):
                occurrences.setdefault(opcode_id, []).append((b, pos))
        parses = [parse_block(dictionary, block) for block in blocks]
        keys = [
            self._candidate_keys(block, tokens, plans)
            for block, tokens in zip(blocks, parses)
        ]
        for _cycle in range(self.max_cycles):
            if dictionary.is_full:
                break
            first_new = len(dictionary)
            for _gain, kind, key in _ranked_candidates(keys, storage):
                if dictionary.is_full:
                    break
                entry = _candidate_entry(dictionary.entries, kind, key)
                if entry not in dictionary:
                    add(entry)
                    if len(dictionary) - first_new >= self.batch_inserts:
                        break
            if len(dictionary) == first_new:
                break
            touched = {
                b
                for entry in dictionary.entries[first_new:]
                for b, pos in occurrences[entry.opcodes[0]]
                if _matches(entry, opcodes[b], blocks[b], pos)
            }
            for b in touched:
                parses[b] = parse_block(dictionary, blocks[b])
                keys[b] = self._candidate_keys(blocks[b], parses[b], plans)
        return dictionary, plans, parses

    def _candidate_keys(
        self,
        block: Sequence[InstrRec],
        tokens: Sequence[ParsedToken],
        plans: Sequence[OperandPlan],
    ) -> CandidateKeys:
        """Every candidate occurrence in one parsed block."""
        pairs: List[tuple] = []
        triples: List[tuple] = []
        regs: List[tuple] = []
        imm16s: List[tuple] = []
        imm26s: List[tuple] = []
        if self.enable_groups:
            indices = [index for index, _pos in tokens]
            pairs = list(zip(indices, indices[1:]))
            triples = list(zip(indices, indices[1:], indices[2:]))
        for index, pos in tokens:
            for j, slots, imm16, imm26 in plans[index]:
                rec = block[pos + j]
                if self.enable_reg_binding:
                    for slot in slots:
                        regs.append((index, j, slot, rec.regs[slot]))
                if self.enable_imm_binding:
                    if imm16:
                        imm16s.append((index, j, rec.imm16))
                    if imm26:
                        imm26s.append((index, j, rec.imm26))
        return pairs, triples, regs, imm16s, imm26s

    # -- entropy coding ---------------------------------------------------

    def _collect_symbols(
        self,
        blocks: Sequence[Sequence[InstrRec]],
        parses: Sequence[Sequence[ParsedToken]],
        plans: Sequence[OperandPlan],
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
                for j, slots, imm16, imm26 in plans[index]:
                    rec = block[pos + j]
                    for slot in slots:
                        counters["regs"][rec.regs[slot]] += 1
                    if imm16:
                        counters["imm16_hi"][rec.imm16 >> 8] += 1
                        counters["imm16_lo"][rec.imm16 & 0xFF] += 1
                    if imm26:
                        counters["imm26_hi"][rec.imm26 >> 16] += 1
                        counters["imm26_lo"][(rec.imm26 >> 8) & 0xFF] += 1
                        counters["imm26_lo"][rec.imm26 & 0xFF] += 1
        return counters

    def _encode_block(
        self,
        codes: Dict[str, HuffmanCode],
        block: Sequence[InstrRec],
        tokens: Sequence[ParsedToken],
        plans: Sequence[OperandPlan],
    ) -> bytes:
        writer = BitWriter()
        encoders = {name: HuffmanEncoder(code) for name, code in codes.items()}
        for index, pos in tokens:
            encoders["tokens"].encode_to(writer, [index])
            for j, slots, imm16, imm26 in plans[index]:
                rec = block[pos + j]
                for slot in slots:
                    encoders["regs"].encode_to(writer, [rec.regs[slot]])
                if imm16:
                    encoders["imm16_hi"].encode_to(writer, [rec.imm16 >> 8])
                    encoders["imm16_lo"].encode_to(writer, [rec.imm16 & 0xFF])
                if imm26:
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
                dictionary, plans, parses = self._grow(blocks)
        else:
            plans = [_operand_plan(entry) for entry in dictionary.entries]
            parses = [parse_block(dictionary, block) for block in blocks]
        counters = self._collect_symbols(blocks, parses, plans)
        codes = {name: build_code(counter) for name, counter in counters.items()}
        with rec.span("sadc.encode", isa="mips"):
            payload = [
                self._encode_block(codes, block, tokens, plans)
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
