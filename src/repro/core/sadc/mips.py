"""SADC for MIPS: dictionary compression over the four operand streams.

Pipeline (Section 4 of the paper):

1. Split the program's words into streams (opcode / register / 16-bit
   immediate / 26-bit immediate): one array pass over the whole image,
   :func:`repro.isa.mips.streams.split_words`.
2. **Dictionary generation + parsing** — start from all single opcodes;
   repeatedly re-parse the program with the current dictionary, gather
   candidates (adjacent token pairs and triples; register-value and
   immediate-value specialisations), insert those with the largest gain,
   until the 256-entry cap or no positive gain remains.  A supplied
   (static) dictionary is used as-is and only parsed.
3. **Final entropy coding** — Huffman-code the dictionary-index stream
   and the surviving operand streams ("The final step of our compression
   is to encode all resulting compressed streams by using Huffman
   encoding").  Every coded symbol comes out of the final parse in
   coding order as one array: it is counted with one ``np.bincount``
   and every block's codewords are packed by one
   :func:`repro.bitstream.pack_fields` call, each block ending in a pad
   field that brings the next to a byte.

Every cache block parses and encodes independently: dictionary groups
never cross block boundaries, so the refill engine can expand any block
in isolation.

Deviations from the paper, both documented in DESIGN.md:

* Gains are computed in *bits* with the true current token count
  (``g = f·(t−1)·8 − entry_storage``) rather than the paper's byte
  approximation ``g = f(n−1) − n``; same greedy spirit, slightly more
  accurate bookkeeping.
* Instead of erasing and regrowing the dictionary each cycle, we keep it
  and grow it over whole-program arrays.  A best-match array holds the
  entry the greedy parse takes at every instruction; a new entry takes
  over only where it matches and outranks the current winner.  This is
  exact: parsing takes the first matching entry of an opcode's bucket,
  and buckets are sorted stably by (length, bindings).  A static
  dictionary parses through the same array, its entries added in index
  order.  Each cycle walks the parse from every block start at once and
  counts every candidate occurrence in one packed-key array with one
  sort.  Candidates are scored from counts and per-entry storage (a
  group stores the sum of its parts, a binding adds its
  ``BOUND_*_BITS``) and only the inserted ones are built.  A
  ``batch_inserts`` knob trades generator fidelity for speed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import takewhile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bitstream.fields import chunk_words, words_to_bytes
from repro.bitstream.io import BitReader, pack_fields
from repro.core.lat import CompressedImage
from repro.core.sadc.entry import (
    BOUND_IMM16_BITS,
    BOUND_IMM26_BITS,
    BOUND_REG_BITS,
    DictEntry,
    Dictionary,
    token_bits,
)
from repro.entropy.huffman import HuffmanCode, HuffmanDecoder, build_code
from repro.isa.mips.formats import Instruction, decode
from repro.isa.mips.streams import (
    FIELD_SHIFTS,
    ID_TO_SPEC,
    IMM16_COLUMN,
    IMM26_COLUMN,
    OPCODE_IDS,
    REG_SLOTS,
    non_canonical,
    register_slots,
    split_image,
    split_words,
    uses_imm16,
    uses_imm26,
)
from repro.obs import get_recorder
from repro.resilience.errors import (
    CATEGORY_STRUCTURE,
    CorruptedStreamError,
    decode_guard,
)

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
            raise non_canonical(word, spec)
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


def _no_match(opcode_id: int) -> ValueError:
    """The error of a parse that reaches an opcode no entry covers."""
    return ValueError(
        f"no dictionary entry matches opcode id "
        f"{opcode_id} — singles must be seeded first"
    )


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
            raise _no_match(opcodes[pos])
        tokens.append((index, pos))
        pos += len(entries[index].opcodes)
    return tokens


#: Per opcode id: (register slot count, has imm16, has imm26).
_OPERAND_SHAPES = {
    opcode_id: (len(register_slots(spec)), uses_imm16(spec), uses_imm26(spec))
    for opcode_id, spec in ID_TO_SPEC.items()
}


def _operand_plan(entry: DictEntry) -> OperandPlan:
    """Which of ``entry``'s operands stream rather than being bound."""
    bound_regs = {(j, slot) for j, slot, _value in entry.bound_regs}
    bound_imm16 = {j for j, _value in entry.bound_imm16}
    bound_imm26 = {j for j, _value in entry.bound_imm26}
    plan = []
    for j, opcode_id in enumerate(entry.opcodes):
        n_slots, has_imm16, has_imm26 = _OPERAND_SHAPES[opcode_id]
        slots = tuple(
            slot for slot in range(n_slots) if (j, slot) not in bound_regs
        )
        imm16 = has_imm16 and j not in bound_imm16
        imm26 = has_imm26 and j not in bound_imm26
        if slots or imm16 or imm26:
            plan.append((j, slots, imm16, imm26))
    return tuple(plan)


# -- parsing and dictionary growth over whole-program arrays -----------------

#: Candidate kinds, in the order ranking breaks gain ties between kinds.
_PAIR, _TRIPLE, _REG, _IMM16, _IMM26 = range(5)
#: Bits one occurrence saves: a group drops one token byte per token
#: it absorbs, a binding drops its operand from the stream.
_SAVED_BITS = np.array([8, 16, 5, 16, 26])
#: Storage a candidate adds to the entries it is built from.
_EXTRA_BITS = np.array([0, 0, BOUND_REG_BITS, BOUND_IMM16_BITS, BOUND_IMM26_BITS])
#: A packed candidate key holds its kind from this bit up.
_KIND_SHIFT = 60
#: Width of a binding's value field: the widest operand, a jump target.
_VALUE_BITS = 26

#: The binding kind of each operand column's candidates.
_COLUMN_KIND = np.array([_REG] * REG_SLOTS + [_IMM16, _IMM26])
#: Parse rank of a single: length 1, nothing bound.
_SINGLE_RANK = 1 << 32
_EMPTY = np.zeros(0, dtype=np.int64)
_NO_OPERANDS = np.zeros((0, REG_SLOTS + 2), dtype=np.int64)


def _bindings(entry: DictEntry) -> List[Tuple[int, int, int]]:
    """``entry``'s bound operands as (instr_index, column, value)."""
    return [
        *entry.bound_regs,
        *((j, IMM16_COLUMN, value) for j, value in entry.bound_imm16),
        *((j, IMM26_COLUMN, value) for j, value in entry.bound_imm26),
    ]


class _KeyLayout:
    """Candidate keys packed into non-negative int64s.

    A key holds its kind from bit 60 up and its fields below, most
    significant first: the entry indices of a group, or a binding's
    entry, instruction offset, operand column and value.  Entry and
    offset widths follow ``max_entries`` and the block length in
    instructions, so a configuration whose keys would not fit fails
    here instead of wrapping.  :meth:`pack` works on whole arrays;
    :meth:`entry` decodes one key.
    """

    def __init__(self, max_entries: int, per_block: int) -> None:
        entry = (max_entries - 1).bit_length()
        offset = (per_block - 1).bit_length()
        column = IMM26_COLUMN.bit_length()
        #: Field widths by field count: pair, triple, binding.
        self.widths = {
            2: (entry, entry),
            3: (entry, entry, entry),
            4: (entry, offset, column, _VALUE_BITS),
        }
        need = max(map(sum, self.widths.values()))
        if need > _KIND_SHIFT:
            raise ValueError(
                f"max_entries={max_entries} with {per_block}-instruction "
                f"blocks needs {need}-bit candidate keys; at most "
                f"{_KIND_SHIFT} fit"
            )

    def pack(self, kind, *fields):
        """Pack fields elementwise; ``kind`` may be an array too."""
        widths = self.widths[len(fields)]
        key = kind << _KIND_SHIFT
        shift = sum(widths)
        for field, width in zip(fields, widths):
            shift -= width
            key = key | (field << shift)
        return key

    def entry(self, entries: Sequence[DictEntry], key: int) -> DictEntry:
        """Build the dictionary entry a packed key stands for."""
        kind = key >> _KIND_SHIFT
        widths = self.widths[{_PAIR: 2, _TRIPLE: 3}.get(kind, 4)]
        shift = sum(widths)
        fields = []
        for width in widths:
            shift -= width
            fields.append((key >> shift) & ((1 << width) - 1))
        if kind in (_PAIR, _TRIPLE):
            group = entries[fields[0]]
            for index in fields[1:]:
                group = group.concat(entries[index])
            return group
        index, j, column, value = fields
        if kind == _REG:
            return entries[index].bind_reg(j, column, value)
        if kind == _IMM16:
            return entries[index].bind_imm16(j, value)
        return entries[index].bind_imm26(j, value)


class _Program:
    """A program's instructions as whole-program arrays, in blocks.

    Position ``p`` indexes the blocks' instructions laid end to end;
    ``left[p]`` counts the instructions from ``p`` to its block's end,
    so an entry of length ``L`` fits at ``p`` only if ``L <= left[p]``.
    ``opcodes`` and ``operands`` are the split's ids and rows
    (:func:`~repro.isa.mips.streams.split_words`).
    """

    def __init__(
        self,
        opcodes: np.ndarray,
        operands: np.ndarray,
        sizes: np.ndarray,
        per_block: int,
    ) -> None:
        if sizes.size and sizes.max() > per_block:
            raise ValueError(
                f"a block of {sizes.max()} instructions exceeds the "
                f"{per_block}-instruction block size"
            )
        self.size = opcodes.size
        self.opcodes = opcodes
        self.operands = operands
        self.ends = np.cumsum(sizes)
        self.starts = self.ends - sizes
        self.longest = int(sizes.max()) if sizes.size else 0
        self.block = np.repeat(np.arange(sizes.size), sizes)
        self.left = self.ends[self.block] - np.arange(self.size)
        order = np.argsort(self.opcodes, kind="stable")
        opcodes, firsts = np.unique(self.opcodes[order], return_index=True)
        self.by_opcode = dict(zip(opcodes.tolist(), np.split(order, firsts[1:])))

    @classmethod
    def of_images(cls, codes: Sequence[bytes], per_block: int) -> "_Program":
        """Code images split whole, each cut into blocks of
        ``per_block`` instructions."""
        splits = [split_image(code) for code in codes]
        sizes = [
            np.minimum(per_block, ids.size - np.arange(0, ids.size, per_block))
            for ids, _operands in splits
        ]
        return cls(
            np.concatenate([_EMPTY, *(ids for ids, _operands in splits)]),
            np.concatenate([_NO_OPERANDS, *(rows for _ids, rows in splits)]),
            np.concatenate([_EMPTY, *sizes]),
            per_block,
        )

    @classmethod
    def of_records(
        cls, blocks: Sequence[Sequence[InstrRec]], per_block: int
    ) -> "_Program":
        """Blocks of instruction records, split through their words."""
        words = [rec.to_word() for block in blocks for rec in block]
        return cls(
            *split_words(np.array(words, dtype=np.int64)),
            np.array([len(block) for block in blocks], dtype=np.int64),
            per_block,
        )

    def matches(self, entry: DictEntry) -> np.ndarray:
        """Every position at which ``entry`` matches, as :func:`_matches`
        decides it."""
        at = self.by_opcode.get(entry.opcodes[0], _EMPTY)
        at = at[self.left[at] >= entry.length]
        for j, opcode_id in enumerate(entry.opcodes[1:], 1):
            at = at[self.opcodes[at + j] == opcode_id]
        for j, column, value in _bindings(entry):
            at = at[self.operands[at + j, column] == value]
        return at

    def parses(
        self, tokens: np.ndarray, winners: np.ndarray
    ) -> List[List[ParsedToken]]:
        """Per-block ``(entry, position in block)`` lists of a walk."""
        block = self.block[tokens]
        pairs = list(zip(winners.tolist(), (tokens - self.starts[block]).tolist()))
        cuts = np.cumsum(np.bincount(block, minlength=self.starts.size)).tolist()
        return [pairs[lo:hi] for lo, hi in zip([0, *cuts], cuts)]


class _EntryTable:
    """What parsing and coding read of each dictionary entry, in index
    order: its operand plan, length and storage, and the (instruction
    offset, operand column) of every operand its plan streams, flattened
    in plan order."""

    def __init__(self) -> None:
        self.plans: List[OperandPlan] = []
        self.lengths: List[int] = []
        self.storage: List[int] = []
        self.streamed: List[int] = []
        self.offsets: List[int] = []
        self.columns: List[int] = []

    def append(self, entry: DictEntry) -> None:
        self.plans.append(_operand_plan(entry))
        self.lengths.append(entry.length)
        self.storage.append(entry.storage_bits)
        before = len(self.offsets)
        for j, slots, imm16, imm26 in self.plans[-1]:
            columns = [*slots]
            if imm16:
                columns.append(IMM16_COLUMN)
            if imm26:
                columns.append(IMM26_COLUMN)
            self.offsets += [j] * len(columns)
            self.columns += columns
        self.streamed.append(len(self.offsets) - before)

    def operands(self, winners: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``(token, offset, column)`` of every operand the parse
        streams, in token order and then plan order."""
        count = np.array(self.streamed, dtype=np.int64)
        per = count[winners]
        token = np.repeat(np.arange(winners.size), per)
        item = np.repeat(
            (np.cumsum(count) - count)[winners] - (np.cumsum(per) - per), per
        ) + np.arange(token.size)
        return (
            token,
            np.array(self.offsets, dtype=np.int64)[item],
            np.array(self.columns, dtype=np.int64)[item],
        )


class _Parse:
    """A dictionary's greedy parse of a program, kept as a best-match
    array while entries are added in index order.

    ``best[p]`` holds the entry the parse takes at position ``p`` if it
    gets there, -1 where no entry matches: the first matching entry of
    the opcode's bucket, that is the matching entry of greatest
    :attr:`DictEntry.parse_rank`, the earliest on a tie
    (:meth:`Dictionary.add` sorts buckets stably).  So each new entry
    takes over exactly the positions where it matches and strictly
    outranks the winner.  A single is the one entry of the least rank
    in its bucket, so it wins exactly where nothing else matches
    whenever it is added: every single is seeded with one gather.
    """

    def __init__(self, program: _Program, entries: Sequence[DictEntry]) -> None:
        self.program = program
        self.table = _EntryTable()
        single = np.full(len(ID_TO_SPEC), -1, dtype=np.int64)
        others: List[Tuple[int, DictEntry]] = []
        for index, entry in enumerate(entries):
            self.table.append(entry)
            if entry.parse_rank == (1, 0) and entry.opcodes[0] in ID_TO_SPEC:
                single[entry.opcodes[0]] = index
            else:
                others.append((index, entry))
        self.best = single[program.opcodes]
        self.rank = np.where(self.best < 0, -1, _SINGLE_RANK)
        for index, entry in others:
            self._take(index, entry)

    def add(self, entry: DictEntry) -> None:
        """Parse with ``entry`` as the next dictionary index too."""
        self.table.append(entry)
        self._take(len(self.table.lengths) - 1, entry)

    def _take(self, index: int, entry: DictEntry) -> None:
        length, bound = entry.parse_rank
        rank = (length << 32) | bound
        at = self.program.matches(entry)
        at = at[self.rank[at] < rank]
        self.best[at] = index
        self.rank[at] = rank

    def walk(self) -> np.ndarray:
        """The greedy parse's token positions, in program order.

        Every block steps from its start by its winners' lengths, all
        blocks at once.  A winner fits inside its block, so each step
        advances a block by at least one of its instructions.  A block
        that reaches a position no entry matches stays there; the first
        such block raises :func:`_no_match`, as :func:`parse_block`
        would.
        """
        program = self.program
        # An unmatched position (-1) steps by the appended 0.
        step = np.append(self.table.lengths, 0)[self.best]
        taken = np.zeros(program.size, dtype=bool)
        at, ends = program.starts, program.ends
        for _ in range(program.longest):
            live = at < ends
            at, ends = at[live], ends[live]
            if not at.size:
                break
            taken[at] = True
            at = at + step[at]
        tokens = np.flatnonzero(taken)
        unmatched = tokens[self.best[tokens] < 0]
        if unmatched.size:
            raise _no_match(int(program.opcodes[unmatched[0]]))
        return tokens


# -- entropy coding over the parse arrays ------------------------------------

#: The Huffman-coded streams in table order, and how many symbols each
#: operand stream has.  Symbols of all streams share one numbering:
#: tokens first (one per dictionary entry), then each operand stream.
_STREAMS = ("tokens", "regs", "imm16_hi", "imm16_lo", "imm26_hi", "imm26_lo")
_OPERAND_SYMBOLS = (32, 256, 256, 1024, 256)
#: Per operand column, the symbols it codes as, in coding order: a
#: register one, a 16-bit immediate hi and lo, a 26-bit one hi, mid and
#: lo.  Each symbol's stream (its index in ``_STREAMS``, 0 for none) and
#: the shift and mask that take it from the operand's value.
_COLUMN_STREAMS = np.array([[1, 0, 0]] * REG_SLOTS + [[2, 3, 0], [4, 5, 5]])
_COLUMN_SHIFTS = np.array([[0, 0, 0]] * REG_SLOTS + [[8, 0, 0], [16, 8, 0]])
_COLUMN_MASKS = np.array(
    [[0x1F, 0, 0]] * REG_SLOTS + [[0xFF, 0xFF, 0], [0x3FF, 0xFF, 0xFF]]
)


def _stream_ranges(entries: int) -> List[Tuple[str, int, int]]:
    """Each stream's ``[lo, hi)`` in the shared symbol numbering."""
    bounds = np.cumsum([0, entries, *_OPERAND_SYMBOLS]).tolist()
    return list(zip(_STREAMS, bounds, bounds[1:]))


def _coded_symbols(
    program: _Program,
    tokens: np.ndarray,
    winners: np.ndarray,
    table: _EntryTable,
    ranges: List[Tuple[str, int, int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Every coded symbol in coding order, in the shared numbering, and
    the block each one codes in.

    Each token codes its dictionary index, then every operand its entry
    streams, in plan order.
    """
    token, offset, column = table.operands(winners)
    value = program.operands[tokens[token] + offset, column]
    streams = _COLUMN_STREAMS[column]
    coded = streams > 0
    bases = np.array([lo for _name, lo, _hi in ranges])
    parts = bases[streams] + (
        (value[:, None] >> _COLUMN_SHIFTS[column]) & _COLUMN_MASKS[column]
    )
    owner = np.repeat(token, coded.sum(axis=1))
    per_token = 1 + np.bincount(owner, minlength=tokens.size)
    symbols = np.empty(int(per_token.sum()), dtype=np.int64)
    is_token = np.zeros(symbols.size, dtype=bool)
    is_token[np.cumsum(per_token) - per_token] = True
    symbols[is_token] = winners
    symbols[~is_token] = parts[coded]
    return symbols, np.repeat(program.block[tokens], per_token)


def _code_tables(
    codes: Dict[str, HuffmanCode], ranges: List[Tuple[str, int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Codeword and length of every symbol in the shared numbering."""
    codewords = np.zeros(ranges[-1][2], dtype=np.int64)
    lengths = np.zeros(ranges[-1][2], dtype=np.int64)
    for name, lo, hi in ranges:
        codewords[lo:hi], lengths[lo:hi] = codes[name].arrays(hi - lo)
    return codewords, lengths


def _block_payloads(
    codewords: np.ndarray, lengths: np.ndarray, block: np.ndarray, blocks: int
) -> List[bytes]:
    """Each block's codewords laid MSB-first and zero-padded to a whole
    byte, as a :class:`BitWriter` would write them; ``block`` names the
    block of each codeword, in block order.

    One :func:`pack_fields` call packs every block: each block ends in a
    zero-valued pad field, so the next starts on a byte.  It also checks
    that every codeword is non-negative and fits its length.
    """
    if not blocks:
        return []
    bits = np.bincount(block, weights=lengths, minlength=blocks).astype(np.int64)
    nbytes = (bits + 7) // 8
    pad = np.cumsum(np.bincount(block, minlength=blocks)) + np.arange(blocks)
    codeword = np.ones(codewords.size + blocks, dtype=bool)
    codeword[pad] = False
    values = np.zeros(codeword.size, dtype=np.int64)
    widths = np.empty(codeword.size, dtype=np.int64)
    values[codeword] = codewords
    widths[codeword] = lengths
    widths[pad] = 8 * nbytes - bits
    packed = pack_fields(values, widths)
    byte_end = np.cumsum(nbytes)
    return [
        packed[lo:hi]
        for lo, hi in zip((byte_end - nbytes).tolist(), byte_end.tolist())
    ]


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
        """The image as blocks of instruction records, word by word."""
        words = chunk_words(code, 4)
        # Records are frozen, so every occurrence of a word can share
        # the one split (and non-canonical check) of its first.
        recs = {word: InstrRec.from_word(word) for word in dict.fromkeys(words)}
        instrs = [recs[word] for word in words]
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
        program = _Program.of_records(blocks, self.block_size // 4)
        return self._grow_program(program, seed_all_opcodes)[0]

    def _grow(
        self,
        blocks: Sequence[Sequence[InstrRec]],
        seed_all_opcodes: bool = False,
    ) -> Tuple[Dictionary, List[OperandPlan], List[List[ParsedToken]]]:
        """Grow the dictionary over instruction-record blocks; also
        return every entry's operand plan and every block's parse under
        the final dictionary."""
        program = _Program.of_records(blocks, self.block_size // 4)
        dictionary, parse, tokens = self._grow_program(program, seed_all_opcodes)
        return (
            dictionary,
            parse.table.plans,
            program.parses(tokens, parse.best[tokens]),
        )

    def _grow_program(
        self, program: _Program, seed_all_opcodes: bool
    ) -> Tuple[Dictionary, _Parse, np.ndarray]:
        """Grow the dictionary; also return its parse of ``program`` and
        the final walk's token positions.

        Each cycle walks the parse, ranks every candidate it shows, and
        inserts the best new ones.
        """
        layout = _KeyLayout(self.max_entries, self.block_size // 4)
        dictionary = Dictionary(self.max_entries)
        singles = list(ID_TO_SPEC) if seed_all_opcodes else []
        singles += dict.fromkeys(program.opcodes.tolist())
        for opcode_id in singles:
            entry = DictEntry(opcodes=(opcode_id,))
            if entry not in dictionary and not dictionary.is_full:
                dictionary.add(entry)
        parse = _Parse(program, dictionary.entries)
        tokens = parse.walk()
        for _cycle in range(self.max_cycles):
            if dictionary.is_full:
                break
            first_new = len(dictionary)
            ranked = self._ranked(
                program, tokens, parse.best[tokens], parse.table, layout
            )
            for key in ranked.tolist():
                if dictionary.is_full:
                    break
                entry = layout.entry(dictionary.entries, key)
                if entry not in dictionary:
                    dictionary.add(entry)
                    parse.add(entry)
                    if len(dictionary) - first_new >= self.batch_inserts:
                        break
            if len(dictionary) == first_new:
                break
            tokens = parse.walk()
        return dictionary, parse, tokens

    def _ranked(
        self,
        program: _Program,
        tokens: np.ndarray,
        winners: np.ndarray,
        table: _EntryTable,
        layout: _KeyLayout,
    ) -> np.ndarray:
        """Every positive-gain candidate's packed key, best first.

        The parse's candidate occurrences are packed into one key array:
        token pairs, token triples, then every streamed operand as a
        binding, each in block, token and plan order.  One sort groups
        equal keys into runs: a run's length is the key's count, and the
        least index in it is the key's first occurrence, whatever order
        the sort leaves inside the run.  Sorting by gain, then kind,
        then first occurrence is the stable sort by gain of the kinds'
        first-seen lists laid end to end.  A group's storage is the sum
        of its parts' and a binding adds its ``BOUND_*_BITS``, so gains
        need only counts and the storage of each occurrence's parts.
        """
        storage = np.array(table.storage, dtype=np.int64)
        keys, costs = [], []
        if self.enable_groups:
            block = program.block[tokens]
            pair = block[1:] == block[:-1]
            triple = pair[1:] & pair[:-1]
            a, b = winners[:-1][pair], winners[1:][pair]
            keys.append(layout.pack(_PAIR, a, b))
            costs.append(storage[a] + storage[b])
            a, b, c = winners[:-2][triple], winners[1:-1][triple], winners[2:][triple]
            keys.append(layout.pack(_TRIPLE, a, b, c))
            costs.append(storage[a] + storage[b] + storage[c])
        if self.enable_reg_binding or self.enable_imm_binding:
            token, offset, column = table.operands(winners)
            if not (self.enable_reg_binding and self.enable_imm_binding):
                wanted = (column < REG_SLOTS) == self.enable_reg_binding
                token, offset, column = token[wanted], offset[wanted], column[wanted]
            entry = winners[token]
            value = program.operands[tokens[token] + offset, column]
            keys.append(layout.pack(_COLUMN_KIND[column], entry, offset, column, value))
            costs.append(storage[entry])
        all_keys = np.concatenate(keys) if keys else _EMPTY
        if not all_keys.size:
            return _EMPTY
        order = np.argsort(all_keys)
        ordered = all_keys[order]
        run = np.empty(ordered.size, dtype=bool)
        run[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=run[1:])
        starts = np.flatnonzero(run)
        unique = ordered[starts]
        first = np.minimum.reduceat(order, starts)
        counts = np.append(starts[1:], ordered.size) - starts
        kind = unique >> _KIND_SHIFT
        cost = np.concatenate(costs)[first] + _EXTRA_BITS[kind]
        gains = counts * _SAVED_BITS[kind] - cost
        keep = np.flatnonzero(gains > 0)
        order = np.lexsort((first[keep], kind[keep], -gains[keep]))
        return unique[keep[order]]

    # -- entropy coding ---------------------------------------------------

    def _table_bits(self, codes: Dict[str, HuffmanCode], entries: int) -> int:
        widths = {
            "tokens": token_bits(entries),
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
        program = _Program.of_images(training_codes, self.block_size // 4)
        return self._grow_program(program, True)[0]

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
        program = _Program.of_images([code], self.block_size // 4)
        if dictionary is None:
            with rec.span("sadc.build_dictionary", isa="mips"):
                dictionary, parse, tokens = self._grow_program(program, False)
        else:
            parse = _Parse(program, dictionary.entries)
            tokens = parse.walk()
        ranges = _stream_ranges(len(dictionary))
        symbols, block = _coded_symbols(
            program, tokens, parse.best[tokens], parse.table, ranges
        )
        # Code lengths do not depend on the order symbols are counted in:
        # Huffman construction breaks ties on (count, least symbol).
        counts = np.bincount(symbols, minlength=ranges[-1][2])
        codes: Dict[str, HuffmanCode] = {}
        for name, lo, hi in ranges:
            seen = np.flatnonzero(counts[lo:hi])
            codes[name] = build_code(
                dict(zip(seen.tolist(), counts[lo + seen].tolist()))
            )
        codewords, lengths = _code_tables(codes, ranges)
        with rec.span("sadc.encode", isa="mips"):
            payload = _block_payloads(
                codewords[symbols], lengths[symbols], block, program.starts.size
            )
        table_bits = self._table_bits(codes, len(dictionary))
        model_bits = dictionary.storage_bits + table_bits
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
            for name, lo, hi in ranges:
                bits = int(counts[lo:hi] @ lengths[lo:hi])
                stream_bits[name.partition("_")[0]] += bits
            for stream, bits in stream_bits.items():
                if bits:
                    rec.add_bits(stream, bits)
            pad = image.payload_bytes * 8 - sum(stream_bits.values())
            if pad:
                rec.add_bits("padding", pad)
            if payload:  # an empty program encodes no blocks
                rec.count("sadc.tokens_emitted", int(tokens.size))
                rec.count("sadc.blocks_encoded", len(payload))
            rec.add_bits("model.dictionary", dictionary.storage_bits)
            rec.add_bits("model.tables", table_bits)
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
                reader = BitReader(image.blocks[block_index], pad=False)
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
            index = decoders["tokens"].decode_symbol(reader)
            entry = dictionary.entries[index]
            if not entry.opcodes:
                # An empty entry decodes zero instructions: the loop
                # would never advance — only reachable from a corrupted
                # deserialised dictionary.
                raise CorruptedStreamError(
                    f"dictionary entry {index} is empty",
                    category=CATEGORY_STRUCTURE,
                )
            steps = _decode_steps(dictionary, index)
            for word, shifts, imm16, imm26 in steps:
                for shift in shifts:
                    reg = decoders["regs"].decode_symbol(reader)
                    word |= (reg & 0x1F) << shift
                if imm16:
                    hi = decoders["imm16_hi"].decode_symbol(reader)
                    lo = decoders["imm16_lo"].decode_symbol(reader)
                    word |= ((hi << 8) | lo) & 0xFFFF
                if imm26:
                    hi = decoders["imm26_hi"].decode_symbol(reader)
                    mid = decoders["imm26_lo"].decode_symbol(reader)
                    lo = decoders["imm26_lo"].decode_symbol(reader)
                    word |= ((hi << 16) | (mid << 8) | lo) & 0x3FFFFFF
                words.append(word)
            if len(steps) < len(entry.opcodes):
                # An opcode id the ISA lacks, after the instructions
                # before it have read their operands: only a corrupted
                # deserialised dictionary gets here.
                raise KeyError(entry.opcodes[len(steps)])
        if len(words) != expected:
            raise ValueError(
                f"block {block_index}: dictionary group crossed the block "
                f"boundary ({len(words)} != {expected} instructions)"
            )
        return words_to_bytes(words, 4)


#: One instruction of an entry as decode expands it: the word with its
#: bound operands in place, the field shift of each register that
#: streams, and whether its 16- and 26-bit immediates stream.  Streamed
#: operands are masked as ``Instruction.encode`` masks its fields.
_DecodeStep = Tuple[int, Tuple[int, ...], bool, bool]


def _decode_steps(dictionary: Dictionary, index: int) -> Tuple[_DecodeStep, ...]:
    """Entry ``index``'s steps, one per instruction up to the first
    opcode id the ISA lacks, streaming what :func:`_operand_plan` says.
    Memoised on the dictionary, so a one-block decode builds only the
    entries it meets."""
    steps = dictionary.decode_steps.get(index)
    if steps is not None:
        return steps
    entry = dictionary.entries[index]
    known = tuple(takewhile(ID_TO_SPEC.__contains__, entry.opcodes))
    plan = {
        j: streams
        for j, *streams in _operand_plan(replace(entry, opcodes=known))
    }
    built = []
    for j, opcode_id in enumerate(known):
        spec = ID_TO_SPEC[opcode_id]
        slots, imm16, imm26 = plan.get(j, ((), False, False))
        names = register_slots(spec)
        word = InstrRec(
            opcode_id,
            tuple(
                0 if slot in slots else entry.reg_binding(j, slot)
                for slot in range(len(names))
            ),
            None if imm16 or not uses_imm16(spec) else entry.imm16_binding(j),
            None if imm26 or not uses_imm26(spec) else entry.imm26_binding(j),
        ).to_word()
        shifts = tuple(FIELD_SHIFTS[names[slot]] for slot in slots)
        built.append((word, shifts, imm16, imm26))
    steps = dictionary.decode_steps[index] = tuple(built)
    return steps
