"""Dictionary entries for SADC (Section 4 of the paper).

An entry maps a 1-byte dictionary index to:

* a *sequence* of base opcodes (opcode-group augmentation: "adjacent
  opcode pairs … take advantage of the correlation between adjacent
  instructions"), and/or
* *bound operands* — specific register or immediate values folded into
  the opcode ("if the register R31 in instruction jr R31 appears much
  more frequently than any other register, we can reduce the register
  stream size by introducing a new special opcode for jr R31").

Entries are immutable and hashable so the generator can dedup candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Storage cost constants (bits) for dictionary entries, mirroring the
#: paper's accounting where each dictionary opcode consumes one byte.
OPCODE_BITS = 8
#: A bound register stores its 5-bit value plus a 3-bit slot selector.
BOUND_REG_BITS = 8
#: A bound 16-bit immediate stores its value plus a 4-bit position tag.
BOUND_IMM16_BITS = 20
#: A bound 26-bit immediate stores its value plus a position tag.
BOUND_IMM26_BITS = 30


def token_bits(entries: int) -> int:
    """Width of one dictionary index in a decoder table of ``entries``
    entries: the paper's one byte up to 256 entries, wider past that."""
    return max(8, (entries - 1).bit_length())


@dataclass(frozen=True)
class DictEntry:
    """One dictionary entry: opcode group + operand bindings.

    ``bound_regs`` entries are ``(instr_index, slot_index, value)``:
    within the group, instruction ``instr_index``'s register slot
    ``slot_index`` is fixed to ``value`` and disappears from the register
    stream.  ``bound_imm16``/``bound_imm26`` are ``(instr_index, value)``.
    """

    opcodes: Tuple[int, ...]
    bound_regs: Tuple[Tuple[int, int, int], ...] = ()
    bound_imm16: Tuple[Tuple[int, int], ...] = ()
    bound_imm26: Tuple[Tuple[int, int], ...] = ()

    @property
    def length(self) -> int:
        """Number of base opcodes the entry expands to."""
        return len(self.opcodes)

    @property
    def parse_rank(self) -> Tuple[int, int]:
        """(length, bound operands): greedy parsing prefers the greater,
        the entry that removes the most stream content."""
        return (
            len(self.opcodes),
            len(self.bound_regs) + len(self.bound_imm16) + len(self.bound_imm26),
        )

    @property
    def storage_bits(self) -> int:
        """Decoder-table storage this entry consumes."""
        return (
            OPCODE_BITS * len(self.opcodes)
            + BOUND_REG_BITS * len(self.bound_regs)
            + BOUND_IMM16_BITS * len(self.bound_imm16)
            + BOUND_IMM26_BITS * len(self.bound_imm26)
        )

    def reg_binding(self, instr_index: int, slot_index: int) -> Optional[int]:
        """Bound value of a register slot, or None if it streams."""
        for bound_instr, bound_slot, value in self.bound_regs:
            if bound_instr == instr_index and bound_slot == slot_index:
                return value
        return None

    def imm16_binding(self, instr_index: int) -> Optional[int]:
        for bound_instr, value in self.bound_imm16:
            if bound_instr == instr_index:
                return value
        return None

    def imm26_binding(self, instr_index: int) -> Optional[int]:
        for bound_instr, value in self.bound_imm26:
            if bound_instr == instr_index:
                return value
        return None

    def concat(self, other: "DictEntry") -> "DictEntry":
        """Merge two entries into one group (for pair/triple candidates)."""
        offset = self.length
        return DictEntry(
            opcodes=self.opcodes + other.opcodes,
            bound_regs=self.bound_regs
            + tuple((i + offset, s, v) for i, s, v in other.bound_regs),
            bound_imm16=self.bound_imm16
            + tuple((i + offset, v) for i, v in other.bound_imm16),
            bound_imm26=self.bound_imm26
            + tuple((i + offset, v) for i, v in other.bound_imm26),
        )

    def bind_reg(self, instr_index: int, slot_index: int, value: int) -> "DictEntry":
        """Specialise one register slot (a new entry; self is unchanged)."""
        if self.reg_binding(instr_index, slot_index) is not None:
            raise ValueError("slot already bound")
        return DictEntry(
            opcodes=self.opcodes,
            bound_regs=self.bound_regs + ((instr_index, slot_index, value),),
            bound_imm16=self.bound_imm16,
            bound_imm26=self.bound_imm26,
        )

    def bind_imm16(self, instr_index: int, value: int) -> "DictEntry":
        if self.imm16_binding(instr_index) is not None:
            raise ValueError("immediate already bound")
        return DictEntry(
            opcodes=self.opcodes,
            bound_regs=self.bound_regs,
            bound_imm16=self.bound_imm16 + ((instr_index, value),),
            bound_imm26=self.bound_imm26,
        )

    def bind_imm26(self, instr_index: int, value: int) -> "DictEntry":
        if self.imm26_binding(instr_index) is not None:
            raise ValueError("immediate already bound")
        return DictEntry(
            opcodes=self.opcodes,
            bound_regs=self.bound_regs,
            bound_imm16=self.bound_imm16,
            bound_imm26=self.bound_imm26 + ((instr_index, value),),
        )


class Dictionary:
    """An ordered, capacity-limited SADC dictionary with a match index.

    Indices are byte-sized: the paper caps the dictionary at 256 entries
    "in order to keep the opcode value in one byte".
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("dictionary needs at least one entry")
        self.max_entries = max_entries
        self.entries: List[DictEntry] = []
        self._known: Dict[DictEntry, int] = {}
        self._ranks: List[Tuple[int, int]] = []
        #: first base opcode -> entry indices, longest/most-bound first.
        self._by_first: Dict[int, List[int]] = {}
        #: entry index -> how the MIPS decoder expands it, filled in on
        #: first use (``repro.core.sadc.mips._decode_steps``).
        self.decode_steps: Dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, entry: DictEntry) -> bool:
        return entry in self._known

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.max_entries

    def add(self, entry: DictEntry) -> int:
        """Insert an entry, returning its index (idempotent)."""
        if entry in self._known:
            return self._known[entry]
        if self.is_full:
            raise ValueError("dictionary is full")
        index = len(self.entries)
        self.entries.append(entry)
        self._known[entry] = index
        self._ranks.append(entry.parse_rank)
        bucket = self._by_first.setdefault(entry.opcodes[0], [])
        bucket.append(index)
        # Greatest parse rank first; the sort is stable, so equal ranks
        # stay in insertion order.
        bucket.sort(key=self._ranks.__getitem__, reverse=True)
        return index

    def candidates_starting_with(self, opcode: int) -> List[int]:
        """Entry indices whose group starts with ``opcode``, best first."""
        return self._by_first.get(opcode, [])

    @property
    def storage_bits(self) -> int:
        """Total decoder dictionary storage."""
        return sum(entry.storage_bits for entry in self.entries)
