"""Layer 1: semantic verifiers over codec artifacts.

Every check takes a *constructed artifact* — a Huffman table, a SADC
dictionary, a SAMC model, a bit-field layout — and returns
:class:`~repro.verify.Finding` records for each violated invariant:

* ``huffman-prefix`` / ``huffman-kraft`` — the table must be a
  prefix-free code whose Kraft sum does not exceed 1 (and, for
  multi-symbol alphabets, reaches exactly 1: Huffman codes are
  complete by construction, so a deficit means wasted bit patterns).
* ``sadc-coverage`` / ``sadc-ambiguous`` / ``sadc-entry`` — every
  opcode a dictionary group mentions must also have a plain single
  entry (else some instruction sequences cannot be parsed), no two
  entries may match identically (else index assignment is arbitrary
  and encoder/decoder tables can disagree), and entry bindings must
  reference operands the opcode actually encodes.
* ``samc-unreachable`` — no tree replica may be unreachable given the
  connection order.  (Every stored probability leaving both branches
  non-zero mass is the model's own construction check.)
* ``field-tiling`` — each instruction-format layout must partition its
  word exactly: no overlapping fields, no uncovered bits.

:func:`run_artifact_checks` builds representative artifacts from a
small deterministic corpus and runs every verifier, which is what
``python -m repro check`` executes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.bitstream.fields import deposit_bits
from repro.core.sadc.entry import DictEntry, Dictionary
from repro.core.sadc.x86 import X86Dictionary
from repro.core.samc.model import SamcModel
from repro.entropy.huffman import (
    HuffmanCode,
    find_prefix_violation,
    kraft_numerator,
)
from repro.verify import SEVERITY_ERROR, SEVERITY_WARNING, Finding

#: Field layout: ``(name, msb_start, width)`` triples.
FieldLayout = Sequence[Tuple[str, int, int]]

_HUFFMAN_FILE = "src/repro/entropy/huffman.py"
_SADC_MIPS_FILE = "src/repro/core/sadc/mips.py"
_SADC_X86_FILE = "src/repro/core/sadc/x86.py"
_SAMC_FILE = "src/repro/core/samc/model.py"
_MIPS_FORMATS_FILE = "src/repro/isa/mips/formats.py"
_X86_FORMATS_FILE = "src/repro/isa/x86/formats.py"

_KRAFT_BITS = 32
_KRAFT_ONE = 1 << _KRAFT_BITS


# -- Huffman tables ---------------------------------------------------------

def check_huffman_code(
    code: HuffmanCode,
    origin: str,
    file: str = _HUFFMAN_FILE,
    line: int = 1,
) -> List[Finding]:
    """Prefix-freeness and Kraft-sum completeness of one code table."""
    findings: List[Finding] = []
    violation = find_prefix_violation(code.lengths, code.codewords)
    if violation is not None:
        first, second = violation
        detail = (
            f"codeword of symbol {first} does not fit its declared length"
            if first == second
            else f"codeword of symbol {first} is a prefix of symbol "
            f"{second}'s (or collides with it)"
        )
        findings.append(Finding(
            rule="huffman-prefix",
            severity=SEVERITY_ERROR,
            file=file,
            line=line,
            message=f"{origin}: table is not uniquely decodable — {detail}",
        ))
        return findings
    if not code.lengths:
        return findings
    kraft = kraft_numerator(code.lengths, _KRAFT_BITS)
    if kraft > _KRAFT_ONE:
        findings.append(Finding(
            rule="huffman-kraft",
            severity=SEVERITY_ERROR,
            file=file,
            line=line,
            message=f"{origin}: Kraft sum {kraft}/{_KRAFT_ONE} exceeds 1 — "
                    "the lengths cannot form a prefix code",
        ))
    elif kraft < _KRAFT_ONE and len(code.lengths) > 1:
        findings.append(Finding(
            rule="huffman-kraft",
            severity=SEVERITY_WARNING,
            file=file,
            line=line,
            message=f"{origin}: Kraft sum {kraft}/{_KRAFT_ONE} below 1 — "
                    "the code is incomplete (wasted bit patterns)",
        ))
    return findings


# -- SADC dictionaries ------------------------------------------------------

def check_mips_dictionary(
    dictionary: Dictionary,
    origin: str,
    file: str = _SADC_MIPS_FILE,
    line: int = 1,
) -> List[Finding]:
    """Unique decodability and coverage of a MIPS SADC dictionary."""
    from repro.isa.mips.streams import (
        ID_TO_SPEC,
        register_slots,
        uses_imm16,
        uses_imm26,
    )

    findings: List[Finding] = []
    seen: Dict[Tuple[object, ...], int] = {}
    singles: Set[int] = set()
    mentioned: Set[int] = set()
    for index, entry in enumerate(dictionary.entries):
        key: Tuple[object, ...] = (
            entry.opcodes, entry.bound_regs,
            entry.bound_imm16, entry.bound_imm26,
        )
        if key in seen:
            findings.append(Finding(
                rule="sadc-ambiguous",
                severity=SEVERITY_ERROR,
                file=file,
                line=line,
                message=f"{origin}: entries {seen[key]} and {index} match "
                        "identically — token assignment is ambiguous",
            ))
            continue
        seen[key] = index
        if not entry.opcodes:
            findings.append(Finding(
                rule="sadc-entry",
                severity=SEVERITY_ERROR,
                file=file,
                line=line,
                message=f"{origin}: entry {index} expands to zero "
                        "instructions — the decoder would never advance",
            ))
            continue
        mentioned.update(entry.opcodes)
        if (entry.length == 1 and not entry.bound_regs
                and not entry.bound_imm16 and not entry.bound_imm26):
            singles.add(entry.opcodes[0])
        findings.extend(_check_mips_bindings(entry, index, origin, file, line))
    for opcode_id in sorted(mentioned - singles):
        spec = ID_TO_SPEC.get(opcode_id)
        name = spec.mnemonic if spec is not None else f"id {opcode_id}"
        findings.append(Finding(
            rule="sadc-coverage",
            severity=SEVERITY_ERROR,
            file=file,
            line=line,
            message=f"{origin}: opcode {name} appears in groups but has no "
                    "plain single entry — unmatched occurrences cannot parse",
        ))
    return findings


def _check_mips_bindings(
    entry: DictEntry,
    index: int,
    origin: str,
    file: str,
    line: int,
) -> List[Finding]:
    """Entry bindings must name operands the opcode actually encodes."""
    from repro.isa.mips.streams import (
        ID_TO_SPEC,
        register_slots,
        uses_imm16,
        uses_imm26,
    )

    findings: List[Finding] = []

    def bad(reason: str) -> None:
        findings.append(Finding(
            rule="sadc-entry",
            severity=SEVERITY_ERROR,
            file=file,
            line=line,
            message=f"{origin}: entry {index} {reason}",
        ))

    for opcode_id in entry.opcodes:
        if opcode_id not in ID_TO_SPEC:
            bad(f"references unknown opcode id {opcode_id}")
            return findings
    for instr, slot, _value in entry.bound_regs:
        if instr >= entry.length:
            bad(f"binds a register past the group end (index {instr})")
        elif slot >= len(register_slots(ID_TO_SPEC[entry.opcodes[instr]])):
            bad(f"binds register slot {slot} the opcode does not encode")
    for instr, _value in entry.bound_imm16:
        if instr >= entry.length or not uses_imm16(
                ID_TO_SPEC[entry.opcodes[instr]]):
            bad("binds a 16-bit immediate the opcode does not encode")
    for instr, _value in entry.bound_imm26:
        if instr >= entry.length or not uses_imm26(
                ID_TO_SPEC[entry.opcodes[instr]]):
            bad("binds a 26-bit immediate the opcode does not encode")
    return findings


def check_x86_dictionary(
    dictionary: X86Dictionary,
    origin: str,
    file: str = _SADC_X86_FILE,
    line: int = 1,
) -> List[Finding]:
    """Unique decodability and coverage of an x86 SADC dictionary."""
    findings: List[Finding] = []
    seen: Dict[Tuple[bytes, ...], int] = {}
    singles: Set[bytes] = set()
    mentioned: Set[bytes] = set()
    for index, entry in enumerate(dictionary.entries):
        if entry in seen:
            findings.append(Finding(
                rule="sadc-ambiguous",
                severity=SEVERITY_ERROR,
                file=file,
                line=line,
                message=f"{origin}: entries {seen[entry]} and {index} match "
                        "identically — token assignment is ambiguous",
            ))
            continue
        seen[entry] = index
        if not entry or any(len(part) == 0 for part in entry):
            findings.append(Finding(
                rule="sadc-entry",
                severity=SEVERITY_ERROR,
                file=file,
                line=line,
                message=f"{origin}: entry {index} contains an empty opcode "
                        "string — the decoder would never advance",
            ))
            continue
        mentioned.update(entry)
        if len(entry) == 1:
            singles.add(entry[0])
    for part in sorted(mentioned - singles):
        findings.append(Finding(
            rule="sadc-coverage",
            severity=SEVERITY_ERROR,
            file=file,
            line=line,
            message=f"{origin}: opcode string {part.hex()} appears in groups "
                    "but has no single entry — unmatched occurrences "
                    "cannot parse",
        ))
    return findings


# -- SAMC models ------------------------------------------------------------

def check_samc_model(
    model: SamcModel,
    origin: str,
    file: str = _SAMC_FILE,
    line: int = 1,
) -> List[Finding]:
    """Every tree replica of a SAMC model must be reachable under the
    connection order.

    The model itself refuses a probability that leaves either bit value
    without mass, so no per-cell check is needed here.
    """
    findings: List[Finding] = []
    specs = model.specs
    contexts = 1 << model.connect_bits
    for stream_index in range(len(specs)):
        # Reachability: the context replica of stream i is selected by
        # the trailing connect_bits of the *previous* stream (the last
        # stream of the previous word for stream 0), masked to that
        # stream's width.  Replicas beyond the reachable count are dead
        # storage the decoder table pays for.
        reachable = 1 << min(model.connect_bits, specs[stream_index - 1].k)
        if contexts > reachable:
            findings.append(Finding(
                rule="samc-unreachable",
                severity=SEVERITY_WARNING,
                file=file,
                line=line,
                message=(
                    f"{origin}: stream {stream_index} stores "
                    f"{contexts} tree replicas but only "
                    f"{reachable} contexts are reachable — "
                    f"{contexts - reachable} replicas are "
                    "dead decoder storage"
                ),
            ))
    return findings


# -- bit-field layouts ------------------------------------------------------

def check_field_layout(
    name: str,
    fields: FieldLayout,
    width: int,
    file: str,
    line: int = 1,
) -> List[Finding]:
    """One format layout must tile its word: no overlap, no gap.

    Overlap detection rides on :func:`repro.bitstream.fields.deposit_bits`
    rejecting duplicate positions — the same primitive the stream
    machinery uses, so the check can never drift from the codec.
    """
    positions: List[int] = []
    for field_name, start, field_width in fields:
        positions.extend(range(start, start + field_width))
    try:
        deposit_bits(0, positions, width)
    except ValueError as exc:
        return [Finding(
            rule="field-tiling",
            severity=SEVERITY_ERROR,
            file=file,
            line=line,
            message=f"format {name!r}: fields overlap or overflow the "
                    f"{width}-bit word ({exc})",
        )]
    if len(positions) != width:
        missing = sorted(set(range(width)) - set(positions))
        return [Finding(
            rule="field-tiling",
            severity=SEVERITY_ERROR,
            file=file,
            line=line,
            message=f"format {name!r}: bit positions {missing} are covered "
                    "by no field — the layout does not tile the word",
        )]
    return []


def check_field_layouts() -> List[Finding]:
    """Tiling of every instruction-format layout the ISA models declare."""
    from repro.isa.mips import formats as mips_formats
    from repro.isa.x86 import formats as x86_formats

    findings: List[Finding] = []
    for name, fields in sorted(mips_formats.FIELD_LAYOUTS.items()):
        findings.extend(check_field_layout(
            name, fields, mips_formats.WORD_BITS, file=_MIPS_FORMATS_FILE,
        ))
    for name, fields in sorted(x86_formats.FIELD_LAYOUTS.items()):
        findings.extend(check_field_layout(
            name, fields, 8, file=_X86_FORMATS_FILE,
        ))
    return findings


# -- the full artifact pass -------------------------------------------------

def run_artifact_checks(scale: float = 0.25, seed: int = 0) -> List[Finding]:
    """Build representative artifacts and run every layer-1 verifier.

    The corpus is deterministic (seeded synthetic benchmarks), so a
    clean tree always verifies identically; ``scale`` trades corpus
    size against check time.
    """
    from repro.baselines.byte_huffman import ByteHuffmanCodec
    from repro.baselines.positional_huffman import PositionalHuffmanCodec
    from repro.core.sadc.mips import MipsSadcCodec
    from repro.core.sadc.x86 import X86SadcCodec
    from repro.core.samc import SamcCodec
    from repro.workloads.suite import generate_benchmark

    findings = check_field_layouts()

    mips_code = generate_benchmark("compress", "mips", scale, seed).code
    x86_code = generate_benchmark("compress", "x86", scale, seed).code

    # Huffman tables: the byte-wide baseline and the per-position variant.
    byte_image = ByteHuffmanCodec().compress(mips_code)
    findings.extend(check_huffman_code(
        byte_image.metadata["code"], "byte-huffman table",
        file="src/repro/baselines/byte_huffman.py",
    ))
    positional_image = PositionalHuffmanCodec().compress(mips_code)
    for position, table in enumerate(
            positional_image.metadata["positional_tables"]):
        findings.extend(check_huffman_code(
            table, f"positional-huffman table {position}",
            file="src/repro/baselines/positional_huffman.py",
        ))

    # SADC: dictionaries plus their final-pass Huffman tables, both ISAs.
    # Bounded generator settings keep the check fast while still
    # exercising groups and operand bindings.
    mips_sadc = MipsSadcCodec(batch_inserts=16, max_cycles=6)
    mips_image = mips_sadc.compress(mips_code)
    findings.extend(check_mips_dictionary(
        mips_image.metadata["dictionary"], "SADC/MIPS dictionary"))
    for stream, table in sorted(mips_image.metadata["codes"].items()):
        findings.extend(check_huffman_code(
            table, f"SADC/MIPS {stream} table", file=_SADC_MIPS_FILE,
        ))
    x86_sadc = X86SadcCodec(batch_inserts=16, max_cycles=6)
    x86_image = x86_sadc.compress(x86_code)
    findings.extend(check_x86_dictionary(
        x86_image.metadata["dictionary"], "SADC/x86 dictionary"))
    for stream, table in sorted(x86_image.metadata["codes"].items()):
        findings.extend(check_huffman_code(
            table, f"SADC/x86 {stream} table", file=_SADC_X86_FILE,
        ))

    # SAMC: the paper's MIPS configuration and the byte-oriented
    # fallback, in both the default and shift-only probability modes.
    for label, codec in (
        ("SAMC/MIPS model", SamcCodec.for_mips()),
        ("SAMC/MIPS pow2 model", SamcCodec.for_mips(probability_mode="pow2")),
        ("SAMC/bytes model", SamcCodec.for_bytes()),
    ):
        program = mips_code if "MIPS" in label else x86_code
        findings.extend(check_samc_model(codec.train(program), label))
    return findings
