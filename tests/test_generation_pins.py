"""SHA-256 pins on what the benchmark front end generates.

The golden vectors (``tests/test_golden_vectors.py``) pin 512 bytes of
one program.  This file pins whole outputs, so a rewrite of the
workload generators, of the trace generator or of the lockstep SAMC
encoder must reproduce them byte for byte:

* every benchmark's MIPS and x86 program at scales 0.05 and 0.1 with
  seeds 0 and 1, and ``refill``'s gcc at scale 2.0 with seed 0
  (``perfbench/refill.py``);
* ``generate_trace`` for ``refill``'s parameters, and for the edges of
  its loop: no fetch, one fetch, a trace cut inside a loop iteration,
  and an 8-byte program under loops longer than itself;
* the joined block payloads of ``refill``'s SAMC image of that gcc
  (2,255 blocks, above the lockstep encoder's threshold).

A program group's digest covers each program's name and length before
its bytes, in figure order; a trace's covers its addresses as
big-endian 32-bit words.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bitstream.fields import words_to_bytes
from repro.core.samc import SamcCodec
from repro.memory.trace import generate_trace
from repro.workloads.profiles import BENCHMARK_NAMES
from repro.workloads.suite import generate_benchmark

#: ``refill``'s program and trace parameters (``perfbench/refill.py``).
REFILL_SIZE = 72_132
REFILL_FETCHES = 200_000
REFILL_LOOP_BYTES = 1024
REFILL_ITERATIONS = 3

PROGRAM_GROUPS = {
    ("mips", 0.05, 0):
        "f556a7265a8dc7d963681731969a003aa9a83d9460888abcfa1b9a96c0ceee71",
    ("mips", 0.05, 1):
        "cda0499329c24d81f1c5e903f025f037e17723cdd6b1f35ae0004e51d61db872",
    ("mips", 0.1, 0):
        "25e2ed628a56f23f7e6b16e2a839cc0c73569fa5b27782221f3ebfc8c1cf8e55",
    ("mips", 0.1, 1):
        "f1397266ebb840bf9c324621815c8444d8ea2e3832a2d6d2c6b89a9cf348e7a6",
    ("x86", 0.05, 0):
        "446204be967f763a6c40ac4220903873a3c576613507d43f4143e1c26ae35d99",
    ("x86", 0.05, 1):
        "68ceaf32c28b692dbeaa18adbdd18feb629c3e8b46e6de003fe74d78f2f74f48",
    ("x86", 0.1, 0):
        "b3f7f4ddfe49af19142422d2aa5d5d5599816c7a0a734d22dbfea3c4393e287e",
    ("x86", 0.1, 1):
        "d4b848acfb2fca285f86ac85e7e41e1228597f4d518995b21ffd493837323581",
}

REFILL_PROGRAM = (
    "94ac29b36bcfdbfdc74f6bced50b0327f951d248730a465f076b892e82f49c05"
)
REFILL_IMAGE_BLOCKS = 2255
REFILL_IMAGE = (
    "ea48efdb30183b2975a075ce7bda7f660b27fc0f776b62cd6bfbca7dc3f64594"
)

#: ``(code_size, length, seed, mean_loop_bytes, mean_iterations)``.
TRACES = {
    (REFILL_SIZE, REFILL_FETCHES, 1, REFILL_LOOP_BYTES, REFILL_ITERATIONS):
        "439b107892b140c1f2055b28b1ce841c4678e5ad7790b50dd684504aa4d8c510",
    (REFILL_SIZE, REFILL_FETCHES, 301, REFILL_LOOP_BYTES, REFILL_ITERATIONS):
        "c92a34b2133b29692c81bf5de702cac1dfa29ebfe4e2a18762b69b40a07652b6",
    (REFILL_SIZE, 0, 1, REFILL_LOOP_BYTES, REFILL_ITERATIONS):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (REFILL_SIZE, 1, 1, REFILL_LOOP_BYTES, REFILL_ITERATIONS):
        "e60ce529c5b215b0a8ef85f00efdc82db95d746f074529220595eedc2865f163",
    (4096, 1001, 7, 256, 2):
        "c64470555513bea1cda563d5b942b34fe158f0c6002e33058cbd548e99bc56c4",
    (8, 50, 3, REFILL_LOOP_BYTES, REFILL_ITERATIONS):
        "b73e51b752dcb5315df1d258c978313ac918ea0b9728ff21fde5d07f9a497f9a",
    (8, 1, 3, REFILL_LOOP_BYTES, REFILL_ITERATIONS):
        "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def refill_program() -> bytes:
    return generate_benchmark("gcc", "mips", 2.0, 0).code


@pytest.mark.parametrize("isa, scale, seed", sorted(PROGRAM_GROUPS))
def test_every_program_is_pinned(isa, scale, seed):
    digest = hashlib.sha256()
    for name in BENCHMARK_NAMES:
        code = generate_benchmark(name, isa, scale, seed).code
        digest.update(b"%s:%d:" % (name.encode(), len(code)))
        digest.update(code)
    assert digest.hexdigest() == PROGRAM_GROUPS[(isa, scale, seed)]


def test_refill_program_is_pinned(refill_program):
    assert len(refill_program) == REFILL_SIZE
    assert _sha256(refill_program) == REFILL_PROGRAM


@pytest.mark.parametrize(
    "args", sorted(TRACES), ids=lambda args: "-".join(map(str, args))
)
def test_trace_is_pinned(args):
    trace = list(generate_trace(*args))
    assert len(trace) == args[1]
    assert _sha256(words_to_bytes(trace, 4)) == TRACES[args]


def test_pinned_traces_cover_the_loop_edges():
    """The short pins above cut where this file says they do: 1,001
    fetches end inside a loop iteration (the next fetch continues it),
    and an 8-byte program repeats its two words under 1 KB loops.  A
    shorter trace is a prefix of a longer one with the same seed."""
    cut = list(generate_trace(4096, 1001, 7, 256, 2))
    longer = list(generate_trace(4096, 1002, 7, 256, 2))
    assert longer[:-1] == cut
    assert longer[-1] == cut[-1] + 4
    assert list(generate_trace(8, 50, 3, 1024, 3)) == [0, 4] * 25


def test_refill_image_is_pinned(refill_program):
    image = SamcCodec.for_mips().compress(refill_program)
    assert image.block_count() == REFILL_IMAGE_BLOCKS
    assert _sha256(b"".join(image.blocks)) == REFILL_IMAGE
