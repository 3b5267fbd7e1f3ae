"""Kernels + execution out of compressed memory (the Figure-1 loop)."""

import hashlib
import random

import pytest

import repro.memory.fetchsim as fetchsim
from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.core import block_codec
from repro.core.sadc import MipsSadcCodec, X86SadcCodec
from repro.core.samc import SamcCodec
from repro.isa.mips.asm import assemble_to_bytes
from repro.isa.mips.interp import MipsMachine
from repro.memory.fetchsim import (
    CompressedFetchPort,
    ExecutionResult,
    run_compressed,
)
from repro.memory.trace import generate_trace
from repro.resilience.errors import CorruptedStreamError
from repro.workloads.kernels import KERNELS, MEMCPY, run_kernel
from repro.workloads.suite import generate_benchmark


class TestKernelsNative:
    """Each kernel runs correctly on the bare interpreter."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_kernel_correct(self, kernel):
        machine = run_kernel(kernel)
        assert machine.halted
        assert kernel.check(machine), f"{kernel.name} produced wrong result"

    def test_kernels_have_distinct_code(self):
        images = {kernel.name: kernel.code() for kernel in KERNELS}
        assert len(set(images.values())) == len(images)


def _run_through(kernel, image):
    machine = MipsMachine()
    machine.load_code(kernel.code())
    kernel.setup(machine)
    return machine, run_compressed(image, machine, cache_size=256)


class TestExecutionFromCompressedMemory:
    """Every fetch decompresses through the real codec; results must be
    bit-identical to native execution."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_samc(self, kernel):
        image = SamcCodec.for_mips().compress(kernel.code())
        machine, result = _run_through(kernel, image)
        assert machine.halted
        assert kernel.check(machine)
        assert result.refills > 0

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_sadc(self, kernel):
        image = MipsSadcCodec().compress(kernel.code())
        machine, result = _run_through(kernel, image)
        assert kernel.check(machine)

    def test_byte_huffman(self):
        image = ByteHuffmanCodec().compress(MEMCPY.code())
        machine, result = _run_through(MEMCPY, image)
        assert MEMCPY.check(machine)

    def test_same_results_as_native(self):
        native = run_kernel(MEMCPY)
        image = SamcCodec.for_mips().compress(MEMCPY.code())
        compressed_machine, _result = _run_through(MEMCPY, image)
        assert compressed_machine.state().registers == \
            native.state().registers
        assert compressed_machine.memory == native.memory

    def test_fetch_cycle_accounting(self):
        image = SamcCodec.for_mips().compress(MEMCPY.code())
        _machine, result = _run_through(MEMCPY, image)
        # Every instruction costs at least one fetch cycle; refills add more.
        assert result.fetch_cycles >= result.instructions
        assert 0.0 < result.hit_ratio <= 1.0
        assert result.fetch_cycles_per_instruction >= 1.0

    def test_tight_loops_hit_in_cache(self):
        image = SamcCodec.for_mips().compress(MEMCPY.code())
        _machine, result = _run_through(MEMCPY, image)
        # memcpy is one small loop: after the first refills, everything hits.
        assert result.hit_ratio > 0.95
        assert result.refills <= 2 * image.block_count()


class TestFetchPort:
    def test_unknown_algorithm_rejected(self):
        from repro.core.lat import CompressedImage

        image = CompressedImage("mystery", 32, 32, [b"x"], 0)
        with pytest.raises(ValueError):
            CompressedFetchPort(image)

    def test_refill_burst_below_one_rejected(self):
        image = _go_image(SamcCodec.for_mips())
        with pytest.raises(ValueError, match="refill_burst"):
            CompressedFetchPort(image, refill_burst=0)
        assert CompressedFetchPort(image, refill_burst=1).refill_burst == 1

    def test_one_block_refills_call_the_single_block_decoder(self):
        """With ``refill_burst=1`` every miss is one ``decompress_block``
        call, so a timed ``decompress_block`` sees every decode."""
        image = _go_image(SamcCodec.for_mips())
        codec = block_codec(image)
        calls = []

        def decode(image_, index):
            calls.append(index)
            return codec.decompress_block(image_, index)

        def no_batch(image_, indices):
            raise AssertionError("a one-block refill decoded a batch")

        port = CompressedFetchPort(
            image, cache_size=256, decompress_block=decode,
            decompress_blocks=no_batch,
        )
        code = codec.decompress(image)
        trace = list(generate_trace(len(code), 2000, 5, 256, 2))
        assert [port.fetch(address) for address in trace] == [
            int.from_bytes(code[a : a + 4], "big") for a in trace
        ]
        assert len(calls) == port.refills > 0

    @pytest.mark.parametrize("given, burst", [
        ("decompress_block", 4), ("decompress_blocks", 1),
    ])
    def test_the_decoder_not_given_comes_from_the_image(self, given, burst):
        """A port given one decoder resolves the other from the image's
        codec: a burst miss needs ``decompress_blocks`` and a one-block
        miss ``decompress_block``."""
        image = _go_image(SamcCodec.for_mips())
        codec = block_codec(image)
        port = CompressedFetchPort(
            image, refill_burst=burst, **{given: getattr(codec, given)}
        )
        code = codec.decompress(image)
        assert port.fetch(64) == int.from_bytes(code[64:68], "big")
        assert port.refills == 1


class TestExecutionResult:
    def test_cycles_per_instruction(self):
        result = ExecutionResult(4, 10, 0.5, 1.0, 1)
        assert result.fetch_cycles_per_instruction == 2.5
        assert ExecutionResult(1, 7, 0.0, 0.0, 1) \
            .fetch_cycles_per_instruction == 7.0

    def test_no_instructions_cost_nothing(self):
        assert ExecutionResult(0, 0, 0.0, 0.0, 0) \
            .fetch_cycles_per_instruction == 0.0


def test_run_compressed_builds_a_machine_holding_the_program():
    """Without a machine, ``run_compressed`` loads the program's bytes
    as data too: the load of the first word reads the ``lw`` itself,
    so the branch is taken and three instructions run."""
    code = assemble_to_bytes([
        "    lw   $t0, 0($zero)",
        "    bne  $t0, $zero, done",
        "    addiu $t1, $t1, 1",
        "done:",
        "    syscall",
    ])
    result = run_compressed(SamcCodec.for_mips().compress(code))
    assert (result.instructions, result.refills) == (3, 1)


class TestFetchAddress:
    """``fetch`` serves aligned words inside the program and nothing
    else: a 36-byte program has words at 0, 4, ..., 32."""

    @pytest.fixture
    def port(self):
        code = generate_benchmark("go", "mips", 0.1, 0).code[:36]
        return CompressedFetchPort(SamcCodec.for_mips().compress(code))

    @pytest.mark.parametrize("address", [1, 2, 30, 33, 36, 40, -4, -1])
    def test_address_outside_the_words_is_refused(self, port, address):
        with pytest.raises(ValueError, match=f"fetch address {address} "):
            port.fetch(address)
        assert (port.cycles, port.refills) == (0, 0)
        assert vars(port.cache.stats) == {"accesses": 0, "hits": 0, "misses": 0}
        assert port.clb.stats.lookups == 0

    def test_first_and_last_words_are_served(self, port):
        code = generate_benchmark("go", "mips", 0.1, 0).code[:36]
        assert port.fetch(0) == int.from_bytes(code[:4], "big")
        assert port.fetch(32) == int.from_bytes(code[32:], "big")

    def test_a_word_past_a_ragged_end_is_refused(self):
        # 39 bytes: the word at 36 would need a byte the program lacks.
        code = generate_benchmark("go", "mips", 0.1, 0).code[:39]
        port = CompressedFetchPort(SamcCodec.for_bytes().compress(code))
        assert port.fetch(32) == int.from_bytes(code[32:36], "big")
        with pytest.raises(ValueError, match="fetch address 36 "):
            port.fetch(36)

    def test_fetch_bytes_still_clamps(self, port):
        code = generate_benchmark("go", "mips", 0.1, 0).code[:36]
        assert port.fetch_bytes(30, 16) == code[30:]
        assert port.fetch_bytes(36, 4) == b""


class _CountingCodec:
    """Delegates to a block codec, counting the decode calls it serves."""

    def __init__(self, codec):
        self.codec = codec
        self.calls = 0

    def decompress_block(self, image, index):
        self.calls += 1
        return self.codec.decompress_block(image, index)

    def decompress_blocks(self, image, indices):
        self.calls += 1
        return self.codec.decompress_blocks(image, indices)


@pytest.fixture
def counting_codecs(monkeypatch):
    """Every codec a port resolves, wrapped in a :class:`_CountingCodec`."""
    built = []

    def resolve(image):
        built.append(_CountingCodec(block_codec(image)))
        return built[-1]

    monkeypatch.setattr(fetchsim, "block_codec", resolve)
    return built


def _go_image(codec, scale=0.1):
    return codec.compress(generate_benchmark("go", "mips", scale, 0).code)


def _with_bad_block(index):
    """An SADC-MIPS image whose block ``index`` is cut to nothing, so its
    decode reads past the end of the block and raises."""
    image = _go_image(MipsSadcCodec())
    blocks = list(image.blocks)
    blocks[index] = b""
    image.blocks = blocks
    return image


class TestRefillFailure:
    """A refill whose decode raises must leave the port as it found it."""

    @pytest.mark.parametrize("burst", [1, 4])
    def test_failed_refill_never_counts_as_a_hit(self, burst):
        image = _with_bad_block(0)
        port = CompressedFetchPort(image, refill_burst=burst)
        for _ in range(3):
            with pytest.raises(CorruptedStreamError):
                port.fetch(0)
        assert (port.cycles, port.refills, port.cache.stats.hits) == (0, 0, 0)
        line = block_codec(image).decompress_block(image, 1)
        assert port.fetch(image.block_size) == int.from_bytes(line[:4], "big")
        assert port.refills == 1

    def test_bad_block_fails_only_its_own_fetches_in_a_burst(self):
        image = _with_bad_block(2)
        addresses = [0, 4, image.block_size, 3 * image.block_size]
        outcomes = []
        for burst in (1, 16):
            port = CompressedFetchPort(image, refill_burst=burst)
            words = [port.fetch(address) for address in addresses]
            for _ in range(2):
                with pytest.raises(CorruptedStreamError):
                    port.fetch(2 * image.block_size)
            outcomes.append((words, port.cycles, port.refills))
        assert outcomes[1] == outcomes[0]


class TestCodecResolution:
    def test_port_builds_its_codec_once(self, counting_codecs):
        image = _go_image(SamcCodec.for_mips())
        trace = list(generate_trace(image.original_size, 3000, 7, 256, 2))
        for burst in (1, 4):
            port = CompressedFetchPort(image, cache_size=256, refill_burst=burst)
            for address in trace:
                port.fetch(address)
            assert port.refills > 100
        assert len(counting_codecs) == 2
        assert counting_codecs[0].calls > counting_codecs[1].calls > 1

    def test_given_decoders_need_no_block_codec(self):
        from repro.core.lat import CompressedImage

        code = MEMCPY.code()
        blocks = [code[i : i + 32] for i in range(0, len(code), 32)]
        image = CompressedImage("uncompressed", len(code), 32, blocks, 0)
        port = CompressedFetchPort(
            image,
            decompress_block=lambda image, i: image.blocks[i],
            decompress_blocks=lambda image, ids: [image.blocks[i] for i in ids],
        )
        last = len(code) - 4
        assert port.fetch(last) == int.from_bytes(code[last:], "big")


_BURST_CODECS = {
    "SAMC": SamcCodec.for_mips,
    "SADC-mips": MipsSadcCodec,
    "byte-huffman": ByteHuffmanCodec,
}


@pytest.mark.parametrize("kind", sorted(_BURST_CODECS))
def test_refill_burst_changes_no_statistic(kind, counting_codecs):
    """Bursts only batch the host-side decode: the fetched words and
    every modelled statistic are those of one-block refills."""
    code = generate_benchmark("go", "mips", 0.3, 0).code
    image = _BURST_CODECS[kind]().compress(code)
    trace = list(generate_trace(len(code), 20_000, 1998, 512, 3))
    outcomes = []
    for burst in (1, 4, 16):
        port = CompressedFetchPort(image, cache_size=512, refill_burst=burst)
        words = [port.fetch(address) for address in trace]
        outcomes.append((
            words,
            port.cycles,
            port.refills,
            vars(port.cache.stats),
            vars(port.clb.stats),
        ))
    assert outcomes[0][0] == [
        int.from_bytes(code[a : a + 4], "big") for a in trace
    ]
    assert outcomes[0][2] > 500
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    calls = [codec.calls for codec in counting_codecs]
    assert calls[0] == outcomes[0][2]
    assert calls[0] > calls[1] > calls[2]


def _port_counters(port):
    return (
        port.cycles,
        port.refills,
        tuple(vars(port.cache.stats).values()),
        tuple(vars(port.clb.stats).values()),
    )


#: (cycles, refills, cache (accesses, hits, misses), CLB (lookups,
#: hits), SHA-256 of the fetched words) for 20,000 fetches of ``go`` at
#: scale 0.3 (7,672 bytes, 240 blocks) under SAMC, trace seed 2024,
#: behind a 1 KB two-way cache: taken from the port as first written,
#: before the cache model remembered its last block.
PINNED_MIPS_FETCH = (
    163581, 1395, (20000, 18605, 1395), (1395, 1256),
    "0c6b879c94da6af89c88e8536652911bdc38205d987fe2f4338d2461b72065a2",
)


@pytest.mark.parametrize("burst", [1, 4])
def test_pinned_mips_fetch(burst):
    code = generate_benchmark("go", "mips", 0.3, 0).code
    image = SamcCodec.for_mips().compress(code)
    trace = list(generate_trace(len(code), 20_000, 2024, 512, 3))
    port = CompressedFetchPort(
        image, cache_size=1024, associativity=2, refill_burst=burst
    )
    words = b"".join(port.fetch(address).to_bytes(4, "big") for address in trace)
    assert words == b"".join(code[a : a + 4] for a in trace)
    assert _port_counters(port) + (hashlib.sha256(words).hexdigest(),) \
        == PINNED_MIPS_FETCH


#: The same through ``fetch_bytes`` for 5,000 windows of 1 to 15 bytes
#: on ``go`` for x86 at scale 0.3 (4,021 bytes, 126 blocks).  A SADC-x86
#: block decodes to the instructions that *start* in it, so its line is
#: not the block's address range and the SADC bytes are not the
#: program's: the pin holds what the port serves, as it is.
PINNED_X86_FETCH = {
    "SAMC": (
        38142, 309, (6089, 5780, 309), (309, 278),
        "c1a4a3dda8ccc7182fc91ed0b1a0ec2f9c92d9823eaec8977f8fc7b50a97c57a",
    ),
    "SADC": (
        23044, 309, (6089, 5780, 309), (309, 278),
        "161f6af8adc24e430e7b14d3948d6c1e0fd160c6469ec5c9c307d120bfd7cbd2",
    ),
}
_X86_CODECS = {"SAMC": SamcCodec.for_bytes, "SADC": X86SadcCodec}


@pytest.mark.parametrize("burst", [1, 4])
@pytest.mark.parametrize("kind", sorted(PINNED_X86_FETCH))
def test_pinned_x86_fetch_bytes(kind, burst):
    code = generate_benchmark("go", "x86", 0.3, 0).code
    image = _X86_CODECS[kind]().compress(code)
    rng = random.Random(2024)
    windows = [
        (address + rng.randrange(4), rng.randint(1, 15))
        for address in generate_trace(len(code), 5_000, 2024, 512, 3)
    ]
    port = CompressedFetchPort(
        image, cache_size=1024, associativity=2, refill_burst=burst
    )
    fetched = b"".join(port.fetch_bytes(a, n) for a, n in windows)
    if kind == "SAMC":
        assert fetched == b"".join(code[a : a + n] for a, n in windows)
    assert _port_counters(port) + (hashlib.sha256(fetched).hexdigest(),) \
        == PINNED_X86_FETCH[kind]
