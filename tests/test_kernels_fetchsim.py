"""Kernels + execution out of compressed memory (the Figure-1 loop)."""

import pytest

import repro.memory.fetchsim as fetchsim
from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.core import block_codec
from repro.core.sadc import MipsSadcCodec
from repro.core.samc import SamcCodec
from repro.isa.mips.interp import MipsMachine
from repro.memory.fetchsim import CompressedFetchPort, run_compressed
from repro.memory.trace import generate_trace
from repro.resilience.errors import CorruptedStreamError
from repro.resilience.frame import frame_image
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


def _framed_with_bad_block(index):
    """A framed SAMC image whose block ``index`` fails its CRC."""
    image = frame_image(_go_image(SamcCodec.for_mips()))
    blocks = list(image.blocks)
    blocks[index] = blocks[index][:-1] + bytes([blocks[index][-1] ^ 0xFF])
    image.blocks = blocks
    return image


class TestRefillFailure:
    """A refill whose decode raises must leave the port as it found it."""

    @pytest.mark.parametrize("burst", [1, 4])
    def test_failed_refill_never_counts_as_a_hit(self, burst):
        image = _framed_with_bad_block(0)
        port = CompressedFetchPort(image, refill_burst=burst)
        for _ in range(3):
            with pytest.raises(CorruptedStreamError):
                port.fetch(0)
        assert (port.cycles, port.refills, port.cache.stats.hits) == (0, 0, 0)
        line = block_codec(image).decompress_block(image, 1)
        assert port.fetch(image.block_size) == int.from_bytes(line[:4], "big")
        assert port.refills == 1

    def test_bad_block_fails_only_its_own_fetches_in_a_burst(self):
        image = _framed_with_bad_block(2)
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
