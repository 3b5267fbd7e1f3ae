"""Public-API surface tests: imports, dispatch, and docstrings."""

import importlib

import pytest

import repro
from repro.core import block_codec, decompress_image
from repro.core.lat import CompressedImage
from repro.resilience.errors import CorruptedStreamError


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module", [
        "repro.bitstream", "repro.entropy", "repro.baselines",
        "repro.core", "repro.core.samc", "repro.core.sadc",
        "repro.isa.mips", "repro.isa.x86", "repro.memory", "repro.hw",
        "repro.workloads", "repro.analysis",
    ])
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    @pytest.mark.parametrize("module", [
        "repro.core.samc.codec", "repro.core.sadc.mips",
        "repro.entropy.arith", "repro.memory.system",
        "repro.workloads.mips_gen", "repro.hw.midpoint",
    ])
    def test_modules_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__) > 40


class TestDecompressDispatch:
    def test_samc(self, mips_program):
        image = repro.samc_compress(mips_program)
        assert decompress_image(image) == mips_program

    def test_sadc(self, mips_program):
        image = repro.sadc_compress(mips_program, isa="mips")
        assert decompress_image(image) == mips_program

    def test_byte_huffman(self, mips_program):
        from repro.baselines.byte_huffman import ByteHuffmanCodec

        image = ByteHuffmanCodec().compress(mips_program)
        assert decompress_image(image) == mips_program

    def test_unknown_algorithm(self):
        image = CompressedImage("nope", 0, 32, [], 0)
        with pytest.raises(ValueError):
            decompress_image(image)

    @pytest.mark.parametrize("algorithm, metadata, message", [
        ("nope", {}, "unknown algorithm 'nope'"),
        ("SADC", {"isa": "arm"}, "image has unknown ISA 'arm'"),
    ])
    def test_unknown_codec_keeps_its_value_error(
        self, algorithm, metadata, message
    ):
        image = CompressedImage(algorithm, 0, 32, [], 0, metadata=metadata)
        with pytest.raises(ValueError) as info:
            decompress_image(image)
        assert str(info.value) == message
        assert not isinstance(info.value, CorruptedStreamError)

    def test_samc_without_word_bits(self, mips_program):
        image = repro.samc_compress(mips_program)
        del image.metadata["word_bits"]
        with pytest.raises(CorruptedStreamError) as info:
            decompress_image(image)
        assert info.value.category == "bounds"

    @pytest.mark.parametrize("entry", ["image", "block", "blocks"])
    def test_samc_without_model(self, mips_program, entry):
        image = repro.samc_compress(mips_program)
        codec = block_codec(image)
        del image.metadata["model"]
        decode = {
            "image": lambda: decompress_image(image),
            "block": lambda: codec.decompress_block(image, 0),
            "blocks": lambda: codec.decompress_blocks(image, [0, 1]),
        }[entry]
        with pytest.raises(CorruptedStreamError) as info:
            decode()
        assert info.value.category == "bounds"

    def test_positional_without_word_bytes(self, mips_program):
        from repro.baselines.positional_huffman import PositionalHuffmanCodec

        image = PositionalHuffmanCodec().compress(mips_program)
        del image.metadata["word_bytes"]
        with pytest.raises(CorruptedStreamError) as info:
            decompress_image(image)
        assert info.value.category == "bounds"


class TestPublicDocstrings:
    def test_every_public_core_callable_documented(self):
        import repro.core as core

        for name in core.__all__:
            obj = getattr(core, name)
            if callable(obj):
                assert obj.__doc__, f"repro.core.{name} lacks a docstring"
