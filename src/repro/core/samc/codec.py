"""SAMC compressor / decompressor (Section 3 of the paper).

Two-pass semiadaptive scheme:

1. **Statistics gathering** — walk the whole program, building the
   per-stream Markov trees (:class:`repro.core.samc.model.SamcModel`).
2. **Compression** — feed each bit of the same walk and its model
   prediction to the binary arithmetic coder.  The coder state,
   Markov context, and tree pointers all reset at every cache-block
   boundary, so the refill engine can decompress any block given only
   its LAT offset.

Training (:func:`repro.core.samc.model.train_model`) builds the model
directly; encoding and decoding run on its kernels in
:mod:`repro.fastpath.samc_kernel`.  :meth:`SamcCodec.compress` computes
the walk once and hands it to both passes.  The bit-at-a-time
reference they are pinned to, the paper's walk and coder as written,
lives in ``tests/oracles.py``.

The codec is ISA-independent: it only assumes fixed-width words.  MIPS
uses 32-bit words in four 8-bit streams; x86 falls back to 8-bit "words"
(single stream), which is why SAMC loses most of its edge on CISC — the
paper observes exactly this in Section 5.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bitstream.fields import word_array, words_to_bytes
from repro.core.lat import CompressedImage
from repro.core.samc.model import SamcModel, train_model
from repro.core.samc.streams import contiguous_streams, optimize_streams
import repro.fastpath.samc_kernel as samc_kernel
from repro.obs import get_recorder
from repro.resilience.errors import decode_guard
from repro.entropy.arith import (
    quantize_power_of_two,
    quantize_probability,
    quantize_probability_8bit,
)

#: Bits per stored probability in the decoder's probability memory.
PROBABILITY_BITS = {"full": 8, "full16": 16, "pow2": 5}
QUANTIZERS = {
    "full": quantize_probability_8bit,
    "full16": quantize_probability,
    "pow2": quantize_power_of_two,
}

DEFAULT_BLOCK_SIZE = 32


class SamcCodec:
    """Configurable SAMC codec.

    Parameters
    ----------
    word_bits:
        Instruction width; a multiple of 8 up to 64 (32 for MIPS, 8 for a
        byte-oriented CISC fallback).
    streams:
        Bit-position partition of the word.  Default: four equal
        contiguous streams for 32-bit words, one stream for 8-bit words.
    connect_bits:
        Inter-stream Markov-tree connection order (Figure 4); 0 gives
        independent trees.
    block_size:
        Cache-block size in bytes; every block compresses independently.
    probability_mode:
        ``"full"`` (8-bit stored probabilities, the default),
        ``"full16"`` (16-bit), or ``"pow2"`` (shift-only decoder
        hardware; less precise, per Witten et al. ~5% loss).
    optimize:
        When true, run the random-exchange stream optimiser on the
        program before training (slower, slightly better ratios).
    """

    def __init__(
        self,
        word_bits: int = 32,
        streams: Optional[Sequence[Sequence[int]]] = None,
        connect_bits: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        probability_mode: str = "full",
        optimize: bool = False,
        optimize_iterations: int = 150,
    ) -> None:
        if word_bits % 8 != 0 or word_bits <= 0:
            raise ValueError("word_bits must be a positive multiple of 8")
        if word_bits > 64:
            # The kernels hold a word in an int64; archives refuse the
            # same widths.
            raise ValueError(
                f"word_bits {word_bits} exceeds the 64-bit word limit"
            )
        if block_size % (word_bits // 8) != 0:
            raise ValueError("block_size must hold a whole number of words")
        if probability_mode not in PROBABILITY_BITS:
            raise ValueError(f"unknown probability mode {probability_mode!r}")
        self.word_bits = word_bits
        self.word_bytes = word_bits // 8
        self.block_size = block_size
        self.connect_bits = connect_bits
        self.probability_mode = probability_mode
        self.optimize = optimize
        self.optimize_iterations = optimize_iterations
        if streams is None:
            n_default = 4 if word_bits >= 32 else 1
            streams = contiguous_streams(word_bits, n_default)
        self.streams = [tuple(s) for s in streams]

    @classmethod
    def for_mips(cls, **kwargs) -> "SamcCodec":
        """Paper configuration for MIPS: 32-bit words, four 8-bit streams."""
        kwargs.setdefault("word_bits", 32)
        return cls(**kwargs)

    @classmethod
    def for_bytes(cls, **kwargs) -> "SamcCodec":
        """CISC fallback: byte-oriented coding, single connected stream."""
        kwargs.setdefault("word_bits", 8)
        kwargs.setdefault("connect_bits", 2)
        return cls(**kwargs)

    # ------------------------------------------------------------------

    def _quantizer(self):
        return QUANTIZERS[self.probability_mode]

    def _probability_bits(self) -> int:
        return PROBABILITY_BITS[self.probability_mode]

    def train(self, code: bytes) -> SamcModel:
        """First pass: build the Markov model for a program."""
        return self._train(word_array(code, self.word_bytes))[0]

    def _train(
        self, words: np.ndarray
    ) -> Tuple[SamcModel, samc_kernel.SamcWalk]:
        """Train a model; return it with the walk it counted."""
        streams = self.streams
        if self.optimize:
            streams, _entropy = optimize_streams(
                words.tolist(),
                self.word_bits,
                n_streams=len(self.streams),
                iterations=self.optimize_iterations,
                initial=self.streams,
            )
        return train_model(
            self.word_bits,
            streams,
            self.connect_bits,
            words,
            self.block_size // self.word_bytes,
            self._quantizer(),
        )

    def compress(self, code: bytes) -> CompressedImage:
        """Compress a code image into independently decodable blocks.

        Exactly ``compress_with_model(code, train(code))``, but the
        Markov walk that training counts is the one the encode pass
        codes, so it is computed once, inside the ``samc.train`` span.
        """
        self._check_word_aligned(code)
        rec = get_recorder()
        with rec.span("samc.train", word_bits=self.word_bits):
            model, walk = self._train(word_array(code, self.word_bytes))
        return self._encode(code, model, walk)

    def compress_with_model(
        self, code: bytes, model: SamcModel
    ) -> CompressedImage:
        """Compress ``code`` against an already-trained model.

        This is the warm-model entry point: a long-lived service trains
        the two-pass model once (:meth:`train`) and reuses it across
        requests — only the encode pass runs per call.  The model must
        be built for this codec's word width; it is immutable, so one
        model may be shared by concurrent encodes.  ``compress(code)``
        is exactly ``compress_with_model(code, train(code))``.
        """
        self._check_word_aligned(code)
        if model.width != self.word_bits:
            raise ValueError(
                f"model is for {model.width}-bit words, codec expects "
                f"{self.word_bits}"
            )
        return self._encode(code, model, None)

    def _encode(
        self,
        code: bytes,
        model: SamcModel,
        walk: Optional[samc_kernel.SamcWalk],
    ) -> CompressedImage:
        """Second pass: code ``walk`` (walked here when ``None``)."""
        rec = get_recorder()
        with rec.span("samc.encode"):
            if walk is None:
                walk = samc_kernel.walk_program(
                    model.width,
                    model.specs,
                    model.connect_bits,
                    word_array(code, self.word_bytes),
                    self.block_size // self.word_bytes,
                )
            blocks = model.encode_blocks(walk)
        image = CompressedImage(
            algorithm="SAMC",
            original_size=len(code),
            block_size=self.block_size,
            blocks=blocks,
            model_bytes=model.storage_bytes(self._probability_bits()),
            metadata={
                "model": model,
                "word_bits": self.word_bits,
                "streams": model.specs,
                "connect_bits": model.connect_bits,
                "probability_mode": self.probability_mode,
            },
        )
        if rec.enabled:
            rec.add_bits("model", image.model_bytes * 8)
            rec.add_bits("lat", image.compact_lat.storage_bytes * 8)
            rec.gauge("samc.model_bytes", image.model_bytes)
            for block in blocks:
                rec.observe("samc.block_payload_bytes", len(block))
        return image

    # repro: contract decode-entry
    def decompress(self, image: CompressedImage) -> bytes:
        """Decompress a full image (all blocks, in order)."""
        return b"".join(
            self.decompress_blocks(image, range(image.block_count()))
        )

    # repro: contract decode-entry
    def decompress_blocks(
        self, image: CompressedImage, indices: Sequence[int]
    ) -> List[bytes]:
        """Random-access decompression of a batch of cache blocks.

        The semantics are exactly the per-block loop —
        ``[decompress_block(image, i) for i in indices]``.  The whole
        batch goes to the model's
        :meth:`~repro.fastpath.samc_kernel.SamcModel.decode_blocks`,
        which runs the range decoder in lockstep across the batch (or
        falls back to the fused scalar loop below its batch threshold);
        output is byte-identical either way, and equal to the reference
        decoder's in ``tests/oracles.py``.  This is the refill engine's
        miss-burst entry point and the unit the service's vectorised
        dispatcher executes.
        """
        indices = list(indices)
        if not indices:
            return []
        word_counts = [
            image.original_block_size(index) // self.word_bytes
            for index in indices
        ]
        rec = get_recorder()
        with rec.span("samc.decode_batch", blocks=len(indices)), \
                decode_guard("samc.decompress_blocks"):
            batches = image.metadata["model"].decode_blocks(
                [image.blocks[index] for index in indices], word_counts
            )
        if rec.enabled:
            rec.count("samc.blocks_decoded", len(indices))
            rec.count("samc.words_decoded", sum(word_counts))
        return [
            words_to_bytes(words, self.word_bytes) for words in batches
        ]

    def decompress_block(self, image: CompressedImage, block_index: int) -> bytes:
        """Random-access decompression of a single cache block.

        This is the refill-engine operation: only the block's own bytes
        (located via the LAT) and the shared model are consulted.
        """
        word_count = image.original_block_size(block_index) // self.word_bytes
        rec = get_recorder()
        with rec.span("samc.decode_block"), \
                decode_guard("samc.decompress_block"):
            words = image.metadata["model"].decode_block(
                image.blocks[block_index], word_count
            )
        if rec.enabled:
            rec.count("samc.blocks_decoded")
            rec.count("samc.words_decoded", word_count)
        return words_to_bytes(words, self.word_bytes)

    def _check_word_aligned(self, code: bytes) -> None:
        if len(code) % self.word_bytes != 0:
            raise ValueError(
                f"code length {len(code)} is not a multiple of the "
                f"{self.word_bytes}-byte word size"
            )


def samc_compress(code: bytes, **kwargs) -> CompressedImage:
    """One-call SAMC compression with paper-default parameters."""
    codec = SamcCodec(**kwargs)
    return codec.compress(code)


def samc_decompress(image: CompressedImage) -> bytes:
    """Decompress an image produced by :func:`samc_compress`."""
    from repro.core import block_codec

    return block_codec(image).decompress(image)
