"""Service codec adapters: one compress/decompress pair per wire name.

The wire schema is codec-agnostic — a request names its codec with a
string — and this module is the registry that resolves those names.
Image codecs (SAMC, SADC, byte-Huffman) ship their output through the
on-ROM archive format (:mod:`repro.core.serialize`), so a service
response is exactly the bytes an embedded build would burn; SAMC
variants route their training pass through the
:class:`~repro.service.registry.WarmModelRegistry` so the two-pass cost
is paid once per distinct input, not once per request.  The stream
baselines (LZW, gzipish) pass through their native formats.

Archives travel *unframed* inside the wire message: the RF01 container
around every message already carries a CRC over the whole payload, and
double-framing would just double the integrity overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.service.registry import WarmModelRegistry

BatchFn = Callable[[List[bytes]], List[bytes]]


@dataclass(frozen=True)
class ServiceCodec:
    """One resolvable wire codec.

    ``compress_batch`` / ``decompress_batch`` take a list of payloads
    and return the per-payload results in order — semantically identical
    to mapping the scalar callable, which is what the dispatcher falls
    back to when a batch callable is ``None``.  The dispatcher groups
    requests by payload digest, so a batch call typically receives
    *identical* payloads; every adapter here dedups internally and does
    the codec work once per distinct payload.
    """

    name: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]
    compress_batch: Optional[BatchFn] = None
    decompress_batch: Optional[BatchFn] = None


def _dedup_batch(fn: Callable[[bytes], bytes]) -> BatchFn:
    """Lift a scalar codec callable to a dedup-ing batch callable."""

    def run(payloads: List[bytes]) -> List[bytes]:
        cache: Dict[bytes, bytes] = {}
        out = []
        for payload in payloads:
            result = cache.get(payload)
            if result is None:
                result = fn(payload)
                cache[payload] = result
            out.append(result)
        return out

    return run


def build_codecs(registry: WarmModelRegistry) -> Dict[str, ServiceCodec]:
    """The full wire-name → adapter map served by the daemon."""
    from repro.baselines.byte_huffman import ByteHuffmanCodec
    from repro.baselines.gzipish import gzipish_compress, gzipish_decompress
    from repro.baselines.lzw import lzw_compress, lzw_decompress
    from repro.core import decompress_image
    from repro.core.sadc import MipsSadcCodec, X86SadcCodec
    from repro.core.samc import SamcCodec
    from repro.core.serialize import deserialize_image, serialize_image

    def archive_decompress(data: bytes) -> bytes:
        return decompress_image(deserialize_image(data))

    def warm_samc(name: str, codec: SamcCodec) -> Callable[[bytes], bytes]:
        def compress(data: bytes) -> bytes:
            model = registry.model_for(name, codec, data)
            image = codec.compress_with_model(data, model)
            return serialize_image(image, framed=False)

        return compress

    def image_compress(codec) -> Callable[[bytes], bytes]:
        def compress(data: bytes) -> bytes:
            return serialize_image(codec.compress(data), framed=False)

        return compress

    samc_mips = SamcCodec.for_mips()
    samc_bytes = SamcCodec.for_bytes()

    def batched(name, compress, decompress):
        # Archive decompression already runs the codec's own batch
        # entry point over all blocks of an image (the vectorised
        # kernel); across requests the win is dedup — one codec call
        # per distinct payload in the group.
        return ServiceCodec(
            name, compress, decompress,
            compress_batch=_dedup_batch(compress),
            decompress_batch=_dedup_batch(decompress),
        )

    codecs = [
        batched("samc-mips", warm_samc("samc-mips", samc_mips),
                archive_decompress),
        batched("samc-bytes", warm_samc("samc-bytes", samc_bytes),
                archive_decompress),
        batched("sadc-mips", image_compress(MipsSadcCodec()),
                archive_decompress),
        batched("sadc-x86", image_compress(X86SadcCodec()),
                archive_decompress),
        batched("byte-huffman", image_compress(ByteHuffmanCodec()),
                archive_decompress),
        batched("lzw", lzw_compress, lzw_decompress),
        batched("gzipish", gzipish_compress, gzipish_decompress),
    ]
    return {codec.name: codec for codec in codecs}


__all__ = ["ServiceCodec", "build_codecs"]
