"""Integrity framing: a versioned, checksummed container for codec bytes.

Statistical decoders cannot detect corruption on their own — a flipped
bit in a SAMC payload decodes to a perfectly plausible wrong block.  The
frame closes that gap with an end-to-end check the decoder can trust::

    "RF01" | version u8 | flags u8 | payload_len u32 | crc32 u32 | payload

All integers are big-endian; the CRC-32 (:func:`zlib.crc32`) covers the
10 header bytes *and* the payload, so a corrupted length field fails the
checksum rather than mis-slicing the payload.  Fixed overhead is
:data:`FRAME_OVERHEAD` = 14 bytes per framed object.

Framing is **opt-in** (``REPRO_FRAMED=1`` or explicit ``framed=True``
arguments): raw codec outputs and the golden vectors stay byte-identical
when it is off.  The serializer frames whole archives (14 bytes on a
multi-kilobyte image keeps container overhead far under the 2% budget —
pinned by ``benchmarks/test_frame_overhead.py``); per-block framing is
available for the refill path via :func:`frame_image`.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import List

from repro.resilience.errors import (
    CATEGORY_CHECKSUM,
    CATEGORY_MAGIC,
    CATEGORY_STRUCTURE,
    CATEGORY_TRUNCATED,
    CATEGORY_VERSION,
    CorruptedStreamError,
)

FRAME_MAGIC = b"RF01"
FRAME_VERSION = 1

_HEADER = struct.Struct(">4sBBI")  # magic, version, flags, payload length
FRAME_HEADER_BYTES = _HEADER.size
#: Total container cost per framed object: header + CRC-32.
FRAME_OVERHEAD = FRAME_HEADER_BYTES + 4

#: Environment switch for default-on framing.
FRAMED_ENV = "REPRO_FRAMED"


def framing_enabled() -> bool:
    """True when ``REPRO_FRAMED`` opts serialised archives into framing.

    Read on every call so tests and CI can flip it without re-importing.
    """
    return os.environ.get(FRAMED_ENV, "0") not in ("0", "")  # repro: noqa determinism-taint (REPRO_FRAMED is the deliberate opt-in container switch; on/off both stay bit-reproducible)


def wrap_frame(payload: bytes, flags: int = 0) -> bytes:
    """Wrap ``payload`` in the checksummed container."""
    if not 0 <= flags <= 0xFF:
        raise ValueError(f"frame flags must fit in one byte, got {flags}")
    if len(payload) > 0xFFFFFFFF:
        raise ValueError("payload exceeds the u32 frame length field")
    header = _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, flags, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(header))
    return header + struct.pack(">I", crc) + payload


def is_framed(data: bytes) -> bool:
    """Cheap magic probe; a true result still requires :func:`unwrap_frame`."""
    return data[:4] == FRAME_MAGIC


# repro: contract decode-entry
def unwrap_frame(data: bytes) -> bytes:
    """Validate a frame and return its payload.

    Raises :class:`CorruptedStreamError` with category ``magic``,
    ``version``, ``truncated``, ``structure`` (trailing bytes) or
    ``checksum``; the offset points at the failing field.
    """
    if len(data) < FRAME_HEADER_BYTES:
        raise CorruptedStreamError(
            f"frame header needs {FRAME_HEADER_BYTES} bytes, got {len(data)}",
            offset=len(data),
            category=CATEGORY_TRUNCATED,
        )
    magic, version, _flags, length = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise CorruptedStreamError(
            f"bad frame magic {magic!r}", offset=0, category=CATEGORY_MAGIC
        )
    if version != FRAME_VERSION:
        raise CorruptedStreamError(
            f"unsupported frame version {version}",
            offset=4,
            category=CATEGORY_VERSION,
        )
    total = FRAME_OVERHEAD + length
    if len(data) < total:
        raise CorruptedStreamError(
            f"frame declares {length} payload bytes but only "
            f"{len(data) - FRAME_OVERHEAD} are present",
            offset=len(data),
            category=CATEGORY_TRUNCATED,
        )
    if len(data) > total:
        raise CorruptedStreamError(
            f"{len(data) - total} trailing byte(s) after the frame",
            offset=total,
            category=CATEGORY_STRUCTURE,
        )
    (stored_crc,) = struct.unpack_from(">I", data, FRAME_HEADER_BYTES)
    payload = data[FRAME_OVERHEAD:]
    actual = zlib.crc32(payload, zlib.crc32(data[:FRAME_HEADER_BYTES]))
    if stored_crc != actual:
        raise CorruptedStreamError(
            f"frame CRC mismatch (stored {stored_crc:#010x}, "
            f"computed {actual:#010x})",
            offset=FRAME_HEADER_BYTES,
            category=CATEGORY_CHECKSUM,
        )
    return payload


# -- per-block framing for CompressedImage ----------------------------------

def frame_image(image) -> "object":
    """Return a copy of ``image`` whose payload blocks are each framed.

    The copy is marked with ``metadata["framed"] = True`` so
    :func:`block_payload` (used by every block decoder) knows to unwrap.
    The original image is untouched.
    """
    from repro.core.lat import CompressedImage

    framed_blocks: List[bytes] = [wrap_frame(block) for block in image.blocks]
    metadata = dict(image.metadata)
    metadata["framed"] = True
    return CompressedImage(
        algorithm=image.algorithm,
        original_size=image.original_size,
        block_size=image.block_size,
        blocks=framed_blocks,
        model_bytes=image.model_bytes,
        metadata=metadata,
    )


# repro: contract decode-entry
def block_payload(image, block_index: int) -> bytes:
    """One block's raw codec bytes, unwrapping the frame when present.

    This is the single access path the block decoders use; on a framed
    image every read re-validates the block's CRC, so a corrupted block
    fails with ``CorruptedStreamError`` instead of decoding to garbage.
    """
    payload = image.blocks[block_index]
    if image.metadata.get("framed"):
        return unwrap_frame(payload)
    return payload


__all__ = [
    "FRAMED_ENV",
    "FRAME_HEADER_BYTES",
    "FRAME_MAGIC",
    "FRAME_OVERHEAD",
    "FRAME_VERSION",
    "block_payload",
    "frame_image",
    "framing_enabled",
    "is_framed",
    "unwrap_frame",
    "wrap_frame",
]
