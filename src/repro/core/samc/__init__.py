"""SAMC — Semiadaptive Markov Compression (ISA-independent, Section 3)."""

from repro.core.samc.codec import SamcCodec, samc_compress, samc_decompress
from repro.core.samc.model import SamcModel, node_index
from repro.core.samc.streams import (
    contiguous_streams,
    correlation_streams,
    optimize_streams,
    total_model_entropy,
)
from repro.fastpath.samc_kernel import StreamSpec

__all__ = [
    "SamcCodec",
    "SamcModel",
    "StreamSpec",
    "contiguous_streams",
    "correlation_streams",
    "node_index",
    "optimize_streams",
    "samc_compress",
    "samc_decompress",
    "total_model_entropy",
]
