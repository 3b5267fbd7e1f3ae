"""Hot-path codec kernels (the performance layer).

Every codec runs one production path, and for SAMC, LZSS, LZW and the
byte-Huffman batch decoder that path is a kernel in this package:
table-compiled, batch-oriented forms of the algorithms that are
**bit-identical by construction and by test** to the clarity-first
reference coders kept in ``tests/oracles.py``:

* :mod:`repro.fastpath.samc_kernel` — compiles a frozen
  :class:`~repro.core.samc.model.SamcModel` into flat integer tables,
  vectorises training with :func:`numpy.bincount`, and fuses the Markov
  walk with the range coder into single tight loops.
* :mod:`repro.fastpath.lz_kernel` — memoryview/chunked match extension
  for LZSS and integer-keyed dictionary lookups for LZW.
* :mod:`repro.fastpath.huffman_kernel` — decodes a batch of
  byte-Huffman blocks in lockstep on the code's own decode table
  (:func:`repro.entropy.huffman.decode_table`), and hands a batch it
  cannot decode to the one scalar decoder,
  :class:`~repro.entropy.huffman.HuffmanDecoder`.

The reference coders are the oracle: golden-vector and hypothesis
differential tests call them directly and pin the kernels to byte
equality with them.

``FASTPATH_VERSION`` tags the pipeline's codec-config fingerprints
(:mod:`repro.pipeline.fingerprint`): bump it if a kernel change could
ever alter coded output, so cached results from older kernels are
orphaned rather than served.
"""

from __future__ import annotations

#: Version of the fastpath kernels, folded into pipeline fingerprints.
#: The kernels are bit-identical to the reference today, so this only
#: needs bumping if that ever stops being true — but the tag means a
#: stale cache can never silently mix kernel generations.
FASTPATH_VERSION = 1


__all__ = ["FASTPATH_VERSION"]
