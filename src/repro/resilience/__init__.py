"""Resilience layer: hardened decode, integrity framing, fault injection.

The refill path of a compressed-code memory must never hang or crash on
a corrupted block — it has to fail fast with a diagnosable error.  This
package supplies the three pieces the rest of the repo builds on:

* :mod:`repro.resilience.errors` — :class:`CorruptedStreamError` (offset
  + category) and :class:`decode_guard`, the guaranteed-termination
  boundary every decoder wraps its body in.
* :mod:`repro.resilience.frame` — the opt-in ``RF01`` CRC-32 container
  (``REPRO_FRAMED=1``) for serialised archives and per-block payloads;
  the only way to *detect* corruption a statistical decoder would
  silently absorb.
* :mod:`repro.resilience.inject` / :mod:`repro.resilience.fuzz` — seeded
  fault injectors and the deterministic ``python -m repro fuzz`` driver
  that pins the contract (kept import-light; ``fuzz`` loads the codec
  stack lazily).
"""

from repro.resilience.errors import CorruptedStreamError, decode_guard
from repro.resilience.frame import (
    FRAME_OVERHEAD,
    block_payload,
    frame_image,
    framing_enabled,
    is_framed,
    unwrap_frame,
    wrap_frame,
)

__all__ = [
    "CorruptedStreamError",
    "FRAME_OVERHEAD",
    "block_payload",
    "decode_guard",
    "frame_image",
    "framing_enabled",
    "is_framed",
    "unwrap_frame",
    "wrap_frame",
]
