"""Content-addressed job fingerprints.

A pipeline job is "compress *this exact code image* under *this exact
codec configuration*" — so its cache identity is the SHA-256 of the code
bytes combined with a canonical (sorted-key, whitespace-free JSON)
rendering of the configuration.  Two processes computing the fingerprint
of the same job must agree bit-for-bit, which is why nothing here uses
``hash()`` (randomised per process), dict iteration order of caller
input, or float repr shortcuts: every value is normalised first.

``CODEC_SCHEMA_VERSION`` is folded into every fingerprint; bump it
whenever any codec's output format or accounting changes so stale disk
caches invalidate themselves instead of serving wrong ratios.  So is
:data:`repro.fastpath.FASTPATH_VERSION`, the coder-kernel generation —
the guard that a disk cache written before a kernel optimisation can
never be served against a kernel that codes differently.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.fastpath import FASTPATH_VERSION

#: Version of the codec outputs covered by cached results.  Part of every
#: fingerprint: bumping it orphans (never corrupts) old disk entries.
CODEC_SCHEMA_VERSION = 1


def _normalise(value: Any) -> Any:
    """Make a config value JSON-canonical (tuples→lists, ints stay ints)."""
    if isinstance(value, tuple):
        return [_normalise(v) for v in value]
    if isinstance(value, (list,)):
        return [_normalise(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _normalise(v) for k, v in value.items()}
    if isinstance(value, float) and value.is_integer():
        # 2.0 and 2 must fingerprint identically: callers pass scales as
        # either, and json renders them differently ("2.0" vs "2").
        return int(value)
    return value


# repro: contract determinism-sink
def canonical_config(
    algorithm: str,
    isa: str,
    block_size: int,
    extra: Optional[Dict[str, Any]] = None,
) -> str:
    """Canonical JSON fingerprint text for one codec configuration."""
    config: Dict[str, Any] = {
        "schema": CODEC_SCHEMA_VERSION,
        # The coder-kernel generation that produced (or would produce)
        # the result.  If a kernel revision ever changed coded output,
        # bumping FASTPATH_VERSION orphans every pre-revision cache
        # entry instead of serving stale payload sizes.
        "fastpath_version": FASTPATH_VERSION,
        "algorithm": algorithm,
        "isa": isa,
        "block_size": block_size,
    }
    if extra:
        config.update(_normalise(extra))
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


# repro: contract determinism-sink
def code_digest(code: bytes) -> str:
    """SHA-256 hex digest of a code image."""
    return hashlib.sha256(code).hexdigest()


# repro: contract determinism-sink
def job_fingerprint(
    code: bytes,
    algorithm: str,
    isa: str,
    block_size: int,
    extra: Optional[Dict[str, Any]] = None,
) -> str:
    """Content-addressed identity of one (code image, codec config) job."""
    hasher = hashlib.sha256()
    hasher.update(code_digest(code).encode("ascii"))
    hasher.update(b"\x00")
    hasher.update(canonical_config(algorithm, isa, block_size, extra).encode("utf-8"))
    return hasher.hexdigest()
