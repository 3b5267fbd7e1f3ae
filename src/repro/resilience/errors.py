"""Structured corruption errors and the guaranteed-termination guard.

Every decode path in the repo (codecs, serializer, LAT lookups, frame
container) reports malformed input through one exception type:
:class:`CorruptedStreamError`.  It carries *where* the stream broke
(``offset``, in bytes when known) and *how* (``category``), so a refill
engine — or the fuzz driver — can distinguish a truncated payload from a
bad checksum from an impossible symbol.

The decode contract this module anchors is **guaranteed termination**:
for *any* byte string, a decoder either returns output or raises
``CorruptedStreamError`` — no infinite loops, no unbounded allocation,
and no raw ``IndexError``/``KeyError``/``EOFError``/``struct.error``
escaping to the caller.  :class:`decode_guard` is the enforcement
boundary: wrap the body of a decode entry point in it and any low-level
exception raised by malformed input is converted (with the original as
``__cause__``) and counted through :mod:`repro.obs`.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.obs import get_recorder

#: The closed set of corruption categories.
CATEGORY_TRUNCATED = "truncated"   # stream ended before the decoder did
CATEGORY_MAGIC = "magic"           # container/archive magic mismatch
CATEGORY_VERSION = "version"       # unknown format version
CATEGORY_CHECKSUM = "checksum"     # CRC mismatch over frame contents
CATEGORY_SYMBOL = "symbol"         # undecodable code/symbol in the stream
CATEGORY_STRUCTURE = "structure"   # field values inconsistent with format
CATEGORY_BOUNDS = "bounds"         # index/offset outside the valid range
CATEGORY_BUDGET = "budget"         # declared size exceeds allocation budget

CATEGORIES = frozenset({
    CATEGORY_TRUNCATED,
    CATEGORY_MAGIC,
    CATEGORY_VERSION,
    CATEGORY_CHECKSUM,
    CATEGORY_SYMBOL,
    CATEGORY_STRUCTURE,
    CATEGORY_BOUNDS,
    CATEGORY_BUDGET,
})


class CorruptedStreamError(ValueError):
    """Malformed compressed/serialised input, with offset and category.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    sites (and the pre-resilience tests) keep working; new code should
    catch this type and read ``category``/``offset``.
    """

    def __init__(
        self,
        message: str,
        *,
        offset: Optional[int] = None,
        category: str = CATEGORY_STRUCTURE,
    ) -> None:
        super().__init__(message)
        self.offset = offset
        self.category = category if category in CATEGORIES else CATEGORY_STRUCTURE

    def __str__(self) -> str:
        base = super().__str__()
        where = f" at offset {self.offset}" if self.offset is not None else ""
        return f"{base} [{self.category}{where}]"


#: Low-level exception -> corruption category for :class:`decode_guard`,
#: checked in order.  ``struct.error`` derives from ``Exception`` alone,
#: not from ``ValueError``; ``UnicodeDecodeError`` is a ``ValueError``.
_GUARDED = (
    (EOFError, CATEGORY_TRUNCATED),
    (struct.error, CATEGORY_STRUCTURE),
    (IndexError, CATEGORY_BOUNDS),
    (KeyError, CATEGORY_BOUNDS),
    (MemoryError, CATEGORY_BUDGET),
    (OverflowError, CATEGORY_BUDGET),
    (ValueError, CATEGORY_SYMBOL),
)


class decode_guard:
    """Convert low-level decode exceptions into ``CorruptedStreamError``.

    ``where`` names the decode path for the error message and the obs
    counter (``resilience.corruption_detected``).  A
    ``CorruptedStreamError`` raised inside the guard passes through
    unchanged (but is still counted).  A class rather than a generator,
    so that a block that raises nothing costs one small object.
    """

    __slots__ = ("where", "offset")

    def __init__(self, where: str, offset: Optional[int] = None) -> None:
        self.where = where
        self.offset = offset

    def __enter__(self) -> None:
        """Nothing to set up: the guard acts when its block raises."""

    def __exit__(self, exc_type, error, traceback) -> None:
        if exc_type is None:
            return
        if issubclass(exc_type, CorruptedStreamError):
            _count(self.where, error.category)
            return
        for guarded, category in _GUARDED:
            if issubclass(exc_type, guarded):
                _count(self.where, category)
                raise CorruptedStreamError(
                    f"{self.where}: corrupted stream "
                    f"({exc_type.__name__}: {error})",
                    offset=self.offset,
                    category=category,
                ) from error


def require_type(value, kind: type, what: str):
    """``value``, checked to be a ``kind``; otherwise a ``structure``
    :class:`CorruptedStreamError` naming ``what``.

    Decoders read image metadata through it.  A value of the wrong type
    would otherwise fail later as an ``AttributeError`` or
    ``TypeError``, which :class:`decode_guard` leaves alone: inside a
    kernel those are programming errors, not corrupt input.
    """
    if not isinstance(value, kind):
        raise CorruptedStreamError(
            f"{what} is a {type(value).__name__}, not a {kind.__name__}",
            category=CATEGORY_STRUCTURE,
        )
    return value


def _count(where: str, category: str) -> None:
    rec = get_recorder()
    if rec.enabled:
        rec.count("resilience.corruption_detected")
        rec.count(f"resilience.corruption.{category}")


__all__ = [
    "CATEGORIES",
    "CATEGORY_BOUNDS",
    "CATEGORY_BUDGET",
    "CATEGORY_CHECKSUM",
    "CATEGORY_MAGIC",
    "CATEGORY_STRUCTURE",
    "CATEGORY_SYMBOL",
    "CATEGORY_TRUNCATED",
    "CATEGORY_VERSION",
    "CorruptedStreamError",
    "decode_guard",
    "require_type",
]
