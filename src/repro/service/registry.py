"""The warm model registry: train SAMC once, serve it forever.

SAMC is a two-pass codec — a training pass builds the per-stream Markov
tables, then the encode pass walks them.  In the batch pipeline that is
fine (each program is compressed once); in a service it is a disaster:
training dominates the request, and every request for the same program
would redo it.  The registry closes that gap.  Models are keyed by
``(codec name, SHA-256 of the training bytes)`` — the same
content-addressing the pipeline's result cache uses — trained **exactly
once** per key and shared by every subsequent request.
:class:`~repro.core.samc.model.SamcModel` objects are immutable (frozen
by construction, with read-only tables), so one model can serve
concurrent encodes from the executor's worker threads without locking.

Memory stays bounded by LRU eviction: at most ``max_entries`` models are
resident, and every hit/train/eviction is counted through
:mod:`repro.obs` (``service.registry.*``), which is how the regression
tests prove the trained-exactly-once and bounded-memory properties.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Tuple

from repro.core.samc.codec import SamcCodec
from repro.core.samc.model import SamcModel
from repro.obs import get_recorder
from repro.obs.trace import trace_annotate

#: Default resident-model bound; one SAMC model is a few tens of KB.
DEFAULT_MAX_ENTRIES = 32


class WarmModelRegistry:
    """Content-addressed cache of trained, frozen SAMC models."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("registry needs room for at least one model")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._models: "OrderedDict[Tuple[str, str], SamcModel]" = OrderedDict()
        self._trained = 0
        self._hits = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def model_for(
        self, codec_name: str, codec: SamcCodec, code: bytes
    ) -> SamcModel:
        """The frozen model for ``code`` under ``codec`` — cached.

        Training runs under the registry lock, so two concurrent
        requests for the same bytes cannot both pay the training pass:
        the second blocks briefly and receives the first's model.
        """
        digest = hashlib.sha256(code).hexdigest()
        key = (codec_name, digest)
        rec = get_recorder()
        with self._lock:
            model = self._models.get(key)
            if model is not None:
                self._models.move_to_end(key)
                self._hits += 1
                rec.count("service.registry.hit")
                trace_annotate(
                    "registry", outcome="hit", digest=digest[:12]
                )
                return model
            with rec.span("service.registry.train", codec=codec_name):
                model = codec.train(code)
            trace_annotate(
                "registry", outcome="train", digest=digest[:12]
            )
            self._models[key] = model
            self._trained += 1
            rec.count("service.registry.train")
            rec.gauge("service.registry.entries", len(self._models))
            while len(self._models) > self.max_entries:
                self._models.popitem(last=False)
                self._evictions += 1
                rec.count("service.registry.evict")
            return model

    def stats(self) -> Dict[str, int]:
        """Counters for the ``stats`` endpoint and the regression tests."""
        with self._lock:
            return {
                "entries": len(self._models),
                "max_entries": self.max_entries,
                "trained": self._trained,
                "hits": self._hits,
                "evictions": self._evictions,
            }


__all__ = ["DEFAULT_MAX_ENTRIES", "WarmModelRegistry"]
