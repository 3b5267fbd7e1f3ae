"""Warm-model-registry regressions: trained exactly once, memory bounded.

The registry's whole reason to exist is amortisation — the SAMC
training pass must run once per distinct input, not once per request —
and boundedness — a daemon serving arbitrary inputs must not grow its
model cache without limit.  Both properties are asserted two ways: on
the registry directly (through :mod:`repro.obs` counters), and through
the wire via the ``stats`` endpoint of a live daemon.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.samc import SamcCodec
from repro.obs import Recorder, use_recorder
from repro.service import (
    ServerThread,
    ServiceClient,
    ServiceConfig,
    WarmModelRegistry,
)


class TestRegistryUnit:
    def test_trained_exactly_once_across_requests(self, mips_program):
        registry = WarmModelRegistry()
        codec = SamcCodec.for_bytes()
        with use_recorder(Recorder()) as rec:
            models = [
                registry.model_for("samc-bytes", codec, mips_program)
                for _ in range(10)
            ]
            counters = rec.snapshot()["counters"]
        assert counters["service.registry.train"] == 1
        assert counters["service.registry.hit"] == 9
        # Every request got the very same model object, which is
        # immutable: its tables are read-only.
        assert all(model is models[0] for model in models)
        assert not any(table.flags.writeable for table in models[0].tables)

    def test_trained_exactly_once_under_concurrency(self, mips_program):
        registry = WarmModelRegistry()
        codec = SamcCodec.for_bytes()
        results = []
        with use_recorder(Recorder()) as rec:
            def fetch() -> None:
                results.append(
                    registry.model_for("samc-bytes", codec, mips_program)
                )

            threads = [threading.Thread(target=fetch) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            counters = rec.snapshot()["counters"]
        assert counters["service.registry.train"] == 1
        assert len(results) == 8
        assert all(model is results[0] for model in results)

    def test_distinct_inputs_train_distinct_models(self, mips_program):
        registry = WarmModelRegistry()
        codec = SamcCodec.for_bytes()
        a = registry.model_for("samc-bytes", codec, mips_program)
        b = registry.model_for("samc-bytes", codec, mips_program[:512])
        assert a is not b
        assert registry.stats()["trained"] == 2

    def test_codec_name_is_part_of_the_key(self, mips_program):
        registry = WarmModelRegistry()
        a = registry.model_for(
            "samc-mips", SamcCodec.for_mips(), mips_program
        )
        b = registry.model_for(
            "samc-bytes", SamcCodec.for_bytes(), mips_program
        )
        assert a is not b

    def test_eviction_keeps_memory_bounded(self, mips_program):
        registry = WarmModelRegistry(max_entries=4)
        codec = SamcCodec.for_bytes()
        with use_recorder(Recorder()) as rec:
            for index in range(12):
                payload = bytes([index]) * 8 + mips_program[:256]
                registry.model_for("samc-bytes", codec, payload)
            counters = rec.snapshot()["counters"]
        stats = registry.stats()
        assert len(registry) == 4
        assert stats["entries"] == 4
        assert stats["trained"] == 12
        assert stats["evictions"] == 8
        assert counters["service.registry.evict"] == 8

    def test_lru_evicts_the_coldest(self, mips_program):
        registry = WarmModelRegistry(max_entries=2)
        codec = SamcCodec.for_bytes()
        a, b, c = (
            bytes([mark]) * 4 + mips_program[:256] for mark in (1, 2, 3)
        )
        model_a = registry.model_for("samc-bytes", codec, a)
        registry.model_for("samc-bytes", codec, b)
        # Touch `a` so `b` is now coldest; inserting `c` must evict `b`.
        assert registry.model_for("samc-bytes", codec, a) is model_a
        registry.model_for("samc-bytes", codec, c)
        assert registry.model_for("samc-bytes", codec, a) is model_a
        assert registry.stats()["trained"] == 3  # a, b, c — never a again

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            WarmModelRegistry(max_entries=0)


class TestRegistryThroughTheWire:
    def test_n_requests_one_training_pass(self, mips_program):
        with ServerThread(ServiceConfig(port=0)) as address:
            with ServiceClient(*address) as client:
                blobs = [
                    client.compress("samc-bytes", mips_program[:1024])
                    for _ in range(6)
                ]
                registry = client.stats()["registry"]
        # Identical input, identical archive — and one training pass.
        assert len(set(blobs)) == 1
        assert registry["trained"] == 1
        assert registry["hits"] == 5

    def test_wire_eviction_bound(self, mips_program):
        config = ServiceConfig(port=0, registry_entries=3)
        with ServerThread(config) as address:
            with ServiceClient(*address) as client:
                for index in range(7):
                    payload = bytes([index]) * 4 + mips_program[:512]
                    client.compress("samc-bytes", payload)
                registry = client.stats()["registry"]
        assert registry["entries"] == 3
        assert registry["max_entries"] == 3
        assert registry["trained"] == 7
        assert registry["evictions"] == 4
