"""The per-layer ledger of a traced run (``--trace 1``).

Three sources, all outside ``src/``:

* **The serve trace.**  Every traced reply carries the daemon's exact
  segment timeline (``dispatch``, ``queue_wait``, ``group_assembly``,
  ``codec``, ``reply``).  The client's service time (actual send to
  reply) minus the server total is ``wire``: framing, socket and
  event-loop time on both sides.  ``wire`` is a remainder, so what is
  checked per request is that the segments sum to the server total and
  that the total fits within the client's service time.  The ``stats``
  op, read before and after the traced phase, gives batching, busy and
  registry counters.
* **In-process re-timing.**  The codec work of each distinct traced
  payload is repeated in this process through the same public functions
  the daemon's adapters call (train, encode, serialize; deserialize,
  decode).  Its sum is compared with the ``codec`` segment; the
  remainder, mostly executor threads waiting on each other for the
  interpreter lock, is ``codec.unexplained``.  A median remainder
  above ``CODEC_TOLERANCE`` of the median ``codec`` segment makes the
  run invalid.
* **Layer timings** of each layer's public functions on the workload's
  own programs (``corpus``).

Each row has one producer.  A traced run of one workload fills the
rows it exercises itself; the rows of layers it bypasses come from a
short traced probe of the workload that owns them (same seed), so
every traced run prints the whole ledger.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

from common import Outcome, median, quantile

from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.baselines.gzipish import gzipish_compress, gzipish_decompress
from repro.baselines.lzw import lzw_compress, lzw_decompress
from repro.bitstream.io import BitReader, BitWriter
from repro.core import decompress_image
from repro.core.sadc import MipsSadcCodec
from repro.core.samc import SamcCodec
from repro.core.serialize import deserialize_image, serialize_image
from repro.entropy.huffman import HuffmanDecoder, HuffmanEncoder, build_code
from repro.resilience.frame import unwrap_frame, wrap_frame
from repro.service.protocol import OP_COMPRESS

#: The codec segment reconciles with the in-process re-timing when the
#: median unexplained remainder is at most this share of the median
#: codec segment.
CODEC_TOLERANCE = 0.5
#: Seconds of each phase when serve is only a probe for another
#: workload's traced run.
PROBE_SECONDS = 3.0
#: Repeats of each in-process timing; the median is kept.
REPEATS = 3


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def _median_parts(fn, repeats: int = REPEATS) -> Tuple[float, ...]:
    """Per-part medians of ``fn() -> tuple of seconds`` over repeats."""
    samples = [fn() for _ in range(repeats)]
    return tuple(median(column) for column in zip(*samples))


# -- serve: trace annex, stats op, in-process codec work ---------------------

def compress_parts(code: bytes) -> Tuple[float, float, float]:
    """Seconds of (train, encode, serialize) on the samc-mips write path."""
    codec = SamcCodec.for_mips()
    model, train = _timed(lambda: codec.train(code))
    image, encode = _timed(lambda: codec.compress_with_model(code, model))
    _, serialize = _timed(lambda: serialize_image(image, framed=False))
    return train, encode, serialize


def decompress_parts(archive: bytes) -> Tuple[float, float]:
    """Seconds of (deserialize, decode) on the archive read path."""
    image, deserialize = _timed(lambda: deserialize_image(archive))
    _, decode = _timed(lambda: decompress_image(image))
    return deserialize, decode


def _delta(after: dict, before: dict, name: str) -> int:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def _codec_requests(stats: dict) -> int:
    return sum(
        value for name, value in stats["counters"].items()
        if name.startswith("service.codec.")
    )


async def serve_ledger(session, outcome: Outcome, seconds: float) -> None:
    """Untraced then traced phases at the base rate; fills serve rows."""
    from openloop import server_stats
    from serve import BASE_RPS, MAX_LAG_P99_MS, latency_summary

    phase_s = max(PROBE_SECONDS, 0.5 * seconds)
    untraced = await session.phase("base_untraced", BASE_RPS, phase_s)
    before = await server_stats("127.0.0.1", session.port)
    traced = await session.phase("base_traced", BASE_RPS, phase_s, traced=True)
    after = await server_stats("127.0.0.1", session.port)

    plain, with_trace = latency_summary(untraced), latency_summary(traced)
    outcome.detail["base_untraced"] = plain
    outcome.detail["base_traced"] = with_trace
    layers = outcome.layers
    layers["trace.overhead_ms"] = (
        with_trace["all"]["p50_ms"] - plain["all"]["p50_ms"]
    )
    layers["serve.compress_p50_ms"] = plain["compress"]["p50_ms"]
    layers["serve.decompress_p50_ms"] = plain["decompress"]["p50_ms"]
    layers["generator.lag_p99_ms"] = quantile(
        [r.lag_ms for r in untraced + traced], 0.99
    )
    if layers["generator.lag_p99_ms"] > MAX_LAG_P99_MS:
        outcome.invalid.append("the load generator fell behind its schedule")

    segments: Dict[str, List[float]] = {}
    wire: List[float] = []
    broken = 0
    timeline = []
    for record in traced:
        annex = record.response.trace() if record.ok else None
        if annex is None:
            continue
        durations = {s["name"]: s["dur_ns"] for s in annex["segments"]}
        if sum(durations.values()) != annex["total_ns"] or (
            annex["total_ns"] > record.done_ns - record.sent_ns
        ):
            broken += 1
        wire.append(record.service_ms - annex["total_ns"] / 1e6)
        for name, dur in durations.items():
            segments.setdefault(name, []).append(dur / 1e6)
        trained = any(
            note.get("name") == "registry" and note.get("outcome") == "train"
            for note in annex.get("annotations", [])
        )
        timeline.append((record, durations.get("codec", 0) / 1e6, trained))

    for name in ("dispatch", "group_assembly", "reply"):
        layers[f"server.{name}.p50_ms"] = quantile(segments[name], 0.5)
    layers["server.queue_wait.p50_ms"] = quantile(segments["queue_wait"], 0.5)
    layers["server.queue_wait.p99_ms"] = quantile(segments["queue_wait"], 0.99)
    layers["wire.p50_ms"] = quantile(wire, 0.5)

    # In-process re-timing of each distinct payload's codec work.
    compress_keys = {
        r.planned.key: r.planned.payload
        for r, _, _ in timeline if r.planned.op == OP_COMPRESS
    }
    decompress_keys = {
        r.planned.key: r.planned.payload
        for r, _, _ in timeline if r.planned.op != OP_COMPRESS
    }
    writes = {
        key: _median_parts(lambda code=code: compress_parts(code))
        for key, code in compress_keys.items()
    }
    reads = {
        key: _median_parts(lambda archive=archive: decompress_parts(archive))
        for key, archive in decompress_keys.items()
    }
    unexplained, codec_ms = [], {"compress": [], "decompress": []}
    for record, codec, trained in timeline:
        key = record.planned.key
        if record.planned.op == OP_COMPRESS:
            train, encode, serialize = writes[key]
            expected = (train if trained else 0.0) + encode + serialize
            codec_ms["compress"].append(codec)
        else:
            expected = sum(reads[key])
            codec_ms["decompress"].append(codec)
        unexplained.append(codec - expected * 1e3)
    layers["codec.compress.p50_ms"] = quantile(codec_ms["compress"], 0.5)
    layers["codec.decompress.p50_ms"] = quantile(codec_ms["decompress"], 0.5)
    layers["codec.unexplained.p50_ms"] = quantile(unexplained, 0.5)
    layers["registry.train.p50_ms"] = quantile(
        [parts[0] * 1e3 for parts in writes.values()], 0.5
    )
    layers["serialize.p50_ms"] = quantile(
        [parts[2] * 1e3 for parts in writes.values()], 0.5
    )
    layers["deserialize.p50_ms"] = quantile(
        [parts[0] * 1e3 for parts in reads.values()], 0.5
    )

    batches = _delta(after, before, "service.batches")
    grouped = _delta(after, before, "service.batch_grouped")
    singles = _delta(after, before, "service.batch_singleton")
    hits = after["registry"]["hits"] - before["registry"]["hits"]
    trained_n = after["registry"]["trained"] - before["registry"]["trained"]
    layers.update({
        "server.batch_size.mean":
            (_codec_requests(after) - _codec_requests(before)) / max(1, batches),
        "server.grouped_share": grouped / max(1, grouped + singles),
        "server.busy": _delta(after, before, "service.busy.queue")
        + _delta(after, before, "service.busy.connection"),
        "server.queue_highwater": after["queue"]["depth_highwater"],
        "registry.hit_ratio": hits / max(1, hits + trained_n),
        "registry.evictions":
            after["registry"]["evictions"] - before["registry"]["evictions"],
    })
    codec_p50 = quantile(codec_ms["compress"] + codec_ms["decompress"], 0.5)
    share = layers["codec.unexplained.p50_ms"] / codec_p50
    reconciled = abs(share) <= CODEC_TOLERANCE
    outcome.detail["reconcile"] = {
        "traced_requests": len(timeline),
        "server_total_within_service_time": broken == 0,
        "violations": broken,
        "codec_tolerance_share": CODEC_TOLERANCE,
        "codec_unexplained_share": share,
        "codec_reconciled": reconciled,
    }
    if broken:
        outcome.invalid.append(
            f"{broken} traced requests do not reconcile with client time"
        )
    if not reconciled:
        outcome.invalid.append(
            f"codec segment does not reconcile with the in-process re-timing: "
            f"unexplained p50 is {share:.0%} of codec p50, tolerance "
            f"{CODEC_TOLERANCE:.0%}"
        )


# -- layer timings on the workload's programs --------------------------------

def _per_byte(fn, nbytes: int) -> float:
    return median([_timed(fn)[1] for _ in range(REPEATS)]) * 1e9 / nbytes


def layer_timings(corpus: List[bytes]) -> Tuple[Dict[str, float], int]:
    """ns/byte-style rows for every codec layer; returns (rows, wrong)."""
    total = sum(map(len, corpus))
    rows: Dict[str, float] = {}
    wrong = 0

    samc = SamcCodec.for_mips()
    models = [samc.train(code) for code in corpus]
    images = [samc.compress_with_model(c, m) for c, m in zip(corpus, models)]
    rows["samc.train.ns_per_byte"] = _per_byte(
        lambda: [samc.train(code) for code in corpus], total
    )
    rows["samc.encode.ns_per_byte"] = _per_byte(
        lambda: [samc.compress_with_model(c, m) for c, m in zip(corpus, models)],
        total,
    )
    rows["samc.decode_blocks.ns_per_byte"] = _per_byte(
        lambda: [samc.decompress_blocks(i, range(i.block_count())) for i in images],
        total,
    )
    wrong += sum(samc.decompress(i) != c for i, c in zip(images, corpus))

    sadc = MipsSadcCodec()
    rows["sadc.build_dictionary.s"] = _timed(
        lambda: sadc.build_static_dictionary(corpus)
    )[1]
    sadc_images = [sadc.compress(code) for code in corpus]
    rows["sadc.decode.ns_per_byte"] = _per_byte(
        lambda: [sadc.decompress(i) for i in sadc_images], total
    )
    wrong += sum(sadc.decompress(i) != c for i, c in zip(sadc_images, corpus))

    rows["lzw.ns_per_byte"] = _per_byte(
        lambda: [lzw_compress(code) for code in corpus], total
    )
    wrong += sum(lzw_decompress(lzw_compress(c)) != c for c in corpus)
    rows["gzipish.ns_per_byte"] = _per_byte(
        lambda: [gzipish_compress(code) for code in corpus], total
    )
    wrong += sum(gzipish_decompress(gzipish_compress(c)) != c for c in corpus)
    huffman = ByteHuffmanCodec()
    huffman_images = [huffman.compress(code) for code in corpus]
    rows["byte_huffman.decode.ns_per_byte"] = _per_byte(
        lambda: [huffman.decompress(i) for i in huffman_images], total
    )
    wrong += sum(
        huffman.decompress(i) != c for i, c in zip(huffman_images, corpus)
    )

    words = [
        int.from_bytes(code[i:i + 4], "big")
        for code in corpus for i in range(0, len(code) - 3, 4)
    ]

    def write_words():
        writer = BitWriter()
        for word in words:
            writer.write_bits(word, 32)
        return writer.getvalue()

    packed = write_words()

    def read_words():
        reader = BitReader(packed)
        return [reader.read_bits(32) for _ in words]

    bits = 32 * len(words)
    rows["bitstream.write.ns_per_bit"] = _per_byte(write_words, bits)
    rows["bitstream.read.ns_per_bit"] = _per_byte(read_words, bits)
    wrong += read_words() != words

    symbols = [byte for code in corpus for byte in code]
    code_table = build_code(Counter(symbols))
    encoded = HuffmanEncoder(code_table).encode(symbols)
    decoder = HuffmanDecoder(code_table)
    rows["huffman.decode.ns_per_symbol"] = _per_byte(
        lambda: decoder.decode(encoded, len(symbols)), len(symbols)
    )
    wrong += decoder.decode(encoded, len(symbols)) != symbols

    frames = b"".join(corpus)
    rows["frame.ns_per_byte"] = _per_byte(
        lambda: unwrap_frame(wrap_frame(frames)), len(frames)
    )
    wrong += unwrap_frame(wrap_frame(frames)) != frames
    return rows, int(wrong)


# -- completing a traced run --------------------------------------------------

#: Which workload owns which rows, for the probes.
OWNERS = {
    "serve": ("server.", "registry.", "codec.", "wire.", "generator.",
              "trace.", "serve.", "serialize.", "deserialize."),
    "refill": ("memory.", "samc.decode_block."),
    "sweep": ("pipeline.",),
}

#: Programs fed to the layer timings: enough for stable per-byte rows,
#: few enough that the SADC dictionary build stays near a second.
CORPUS_BYTES = 12 * 1024


def corpus_slice(programs: List[bytes]) -> List[bytes]:
    """Programs in order up to ``CORPUS_BYTES``; the last one is cut to fit."""
    picked, total = [], 0
    for code in programs:
        if total >= CORPUS_BYTES:
            break
        take = code[: (CORPUS_BYTES - total) // 4 * 4]
        picked.append(take)
        total += len(take)
    return picked


def complete_ledger(outcome: Outcome, workload: str, root: Path, seed: int) -> None:
    """Fill every per-layer row the workload itself did not produce."""
    rows, wrong = layer_timings(corpus_slice(outcome.corpus))
    outcome.failed += wrong
    outcome.attempted += len(rows)
    for name, value in rows.items():
        outcome.layers.setdefault(name, value)
    probes = {}
    for owner, prefixes in OWNERS.items():
        if owner == workload:
            continue
        probe = importlib.import_module(owner).run(root, seed, PROBE_SECONDS, True)
        probes[owner] = {
            "attempted": probe.attempted, "failed": probe.failed,
            "reconcile": probe.detail.get("reconcile"),
        }
        outcome.failed += probe.failed
        outcome.attempted += probe.attempted
        outcome.invalid.extend(probe.invalid)
        for name, value in probe.layers.items():
            if name.startswith(prefixes):
                outcome.layers.setdefault(name, value)
    outcome.detail["probes"] = probes
