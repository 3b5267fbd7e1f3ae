"""Shared helpers: statistics, the environment stamp, metric tables.

Every metric the benchmark can print is declared here once, with its
unit.  ``run.py`` checks the printed set against ``BENCHMARK.json`` so a
renamed metric or a changed unit fails loudly instead of silently
starting a new series.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

#: End-to-end metrics: printed by every ``--trace 0`` run, on every
#: workload.  Each workload defines them on its own unit of work (see
#: README.md, "End-to-end metrics").
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "ok_frac": "share",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "ops_s": "1/s",
    "ratio": "ratio",
}

#: Per-layer metrics: printed by every ``--trace 1`` run.  Names follow
#: the module that does the work; README.md maps each row to the
#: end-to-end metric and workload it should move.
PER_LAYER_UNITS: Dict[str, str] = {
    # service.protocol + resilience.frame
    "wire.p50_ms": "ms",
    "frame.ns_per_byte": "ns/B",
    # service.server (trace annex segments and the stats op)
    "server.dispatch.p50_ms": "ms",
    "server.queue_wait.p50_ms": "ms",
    "server.queue_wait.p99_ms": "ms",
    "server.group_assembly.p50_ms": "ms",
    "server.reply.p50_ms": "ms",
    "server.batch_size.mean": "requests",
    "server.grouped_share": "share",
    "server.busy": "count",
    "server.queue_highwater": "requests",
    # service.registry
    "registry.hit_ratio": "share",
    "registry.evictions": "count",
    "registry.train.p50_ms": "ms",
    # service.codecs
    "codec.compress.p50_ms": "ms",
    "codec.decompress.p50_ms": "ms",
    "codec.unexplained.p50_ms": "ms",
    # core.serialize
    "serialize.p50_ms": "ms",
    "deserialize.p50_ms": "ms",
    # core.samc + fastpath.samc_kernel
    "samc.train.ns_per_byte": "ns/B",
    "samc.encode.ns_per_byte": "ns/B",
    "samc.decode_blocks.ns_per_byte": "ns/B",
    "samc.decode_block.p50_us": "us",
    "samc.decode_block.p99_us": "us",
    # core.sadc
    "sadc.build_dictionary.s": "s",
    "sadc.decode.ns_per_byte": "ns/B",
    # baselines + fastpath.{lz,huffman}_kernel
    "lzw.ns_per_byte": "ns/B",
    "gzipish.ns_per_byte": "ns/B",
    "byte_huffman.decode.ns_per_byte": "ns/B",
    # bitstream + entropy.huffman
    "bitstream.read.ns_per_bit": "ns/bit",
    "bitstream.write.ns_per_bit": "ns/bit",
    "huffman.decode.ns_per_symbol": "ns/symbol",
    # memory
    "memory.miss_ratio": "share",
    "memory.clb_hit_ratio": "share",
    "memory.decode_share": "share",
    "memory.model.ns_per_fetch": "ns",
    "memory.cycles_per_fetch": "cycles",
    # pipeline
    "pipeline.job_s.SADC": "s",
    "pipeline.job_s.SAMC": "s",
    "pipeline.job_s.compress": "s",
    "pipeline.job_s.gzip": "s",
    "pipeline.overhead_s": "s",
    "pipeline.efficiency": "share",
    # workloads
    "workloads.generate_s": "s",
    # the benchmark's own instruments
    "generator.lag_p99_ms": "ms",
    "trace.overhead_ms": "ms",
    "serve.compress_p50_ms": "ms",
    "serve.decompress_p50_ms": "ms",
}


# -- host speed ---------------------------------------------------------------

#: Iterations of the reference loop.
REFERENCE_ITERATIONS = 10_000
#: CPU nanoseconds of the reference loop on the reference host (2-vCPU
#: x86 virtual machine, Python 3.11) in its fast state.  Times scaled
#: by ``host_scaled`` read as if the host ran at that speed.
REFERENCE_NS = 2_500_000
_TABLE = list(range(256))


def reference_ns() -> int:
    """CPU nanoseconds of one run of a fixed pure-Python loop.

    The loop touches no code of the program (integer arithmetic, list
    indexing, dict stores: the operations the codecs' Python loops are
    made of), so a change to the program cannot change its time; only
    the host's speed can.
    """
    started = time.thread_time_ns()
    table, seen, acc = _TABLE, {}, 0
    for i in range(REFERENCE_ITERATIONS):
        acc = (acc * 31 + table[(i * 7) & 255]) & 0xFFFFFFFF
        if acc & 1:
            seen[acc & 63] = i
    return time.thread_time_ns() - started


def host_scaled(ns: float, reference: float) -> float:
    """``ns`` measured while the reference loop took ``reference`` ns,
    rescaled to the reference host's speed."""
    return ns * REFERENCE_NS / reference


def timed_on_host(fn):
    """Run ``fn()`` on this thread; returns its value and its CPU
    seconds rescaled by the reference loop run before and after it."""
    before = reference_ns()
    started = time.thread_time_ns()
    value = fn()
    elapsed = time.thread_time_ns() - started
    return value, host_scaled(elapsed, (before + reference_ns()) / 2) / 1e9


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` and ``layers`` map metric name to value, in the units
    declared above; ``detail`` carries sample counts and everything
    else a reader needs to judge the numbers (printed, not compared).
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)
    #: Reasons the run's measurement cannot be trusted (for example the
    #: open-loop generator fell behind its schedule).
    invalid: List[str] = field(default_factory=list)
    #: Programs from the workload's own inputs, for the layer timings.
    corpus: List[bytes] = field(default_factory=list)


# -- environment stamp --------------------------------------------------------

#: Stamp keys that must agree before two results may be compared.  The
#: commit and source digest are what a comparison is *about*, so they
#: are recorded but not required to match.
MACHINE_KEYS = (
    "nproc",
    "cpu_model",
    "python",
    "numpy",
    "REPRO_FASTPATH",
    "REPRO_BATCH_MIN",
    "REPRO_OBS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: Path) -> str:
    """SHA-256 over every ``src/**/*.py`` path and content."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment_stamp(root: Path) -> Dict[str, object]:
    import numpy

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_FASTPATH": os.environ.get("REPRO_FASTPATH", ""),
        "REPRO_BATCH_MIN": os.environ.get("REPRO_BATCH_MIN", ""),
        "REPRO_OBS": os.environ.get("REPRO_OBS", ""),
        "git_commit": _git_commit(root),
        "src_digest": _source_digest(root),
    }


def stamp_mismatches(
    a: Dict[str, object], b: Dict[str, object]
) -> List[str]:
    """Machine-stamp keys on which two results disagree."""
    return [key for key in MACHINE_KEYS if a.get(key) != b.get(key)]
