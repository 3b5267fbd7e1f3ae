"""The ``serve`` workload: an open loop against a ``python -m repro serve``.

One process, one event loop, ``nproc`` pipelined connections to a daemon
started as a subprocess with its default configuration.  The traffic
mix (README.md, "serve") is about 30% ``samc-mips`` compress requests
drawn from a pool of programs three times larger than the warm model
registry, and about 70% decompress requests drawn Zipf-weighted from a
small hot set of ``samc-mips``, ``sadc-mips`` and ``byte-huffman``
archives.

End-to-end numbers come from an untraced run: latency at one fixed base
rate, then a fixed rate ladder for the highest sustainable rate.  A
traced run repeats the base rate untraced and traced, reads each
reply's trace annex and the daemon's ``stats`` op, and re-times the
codec work in-process on the same payloads to build the layer ledger.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from common import Outcome, median, nproc, quantile
from openloop import Planned, Record, call, poisson_schedule, run_open_loop

from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.core import decompress_image
from repro.core.sadc import MipsSadcCodec
from repro.core.samc import SamcCodec
from repro.core.serialize import deserialize_image, serialize_image
from repro.service.protocol import OP_COMPRESS, OP_DECOMPRESS, OP_HEALTH
from repro.service.registry import DEFAULT_MAX_ENTRIES
from repro.workloads.profiles import BENCHMARK_NAMES
from repro.workloads.suite import generate_benchmark

#: Share of requests that are compress ("writes").
COMPRESS_SHARE = 0.3
#: Distinct compress inputs: three times the registry's resident-model
#: bound, so with uniform draws the LRU registry hits about a third of
#: the time and most compress requests pay the SAMC training pass.
POOL_SIZE = 3 * DEFAULT_MAX_ENTRIES
POOL_SCALE = 0.05
#: Decompress hot set in Zipf rank order: (wire codec, benchmark, scale).
#: The two gcc SAMC archives sit either side of the 96-block
#: ``DEFAULT_BATCH_MIN`` (about 60 and 114 blocks of 32 bytes), so reads
#: exercise both the fused scalar decoder and the lockstep batch kernel.
HOT_SET = (
    ("samc-mips", "gcc", 0.05),
    ("byte-huffman", "perl", 0.05),
    ("sadc-mips", "vortex", 0.05),
    ("samc-mips", "gcc", 0.1),
    ("byte-huffman", "gcc", 0.1),
    ("samc-mips", "go", 0.1),
    ("sadc-mips", "swim", 0.1),
)
#: Zipf exponent of the hot set: rank 1 draws 2.6x the mean share.
ZIPF_S = 1.0
#: The hot set is the same seven archives for every seed: read latency
#: is dominated by which archives are hot, so a seed-dependent hot set
#: would move the median between seeds for reasons no change to the
#: program caused.  Seeds vary the arrival times, the draws, and the
#: compress pool.
HOT_SET_SEED = 0

#: Fixed base rate for latency (requests/s): on a 2-CPU x86 host, a
#: third of the seed commit's ``max_rps`` and about half the rate at
#: which its p99 starts to climb.
BASE_RPS = 45.0
#: Rate ladder for ``max_rps``: BASE_RPS * LADDER_STEP**k, k = 1..RUNGS.
#: The top rung (about 300 rps) is three times what the seed commit
#: sustains, so a much faster program still finds its limit on it.
LADDER_STEP = 1.1
LADDER_RUNGS = 20
RUNG_SECONDS = 3.0
#: A ladder rung passes when every reply is OK, its p99 response time
#: (from scheduled send) is under this limit, and the backlog is not
#: growing (last-third median within LIMIT/2 of the first third's).
#: Below saturation the seed's p99 wanders between 60 and 250 ms as
#: the rate rises (the daemon groups identical queued requests, so
#: load buys some capacity); 300 ms sits where p99 climbs steeply with
#: rate, which makes the rate that meets it a repeatable figure.
LIMIT_P99_MS = 300.0
#: Untraced warm-up before anything is measured: fills the registry and
#: the daemon's lazily built tables.
WARMUP_SECONDS = 1.5
#: The generator is behind schedule when its send lag p99 exceeds this.
MAX_LAG_P99_MS = 20.0
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


@dataclass
class Mix:
    """The generated inputs of one seed."""

    pool: List[bytes]
    #: key -> (wire codec, archive bytes, original bytes)
    hot: List[Tuple[str, bytes, bytes]]
    generate_s: float = 0.0
    originals: Dict[str, bytes] = field(default_factory=dict)


def build_mix(seed: int) -> Mix:
    started = time.perf_counter()
    pool = [
        generate_benchmark(
            BENCHMARK_NAMES[index % len(BENCHMARK_NAMES)], "mips",
            POOL_SCALE, seed * 1000 + index,
        ).code
        for index in range(POOL_SIZE)
    ]
    hot_programs = [
        generate_benchmark(name, "mips", scale, HOT_SET_SEED).code
        for _codec, name, scale in HOT_SET
    ]
    generate_s = time.perf_counter() - started
    if len(set(pool)) != len(pool):
        raise RuntimeError("compress pool programs are not distinct")
    encoders = {
        "samc-mips": SamcCodec.for_mips().compress,
        "sadc-mips": MipsSadcCodec().compress,
        "byte-huffman": ByteHuffmanCodec().compress,
    }
    hot = [
        (codec, serialize_image(encoders[codec](code), framed=False), code)
        for (codec, _name, _scale), code in zip(HOT_SET, hot_programs)
    ]
    mix = Mix(pool=pool, hot=hot, generate_s=generate_s)
    for index, code in enumerate(pool):
        mix.originals[f"pool:{index}"] = code
    for index, (_codec, _archive, code) in enumerate(hot):
        mix.originals[f"hot:{index}"] = code
    return mix


def make_plan(
    mix: Mix, rng: random.Random, rate: float, duration: float
) -> List[Planned]:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(mix.hot))]
    plan = []
    for at in poisson_schedule(rng, rate, duration):
        if rng.random() < COMPRESS_SHARE:
            index = rng.randrange(len(mix.pool))
            plan.append(Planned(
                at, OP_COMPRESS, "samc-mips", mix.pool[index], f"pool:{index}"
            ))
        else:
            index = rng.choices(range(len(mix.hot)), weights)[0]
            codec, archive, _code = mix.hot[index]
            plan.append(Planned(
                at, OP_DECOMPRESS, codec, archive, f"hot:{index}"
            ))
    return plan


# -- the daemon ---------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Daemon:
    """A ``python -m repro serve`` subprocess on a free local port."""

    def __init__(self, root: Path) -> None:
        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(self.port)],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    async def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode} at start"
                )
            try:
                if (await call("127.0.0.1", self.port, OP_HEALTH, 5.0)).ok:
                    return
            except (OSError, asyncio.TimeoutError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon not healthy in time")
            await asyncio.sleep(0.02)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


async def set_up(root: Path, seed: int) -> Tuple[Mix, Daemon, float]:
    """Generate the inputs and start a healthy daemon; timed."""
    started = time.perf_counter()
    mix = build_mix(seed)
    daemon = Daemon(root)
    try:
        await daemon.wait_healthy()
    except BaseException:
        daemon.stop()
        raise
    return mix, daemon, time.perf_counter() - started


# -- phases and verification --------------------------------------------------

class Session:
    """One daemon, a request-id counter, and every record sent to it."""

    def __init__(self, mix: Mix, port: int, seed: int) -> None:
        self.mix = mix
        self.port = port
        self.seed = seed
        self.next_id = 1
        self.connections = nproc()
        self.phases: Dict[str, List[Record]] = {}

    async def phase(
        self, name: str, rate: float, duration: float, traced: bool = False
    ) -> List[Record]:
        """Run one open-loop phase; its arrivals and payloads follow from
        the seed and the phase name."""
        rng = random.Random(f"serve:{self.seed}:{name}")
        plan = make_plan(self.mix, rng, rate, duration)
        records = await run_open_loop(
            "127.0.0.1", self.port, plan, self.connections,
            first_id=self.next_id, traced=traced,
        )
        self.next_id += len(plan)
        self.phases[name] = records
        return records


def verify(mix: Mix, records: List[Record]) -> Tuple[int, Dict[str, bytes]]:
    """Check every OK reply; returns (wrong replies, distinct archives).

    Decompress replies must equal the original bytes.  Compress replies
    must agree per input, and each distinct archive must round-trip
    through ``deserialize_image`` and ``decompress_image``.
    """
    wrong = 0
    archives: Dict[str, bytes] = {}
    for record in records:
        if not record.ok:
            continue
        key = record.planned.key
        payload = record.response.payload
        if record.planned.op == OP_DECOMPRESS:
            wrong += payload != mix.originals[key]
        elif archives.setdefault(key, payload) != payload:
            wrong += 1
    for key, archive in archives.items():
        try:
            restored = decompress_image(deserialize_image(archive))
        except Exception:  # any decode failure is a wrong reply
            restored = None
        if restored != mix.originals[key]:
            wrong += sum(
                1 for r in records if r.ok and r.planned.key == key
            )
    return wrong, archives


def latency_summary(records: List[Record]) -> Dict[str, object]:
    answered = [r for r in records if r.ok]
    summary: Dict[str, object] = {"sent": len(records), "ok": len(answered)}
    for label, subset in (
        ("all", answered),
        ("compress", [r for r in answered if r.planned.op == OP_COMPRESS]),
        ("decompress", [r for r in answered if r.planned.op == OP_DECOMPRESS]),
    ):
        times = [r.response_ms for r in subset]
        if times:
            summary[label] = {
                "samples": len(times),
                "p50_ms": quantile(times, 0.5),
                "p99_ms": quantile(times, 0.99),
            }
    lags = [r.lag_ms for r in records]
    if lags:
        summary["lag_p99_ms"] = quantile(lags, 0.99)
    return summary


def rung_passes(records: List[Record]) -> Tuple[bool, float]:
    """Ladder criterion; returns (passed, p99 response ms)."""
    if not records or not all(r.ok for r in records):
        return False, float("inf")
    times = [r.response_ms for r in records]
    p99 = quantile(times, 0.99)
    third = max(1, len(times) // 3)
    growing = median(times[-third:]) > median(times[:third]) + LIMIT_P99_MS / 2
    return p99 <= LIMIT_P99_MS and not growing, p99


async def _rung(session: Session, k: int, rungs: list) -> List[Record]:
    rate = BASE_RPS * LADDER_STEP ** k
    records = await session.phase(f"rung{k}-{len(rungs)}", rate, RUNG_SECONDS)
    passed, p99 = rung_passes(records)
    rungs.append({
        "rung": k, "rate": rate, "sent": len(records), "passed": passed,
        "p99_ms": p99 if p99 != float("inf") else None,
        "not_ok": sum(1 for r in records if not r.ok),
    })
    # Let any backlog drain so the next rung starts from idle.
    await asyncio.sleep(0.1 if passed else 0.5)
    return records


async def ladder(session: Session) -> Dict[str, object]:
    """Find the highest rate on the fixed ladder that meets the limit.

    Bisection over the rungs (the base rate is rung 0 and passes by
    construction of BASE_RPS) brackets the limit between a passing rung
    ``low`` and a failing rung ``low + 1``.  Both bracketing rungs are
    then run once more, each visit's records are pooled with the first
    one's, and ``max_rps`` is where the line through the two pooled
    log p99s crosses the limit, clamped to one ladder step either side.
    Pooling doubles the samples behind the two p99s that place the
    figure; bisection alone would quantise it to the 10% rung spacing.
    """
    rungs: list = []
    visits: Dict[int, List[Record]] = {}
    low, high = 0, LADDER_RUNGS + 1  # low passes; high fails (sentinel)
    while high - low > 1:
        k = (low + high) // 2
        visits[k] = await _rung(session, k, rungs)
        low, high = (k, high) if rung_passes(visits[k])[0] else (low, k)
    high = min(high, LADDER_RUNGS)
    low = high - 1
    points = []
    for k in (low, high):
        pooled = visits.get(k, []) + await _rung(session, k, rungs)
        points.append((BASE_RPS * LADDER_STEP ** k, rung_passes(pooled)[1]))
    (r_low, p_low), (r_high, p_high) = points
    floor, ceiling = r_low / LADDER_STEP, r_high * LADDER_STEP
    if p_high == float("inf") or p_high <= p_low:
        max_rps = r_low if p_low <= LIMIT_P99_MS else floor
    else:
        slope = (math.log(p_high) - math.log(p_low)) / (r_high - r_low)
        max_rps = r_low + (math.log(LIMIT_P99_MS) - math.log(p_low)) / slope
    max_rps = max(floor, min(ceiling, max_rps))
    return {
        "max_rps": max_rps, "rungs": rungs, "limit_p99_ms": LIMIT_P99_MS,
        "bracket_p99_ms": [p_low, p_high],
    }


# -- the run ------------------------------------------------------------------

async def _run(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setups, generate = [], []
    mix = daemon = None
    try:
        for _ in range(SETUPS):
            if daemon is not None:
                daemon.stop()
            mix, daemon, elapsed = await set_up(root, seed)
            setups.append(elapsed)
            generate.append(mix.generate_s)
        session = Session(mix, daemon.port, seed)
        await session.phase("warmup", BASE_RPS, WARMUP_SECONDS)
        if trace:
            from ledger import serve_ledger

            await serve_ledger(session, outcome, seconds)
        else:
            summary = latency_summary(
                await session.phase("base", BASE_RPS, seconds)
            )
            outcome.detail["base"] = summary
            outcome.metrics["p50_ms"] = summary["all"]["p50_ms"]
            outcome.metrics["p99_ms"] = summary["all"]["p99_ms"]
            capacity = await ladder(session)
            outcome.detail["ladder"] = capacity
            outcome.metrics["ops_s"] = capacity["max_rps"]
            if summary["lag_p99_ms"] > MAX_LAG_P99_MS:
                outcome.invalid.append(
                    f"generator lag p99 {summary['lag_p99_ms']:.1f} ms "
                    f"exceeds {MAX_LAG_P99_MS} ms"
                )
    finally:
        if daemon is not None:
            daemon.stop()
    counted = [
        r for name, records in session.phases.items()
        if not name.startswith("rung") for r in records
    ]
    ladder_ok = [
        r for name, records in session.phases.items()
        if name.startswith("rung") for r in records if r.ok
    ]
    wrong, archives = verify(mix, counted)
    wrong += verify(mix, ladder_ok)[0]
    outcome.attempted = len(counted) + len(ladder_ok)
    outcome.failed = sum(1 for r in counted if not r.ok) + wrong
    outcome.detail["outcomes"] = _tally(counted)
    outcome.detail["wrong_replies"] = wrong
    outcome.metrics["setup_s"] = median(setups)
    outcome.layers["workloads.generate_s"] = median(generate)
    outcome.corpus = [code for _codec, _archive, code in mix.hot]
    if archives:  # the base-rate phases' inputs: a function of the seed
        outcome.metrics["ratio"] = sum(map(len, archives.values())) / sum(
            len(mix.originals[key]) for key in archives
        )
    outcome.detail["setup_s_samples"] = setups
    return outcome


def _tally(records: List[Record]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in records:
        counts[record.outcome] = counts.get(record.outcome, 0) + 1
    return counts


def run(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    return asyncio.run(_run(root, seed, seconds, trace))
