"""Shared fixtures for the benchmark harness.

Every figure/table benchmark runs the *real* experiment once
(``benchmark.pedantic(..., rounds=1)``) at ``REPRO_BENCH_SCALE`` (default
2.0 — large enough for model tables to amortise, small enough to finish
in minutes) and prints the regenerated series.  Results are also written
to ``benchmarks/results/`` so EXPERIMENTS.md can cite them.

Timed runs additionally emit ``benchmarks/results/BENCH_codec.json``:
per-benchmark median latency (and ns/byte where the test records its
input size via ``benchmark.extra_info["bytes"]``), so the performance
trajectory is machine-readable across PRs.  Compare two snapshots with
``python -m repro bench-diff old.json new.json``, which flags >15%
regressions.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict

import pytest

from repro.workloads.profiles import BENCHMARK_NAMES
from repro.workloads.suite import generate_benchmark

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "2.0"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def mips_suite() -> Dict[str, bytes]:
    """The full 18-benchmark MIPS suite at bench scale."""
    return {
        name: generate_benchmark(name, "mips", BENCH_SCALE, BENCH_SEED).code
        for name in BENCHMARK_NAMES
    }


@pytest.fixture(scope="session")
def x86_suite() -> Dict[str, bytes]:
    """The full 18-benchmark x86 suite at bench scale."""
    return {
        name: generate_benchmark(name, "x86", BENCH_SCALE, BENCH_SEED).code
        for name in BENCHMARK_NAMES
    }


@pytest.fixture(scope="session")
def mips_gcc() -> bytes:
    """One mid/large MIPS program for single-program sweeps."""
    return generate_benchmark("gcc", "mips", BENCH_SCALE, BENCH_SEED).code


def publish(results_dir: Path, name: str, text: str) -> None:
    """Print a regenerated table and save it under benchmarks/results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")


BENCH_JSON = "BENCH_codec.json"


def pytest_sessionfinish(session, exitstatus) -> None:
    """Dump per-benchmark medians to ``results/BENCH_codec.json``.

    Only fires when pytest-benchmark actually timed something (it is a
    no-op under ``--benchmark-disable``, so CI smoke runs never write
    bogus zero timings).  ``ns_per_byte`` is included whenever the test
    declared its input size through ``benchmark.extra_info["bytes"]``.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    results: Dict[str, Dict] = {}
    for bench in bench_session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None or getattr(stats, "data", None) in (None, []):
            continue
        median_ns = stats.median * 1e9
        entry = {
            "group": bench.group,
            "median_ns": median_ns,
            "rounds": stats.rounds,
        }
        nbytes = bench.extra_info.get("bytes")
        if nbytes:
            entry["bytes"] = nbytes
            entry["ns_per_byte"] = median_ns / nbytes
        results[bench.fullname] = entry
    if not results:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "schema": 1,
        "bench_scale": BENCH_SCALE,
        "results": results,
    }
    (RESULTS_DIR / BENCH_JSON).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
