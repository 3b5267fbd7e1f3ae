"""The ``sweep`` workload: cold figure sweeps through ``run_suite_with_report``.

Each sweep compresses all 18 MIPS benchmarks at scale 0.1 with the four
figure algorithms (LZW ``compress``, ``gzip``, SAMC, SADC) on a process
pool of ``nproc`` workers, with ``NullCache`` so nothing is memoised
between sweeps.  It is all compress work and no decode: the write-side
control for ``serve`` and ``refill``.

The programs are the figure's own (program seed 0), so the ratio table
is the one recorded at the commit that introduced the benchmark
(``reference/sweep_ratios.json``) and every sweep must reproduce it
exactly.  The benchmark seed orders the benchmarks, which decides how
the jobs are submitted to, and balanced across, the pool.  Re-record
the table, only for a change meant to alter ratios, with::

    python3 perfbench/sweep.py --record

Times are CPU time rescaled to the reference host's speed (README.md,
"Host speed").  First every figure row (one benchmark's four jobs) is
timed in this process, ``ROW_REPEATS`` times, through the function each
pipeline job calls, with the reference loop before and after each row;
its ratios are checked too.  Then sweeps repeat until the time is up;
the scale keeps one sweep near 1.5 s, so a 30 s run holds about
fourteen.  Throughput counts the CPU time of this process and of the
pool's workers (reaped after every sweep, so that the kernel has
charged their time to this process), rescaled by the reference loop
run before and after the sweep, at the median sweep.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    Outcome, host_scaled, median, nproc, quantile, reference_ns, timed_on_host,
)

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "sweep_ratios.json"
SCALE = 0.1
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Runs of the reference loop on each side of a sweep; their median is
#: the host's speed there.
REFERENCE_RUNS = 3
#: In-process timings of every figure row; each row keeps its median.
ROW_REPEATS = 3


def benchmark_order(seed: int) -> List[str]:
    from repro.workloads.profiles import BENCHMARK_NAMES

    names = list(BENCHMARK_NAMES)
    random.Random(f"sweep:{seed}").shuffle(names)
    return names


def ratio_table(rows) -> Dict[str, Dict[str, float]]:
    return {row.benchmark: dict(row.ratios) for row in rows}


def _cpu_seconds() -> float:
    """CPU seconds of this process and of its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def _reap_workers(timeout: float = 10.0) -> None:
    """Wait until every worker process has exited and been reaped."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.002)


def _reference() -> float:
    return median([reference_ns() for _ in range(REFERENCE_RUNS)])


def one_sweep(names: List[str]) -> Dict[str, object]:
    """One cold sweep: its rows and report, wall and CPU seconds, and the
    reference loop's time around it."""
    from repro.analysis.experiments import FIGURE_ALGORITHMS, run_suite_with_report
    from repro.pipeline.cache import NullCache

    _reap_workers()
    before = _reference()
    cpu_started, started = _cpu_seconds(), time.perf_counter()
    rows, report = run_suite_with_report(
        "mips", FIGURE_ALGORITHMS, scale=SCALE, names=names,
        jobs=nproc(), cache=NullCache(),
    )
    wall = time.perf_counter() - started
    _reap_workers()
    cpu = _cpu_seconds() - cpu_started
    return {
        "rows": rows, "report": report, "wall_s": wall, "cpu_s": cpu,
        "reference_ns": (before + _reference()) / 2,
    }


def set_up(seed: int):
    """Generate the sweep's programs and load the reference table."""
    from repro.workloads.suite import generate_suite

    started = time.perf_counter()
    programs = list(generate_suite("mips", SCALE, 0, benchmark_order(seed)))
    generate_s = time.perf_counter() - started
    reference = json.loads(REFERENCE.read_text())
    if reference["scale"] != SCALE:
        raise RuntimeError("reference table was recorded at another scale")
    return programs, reference["table"], generate_s


def mismatches(table, expected) -> int:
    """Cells that differ from the recorded table (missing cells count)."""
    wrong = 0
    for benchmark, ratios in expected.items():
        for algorithm, ratio in ratios.items():
            wrong += table.get(benchmark, {}).get(algorithm) != ratio
    return wrong


def time_rows(programs, expected) -> Tuple[Dict[str, float], int]:
    """Milliseconds per figure row, timed in this process.

    A row is one benchmark's four jobs, each through ``compression_ratio``
    as a pipeline job runs it.  Each row is timed ``ROW_REPEATS`` times,
    the repeats interleaved over the rows, and keeps its median.  Returns
    the rows and the number of ratios that differ from ``expected``.
    """
    from repro.analysis.experiments import FIGURE_ALGORITHMS, compression_ratio

    samples: Dict[str, List[float]] = {}
    wrong = 0
    for _ in range(ROW_REPEATS):
        for program in programs:
            ratios, seconds = timed_on_host(lambda code=program.code: [
                compression_ratio(code, algorithm, "mips")
                for algorithm in FIGURE_ALGORITHMS
            ])
            samples.setdefault(program.name, []).append(seconds * 1e3)
            wrong += sum(
                ratio != expected[program.name][algorithm]
                for algorithm, ratio in zip(FIGURE_ALGORITHMS, ratios)
            )
    return {name: median(ms) for name, ms in samples.items()}, wrong


def pipeline_layers(sweeps) -> Dict[str, float]:
    """Per-algorithm job time, pool overhead and efficiency (medians)."""
    per_algorithm: Dict[str, List[float]] = {}
    overhead, efficiency = [], []
    for sweep in sweeps:
        report, wall = sweep["report"], sweep["wall_s"]
        for result in report.results:
            per_algorithm.setdefault(result.job.algorithm, []).append(
                result.wall_time
            )
        workers = report.max_workers
        overhead.append(wall - report.compute_time / workers)
        efficiency.append(report.compute_time / (wall * workers))
    layers = {
        f"pipeline.job_s.{algorithm}": sum(times) / len(times)
        for algorithm, times in per_algorithm.items()
    }
    layers["pipeline.overhead_s"] = median(overhead)
    layers["pipeline.efficiency"] = median(efficiency)
    return layers


def run(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setups = [timed_on_host(lambda: set_up(seed)) for _ in range(SETUPS)]
    programs, expected, _ = setups[-1][0]
    names = benchmark_order(seed)
    started = time.perf_counter()
    row_ms, wrong = time_rows(programs, expected)
    sweeps = []
    while not sweeps or time.perf_counter() - started < seconds:
        sweeps.append(one_sweep(names))
    wrong += sum(mismatches(ratio_table(s["rows"]), expected) for s in sweeps)
    cells = sum(len(ratios) for ratios in expected.values())
    cpu_s = [host_scaled(s["cpu_s"], s["reference_ns"]) for s in sweeps]
    jobs = len(sweeps[0]["report"].results)
    fastest_wall = min(sweeps, key=lambda sweep: sweep["wall_s"])
    measured = [
        ratio for ratios in ratio_table(sweeps[-1]["rows"]).values()
        for ratio in ratios.values()
    ]
    outcome.attempted = cells * (len(sweeps) + ROW_REPEATS)
    outcome.failed = wrong
    outcome.corpus = [program.code for program in programs]
    outcome.metrics.update({
        "setup_s": median([elapsed for _, elapsed in setups]),
        "p50_ms": quantile(list(row_ms.values()), 0.5),
        "p99_ms": quantile(list(row_ms.values()), 0.99),
        "ops_s": jobs / median(cpu_s),
        "ratio": sum(measured) / len(measured),
    })
    outcome.layers.update(pipeline_layers(sweeps))
    outcome.layers["workloads.generate_s"] = median([s[0][2] for s in setups])
    input_kb = fastest_wall["report"].bytes_in / 1024
    outcome.detail.update({
        "sweeps": len(sweeps),
        "sweep_wall_s": [s["wall_s"] for s in sweeps],
        "sweep_cpu_s": [s["cpu_s"] for s in sweeps],
        "sweep_reference_ms": [s["reference_ns"] / 1e6 for s in sweeps],
        "sweep_kb_s": input_kb / fastest_wall["wall_s"],
        "sweep_kb_per_cpu_s": input_kb / median(cpu_s),
        "input_bytes": sum(len(program.code) for program in programs),
        "row_samples": len(row_ms),
        "mismatched_cells": wrong,
        "job_failures": sum(len(s["report"].failures) for s in sweeps),
        "benchmark_order": names,
        "setup_s_samples": [elapsed for _, elapsed in setups],
    })
    return outcome


def record() -> None:
    """Write the reference ratio table of the figure's programs."""
    sweep = one_sweep(benchmark_order(0))
    if sweep["report"].failures:
        raise RuntimeError(sweep["report"].format())
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(
        {"scale": SCALE, "table": ratio_table(sweep["rows"])},
        indent=1, sort_keys=True,
    ) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/sweep.py --record")
    sys.path.insert(0, str(HERE.parent / "src"))
    record()
