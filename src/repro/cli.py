"""Command-line interface: ``python -m repro`` or ``repro-codec``.

Subcommands
-----------
``ratio``       one benchmark × one algorithm → compression ratio
``suite``       a Figure-7/8 style sweep for one ISA
``figure``      regenerate fig7 / fig8 / fig9 directly
``simulate``    run the decompress-on-miss memory-system simulation
``stats``       run a sweep with telemetry on; render bit attribution
``bench-diff``  compare two BENCH_codec.json snapshots, flag regressions
``check``       static verification: codec invariants + repo lint rules
``fuzz``        deterministic fault injection: decoders or the live service
``serve``       run the compression service daemon
``loadgen``     drive a running daemon with a paced mixed workload
``soak``        chaos soak: loadgen through the seeded fault proxy
``trace``       trace one request end-to-end; emit a Chrome trace JSON
``top``         live dashboard over a running daemon's ``stats`` op
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.experiments import (
    ALL_ALGORITHMS,
    FIGURE_ALGORITHMS,
    average_ratios,
    compression_ratio,
    run_suite_with_report,
)
from repro.analysis.tables import format_averages, format_mapping, format_suite
from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.cli_report import emit_json, print_lines, report_failures
from repro.core import decompress_image, load_image, save_image
from repro.core.sadc import sadc_compress
from repro.core.samc import SamcCodec
from repro.memory import CompressedMemorySystem, RefillTiming, generate_trace
from repro.resilience.errors import CorruptedStreamError
from repro.workloads.profiles import BENCHMARK_NAMES
from repro.workloads.suite import generate_benchmark


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--isa", choices=("mips", "x86"), default="mips")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="benchmark size multiplier")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--block-size", type=int, default=32)


def _add_pipeline(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (1 = serial reference path)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist compression results, keyed by "
                             "SHA-256(code image) + codec config")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable result caching entirely")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="re-run a failing job up to N times before "
                             "recording it as failed (default 0)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock budget; enforced on the "
                             "pool path (--jobs > 1), over-budget jobs are "
                             "recorded as failures")


def _make_cache(args: argparse.Namespace):
    from repro.pipeline import NullCache, ResultCache

    if args.no_cache:
        return NullCache()
    return ResultCache(args.cache_dir)


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--obs", action="store_true",
                        help="enable codec telemetry; bit-attribution and "
                             "span summaries go to stderr (stdout is "
                             "unchanged)")


def _obs_context(args: argparse.Namespace):
    """An :func:`repro.obs.obs_session` when ``--obs`` was passed, else a
    no-op context yielding ``None``."""
    from contextlib import nullcontext

    from repro.obs import obs_session

    if getattr(args, "obs", False):
        return obs_session()
    return nullcontext(None)


def _print_obs_summary(recorder) -> None:
    """Render a session recorder's telemetry to stderr."""
    from repro.obs.render import format_bits_table, format_span_tree

    snapshot = recorder.snapshot()
    print(format_bits_table(snapshot["bits"]), file=sys.stderr)
    print(file=sys.stderr)
    print(format_span_tree(snapshot["spans"]), file=sys.stderr)


def _cmd_ratio(args: argparse.Namespace) -> int:
    program = generate_benchmark(args.benchmark, args.isa, args.scale, args.seed)
    ratio = compression_ratio(program.code, args.algorithm, args.isa, args.block_size)
    print(f"{args.benchmark}/{args.isa} {args.algorithm}: "
          f"{len(program.code)} bytes, ratio {ratio:.3f}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    with _obs_context(args) as recorder:
        rows, report = run_suite_with_report(
            args.isa,
            algorithms=args.algorithms,
            scale=args.scale,
            block_size=args.block_size,
            names=args.benchmarks or None,
            seed=args.seed,
            jobs=args.jobs,
            cache=_make_cache(args),
            job_timeout=args.job_timeout,
            retries=args.retries,
        )
        print(format_suite(rows, title=f"Compression ratios — {args.isa}"))
        # Timing/cache counters go to stderr: stdout stays bit-identical
        # across --jobs widths and cache states.
        print(report.format(), file=sys.stderr)
        if recorder is not None:
            _print_obs_summary(recorder)
    # A degraded (partial-table) run exits non-zero so scripts notice.
    return 1 if report.failures else 0


def _cmd_figure(args: argparse.Namespace) -> int:
    cache = _make_cache(args)
    with _obs_context(args) as recorder:
        status = _run_figure(args, cache)
        if status == 0 and recorder is not None:
            _print_obs_summary(recorder)
    return status


def _run_figure(args: argparse.Namespace, cache) -> int:
    if args.name in ("fig7", "fig8"):
        isa = "mips" if args.name == "fig7" else "x86"
        rows, report = run_suite_with_report(
            isa, FIGURE_ALGORITHMS, scale=args.scale, seed=args.seed,
            jobs=args.jobs, cache=cache,
            job_timeout=args.job_timeout, retries=args.retries,
        )
        print(format_suite(rows, title=f"Figure {args.name[-1]} — {isa} ratios"))
        print(report.format(), file=sys.stderr)
        return 1 if report.failures else 0
    if args.name == "fig9":
        averages = {}
        degraded = False
        for isa in ("mips", "x86"):
            rows, report = run_suite_with_report(
                isa, ("huffman", "SAMC", "SADC"), scale=args.scale,
                seed=args.seed, jobs=args.jobs, cache=cache,
                job_timeout=args.job_timeout, retries=args.retries,
            )
            averages[isa] = average_ratios(rows)
            degraded = degraded or bool(report.failures)
            print(report.format(), file=sys.stderr)
        print(format_averages(averages, title="Figure 9 — average ratios"))
        return 1 if degraded else 0
    print(f"unknown figure {args.name!r}", file=sys.stderr)
    return 2


def _cmd_simulate(args: argparse.Namespace) -> int:
    with _obs_context(args) as recorder:
        status = _run_simulate(args)
        if status == 0 and recorder is not None:
            _print_obs_summary(recorder)
    return status


def _run_simulate(args: argparse.Namespace) -> int:
    program = generate_benchmark(args.benchmark, args.isa, args.scale, args.seed)
    if args.algorithm == "SAMC":
        codec = (SamcCodec.for_mips() if args.isa == "mips"
                 else SamcCodec.for_bytes())
        image = codec.compress(program.code)
    elif args.algorithm == "SADC":
        image = sadc_compress(program.code, isa=args.isa)
    else:
        print("simulate supports SAMC or SADC", file=sys.stderr)
        return 2
    trace = list(generate_trace(len(program.code), args.fetches, seed=args.seed))
    timing = RefillTiming()
    baseline = CompressedMemorySystem(
        len(program.code), image=None, cache_size=args.cache_size, timing=timing
    ).run(trace)
    compressed = CompressedMemorySystem(
        len(program.code), image=image, cache_size=args.cache_size, timing=timing
    ).run(trace)
    print(format_mapping({
        "benchmark": program.name,
        "algorithm": image.algorithm,
        "compression ratio": image.compression_ratio,
        "icache hit ratio": compressed.cache.hit_ratio,
        "clb hit ratio": compressed.clb.hit_ratio if compressed.clb else 1.0,
        "baseline cycles": baseline.cycles,
        "compressed cycles": compressed.cycles,
        "slowdown": compressed.slowdown_vs(baseline),
    }, title=f"Memory-system simulation — {args.benchmark}/{args.isa}"))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.entropy_report import analyze_mips

    program = generate_benchmark(args.benchmark, "mips", args.scale, args.seed)
    report = analyze_mips(program.code)
    print(format_mapping(
        report.summary(),
        title=f"Compressibility analysis — {args.benchmark}/mips",
    ))
    achieved = compression_ratio(program.code, "SAMC", "mips")
    print(f"\nSAMC achieved ratio: {achieved:.3f} "
          f"(Markov bound {report.markov_bound / 32:.3f} + tables/LAT)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a sweep with telemetry enabled and render the bit attribution.

    Every output bit of every (benchmark, algorithm) cell is attributed
    to a source category (per-stream coder bits, dictionary tokens,
    model tables, LAT, padding…); per-cell totals equal the compressed
    size in bits exactly.  ``--format json`` emits the stable
    ``repro.obs.render.stats_document`` schema on stdout.
    """
    from repro.obs import obs_session
    from repro.obs.render import (
        format_bits_table,
        format_span_tree,
        stats_document,
    )

    with obs_session() as recorder:
        _rows, report = run_suite_with_report(
            args.isa,
            algorithms=args.algorithms,
            scale=args.scale,
            block_size=args.block_size,
            names=args.benchmarks or None,
            seed=args.seed,
            jobs=args.jobs,
            cache=_make_cache(args),
            job_timeout=args.job_timeout,
            retries=args.retries,
        )
        snapshot = recorder.snapshot()
    if args.format == "json":
        emit_json(stats_document(snapshot))
    else:
        print(format_bits_table(snapshot["bits"]))
        print()
        print(format_span_tree(snapshot["spans"]))
    print(report.format(), file=sys.stderr)
    # A degraded sweep (failed cells) must not exit 0: the attribution
    # table is partial, and CI treats stats output as authoritative.
    return report_failures(
        len(report.failures),
        f"stats: {len(report.failures)} benchmark cell(s) failed",
    )


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    """Compare two ``BENCH_codec.json`` snapshots from the benchmark harness.

    A benchmark regresses when its metric (ns/byte when both snapshots
    carry it, otherwise median ns) grew by more than ``--threshold``
    (default 15%).  Exit status 1 when any benchmark regressed — or when
    a benchmark in the baseline is missing from the candidate snapshot
    (a silently dropped benchmark must not read as a pass); benchmarks
    only in the candidate are new and merely reported, and a whole
    benchmark *group* present only in the candidate is reported as a
    new group (exit 0) — adding a benchmark group must never fail the
    gate.  ``--group`` restricts the comparison to one group.
    """
    import json

    with open(args.old) as handle:
        old = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    old_results = old.get("results", {})
    new_results = new.get("results", {})
    if args.group is not None:
        old_results = {
            name: entry for name, entry in old_results.items()
            if entry.get("group") == args.group
        }
        new_results = {
            name: entry for name, entry in new_results.items()
            if entry.get("group") == args.group
        }
    regressions = []
    missing = []
    lines = []
    old_groups = {e.get("group") for e in old_results.values()}
    new_groups = {e.get("group") for e in new_results.values()}
    for group in sorted(g for g in new_groups - old_groups if g):
        count = sum(
            1 for e in new_results.values() if e.get("group") == group
        )
        lines.append(
            f"group {group!r}: new in {args.new} ({count} benchmark(s))"
        )
    for name in sorted(set(old_results) & set(new_results)):
        before, after = old_results[name], new_results[name]
        if "ns_per_byte" in before and "ns_per_byte" in after:
            metric, b, a = "ns/byte", before["ns_per_byte"], after["ns_per_byte"]
        else:
            metric, b, a = "median ns", before["median_ns"], after["median_ns"]
        if b <= 0:
            continue
        change = a / b - 1.0
        flag = ""
        if change > args.threshold:
            flag = "  <-- REGRESSION"
            regressions.append(name)
        elif change < -args.threshold:
            flag = "  (improved)"
        lines.append(
            f"{name}: {b:.1f} -> {a:.1f} {metric} ({change:+.1%}){flag}"
        )
    for name in sorted(set(old_results) - set(new_results)):
        missing.append(name)
        lines.append(f"{name}: missing from {args.new}  <-- MISSING")
    for name in sorted(set(new_results) - set(old_results)):
        lines.append(f"{name}: only in {args.new}")
    print_lines(lines, empty="no comparable benchmarks")
    if missing:
        report_failures(
            len(missing),
            f"{len(missing)} benchmark(s) from {args.old} missing in "
            f"{args.new}",
        )
    status = report_failures(
        len(regressions),
        f"{len(regressions)} benchmark(s) regressed more than "
        f"{args.threshold:.0%}",
    )
    return 1 if missing else status


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the static verifier: invariants, lint, and flow analyses.

    Layer 1 rebuilds representative codec artifacts from a deterministic
    corpus and checks decodability invariants; layer 2 lints the package
    sources against repo-specific AST rules; layer 3 runs the
    whole-program contract analyses over the project call graph.
    ``--strict`` fails on any finding (warnings included) — the CI
    configuration.  A finding is fixed, or suppressed in place with
    ``# repro: noqa <rule> (reason)``.
    """
    from repro.verify import exit_status, run_all_checks

    findings = run_all_checks(
        artifact_scale=args.scale,
        artifacts=not args.no_artifacts,
    )

    if args.format == "json":
        emit_json({
            "findings": [f.to_dict() for f in findings],
            "strict": args.strict,
            "status": exit_status(findings, strict=args.strict),
        })
    elif args.format == "sarif":
        from repro.verify.sarif import to_sarif

        print(json.dumps(to_sarif(findings), indent=2))
    else:
        print_lines(
            (f.format() for f in findings),
            empty="all checks passed",
        )
    errors = sum(f.severity == "error" for f in findings)
    warnings = len(findings) - errors
    failing = len(findings) if args.strict else errors
    report_failures(
        failing,
        f"verification failed: {errors} error(s), {warnings} warning(s)",
    )
    return exit_status(findings, strict=args.strict)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Deterministic fault injection: decoders, or the live service.

    ``--target decoders`` (default) builds real compressed artifacts
    (SAMC, SADC, byte-Huffman, LZW, gzipish), corrupts them with seeded
    faults (bit flips, truncation, splices, duplicated spans, LAT-entry
    edits), and asserts the decode contract: every corrupted input
    either round-trips exactly or raises ``CorruptedStreamError`` —
    within a time budget, never a hang, never a raw low-level exception.

    ``--target service`` drives seeded malformed wire messages at a
    daemon (``--host``/``--port``, or a self-hosted in-process one) and
    asserts the service contract: every request gets a structured reply
    — never a hang, a silent disconnect, a success for garbage, or a
    leaked ``internal`` exception.  Exit 1 on any violation.
    """
    if args.target == "service":
        from repro.service.fuzz import run_service_fuzz

        report = run_service_fuzz(
            seed=args.seed,
            iters=args.iters,
            host=args.host,
            port=args.port,
            time_budget=args.time_budget,
            dump_path=args.flightrec_dump,
        )
        failure_count = report.failure_count
    else:
        from repro.resilience.fuzz import run_fuzz

        report = run_fuzz(
            seed=args.seed,
            iters=args.iters,
            time_budget=args.time_budget,
        )
        failure_count = len(report.failures) + report.timeouts
    if args.format == "json":
        emit_json(report.to_dict())
    else:
        print_lines(report.format_lines(), empty="fuzz: no iterations run")
    status = report_failures(
        failure_count,
        f"fuzz ({args.target}): {failure_count} contract violation(s)",
    )
    return status if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the compression service daemon until interrupted.

    SIGTERM and SIGINT both trigger a graceful drain: the listener
    closes (no new connections), every queued and in-flight request is
    answered, and the process exits 0 within ``--drain-deadline``
    seconds — so an orchestrator's stop never loses accepted replies.
    """
    import asyncio
    import signal

    from repro.service.server import CodecService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        batch_max=args.batch_max,
        workers=args.workers,
        max_inflight=args.max_inflight,
        registry_entries=args.registry_entries,
        metrics_port=args.metrics_port,
        flightrec_capacity=args.flightrec_capacity,
        flightrec_dump=args.flightrec_dump,
        drain_deadline=args.drain_deadline,
    )

    async def _serve() -> None:
        service = CodecService(config)
        host, port = await service.start()
        print(f"repro service on {host}:{port} "
              f"(codecs: {', '.join(sorted(service.codecs))})",
              file=sys.stderr, flush=True)
        if service.metrics_address is not None:
            mhost, mport = service.metrics_address
            print(f"metrics (Prometheus) on http://{mhost}:{mport}/metrics",
                  file=sys.stderr, flush=True)
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, shutdown.set)
            except (NotImplementedError, RuntimeError):
                pass  # platform without signal handlers: Ctrl-C path below
        serve_task = asyncio.ensure_future(service.serve_forever())
        stop_task = asyncio.ensure_future(shutdown.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if shutdown.is_set():
                print("repro service: draining "
                      f"({service.inflight} request(s) in flight)",
                      file=sys.stderr, flush=True)
        finally:
            serve_task.cancel()
            stop_task.cancel()
            await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    """Chaos soak: loadgen through the seeded fault proxy, with a drain.

    Spawns an in-process daemon, fronts it with the seeded TCP fault
    proxy (:mod:`repro.service.chaos`), drives retrying load-generator
    workers through the proxy, triggers a mid-soak graceful drain (the
    SIGTERM analogue), and verifies the failure-semantics contract:
    every request ends in a typed outcome, zero hangs, zero leaked
    internal errors, zero reply loss across the drain.  Exit 1 on any
    violation; ``--flightrec-dump`` writes the daemon's lifecycle ring
    as JSONL for post-mortems.
    """
    from repro.service.soak import run_soak

    report = run_soak(
        seed=args.seed,
        duration=args.duration,
        rps=args.rps,
        connections=args.connections,
        dump_path=args.flightrec_dump,
    )
    if args.format == "json":
        emit_json(report.to_dict())
    else:
        print_lines(report.format_lines(), empty="soak: nothing ran")
    return report_failures(
        len(report.violations),
        f"soak: {len(report.violations)} contract violation(s)",
    )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running daemon with a paced mixed workload.

    Exit 1 on any SLO breach — a transport failure (connection fault or
    timeout) always is one, ``--slo-p99-ms`` / ``--max-error-rate`` add
    their gates — or when ``--min-rps`` was given and achieved
    throughput fell below it.  ``--stats-json`` writes the full
    machine-readable report (client percentiles plus the daemon's
    post-run stats document) for CI artifacts.
    """
    from repro.service.client import wait_for_service
    from repro.service.loadgen import (
        find_saturation,
        run_loadgen,
        slo_breaches,
        write_stats_json,
    )

    if not wait_for_service(args.host, args.port, timeout=args.wait):
        print(f"no service at {args.host}:{args.port} "
              f"after {args.wait:.0f}s", file=sys.stderr)
        return 1
    if args.sweep:
        reports, sustained = find_saturation(
            args.host, args.port, start_rps=args.rps,
            duration=args.duration, connections=args.connections,
            seed=args.seed,
        )
        report = reports[-1]
        if args.format == "json":
            emit_json({
                "rounds": [r.to_dict() for r in reports],
                "sustained_rps": sustained,
            })
        else:
            for r in reports:
                print_lines(r.format_lines(), empty="loadgen: no rounds")
                print()
            print(f"saturation sweep: sustained {sustained:.0f} rps")
    else:
        report = run_loadgen(
            args.host, args.port, rps=args.rps, duration=args.duration,
            connections=args.connections, seed=args.seed,
        )
        if args.format == "json":
            emit_json(report.to_dict())
        else:
            print_lines(report.format_lines(), empty="loadgen: nothing sent")
    if args.stats_json is not None:
        write_stats_json(report, args.stats_json)
    breaches = slo_breaches(
        report,
        p99_ms=args.slo_p99_ms,
        max_error_rate=args.max_error_rate,
    )
    for breach in breaches:
        print(f"SLO breach: {breach}", file=sys.stderr)
    status = report_failures(
        len(breaches),
        f"loadgen: {len(breaches)} SLO breach(es)",
    )
    if args.min_rps is not None and report.achieved_rps < args.min_rps:
        status |= report_failures(
            1,
            f"loadgen: achieved {report.achieved_rps:.1f} rps, "
            f"floor is {args.min_rps:.1f}",
        )
    return status


def _cmd_trace(args: argparse.Namespace) -> int:
    """Trace requests end-to-end; print the timeline, export Chrome JSON.

    Sends ``--repeat`` traced requests to a daemon (``--spawn`` runs an
    in-process one), prints each server-side segment timeline, checks
    it reconciles with the client-observed wire latency, and — with
    ``--out`` — writes a Chrome trace-event JSON document
    (``chrome://tracing`` / Perfetto loads it directly).
    """
    from repro.obs.clock import perf_seconds
    from repro.obs.trace import (
        annex_to_chrome_events,
        chrome_trace_document,
    )
    from repro.service.client import ServiceClient
    from repro.service.protocol import OP_COMPRESS, OP_DECOMPRESS

    server = None
    host, port = args.host, args.port
    if args.spawn:
        from repro.service.server import ServerThread, ServiceConfig

        server = ServerThread(ServiceConfig(port=0))
        host, port = server.start()
    op = OP_COMPRESS if args.op == "compress" else OP_DECOMPRESS
    if args.payload_file is not None:
        with open(args.payload_file, "rb") as handle:
            payload = handle.read()
    else:
        code = generate_benchmark("compress", "mips", 0.2, args.seed).code
        payload = code[: 4096 - (4096 % 4)]
    events: List[dict] = []
    status = 0
    try:
        with ServiceClient(host, port) as client:
            for index in range(args.repeat):
                trace_id = args.trace_id + index
                started = perf_seconds()
                response = client.request(
                    op, args.codec, payload, trace_id=trace_id
                )
                wire_ms = (perf_seconds() - started) * 1000.0
                annex = response.trace()
                if annex is None:
                    print(f"request {index}: reply carried no trace annex",
                          file=sys.stderr)
                    status = 1
                    continue
                total_ms = annex["total_ns"] / 1e6
                segment_sum = sum(
                    s["dur_ns"] for s in annex["segments"]
                )
                print(f"trace {annex['trace_id']:#018x}: "
                      f"server {total_ms:.3f} ms inside "
                      f"{wire_ms:.3f} ms wire latency")
                for segment in annex["segments"]:
                    print(f"  {segment['name']:<16} "
                          f"+{segment['start_ns'] / 1e6:>9.3f} ms  "
                          f"{segment['dur_ns'] / 1e6:>9.3f} ms")
                for note in annex.get("annotations", ()):
                    fields = ", ".join(
                        f"{k}={v}" for k, v in sorted(note.items())
                        if k not in ("name", "at_ns")
                    )
                    print(f"  @ {note['name']:<14} "
                          f"+{note['at_ns'] / 1e6:>9.3f} ms  {fields}")
                if segment_sum != annex["total_ns"]:
                    print(f"  WARNING: segments sum to {segment_sum} ns, "
                          f"total is {annex['total_ns']} ns",
                          file=sys.stderr)
                    status = 1
                if total_ms > wire_ms:
                    print("  WARNING: server total exceeds wire latency",
                          file=sys.stderr)
                    status = 1
                events.extend(annex_to_chrome_events(
                    annex, pid=1, tid=index + 1
                ))
    finally:
        if server is not None:
            server.stop()
    if args.out is not None:
        document = chrome_trace_document(events)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(events)} trace events to {args.out}")
    return status


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a running daemon's ``stats`` op."""
    from repro.service.top import run_top

    try:
        return run_top(
            args.host,
            args.port,
            interval=args.interval,
            iterations=args.iterations,
            clear_screen=not args.no_clear,
        )
    except KeyboardInterrupt:
        return 0


def _cmd_compress_file(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as handle:
        data = handle.read()
    if args.algorithm == "SAMC":
        # Byte-oriented SAMC: works for any binary, any length.
        image = SamcCodec.for_bytes(block_size=args.block_size).compress(data)
    else:
        image = ByteHuffmanCodec(args.block_size).compress(data)
    written = save_image(image, args.output)
    print(f"{args.input}: {len(data)} -> {written} bytes on disk "
          f"(accounted ratio {image.compression_ratio:.3f})")
    return 0


def _cmd_decompress_file(args: argparse.Namespace) -> int:
    try:
        image = load_image(args.input)
        data = decompress_image(image)
    except CorruptedStreamError as error:
        print(f"{args.input}: corrupted archive: {error}", file=sys.stderr)
        return 1
    with open(args.output, "wb") as handle:
        handle.write(data)
    print(f"{args.input}: restored {len(data)} bytes ({image.algorithm})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-codec",
        description="Code compression for embedded systems (DAC'98 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ratio = sub.add_parser("ratio", help="one benchmark × one algorithm")
    _add_common(ratio)
    ratio.add_argument("--benchmark", choices=BENCHMARK_NAMES, default="gcc")
    ratio.add_argument("--algorithm", choices=ALL_ALGORITHMS, default="SAMC")
    ratio.set_defaults(func=_cmd_ratio)

    suite = sub.add_parser("suite", help="full benchmark sweep for one ISA")
    _add_common(suite)
    suite.add_argument("--algorithms", nargs="+", choices=ALL_ALGORITHMS,
                       default=list(FIGURE_ALGORITHMS))
    suite.add_argument("--benchmarks", nargs="*", choices=BENCHMARK_NAMES)
    _add_pipeline(suite)
    _add_obs(suite)
    suite.set_defaults(func=_cmd_suite)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", choices=("fig7", "fig8", "fig9"))
    figure.add_argument("--scale", type=float, default=1.0)
    figure.add_argument("--seed", type=int, default=0)
    _add_pipeline(figure)
    _add_obs(figure)
    figure.set_defaults(func=_cmd_figure)

    simulate = sub.add_parser("simulate", help="memory-system simulation")
    _add_common(simulate)
    simulate.add_argument("--benchmark", choices=BENCHMARK_NAMES, default="gcc")
    simulate.add_argument("--algorithm", choices=("SAMC", "SADC"), default="SAMC")
    simulate.add_argument("--cache-size", type=int, default=4096)
    simulate.add_argument("--fetches", type=int, default=100_000)
    _add_obs(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    stats = sub.add_parser(
        "stats",
        help="run a sweep with telemetry on; render per-benchmark bit "
             "attribution and span timings",
    )
    _add_common(stats)
    stats.add_argument("--algorithms", nargs="+", choices=ALL_ALGORITHMS,
                       default=list(FIGURE_ALGORITHMS))
    stats.add_argument("--benchmarks", nargs="*", choices=BENCHMARK_NAMES)
    stats.add_argument("--format", choices=("text", "json"), default="text")
    _add_pipeline(stats)
    stats.set_defaults(func=_cmd_stats)

    analyze = sub.add_parser(
        "analyze", help="entropy/compressibility breakdown of a benchmark"
    )
    _add_common(analyze)
    analyze.add_argument("--benchmark", choices=BENCHMARK_NAMES, default="gcc")
    analyze.set_defaults(func=_cmd_analyze)

    bench_diff = sub.add_parser(
        "bench-diff",
        help="compare two benchmark-harness JSON snapshots for regressions",
    )
    bench_diff.add_argument("old", help="baseline BENCH_codec.json")
    bench_diff.add_argument("new", help="candidate BENCH_codec.json")
    bench_diff.add_argument("--threshold", type=float, default=0.15,
                            metavar="FRACTION",
                            help="relative slowdown that counts as a "
                                 "regression (default 0.15 = 15%%)")
    bench_diff.add_argument("--group", default=None, metavar="NAME",
                            help="compare only benchmarks in this harness "
                                 "group (e.g. throughput-batch)")
    bench_diff.set_defaults(func=_cmd_bench_diff)

    check = sub.add_parser(
        "check",
        help="static verification: codec invariants + repo lint rules",
    )
    check.add_argument("--format", choices=("text", "json", "sarif"),
                       default="text")
    check.add_argument("--strict", action="store_true",
                       help="fail on any finding, warnings included")
    check.add_argument("--scale", type=float, default=0.25,
                       help="sample-corpus size for artifact checks")
    check.add_argument("--no-artifacts", action="store_true",
                       help="skip layer 1 (codec artifact invariants)")
    check.set_defaults(func=_cmd_check)

    fuzz = sub.add_parser(
        "fuzz",
        help="deterministic fault injection: decoders or the live service",
    )
    fuzz.add_argument("--target", choices=("decoders", "service"),
                      default="decoders",
                      help="what to fuzz: every decode path (default), or "
                           "the wire protocol of a live daemon")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--iters", type=int, default=200, metavar="N",
                      help="fault-injection iterations per sweep "
                           "(default 200)")
    fuzz.add_argument("--time-budget", type=float, default=5.0,
                      metavar="SECONDS",
                      help="per-decode (or per-reply) wall-clock budget; "
                           "anything over budget is a failure (default 5.0)")
    fuzz.add_argument("--host", default=None,
                      help="service target: daemon host (default: spawn an "
                           "in-process daemon)")
    fuzz.add_argument("--port", type=int, default=None,
                      help="service target: daemon port")
    fuzz.add_argument("--format", choices=("text", "json"), default="text")
    fuzz.add_argument("--flightrec-dump", default=None, metavar="PATH",
                      help="service target: on failure, fetch the "
                           "daemon's flight-recorder ring (DUMP op) and "
                           "write the JSONL here (the CI artifact)")
    fuzz.set_defaults(func=_cmd_fuzz)

    serve = sub.add_parser(
        "serve", help="run the compression service daemon"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7341)
    serve.add_argument("--queue-size", type=int, default=256,
                       help="bounded request queue; full answers `busy`")
    serve.add_argument("--batch-max", type=int, default=8,
                       help="requests drained per dispatch batch — also "
                            "the ceiling on one vectorised request "
                            "group, since grouping happens within a "
                            "drain")
    serve.add_argument("--workers", type=int, default=4,
                       help="executor threads running codec work")
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="per-connection in-flight request cap")
    serve.add_argument("--registry-entries", type=int, default=32,
                       help="warm SAMC model registry bound (LRU)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve Prometheus text exposition on this "
                            "port (disabled by default)")
    serve.add_argument("--flightrec-capacity", type=int, default=1024,
                       metavar="N",
                       help="flight-recorder ring size: last N "
                            "request-lifecycle events (default 1024)")
    serve.add_argument("--flightrec-dump", default=None, metavar="PATH",
                       help="dump the flight-recorder ring (JSONL) here "
                            "on every wire-protocol error")
    serve.add_argument("--drain-deadline", type=float, default=10.0,
                       metavar="SECONDS",
                       help="graceful-drain budget on SIGTERM/SIGINT: "
                            "how long to wait for in-flight requests "
                            "before force-closing (default 10)")
    serve.set_defaults(func=_cmd_serve)

    soak = sub.add_parser(
        "soak",
        help="chaos soak: loadgen through the seeded fault proxy, "
             "with a mid-soak graceful drain",
    )
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--duration", type=float, default=20.0,
                      metavar="SECONDS",
                      help="soak length (default 20); the graceful "
                           "drain fires at ~60%% of it")
    soak.add_argument("--rps", type=float, default=80.0,
                      help="target request rate through the proxy "
                           "(default 80)")
    soak.add_argument("--connections", type=int, default=4,
                      help="concurrent retrying workers (default 4)")
    soak.add_argument("--format", choices=("text", "json"),
                      default="text")
    soak.add_argument("--flightrec-dump", default=None, metavar="PATH",
                      help="write the daemon's flight-recorder ring "
                           "(JSONL) here after the soak — the CI "
                           "artifact on failure")
    soak.set_defaults(func=_cmd_soak)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a running daemon with a paced mixed workload",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7341)
    loadgen.add_argument("--rps", type=float, default=200.0,
                         help="target request rate (default 200)")
    loadgen.add_argument("--duration", type=float, default=5.0,
                         metavar="SECONDS")
    loadgen.add_argument("--connections", type=int, default=8,
                         help="concurrent client connections (default 8)")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--wait", type=float, default=10.0,
                         metavar="SECONDS",
                         help="how long to wait for the daemon to answer "
                              "health before giving up (default 10)")
    loadgen.add_argument("--min-rps", type=float, default=None,
                         metavar="RPS",
                         help="fail unless achieved throughput reaches "
                              "this floor")
    loadgen.add_argument("--sweep", action="store_true",
                         help="double the rate until saturation; report "
                              "the highest sustained rps")
    loadgen.add_argument("--format", choices=("text", "json"),
                         default="text")
    loadgen.add_argument("--stats-json", default=None, metavar="PATH",
                         help="write the machine-readable run report "
                              "(client percentiles + the daemon's stats "
                              "document) to this file")
    loadgen.add_argument("--slo-p99-ms", type=float, default=None,
                         metavar="MS",
                         help="SLO gate: fail when client-observed p99 "
                              "latency exceeds this many milliseconds")
    loadgen.add_argument("--max-error-rate", type=float, default=None,
                         metavar="FRACTION",
                         help="SLO gate: fail when the error rate "
                              "(service, internal and transport failures "
                              "over sent) exceeds this fraction")
    loadgen.set_defaults(func=_cmd_loadgen)

    trace = sub.add_parser(
        "trace",
        help="trace one request end-to-end; emit Chrome trace JSON",
    )
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument("--port", type=int, default=7341)
    trace.add_argument("--spawn", action="store_true",
                       help="run an in-process daemon instead of "
                            "connecting to --host/--port")
    trace.add_argument("--op", choices=("compress", "decompress"),
                       default="compress")
    trace.add_argument("--codec", default="gzipish")
    trace.add_argument("--payload-file", default=None, metavar="PATH",
                       help="request payload (default: a synthetic "
                            "MIPS code image)")
    trace.add_argument("--trace-id", type=int, default=1,
                       help="client-stamped trace id of the first "
                            "request (default 1; increments per repeat)")
    trace.add_argument("--repeat", type=int, default=1, metavar="N",
                       help="traced requests to send (default 1)")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write a Chrome trace-event JSON document "
                            "(chrome://tracing, Perfetto)")
    trace.set_defaults(func=_cmd_trace)

    top = sub.add_parser(
        "top",
        help="live dashboard over a running daemon's stats op",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7341)
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="poll interval (default 2)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="render N frames then exit (default: run "
                          "until interrupted)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")
    top.set_defaults(func=_cmd_top)

    compress_file = sub.add_parser(
        "compress-file", help="compress any binary to the on-ROM format"
    )
    compress_file.add_argument("input")
    compress_file.add_argument("output")
    compress_file.add_argument("--algorithm", choices=("SAMC", "huffman"),
                               default="SAMC")
    compress_file.add_argument("--block-size", type=int, default=32)
    compress_file.set_defaults(func=_cmd_compress_file)

    decompress_file = sub.add_parser(
        "decompress-file", help="restore a binary from the on-ROM format"
    )
    decompress_file.add_argument("input")
    decompress_file.add_argument("output")
    decompress_file.set_defaults(func=_cmd_decompress_file)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The consumer (e.g. `| head`) closed stdout early; that is its
        # call, not an error.  Point stdout at devnull so the interpreter
        # does not raise again while flushing at shutdown.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
