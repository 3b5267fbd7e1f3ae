"""The job-graph runner behind the Figure 7-9 sweeps.

A job is one ``(benchmark, isa, algorithm, block_size, scale, seed)``
tuple; running it means generating the benchmark image (deterministic)
and measuring one algorithm's compression ratio on it.  The runner:

1. generates each *distinct* program once (jobs for the same benchmark
   share the image across algorithms),
2. resolves every job against the content-addressed cache,
3. fans the misses out across a ``ProcessPoolExecutor`` (``max_workers
   == 1`` stays fully in-process — the serial degenerate case), and
4. returns a :class:`~repro.pipeline.report.PipelineReport` with the
   per-job metrics and cache counters.

Ratios are pure functions of the job spec, so serial and parallel runs
are bit-identical by construction; the tests pin that property.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import Recorder, get_recorder, merge_snapshots, obs_enabled, use_recorder
from repro.obs.clock import perf_seconds
from repro.pipeline.cache import NullCache, ResultCache
from repro.pipeline.fingerprint import job_fingerprint
from repro.pipeline.report import (
    FAILURE_CRASH,
    FAILURE_ERROR,
    FAILURE_GENERATION,
    FAILURE_TIMEOUT,
    JobFailure,
    JobResult,
    PipelineReport,
)
from repro.resilience.retry import RetryPolicy

#: Payload schema stored in the cache for each completed job.
_PAYLOAD_KEYS = frozenset({"ratio", "bytes_in", "bytes_out"})


@dataclass(frozen=True, order=True)
class ExperimentJob:
    """One cell of a figure sweep."""

    benchmark: str
    isa: str
    algorithm: str
    block_size: int = 32
    scale: float = 1.0
    seed: int = 0

    def program_key(self) -> Tuple[str, str, float, int]:
        """Key identifying the generated code image this job consumes."""
        return (self.benchmark, self.isa, self.scale, self.seed)

    def fingerprint(self, code: bytes) -> str:
        """Content-addressed cache identity of this job on ``code``."""
        return job_fingerprint(code, self.algorithm, self.isa, self.block_size)


def _generate_code(job: ExperimentJob) -> bytes:
    # Imported lazily: repro.analysis.experiments sits on top of this
    # module, and the workload generator drags in the full ISA stack.
    from repro.workloads.suite import generate_benchmark

    return generate_benchmark(
        job.benchmark, job.isa, scale=job.scale, seed=job.seed
    ).code


def execute_job(job: ExperimentJob, code: bytes) -> Dict[str, Any]:
    """Compress one image under one config; the pool worker entry point.

    Returns a JSON-serialisable payload so the result can go straight
    into the disk cache.
    """
    from repro.analysis.experiments import compression_ratio

    started = perf_seconds()
    local = None
    if obs_enabled():
        # Isolate this job's telemetry in a fresh recorder scoped to its
        # (benchmark, isa, algorithm) cell; the snapshot travels back in
        # the payload so the parent can roll workers' telemetry up.
        local = Recorder(scope=f"{job.benchmark}/{job.isa}/{job.algorithm}")
        with use_recorder(local):
            with local.span(
                "job",
                benchmark=job.benchmark,
                isa=job.isa,
                algorithm=job.algorithm,
            ):
                ratio = compression_ratio(
                    code, job.algorithm, job.isa, job.block_size
                )
    else:
        ratio = compression_ratio(code, job.algorithm, job.isa, job.block_size)
    payload: Dict[str, Any] = {
        "ratio": ratio,
        "bytes_in": len(code),
        "bytes_out": round(ratio * len(code)),
        "wall_time": perf_seconds() - started,
    }
    if local is not None:
        payload["obs"] = local.snapshot()
    return payload


def _valid_payload(payload: Optional[Dict[str, Any]]) -> bool:
    return payload is not None and _PAYLOAD_KEYS.issubset(payload)


def run_pipeline(
    jobs: List[ExperimentJob],
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
    job_timeout: Optional[float] = None,
    retries: int = 0,
) -> PipelineReport:
    """Run a batch of experiment jobs, parallel across processes.

    Parameters
    ----------
    jobs:
        Job specs; results come back in the same order.
    max_workers:
        Process-pool width.  ``1`` runs everything inline (no pool, no
        pickling) and is the reference the parallel path must match.
    cache:
        A :class:`ResultCache` (or :class:`NullCache` to disable).
        Defaults to a fresh in-process memo, which still deduplicates
        identical jobs within the batch.
    job_timeout:
        Per-job wall-clock budget in seconds.  Only enforceable on the
        pool path (a worker can be abandoned; the inline path cannot
        preempt itself).  Jobs over budget are recorded as failures.
    retries:
        How many times to re-run a job that raised (or whose worker
        crashed) before recording it as failed.  Timeouts never retry.
        A job that raised sleeps ``0.05 * 2**n`` seconds (at most 2 s)
        before retry ``n + 1``: an unjittered :class:`RetryPolicy`.

    A failing job never aborts the batch: it is recorded in the
    report's ``failures`` list and the remaining jobs complete.
    """
    with get_recorder().span("pipeline.run", jobs=len(jobs)):
        return _run_pipeline(jobs, max_workers, cache, job_timeout, retries)


def _run_pipeline(
    jobs: List[ExperimentJob],
    max_workers: int,
    cache: Optional[ResultCache],
    job_timeout: Optional[float],
    retries: int,
) -> PipelineReport:
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    cache = cache if cache is not None else ResultCache()
    started = perf_seconds()

    # One generation per distinct program, shared across algorithms.
    # A generation error fails every job that consumes that program —
    # recorded, not raised, so the rest of the batch still runs.
    programs: Dict[Tuple[str, str, float, int], bytes] = {}
    bad_programs: Dict[Tuple[str, str, float, int], BaseException] = {}
    for job in jobs:
        key = job.program_key()
        if key in programs or key in bad_programs:
            continue
        try:
            programs[key] = _generate_code(job)
        except Exception as error:
            bad_programs[key] = error

    failure_by_index: Dict[int, JobFailure] = {}
    fingerprints: List[Optional[str]] = []
    for index, job in enumerate(jobs):
        key = job.program_key()
        if key in bad_programs:
            error = bad_programs[key]
            failure_by_index[index] = JobFailure(
                job=job,
                fingerprint="",
                kind=FAILURE_GENERATION,
                error_type=error.__class__.__name__,
                message=str(error),
                attempts=1,
            )
            fingerprints.append(None)
        else:
            fingerprints.append(job.fingerprint(programs[key]))

    # Resolve against the cache; collect the misses to compute.
    results: List[Optional[JobResult]] = [None] * len(jobs)
    payloads: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
    pending: List[int] = []
    resolved: Dict[str, Dict[str, Any]] = {}
    for index, (job, fingerprint) in enumerate(zip(jobs, fingerprints)):
        if fingerprint is None:
            continue
        if fingerprint in resolved:  # duplicate job inside this batch
            results[index] = _hit_result(job, fingerprint, resolved[fingerprint])
            payloads[index] = resolved[fingerprint]
            continue
        payload = cache.get(fingerprint)
        if _valid_payload(payload):
            resolved[fingerprint] = payload
            results[index] = _hit_result(job, fingerprint, payload)
            payloads[index] = payload
        else:
            pending.append(index)

    # Compute the misses — inline at width 1, process pool otherwise.
    unique_pending: Dict[str, int] = {}
    for index in pending:
        unique_pending.setdefault(fingerprints[index], index)
    work = [
        (fingerprints[index], jobs[index], programs[jobs[index].program_key()])
        for index in unique_pending.values()
    ]
    if max_workers == 1 or len(work) <= 1:
        computed, failed = _run_serial(work, retries)
    else:
        computed, failed = _run_pool(work, max_workers, job_timeout, retries)

    for fingerprint, payload in computed.items():
        cache.put(fingerprint, payload)
    for index in pending:
        fingerprint = fingerprints[index]
        if fingerprint in failed:
            template = failed[fingerprint]
            failure_by_index[index] = JobFailure(
                job=jobs[index],
                fingerprint=fingerprint,
                kind=template.kind,
                error_type=template.error_type,
                message=template.message,
                attempts=template.attempts,
            )
            continue
        payload = computed.get(fingerprint)
        if payload is None:  # pool torn down before this job ran (timeout path)
            failure_by_index[index] = JobFailure(
                job=jobs[index],
                fingerprint=fingerprint,
                kind=FAILURE_TIMEOUT,
                error_type="TimeoutError",
                message="pool shut down after an earlier job timed out",
                attempts=1,
            )
            continue
        payloads[index] = payload
        results[index] = JobResult(
            job=jobs[index],
            fingerprint=fingerprint,
            ratio=payload["ratio"],
            bytes_in=payload["bytes_in"],
            bytes_out=payload["bytes_out"],
            wall_time=payload.get("wall_time", 0.0),
            cache_hit=False,
        )

    rec = get_recorder()
    if rec.enabled:
        for _ in failure_by_index:
            rec.count("pipeline.job_failures")

    # Roll worker telemetry up, one contribution per job *occurrence*
    # (replay semantics: the aggregate is a pure function of the job
    # list, so serial and parallel runs merge identically).  Entries
    # cached by an obs-off run carry no snapshot and contribute nothing.
    telemetry = None
    snapshots = [
        payload["obs"]
        for payload in payloads
        if payload is not None and isinstance(payload.get("obs"), dict)
    ]
    if snapshots:
        telemetry = merge_snapshots(snapshots)
        recorder = get_recorder()
        if recorder.enabled:
            recorder.merge_snapshot(telemetry)

    return PipelineReport(
        results=[result for result in results if result is not None],
        cache_stats=cache.stats.as_dict(),
        recompressions=len(computed),
        total_wall_time=perf_seconds() - started,
        max_workers=max_workers,
        telemetry=telemetry,
        failures=[failure_by_index[index] for index in sorted(failure_by_index)],
    )


_Work = Tuple[str, ExperimentJob, bytes]


def _failure(
    job: ExperimentJob,
    fingerprint: str,
    kind: str,
    error: BaseException,
    attempts: int,
) -> JobFailure:
    return JobFailure(
        job=job,
        fingerprint=fingerprint,
        kind=kind,
        error_type=error.__class__.__name__,
        message=str(error),
        attempts=attempts,
    )


def _retry_delays(retries: int) -> List[float]:
    """Sleep before each retry of a job that raised: ``0.05 * 2**n`` s."""
    policy = RetryPolicy(
        max_attempts=retries + 1, base_delay=0.05, multiplier=2.0, jitter=0.0
    )
    return list(policy.delays())


def _run_serial(
    work: List[_Work], retries: int
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, JobFailure]]:
    """Inline execution with bounded retry.

    No preemptive timeout here: the inline path cannot interrupt its own
    stack, so ``job_timeout`` is a pool-only guarantee (documented on
    :func:`run_pipeline`).
    """
    rec = get_recorder()
    delays = _retry_delays(retries)
    computed: Dict[str, Dict[str, Any]] = {}
    failed: Dict[str, JobFailure] = {}
    for fingerprint, job, code in work:
        for attempt in range(retries + 1):
            try:
                computed[fingerprint] = execute_job(job, code)
                break
            except Exception as error:
                if attempt < retries:
                    if rec.enabled:
                        rec.count("pipeline.job_retries")
                    time.sleep(delays[attempt])
                    continue
                failed[fingerprint] = _failure(
                    job, fingerprint, FAILURE_ERROR, error, attempt + 1
                )
    return computed, failed


def _run_pool(
    work: List[_Work],
    max_workers: int,
    job_timeout: Optional[float],
    retries: int,
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, JobFailure]]:
    """Process-pool execution in retry waves, with crash isolation.

    Each wave submits the remaining jobs and collects results with an
    optional per-job timeout.  A worker crash (``BrokenProcessPool``)
    poisons the pool, so it is rebuilt before the next wave; a timeout
    abandons the whole pool (the stuck worker cannot be preempted) and
    the jobs still queued behind it are recorded as timed out too.
    """
    rec = get_recorder()
    delays = _retry_delays(retries)
    computed: Dict[str, Dict[str, Any]] = {}
    failed: Dict[str, JobFailure] = {}
    attempts: Dict[str, int] = {fingerprint: 0 for fingerprint, _, _ in work}
    remaining = list(work)
    pool = ProcessPoolExecutor(max_workers=min(max_workers, len(work)))
    try:
        while remaining:
            futures = [
                (item, pool.submit(execute_job, item[1], item[2]))
                for item in remaining
            ]
            retry_next: List[_Work] = []
            abandoned = False
            broken = False
            for item, future in futures:
                fingerprint, job, _ = item
                if abandoned:
                    # The pool was torn down after a timeout; this job may
                    # never run.  Fail it rather than wait forever.
                    failed[fingerprint] = JobFailure(
                        job=job,
                        fingerprint=fingerprint,
                        kind=FAILURE_TIMEOUT,
                        error_type="TimeoutError",
                        message="pool shut down after an earlier job timed out",
                        attempts=attempts[fingerprint] + 1,
                    )
                    continue
                attempts[fingerprint] += 1
                try:
                    computed[fingerprint] = future.result(timeout=job_timeout)
                except FuturesTimeoutError as error:
                    if rec.enabled:
                        rec.count("pipeline.job_timeouts")
                    failed[fingerprint] = _failure(
                        job, fingerprint, FAILURE_TIMEOUT, error, attempts[fingerprint]
                    )
                    pool.shutdown(wait=False, cancel_futures=True)
                    abandoned = True
                except BrokenProcessPool as error:
                    # The crash may have taken unrelated queued jobs with
                    # it; every still-missing job gets another wave on a
                    # fresh pool (or a crash record once out of retries).
                    broken = True
                    if attempts[fingerprint] <= retries:
                        if rec.enabled:
                            rec.count("pipeline.job_retries")
                        retry_next.append(item)
                    else:
                        failed[fingerprint] = _failure(
                            job, fingerprint, FAILURE_CRASH, error,
                            attempts[fingerprint],
                        )
                except Exception as error:
                    if attempts[fingerprint] <= retries:
                        if rec.enabled:
                            rec.count("pipeline.job_retries")
                        time.sleep(delays[attempts[fingerprint] - 1])
                        retry_next.append(item)
                    else:
                        failed[fingerprint] = _failure(
                            job, fingerprint, FAILURE_ERROR, error,
                            attempts[fingerprint],
                        )
            if abandoned:
                retry_next = []
            elif broken and retry_next:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=min(max_workers, len(work)))
            remaining = retry_next
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return computed, failed


def _hit_result(
    job: ExperimentJob, fingerprint: str, payload: Dict[str, Any]
) -> JobResult:
    return JobResult(
        job=job,
        fingerprint=fingerprint,
        ratio=payload["ratio"],
        bytes_in=payload["bytes_in"],
        bytes_out=payload["bytes_out"],
        wall_time=0.0,
        cache_hit=True,
    )


__all__ = [
    "ExperimentJob",
    "NullCache",
    "ResultCache",
    "execute_job",
    "run_pipeline",
]
